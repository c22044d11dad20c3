"""The permutation-valued map phi on exponent vectors and its kernel.

Right multiplication in the semigroup twists left factors: for every
exponent vector b there is a permutation phi(b) of the generators with

    v(a b) = v(phi(b)(a)) v(b)

(phi(b) acts on exponent vectors by relabeling generators).  With the
default sigma = id the table rows ARE these permutations: phi(b)(i) is
the letter index of x[b, i].  phi obeys the twisted cocycle identity

    phi(b c) = phi(phi(c)(b)) * phi(c)

under the package-wide composition convention (p * q)(i) = p(q(i)).

The kernel P = {b : phi(b) = id} contains a power of every generator;
the minimal exponents t_i (each dividing n!) generate a free abelian
subsemigroup P0 whose translates by the box {0 <= p_i <= t_i - 1} tile
the whole semigroup.

cocycle_exhaustive tests phi(0) = id and the pairs (b, u_i): with pi =
phi(u_i), phi(b + c + u_i) = phi(pi(b) + pi(c)) * pi, which the pair
(pi(b), pi(c)) and the pair (c, u_i) turn into phi(phi(c + u_i)(b)) *
phi(c + u_i), relabeling being a left action.  By induction on deg c
that gives every pair, and the sweep's pair (0, 0) forces phi(0) = id,
so both checks agree.  Only a failure runs the sweep, to name its first
failing pair; check_cocycle, with its Perm objects, formats it.  It
always finds one, as it sweeps (0, 0) and every (b, u_i).

coset_decomposition follows istructure's peel walk, carrying v(e) and
its decoding; v(rep) v(p) decodes from v(p)'s decoding on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import add

from .core import (
    CheckResult,
    ConsistencyError,
    DegreeBoundError,
    ExpVec,
    InputError,
    Perm,
    closure,
    compose_perm,
    degree,
    exp_add,
    expvecs_up_to,
    format_expvec,
    relabel_expvec,
)
from .istructure import ITable, decode_from, peel_walk, v_of, words_equal

# phi prints all prod(t_i) vectors of the coset box; past this many it refuses.
MAX_COSET_BOX = 1_000_000


class PhiMap:
    """phi backed by an I-structure table."""

    def __init__(self, table: ITable):
        self.table = table
        self.n = table.n
        self.D = table.D
        self._sigma_inv = table.sigma.inverse()


def phi_of(pm: PhiMap, b: ExpVec) -> Perm:
    """The permutation i -> sigma^-1(x[b, i]); bijective by the row
    property.  Defined for deg b <= D-1."""
    row = pm.table.row(b)  # raises DegreeBoundError past D-1
    return Perm(tuple(pm._sigma_inv(c) for c in row))


def check_cocycle(pm: PhiMap, b: ExpVec, c: ExpVec) -> CheckResult:
    """phi(bc) = phi(phi(c)(b)) * phi(c) for one pair; needs
    deg b + deg c <= D-1."""
    lhs = phi_of(pm, exp_add(b, c))
    pc = phi_of(pm, c)
    rhs = compose_perm(phi_of(pm, relabel_expvec(b, pc)), pc)
    if lhs != rhs:
        return CheckResult.failed(
            f"b={format_expvec(b)} c={format_expvec(c)}: "
            f"phi(bc)={lhs.images} but phi(phi(c)(b))*phi(c)={rhs.images}"
        )
    return CheckResult.passed()


def cocycle_exhaustive(pm: PhiMap, dmax: int) -> CheckResult:
    """The cocycle identity over every pair with deg b + deg c <= dmax,
    decided on phi(0) and the pairs (b, u_i) (see the module notes); only
    a failure sweeps all pairs in order, to format the first failing one."""
    if dmax > pm.D - 1:
        raise DegreeBoundError(f"cocycle sweep to degree {dmax} needs D >= {dmax + 1}")
    n = pm.n
    vecs = expvecs_up_to(n, dmax)
    inv = pm._sigma_inv.images  # the image tuple of phi(b) is row(b) relabeled by sigma^-1
    images = {b: tuple([inv[c - 1] for c in pm.table.row(b)]) for b in vecs}
    for p in dict.fromkeys(images.values()):
        Perm(p)  # a row that is no permutation raises, as phi_of did

    def holds(b: ExpVec, c: ExpVec) -> bool:
        pc = images[c]
        relabeled = [0] * n
        for i in range(n):
            relabeled[pc[i] - 1] = b[i]
        p = images[tuple(relabeled)]
        return images[tuple(map(add, b, c))] == tuple([p[k - 1] for k in pc])

    if images[vecs[0]] == tuple(range(1, n + 1)) and all(
        holds(b, u) for b in expvecs_up_to(n, dmax - 1) for u in vecs[1 : n + 1]  # u: degree 1
    ):
        return CheckResult.passed()
    for b in vecs:
        room = dmax - sum(b)
        for c in vecs:
            if sum(c) > room:
                break  # vecs is graded: every later c is too
            if not holds(b, c):
                return check_cocycle(pm, b, c)
    raise AssertionError("the generator instances failed, yet every pair holds")


@dataclass(frozen=True)
class KernelData:
    t: tuple[int, ...]  # minimal positive exponents with phi(u_i^t_i) = id
    generators: tuple[Perm, ...]  # the phi(u_i), in generator order
    group: frozenset[Perm]  # the image of phi, generated by the phi(u_i)
    p0_generators: tuple[ExpVec, ...]  # the vectors t_i * e_i

    @property
    def group_order(self) -> int:
        return len(self.group)


def kernel_exponents(pm: PhiMap) -> KernelData:
    """Walk the powers of each generator until phi returns to the
    identity.  The minimal exponent always divides n!, so a table with
    D > n! never fails; smaller tables may need a raised bound.  The
    image group H is the closure of the n generator images under right
    multiplication by them (core.closure): by the cocycle identity every
    phi(b) is a product of the phi(u_i).  bieberbach._frame closes the
    same images, with their inverses, into the same H."""
    n = pm.n
    t = []
    for i in range(1, n + 1):
        for k in range(1, pm.D):
            if phi_of(pm, tuple(k if j == i else 0 for j in range(1, n + 1))).is_identity():
                t.append(k)
                break
        else:
            raise DegreeBoundError(
                f"no power of generator {i} up to degree D-1 = {pm.D - 1} has "
                f"trivial phi; raise the degree bound (at most n! = {math.factorial(n)} needed)"
            )
    for i, ti in enumerate(t, start=1):
        if math.factorial(n) % ti != 0:
            raise ConsistencyError(f"t_{i} = {ti} does not divide n! = {math.factorial(n)}")
    gens = tuple(phi_of(pm, tuple(int(j == i) for j in range(n))) for i in range(n))
    group = closure(gens, lambda p: [compose_perm(p, g) for g in gens])
    p0 = tuple(tuple(t[i - 1] if j == i else 0 for j in range(1, n + 1)) for i in range(1, n + 1))
    return KernelData(tuple(t), gens, frozenset(group), p0)


@dataclass(frozen=True)
class CosetReport:
    kernel: KernelData  # the kernel exponents the box is built from
    reps: tuple[ExpVec, ...]  # the box 0 <= p_i <= t_i - 1, graded-lex
    factorization: CheckResult  # phi is trivial on the P0 part of every vector
    product_rule: CheckResult  # v(rep * p) = v(rep) v(p) in the semigroup
    commuting: CheckResult  # the v(u_i^{t_i}) pairwise commute

    @property
    def t(self) -> tuple[int, ...]:
        return self.kernel.t

    @property
    def ok(self) -> bool:
        return bool(self.factorization and self.product_rule and self.commuting)


def coset_decomposition(pm: PhiMap, m: int) -> CosetReport:
    """Certify, for every exponent vector e of degree <= m, that its
    split e = rep + p with rep = e mod t in the box and p in P0 has
    phi(p) = id, and that the split is compatible with v (concatenating
    the two canonical words lands in the right class).  Refuses
    (DegreeBoundError) up front a table too short for the commuting
    check, which decodes words of degree t_i + t_j, and (InputError) a box
    of more than MAX_COSET_BOX vectors."""
    if m > pm.D:
        raise DegreeBoundError(f"coset check to degree {m} exceeds table bound D = {pm.D}")
    table = pm.table
    n = pm.n
    kd = kernel_exponents(pm)
    t = kd.t
    box = math.prod(t)
    if box > MAX_COSET_BOX:
        raise InputError(
            f"coset box for t = {format_expvec(t)} holds {box} vectors, "
            f"over the limit of {MAX_COSET_BOX}"
        )
    need = max((t[i] + t[j] for i in range(n) for j in range(i + 1, n)), default=0)
    if need > pm.D:
        raise DegreeBoundError(
            f"coset commuting check needs degree {need}, which exceeds table bound D = {pm.D}"
        )
    reps = sorted(itertools.product(*(range(ti) for ti in t)), key=lambda v: (sum(v), v))
    # per vector walked so far: v(e) and the decoding of v(e)
    word: dict[ExpVec, tuple[int, ...]] = {}
    dec: dict[ExpVec, ExpVec] = {}
    factorization = CheckResult.passed()
    product_rule = CheckResult.passed()
    for e, b, x in peel_walk(table, m):
        rep = tuple(v % ti for v, ti in zip(e, t))
        p = tuple(v - r for v, r in zip(e, rep))
        if degree(p) <= pm.D - 1 and table.row(p) != table.sigma.images:  # phi(p) != id
            phi_of(pm, p)  # a row that is no permutation raises
            factorization = CheckResult.failed(
                f"P0 part {format_expvec(p)} of {format_expvec(e)} has nontrivial phi"
            )
            break
        if b is None:
            word[e], dec[e] = (), e
        else:
            word[e] = (x,) + word[b]
            dec[e] = decode_from(table, dec[b], (x,))
        if decode_from(table, dec[p], word[rep]) != dec[e]:
            product_rule = CheckResult.failed(
                f"v({format_expvec(e)}) differs from v({format_expvec(rep)})"
                f"v({format_expvec(p)}) in the semigroup"
            )
            break
    commuting = CheckResult.passed()
    gens = [v_of(table, g) for g in kd.p0_generators]
    for i in range(n):
        for j in range(i + 1, n):
            wi, wj = gens[i], gens[j]
            if not words_equal(table, wi + wj, wj + wi):
                commuting = CheckResult.failed(
                    f"v(u_{i + 1}^{t[i]}) and v(u_{j + 1}^{t[j]}) do not commute"
                )
    return CosetReport(kd, tuple(reps), factorization, product_rule, commuting)
