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

cocycle_exhaustive takes the image tuple of phi(b) once per vector and
tests every pair on tuples (relabel b, gather one image by the other);
check_cocycle, with its Perm objects, only formats the first failure.
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
    Perm,
    compose_perm,
    degree,
    exp_add,
    expvecs_up_to,
    format_expvec,
    relabel_expvec,
)
from .istructure import ITable, v_of, words_equal


class PhiMap:
    """phi backed by an I-structure table; values memoized per row."""

    def __init__(self, table: ITable):
        self.table = table
        self.n = table.n
        self.D = table.D
        self._sigma_inv = table.sigma.inverse()
        self._memo: dict[ExpVec, Perm] = {}

    def __call__(self, b: ExpVec) -> Perm:
        return phi_of(self, b)


def phi_of(pm: PhiMap, b: ExpVec) -> Perm:
    """The permutation i -> sigma^-1(x[b, i]); bijective by the row
    property.  Defined for deg b <= D-1."""
    hit = pm._memo.get(b)
    if hit is not None:
        return hit
    row = pm.table.row(b)  # raises DegreeBoundError past D-1
    perm = Perm(tuple(pm._sigma_inv(c) for c in row))
    pm._memo[b] = perm
    return perm


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
    """The cocycle identity over every pair with deg b + deg c <= dmax.
    Each pair is tested on the image tuples of phi; check_cocycle only
    formats the witness of the first failing pair."""
    if dmax > pm.D - 1:
        raise DegreeBoundError(f"cocycle sweep to degree {dmax} needs D >= {dmax + 1}")
    n = pm.n
    vecs = expvecs_up_to(n, dmax)
    images = {b: phi_of(pm, b).images for b in vecs}
    for b in vecs:
        room = dmax - sum(b)
        for c in vecs:
            if sum(c) > room:
                break  # vecs is graded: every later c is too
            pc = images[c]
            relabeled = [0] * n
            for i in range(n):
                relabeled[pc[i] - 1] = b[i]
            p = images[tuple(relabeled)]
            if images[tuple(map(add, b, c))] != tuple([p[k - 1] for k in pc]):
                return check_cocycle(pm, b, c)
    return CheckResult.passed()


@dataclass(frozen=True)
class KernelData:
    t: tuple[int, ...]  # minimal positive exponents with phi(u_i^t_i) = id
    group: frozenset[Perm]  # the image of phi, closed under composition
    p0_generators: tuple[ExpVec, ...]  # the vectors t_i * e_i

    @property
    def group_order(self) -> int:
        return len(self.group)


def kernel_exponents(pm: PhiMap) -> KernelData:
    """Walk the powers of each generator until phi returns to the
    identity.  The minimal exponent always divides n!, so a table with
    D > n! never fails; smaller tables may need a raised bound."""
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
    group = set()
    for b in expvecs_up_to(n, pm.D - 1):
        group.add(phi_of(pm, b))
    while True:
        extra = {compose_perm(p, q) for p in group for q in group} - group
        if not extra:
            break
        group.update(extra)
    p0 = tuple(tuple(t[i - 1] if j == i else 0 for j in range(1, n + 1)) for i in range(1, n + 1))
    return KernelData(tuple(t), frozenset(group), p0)


@dataclass(frozen=True)
class CosetReport:
    t: tuple[int, ...]
    reps: tuple[ExpVec, ...]  # the box 0 <= p_i <= t_i - 1, graded-lex
    degree_checked: int
    factorization: CheckResult  # unique rep * P0 splitting of every vector
    product_rule: CheckResult  # v(rep * p) = v(rep) v(p) in the semigroup
    commuting: CheckResult  # the v(u_i^{t_i}) pairwise commute

    @property
    def ok(self) -> bool:
        return bool(self.factorization and self.product_rule and self.commuting)


def coset_decomposition(pm: PhiMap, m: int) -> CosetReport:
    """Certify, for every exponent vector of degree <= m, the unique
    factorization into a box representative times an element of P0, and
    that the factorization is compatible with v (concatenating the two
    canonical words lands in the right class).  Refuses
    (DegreeBoundError) up front a table too short for the commuting
    check, which decodes words of degree t_i + t_j."""
    if m > pm.D:
        raise DegreeBoundError(f"coset check to degree {m} exceeds table bound D = {pm.D}")
    table = pm.table
    n = pm.n
    kd = kernel_exponents(pm)
    t = kd.t
    need = max((t[i] + t[j] for i in range(n) for j in range(i + 1, n)), default=0)
    if need > pm.D:
        raise DegreeBoundError(
            f"coset commuting check needs degree {need}, which exceeds table bound D = {pm.D}"
        )
    reps = sorted(itertools.product(*(range(ti) for ti in t)), key=lambda v: (sum(v), v))
    box = set(reps)
    factorization = CheckResult.passed()
    product_rule = CheckResult.passed()
    for e in expvecs_up_to(n, m):
        rep = tuple(v % ti for v, ti in zip(e, t))
        p = tuple(v - r for v, r in zip(e, rep))
        if rep not in box or any(v % ti for v, ti in zip(p, t)):
            factorization = CheckResult.failed(
                f"{format_expvec(e)} does not split as box * P0"
            )
            break
        if degree(p) <= pm.D - 1 and not phi_of(pm, p).is_identity():
            factorization = CheckResult.failed(
                f"P0 part {format_expvec(p)} of {format_expvec(e)} has nontrivial phi"
            )
            break
        if not words_equal(table, v_of(table, e), v_of(table, rep) + v_of(table, p)):
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
    return CosetReport(t, tuple(reps), m, factorization, product_rule, commuting)
