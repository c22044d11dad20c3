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
so both checks agree.  On the table's steps (istructure.ITable.steps),
which give every vector of degree <= D-1 one state, a pair (p, q) holds
the states of b and pi(b); adding u_j to b adds u_{pi(j)} to pi(b), so
each i walks the product automaton breadth first from (0, 0) by (p, q)
-> (step[j][p], step[pi(j)][q]), to degree D-2 (core.closure), and
tests each pair once: phi(b + u_i) is the row of step[i][p].  That is
at most |H|^2 pairs per level, H the image group.  Every row to degree
D-1, the states D-1 steps reach, is first made a permutation, as phi_of
makes it.  Only a failure runs the sweep, which check_cocycle words at
its first failing pair; it always finds one, as it sweeps (0, 0) and
every (b, u_i).

kernel_exponents reads the row of u_i^k off the steps as state 0
stepped k times by step[i], and coset_decomposition rests factorization
and the product rule on step[i] stepped t_i times taking state 0 back
to 0, for every i.  Every vector of degree <= D-1 having one state,
every P0 point then has state 0, so phi is trivial there (and by the
steps' commutation step[i]^t_i fixes every state: phi(b + t_i u_i) =
phi(b)).  Decoding v(rep) v(p) reads v(p) to state 0, then v(rep) as
from the origin, and the automaton is deterministic, so it ends at rep +
p = e, as the decoding of v(e) does.  On a build that state check always
holds: its rows are interned, so the row sigma is state 0's alone, and
t_i ends at it.  An automaton with other states of row sigma (one state
per vector, say) takes the vector walk, which asks at each e of degree
<= D in graded-lex order phi_of of the P0 part, then the word problem
on v(e) against v(rep) v(p), up to the first failure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import mod, sub

from .core import (
    CheckResult,
    ConsistencyError,
    DegreeBoundError,
    ExpVec,
    InputError,
    Perm,
    closure,
    compose_perm,
    exp_add,
    expvec_level,
    format_expvec,
    relabel_expvec,
)
from .istructure import ITable, v_of, words_equal

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
    return _phi(pm, pm.table.row(b))  # raises DegreeBoundError past D-1


def _phi(pm: PhiMap, row: tuple[int, ...]) -> Perm:
    """The row relabeled by sigma^-1; a row that is no permutation raises."""
    inv = pm._sigma_inv.images
    return Perm(tuple([inv[c - 1] for c in row]))


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


def cocycle_exhaustive(pm: PhiMap) -> CheckResult:
    """The cocycle identity over every pair with deg b + deg c <= D-1,
    decided on phi(0) and the pairs (b, u_i), on the table's states (see
    the module notes); only a failure sweeps all pairs in order, to
    format the first failing one."""
    if _instances_on_states(pm):
        return CheckResult.passed()
    vecs = [b for d in range(pm.D) for b in expvec_level(pm.n, d)]
    for b, c in itertools.product(vecs, vecs):
        if sum(b) + sum(c) < pm.D and not (res := check_cocycle(pm, b, c)):
            return res
    raise AssertionError("the generator instances failed, yet every pair holds")


def _instances_on_states(pm: PhiMap) -> bool:
    """phi(0) = id and each (b, u_i), deg b <= D-2, on the product
    automaton of i, each pair of states once."""
    distinct, step = pm.table.steps
    near = closure([0], lambda p: [s[p] for s in step], pm.D - 1)  # the states to degree D-1
    images = {p: _phi(pm, distinct[p]).images for p in near}
    if images[0] != tuple(range(1, pm.n + 1)):
        return False
    for s_i in step:
        pi = images[s_i[0]]  # phi(u_i)
        moves = [(s_j, step[k - 1]) for s_j, k in zip(step, pi)]  # to b + u_j, pi(b) + u_pi(j)
        # the pairs (state of b, state of pi(b)), deg b <= D-2
        pairs = closure([(0, 0)], lambda x: [(s[x[0]], s_pi[x[1]]) for s, s_pi in moves], pm.D - 2)
        if any(images[s_i[p]] != tuple([images[q][k - 1] for k in pi]) for p, q in pairs):
            return False
    return True


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
    identity, on the table's states (module notes).  The minimal
    exponent always divides n!, so a table with D > n! never fails;
    smaller tables may need a raised bound.  The image group H is the
    closure of the n generator images under right multiplication by them
    (core.closure on image tuples): by the cocycle identity every phi(b)
    is a product of the phi(u_i).  bieberbach._label_frame closes the
    same images, with their inverses, into the same H."""
    n, (distinct, step) = pm.n, pm.table.steps
    t = []
    for i, s_i in enumerate(step, start=1):
        p = 0
        for k in range(1, pm.D):
            p = s_i[p]  # u_i^k has the state 0 stepped k times by step[i]
            if _phi(pm, distinct[p]).is_identity():
                t.append(k)
                break
        else:
            raise DegreeBoundError(
                f"no power of generator {i} up to degree D-1 = {pm.D - 1} has trivial "
                f"phi; raise the degree bound (D = n! + 1 = {math.factorial(n) + 1} suffices)"
            )
    for i, ti in enumerate(t, start=1):
        if math.factorial(n) % ti != 0:
            raise ConsistencyError(f"t_{i} = {ti} does not divide n! = {math.factorial(n)}")
    gens = tuple(phi_of(pm, tuple(int(j == i) for j in range(n))) for i in range(n))
    right = [[k - 1 for k in g.images] for g in gens]  # p -> p * g on image tuples
    group = closure([g.images for g in gens], lambda p: [tuple([p[k] for k in g]) for g in right])
    p0 = tuple(tuple(t[i - 1] if j == i else 0 for j in range(1, n + 1)) for i in range(1, n + 1))
    return KernelData(tuple(t), gens, frozenset(map(Perm, group)), p0)


@dataclass(frozen=True)
class CosetReport:
    kernel: KernelData  # the kernel exponents the box is built from
    reps: tuple[ExpVec, ...]  # the box 0 <= p_i <= t_i - 1, graded-lex
    factorization: CheckResult  # phi is trivial on the P0 part of every vector
    product_rule: CheckResult  # v(rep * p) = v(rep) v(p) in the semigroup
    commuting: CheckResult  # the v(u_i^{t_i}) pairwise commute

    @property
    def ok(self) -> bool:
        return bool(self.factorization and self.product_rule and self.commuting)


def _coset_walk(pm: PhiMap, t: tuple[int, ...]) -> tuple[CheckResult, CheckResult]:
    """Factorization and product rule at every e of degree <= D in
    graded-lex order, up to the first failure (see the module notes)."""
    table, passed = pm.table, CheckResult.passed()
    for e in (e for d in range(pm.D + 1) for e in expvec_level(pm.n, d)):
        rep = tuple(map(mod, e, t))
        p = tuple(map(sub, e, rep))
        if sum(p) < pm.D and not phi_of(pm, p).is_identity():
            return CheckResult.failed(
                f"P0 part {format_expvec(p)} of {format_expvec(e)} has nontrivial phi"
            ), passed
        if not words_equal(table, v_of(table, e), v_of(table, rep) + v_of(table, p)):
            return passed, CheckResult.failed(
                f"v({format_expvec(e)}) differs from v({format_expvec(rep)})"
                f"v({format_expvec(p)}) in the semigroup"
            )
    return passed, passed


def _returns_to_origin(step_i, ti: int) -> bool:
    """Whether state 0 stepped ti times by step_i is state 0 again."""
    p = 0
    for _ in range(ti):
        p = step_i[p]
    return p == 0


def coset_decomposition(pm: PhiMap) -> CosetReport:
    """Certify, for every exponent vector e of degree <= D, that its
    split e = rep + p with rep = e mod t in the box and p in P0 has
    phi(p) = id, and that the split is compatible with v (concatenating
    the two canonical words lands in the right class): on the table's
    states when every step[i] takes state 0 back to 0 in t_i steps, else
    vector by vector (module notes).  Refuses (DegreeBoundError) up front
    a table too short for the commuting check, which decodes words of
    degree t_i + t_j, and (InputError) a box of more than MAX_COSET_BOX
    vectors."""
    table, n = pm.table, pm.n
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
    if all(map(_returns_to_origin, table.steps[1], t)):
        factorization = product_rule = CheckResult.passed()
    else:
        factorization, product_rule = _coset_walk(pm, t)
    commuting = CheckResult.passed()
    gens = [v_of(table, g) for g in kd.p0_generators]
    for i in range(n):
        for j in range(i + 1, n):
            if not words_equal(table, gens[i] + gens[j], gens[j] + gens[i]):
                commuting = CheckResult.failed(
                    f"v(u_{i + 1}^{t[i]}) and v(u_{j + 1}^{t[j]}) do not commute"
                )
    return CosetReport(kd, tuple(reps), factorization, product_rule, commuting)
