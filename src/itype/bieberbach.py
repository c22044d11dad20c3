"""The right action of the quotient group on the integer lattice.

Identifying exponent vectors with points of Z^n, right multiplication
by a generator becomes an affine map.  phi is defined by
v(a b) = v(phi(b)(a)) v(b), phi(b) moving the exponent of generator k
to generator phi(b)(k).  With sigma = id, b = u_i gives
v(c u_i) = v(phi(u_i)(c)) x_i.  So the point a = phi(u_i)(c) times x_i
is c + u_i, and c_j = a[phi(u_i)(j)]:

    (a . x_i)_j = a[phi(u_i)(j)] + delta_ij,

a coordinate permutation followed by a unit shift: a Euclidean isometry
of Z^n that extends verbatim to R^n.  Its permutation part is phi(u_i),
the table row of u_i, by definition.  Products of the generator
isometries and their inverses realize the whole quotient group; this
module certifies, within bounds or in closed form, that

  * the lattice action matches right multiplication in the semigroup,
  * no non-identity element has a fixed point (freeness), fixed-point
    sets being solved exactly by cycle analysis of the permutation part,
  * the orbit of the origin tiles a requested box exactly once, so the
    unit cube is a fundamental domain,

and classifies the n = 2 isometries into translations and glide
reflections.  All arithmetic is exact (integers and rationals).

The action check covers every point of degree <= D-1, decided on few
states.  Let gamma_i be generator i's map, pi_i its permutation part.
With a = b + u_j, j the least index present in a, the instance at (a, i)
reads only the letter row(b)[j], the row of gamma_i(b) and j, and
gamma_i(b + u_j) = gamma_i(b) + u_{pi_i^-1(j)}.  A built table's steps
give row(c + u_m) = distinct[step[m][id of row(c)]] for every c of
degree <= D-2 (istructure).  So the state (row id of b, row ids of the
gamma_i(b), least index present in b; at the origin every j is allowed)
fixes every instance at and above b, the next state being (step[j][p],
(step[pi_i^-1(j)][q_i])_i, j).  A breadth-first sweep checks each
distinct state once, at the least depth it is met, which covers every
later meeting.  The point walk runs only to word a failure.

Inside the searches an element is written (sigma, a): sigma its 0-based
permutation part, a = g(0) its shift.  Put q = a o sigma^-1, so
q[sigma(j)] = a[j].  A signed generator h = (pi, s) sends sigma to
sigma' = sigma o pi and a to a'[j] = a[pi(j)] + s[j], hence
q'[sigma'(j)] = q[sigma(pi(j))] + s[j]: q moves by the translation d
with d[sigma'(j)] = s[j], which depends only on sigma' and h.  `_frame`
numbers the finite group the permutation parts generate (the identity
is label 0) and writes an element as one integer key, K(q) |G| + label,
with K(q) the balanced base-B number whose digits are the entries of q.
K is additive, so a step adds a precomputed delta to the key: one
integer add, and the searches probe sets of keys.  After at most L steps
every |q_j| <= L m, m the largest shift entry, so B = 2 L m + 1 keeps
the keys of distinct elements distinct; the identity's key is 0.
x = g(x) is x[j] = x[sigma(j)] + a[j]: it telescopes along each cycle of
sigma, so g has a fixed point iff a sums to 0 on every cycle, as q does.

Tiling needs no search when three conditions hold (Zassenhaus 1948;
Charlap 1986).  (a) Generator i has the shift e_i: a step changes
|g(0)|_1 by exactly 1.  (b) i -> pi_i(i) is a bijection: from p != 0,
g_i^-1 with p_i > 0, or g_i with pi_i(i) = k and p_k < 0, lowers |p|_1,
so the ball of word length L sends the origin onto the l1 ball of
radius L, and G is transitive on Z^n.  (c) The lattice of T = G cap Z^n,
generated (Schreier) by q_h + d(h, s) - q_{h s} over the labels h and
the generators s, q_h from a breadth-first transversal, has index |H|.
T is normal, so the lattice is invariant under every permutation part
and, by (b), Z^n is the union over h of a_h + T: the index is at most
|H|, and |H| iff these cosets are distinct, iff g -> g(0) is one to one.
Then the report is fixed: the l1 ball's size, and the box points of
norm <= L.  Otherwise a breadth-first search over the element keys
decides: it steps a new element's origin image, a'[j] = a[pi(j)] + s[j],
and fails at the first one already taken.

The same certificate decides freeness.  Under (a)-(c) G acts simply
transitively on Z^n.  An element with a fixed point has an integral one,
its shift being integral (fixed_points), so it fixes a lattice point and
is the identity: G is torsion-free.  Otherwise the test is exact as well
(Zassenhaus 1948; Charlap 1986, ch. I-III): the elements of label h are
(h, q_h + t) with t in T, and such an element has a fixed point iff
q_h + t sums to 0 on every cycle of h.  So G has torsion iff, for some
label h != id, the cycle sums of q_h lie in the image of T under h's
cycle-sum map: one echelon form and one reduction per label, whatever
the word length.  Either way only the relations are walked, each prefix
kept while its length plus its element's word length is at most L.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from operator import mul

from .core import (
    CheckResult,
    InputError,
    Perm,
    closure,
    expvec_level,
    format_expvec,
    format_word,
)
from .istructure import v_inverse, v_of
from .structuremaps import PhiMap, phi_of

Point = tuple  # integer (or rational) coordinates

# Freeness walks the relation prefixes up to the requested length, at
# most one per reduced word, 2n-1 times more per letter; past this many
# reduced words it refuses to start.  On a 2-vCPU Xeon with Python 3.11,
# `bieberbach x2y2.pres --length 12 --radius 0` (1,062,880 words, 19,880
# relations, 313 elements) takes 0.3-0.4 s and 28 MiB: only the prefixes
# that can still close are extended.
MAX_FREENESS_WORDS = 2_000_000

# Tiling refuses to start past this many points that its search could
# reach, whether the closed form or the search would decide.  The search
# keeps one key and one origin image per element it meets: at the default
# flags flip5 (982,729 points) takes 3.8-4.5 s and 239 MiB in all on a
# 2-vCPU Xeon with Python 3.11 when its tiling is searched, and 0.18 s
# and 30 MiB in the closed form.
MAX_TILING_POINTS = 1_000_000


@dataclass(frozen=True)
class AffineIso:
    """A coordinate permutation plus an integer translation, acting on
    row vectors on the right: act(a)_j = a[perm(j)] + shift_j."""

    perm: Perm
    shift: tuple[int, ...]

    def __post_init__(self):
        if self.perm.n != len(self.shift):
            raise InputError("permutation and shift dimensions differ")

    def __str__(self) -> str:
        return f"perm={','.join(map(str, self.perm.images))} shift={','.join(map(str, self.shift))}"

    @property
    def n(self) -> int:
        return len(self.shift)

    def is_identity(self) -> bool:
        return self.perm.is_identity() and not any(self.shift)

    @staticmethod
    def identity(n: int) -> "AffineIso":
        return AffineIso(Perm.identity(n), (0,) * n)


def act(g: AffineIso, a: Point) -> Point:
    """Apply the isometry to a point (integer or rational coordinates)."""
    if len(a) != g.n:
        raise InputError(f"point has dimension {len(a)}, isometry {g.n}")
    return tuple([a[k - 1] + s for k, s in zip(g.perm.images, g.shift)])


def compose(g: AffineIso, h: AffineIso) -> AffineIso:
    """The product 'g then h' of the right action:
    act(compose(g, h), a) = act(h, act(g, a)).  Its permutation part is
    j -> g.perm(h.perm(j)) and its shift act(h, g.shift)."""
    if g.n != h.n:
        raise InputError("dimension mismatch")
    return AffineIso(Perm(tuple([g.perm.images[k - 1] for k in h.perm.images])), act(h, g.shift))


def invert(g: AffineIso) -> AffineIso:
    inv = g.perm.inverse()
    shift = tuple(-g.shift[inv(j) - 1] for j in range(1, g.n + 1))
    return AffineIso(inv, shift)


@dataclass(frozen=True)
class FixedPointSet:
    """Exact solution set of act(g, a) = a over the rationals: empty, or
    an affine subspace with one free parameter per permutation cycle."""

    empty: bool
    dim: int  # -1 when empty
    point: Point | None  # a sample fixed point (integral for integer shifts)


def fixed_points(g: AffineIso) -> FixedPointSet:
    """Cycle analysis: along each cycle of the permutation part the
    equations chain into a telescoping sum, so a cycle is solvable iff
    its shift-sum vanishes, contributing one free parameter."""
    sample = [None] * g.n
    cycles = g.perm.cycles()
    for cyc in cycles:
        if sum(g.shift[j - 1] for j in cyc) != 0:
            return FixedPointSet(True, -1, None)
        val = 0
        for j in cyc:  # a[p(j)] = a[j] - s_j, walking the cycle
            sample[j - 1] = val
            val -= g.shift[j - 1]
    return FixedPointSet(False, len(cycles), tuple(sample))


def affine_generators(pm: PhiMap) -> list[AffineIso]:
    """The affine map of each generator i, in order: permutation part
    phi(u_i), unit shift in coordinate i."""
    return _generators(pm, None)


def _generators(pm: PhiMap, generators: list[AffineIso] | None) -> list[AffineIso]:
    """The generator isometries, or `generators` in their place: one per
    generator, in order, each of dimension n.  Either way the table must
    be built with sigma = id, the frame the lattice action lives in."""
    if not pm.table.sigma.is_identity():
        raise InputError("the lattice action requires a table built with sigma = id")
    if generators is None:
        units = [tuple(int(j == i) for j in range(pm.n)) for i in range(pm.n)]
        return [AffineIso(phi_of(pm, u), u) for u in units]
    if len(generators) != pm.n or any(g.n != pm.n for g in generators):
        raise InputError("dimension mismatch")
    return generators


def resolve_convention() -> str:
    """The permutation part of every generator isometry is phi(u_i), by
    the definition of phi (see the module docstring); nothing is decided
    at run time.  The name stays while bench/tracer.py spans it."""
    return "phi"


def check_action_consistency(pm: PhiMap, generators: list[AffineIso] | None = None) -> CheckResult:
    """The decisive oracle: for every lattice point of degree <= D-1 and
    every generator, the affine image equals the decoding of 'canonical
    word times one more letter', i.e. the action really is right
    multiplication transported through v.  `generators` replaces the
    generator isometries (one per generator, in order).  Past the origin
    the first failure ends the check, so at a = b + u_j, v(a) = x v(b),
    v(b) x_i decodes to c = gamma_i(b) and v(a) x_i to c + u_m, m the
    place of x in the row of c: gamma_i(a) = c + u_m iff m = pi_i^-1(j).

    That instance reads only the rows of b and of the gamma_i(b), and j,
    and gamma_i(b + u_j) = gamma_i(b) + u_{pi_i^-1(j)}.  So `_sweep`
    decides on the states of the table's steps (istructure): (row id of
    b, row ids of the gamma_i(b), least index in b), each once at the
    least degree it is met (module docstring), not on the C(n+D-1, n)
    points.  The point walk `_walk` words a failure; a sweep failure
    that the walk does not confirm is a bug (AssertionError)."""
    gens, t = _generators(pm, generators), pm.table
    # v(0) x_i is the one letter x_i
    at_origin = _compare(gens, (0,) * t.n, [v_inverse(t, (i,)) for i in range(1, t.n + 1)])
    if not at_origin or _sweep(t.steps, gens, t.D - 1):
        return at_origin
    result = _walk(t, gens, t.D - 1)
    if result:
        raise AssertionError("the consistency sweep failed, yet the point walk holds")
    return result


def _compare(gens: list[AffineIso], a: Point, right: list[Point]) -> CheckResult:
    """The affine images of a against the decodings of v(a) x_i."""
    for i, (g, algebraic) in enumerate(zip(gens, right), start=1):
        geometric = act(g, a)
        if geometric != algebraic:
            return CheckResult.failed(
                f"at a={format_expvec(a)}, generator {i}: affine image "
                f"{geometric} but right multiplication gives {algebraic}"
            )
    return CheckResult.passed()


def _sweep(steps, gens: list[AffineIso], bound: int) -> bool:
    """Whether every instance of `check_action_consistency` to degree
    bound = D-1 >= 1 holds, breadth first over the states of the build's
    steps: from the state of b, each j <= its least index is the
    instance at b + u_j and, below the bound, steps to the state of
    b + u_j.  The origin passed, so gamma_i(0) = u_k with k the place of
    1 in g_i's shift."""
    distinct, step = steps
    want = [[g.perm.images.index(j + 1) for g in gens] for j in range(len(gens))]  # pi_i^-1(j)
    start = (0, tuple([step[g.shift.index(1)][0] for g in gens]), len(gens) - 1)
    seen = {start}
    states = [start]
    for depth in range(bound):
        deeper = depth + 1 < bound
        nxt = []
        for p, qs, least in states:
            row = distinct[p]
            for j in range(least + 1):
                x, m = row[j], want[j]
                if [distinct[q].index(x) for q in qs] != m:
                    return False
                if deeper:
                    state = (step[j][p], tuple([step[mi][q] for q, mi in zip(qs, m)]), j)
                    if state not in seen:
                        seen.add(state)
                        nxt.append(state)
        states = nxt
    return True


def _walk(t, gens: list[AffineIso], bound: int) -> CheckResult:
    """`check_action_consistency` past the origin, point by point in
    graded-lex order: the first point whose affine images differ from
    the decodings of v(a) x_i is the witness."""
    for a in (a for d in range(1, bound + 1) for a in expvec_level(t.n, d)):
        w = v_of(t, a)
        if not (result := _compare(gens, a, [v_inverse(t, w + (i,)) for i in range(1, t.n + 1)])):
            return result
    return CheckResult.passed()


SignedWord = tuple[int, ...]  # i for a generator, -i for its inverse


def _signed_generators(gens: Sequence[AffineIso]) -> list[tuple[int, AffineIso]]:
    out = [(i, g) for i, g in enumerate(gens, start=1)]
    out.extend((-i, invert(g)) for i, g in enumerate(gens, start=1))
    return out


@lru_cache(maxsize=8)  # one build per command: freeness, tiling certificate and search
def _label_frame(gens: tuple[AffineIso, ...]) -> tuple[list, list, list]:
    """The part of the translation frame that depends on the generators
    alone: the signed generators (letter, 0-based pi, s) in search order;
    by label, its 0-based permutation part; and moves[label], the next
    label and the translation d per signed generator.  The labels number
    the closure (core.closure) of the identity under the signed
    permutation parts, label 0 the identity: for the generator
    isometries, the group H of structuremaps.kernel_exponents."""
    n = gens[0].n
    signed = [
        (s, tuple([k - 1 for k in g.perm.images]), g.shift)
        for s, g in _signed_generators(gens)
    ]

    def products(sigma: tuple[int, ...]) -> list[tuple[int, ...]]:
        return [tuple([sigma[k] for k in pi]) for _, pi, _ in signed]  # sigma o pi

    perms = closure([tuple(range(n))], products)
    labels = {sigma: label for label, sigma in enumerate(perms)}
    moves = [
        [
            (labels[nxt], tuple([c for _, c in sorted(zip(nxt, sh))]))  # d[sigma'(j)] = s[j]
            for (_, _, sh), nxt in zip(signed, products(sigma))
        ]
        for sigma in perms
    ]
    return signed, perms, moves


# letter, next label, key delta, then the generator's 0-based pi and its s
Step = tuple[int, int, int, tuple[int, ...], tuple[int, ...]]


def _frame(n: int, gens: list[AffineIso], L: int) -> list[list[Step]]:
    """The translation frame of the module docstring for searches of at
    most L steps: steps[label] lists one Step per signed generator, in
    search order.  Only the key deltas depend on the base B; the rest is
    read from `_label_frame`."""
    signed, perms, moves = _label_frame(tuple(gens))
    base = 2 * L * max([1] + [abs(c) for _, _, sh in signed for c in sh]) + 1
    powers = [base**j for j in range(n)]
    return [
        [
            (s, nl, sum(map(mul, powers, d)) * len(perms) + nl - label, pi, sh)
            for (s, pi, sh), (nl, d) in zip(signed, row)
        ]
        for label, row in enumerate(moves)
    ]


@dataclass(frozen=True)
class FreenessReport:
    ok: bool
    witness: str
    relations: tuple[SignedWord, ...]  # reduced words evaluating to the identity
    isometries_seen: int  # the elements of word length <= L


def reduced_word_count(n: int, L: int) -> int:
    """The reduced words of length 1..L in n generators and their
    inverses: sum over k of 2n(2n-1)^(k-1)."""
    return 2 * L if n == 1 else n * ((2 * n - 1) ** L - 1) // (n - 1)


def refuse_long_freeness(n: int, L: int) -> None:
    """Raise InputError if freeness to length L would enumerate more
    than MAX_FREENESS_WORDS reduced words."""
    # past `cap` letters they are over the limit anyway, and the exact
    # figure would be too long to print
    cap = 64 if n > 1 else MAX_FREENESS_WORDS
    k = max(0, min(L, cap))
    words = reduced_word_count(n, k)
    if words > MAX_FREENESS_WORDS:
        more = "more than " if L > cap else ""
        raise InputError(
            f"freeness to word length {L} would enumerate {more}{words} reduced "
            f"words, over the limit of {MAX_FREENESS_WORDS}"
        )


def l1_ball_size(n: int, L: int) -> int:
    """The lattice points of l1 norm <= L in Z^n: sum_j 2^j C(n,j) C(L,j),
    choosing the j nonzero coordinates, their signs, and the partial sums
    of their absolute values among 1..L."""
    return sum(2**j * comb(n, j) * comb(L, j) for j in range(n + 1))


def refuse_large_tiling(n: int, L: int, radius: int | None = None) -> None:
    """Raise InputError if tiling to length L could reach more than
    MAX_TILING_POINTS lattice points.  Up to its first collision the
    search meets distinct origin images, at most one per reduced word
    and each of l1 norm <= radius (by default L: unit shifts)."""
    # each count is over the limit, whatever n is, past a radius of the
    # limit or (n > 1) 64 letters
    radius = L if radius is None else radius
    k = max(0, min(radius, MAX_TILING_POINTS))
    j = max(0, min(L, 64)) if n > 1 else L
    points, capped = min((l1_ball_size(n, k), radius > k), (1 + reduced_word_count(n, j), L > j))
    if points > MAX_TILING_POINTS:
        more = "more than " if capped else ""
        raise InputError(
            f"tiling to word length {L} may reach {more}{points} lattice points, "
            f"over the limit of {MAX_TILING_POINTS}"
        )


def freeness_check(pm: PhiMap, L: int, generators: list[AffineIso] | None = None) -> FreenessReport:
    """Whether G is torsion-free: a non-identity isometry with a fixed
    point fails the check, and the witness is the element and the point.
    The verdict is exact, whatever L (module docstring).  The relations
    are the reduced words of length 1..L that evaluate to the identity,
    and isometries_seen counts the elements of word length <= L.  Refuses
    (InputError) a length with more than MAX_FREENESS_WORDS reduced
    words.  Under (a)-(c) of the module docstring it passes in closed
    form: the 2n signed letters s send 0 by s g to the 2n grid neighbours
    of g(0), so read right to left the relations are the non-backtracking
    closed walks of Z^n, and the elements those of the l1 ball.
    Otherwise `_torsion` decides and the ball is walked to radius L."""
    n = pm.n
    if L < 1:
        raise InputError(f"freeness word length must be >= 1, got {L}")
    refuse_long_freeness(n, L)
    gens = _generators(pm, generators)
    if _tiles_simply(n, gens):
        return FreenessReport(True, "", _relations(n, gens, L, L // 2)[0], l1_ball_size(n, L))
    relations, seen = _relations(n, gens, L, L)
    torsion = _torsion(tuple(gens))
    witness = "" if torsion is None else "element {} fixes {}".format(*torsion)
    return FreenessReport(torsion is None, witness, relations, seen)


def _relations(
    n: int, gens: list[AffineIso], L: int, radius: int
) -> tuple[tuple[SignedWord, ...], int]:
    """The reduced words of length 1..L that evaluate to the identity,
    sorted by length, then letters, and the number of elements of word
    length <= radius.  A prefix of such a word, of length d at g, leaves
    a suffix evaluating to g^-1, so |g| <= L - d, |g| the word length of
    g: only those prefixes are extended.  As |g| <= d as well, the balls
    about the identity are needed only to radius L // 2, the least
    radius taken."""
    steps = _frame(n, gens, L)
    order = len(steps)
    balls = [{0}]  # balls[r]: the keys of word length <= r
    for _ in range(radius):
        ball = balls[-1]
        balls.append(ball | {key + delta for key in ball for _, _, delta, _, _ in steps[key % order]})
    relations: list[SignedWord] = []
    frontier: list[tuple[int, SignedWord]] = [(0, ())]
    for depth in range(1, L + 1):
        ball = balls[min(L - depth, radius)]
        nxt = []
        for key, word in frontier:
            cancel = -word[-1] if word else 0
            for s, _, delta, _, _ in steps[key % order]:
                new = key + delta
                if s != cancel and new in ball:
                    nxt.append((new, word + (s,)))
        frontier = nxt
        relations.extend(word for key, word in frontier if not key)
    relations.sort(key=lambda w: (len(w), w))
    return tuple(relations), len(balls[-1])


@dataclass(frozen=True)
class TilingReport:
    status: str  # "pass" | "inconclusive" | "fail"
    witness: str
    orbit_size: int
    covered: int  # box points hit by the orbit of the origin
    missed: tuple[Point, ...]


def fundamental_domain_check(
    pm: PhiMap, box: int, L: int, generators: list[AffineIso] | None = None
) -> TilingReport:
    """Orbit of the origin under all elements of word length <= L:
    distinct isometries must reach distinct points (simple transitivity),
    and every lattice point of the radius-`box` cube must be reached once
    L is large enough.  Missing points with no injectivity violation is
    'inconclusive', not failure.  Decided in closed form when the
    certificate of the module docstring holds, else by the search.
    Refuses (InputError) a length or a box whose points number more than
    MAX_TILING_POINTS: the l1 ball of radius n box holds the box, and
    that of radius L m the search's, m the largest l1 norm of a shift."""
    n = pm.n
    if L < 1:
        raise InputError(f"tiling word length must be >= 1, got {L}")
    if box < 0:
        raise InputError(f"tiling box radius must be >= 0, got {box}")
    refuse_large_tiling(n, L)
    if (points := l1_ball_size(n, min(n * box, MAX_TILING_POINTS))) > MAX_TILING_POINTS:
        more = "more than " if n * box > MAX_TILING_POINTS else ""
        raise InputError(
            f"tiling box of radius {box} lies in the l1 ball of radius {n * box}, which "
            f"holds {more}{points} lattice points, over the limit of {MAX_TILING_POINTS}"
        )
    gens = _generators(pm, generators)
    refuse_large_tiling(n, L, L * max([1] + [sum(map(abs, g.shift)) for g in gens]))
    box_points = list(_box_points(n, box))
    if _tiles_simply(n, gens):
        orbit_size = l1_ball_size(n, L)
        missed = tuple(pt for pt in box_points if sum(map(abs, pt)) > L)
    else:
        steps = _frame(n, gens, L)
        parts = {s: (pi, sh) for s, _, _, pi, sh in steps[0]}
        seen = {0}  # the keys of the elements met
        # origin image -> the last letter of its element's first word (0 at
        # the origin), whose inverse steps back to the parent's image
        owner: dict[Point, int] = {(0,) * n: 0}

        def word_to(pt: Point) -> SignedWord:
            word = []
            while s := owner[pt]:
                pi, sh = parts[-s]
                pt = tuple([pt[k] + c for k, c in zip(pi, sh)])
                word.append(s)
            return tuple(word[::-1])

        frontier = [(0, (0,) * n)]  # (key, origin image), in the order first met
        for _ in range(L):
            nxt = []
            for key, pt in frontier:
                for s, _, delta, pi, sh in steps[key % len(steps)]:
                    new = key + delta
                    if new in seen:
                        continue
                    seen.add(new)
                    npt = tuple([pt[k] + c for k, c in zip(pi, sh)])  # the new element's g(0)
                    if npt in owner:
                        return TilingReport(
                            "fail",
                            f"distinct elements {format_word(word_to(npt))} and "
                            f"{format_word(word_to(pt) + (s,))} both send the origin to {npt}",
                            len(seen),
                            0,
                            (),
                        )
                    owner[npt] = s
                    nxt.append((new, npt))
            frontier = nxt
        orbit_size = len(seen)
        missed = tuple(pt for pt in box_points if pt not in owner)
    covered = len(box_points) - len(missed)
    if missed:
        return TilingReport(
            "inconclusive",
            f"{len(missed)} of {len(box_points)} box points not reached at "
            f"word length {L}; raise L",
            orbit_size,
            covered,
            missed,
        )
    return TilingReport("pass", "", orbit_size, covered, ())


def _tiles_simply(n: int, gens: list[AffineIso]) -> bool:
    """Conditions (a)-(c) of the module docstring, read off the label
    frame: unit shifts, a bijective diagonal, and a translation lattice
    of index |H|.  When they hold, g -> g(0) maps the ball of word length
    L one to one onto the l1 ball of radius L.  The one gate of both
    closed forms, freeness and tiling."""
    signed, perms, _ = _label_frame(tuple(gens))
    units = [tuple([int(j == i) for j in range(n)]) for i in range(n)]
    diagonal = {pi[i] for i, (_, pi, _) in enumerate(signed[:n])}
    if [sh for _, _, sh in signed[:n]] != units or len(diagonal) < n:
        return False
    rows = _translations(tuple(gens))[1]
    return None not in rows and prod(abs(r[k]) for k, r in enumerate(rows)) == len(perms)


@lru_cache(maxsize=8)  # one transversal per command: the certificate, then any torsion test
def _translations(gens: tuple[AffineIso, ...]) -> tuple[list[tuple[int, ...]], list[list[int] | None]]:
    """By label, the q of a breadth-first transversal over the
    generators; and an echelon basis of T = G cap Z^n, from the Schreier
    generators q_h + d(h, s) - q_{h s} (module docstring, (c))."""
    n = gens[0].n
    moves = _label_frame(gens)[2]
    q: list[tuple[int, ...] | None] = [(0,) * n] + [None] * (len(moves) - 1)
    labels = [0]
    schreier = []
    for h in labels:
        for nl, d in moves[h][:n]:
            t = tuple([a + b for a, b in zip(q[h], d)])
            if q[nl] is None:
                q[nl] = t
                labels.append(nl)
            else:
                schreier.append([a - b for a, b in zip(t, q[nl])])
    return q, _echelon(schreier, n)


def _echelon(vectors: list[list[int]], k: int) -> list[list[int] | None]:
    """An echelon basis, on the first k columns, of the lattice the
    integer vectors span: rows[j] is 0 before column j and nonzero at it,
    or None.  Euclid on each column in turn; what a vector keeps once it
    is 0 on the first k columns is dropped."""
    rows: list[list[int] | None] = [None] * k
    for v in vectors:
        for j in range(k):
            if v[j] and rows[j] is None:
                rows[j], v = v, [0] * len(v)
            while v[j]:
                f = rows[j][j] // v[j]
                rows[j], v = v, [a - f * b for a, b in zip(rows[j], v)]
    return rows


def _torsion(gens: tuple[AffineIso, ...]) -> tuple[AffineIso, Point] | None:
    """A non-identity element with a fixed point, and the point, or None
    when G is torsion-free: for each label h != id, [cycle sums | q_h] is
    reduced by an echelon basis of [cycle sums of t | t] over t in T; if
    the cycle sums reach 0, the rest is the q of such an element (module
    docstring).  The Perm and the cycles of a label's permutation part
    are built here, for the labels tested only."""
    perms = _label_frame(gens)[1]
    qs, rows = _translations(gens)
    basis = [r for r in rows if r is not None]
    for h in range(1, len(perms)):
        perm = Perm(tuple([k + 1 for k in perms[h]]))
        cycles = [[k - 1 for k in c] for c in perm.cycles()]

        def lift(q):  # [the cycle sums of q | q]
            return [sum([q[k] for k in c]) for c in cycles] + list(q)

        v = lift(qs[h])
        for j, r in enumerate(_echelon([lift(b) for b in basis], len(cycles))):
            if r is not None:
                f = v[j] // r[j]
                v = [a - f * b for a, b in zip(v, r)]
            if v[j]:
                break
        else:
            q = v[len(cycles) :]
            g = AffineIso(perm, tuple([q[k] for k in perms[h]]))
            point = fixed_points(g).point
            assert act(g, point) == point
            return g, point
    return None


def _box_points(n: int, radius: int):
    """The cube's lattice points, the first coordinate varying fastest."""
    span = range(-radius, radius + 1)
    return (pt[::-1] for pt in itertools.product(span, repeat=n))


def classify_isometry_2d(g: AffineIso) -> str:
    """The class of a planar isometry with permutation part id or the
    swap, as `bieberbach` prints it: identity, translation, or the glide
    reflection moving the line a1 - a2 = (s1 - s2)/2 along (1,1) by
    (s1 + s2)/2 in each coordinate (a pure reflection glides by 0)."""
    if g.n != 2:
        raise InputError(f"planar classification needs n = 2, got {g.n}")
    s1, s2 = g.shift
    if g.perm.is_identity():
        return f"translation ({s1},{s2})" if any(g.shift) else "identity"
    if g.perm.images != (2, 1):
        raise InputError(f"permutation part {g.perm.images} is neither id nor the swap")
    glide = Fraction(s1 + s2, 2)
    return f"glide-reflection axis a1-a2={Fraction(s1 - s2, 2)} glide=({glide},{glide})"


def export_affine_group(
    gens: list[AffineIso],
    names: tuple[str, ...] | None = None,
    relations: tuple[SignedWord, ...] = (),
) -> str:
    """One line per generator, then the relations detected at the
    explored word length."""
    lines = [f"gen {format_word((i,), names)} {g}" for i, g in enumerate(gens, start=1)]
    for w in relations:
        lines.append(f"rel {format_word(w, names)} = 1")
    return "\n".join(lines) + "\n"
