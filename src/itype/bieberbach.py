"""The right action of the quotient group on the integer lattice.

Identifying exponent vectors with points of Z^n, right multiplication
by a generator becomes the affine map

    (a . x_i)_j = a[p_i(j)] + delta_ij,

a coordinate permutation followed by a unit shift: a Euclidean isometry
of Z^n that extends verbatim to R^n.  Products of the generator
isometries and their inverses realize the whole quotient group; this
module certifies, exhaustively within bounds, that

  * the lattice action matches right multiplication in the semigroup
    (the decisive oracle for the permutation part p_i, which is taken
    as phi(u_i) or its inverse, whichever the oracle confirms),
  * no non-identity element reachable at a given word length has a
    fixed point (freeness), fixed-point sets being solved exactly by
    cycle analysis of the permutation part,
  * the orbit of the origin tiles a requested box exactly once, so the
    unit cube is a fundamental domain,

and classifies the n = 2 isometries into translations and glide
reflections.  All arithmetic is exact (integers and rationals).

Inside the checks an isometry is one flat tuple of 2n integers: the
0-based images of the permutation part, then the shift.  Composing with
a fixed generator is then a gather by a precomputed index plus a fixed
add vector (`_gather`), with no object built per step.  The image of
the origin is the shift itself, act(g, 0) = g.shift, so the tiling
check keys the elements it has reached by that half of the tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import add, itemgetter

from .core import (
    CheckResult,
    ConsistencyError,
    DegreeBoundError,
    ExpVec,
    InputError,
    Perm,
    exp_add_gen,
    exp_sub_gen,
    expvecs_up_to,
    format_expvec,
    support,
)
from .istructure import ITable
from .structuremaps import PhiMap, phi_of

Point = tuple  # integer (or rational) coordinates
Flat = tuple[int, ...]  # 0-based permutation images, then the shift

# Freeness enumerates every reduced word up to the requested length,
# 2n-1 times more per letter; past this many it refuses to start.  The
# longest runs allowed (about a million words) take about a second.
MAX_FREENESS_WORDS = 2_000_000

# Tiling keeps one element per lattice point it reaches; past this many
# reachable points it refuses to start.  flip5 at the default flags
# (982,729 points) takes about 20 s and half a GiB.
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
    return tuple(a[g.perm(j) - 1] + g.shift[j - 1] for j in range(1, g.n + 1))


def _flat(g: AffineIso) -> Flat:
    return tuple(k - 1 for k in g.perm.images) + g.shift


def _unflat(f: Flat) -> AffineIso:
    n = len(f) // 2
    return AffineIso(Perm(tuple(k + 1 for k in f[:n])), f[n:])


def _gather(h: Flat) -> tuple[itemgetter, Flat]:
    """'Then h' in flat form: compose(g, h) is tuple(map(add, get(g),
    plus)) for (get, plus) = _gather(h), since its permutation part is
    j -> g.perm(h.perm(j)) and its shift j -> g.shift[h.perm(j)] + h.shift[j]."""
    n = len(h) // 2
    p = h[:n]
    return itemgetter(*p, *(n + k for k in p)), (0,) * n + h[n:]


def compose(g: AffineIso, h: AffineIso) -> AffineIso:
    """The product 'g then h' of the right action:
    act(compose(g, h), a) = act(h, act(g, a))."""
    if g.n != h.n:
        raise InputError("dimension mismatch")
    get, plus = _gather(_flat(h))
    return _unflat(tuple(map(add, get(_flat(g)), plus)))


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


def generator_isometry(pm: PhiMap, i: int, convention: str | None = None) -> AffineIso:
    """The affine map of generator i: permutation part phi(u_i) (or its
    inverse, per the resolved convention), unit shift in coordinate i."""
    if not pm.table.sigma.is_identity():
        raise InputError("the lattice action requires a table built with sigma = id")
    if convention is None:
        convention = resolve_convention(pm)
    p = phi_of(pm, tuple(1 if j == i else 0 for j in range(1, pm.n + 1)))
    if convention == "phi-inverse":
        p = p.inverse()
    shift = tuple(1 if j == i else 0 for j in range(1, pm.n + 1))
    return AffineIso(p, shift)


def affine_generators(pm: PhiMap, convention: str | None = None) -> list[AffineIso]:
    if convention is None:
        convention = resolve_convention(pm)
    return [generator_isometry(pm, i, convention) for i in range(1, pm.n + 1)]


def resolve_convention(pm: PhiMap) -> str:
    """Decide whether the permutation part of the generator isometries is
    phi(u_i) or its inverse, by running the action-consistency oracle at
    a small bound.  The choice is fixed once per phi map and cached."""
    cached = getattr(pm, "_iso_convention", None)
    if cached is not None:
        return cached
    bound = min(2, pm.D - 1)
    for convention in ("phi", "phi-inverse"):
        if check_action_consistency(pm, bound, convention):
            pm._iso_convention = convention
            return convention
    raise ConsistencyError("neither phi nor its inverse matches right multiplication")


def check_action_consistency(pm: PhiMap, bound: int, convention: str | None = None) -> CheckResult:
    """The decisive oracle: for every lattice point of degree <= bound and
    every generator, the affine image equals the decoding of 'canonical
    word times one more letter', i.e. the action really is right
    multiplication transported through v."""
    if bound + 1 > pm.D:
        raise DegreeBoundError(f"consistency to bound {bound} needs D >= {bound + 1}")
    if convention is None:
        convention = resolve_convention(pm)
    gens = [generator_isometry(pm, i, convention) for i in range(1, pm.n + 1)]
    moves = [(f[: pm.n], f[pm.n :]) for f in map(_flat, gens)]
    for a, products in _right_products(pm.table, bound).items():
        for i, (perm, shift) in enumerate(moves, start=1):
            geometric = tuple([a[k] + s for k, s in zip(perm, shift)])
            algebraic = products[i - 1]
            if geometric != algebraic:
                return CheckResult.failed(
                    f"at a={format_expvec(a)}, generator {i}: affine image "
                    f"{geometric} but right multiplication gives {algebraic}"
                )
    return CheckResult.passed()


def _right_products(t: ITable, bound: int) -> dict[ExpVec, tuple[ExpVec, ...]]:
    """v_inverse(t, v_of(t, a) + (i,)) for every a of degree <= bound
    (at most D-1) and every i, keyed by a in graded-lex order.  v_of
    peels the least index j of a: v(a) = x[b, j] v(b) with b = a - u_j.
    Decoding v(a) x_i right to left therefore continues the decoding of
    v(b) x_i by the one letter x[b, j], and b comes before a."""
    right: dict[ExpVec, tuple[ExpVec, ...]] = {}
    for a in expvecs_up_to(t.n, bound):
        if not any(a):  # v(0) x_i is the one letter x_i
            right[a] = tuple(exp_add_gen(a, t.row(a).index(i) + 1) for i in range(1, t.n + 1))
            continue
        j = support(a)[0]
        b = exp_sub_gen(a, j)
        letter = t.row(b)[j - 1]
        right[a] = tuple(exp_add_gen(c, t.row(c).index(letter) + 1) for c in right[b])
    return right


SignedWord = tuple[int, ...]  # i for a generator, -i for its inverse


def format_signed_word(w: SignedWord, names: tuple[str, ...] | None = None) -> str:
    if not w:
        return "1"
    parts = []
    for s in w:
        name = names[abs(s) - 1] if names else f"x{abs(s)}"
        parts.append(name if s > 0 else name + "^-1")
    return " ".join(parts)


def _signed_generators(gens: list[AffineIso]) -> list[tuple[int, AffineIso]]:
    out = [(i, g) for i, g in enumerate(gens, start=1)]
    out.extend((-i, invert(g)) for i, g in enumerate(gens, start=1))
    return out


def _steps(n: int, gens: list[AffineIso]) -> list[tuple[int, itemgetter, Flat]]:
    """(letter, get, plus) for each signed generator, in search order."""
    if any(g.n != n for g in gens):
        raise InputError("dimension mismatch")
    return [(s, *_gather(_flat(g))) for s, g in _signed_generators(gens)]


@dataclass(frozen=True)
class FreenessReport:
    ok: bool
    witness: str
    relations: tuple[SignedWord, ...]  # reduced words evaluating to the identity
    isometries_seen: int


def refuse_long_freeness(n: int, L: int) -> None:
    """Raise InputError if freeness to length L would enumerate more
    than MAX_FREENESS_WORDS reduced words."""
    # sum over k = 1..L of 2n(2n-1)^(k-1); past `cap` letters it is over
    # the limit anyway, and the exact figure would be too long to print
    cap = 64 if n > 1 else MAX_FREENESS_WORDS
    k = max(0, min(L, cap))
    words = 2 * k if n == 1 else n * ((2 * n - 1) ** k - 1) // (n - 1)
    if words > MAX_FREENESS_WORDS:
        more = "more than " if L > cap else ""
        raise InputError(
            f"freeness to word length {L} would enumerate {more}{words} reduced "
            f"words, over the limit of {MAX_FREENESS_WORDS}"
        )


def refuse_large_tiling(n: int, L: int) -> None:
    """Raise InputError if tiling to length L could reach more than
    MAX_TILING_POINTS lattice points."""
    # every step is a signed unit shift, so the elements reached have
    # distinct origin images of l1 norm <= L: sum_j 2^j C(n,j) C(L,j)
    # points; a length past the limit is over it whatever n is
    k = max(0, min(L, MAX_TILING_POINTS))
    points = sum(2**j * comb(n, j) * comb(k, j) for j in range(n + 1))
    if points > MAX_TILING_POINTS:
        more = "more than " if L > k else ""
        raise InputError(
            f"tiling to word length {L} may reach {more}{points} lattice points, "
            f"over the limit of {MAX_TILING_POINTS}"
        )


def freeness_check(pm: PhiMap, L: int, generators: list[AffineIso] | None = None) -> FreenessReport:
    """Enumerate every reduced word in the generators and inverses up to
    length L.  A non-identity isometry with a fixed point fails the
    check; identity isometries from non-empty words are relations of the
    group, recorded, never failures.  Refuses (InputError) a length
    with more than MAX_FREENESS_WORDS reduced words."""
    n = pm.n
    refuse_long_freeness(n, L)
    gens = affine_generators(pm) if generators is None else generators
    steps = _steps(n, gens)
    identity = _flat(AffineIso.identity(n))
    # every non-identity isometry seen; isometries_seen adds the identity
    verdict: dict[Flat, FixedPointSet] = {}
    relations: list[SignedWord] = []
    frontier: list[tuple[Flat, SignedWord]] = [(identity, ())]
    for depth in range(1, L + 1):
        extend = depth < L  # the words of length L are never extended: keep none
        nxt = []
        for flat, word in frontier:
            last = word[-1] if word else 0
            for s, get, plus in steps:
                if s == -last:
                    continue  # cancellation: not a reduced word
                new = tuple(map(add, get(flat), plus))
                nw = word + (s,)
                if extend:
                    nxt.append((new, nw))
                if new == identity:
                    relations.append(nw)
                    continue
                fp = verdict.get(new)
                if fp is None:
                    fp = verdict[new] = fixed_points(_unflat(new))
                if not fp.empty:
                    return FreenessReport(
                        False,
                        f"word {format_signed_word(nw)} is not the identity yet "
                        f"fixes {fp.point}",
                        tuple(relations),
                        len(verdict) + 1,
                    )
        frontier = nxt
    relations.sort(key=lambda w: (len(w), w))
    return FreenessReport(True, "", tuple(relations), len(verdict) + 1)


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
    'inconclusive', not failure.  Refuses (InputError) a length whose
    reachable points number more than MAX_TILING_POINTS."""
    n = pm.n
    refuse_large_tiling(n, L)
    gens = affine_generators(pm) if generators is None else generators
    steps = _steps(n, gens)
    identity = _flat(AffineIso.identity(n))
    # origin image (the shift half) -> (the element, its first word); a
    # second element with the same image breaks injectivity
    reached: dict[Point, tuple[Flat, SignedWord]] = {identity[n:]: (identity, ())}
    frontier = [(identity, ())]
    for _ in range(L):
        nxt = []
        for flat, word in frontier:
            for s, get, plus in steps:
                new = tuple(map(add, get(flat), plus))
                pt = new[n:]
                hit = reached.get(pt)
                if hit is None:
                    nw = word + (s,)
                    reached[pt] = (new, nw)
                    nxt.append((new, nw))
                elif hit[0] != new:
                    return TilingReport(
                        "fail",
                        f"distinct elements {format_signed_word(hit[1])} and "
                        f"{format_signed_word(word + (s,))} both send the origin to {pt}",
                        len(reached) + 1,
                        0,
                        (),
                    )
        frontier = nxt
    box_points = list(_box_points(n, box))
    missed = tuple(pt for pt in box_points if pt not in reached)
    covered = len(box_points) - len(missed)
    if missed:
        return TilingReport(
            "inconclusive",
            f"{len(missed)} of {len(box_points)} box points not reached at "
            f"word length {L}; raise L",
            len(reached),
            covered,
            missed,
        )
    return TilingReport("pass", "", len(reached), covered, ())


def _box_points(n: int, radius: int):
    if n == 0:
        yield ()
        return
    for rest in _box_points(n - 1, radius):
        for v in range(-radius, radius + 1):
            yield (v,) + rest


@dataclass(frozen=True)
class Isometry2D:
    """Classification of a planar isometry with permutation part id or
    the swap: identity, translation, or glide reflection along the main
    diagonal direction (a pure reflection is the degenerate glide with
    zero glide vector)."""

    kind: str  # "identity" | "translation" | "glide-reflection"
    translation: tuple[int, int] | None = None
    axis_direction: tuple[int, int] | None = None
    glide_vector: tuple[Fraction, Fraction] | None = None
    axis_offset: Fraction | None = None  # the value of a1 - a2 on the axis


def classify_isometry_2d(g: AffineIso) -> Isometry2D:
    """Exact closed forms: a swap-part isometry moves points of the line
    a1 - a2 = (s1 - s2)/2 along the direction (1,1) by (s1 + s2)/2."""
    if g.n != 2:
        raise InputError(f"planar classification needs n = 2, got {g.n}")
    if g.perm.is_identity():
        if not any(g.shift):
            return Isometry2D("identity")
        return Isometry2D("translation", translation=g.shift)
    if g.perm.images != (2, 1):
        raise InputError(f"permutation part {g.perm.images} is neither id nor the swap")
    s1, s2 = g.shift
    glide = Fraction(s1 + s2, 2)
    return Isometry2D(
        "glide-reflection",
        axis_direction=(1, 1),
        glide_vector=(glide, glide),
        axis_offset=Fraction(s1 - s2, 2),
    )


def export_affine_group(
    gens: list[AffineIso],
    names: tuple[str, ...] | None = None,
    relations: tuple[SignedWord, ...] = (),
) -> str:
    """One line per generator, then the relations detected at the
    explored word length."""
    lines = []
    for i, g in enumerate(gens, start=1):
        name = names[i - 1] if names else f"x{i}"
        perm = ",".join(str(k) for k in g.perm.images)
        shift = ",".join(str(k) for k in g.shift)
        lines.append(f"gen {name} perm={perm} shift={shift}")
    for w in relations:
        lines.append(f"rel {format_signed_word(w, names)} = 1")
    return "\n".join(lines) + "\n"
