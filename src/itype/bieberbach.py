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
module certifies, exhaustively within bounds, that

  * the lattice action matches right multiplication in the semigroup,
  * no non-identity element reachable at a given word length has a
    fixed point (freeness), fixed-point sets being solved exactly by
    cycle analysis of the permutation part,
  * the orbit of the origin tiles a requested box exactly once, so the
    unit cube is a fundamental domain,

and classifies the n = 2 isometries into translations and glide
reflections.  All arithmetic is exact (integers and rationals).

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
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .core import (
    CheckResult,
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

# Freeness enumerates every reduced word up to the requested length,
# 2n-1 times more per letter; past this many it refuses to start.  The
# longest runs allowed take under a second on a Xeon core with Python
# 3.11: `bieberbach x2y2.pres --length 12 --radius 0` (1,062,880 words)
# 0.55 s and 87 MiB in all.
MAX_FREENESS_WORDS = 2_000_000

# Tiling keeps one element key and one letter per lattice point it
# reaches; past this many reachable points it refuses to start.  flip5 at
# the default flags (982,729 points) takes about 5.5 s and 240 MiB in all
# on the same core.
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


def _parts(g: AffineIso) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The 0-based images of the permutation part, and the shift."""
    return tuple(k - 1 for k in g.perm.images), g.shift


def compose(g: AffineIso, h: AffineIso) -> AffineIso:
    """The product 'g then h' of the right action:
    act(compose(g, h), a) = act(h, act(g, a)).  Its permutation part is
    j -> g.perm(h.perm(j)) and its shift j -> g.shift[h.perm(j)] + h.shift[j]."""
    if g.n != h.n:
        raise InputError("dimension mismatch")
    p = [k - 1 for k in h.perm.images]
    return AffineIso(
        Perm(tuple([g.perm.images[k] for k in p])),
        tuple([g.shift[k] + c for k, c in zip(p, h.shift)]),
    )


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


def generator_isometry(pm: PhiMap, i: int) -> AffineIso:
    """The affine map of generator i: permutation part phi(u_i), unit
    shift in coordinate i."""
    if not pm.table.sigma.is_identity():
        raise InputError("the lattice action requires a table built with sigma = id")
    u = tuple(1 if j == i else 0 for j in range(1, pm.n + 1))
    return AffineIso(phi_of(pm, u), u)


def affine_generators(pm: PhiMap) -> list[AffineIso]:
    return [generator_isometry(pm, i) for i in range(1, pm.n + 1)]


def resolve_convention() -> str:
    """The permutation part of every generator isometry is phi(u_i), by
    the definition of phi (see the module docstring); nothing is decided
    at run time.  The name stays while bench/tracer.py spans it."""
    return "phi"


def check_action_consistency(
    pm: PhiMap, bound: int, generators: list[AffineIso] | None = None
) -> CheckResult:
    """The decisive oracle: for every lattice point of degree <= bound and
    every generator, the affine image equals the decoding of 'canonical
    word times one more letter', i.e. the action really is right
    multiplication transported through v.  `generators` replaces the
    generator isometries (one per generator, in order)."""
    if bound + 1 > pm.D:
        raise DegreeBoundError(f"consistency to bound {bound} needs D >= {bound + 1}")
    gens = affine_generators(pm) if generators is None else generators
    if len(gens) != pm.n or any(g.n != pm.n for g in gens):
        raise InputError("dimension mismatch")
    moves = [_parts(g) for g in gens]
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


# letter, next label, key delta, then the generator's 0-based pi and its s
Step = tuple[int, int, int, tuple[int, ...], tuple[int, ...]]


def _frame(
    n: int, gens: list[AffineIso], L: int
) -> tuple[list[list[Step]], Callable[[int], AffineIso]]:
    """The translation frame of the module docstring for searches of at
    most L steps: steps[label] lists one Step per signed generator, in
    search order, and decode(key) is the element itself."""
    if any(g.n != n for g in gens):
        raise InputError("dimension mismatch")
    signed = [(s, *_parts(g)) for s, g in _signed_generators(gens)]
    base = 2 * L * max([1] + [abs(c) for _, _, sh in signed for c in sh]) + 1
    perms = [tuple(range(n))]
    labels = {perms[0]: 0}
    for sigma in perms:  # grows while it is walked: the closure of the group
        for _, pi, _ in signed:
            nxt = tuple([sigma[k] for k in pi])
            if nxt not in labels:
                labels[nxt] = len(perms)
                perms.append(nxt)
    order = len(perms)
    steps = []
    for label, sigma in enumerate(perms):
        row = []
        for s, pi, sh in signed:
            nl = labels[tuple([sigma[k] for k in pi])]
            kd = sum(c * base**i for i, c in zip(perms[nl], sh))  # K(d), d[sigma'(j)] = s[j]
            row.append((s, nl, kd * order + nl - label, pi, sh))
        steps.append(row)

    def decode(key: int) -> AffineIso:
        rest, label = divmod(key, order)
        q = []  # the balanced digits of K(q), least significant first
        for _ in range(n):
            c = (rest + base // 2) % base - base // 2
            q.append(c)
            rest = (rest - c) // base
        sigma = perms[label]
        return AffineIso(Perm(tuple([k + 1 for k in sigma])), tuple([q[i] for i in sigma]))

    return steps, decode


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
    steps, decode = _frame(n, gens, L)
    # the key of every non-identity element seen; isometries_seen adds
    # the identity
    seen: set[int] = set()
    relations: list[SignedWord] = []
    frontier: list[tuple[int, int, SignedWord]] = [(0, 0, ())]
    for depth in range(1, L + 1):
        extend = depth < L  # the words of length L are never extended: keep none
        nxt = []
        for key, label, word in frontier:
            cancel = -word[-1] if word else 0
            for s, nl, delta, _, _ in steps[label]:
                if s == cancel:
                    continue  # not a reduced word
                new = key + delta
                if extend:
                    nxt.append((new, nl, word + (s,)))
                if not new:
                    relations.append(word + (s,))
                elif new not in seen:
                    seen.add(new)
                    fp = fixed_points(decode(new))
                    if not fp.empty:
                        return FreenessReport(
                            False,
                            f"word {format_signed_word(word + (s,))} is not the "
                            f"identity yet fixes {fp.point}",
                            tuple(relations),
                            len(seen) + 1,
                        )
        frontier = nxt
    relations.sort(key=lambda w: (len(w), w))
    return FreenessReport(True, "", tuple(relations), len(seen) + 1)


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
    steps, _ = _frame(n, gens, L)
    seen = {0}  # element keys
    # origin image -> the last letter of the first word reaching it (0 at
    # the origin); a second element with the same image breaks
    # injectivity.  Undoing that letter's step gives the parent point, so
    # a witness word is rebuilt only when it is printed.
    reached: dict[Point, int] = {(0,) * n: 0}
    undo = {s: ([pi.index(k) for k in range(n)], sh) for s, _, _, pi, sh in steps[0]}

    def word_to(pt: Point) -> SignedWord:
        word = []
        while s := reached[pt]:
            inv, sh = undo[s]  # s moved the parent p to pt: pt[j] = p[pi[j]] + sh[j]
            pt = tuple([pt[j] - sh[j] for j in inv])
            word.append(s)
        return tuple(word[::-1])

    frontier = [(0, 0, (0,) * n)]
    for _ in range(L):
        nxt = []
        for key, label, pt in frontier:
            for s, nl, delta, pi, sh in steps[label]:
                new = key + delta
                if new in seen:
                    continue
                seen.add(new)
                npt = tuple([pt[k] + c for k, c in zip(pi, sh)])  # act(new, 0)
                if npt in reached:
                    return TilingReport(
                        "fail",
                        f"distinct elements {format_signed_word(word_to(npt))} and "
                        f"{format_signed_word(word_to(pt) + (s,))} both send the origin to {npt}",
                        len(seen),
                        0,
                        (),
                    )
                reached[npt] = s
                nxt.append((new, nl, npt))
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
