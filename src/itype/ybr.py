"""Pair maps r : X^2 -> X^2 and their axioms.

A pair map is a candidate set-theoretic Yang-Baxter solution.  This
module builds one from a quadratic presentation (swap the two sides of
every relation, fix everything else), verifies the three axioms

    1. r is an involution,
    2. r satisfies the braid identity r1 r2 r1 = r2 r1 r2 on X^3,
    3. for all (a,b) there is exactly one (c,d) with r(x_c x_a) = x_d x_b,
       and c = d whenever a = b,

derives the four companion bijections of X^2, classifies the orbits of
the rewriting action on X^3, and enumerates every solution for small n.

The axioms, the cyclic check and the orbit census read pair indices:
(a, b) is (a-1)n + b-1, R = ``PairMap.index_map`` (made on first use)
takes it to that of r(a, b), and word (a, b, c) is (a-1)n^2 + (b-1)n +
c-1, in lex order.  Only failures and the orbit report decode letters.

r-table file format (``#`` comments, blank lines and the ``gens`` line
as in the presentation format):

    gens x y
    rtable
    x x -> y y      # exactly n^2 lines: a b -> c d
    x y -> x y
    y x -> y x
    y y -> x x
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import itemgetter

from .core import (
    CheckResult,
    ConsistencyError,
    InputError,
    Perm,
    Word,
    all_perms,
    all_words,
    format_word,
)
from .presentation import Presentation, lex_lines, parse_gens, to_word

Pair = tuple[int, int]


@dataclass(frozen=True)
class PairMap:
    """A total self-map of X^2, stored row-major; names are display-only."""

    n: int
    table: tuple[Pair, ...]
    names: tuple[str, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.table) != self.n * self.n:
            raise InputError(f"table has {len(self.table)} entries, need {self.n ** 2}")
        for c, d in self.table:
            if not (1 <= c <= self.n and 1 <= d <= self.n):
                raise InputError(f"entry {(c, d)} out of range 1..{self.n}")

    def __call__(self, a: int, b: int) -> Pair:
        return self.table[(a - 1) * self.n + (b - 1)]

    @cached_property
    def index_map(self) -> tuple[int, ...]:
        """R, the table on pair indices (see the module notes)."""
        return tuple([c * self.n + d - self.n - 1 for c, d in self.table])

    def apply_at(self, w: Word, pos: int) -> Word:
        """Apply r to letters pos, pos+1 of w (1-based)."""
        return w[: pos - 1] + self(w[pos - 1], w[pos]) + w[pos + 1 :]

    def pairs(self) -> Iterator[tuple[Pair, Pair]]:
        return zip(itertools.product(range(1, self.n + 1), repeat=2), self.table)

    def relabel(self, tau: Perm) -> "PairMap":
        """Conjugate by a relabeling of X: the image of (tau a, tau b) is
        tau applied to the image of (a, b)."""
        inv, xs = tau.inverse(), range(1, self.n + 1)
        images = (self(inv(a), inv(b)) for a in xs for b in xs)
        return PairMap(self.n, tuple((tau(c), tau(d)) for c, d in images))

    @staticmethod
    def from_entries(n: int, entries: dict[Pair, Pair], names=None) -> "PairMap":
        tbl = []
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                if (a, b) not in entries:
                    raise InputError(f"pair {(a, b)} missing from table")
                tbl.append(entries[(a, b)])
        return PairMap(n, tuple(tbl), names)

    @staticmethod
    def identity(n: int, names=None) -> "PairMap":
        return PairMap(n, tuple(itertools.product(range(1, n + 1), repeat=2)), names)

    @staticmethod
    def flip(n: int, names=None) -> "PairMap":
        tbl = tuple((b, a) for a in range(1, n + 1) for b in range(1, n + 1))
        return PairMap(n, tbl, names)

    def _fmt(self, w: Word) -> str:
        return format_word(w, self.names)


def build_r(p: Presentation) -> PairMap:
    """The pair map of a presentation: swaps the two sides of every
    relation and fixes all other pairs.  A degree-2 word occurring in two
    relations would make r ill-defined and raises InputError."""
    entries: dict[Pair, Pair] = {}
    owner: dict[Pair, str] = {}
    for lhs, rhs in p.relations:
        for w in (lhs, rhs):
            if w in owner:
                raise InputError(
                    f"word {format_word(w, p.gen_names)} occurs in two relations: "
                    f"{owner[w]} and {p.format_relation(lhs, rhs)}"
                )
            owner[w] = p.format_relation(lhs, rhs)
        entries[lhs] = rhs
        entries[rhs] = lhs
    for a in range(1, p.n + 1):
        for b in range(1, p.n + 1):
            entries.setdefault((a, b), (a, b))
    return PairMap.from_entries(p.n, entries, p.gen_names)


def check_involutive(r: PairMap) -> CheckResult:
    """r applied twice is the identity on every pair: R[R[k]] = k."""
    R = r.index_map
    for k, j in enumerate(R):
        if R[j] != k:
            ab = (k // r.n + 1, k % r.n + 1)
            return CheckResult.failed(f"r(r({r._fmt(ab)})) = {r._fmt(r.table[j])} != {r._fmt(ab)}")
    return CheckResult.passed()


def check_yb(r: PairMap) -> CheckResult:
    """The braid identity r1 r2 r1 = r2 r1 r2, exhaustively on X^3, each
    side read off the flat table one pair at a time."""
    n, tbl = r.n, r.table
    for a, b, c in all_words(n, 3):
        x, y = tbl[(a - 1) * n + b - 1]  # r1 r2 r1 takes (a, b, c) to (x, y, z)
        y, z = tbl[(y - 1) * n + c - 1]
        x, y = tbl[(x - 1) * n + y - 1]
        b1, c1 = tbl[(b - 1) * n + c - 1]  # r2 r1 r2 takes it to (a1, b1, c1)
        a1, b1 = tbl[(a - 1) * n + b1 - 1]
        b1, c1 = tbl[(b1 - 1) * n + c1 - 1]
        if x != a1 or y != b1 or z != c1:
            return CheckResult.failed(
                f"on {r._fmt((a, b, c))}: r1 r2 r1 gives {r._fmt((x, y, z))}, "
                f"r2 r1 r2 gives {r._fmt((a1, b1, c1))}"
            )
    return CheckResult.passed()


def check_nondegenerate(r: PairMap) -> CheckResult:
    """For every (a,b) exactly one (c,d) solves r(x_c x_a) = x_d x_b, with
    c = d on the diagonal a = b; read column by column, r(c, a) for c = 1..n."""
    n, letters = r.n, list(range(1, r.n + 1))
    for a in letters:
        col = r.table[a - 1 :: n]  # r(c, a), c = 1..n
        seconds = [b for _, b in col]
        if sorted(seconds) == letters and col[seconds.index(a)][0] == seconds.index(a) + 1:
            continue
        for b in letters:  # word the column's first failure
            if (hits := seconds.count(b)) != 1:
                return CheckResult.failed(
                    f"(a,b)=({r._fmt((a, b))}): {hits} solutions (c,d) to r(x_c x_a) = x_d x_b"
                )
            c = seconds.index(b) + 1
            if a == b and c != (d := col[c - 1][0]):
                return CheckResult.failed(
                    f"a = b = {r._fmt((a,))} but the unique solution has c = "
                    f"{r._fmt((c,))} != d = {r._fmt((d,))}"
                )
    return CheckResult.passed()


def axiom_checks(r: PairMap) -> Iterator[tuple[str, CheckResult]]:
    """The three axioms, each by name, in order; lazily, so that a
    caller may stop at the first failure."""
    yield "involutive", check_involutive(r)
    yield "yang-baxter", check_yb(r)
    yield "nondegenerate", check_nondegenerate(r)


def check_axioms(r: PairMap) -> CheckResult:
    """All three axioms; the first failure wins."""
    for name, res in axiom_checks(r):
        if not res:
            return CheckResult.failed(f"{name}: {res.witness}")
    return CheckResult.passed()


def derived_bijections(r: PairMap) -> dict[str, dict[Pair, Pair]]:
    """The four companion bijections of X^2 around r(z t) = x y, read as a
    cycle of correspondences

        (t,y) -> (z,t) -> (x,y) -> (z,x) -> (t,y).

    Each is returned as a total table and verified bijective; with the
    axioms already checked a failure here indicates an internal
    inconsistency, so it raises rather than reports."""
    tables: dict[str, dict[Pair, Pair]] = {
        "ty_to_zt": {},
        "zt_to_xy": {},
        "xy_to_zx": {},
        "zx_to_ty": {},
    }
    for (z, t), (x, y) in r.pairs():
        for key, src, dst in (
            ("ty_to_zt", (t, y), (z, t)),
            ("zt_to_xy", (z, t), (x, y)),
            ("xy_to_zx", (x, y), (z, x)),
            ("zx_to_ty", (z, x), (t, y)),
        ):
            if src in tables[key] and tables[key][src] != dst:
                raise ConsistencyError(
                    f"{key} is not well defined at {src}: {tables[key][src]} vs {dst}"
                )
            tables[key][src] = dst
    for key, tbl in tables.items():
        if len(tbl) != r.n * r.n or len(set(tbl.values())) != r.n * r.n:
            raise ConsistencyError(f"{key} is not a bijection of X^2")
    return tables


@dataclass(frozen=True)
class Orbit:
    elements: tuple[Word, ...]  # sorted for determinism
    kind: str  # "A" | "B" | "C"

    @property
    def size(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class OrbitReport:
    n: int
    orbits: tuple[Orbit, ...]
    star_census: CheckResult
    identity: str  # the counting identity the census implies

    def count(self, kind: str) -> int:
        return sum(1 for o in self.orbits if o.kind == kind)


def classify_orbits3(r: PairMap) -> OrbitReport:
    """Orbits of X^3 under applying r at positions 1 and 2, with types:

        A: the orbit meets the full diagonal {xxx},
        B: it meets a doubled pair (xxy or xyy) but not the diagonal,
        C: neither.

    The star census additionally asserts the counts expected of a
    presentation passing the star conditions: n orbits of type A of size
    1, n(n-1) of type B of size 3, n(n-1)(n-2)/6 of type C of size 6;
    then n^3 = n + 3n(n-1) + 6#C holds identically.  For other inputs
    the census verdict is informational only.  An orbit is the closure,
    by r at position 1 (R1) and 2 (R2) on word indices, of the least word
    not yet met: where r is no involution it may repeat earlier words."""
    n, nn, R = r.n, r.n * r.n, r.index_map
    R1 = array("q", [k * n + c for k in R for c in range(n)])
    R2 = array("q", [w + k for w in range(0, n * nn, nn) for k in R])
    diagonal = set(range(0, n * nn, nn + n + 1))
    xx = range(0, nn, n + 1)  # the pairs x x
    doubled = {k * n + c for k in xx for c in range(n)}  # x x y
    doubled |= {w + k for w in range(0, n * nn, nn) for k in xx}  # y x x
    seen = bytearray(n * nn)
    orbits = []
    for w in range(n * nn):
        if seen[w]:
            continue
        orbit, members = [w], {w}  # the closure of w, breadth first
        for u in orbit:
            for v in (R1[u], R2[u]):
                if v not in members:
                    members.add(v)
                    orbit.append(v)
        orbit.sort()
        for u in orbit:
            seen[u] = 1
        kind = "C" if doubled.isdisjoint(orbit) else "B" if diagonal.isdisjoint(orbit) else "A"
        orbits.append(Orbit(tuple([(u // nn + 1, u // n % n + 1, u % n + 1) for u in orbit]), kind))
    orbits = tuple(orbits)
    return OrbitReport(n, orbits, _star_census(n, orbits), "n^3 = n + 3*n*(n-1) + 6*#C")


def _star_census(n: int, orbits: tuple[Orbit, ...]) -> CheckResult:
    na, nb, nc = (sum(o.kind == kind for o in orbits) for kind in "ABC")
    if na != n:
        return CheckResult.failed(f"#A = {na}, expected n = {n}")
    if nb != n * (n - 1):
        return CheckResult.failed(f"#B = {nb}, expected n(n-1) = {n * (n - 1)}")
    if nc != n * (n - 1) * (n - 2) // 6:
        return CheckResult.failed(
            f"#C = {nc}, expected n(n-1)(n-2)/6 = {n * (n - 1) * (n - 2) // 6}"
        )
    for o in orbits:
        want = {"A": 1, "B": 3, "C": 6}[o.kind]
        if o.size != want:
            return CheckResult.failed(
                f"type {o.kind} orbit of {format_word(o.elements[0])} has size "
                f"{o.size}, expected {want}"
            )
    return CheckResult.passed()


@dataclass(frozen=True)
class SolutionCensus:
    n: int
    solutions: tuple[PairMap, ...]
    class_reps: tuple[PairMap, ...]

    @property
    def raw_count(self) -> int:
        return len(self.solutions)

    @property
    def class_count(self) -> int:
        return len(self.class_reps)


def canonical_form(r: PairMap) -> PairMap:
    """Lexicographically least table among all simultaneous relabelings of
    X; the deterministic representative of the isomorphism class."""
    return PairMap(r.n, min(relabel(r.table) for relabel in _relabellings(r.n)))


@lru_cache(maxsize=4)
def _relabellings(n: int) -> tuple[Callable[[tuple[Pair, ...]], tuple[Pair, ...]], ...]:
    """Per tau in Sym_n, table -> its ``PairMap.relabel(tau)`` table."""
    pairs = list(itertools.product(range(1, n + 1), repeat=2))
    out = []
    for tau in all_perms(n):
        src = [tau.images.index(a) * n + tau.images.index(b) for a, b in pairs]
        image = {(c, d): (tau(c), tau(d)) for c, d in pairs}.__getitem__
        out.append(lambda tbl, src=src, image=image: tuple(map(image, map(tbl.__getitem__, src))))
    return tuple(out)


def enumerate_solutions(n: int) -> SolutionCensus:
    """Every pair map on X^2 passing the three axioms, for n <= 4.

    Involutive maps satisfying axiom 3 are exactly those of the form
        r(c, a) = (pi_b(a), b)   with b = rho_a(c), pi_b = rho_b^-1,
    for a family rho of n permutations (rho_a(c) is the second component
    of r(c, a), a bijection in c by axiom 3; involutivity then pins the
    first component, and the diagonal condition follows).  Such a map
    satisfies the braid identity iff the operation x.y = pi_x(y) is a
    cycle set (Rump, Adv. Math. 2005): (x.y).(x.z) = (y.x).(y.z) for all
    z, that is pi_{x.y} o pi_x = pi_{y.x} o pi_y, for each pair x < y.
    The search assigns the rows pi_1, pi_2, ... in turn and tests a pair
    by one comparison of gathered rows once the rows of x, y, x.y and y.x
    are assigned; a violation cuts the branch.  Node k lists the pairs
    x < y < k whose last row is row k, and a candidate p adds the (x, k)
    with pi_x(k), p(x) <= k.  A listed pair with x.y = k > y.x (or x, y
    swapped) passes only pi_k = pi_{y.x} o pi_y o pi_x^-1, and the node
    tries that row alone, else every permutation.  Solutions are sorted
    by table, so the first of each relabeling orbit is its canonical
    form; only that one goes through ``check_yb``, as conjugation by a
    relabeling preserves r1 r2 r1 = r2 r1 r2.
    """
    if not 1 <= n <= 4:
        raise InputError(f"enumeration supports 1 <= n <= 4, got {n}")
    gather = {p: itemgetter(*p) for p in itertools.permutations(range(n))}  # q -> q o p
    rows: list[tuple[int, ...]] = [()] * n
    solutions = []

    def extend(k: int) -> None:
        if k == n:
            solutions.append(_from_cycle_set(rows))
            return
        due, forced = [], None
        for y in range(k):
            for x in range(y):
                xy, yx = rows[x][y], rows[y][x]
                if max(xy, yx) == k:
                    due.append((gather[rows[x]], xy, gather[rows[y]], yx))
                    if xy != yx and forced is None:  # a.b = k > b.a fixes pi_k
                        a, b = (x, y) if xy == k else (y, x)
                        t = gather[rows[b]](rows[rows[b][a]])  # pi_{b.a} o pi_b = pi_k o pi_a
                        forced = tuple(tz for _, tz in sorted(zip(rows[a], t)))  # t o pi_a^-1
        new = [(x, gather[rows[x]], rows[x][k]) for x in range(k) if rows[x][k] <= k]
        for p, gp in gather.items() if forced is None else [(forced, gather[forced])]:
            rows[k] = p
            for gx, xy, gy, yx in due:
                if gx(rows[xy]) != gy(rows[yx]):
                    break
            else:
                for x, gx, xk in new:
                    if p[x] <= k and gx(rows[xk]) != gp(rows[p[x]]):
                        break
                else:
                    extend(k + 1)

    extend(0)
    extend = None  # frees the search state now: extend's closure holds itself
    solutions.sort(key=lambda r: r.table)
    reps = []
    seen: set[tuple[Pair, ...]] = set()
    for r in solutions:
        if r.table not in seen:
            if not (res := check_yb(r)):
                raise ConsistencyError(f"cycle-set survivor fails the braid identity: {res.witness}")
            reps.append(r)
            seen.update(relabel(r.table) for relabel in _relabellings(n))
    return SolutionCensus(n, tuple(solutions), tuple(reps))


def _from_cycle_set(rows: list[tuple[int, ...]]) -> PairMap:
    """The pair map r(c, a) = (pi_b(a), b), b = pi_a^-1(c), of the cycle
    set with 0-based rows pi_x."""
    n = len(rows)
    ba = [(rows[a].index(c), a) for c in range(n) for a in range(n)]
    return PairMap(n, tuple([(rows[b][a] + 1, b + 1) for b, a in ba]))


def parse_rtable(text: str) -> PairMap:
    """Parse the r-table file format (gens line, rtable directive, one
    ``a b -> c d`` line per pair).  Every line after the ``rtable`` line
    is a table line, so ``gens`` and ``rtable`` can name generators."""
    letter: dict[str, int] | None = None
    in_table = False
    entries: dict[Pair, Pair] = {}
    for lineno, tokens in lex_lines(text):
        if in_table:
            if len(tokens) != 5 or tokens[2] != "->":
                raise InputError(f"line {lineno}: expected 'a b -> c d'")
            x, y, _, z, t = tokens
            try:
                a, b, c, d = letter[x], letter[y], letter[z], letter[t]
            except KeyError:
                to_word([x, y, z, t], letter, f"line {lineno}")  # words the unknown name
            if (a, b) in entries:
                raise InputError(f"line {lineno}: pair {x} {y} listed twice")
            entries[(a, b)] = (c, d)
        elif tokens[0] == "gens":
            letter = parse_gens(lineno, tokens, letter)
        elif tokens[0] == "rtable":
            if letter is None:
                raise InputError(f"line {lineno}: rtable before gens")
            in_table = True
        else:
            raise InputError(f"line {lineno}: unknown directive {tokens[0]!r}")
    if letter is None:
        raise InputError("missing gens directive")
    if len(entries) != len(letter) ** 2:
        raise InputError(f"r-table has {len(entries)} lines, need {len(letter) ** 2}")
    return PairMap.from_entries(len(letter), entries, tuple(letter))


def format_rtable(r: PairMap) -> str:
    names = r.names or tuple(f"x{i}" for i in range(1, r.n + 1))
    lines = ["gens " + " ".join(names), "rtable"]
    for (a, b), (c, d) in r.pairs():
        lines.append(f"{names[a - 1]} {names[b - 1]} -> {names[c - 1]} {names[d - 1]}")
    return "\n".join(lines) + "\n"
