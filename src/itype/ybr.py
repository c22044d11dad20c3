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
from collections.abc import Iterator
from dataclasses import dataclass, field

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

    def apply_at(self, w: Word, pos: int) -> Word:
        """Apply r to letters pos, pos+1 of w (1-based)."""
        return w[: pos - 1] + self(w[pos - 1], w[pos]) + w[pos + 1 :]

    def pairs(self):
        for a in range(1, self.n + 1):
            for b in range(1, self.n + 1):
                yield (a, b), self(a, b)

    def relabel(self, tau: Perm) -> "PairMap":
        """Conjugate by a relabeling of X: the image of (tau a, tau b) is
        tau applied to the image of (a, b)."""
        inv = tau.inverse()
        tbl = []
        for a in range(1, self.n + 1):
            for b in range(1, self.n + 1):
                c, d = self(inv(a), inv(b))
                tbl.append((tau(c), tau(d)))
        return PairMap(self.n, tuple(tbl))

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
        tbl = tuple((a, b) for a in range(1, n + 1) for b in range(1, n + 1))
        return PairMap(n, tbl, names)

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
    """r applied twice is the identity on every pair."""
    for (a, b), (c, d) in r.pairs():
        if r(c, d) != (a, b):
            return CheckResult.failed(
                f"r(r({r._fmt((a, b))})) = {r._fmt(r(c, d))} != {r._fmt((a, b))}"
            )
    return CheckResult.passed()


def check_yb(r: PairMap) -> CheckResult:
    """The braid identity r1 r2 r1 = r2 r1 r2, exhaustively on X^3."""
    for w in all_words(r.n, 3):
        lhs = r.apply_at(r.apply_at(r.apply_at(w, 1), 2), 1)
        rhs = r.apply_at(r.apply_at(r.apply_at(w, 2), 1), 2)
        if lhs != rhs:
            return CheckResult.failed(
                f"on {r._fmt(w)}: r1 r2 r1 gives {r._fmt(lhs)}, r2 r1 r2 gives {r._fmt(rhs)}"
            )
    return CheckResult.passed()


def check_nondegenerate(r: PairMap) -> CheckResult:
    """For every (a,b) exactly one (c,d) solves r(x_c x_a) = x_d x_b, with
    c = d on the diagonal a = b."""
    for a in range(1, r.n + 1):
        for b in range(1, r.n + 1):
            hits = []
            for c in range(1, r.n + 1):
                d, bb = r(c, a)
                if bb == b:
                    hits.append((c, d))
            if len(hits) != 1:
                return CheckResult.failed(
                    f"(a,b)=({r._fmt((a, b))}): {len(hits)} solutions (c,d) "
                    f"to r(x_c x_a) = x_d x_b"
                )
            c, d = hits[0]
            if a == b and c != d:
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
    identity: str  # the counting identity the census verifies

    def count(self, kind: str) -> int:
        return sum(1 for o in self.orbits if o.kind == kind)


def classify_orbits3(r: PairMap) -> OrbitReport:
    """Orbits of X^3 under applying r at positions 1 and 2, with types:

        A: the orbit meets the full diagonal {xxx},
        B: it meets a doubled pair (xxy or xyy) but not the diagonal,
        C: neither.

    The star census additionally asserts the counts expected of a
    presentation passing the star conditions: n orbits of type A of size
    1, n(n-1) of type B of size 3, n(n-1)(n-2)/6 of type C of size 6,
    tied together by n^3 = n + 3n(n-1) + 6#C.  For other inputs the
    census verdict is informational only."""
    n = r.n
    seen: set[Word] = set()
    orbits: list[Orbit] = []
    for w in all_words(n, 3):
        if w in seen:
            continue
        orbit = {w}
        frontier = [w]
        while frontier:
            cur = frontier.pop()
            for pos in (1, 2):
                nxt = r.apply_at(cur, pos)
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        seen.update(orbit)
        if any(u[0] == u[1] == u[2] for u in orbit):
            kind = "A"
        elif any(u[0] == u[1] or u[1] == u[2] for u in orbit):
            kind = "B"
        else:
            kind = "C"
        orbits.append(Orbit(tuple(sorted(orbit)), kind))
    orbits.sort(key=lambda o: o.elements[0])
    return OrbitReport(
        n=n,
        orbits=tuple(orbits),
        star_census=_star_census(n, tuple(orbits)),
        identity="n^3 = n + 3*n*(n-1) + 6*#C",
    )


def _star_census(n: int, orbits: tuple[Orbit, ...]) -> CheckResult:
    na = sum(1 for o in orbits if o.kind == "A")
    nb = sum(1 for o in orbits if o.kind == "B")
    nc = sum(1 for o in orbits if o.kind == "C")
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
    if n**3 != na + 3 * nb + 6 * nc:
        return CheckResult.failed(
            f"counting identity fails: {n}^3 != {na} + 3*{nb} + 6*{nc}"
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
    best = min(r.relabel(tau).table for tau in all_perms(r.n))
    return PairMap(r.n, best)


def enumerate_solutions(n: int) -> SolutionCensus:
    """Every pair map on X^2 passing the three axioms, for n <= 4.

    Involutive maps satisfying axiom 3 are exactly those of the form
        r(c, a) = (pi_b(a), b)   with b = rho_a(c), pi_b = rho_b^-1,
    for a family rho of n permutations (rho_a(c) is the second component
    of r(c, a), a bijection in c by axiom 3; involutivity then pins the
    first component, and the diagonal condition follows).  Such a map
    satisfies the braid identity iff the operation x.y = pi_x(y) is a
    cycle set (Rump, Adv. Math. 2005):

        (x.y).(x.z) = (y.x).(y.z)   for all x, y, z.

    The search assigns the rows pi_1, pi_2, ... in turn, trying every
    permutation for each.  A pair x < y is tested on all z as soon as
    the rows of x, y, x.y and y.x are assigned, and a violation cuts the
    branch; at a leaf every pair has been tested.  Each survivor is also
    passed through ``check_yb``.  Solutions are sorted by table, so the
    first solution of each relabeling orbit is its canonical form.
    """
    if not 1 <= n <= 4:
        raise InputError(f"enumeration supports 1 <= n <= 4, got {n}")
    perms = list(itertools.permutations(range(n)))
    pairs_upto = [[(x, y) for y in range(k + 1) for x in range(y)] for k in range(n)]
    rows: list[tuple[int, ...]] = []
    solutions = []

    def law_holds(x: int, y: int) -> bool:
        px, py = rows[x], rows[y]
        pxy, pyx = rows[px[y]], rows[py[x]]
        return all(pxy[px[z]] == pyx[py[z]] for z in range(n))

    def extend(k: int) -> None:
        if k == n:
            solutions.append(_from_cycle_set(rows))
            return
        for p in perms:
            rows.append(p)
            # test each pair once: when the last of its rows is assigned
            if all(
                law_holds(x, y)
                for x, y in pairs_upto[k]
                if max(y, rows[x][y], rows[y][x]) == k
            ):
                extend(k + 1)
            rows.pop()

    extend(0)
    for r in solutions:
        res = check_yb(r)
        if not res:
            raise ConsistencyError(f"cycle-set survivor fails the braid identity: {res.witness}")
    solutions.sort(key=lambda r: r.table)
    reps = []
    seen: set[tuple[Pair, ...]] = set()
    for r in solutions:
        if r.table not in seen:
            reps.append(r)
            seen.update(r.relabel(tau).table for tau in all_perms(n))
    return SolutionCensus(n, tuple(solutions), tuple(reps))


def _from_cycle_set(rows: list[tuple[int, ...]]) -> PairMap:
    """The pair map r(c, a) = (pi_b(a), b), b = pi_a^-1(c), of the cycle
    set with 0-based rows pi_x."""
    n = len(rows)
    table = []
    for c in range(n):
        for a in range(n):
            b = rows[a].index(c)
            table.append((rows[b][a] + 1, b + 1))
    return PairMap(n, tuple(table))


def parse_rtable(text: str) -> PairMap:
    """Parse the r-table file format (gens line, rtable directive, one
    ``a b -> c d`` line per pair).  Every line after the ``rtable`` line
    is a table line, so ``gens`` and ``rtable`` can name generators."""
    names: tuple[str, ...] | None = None
    in_table = False
    entries: dict[Pair, Pair] = {}
    for lineno, tokens in lex_lines(text):
        if in_table:
            if len(tokens) != 5 or tokens[2] != "->":
                raise InputError(f"line {lineno}: expected 'a b -> c d'")
            a, b, c, d = to_word(tokens[:2] + tokens[3:], names, f"line {lineno}")
            if (a, b) in entries:
                raise InputError(f"line {lineno}: pair {tokens[0]} {tokens[1]} listed twice")
            entries[(a, b)] = (c, d)
        elif tokens[0] == "gens":
            names = parse_gens(lineno, tokens, names)
        elif tokens[0] == "rtable":
            if names is None:
                raise InputError(f"line {lineno}: rtable before gens")
            in_table = True
        else:
            raise InputError(f"line {lineno}: unknown directive {tokens[0]!r}")
    if names is None:
        raise InputError("missing gens directive")
    if len(entries) != len(names) ** 2:
        raise InputError(f"r-table has {len(entries)} lines, need {len(names) ** 2}")
    return PairMap.from_entries(len(names), entries, names)


def format_rtable(r: PairMap) -> str:
    names = r.names or tuple(f"x{i}" for i in range(1, r.n + 1))
    lines = ["gens " + " ".join(names), "rtable"]
    for (a, b), (c, d) in r.pairs():
        lines.append(f"{names[a - 1]} {names[b - 1]} -> {names[c - 1]} {names[d - 1]}")
    return "\n".join(lines) + "\n"
