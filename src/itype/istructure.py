"""The inductive I-structure construction and the word problem it decides.

Given a pair map r passing the three axioms, this module materializes,
degree by degree, the letter table

    x[b, i]  for b an exponent vector, i a generator index,

characterized by v(u_i b) = x[b, i] v(b), where v maps exponent vectors
to canonical words.  Rows of degree 0 are fixed by an initial
permutation sigma (v(u_i) = x_{sigma(i)}); from there each entry is
forced:

  * peeling case: if a = b u_j with j != i, then x[a, i] is the unique
    letter c with r(c, x[b, j]) ending in x[b, i] (axiom 3 uniqueness);
  * power case: if a = u_i^k, the peeling case fills every other column
    of the row with pairwise distinct letters, and x[a, i] is the one
    letter left over.

The construction re-verifies its own coherence instead of assuming it:
independence of the peeled generator, distinctness before the power
case fills in, the row property (each row is a permutation of X), and
the cross-row compatibility

    r(x[b u_j, i], x[b, j]) = (x[b u_i, j], x[b, i])   for all i, j,

which also makes v independent of the peeling order.  Violations raise
ConsistencyError: they mean a bug or an invalid pair map.

A row depends only on the rows it is peeled from (None where a_j = 0),
and the sweep at b only on the row of b and its n raised rows.  The
build memoizes both on exactly those inputs, so a hit is the same check
on the same values; a failure is never stored, so the first one raises
as it would unmemoized.  Rows forced by equal inputs share one tuple.

Decoding a word back to its exponent vector walks it right to left: the
last letter sits in the degree-0 row, the next in the row of the
already-decoded tail, and so on; every row being a permutation, this
never fails.  Two words are equal in the semigroup iff they decode to
the same exponent vector, which decides the word problem.

Rows are plain tuples of letters in a dict keyed by exponent vector, and
every path reads them by direct key arithmetic: the build forms the
peeled and raised keys a[:j] + (a[j] - 1,) + a[j+1:] (and + 1) inline,
and v_of and v_inverse step a list of exponents and look up its tuple.
The phi calculus in structuremaps reads the same rows as image tuples:
cocycle_exhaustive compares those tuples and builds no permutation per
pair.  A table of more than MAX_TABLE_ROWS rows is refused before any
work, with its row count.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .core import (
    AxiomError,
    ConsistencyError,
    DegreeBoundError,
    ExpVec,
    InputError,
    Perm,
    Word,
    all_words,
    check_word,
    degree,
    exp_add_gen,
    exp_unit,
    expvecs_of_degree,
    expvecs_up_to,
    format_expvec,
)
from .ybr import PairMap, check_axioms

# A table has C(n+D-1, n) rows, one per exponent vector of degree <= D-1;
# past this many the build refuses to start.  The largest tables the
# benchmark builds have a few thousand rows.
MAX_TABLE_ROWS = 1_000_000


class ITable:
    """The materialized letter table up to a degree bound D: rows for all
    exponent vectors of degree <= D-1, hence canonical words and decoding
    for all degrees <= D.  Immutable after construction."""

    def __init__(self, r: PairMap, D: int, sigma: Perm, rows: dict[ExpVec, tuple[int, ...]]):
        self.r = r
        self.n = r.n
        self.D = D
        self.sigma = sigma
        self._rows = rows

    def row(self, b: ExpVec) -> tuple[int, ...]:
        try:
            return self._rows[b]
        except KeyError:
            if len(b) != self.n or any(k < 0 for k in b):
                raise InputError(f"not an exponent vector over 1..{self.n}: {b}") from None
            raise DegreeBoundError(
                f"row {format_expvec(b)} of degree {degree(b)} exceeds bound D-1 = {self.D - 1}"
            ) from None

    def entry(self, b: ExpVec, i: int) -> int:
        return self.row(b)[i - 1]

    def _need(self, d: int):
        if d > self.D:
            raise DegreeBoundError(f"degree {d} exceeds table bound D = {self.D}")


def build_itable(r: PairMap, D: int = 8, sigma: Perm | None = None) -> ITable:
    """Run the inductive construction up to degree bound D >= 2.  Refuses
    (InputError) a table of more than MAX_TABLE_ROWS rows."""
    if D < 2:
        raise InputError(f"degree bound must be >= 2, got {D}")
    n = r.n
    rows_needed = comb(n + D - 1, n)
    if rows_needed > MAX_TABLE_ROWS:
        raise InputError(
            f"table to degree bound D = {D} on {n} generators would build "
            f"{rows_needed} rows, over the limit of {MAX_TABLE_ROWS}"
        )
    axioms = check_axioms(r)
    if not axioms:
        raise AxiomError(f"pair map fails an axiom: {axioms.witness}")
    if sigma is None:
        sigma = Perm.identity(n)
    if sigma.n != n:
        raise InputError(f"sigma acts on {sigma.n} letters, alphabet has {n}")

    # Generators are 0-based below; letters stay 1-based.  r(c, s) is
    # table[(c-1)*n + s-1], and solve[(s-1)*n + t-1] is the unique c with
    # r(c, s) = (*, t) (axiom 3).
    table = r.table
    solve = [0] * (n * n)
    for c in range(1, n + 1):
        for s in range(1, n + 1):
            solve[(s - 1) * n + table[(c - 1) * n + s - 1][1] - 1] = c
    letters = list(range(1, n + 1))
    total = n * (n + 1) // 2

    made: dict[tuple, tuple[int, ...]] = {}  # peeled rows -> the row they force
    swept: set[tuple] = set()  # (row b, raised rows) whose sweep passed
    below = [(0,) * n]
    rows: dict[ExpVec, tuple[int, ...]] = {below[0]: sigma.images}
    for m in range(2, D + 1):
        level = expvecs_of_degree(n, m - 1)
        for a in level:
            # the row of a - u_j per generator j, None where a_j = 0
            key = tuple(
                [rows[a[:j] + (k - 1,) + a[j + 1 :]] if k else None for j, k in enumerate(a)]
            )
            row = made.get(key)
            if row is not None:
                rows[a] = row
                continue
            # (j, row of a - u_j, offset into solve) per generator j present
            peeled = [(j, brow, (brow[j] - 1) * n - 1) for j, brow in enumerate(key) if brow]
            power_index = peeled[0][0] if len(peeled) == 1 else None
            row = [0] * n
            for i in range(n):
                if i == power_index:
                    continue
                values = {solve[off + brow[i]] for j, brow, off in peeled if j != i}
                if len(values) != 1:
                    raise ConsistencyError(
                        f"entry ({format_expvec(a)}, {i + 1}) depends on the peeled "
                        f"generator: candidates {sorted(values)}"
                    )
                row[i] = values.pop()
            if power_index is not None:
                others = [c for c in row if c != 0]
                if len(set(others)) != n - 1:
                    raise ConsistencyError(
                        f"row {format_expvec(a)}: peeling-case entries {others} "
                        "are not pairwise distinct"
                    )
                row[power_index] = total - sum(others)
            if sorted(row) != letters:
                raise ConsistencyError(
                    f"row {format_expvec(a)} = {tuple(row)} is not a permutation of X"
                )
            rows[a] = made[key] = tuple(row)
        # cross-row compatibility for every b one degree further down,
        # all i, j (i = j included: those pairs must be fixed by r)
        for b in below:
            brow = rows[b]
            raised = [rows[b[:j] + (b[j] + 1,) + b[j + 1 :]] for j in range(n)]
            key = (brow, *raised)
            if key in swept:
                continue
            for i in range(n):
                bi = brow[i]
                ri = raised[i]
                for j in range(n):
                    lhs = table[(raised[j][i] - 1) * n + brow[j] - 1]
                    if lhs[0] != ri[j] or lhs[1] != bi:
                        raise ConsistencyError(
                            f"compatibility fails at b={format_expvec(b)}, i={i + 1}, "
                            f"j={j + 1}: r{lhs} != {(ri[j], bi)}"
                        )
            swept.add(key)
        below = level
    return ITable(r, D, sigma, rows)


def v_of(t: ITable, a: ExpVec) -> Word:
    """The canonical word of an exponent vector, peeling the smallest
    generator index present at each step (any peeling order agrees in the
    semigroup; this one fixes the representative, and makes v the sorted
    word in the commutative case)."""
    if len(a) != t.n or any(k < 0 for k in a):
        raise InputError(f"not an exponent vector over 1..{t.n}: {a}")
    t._need(sum(a))
    rows = t._rows
    b = list(a)
    letters = []
    for i, k in enumerate(a):
        for _ in range(k):
            b[i] -= 1
            letters.append(rows[tuple(b)][i])
    return tuple(letters)


def v_inverse(t: ITable, w: Word) -> ExpVec:
    """The unique exponent vector whose canonical word equals w in the
    semigroup; decodes right to left through the table rows."""
    check_word(w, t.n)
    t._need(len(w))
    rows = t._rows
    b = [0] * t.n
    for letter in reversed(w):
        b[rows[tuple(b)].index(letter)] += 1
    return tuple(b)


def words_equal(t: ITable, w1: Word, w2: Word) -> bool:
    """Decide the word problem: equality in the semigroup."""
    return v_inverse(t, w1) == v_inverse(t, w2)


def hilbert_count(t: ITable, m: int) -> int:
    """Number of distinct semigroup elements among all n^m words of
    degree m; bijectivity of v makes this C(n+m-1, m)."""
    t._need(m)
    return len({v_inverse(t, w) for w in all_words(t.n, m)})


def expected_hilbert(n: int, m: int) -> int:
    return comb(n + m - 1, m)


def degree2_relations(t: ITable) -> tuple[tuple[Word, Word], ...]:
    """The n(n-1)/2 defining relations read off the degree-0 and degree-1
    rows: x[u_i, j] x[1, i] = x[u_j, i] x[1, j] for j > i."""
    unit = exp_unit(t.n)
    out = []
    for i in range(1, t.n + 1):
        for j in range(i + 1, t.n + 1):
            ui = exp_add_gen(unit, i)
            uj = exp_add_gen(unit, j)
            lhs = (t.entry(ui, j), t.entry(unit, i))
            rhs = (t.entry(uj, i), t.entry(unit, j))
            out.append((lhs, rhs))
    return tuple(out)


@dataclass(frozen=True)
class NormalForm:
    exps: ExpVec
    word: Word


def normalize_word(t: ITable, w: Word) -> NormalForm:
    """Canonical form of a word: its exponent vector and the canonical
    representative of its class."""
    a = v_inverse(t, w)
    return NormalForm(a, v_of(t, a))


def dump_itable(t: ITable) -> str:
    """Bit-exact dump: header, then one line per (row, column) in
    graded-lex order of the rows."""
    sigma = ",".join(str(k) for k in t.sigma.images)
    lines = [f"itable n={t.n} D={t.D} sigma={sigma}"]
    for b in expvecs_up_to(t.n, t.D - 1):
        name = format_expvec(b)
        lines.extend(f"{name} {i} -> {c}" for i, c in enumerate(t._rows[b], start=1))
    return "\n".join(lines) + "\n"
