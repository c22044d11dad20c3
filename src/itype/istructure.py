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

One rule forces every row past degree 0, the closure forced(row, j) in
build_itable: peeling j from the row of a - u_j gives the entries i != j
by axiom 3 and entry j the letter left over.  The build interns each
distinct row as one tuple with an id, and works on steps: step[j][p] is
the id of forced(row p, j).  For every sigma the cocycle phi(b + u_j) =
phi(u_{phi(b)(j)}) * phi(b) makes the row of b + u_j a function of the
row of b and of j, so steps are few (at most 32 on the benchmark corpus
at D = 8).  The build works on the states of each level, the distinct
row ids of its vectors, never on the vectors: level d's states are the
steps of level d-1's.  Each row is checked once, when first met: a row
first met at level d-1 is stepped, its steps checked as rows and its
compatibility swept at level d, and its steps checked to commute (below)
at level d+1.  The rows rest on that commutation, not on the theorem.
With every step passing the row checks, no entry of level d depends on
the peeled generator iff every peel of every a of level d gives one row,
and given that the levels below d pass, that holds iff the steps commute
on the states of level d-2:

    step[i][step[j][p]] = step[j][step[i][p]]   for every such p, i < j.

By induction on d: the levels below passing, each c of degree d-1 has
one row, the step of the row of any of its peels.  An a of level d with
a_i, a_j > 0 peels i to c + u_j and j to c + u_i, c = a - u_i - u_j of
degree d-2, so those peels give step[i][step[j][p]] and
step[j][step[i][p]], p the id of row(c).  Any two peels of a are such a
pair, and each state p and i < j is met at a = c + u_i + u_j for a c
with row id p.  A row's steps never change, so a state that passed at
the level after it was first met passes at every later level: checking
only the states first met at level d-2 fails at exactly the levels where
checking every peel of every vector does.  The loop ends after the first
level whose checks pass and that steps no new row: every row is then
stepped, and every later level would step and check nothing.  A failing
level reads the row id of each vector one degree down and is worded
from the same steps, each a and then each b in lex order, raising the
first failing row or b with its message.

A table is that automaton, `steps = (distinct, step)`, and holds
nothing else: distinct[p] is the row with id p, id 0 the origin's
(sigma), and step[j][p] is set for every row p of a vector of degree
<= D-2, with row(c + u_j) = distinct[step[j][id of row(c)]] for every
such c, as the per-level check proves.  The row of a vector is that of
its state, state 0 stepped a_j times by step[j] for each j.  Only
build_itable makes a table.  The word problem reads the steps, the phi
calculus of structuremaps decides on their states, and the lattice
consistency check of bieberbach sweeps them.  An automaton with one
state per vector, stepping each to its vector + u_j, writes any rows
whatever as such a table; the checks then read every vector.

Two rules read the table.  v peels the least index j present,
v(e) = x[e - u_j, j] v(e - u_j): v_of walks up from the origin, u_n a_n
times, then u_{n-1}, and so on down to u_1, reading distinct[p][j]
before each step, and its letters reversed are the least-peel word.
Decoding reads a word right to left, each letter in the row of the
vector decoded so far: v_inverse starts at state 0 and, for each
letter, at place j of distinct[p], counts j and moves p to step[j][p].
Every row being a permutation, this never fails.  Neither steps after
its last letter, since the steps end at degree D-2.  Two words are
equal in the semigroup iff they decode to the same exponent vector,
which decides the word problem; the coset and action checks word a
failure by asking it vector by vector.

A failing level and dump_itable read each level as a list of row ids in
graded-lex order, each a from its least peel (_level_ids):
level_indices(n, d) gives, flat, the index of each a - u_j one level
down.  It and the levels (core.expvec_level) are cached per (n, d); a
level's ids are read with one map per j.  A table of more than
MAX_TABLE_ROWS rows is refused before any work, with its row count.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import NoReturn

from .core import (
    AxiomError,
    ConsistencyError,
    DegreeBoundError,
    ExpVec,
    InputError,
    LEVEL_CACHE_SIZE,
    Perm,
    Word,
    all_words,
    check_word,
    degree,
    exp_add_gen,
    exp_unit,
    expvec_level,
    expvec_level_names,
    format_expvec,
)
from .ybr import PairMap, check_axioms

# A table has C(n+D-1, n) rows, one per exponent vector of degree <= D-1;
# past this many the build refuses to start.  The largest tables the
# benchmark builds have a few thousand rows.
MAX_TABLE_ROWS = 1_000_000


class ITable:
    """The letter table up to a degree bound D, as the build's automaton
    (module notes): rows for all exponent vectors of degree <= D-1, hence
    canonical words and decoding for all degrees <= D.  Immutable."""

    def __init__(self, r: PairMap, D: int, sigma: Perm, distinct, step):
        self.r = r
        self.n = r.n
        self.D = D
        self.sigma = sigma
        self.steps = (distinct, step)

    def row(self, b: ExpVec) -> tuple[int, ...]:
        if len(b) != self.n or any(k < 0 for k in b):
            raise InputError(f"not an exponent vector over 1..{self.n}: {b}")
        if degree(b) >= self.D:
            raise DegreeBoundError(
                f"row {format_expvec(b)} of degree {degree(b)} exceeds bound D-1 = {self.D - 1}"
            )
        distinct, step = self.steps
        p = 0  # the state of b: state 0 stepped b_j times by step[j], for each j
        for s_j, k in zip(step, b):
            for _ in range(k):
                p = s_j[p]
        return distinct[p]

    def _need(self, d: int):
        if d > self.D:
            raise DegreeBoundError(f"degree {d} exceeds table bound D = {self.D}")


@lru_cache(maxsize=LEVEL_CACHE_SIZE)
def level_indices(n: int, d: int) -> memoryview:
    """Flat, read-only neighbour indices between levels d-1 and d >= 1:
    peel[k*n + j] is the index in level d-1 of a - u_j for the k-th a of
    level d, -1 if a_j = 0."""
    index = {a: k for k, a in enumerate(expvec_level(n, d))}
    peel = array("i", [-1]) * (len(index) * n)
    for k, b in enumerate(expvec_level(n, d - 1)):
        for j in range(n):
            peel[index[b[:j] + (b[j] + 1,) + b[j + 1 :]] * n + j] = k
    return memoryview(peel).toreadonly()


def build_itable(r: PairMap, D: int = 8, sigma: Perm | None = None) -> ITable:
    """Run the inductive construction up to degree bound D >= 2, checking
    every level, and keep its automaton as the table.  Refuses (InputError) a
    table of more than MAX_TABLE_ROWS rows.  Each row is stepped and
    checked once, at the level after it is first met, and the loop ends
    at the first level with no new row (see the module notes)."""
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
    total = n * (n + 1) // 2

    def forced(row: tuple[int, ...], j: int) -> tuple[int, ...]:
        # the one row rule: entry i != j solves r(c, row[j]) = (*, row[i])
        off = (row[j] - 1) * n - 1
        out = [solve[off + c] for c in row]
        out[j] = 0
        out[j] = total - sum(out)
        return tuple(out)

    letters = list(range(1, n + 1))
    distinct = [sigma.images]  # row id -> row
    ids = {sigma.images: 0}  # row -> row id
    step = [[] for _ in range(n)]  # step[j][p]: id of the row peel j forces from row p
    older = range(0)  # the rows first met at level d-2
    for d in range(1, D):
        new = range(len(step[0]), len(distinct))  # the rows first met at level d-1
        stepped = True  # every new step, each used in this level, passes the row checks
        for p in new:
            for j in range(n):
                row = forced(distinct[p], j)
                stepped &= sorted(row) == letters
                step[j].append(ids.setdefault(row, len(ids)))
        distinct = list(ids)
        # every peel of every a of level d agrees iff the steps commute on
        # the states of level d-2, checked on each when first met (see the
        # module notes); then the compatibility sweep, for all i, j (i = j
        # included: those pairs must be fixed by r), once per new row
        if not (
            stepped
            and all(
                step[i][step[j][p]] == step[j][step[i][p]]
                for p in older
                for i in range(n)
                for j in range(i)
            )
            and all(
                table[(distinct[step[j][p]][i] - 1) * n + distinct[p][j] - 1]
                == (distinct[step[i][p]][j], distinct[p][i])
                for p in new
                for i in range(n)
                for j in range(n)
            )
        ):
            *_, below = _level_ids(n, step, d - 1)
            _raise_level_failure(table, d, below, distinct, step)
        if not new:
            break  # every later level steps and checks nothing
        older = new
    return ITable(r, D, sigma, tuple(distinct), tuple(map(tuple, step)))


def _level_ids(n: int, step, top: int):
    """The row id of each vector of levels 0 to top, one list per level in
    lex order, each a from its least peel j: the a with a_0..a_{j-1} = 0
    are the first comb(d+n-j-1, d) in lex order, so j, the least index
    present, runs down from n-1 in blocks."""
    below = [0]
    yield below
    for d in range(1, top + 1):
        peel = level_indices(n, d)
        here = []
        for j in reversed(range(n)):
            at = peel[len(here) * n + j : comb(d + n - j - 1, d) * n : n]
            here += map(step[j].__getitem__, map(below.__getitem__, at))
        yield here
        below = here


def _raise_level_failure(table, d: int, below: list[int], distinct, step) -> NoReturn:
    """Raise the first failure of level d (ConsistencyError), read off the
    steps of the row ids below of level d-1: each a in lex order, its row
    the step of its one peel or the letters its peels j != i agree on,
    then each b swept with its steps.  Only a failing level comes here."""
    n = len(distinct[0])
    letters = list(range(1, n + 1))
    peel = level_indices(n, d)
    for k, a in enumerate(expvec_level(n, d)):
        peeled = {j: distinct[step[j][below[p]]] for j in range(n) if (p := peel[k * n + j]) >= 0}
        if len(peeled) == 1:
            [(j, row)] = peeled.items()
            others = [c for i, c in enumerate(row) if i != j and c != 0]
            if len(set(others)) != n - 1:
                raise ConsistencyError(
                    f"row {format_expvec(a)}: peeling-case entries {others} "
                    "are not pairwise distinct"
                )
        else:
            row = []
            for i in range(n):
                values = {s[i] for j, s in peeled.items() if j != i}
                if len(values) != 1:
                    raise ConsistencyError(
                        f"entry ({format_expvec(a)}, {i + 1}) depends on the peeled "
                        f"generator: candidates {sorted(values)}"
                    )
                row += values
        if sorted(row) != letters:
            raise ConsistencyError(
                f"row {format_expvec(a)} = {tuple(row)} is not a permutation of X"
            )
    for b, p in zip(expvec_level(n, d - 1), below):
        brow = distinct[p]
        raised = [distinct[step[j][p]] for j in range(n)]
        for i in range(n):
            for j in range(n):
                lhs = table[(raised[j][i] - 1) * n + brow[j] - 1]
                if lhs != (raised[i][j], brow[i]):
                    raise ConsistencyError(
                        f"compatibility fails at b={format_expvec(b)}, i={i + 1}, "
                        f"j={j + 1}: r{lhs} != {(raised[i][j], brow[i])}"
                    )
    raise AssertionError(f"level {d} failed a step check, yet its construction holds")


def v_of(t: ITable, a: ExpVec) -> Word:
    """The canonical word of an exponent vector, peeling the smallest
    generator index present at each step (any peeling order agrees in the
    semigroup; this one fixes the representative, and makes v the sorted
    word in the commutative case).  It walks the steps up from the
    origin, u_n a_n times and so on down to u_1, reading the letters
    right to left."""
    if len(a) != t.n or any(k < 0 for k in a):
        raise InputError(f"not an exponent vector over 1..{t.n}: {a}")
    t._need(sum(a))
    distinct, step = t.steps
    path = [j for j in reversed(range(t.n)) for _ in range(a[j])]
    if not path:
        return ()
    p, letters = 0, []
    for j in path[:-1]:  # no step after the last letter: steps end at degree D-2
        letters.append(distinct[p][j])
        p = step[j][p]
    letters.append(distinct[p][path[-1]])
    return tuple(reversed(letters))


def v_inverse(t: ITable, w: Word) -> ExpVec:
    """The unique exponent vector whose canonical word equals w in the
    semigroup: reads w right to left on the steps from state 0, each
    letter in the row of the vector decoded so far."""
    w = check_word(w, t.n)
    t._need(len(w))
    b = [0] * t.n
    if w:
        distinct, step = t.steps
        p = 0
        for letter in w[:0:-1]:  # no step after the last letter: steps end at degree D-2
            j = distinct[p].index(letter)
            b[j] += 1
            p = step[j][p]
        b[distinct[p].index(w[0])] += 1
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
            lhs = (t.row(ui)[j - 1], t.row(unit)[i - 1])
            rhs = (t.row(uj)[i - 1], t.row(unit)[j - 1])
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
    graded-lex order of the rows, read off the level ids.  Each state's
    text is made once; a vector's block joins it with the vector's name,
    the names coming from core.expvec_level_names."""
    sigma = ",".join(str(k) for k in t.sigma.images)
    distinct, step = t.steps
    ids = [p for here in _level_ids(t.n, step, t.D - 1) for p in here]
    parts = {p: ["", *(f" {i} -> {c}\n" for i, c in enumerate(distinct[p], 1))] for p in {*ids}}
    names = (name for d in range(t.D) for name in expvec_level_names(t.n, d))
    blocks = map(str.join, names, map(parts.__getitem__, ids))
    return f"itable n={t.n} D={t.D} sigma={sigma}\n" + "".join(blocks)
