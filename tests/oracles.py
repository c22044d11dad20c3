"""Independent brute-force oracles for the test suite.

Nothing here goes through the I-structure table: equality of words is
decided by closing under the degree-2 relations directly, which is the
ground truth the table-based decision procedure must reproduce.

The I-structure build, the recursive exponent-vector enumeration, the
cocycle sweep, the pair-map axioms, the cyclic check and the orbit
census below are the straightforward versions of `build_itable`,
`expvec_level`, `cocycle_exhaustive`, `check_involutive`, `check_yb`,
`check_nondegenerate`, `check_cyclic` and `classify_orbits3`: keys
built through the exponent-vector helpers, phi read off the rows once
and composed pair by pair, pairs read through `PairMap.__call__` and
words rewritten by slicing.  The flat code in
`itype` must produce the same rows, vectors and results.  `dump_itable_ref`
formats the table line by line, where `dump_itable` formats each distinct
row once; the two must produce the same bytes.

A table is its automaton alone.  `itable_of_rows` writes any rows as
one: one state per exponent vector, stepping each to its vector + u_j,
so a negative control corrupts the rows of its choice and every check
reads them vector by vector; `rows_of` reads a table's rows back, one
step per vector from the state of its least peel.

`coset_decomposition_ref` is the coset certificate vector by vector, on
the rows `rows_of` reads: the kernel exponents and the generator images
off those rows, H closed from the images by `image_group_ref`, phi of
each P0 part off its row, and three
`peel_walk` words per exponent vector decoded by `decode_ref`, right to
left on the rows, where `coset_decomposition` decides on a build's
states and otherwise asks `phi_of`, `v_of` and `words_equal`.  The two
must return the same report, or raise the same exception.  `peel_walk`
is the graded-lex walk on exponent-vector tuples, v(e) = x v(b), b the
least peel of e, that v_of takes on the steps.  `graded_steps` rewrites
a build's automaton with the degree joined to each state: it describes
the same rows, but a P0 point's state is no longer the origin's, and
one row can be replaced at one degree.

The lattice searches at the end are the straightforward versions of
`freeness_check` and `fundamental_domain_check`: one `AffineIso` per
word or element, composed with the public `compose` and deduplicated by
the isometry itself.  The flat tiling search in `itype.bieberbach` must
return the same reports.  Freeness there is exact: where the walk
passes, it has the walk's relations and count, and where the walk finds
a fixed point, it fails too.

`enumerate_solutions_ref` is the cycle-set search of `cycle_set_nodes`,
every permutation tried for every row and the law checked point by
point, with classes deduplicated through `PairMap.relabel`, and
`check_action_consistency_ref` carries one decoding per point and
generator on the rows (`right_products_ref`); `enumerate_solutions` and
`check_action_consistency` must return the same census and verdicts,
witness text included.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

from itype import AffineIso, ITable, act, affine_generators, compose, fixed_points
from itype.core import (
    AxiomError,
    CheckResult,
    ConsistencyError,
    DegreeBoundError,
    InputError,
    Perm,
    all_perms,
    all_words,
    degree,
    exp_add_gen,
    exp_unit,
    expvec_level,
    format_expvec,
    format_word,
)
from itype.structuremaps import CosetReport, KernelData, phi_of
from itype.ybr import (
    Orbit,
    OrbitReport,
    SolutionCensus,
    _from_cycle_set,
    _star_census,
    check_axioms,
    check_yb,
)
from itype.bieberbach import (
    FixedPointSet,
    FreenessReport,
    SignedWord,
    TilingReport,
    _box_points,
    _signed_generators,
)


def expvecs_of_degree_ref(n: int, d: int) -> list:
    """All exponent vectors of the given degree, lexicographically
    ascending; concatenating over d gives the graded-lex order."""
    if n == 1:
        return [(d,)]
    out = []
    for first in range(d + 1):
        out.extend((first,) + rest for rest in expvecs_of_degree_ref(n - 1, d - first))
    return out


def support(e: tuple) -> tuple[int, ...]:
    """Generator indices with a positive exponent, ascending."""
    return tuple(i for i, k in enumerate(e, start=1) if k > 0)


def exp_sub_gen(e: tuple, i: int) -> tuple:
    if e[i - 1] <= 0:
        raise InputError(f"generator {i} absent from {e}")
    return e[: i - 1] + (e[i - 1] - 1,) + e[i:]


def expvecs_up_to(n: int, dmax: int) -> list:
    """Graded-lex enumeration of all exponent vectors of degree <= dmax."""
    return [e for d in range(dmax + 1) for e in expvec_level(n, d)]


def itable_of_rows(r, D: int, sigma: Perm, rows: dict) -> ITable:
    """The table of `rows`, one per exponent vector of degree <= D-1, as
    the automaton with one state per vector in graded-lex order: state k
    has the k-th vector's row, and steps by j to the state of that
    vector + u_j, for the vectors of degree <= D-2."""
    vecs = expvecs_up_to(r.n, D - 1)
    state = {b: k for k, b in enumerate(vecs)}
    step = [[state[exp_add_gen(b, j)] for b in vecs if degree(b) < D - 1] for j in range(1, r.n + 1)]
    return ITable(r, D, sigma, [rows[b] for b in vecs], step)


def rows_of(t: ITable) -> dict:
    """The row of every exponent vector of degree <= D-1: in graded-lex
    order, the state of e is that of e - u_j, j the least index present,
    stepped once by step[j]."""
    distinct, step = t.steps
    state = {exp_unit(t.n): 0}
    for e in expvecs_up_to(t.n, t.D - 1)[1:]:
        j = support(e)[0]
        state[e] = step[j - 1][state[exp_sub_gen(e, j)]]
    return {e: distinct[p] for e, p in state.items()}


def build_itable_ref(r, D: int = 8, sigma: Perm | None = None) -> ITable:
    """The table of `build_rows_ref`'s rows, sigma the origin's."""
    rows = build_rows_ref(r, D, sigma)
    return itable_of_rows(r, D, Perm(rows[exp_unit(r.n)]), rows)


def build_rows_ref(r, D: int = 8, sigma: Perm | None = None) -> dict:
    """Run the inductive construction up to degree bound D >= 2: the row
    of every exponent vector of degree <= D-1."""
    if D < 2:
        raise InputError(f"degree bound must be >= 2, got {D}")
    axioms = check_axioms(r)
    if not axioms:
        raise AxiomError(f"pair map fails an axiom: {axioms.witness}")
    n = r.n
    if sigma is None:
        sigma = Perm.identity(n)
    if sigma.n != n:
        raise InputError(f"sigma acts on {sigma.n} letters, alphabet has {n}")

    # solve[(s, t)] = the unique c with r(c, s) = (*, t); axiom 3.
    solve: dict[tuple[int, int], int] = {}
    for c in range(1, n + 1):
        for s in range(1, n + 1):
            _, t = r(c, s)
            solve[(s, t)] = c

    rows: dict = {exp_unit(n): sigma.images}
    for m in range(2, D + 1):
        for a in expvecs_of_degree_ref(n, m - 1):
            supp = support(a)
            power_index = supp[0] if len(supp) == 1 else None
            row: list[int] = [0] * n
            for i in range(1, n + 1):
                if i == power_index:
                    continue
                values = set()
                for j in supp:
                    if j == i:
                        continue
                    brow = rows[exp_sub_gen(a, j)]
                    values.add(solve[(brow[j - 1], brow[i - 1])])
                if len(values) != 1:
                    raise ConsistencyError(
                        f"entry ({format_expvec(a)}, {i}) depends on the peeled "
                        f"generator: candidates {sorted(values)}"
                    )
                row[i - 1] = values.pop()
            if power_index is not None:
                others = [c for c in row if c != 0]
                if len(set(others)) != n - 1:
                    raise ConsistencyError(
                        f"row {format_expvec(a)}: peeling-case entries {others} "
                        "are not pairwise distinct"
                    )
                row[power_index - 1] = (set(range(1, n + 1)) - set(others)).pop()
            if sorted(row) != list(range(1, n + 1)):
                raise ConsistencyError(
                    f"row {format_expvec(a)} = {tuple(row)} is not a permutation of X"
                )
            rows[a] = tuple(row)
        # cross-row compatibility for every b one degree further down,
        # all i, j (i = j included: those pairs must be fixed by r)
        for b in expvecs_of_degree_ref(n, m - 2):
            brow = rows[b]
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    lhs = r(rows[exp_add_gen(b, j)][i - 1], brow[j - 1])
                    rhs = (rows[exp_add_gen(b, i)][j - 1], brow[i - 1])
                    if lhs != rhs:
                        raise ConsistencyError(
                            f"compatibility fails at b={format_expvec(b)}, i={i}, j={j}: "
                            f"r{lhs} != {rhs}"
                        )
    return rows


def dump_itable_ref(t: ITable) -> str:
    """Bit-exact dump: header, then one line per (row, column) in
    graded-lex order of the rows."""
    sigma = ",".join(str(k) for k in t.sigma.images)
    lines = [f"itable n={t.n} D={t.D} sigma={sigma}"]
    for b in expvecs_up_to(t.n, t.D - 1):
        name = format_expvec(b)
        lines.extend(f"{name} {i} -> {c}" for i, c in enumerate(t.row(b), start=1))
    return "\n".join(lines) + "\n"


def cocycle_exhaustive_ref(pm) -> CheckResult:
    """The cocycle identity phi(bc) = phi(phi(c)(b)) * phi(c) over every
    pair with deg b + deg c <= D-1, phi read off `rows_of` once: each row
    relabelled by sigma^-1, refused as a `Perm` if it is no permutation,
    and composed pair by pair as image tuples."""
    t, n = pm.table, pm.n
    inv = t.sigma.inverse().images
    rows = rows_of(t)
    vecs = [e for d in range(t.D) for e in expvecs_of_degree_ref(n, d)]
    phi = {b: Perm(tuple(inv[c - 1] for c in rows[b])).images for b in vecs}
    for b in vecs:
        for c in vecs:
            if sum(b) + sum(c) > t.D - 1:
                continue
            pc = phi[c]
            moved = [0] * n  # phi(c)(b): the exponent of pc(i) is b_i
            for i, k in enumerate(b):
                moved[pc[i] - 1] = k
            lhs = phi[tuple(x + y for x, y in zip(b, c))]
            rhs = tuple(phi[tuple(moved)][k - 1] for k in pc)
            if lhs != rhs:
                return CheckResult.failed(
                    f"b={format_expvec(b)} c={format_expvec(c)}: "
                    f"phi(bc)={lhs} but phi(phi(c)(b))*phi(c)={rhs}"
                )
    return CheckResult.passed()


def check_yb_ref(r) -> CheckResult:
    """The braid identity r1 r2 r1 = r2 r1 r2, exhaustively on X^3."""
    for w in all_words(r.n, 3):
        lhs = r.apply_at(r.apply_at(r.apply_at(w, 1), 2), 1)
        rhs = r.apply_at(r.apply_at(r.apply_at(w, 2), 1), 2)
        if lhs != rhs:
            return CheckResult.failed(
                f"on {r._fmt(w)}: r1 r2 r1 gives {r._fmt(lhs)}, r2 r1 r2 gives {r._fmt(rhs)}"
            )
    return CheckResult.passed()


def check_involutive_ref(r) -> CheckResult:
    """r applied twice is the identity on every pair."""
    for (a, b), (c, d) in r.pairs():
        if r(c, d) != (a, b):
            return CheckResult.failed(
                f"r(r({r._fmt((a, b))})) = {r._fmt(r(c, d))} != {r._fmt((a, b))}"
            )
    return CheckResult.passed()


def check_nondegenerate_ref(r) -> CheckResult:
    """For every (a,b) exactly one (c,d) solves r(x_c x_a) = x_d x_b, with
    c = d on the diagonal a = b; every c tried for every (a, b)."""
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


def check_cyclic_ref(r) -> CheckResult:
    """Applying r at position 2 then position 1 maps every word x_a x_a x_b
    to a word x_c x_d x_d, bijectively onto those; words rewritten by
    slicing."""
    n = r.n
    images = set()
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            w = (a, a, b)
            u = r.apply_at(r.apply_at(w, 2), 1)
            if u[1] != u[2]:
                return CheckResult.failed(
                    f"{r._fmt(w)} maps to {r._fmt(u)}, not of the form x_c x_d x_d"
                )
            images.add(u)
    if len(images) != n * n:
        return CheckResult.failed(
            f"image of the doubled-first-letter words has size {len(images)} < {n * n}"
        )
    return CheckResult.passed()


def classify_orbits3_ref(r) -> OrbitReport:
    """The orbit census on word tuples: from each word of X^3 not yet
    met, in lex order, its closure under r at positions 1 and 2 (words
    of earlier orbits included where r is no involution), typed by
    whether it meets xxx, else xxy or xyy."""
    seen: set = set()
    orbits = []
    for w in all_words(r.n, 3):
        if w in seen:
            continue
        orbit = {w}
        todo = [w]
        while todo:
            cur = todo.pop()
            for u in (r.apply_at(cur, 1), r.apply_at(cur, 2)):
                if u not in orbit:
                    orbit.add(u)
                    todo.append(u)
        seen |= orbit
        if any(u[0] == u[1] == u[2] for u in orbit):
            kind = "A"
        elif any(u[0] == u[1] or u[1] == u[2] for u in orbit):
            kind = "B"
        else:
            kind = "C"
        orbits.append(Orbit(tuple(sorted(orbit)), kind))
    orbits = tuple(orbits)
    return OrbitReport(r.n, orbits, _star_census(r.n, orbits), "n^3 = n + 3*n*(n-1) + 6*#C")


def cycle_set_law(rows, x: int, y: int) -> bool:
    """(x.y).(x.z) = (y.x).(y.z) for every z, on 0-based rows pi_x."""
    px, py = rows[x], rows[y]
    pxy, pyx = rows[px[y]], rows[py[x]]
    return all(pxy[px[z]] == pyx[py[z]] for z in range(len(px)))


def cycle_set_nodes(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The cycle-set search, depth first over every permutation for each
    row in turn: each tuple of rows pi_0, ..., pi_{k-1} whose pairs pass
    the law, for k = 0 .. n (k = n a solution).  A pair x < y is tested
    when the last of the rows of x, y, x.y and y.x is assigned, the pairs
    due at row k found by filtering all pairs y <= k per candidate."""
    perms = list(itertools.permutations(range(n)))

    def walk(rows):
        yield rows
        k = len(rows)
        for p in perms if k < n else ():
            grown = rows + (p,)
            if all(
                cycle_set_law(grown, x, y)
                for y in range(k + 1)
                for x in range(y)
                if max(y, grown[x][y], grown[y][x]) == k
            ):
                yield from walk(grown)

    return walk(())


def enumerate_solutions_ref(n: int) -> SolutionCensus:
    """The cycle-set search of `cycle_set_nodes`, the law checked point
    by point; every solution passes `check_yb`.  Classes are
    deduplicated through `PairMap.relabel`."""
    if not 1 <= n <= 4:
        raise InputError(f"enumeration supports 1 <= n <= 4, got {n}")
    solutions = [_from_cycle_set(rows) for rows in cycle_set_nodes(n) if len(rows) == n]
    for r in solutions:
        res = check_yb(r)
        if not res:
            raise ConsistencyError(f"cycle-set survivor fails the braid identity: {res.witness}")
    solutions.sort(key=lambda r: r.table)
    reps = []
    seen: set = set()
    for r in solutions:
        if r.table not in seen:
            reps.append(r)
            seen.update(r.relabel(tau).table for tau in all_perms(n))
    return SolutionCensus(n, tuple(solutions), tuple(reps))


def image_group_ref(pm, vecs=None) -> frozenset:
    """The image of phi as the closure of the rows of `vecs`, by default
    every row up to degree D-1, under composition."""
    if vecs is None:
        vecs = [e for d in range(pm.D) for e in expvecs_of_degree_ref(pm.n, d)]
    group = {phi_of(pm, b) for b in vecs}
    while True:
        extra = {p * q for p in group for q in group} - group
        if not extra:
            return frozenset(group)
        group |= extra


def coset_decomposition_ref(pm) -> CosetReport:
    """Certify, for every exponent vector e of degree <= D, that its
    split e = rep + p with rep = e mod t in the box and p in P0 has
    phi(p) = id, and that the split is compatible with v (concatenating
    the two canonical words lands in the right class).  Refuses
    (DegreeBoundError) up front a table too short for the commuting
    check, which decodes words of degree t_i + t_j.  The rows are read
    once, by `rows_of`, and the kernel data off them (`kernel_data_ref`);
    the words are those of `peel_walk` and each word is decoded right to
    left on the rows (`decode_ref`)."""
    table, n, D = pm.table, pm.n, pm.D
    rows = rows_of(table)
    kd = kernel_data_ref(pm, rows)
    t = kd.t
    need = max((t[i] + t[j] for i in range(n) for j in range(i + 1, n)), default=0)
    if need > D:
        raise DegreeBoundError(
            f"coset commuting check needs degree {need}, which exceeds table bound D = {D}"
        )
    reps = sorted(itertools.product(*(range(ti) for ti in t)), key=lambda v: (sum(v), v))
    word = {}
    for e, b, x in peel_walk(rows, D):
        word[e] = () if b is None else (x,) + word[b]
    inv = table.sigma.inverse().images
    identity = tuple(range(1, n + 1))
    factorization = CheckResult.passed()
    product_rule = CheckResult.passed()
    for e in word:
        rep = tuple(v % ti for v, ti in zip(e, t))
        p = tuple(v - r for v, r in zip(e, rep))
        if degree(p) <= D - 1 and Perm(tuple(inv[c - 1] for c in rows[p])).images != identity:
            factorization = CheckResult.failed(
                f"P0 part {format_expvec(p)} of {format_expvec(e)} has nontrivial phi"
            )
            break
        if decode_ref(rows, word[e]) != decode_ref(rows, word[rep] + word[p]):
            product_rule = CheckResult.failed(
                f"v({format_expvec(e)}) differs from v({format_expvec(rep)})"
                f"v({format_expvec(p)}) in the semigroup"
            )
            break
    commuting = CheckResult.passed()
    gens = [word[g] for g in kd.p0_generators]
    for i in range(n):
        for j in range(i + 1, n):
            wi, wj = gens[i], gens[j]
            if decode_ref(rows, wi + wj) != decode_ref(rows, wj + wi):
                commuting = CheckResult.failed(
                    f"v(u_{i + 1}^{t[i]}) and v(u_{j + 1}^{t[j]}) do not commute"
                )
    return CosetReport(kd, tuple(reps), factorization, product_rule, commuting)


def kernel_data_ref(pm, rows: dict) -> KernelData:
    """The kernel data read off `rows` (those of `rows_of`): t_i the
    least k <= D-1 with phi(u_i^k) = id, each row relabelled by sigma^-1
    and refused as a `Perm` if it is no permutation; H the closure of the
    generator images by `image_group_ref`.  Raises as `kernel_exponents`
    does."""
    t, n = pm.table, pm.n
    inv = t.sigma.inverse().images
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    exps = []
    for i, u in enumerate(units):
        for k in range(1, t.D):
            if Perm(tuple(inv[c - 1] for c in rows[tuple(k * x for x in u)])).is_identity():
                exps.append(k)
                break
        else:
            raise DegreeBoundError(
                f"no power of generator {i + 1} up to degree D-1 = {t.D - 1} has trivial "
                f"phi; raise the degree bound (D = n! + 1 = {math.factorial(n) + 1} suffices)"
            )
    for i, ti in enumerate(exps, start=1):
        if math.factorial(n) % ti != 0:
            raise ConsistencyError(f"t_{i} = {ti} does not divide n! = {math.factorial(n)}")
    gens = tuple(Perm(tuple(inv[c - 1] for c in rows[u])) for u in units)
    p0 = tuple(tuple(ti * k for k in u) for ti, u in zip(exps, units))
    return KernelData(tuple(exps), gens, image_group_ref(pm, units), p0)


def decode_ref(rows: dict, w) -> tuple:
    """The exponent vector of a word, read right to left on `rows` (those
    of `rows_of`): each letter, at place j of the row of the vector read
    so far, adds u_j."""
    a = next(iter(rows))  # the origin
    for letter in reversed(w):
        a = exp_add_gen(a, rows[a].index(letter) + 1)
    return a


def relations_of_pairmap(r) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The defining relations of the semigroup of a pair map: w = r(w)
    for every non-fixed pair."""
    return [(w, img) for w, img in r.pairs() if img != w]


def closure(relations, w) -> frozenset:
    """All words reachable from w by applying a relation (either way) at
    any position."""
    rules = []
    for lhs, rhs in relations:
        rules.append((lhs, rhs))
        rules.append((rhs, lhs))
    seen = {w}
    todo = [w]
    while todo:
        cur = todo.pop()
        for pos in range(len(cur) - 1):
            pair = cur[pos : pos + 2]
            for src, dst in rules:
                if pair == src:
                    nxt = cur[:pos] + dst + cur[pos + 2 :]
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
    return frozenset(seen)


def class_index(n: int, relations, m: int) -> dict:
    """Map each word of degree m to a canonical label of its class (the
    least member)."""
    label = {}
    for w in itertools.product(range(1, n + 1), repeat=m):
        if w in label:
            continue
        cls = closure(relations, w)
        rep = min(cls)
        for u in cls:
            label[u] = rep
    return label


def words_equal_bf(relations, w1, w2) -> bool:
    if len(w1) != len(w2):
        return False
    return w2 in closure(relations, w1)


@dataclass(frozen=True)
class GroupElement:
    word: SignedWord
    iso: AffineIso


def freeness_check_bf(pm, L: int, generators: list[AffineIso] | None = None) -> FreenessReport:
    """Enumerate every reduced word in the generators and inverses up to
    length L.  A non-identity isometry with a fixed point fails the
    check; identity isometries from non-empty words are relations of the
    group, recorded, never failures."""
    gens = affine_generators(pm) if generators is None else generators
    signed = _signed_generators(gens)
    verdict: dict[AffineIso, FixedPointSet] = {}
    relations: list[SignedWord] = []
    frontier = [GroupElement((), AffineIso.identity(pm.n))]
    seen_isos = {frontier[0].iso}
    for _ in range(L):
        nxt = []
        for el in frontier:
            last = el.word[-1] if el.word else 0
            for s, g in signed:
                if s == -last:
                    continue  # cancellation: not a reduced word
                word = el.word + (s,)
                iso = compose(el.iso, g)
                nxt.append(GroupElement(word, iso))
                seen_isos.add(iso)
                if iso.is_identity():
                    relations.append(word)
                    continue
                fp = verdict.get(iso)
                if fp is None:
                    fp = fixed_points(iso)
                    verdict[iso] = fp
                if not fp.empty:
                    return FreenessReport(
                        False,
                        f"word {format_word(word)} is not the identity yet "
                        f"fixes {fp.point}",
                        tuple(relations),
                        len(seen_isos),
                    )
        frontier = nxt
    relations.sort(key=lambda w: (len(w), w))
    return FreenessReport(True, "", tuple(relations), len(seen_isos))


def peel_walk(rows: dict, m: int) -> Iterator[tuple[tuple, tuple | None, int]]:
    """Every exponent vector e of degree <= m in graded-lex order, as
    (e, b, x) with v(e) = x v(b), on `rows` (those of `rows_of`, to degree
    m - 1 at least): b = e - u_j for the least index j present and
    x = x[b, j].  The origin comes first, as (origin, None, 0)."""
    origin = next(iter(rows))
    yield origin, None, 0
    for e in expvecs_up_to(len(origin), m)[1:]:
        j = support(e)[0]
        b = exp_sub_gen(e, j)
        yield e, b, rows[b][j - 1]


def graded_steps(t, p_bad: int, d_bad: int, bad: tuple[int, ...]):
    """The automaton of t with the degree joined to each row id, (row id
    p, degree d) numbered d * R + p: it describes the same rows, and
    states of equal row met at different degrees stay apart.  The row of
    id (p_bad, d_bad) is replaced by `bad`."""
    distinct, step = t.steps
    R = len(distinct)
    graded = [
        bad if (p, d) == (p_bad, d_bad) else row
        for d in range(t.D)
        for p, row in enumerate(distinct)
    ]
    # a row seen only at degree D - 1 has no step: -1 in its place
    raised = [
        [(d + 1) * R + s_j[p] if p < len(s_j) else -1 for d in range(t.D - 1) for p in range(R)]
        for s_j in step
    ]
    return tuple(graded), tuple(map(tuple, raised))


def right_products_ref(t: ITable) -> dict:
    """The decodings of v(a) x_i, i = 1..n, for every point a of degree
    <= D-1, on `rows_of`: at the origin the one letter x_i, read at its
    place in the origin's row; past it, with v(a) = x v(b) from
    `peel_walk`, those of b each read one letter further: c + u_k, k the
    place of x in the row of c."""
    rows = rows_of(t)
    right = {}  # a -> the decodings of v(a) x_i, i = 1..n
    for a, b, x in peel_walk(rows, t.D - 1):
        if b is None:
            right[a] = [exp_add_gen(a, rows[a].index(i) + 1) for i in range(1, t.n + 1)]
        else:
            right[a] = [exp_add_gen(c, rows[c].index(x) + 1) for c in right[b]]
    return right


def check_action_consistency_ref(pm, generators: list[AffineIso] | None = None) -> CheckResult:
    """The lattice action against right multiplication at every point of
    degree <= D-1: the affine images against `right_products_ref`, in
    graded-lex order."""
    gens = affine_generators(pm) if generators is None else generators
    if len(gens) != pm.n or any(g.n != pm.n for g in gens):
        raise InputError("dimension mismatch")
    for a, right in right_products_ref(pm.table).items():
        for i, (g, algebraic) in enumerate(zip(gens, right), start=1):
            geometric = act(g, a)
            if geometric != algebraic:
                return CheckResult.failed(
                    f"at a={format_expvec(a)}, generator {i}: affine image "
                    f"{geometric} but right multiplication gives {algebraic}"
                )
    return CheckResult.passed()


def fundamental_domain_check_bf(
    pm, box: int, L: int, generators: list[AffineIso] | None = None
) -> TilingReport:
    """Orbit of the origin under all elements of word length <= L:
    distinct isometries must reach distinct points (simple transitivity),
    and every lattice point of the radius-`box` cube must be reached once
    L is large enough.  Missing points with no injectivity violation is
    'inconclusive', not failure."""
    gens = affine_generators(pm) if generators is None else generators
    signed = _signed_generators(gens)
    origin = (0,) * pm.n
    owner: dict[tuple, SignedWord] = {origin: ()}
    seen: dict[AffineIso, SignedWord] = {AffineIso.identity(pm.n): ()}
    frontier = list(seen.items())
    for _ in range(L):
        nxt = []
        for iso, word in frontier:
            for s, g in signed:
                new = compose(iso, g)
                if new in seen:
                    continue
                nw = word + (s,)
                seen[new] = nw
                nxt.append((new, nw))
                pt = act(new, origin)
                if pt in owner:
                    return TilingReport(
                        "fail",
                        f"distinct elements {format_word(owner[pt])} and "
                        f"{format_word(nw)} both send the origin to {pt}",
                        len(seen),
                        0,
                        (),
                    )
                owner[pt] = nw
        frontier = nxt
    box_points = list(_box_points(pm.n, box))
    missed = tuple(pt for pt in box_points if pt not in owner)
    covered = len(box_points) - len(missed)
    if missed:
        return TilingReport(
            "inconclusive",
            f"{len(missed)} of {len(box_points)} box points not reached at "
            f"word length {L}; raise L",
            len(seen),
            covered,
            missed,
        )
    return TilingReport("pass", "", len(seen), covered, ())
