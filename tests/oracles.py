"""Independent brute-force oracles for the test suite.

Nothing here goes through the I-structure table: equality of words is
decided by closing under the degree-2 relations directly, which is the
ground truth the table-based decision procedure must reproduce.

The I-structure build, the recursive exponent-vector enumeration and the
cocycle sweep below are the straightforward versions of `build_itable`,
`expvecs_of_degree` and `cocycle_exhaustive`: keys built through the
exponent-vector helpers, one `Perm` composition per pair.  The flat code
in `itype` must produce the same rows, vectors and results.

`coset_decomposition_ref` is the coset certificate vector by vector:
three canonical words and one `words_equal` per exponent vector, where
`coset_decomposition` carries each word and its decoding over from a
vector one letter shorter.  The two must return the same report.

The lattice searches at the end are the straightforward versions of
`freeness_check` and `fundamental_domain_check`: one `AffineIso` per
word or element, composed with the public `compose` and deduplicated by
the isometry itself.  The flat searches in `itype.bieberbach` must
return the same reports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from itype import AffineIso, ITable, act, affine_generators, compose, fixed_points
from itype.core import (
    AxiomError,
    CheckResult,
    ConsistencyError,
    DegreeBoundError,
    InputError,
    Perm,
    degree,
    exp_add_gen,
    exp_sub_gen,
    exp_unit,
    expvecs_up_to,
    format_expvec,
    support,
)
from itype.istructure import v_of, words_equal
from itype.structuremaps import CosetReport, check_cocycle, kernel_exponents, phi_of
from itype.ybr import check_axioms
from itype.bieberbach import (
    FixedPointSet,
    FreenessReport,
    SignedWord,
    TilingReport,
    _box_points,
    _signed_generators,
    format_signed_word,
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


def build_itable_ref(r, D: int = 8, sigma: Perm | None = None) -> ITable:
    """Run the inductive construction up to degree bound D >= 2."""
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
    return ITable(r, D, sigma, rows)


def cocycle_exhaustive_ref(pm, dmax: int) -> CheckResult:
    """The cocycle identity over every pair with deg b + deg c <= dmax,
    one `check_cocycle` per pair."""
    vecs = [e for d in range(dmax + 1) for e in expvecs_of_degree_ref(pm.n, d)]
    for b in vecs:
        for c in vecs:
            if sum(b) + sum(c) > dmax:
                continue
            res = check_cocycle(pm, b, c)
            if not res:
                return res
    return CheckResult.passed()


def image_group_ref(pm) -> frozenset:
    """The image of phi as the closure of every row up to degree D-1
    under composition."""
    vecs = [e for d in range(pm.D) for e in expvecs_of_degree_ref(pm.n, d)]
    group = {phi_of(pm, b) for b in vecs}
    while True:
        extra = {p * q for p in group for q in group} - group
        if not extra:
            return frozenset(group)
        group |= extra


def coset_decomposition_ref(pm, m: int) -> CosetReport:
    """Certify, for every exponent vector e of degree <= m, that its
    split e = rep + p with rep = e mod t in the box and p in P0 has
    phi(p) = id, and that the split is compatible with v (concatenating
    the two canonical words lands in the right class).  Refuses
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
    factorization = CheckResult.passed()
    product_rule = CheckResult.passed()
    for e in expvecs_up_to(n, m):
        rep = tuple(v % ti for v, ti in zip(e, t))
        p = tuple(v - r for v, r in zip(e, rep))
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
    return CosetReport(kd, tuple(reps), factorization, product_rule, commuting)


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
                        f"word {format_signed_word(word)} is not the identity yet "
                        f"fixes {fp.point}",
                        tuple(relations),
                        len(seen_isos),
                    )
        frontier = nxt
    relations.sort(key=lambda w: (len(w), w))
    return FreenessReport(True, "", tuple(relations), len(seen_isos))


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
                        f"distinct elements {format_signed_word(owner[pt])} and "
                        f"{format_signed_word(nw)} both send the origin to {pt}",
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
