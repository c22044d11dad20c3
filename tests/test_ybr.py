import collections
import itertools
import random
from pathlib import Path

import pytest

from itype import (
    CheckResult,
    ConsistencyError,
    InputError,
    PairMap,
    build_r,
    canonical_form,
    check_axioms,
    check_cyclic,
    check_involutive,
    check_nondegenerate,
    check_yb,
    classify_orbits3,
    derived_bijections,
    enumerate_solutions,
    format_rtable,
    parse_presentation,
    parse_rtable,
)
from itype import ybr
from itype.cli import load_pairmap
from itype.core import Perm, all_perms, all_words

from conftest import COMM2_TEXT
from oracles import (
    check_cyclic_ref,
    check_involutive_ref,
    check_nondegenerate_ref,
    check_yb_ref,
    classify_orbits3_ref,
    cycle_set_law,
    cycle_set_nodes,
    enumerate_solutions_ref,
)

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"

X2Y2_TABLE = ((2, 2), (1, 2), (2, 1), (1, 1))  # row-major over (a,b)


def test_build_r_x2y2(x2y2_r):
    assert x2y2_r.table == X2Y2_TABLE
    assert x2y2_r(1, 1) == (2, 2)
    assert x2y2_r(2, 2) == (1, 1)
    assert x2y2_r(1, 2) == (1, 2)
    assert x2y2_r(2, 1) == (2, 1)


def test_build_r_commutative_is_flip():
    r = build_r(parse_presentation(COMM2_TEXT))
    assert r.table == PairMap.flip(2).table


def test_build_r_rank_one_identity():
    assert build_r(parse_presentation("gens x\n")).table == PairMap.identity(1).table


def test_build_r_rejects_reused_word():
    p = parse_presentation("gens x y z\nrel y x = x y\nrel z x = x y\n")
    with pytest.raises(InputError, match="two relations"):
        build_r(p)


def test_involutive(x2y2_r):
    assert check_involutive(x2y2_r).ok
    assert check_involutive(PairMap.identity(2)).ok
    three_cycle = PairMap.from_entries(
        2, {(1, 1): (1, 2), (1, 2): (2, 1), (2, 1): (1, 1), (2, 2): (2, 2)}
    )
    res = check_involutive(three_cycle)
    assert not res.ok and "!=" in res.witness


def test_yb(x2y2_r):
    assert check_yb(PairMap.flip(2)).ok
    assert check_yb(x2y2_r).ok
    bad = PairMap.from_entries(
        2, {(1, 1): (1, 2), (1, 2): (1, 1), (2, 1): (2, 1), (2, 2): (2, 2)}
    )
    res = check_yb(bad)
    assert not res.ok and res.witness


def test_nondegenerate(x2y2_r):
    assert check_nondegenerate(x2y2_r).ok
    assert check_nondegenerate(PairMap.flip(3)).ok
    res = check_nondegenerate(PairMap.identity(2))
    assert not res.ok


def test_nondegenerate_unique_solution_x2y2(x2y2_r):
    # for (a,b) = (x,y) the unique (c,d) is (x,y), via r(xx) = yy
    hits = [
        (c, x2y2_r(c, 1)[0])
        for c in (1, 2)
        if x2y2_r(c, 1)[1] == 2
    ]
    assert hits == [(1, 2)]


def test_derived_bijections_flip():
    tables = derived_bijections(PairMap.flip(2))
    # r(z t) = (t, z): the (t,y) pair of (z,t) is (t,z), so ty_to_zt is
    # itself the flip
    assert tables["ty_to_zt"][(1, 2)] == (2, 1)
    assert tables["zt_to_xy"][(2, 1)] == (1, 2)


def test_derived_bijections_x2y2(x2y2_r):
    tables = derived_bijections(x2y2_r)
    # r(xx) = yy: the (t,y) pair (x,y) determines z = x
    assert tables["ty_to_zt"][(1, 2)] == (1, 1)
    # composing around the cycle returns to the start
    for start in itertools.product((1, 2), repeat=2):
        zt = tables["ty_to_zt"][start]
        xy = tables["zt_to_xy"][zt]
        zx = tables["xy_to_zx"][xy]
        assert tables["zx_to_ty"][zx] == start


def test_derived_bijections_rank_one():
    tables = derived_bijections(PairMap.identity(1))
    assert all(tbl == {(1, 1): (1, 1)} for tbl in tables.values())


def test_orbits_commutative_n2():
    rep = classify_orbits3(build_r(parse_presentation(COMM2_TEXT)))
    assert rep.count("A") == 2 and rep.count("B") == 2 and rep.count("C") == 0
    assert sum(o.size for o in rep.orbits) == 8
    assert rep.star_census.ok


def test_orbits_commutative_n3():
    from conftest import commutative_presentation

    rep = classify_orbits3(build_r(commutative_presentation(3)))
    assert rep.count("A") == 3 and rep.count("B") == 6 and rep.count("C") == 1
    (c_orbit,) = [o for o in rep.orbits if o.kind == "C"]
    assert c_orbit.size == 6
    assert rep.star_census.ok


def test_orbits_x2y2(x2y2_r):
    rep = classify_orbits3(x2y2_r)
    assert ((1, 1, 1), (1, 2, 2), (2, 2, 1)) in [o.elements for o in rep.orbits]
    assert not rep.star_census.ok  # not star-shaped; census informational
    assert all(6 % o.size == 0 for o in rep.orbits)


@pytest.mark.parametrize(
    "n, table, witness",
    [
        (
            3,
            ((3, 2), (1, 3), (3, 1), (2, 3), (1, 3), (3, 1), (2, 3), (3, 2), (3, 3)),
            "#C = 0, expected n(n-1)(n-2)/6 = 1",
        ),
        (2, ((1, 1), (1, 2), (2, 2), (2, 1)), "type B orbit of x1 x1 x2 has size 1, expected 3"),
    ],
    ids=["count-of-C", "orbit-size"],
)
def test_star_census_witnesses(n, table, witness):
    rep = classify_orbits3(PairMap(n, table))
    assert rep.star_census == CheckResult.failed(witness)
    assert rep.identity == "n^3 = n + 3*n*(n-1) + 6*#C"


def test_orbit_sizes_divide_six_and_braid_rotation(census):
    for n, cen in census.items():
        for r in cen.solutions:
            rep = classify_orbits3(r)
            assert all(6 % o.size == 0 for o in rep.orbits)
            for w in all_words(n, 3):
                u = w
                for _ in range(3):  # (r2 r1)^3 = id given involutivity + braid
                    u = r.apply_at(r.apply_at(u, 1), 2)
                assert u == w


def test_enumerate_rank_one():
    cen = enumerate_solutions(1)
    assert cen.raw_count == 1 and cen.class_count == 1
    assert cen.solutions[0].table == PairMap.identity(1).table


def test_enumerate_n2(census):
    cen = census[2]
    assert cen.raw_count == 2 and cen.class_count == 2
    tables = {s.table for s in cen.solutions}
    assert PairMap.flip(2).table in tables
    assert X2Y2_TABLE in tables


def test_enumerate_n3_census(census):
    cen = census[3]
    assert cen.raw_count == 12 and cen.class_count == 5
    from collections import Counter

    sizes = Counter(canonical_form(s).table for s in cen.solutions)
    assert sorted(sizes.values()) == [1, 2, 3, 3, 3]


@pytest.fixture(scope="module")
def census4():
    return enumerate_solutions(4)


def test_enumerate_n4_census(census4):
    # 168 distinct solutions passing every axiom: with the published
    # total of 168 this is the complete solution set
    assert census4.raw_count == 168 and census4.class_count == 23
    tables = [s.table for s in census4.solutions]
    assert tables == sorted(set(tables))
    assert all(check_axioms(s).ok for s in census4.solutions)
    reps = sorted({canonical_form(s).table for s in census4.solutions})
    assert [r.table for r in census4.class_reps] == reps


def _single_entry_mutants(r):
    values = list(itertools.product(range(1, r.n + 1), repeat=2))
    for i, old in enumerate(r.table):
        for new in values:
            if new != old:
                yield PairMap(r.n, r.table[:i] + (new,) + r.table[i + 1 :])


def test_single_entry_mutants_fail_axioms(census, census4):
    maps = [s for cen in census.values() for s in cen.solutions]
    maps += census4.class_reps
    mutants = 0
    for r in maps:
        for m in _single_entry_mutants(r):
            res = check_axioms(m)
            assert not res.ok and res.witness, m.table
            mutants += 1
    # n <= 3: 1*0 + 2*4*3 + 12*9*8; n = 4: 23 reps * 16 * 15
    assert mutants == 24 + 864 + 5520


def test_check_yb_matches_reference(census, census4):
    # the checks on flat indices against the pair-by-pair and
    # word-slicing ones, verdict and witness text included, and the whole
    # orbit report: every solution for n <= 4, the corpus, every
    # single-entry mutant of the n <= 3 solutions and 1000 seeded ones of
    # the n = 4 solutions, then seeded mutants with two table entries
    # swapped, named maps among them
    sols = [s for cen in census.values() for s in cen.solutions] + list(census4.solutions)
    paths = sorted(p for p in CORPUS.iterdir() if p.suffix in (".pres", ".rtable"))
    corpus = [load_pairmap(str(path)) for path in paths]
    rng = random.Random(11)
    mutants = [m for r in sols if r.n < 4 for m in _single_entry_mutants(r)]
    mutants += rng.sample([m for r in census4.solutions for m in _single_entry_mutants(r)], 1000)
    named = [PairMap(s.n, s.table, tuple(f"g{i}" for i in range(s.n))) for s in sols]
    swaps = []
    for r in rng.choices([r for r in named if r.n > 1], k=600):
        i, j = rng.sample(range(r.n * r.n), 2)
        table = list(r.table)
        table[i], table[j] = table[j], table[i]
        swaps.append(PairMap(r.n, tuple(table), r.names))
    maps = sols + corpus + mutants + swaps
    assert len(maps) == 183 + 34 + 888 + 1000 + 600
    checks = [
        (check_involutive, check_involutive_ref),
        (check_yb, check_yb_ref),
        (check_nondegenerate, check_nondegenerate_ref),
        (check_cyclic, check_cyclic_ref),
    ]
    failed = collections.Counter()
    for m in maps:
        for check, ref in checks:
            got = check(m)
            assert got == ref(m), (check.__name__, m.table)
            failed[check.__name__] += not got
        rep = classify_orbits3(m)
        assert rep == classify_orbits3_ref(m), m.table
        failed["repeats"] += sum(o.size for o in rep.orbits) > m.n**3
    assert all(check_axioms(s).ok for s in sols + corpus)
    assert failed == {
        "check_involutive": 2433,
        "check_yb": 2425,
        "check_nondegenerate": 2071,
        "check_cyclic": 2425,
        "repeats": 1742,  # maps with an orbit repeating words of an earlier one
    }


def test_enumerate_all_pass_axioms(census):
    for cen in census.values():
        for s in cen.solutions:
            assert check_axioms(s).ok


def _involutions(elems):
    """All involutive self-maps of a finite set, as dicts."""
    elems = list(elems)
    if not elems:
        yield {}
        return
    first, rest = elems[0], elems[1:]
    for sub in _involutions(rest):
        yield {first: first, **sub}
    for k, partner in enumerate(rest):
        others = rest[:k] + rest[k + 1 :]
        for sub in _involutions(others):
            yield {first: partner, partner: first, **sub}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumerate_cross_checked_against_involution_search(census, n):
    # independent route: walk every involution of X^2 (2620 of them at
    # n=3) and keep those passing the public checks
    pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    survivors = set()
    for mapping in _involutions(pairs):
        cand = PairMap.from_entries(n, mapping)
        if check_yb(cand).ok and check_nondegenerate(cand).ok:
            survivors.add(cand.table)
    assert survivors == {s.table for s in census[n].solutions}


def test_enumerate_matches_reference(census, census4):
    # the gathered law, the per-node pair schedule and the class dedup by
    # cached gathers against the point-by-point search: the same solutions
    # in the same order and the same class representatives
    for n in (1, 2, 3, 4):
        got = census4 if n == 4 else census[n]
        ref = enumerate_solutions_ref(n)
        assert got == ref
        assert [s.table for s in got.solutions] == [s.table for s in ref.solutions]
        assert [s.table for s in got.class_reps] == [s.table for s in ref.class_reps]


@pytest.mark.parametrize("n, nodes, forced", [(1, 1, 0), (2, 3, 0), (3, 31, 16), (4, 1431, 1050)])
def test_forced_row_is_the_only_row_passing_its_pair(n, nodes, forced):
    # replay the search: at a node k, a pair x, y < k with x.y = k > y.x
    # admits exactly one row k among all of Sym_n, pi_{y.x} o pi_y o pi_x^-1
    # (composed here as Perms); `nodes` and `forced` count the nodes below
    # the leaves and those with such a pair
    perms = list(itertools.permutations(range(n)))
    seen_nodes = seen_forced = 0
    for rows in cycle_set_nodes(n):
        k = len(rows)
        if k == n:
            continue
        one_sided = [(x, y) for x in range(k) for y in range(k) if rows[x][y] == k > rows[y][x]]
        seen_nodes += 1
        seen_forced += bool(one_sided)
        pi = [Perm(tuple(i + 1 for i in row)) for row in rows]
        for x, y in one_sided:
            row = pi[rows[y][x]] * pi[y] * pi[x].inverse()
            passing = [p for p in perms if cycle_set_law(rows + (p,), x, y)]
            assert passing == [tuple(i - 1 for i in row.images)], (rows, x, y)
    assert (seen_nodes, seen_forced) == (nodes, forced)


@pytest.mark.parametrize("n", [3, 4])
def test_enumerate_braid_checks_a_corrupt_non_representative(n, monkeypatch):
    # negative control for checking one representative per class: a
    # survivor that is not a representative, two of its entries swapped
    # so that the braid identity fails, is no relabeling of a checked
    # representative, so it is met as a representative and rejected
    cen = enumerate_solutions(n)
    target = next(s for s in cen.solutions if s not in cen.class_reps)
    for i, j in itertools.combinations(range(n * n), 2):
        table = list(target.table)
        table[i], table[j] = table[j], table[i]
        bad = PairMap(n, tuple(table))
        if not check_yb(bad):
            break
    assert not check_yb(bad)
    real = ybr._from_cycle_set
    monkeypatch.setattr(ybr, "_from_cycle_set", lambda rows: bad if real(rows) == target else real(rows))
    with pytest.raises(ConsistencyError) as exc:
        enumerate_solutions(n)
    assert str(exc.value) == f"cycle-set survivor fails the braid identity: {check_yb(bad).witness}"


def test_canonical_form_matches_relabel(census, census4):
    # the cached gathers against PairMap.relabel, on every solution for
    # n <= 4, on every single-entry mutant of the n <= 3 solutions and on
    # 1000 seeded ones of the n = 4 solutions; mutants are not solutions
    sols = [s for cen in census.values() for s in cen.solutions] + list(census4.solutions)
    maps = sols + [m for r in sols if r.n < 4 for m in _single_entry_mutants(r)]
    rng = random.Random(13)
    mutants4 = [m for r in census4.solutions for m in _single_entry_mutants(r)]
    maps += rng.sample(mutants4, 1000)
    assert len(maps) == 15 + 168 + 24 + 864 + 1000
    for r in maps:
        best = min(r.relabel(tau).table for tau in all_perms(r.n))
        assert canonical_form(r).table == best


def test_enumerate_closed_under_relabeling(census):
    for n, cen in census.items():
        tables = {s.table for s in cen.solutions}
        for s in cen.solutions:
            for tau in all_perms(n):
                assert s.relabel(tau).table in tables


def test_enumerate_range():
    with pytest.raises(InputError):
        enumerate_solutions(5)


def test_build_r_involutive_by_construction(star_corpus):
    for plist in star_corpus.values():
        for p in plist:
            assert check_involutive(build_r(p)).ok


def test_rtable_round_trip(x2y2_r):
    text = format_rtable(x2y2_r)
    back = parse_rtable(text)
    assert back.table == x2y2_r.table and back.names == x2y2_r.names
    with pytest.raises(InputError, match="need 4"):
        parse_rtable("gens x y\nrtable\nx x -> y y\n")
