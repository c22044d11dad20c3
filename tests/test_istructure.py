import hashlib
import itertools
import json
import math
import random
import re
from pathlib import Path

import pytest

from itype import (
    AxiomError,
    CheckResult,
    ConsistencyError,
    DegreeBoundError,
    InputError,
    PairMap,
    build_itable,
    check_nondegenerate,
    degree2_relations,
    dump_itable,
    enumerate_solutions,
    expected_hilbert,
    hilbert_count,
    normalize_word,
    v_inverse,
    v_of,
    words_equal,
)
from itype import istructure as ist
from itype.cli import load_pairmap
from itype.core import (
    Perm,
    abelianize,
    all_perms,
    all_words,
    degree,
    exp_add_gen,
    expvec_level,
    sort_word,
)

import oracles
from conftest import permutation_solution
from oracles import (
    build_itable_ref,
    build_rows_ref,
    class_index,
    dump_itable_ref,
    exp_sub_gen,
    expvecs_of_degree_ref,
    expvecs_up_to,
    itable_of_rows,
    relations_of_pairmap,
    rows_of,
    words_equal_bf,
)

X2Y2_ROWS = {
    (0, 0): (1, 2),
    (1, 0): (2, 1),
    (0, 1): (2, 1),
    (2, 0): (1, 2),
    (1, 1): (1, 2),
    (0, 2): (1, 2),
}

X2Y2_DUMP_D3 = """itable n=2 D=3 sigma=1,2
(0,0) 1 -> 1
(0,0) 2 -> 2
(0,1) 1 -> 2
(0,1) 2 -> 1
(1,0) 1 -> 2
(1,0) 2 -> 1
(0,2) 1 -> 1
(0,2) 2 -> 2
(1,1) 1 -> 1
(1,1) 2 -> 2
(2,0) 1 -> 1
(2,0) 2 -> 2
"""


def test_build_x2y2_rows(x2y2_table):
    for b, row in X2Y2_ROWS.items():
        assert x2y2_table.row(b) == row


def test_build_flip_rows(flip_tables):
    for n, t in flip_tables.items():
        for b in expvecs_up_to(n, t.D - 1):
            assert t.row(b) == tuple(range(1, n + 1))


def test_build_rank_one(flip_tables):
    t = flip_tables[1]
    assert all(t.row((d,)) == (1,) for d in range(t.D))


def test_build_rejects_invalid_map():
    with pytest.raises(AxiomError):
        build_itable(PairMap.identity(2), D=4)
    with pytest.raises((ValueError,)):
        build_itable(PairMap.flip(2), D=1)


def test_v_of_x2y2(x2y2_table):
    assert v_of(x2y2_table, (2, 0)) == (2, 1)  # v(u1^2) = y x
    w = v_of(x2y2_table, (2, 1))
    # the class of v(u1^2 u2) is {x y y, x x x, y y x}
    for member in ((1, 2, 2), (1, 1, 1), (2, 2, 1)):
        assert words_equal(x2y2_table, w, member)


def test_v_of_flip_is_sorted_word(flip_tables):
    t = flip_tables[3]
    for a in expvecs_up_to(3, 4):
        w = v_of(t, a)
        assert w == sort_word(w) and abelianize(w, 3) == a


def test_v_inverse_x2y2(x2y2_table):
    assert v_inverse(x2y2_table, (1, 1, 1)) == (2, 1)  # x^3 decodes to u1^2 u2
    # the degree-2 classes are {xx, yy} -> u1 u2, {xy} -> u2^2, {yx} -> u1^2
    assert v_inverse(x2y2_table, (1, 1)) == (1, 1)
    assert v_inverse(x2y2_table, (2, 2)) == (1, 1)
    assert v_inverse(x2y2_table, (1, 2)) == (0, 2)
    assert v_inverse(x2y2_table, (2, 1)) == (2, 0)


def test_v_inverse_flip_is_abelianization(flip_tables):
    t = flip_tables[2]
    for m in range(5):
        for w in all_words(2, m):
            assert v_inverse(t, w) == abelianize(w, 2)


def test_round_trip(x2y2_table, flip_tables, census):
    tables = [x2y2_table, flip_tables[2], flip_tables[3]]
    tables += [build_itable(s, D=5) for s in census[3].solutions[:3]]
    for t in tables:
        for a in expvecs_up_to(t.n, t.D):
            assert v_inverse(t, v_of(t, a)) == a


def test_words_equal_x2y2(x2y2_table):
    t = x2y2_table
    assert words_equal(t, (1, 2, 2), (1, 1, 1))  # x y^2 = x^3
    assert words_equal(t, (1, 1, 1), (2, 2, 1))  # x^3 = y^2 x
    assert words_equal(t, (1, 1), (2, 2))  # x^2 = y^2
    assert not words_equal(t, (1, 1), (1, 2))
    assert words_equal(t, (1, 2), (1, 2))


def test_hilbert_counts(x2y2_table, flip_tables):
    assert hilbert_count(x2y2_table, 2) == 3
    assert hilbert_count(x2y2_table, 0) == 1
    assert hilbert_count(flip_tables[3], 3) == 10 == expected_hilbert(3, 3)


def test_hilbert_bijectivity_per_degree(x2y2_table, flip_tables):
    for t in (x2y2_table, flip_tables[2], flip_tables[3]):
        for m in range(t.D + 1):
            assert hilbert_count(t, m) == expected_hilbert(t.n, m)
            # injectivity of v on degree m
            images = {v_of(t, a) for a in expvecs_up_to(t.n, m) if degree(a) == m}
            assert len(images) == expected_hilbert(t.n, m)


def test_degree2_relations(x2y2_table, flip_tables):
    assert degree2_relations(x2y2_table) == (((1, 1), (2, 2)),)  # x^2 = y^2
    assert degree2_relations(flip_tables[3]) == (
        ((2, 1), (1, 2)),
        ((3, 1), (1, 3)),
        ((3, 2), (2, 3)),
    )
    assert degree2_relations(flip_tables[1]) == ()


def test_degree2_relations_regenerate_r(census):
    for cen in census.values():
        for s in cen.solutions:
            t = build_itable(s, D=3)
            rels = degree2_relations(t)
            assert len(rels) == s.n * (s.n - 1) // 2
            assert len({frozenset(rel) for rel in rels}) == len(rels)
            for lhs, rhs in rels:
                assert s(*lhs) == rhs and s(*rhs) == lhs


def test_condition_b(x2y2_table, flip_tables):
    # v(u_i b) = x[b, i] v(b) for every peel, not only the largest
    for t in (x2y2_table, flip_tables[3]):
        for b in expvecs_up_to(t.n, t.D - 1):
            for i in range(1, t.n + 1):
                left = v_of(t, exp_add_gen(b, i))
                assert words_equal(t, left, (t.row(b)[i - 1],) + v_of(t, b))


def test_oracle_equivalence_small(x2y2_r, x2y2_table):
    # literal all-pairs agreement with the brute-force closure at n = 2
    rels = relations_of_pairmap(x2y2_r)
    for m in range(1, 5):
        words = list(all_words(2, m))
        for w1, w2 in itertools.product(words, repeat=2):
            assert words_equal(x2y2_table, w1, w2) == words_equal_bf(rels, w1, w2)


def test_oracle_equivalence_census(census):
    for cen in census.values():
        for s in cen.solutions:
            t = build_itable(s, D=5)
            rels = relations_of_pairmap(s)
            for m in (2, 3, 4):
                labels = class_index(s.n, rels, m)
                for w in all_words(s.n, m):
                    assert v_inverse(t, w) == v_inverse(t, labels[w])


def test_right_cancellative(x2y2_table, flip_tables):
    for t in (x2y2_table, flip_tables[2]):
        words = [w for m in range(3) for w in all_words(t.n, m)]
        for w1, w2, s in itertools.product(words, repeat=3):
            if s and words_equal(t, w1 + s, w2 + s):
                assert words_equal(t, w1, w2)


def test_sigma_freedom(x2y2_r):
    t_id = build_itable(x2y2_r, D=5)
    swap = Perm((2, 1))
    t_sw = build_itable(x2y2_r, D=5, sigma=swap)
    # degree 1: v_sigma(u_i) = x_{sigma(i)}
    for i in (1, 2):
        u = tuple(1 if j == i else 0 for j in (1, 2))
        assert v_of(t_sw, u) == (swap(i),)
        assert v_of(t_sw, u) == v_of(t_id, tuple(1 if j == swap(i) else 0 for j in (1, 2)))
    # identical word-problem answers
    for m in (2, 3):
        for w1, w2 in itertools.product(all_words(2, m), repeat=2):
            assert words_equal(t_id, w1, w2) == words_equal(t_sw, w1, w2)


def test_random_cancellativity_samples(census):
    rng = random.Random(7)
    for s in census[3].solutions[:4]:
        t = build_itable(s, D=6)
        for _ in range(50):
            m1, m2 = rng.randint(0, 2), rng.randint(1, 2)
            w1 = tuple(rng.randint(1, 3) for _ in range(m1))
            w2 = tuple(rng.randint(1, 3) for _ in range(m1))
            suf = tuple(rng.randint(1, 3) for _ in range(m2))
            if words_equal(t, w1 + suf, w2 + suf):
                assert words_equal(t, w1, w2)


def test_degree_bound_errors(x2y2_table):
    with pytest.raises(DegreeBoundError):
        v_of(x2y2_table, (9, 0))
    with pytest.raises(DegreeBoundError):
        v_inverse(x2y2_table, (1,) * 9)
    with pytest.raises(DegreeBoundError):
        hilbert_count(x2y2_table, 9)


def test_letter_zero_is_refused(x2y2_table):
    # 0 first and in the middle, n + 1 at the end, and of two bad letters
    # the first
    cases = {(0, 1): 0, (1, 0, 2): 0, (1, 2, 3): 3, (1, 3, 0): 3, (0, 2, 3): 0}
    for word, letter in cases.items():
        message = f"letter {letter} out of range 1..2 in word {word}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            v_inverse(x2y2_table, word)


def test_row_refuses_a_bad_key_before_gathering():
    # on a fresh table, a key with a negative entry, of the wrong length
    # or of degree >= D is refused before the steps are walked
    corpus = Path(__file__).resolve().parent.parent / "bench" / "corpus"
    r = load_pairmap(str(corpus / "c4_20.rtable"))
    cases = [
        ((-1, 1, 1, 1), InputError, "not an exponent vector over 1..4: (-1, 1, 1, 1)"),
        ((1, 1, 1), InputError, "not an exponent vector over 1..4: (1, 1, 1)"),
        ((1, 1, 1, 1, 0), InputError, "not an exponent vector over 1..4: (1, 1, 1, 1, 0)"),
        ((8, 0, 0, 0), DegreeBoundError, "row (8,0,0,0) of degree 8 exceeds bound D-1 = 7"),
        ((2, 3, 1, 4), DegreeBoundError, "row (2,3,1,4) of degree 10 exceeds bound D-1 = 7"),
    ]
    t = build_itable(r, 8)
    for b, kind, message in cases:
        with pytest.raises(kind, match=f"^{re.escape(message)}$"):
            t.row(b)


def test_normalize_word(x2y2_table):
    nf = normalize_word(x2y2_table, (2, 2, 1))
    assert nf.exps == (2, 1)
    assert nf.word == (1, 2, 2)  # the x y^2 spelling is canonical


def test_dump_golden(x2y2_r):
    assert dump_itable(build_itable(x2y2_r, D=3)) == X2Y2_DUMP_D3


def test_dump_matches_reference(census, x2y2_r):
    # every census solution with n <= 4, flip5, and every sigma of x2y2
    # and the flip on 3 letters, at D = 8
    tables = [build_itable(s, D=8) for cen in census.values() for s in cen.solutions]
    tables += [build_itable(s, D=8) for s in (*enumerate_solutions(4).solutions, PairMap.flip(5))]
    for r in (x2y2_r, PairMap.flip(3)):
        tables += [build_itable(r, 8, sigma) for sigma in all_perms(r.n)]
    assert len(tables) == 15 + 168 + 1 + 2 + 6
    for t in tables:
        assert dump_itable(t) == dump_itable_ref(t)


def test_build_census_d6(census):
    # every enumerated solution admits the construction with all internal
    # cross-checks active
    for cen in census.values():
        for s in cen.solutions:
            build_itable(s, D=6)


def test_build_assertions_catch_invalid_map(monkeypatch):
    # involutive and nondegenerate but braid-violating; smuggled past the
    # axiom gate, the build's own cross-checks must reject it
    from itype import CheckResult, ConsistencyError
    from itype import istructure as ist

    bad = PairMap.from_entries(
        2, {(1, 1): (1, 1), (2, 1): (2, 2), (1, 2): (1, 2), (2, 2): (2, 1)}
    )
    from itype import check_involutive, check_nondegenerate, check_yb

    assert check_involutive(bad).ok and check_nondegenerate(bad).ok
    assert not check_yb(bad).ok
    monkeypatch.setattr(ist, "check_axioms", lambda r: CheckResult.passed())
    with pytest.raises(ConsistencyError):
        build_itable(bad, D=5)


def _involutions(items):
    """Every involution of a finite list of items, as a dict."""
    if not items:
        yield {}
        return
    a, rest = items[0], items[1:]
    for m in _involutions(rest):
        yield {a: a, **m}
    for k, b in enumerate(rest):
        for m in _involutions(rest[:k] + rest[k + 1 :]):
            yield {a: b, b: a, **m}


def _outcome(build, r, D):
    """Rows and bound of the built table, or the exception's type and text."""
    try:
        t = build(r, D)
    except Exception as exc:  # the outcome under comparison
        return type(exc), str(exc)
    return t.D, t.sigma, rows_of(t)


def test_expvecs_match_recursion():
    for n in range(1, 7):
        for d in range(12):
            assert list(expvec_level(n, d)) == expvecs_of_degree_ref(n, d)


def test_level_indices_match_slicing():
    for n in range(1, 6):
        for d in range(1, 9):
            peel = ist.level_indices(n, d)
            lower, level = expvec_level(n, d - 1), expvec_level(n, d)
            assert list(peel) == [
                lower.index(exp_sub_gen(a, j)) if a[j - 1] else -1
                for a in level
                for j in range(1, n + 1)
            ]


def test_build_error_is_the_same_with_cold_and_warm_caches(monkeypatch):
    # the braid-violating map of test_build_assertions_catch_invalid_map,
    # smuggled past the axiom gate and built twice in one process
    monkeypatch.setattr(ist, "check_axioms", lambda r: CheckResult.passed())
    monkeypatch.setattr(oracles, "check_axioms", lambda r: CheckResult.passed())
    bad = PairMap.from_entries(2, {(1, 1): (1, 1), (2, 1): (2, 2), (1, 2): (1, 2), (2, 2): (2, 1)})
    expvec_level.cache_clear()
    ist.level_indices.cache_clear()
    cold = _outcome(build_itable, bad, 5)
    assert ist.level_indices.cache_info().currsize > 0
    assert cold[0] is ConsistencyError
    assert _outcome(build_itable, bad, 5) == cold == _outcome(oracles.build_itable_ref, bad, 5)


def test_rows_match_reference_census(census):
    # every solution with n <= 4 and flip5 at D = 8, then the 31 classes
    # at D = 12 and flip5 at D = 9
    maps = [(s, 8) for cen in census.values() for s in cen.solutions]
    maps += [(s, 8) for s in (*enumerate_solutions(4).solutions, PairMap.flip(5))]
    classes = [(s, 12) for n in (1, 2, 3, 4) for s in enumerate_solutions(n).class_reps]
    assert len(classes) == 31
    for r, D in (*maps, *classes, (PairMap.flip(5), 9)):
        t = build_itable(r, D)
        assert (t.D, t.sigma.is_identity(), rows_of(t)) == (D, True, build_rows_ref(r, D))


def test_rows_match_reference_every_sigma(x2y2_r):
    for r in (x2y2_r, PairMap.flip(3)):
        for sigma in all_perms(r.n):
            t, ref = build_itable(r, 8, sigma), build_itable_ref(r, 8, sigma)
            assert rows_of(t) == rows_of(ref) and t.sigma == ref.sigma == sigma


@pytest.fixture(scope="module")
def cocycle_cases():
    """The tables of test_cocycle_rows_match_the_construction, as (r, D,
    sigma, the per-key reference construction's rows in graded-lex
    order), built once for both read orders: the 34 corpus inputs and the
    183 solutions with n <= 4 at D = 12 (flip5 at 8), then every sigma of
    the solutions with n <= 3 and of c4_01..c4_09 at D = 9."""
    corpus = Path(__file__).resolve().parent.parent / "bench" / "corpus"
    paths = sorted(p for p in corpus.iterdir() if p.suffix in (".pres", ".rtable"))
    maps = [load_pairmap(str(p)) for p in paths]
    maps += [s for n in (1, 2, 3, 4) for s in enumerate_solutions(n).solutions]
    assert len(maps) == 34 + 183
    first = [(r, 8 if r.n == 5 else 12, None) for r in maps]
    maps = [s for n in (1, 2, 3) for s in enumerate_solutions(n).solutions]
    maps += [load_pairmap(str(corpus / f"c4_0{k}.rtable")) for k in range(1, 10)]
    second = [(r, 9, sigma) for r in maps for sigma in all_perms(r.n)]
    cases = []
    for group in (first, second):
        cases.append([])
        for r, D, sigma in group:
            rows, equal = build_rows_ref(r, D, sigma), {}
            keys = expvecs_up_to(r.n, D - 1)
            cases[-1].append((r, D, sigma, [equal.setdefault(row, row) for row in map(rows.get, keys)]))
    return cases


def _assert_cocycle_rows_match(r, D, sigma, ref, shuffle):
    """The rows of a fresh table equal the per-key reference
    construction's rows ref, read in graded-lex order or in the order
    shuffle leaves the vectors in; past D-1 and off the lattice the reads
    are refused.  Returns the number of rows compared."""
    t = build_itable(r, D, sigma)
    assert (t.D, t.sigma.images) == (D, ref[0])
    pairs = list(zip(expvecs_up_to(r.n, D - 1), ref))
    if shuffle:
        shuffle(pairs)
    assert [t.row(b) for b, _ in pairs] == [row for _, row in pairs]
    with pytest.raises(DegreeBoundError, match=f"degree {D} exceeds bound D-1 = {D - 1}$"):
        t.row((D,) + (0,) * (r.n - 1))
    with pytest.raises(InputError, match="not an exponent vector"):
        t.row((-1,) + (1,) * (r.n - 1))
    return len(pairs)


@pytest.mark.parametrize("order", ["lex", "random"])
def test_cocycle_rows_match_the_construction(order, cocycle_cases):
    # the rows of a built table, read off its steps, against the per-key
    # reference construction (cocycle_cases); the rows must not depend on
    # the read order
    shuffle = random.Random(12).shuffle if order == "random" else None
    first, second = cocycle_cases
    assert sum(_assert_cocycle_rows_match(*case, shuffle) for case in first) == 268_473
    assert sum(_assert_cocycle_rows_match(*case, shuffle) for case in second) == 118_989


def test_dump_of_a_cocycle_table_reads_every_row():
    # dump reads every level's states, and dumps as the per-key
    # construction's table does
    corpus = Path(__file__).resolve().parent.parent / "bench" / "corpus"
    for name in ("x2y2.pres", "c3_02.rtable", "c4_20.rtable", "flip5.rtable"):
        r = load_pairmap(str(corpus / name))
        assert dump_itable(build_itable(r)) == dump_itable(build_itable_ref(r, 8))


def test_build_errors_match_reference(monkeypatch):
    # every nondegenerate map on 2 letters and every involutive,
    # nondegenerate map on 3, smuggled past the axiom gate: the maps that
    # are not solutions must fail the build's own checks first at the same
    # place, with the same message; the non-involutive ones on 2 letters
    # get as far as the compatibility sweep
    monkeypatch.setattr(ist, "check_axioms", lambda r: CheckResult.passed())
    monkeypatch.setattr(oracles, "check_axioms", lambda r: CheckResult.passed())
    pairs2 = [(a, b) for a in (1, 2) for b in (1, 2)]
    pairs3 = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
    maps = [PairMap(2, images) for images in itertools.product(pairs2, repeat=4)]
    maps += [PairMap.from_entries(3, inv) for inv in _involutions(pairs3)]
    seen = 0
    failures = set()
    for r in maps:
        if not check_nondegenerate(r).ok:
            continue
        seen += 1
        got = _outcome(build_itable, r, 6)
        assert got == _outcome(build_itable_ref, r, 6)
        if got[0] is ConsistencyError:
            failures.add(got[1].split()[0])
    assert seen == 16 + 216
    assert failures == {"entry", "row", "compatibility"}


def test_build_errors_on_degenerate_maps_are_pinned(monkeypatch):
    # the 240 degenerate maps on 2 letters, at D = 6 and at D = 2 (level 1
    # alone), and the 2,404 involutive degenerate maps on 3, smuggled past
    # the axiom gate: build_itable_ref raises KeyError on them, so the type
    # and text of each failure are pinned by a digest of the per-key
    # construction's
    monkeypatch.setattr(ist, "check_axioms", lambda r: CheckResult.passed())
    pairs2 = [(a, b) for a in (1, 2) for b in (1, 2)]
    pairs3 = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
    maps2 = [PairMap(2, images) for images in itertools.product(pairs2, repeat=4)]
    maps3 = [PairMap.from_entries(3, inv) for inv in _involutions(pairs3)]
    cases = [(r, D) for r in maps2 if not check_nondegenerate(r).ok for D in (6, 2)]
    cases += [(r, 6) for r in maps3 if not check_nondegenerate(r).ok]
    assert len(cases) == 2 * 240 + 2404
    lines = []
    for r, D in cases:
        kind, text = _outcome(build_itable, r, D)
        assert kind is ConsistencyError
        lines.append(f"{kind.__name__}: {text}")
    assert {line.split()[1] for line in lines} == {"row", "compatibility"}
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "b0481c69e88bdf09a517a280f0f5afd354758f1000a81d0652716c1d041ce814"
    )


def test_build_refuses_maps_whose_peels_disagree(monkeypatch):
    # two nondegenerate maps on 2 letters, smuggled past the axiom gate:
    # they build to level 1, and every step passes the row checks and the
    # compatibility sweep, so only the agreement of the peels of (1,1), the
    # steps commuting at the origin, refuses them, at level 2
    monkeypatch.setattr(ist, "check_axioms", lambda r: CheckResult.passed())
    cases = {
        ((1, 1), (1, 2), (2, 2), (2, 1)): "row (1,1) = (2, 2) is not a permutation of X",
        ((1, 2), (1, 1), (2, 1), (2, 2)): "row (1,1) = (1, 1) is not a permutation of X",
    }
    for images, message in cases.items():
        r = PairMap(2, images)
        assert check_nondegenerate(r).ok
        assert build_itable(r, 2).row((1, 0)) in ((1, 2), (2, 1))
        for D in (3, 6):
            assert _outcome(build_itable, r, D) == (ConsistencyError, message)


def _mutants(sols, rng, count):
    """Nondegenerate maps near the solutions sols, all on n letters: two
    r-orbits of a solution re-paired (still involutive), or one of its
    row maps c -> r(a, c)_1 or column maps c -> r(c, b)_2 replaced by a
    random permutation."""
    n = sols[0].n
    pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    perms = list(itertools.permutations(range(1, n + 1)))
    out = []
    while len(out) < count:
        m = {p: img for p, img in rng.choice(sols).pairs()}
        if len(out) % 2:
            p, q = rng.sample(pairs, 2)
            rp, rq = m[p], m[q]
            if len({p, q, rp, rq}) < 4:
                continue
            m.update({p: rq, rq: p, q: rp, rp: q})
        else:
            k, new = rng.randrange(1, n + 1), rng.choice(perms)
            for c in range(1, n + 1):
                if len(out) % 4:
                    m[k, c] = (new[c - 1], m[k, c][1])
                else:
                    m[c, k] = (m[c, k][0], new[c - 1])
        r = PairMap.from_entries(n, m)
        if check_nondegenerate(r).ok:
            out.append(r)
    return out


def test_build_errors_match_reference_on_four_letters(monkeypatch):
    # a few hundred seeded mutants of the n = 4 solutions, smuggled past
    # the axiom gate: the first failure and its message are the reference's
    monkeypatch.setattr(ist, "check_axioms", lambda r: CheckResult.passed())
    monkeypatch.setattr(oracles, "check_axioms", lambda r: CheckResult.passed())
    kinds = []
    for r in _mutants(enumerate_solutions(4).solutions, random.Random(4), 300):
        got = _outcome(build_itable, r, 6)
        assert got == _outcome(build_itable_ref, r, 6)
        kinds.append(got[1].split()[0] if got[0] is ConsistencyError else "built")
    assert {"entry", "compatibility", "built"} <= set(kinds)


def test_build_errors_match_reference_with_an_origin_sigma(monkeypatch):
    # seeded mutants of the n = 4 solutions, each built with a seeded sigma
    # != id as the origin's row, by the build and the reference alike
    monkeypatch.setattr(ist, "check_axioms", lambda r: CheckResult.passed())
    monkeypatch.setattr(oracles, "check_axioms", lambda r: CheckResult.passed())
    rng = random.Random(44)
    sigmas = [s for s in all_perms(4) if not s.is_identity()]
    kinds = []
    for r in _mutants(enumerate_solutions(4).solutions, rng, 300):
        sigma = rng.choice(sigmas)
        got = _outcome(lambda r, D: build_itable(r, D, sigma), r, 6)
        assert got == _outcome(lambda r, D: build_itable_ref(r, D, sigma), r, 6)
        kinds.append(got[1].split()[0] if got[0] is ConsistencyError else "built")
    assert {"entry", "compatibility", "built"} <= set(kinds)


def test_build_errors_match_reference_on_five_letters(monkeypatch):
    # the same at n = 5, near flip5 and the other solutions r(a, b) =
    # (sigma(b), sigma^-1(a)), flip5 being sigma = id: flip5's own mutants
    # build or fail the level-1 sweep, never at an entry
    monkeypatch.setattr(ist, "check_axioms", lambda r: CheckResult.passed())
    monkeypatch.setattr(oracles, "check_axioms", lambda r: CheckResult.passed())
    sols = [permutation_solution(sigma) for sigma in all_perms(5)]
    assert sols[0].table == PairMap.flip(5).table
    kinds = []
    for r in _mutants(sols, random.Random(5), 200):
        got = _outcome(build_itable, r, 6)
        assert got == _outcome(build_itable_ref, r, 6)
        kinds.append(got[1].split()[0] if got[0] is ConsistencyError else "built")
    assert {"entry", "compatibility"} <= set(kinds)


def test_rows_match_reference_decode_sized_tables(x2y2_r):
    # the tables the decode benchmark reads: 300 to 3,876 rows
    corpus = Path(__file__).resolve().parent.parent / "bench" / "corpus"
    c4_20 = load_pairmap(str(corpus / "c4_20.rtable"))
    for r, D in ((x2y2_r, 24), (PairMap.flip(5), 10), (c4_20, 16)):
        t = build_itable(r, D)
        assert (t.D, t.sigma.is_identity(), rows_of(t)) == (D, True, build_rows_ref(r, D))


def test_valid_builds_take_no_witness_path(monkeypatch):
    # with the failure witness refused, every corpus input at D = 8 and at
    # the decode degrees, the 183 solutions with n <= 4 at D = 8 and every
    # sigma of those with n <= 3 at D = 6 build the reference's rows
    def refuse(*args):
        raise AssertionError("witness path taken")

    monkeypatch.setattr(ist, "_raise_level_failure", refuse)
    corpus = Path(__file__).resolve().parent.parent / "bench" / "corpus"
    paths = sorted(p for p in corpus.iterdir() if p.suffix in (".pres", ".rtable"))
    named = {p.name: load_pairmap(str(p)) for p in paths}
    cases = [(r, 8, None) for r in named.values()]
    cases += [(named[k], D, None) for k, D in (("x2y2.pres", 24), ("flip5.rtable", 10))]
    cases += [(named["c4_20.rtable"], 16, None)]
    cases += [(s, 8, None) for n in (1, 2, 3, 4) for s in enumerate_solutions(n).solutions]
    sols = [s for n in (1, 2, 3) for s in enumerate_solutions(n).solutions]
    cases += [(s, 6, sigma) for s in sols for sigma in all_perms(s.n)]
    assert len(cases) == 34 + 3 + 183 + sum(math.factorial(s.n) for s in sols)
    for r, D, sigma in cases:
        assert rows_of(build_itable(r, D, sigma)) == build_rows_ref(r, D, sigma)


def test_equal_rows_are_one_tuple():
    # every corpus input at D = 8: equal rows share a tuple even where
    # they are forced by different peeled rows
    corpus = Path(__file__).resolve().parent.parent / "bench" / "corpus"
    paths = sorted(p for p in corpus.iterdir() if p.suffix in (".pres", ".rtable"))
    assert len(paths) == 34
    for path in paths:
        rows = rows_of(build_itable(load_pairmap(str(path)), D=8)).values()
        assert len({id(row) for row in rows}) == len(set(rows))


def test_build_steps_describe_the_rows():
    # every corpus input at D = 8 and every sigma of the solutions with
    # n <= 3 at D = 6: the distinct rows are the table's, the origin's
    # first, and the step from the row of b by j is the row of b + u_j for
    # every b of degree <= D - 2
    corpus = Path(__file__).resolve().parent.parent / "bench" / "corpus"
    paths = sorted(p for p in corpus.iterdir() if p.suffix in (".pres", ".rtable"))
    cases = [(load_pairmap(str(p)), 8, None) for p in paths]
    sols = [s for n in (1, 2, 3) for s in enumerate_solutions(n).solutions]
    cases += [(s, 6, sigma) for s in sols for sigma in all_perms(s.n)]
    assert len(cases) == 34 + sum(math.factorial(s.n) for s in sols)
    for r, D, sigma in cases:
        t = build_itable(r, D, sigma)
        distinct, step = t.steps
        assert distinct[0] == t.sigma.images
        assert sorted(distinct) == sorted(set(rows_of(t).values()))
        ids = {row: p for p, row in enumerate(distinct)}
        for b in expvecs_up_to(r.n, D - 2):
            p = ids[t.row(b)]
            for j in range(r.n):
                assert t.row(exp_add_gen(b, j + 1)) == distinct[step[j][p]]


def test_build_refuses_oversized_table(monkeypatch):
    # C(5+60-1, 5) = 7,624,512 rows; refused before any work
    with pytest.raises(InputError, match="7624512 rows"):
        build_itable(PairMap.flip(5), D=60)
    monkeypatch.setattr(ist, "MAX_TABLE_ROWS", 330)
    build_itable(PairMap.flip(4), D=8)  # exactly 330 rows
    with pytest.raises(InputError, match="495 rows"):
        build_itable(PairMap.flip(4), D=9)


def test_peel_walk_matches_v_of():
    # every corpus input at D = 8: the walk's letters rebuild v(e)
    corpus = Path(__file__).resolve().parent.parent / "bench" / "corpus"
    paths = sorted(p for p in corpus.iterdir() if p.suffix in (".pres", ".rtable"))
    assert len(paths) == 34
    for path in paths:
        t = build_itable(load_pairmap(str(path)), D=8)
        word = {}
        for e, b, x in oracles.peel_walk(rows_of(t), t.D):
            word[e] = () if b is None else (x,) + word[b]
            assert word[e] == v_of(t, e)
        assert list(word) == expvecs_up_to(t.n, t.D)


def test_automaton_reads_match_the_row_walks():
    # on built tables, v_inverse on the steps equals v_inverse on one
    # state per vector of the same rows for every word of length <= 4 and
    # seeded words up to length D, and v_of on the steps equals the
    # least-peel walk of oracles.peel_walk for every vector of degree <= D:
    # every corpus input at D = 8, every sigma of the solutions with n <= 3
    # at D = 6, and the decode tables (x2y2 at D = 24, flip5 at 10, the
    # t = (4,4,4,4) classes at 16)
    corpus = Path(__file__).resolve().parent.parent / "bench" / "corpus"
    paths = sorted(p for p in corpus.iterdir() if p.suffix in (".pres", ".rtable"))
    named = {p.name: load_pairmap(str(p)) for p in paths}
    manifest = json.loads((corpus / "manifest.json").read_text())
    t4 = [e["file"] for e in manifest["inputs"] if e["n"] == 4 and e["t"] == [4, 4, 4, 4]]
    cases = [(r, 8, None) for r in named.values()]
    sols = [s for n in (1, 2, 3) for s in enumerate_solutions(n).solutions]
    cases += [(s, 6, sigma) for s in sols for sigma in all_perms(s.n)]
    cases += [(named["x2y2.pres"], 24, None), (named["flip5.rtable"], 10, None)]
    cases += [(named[name], 16, None) for name in t4]
    assert len(cases) == 34 + sum(math.factorial(s.n) for s in sols) + 2 + 3
    rng = random.Random(29)
    for r, D, sigma in cases:
        words = [w for m in range(5) for w in all_words(r.n, m)]
        words += [tuple(rng.choices(range(1, r.n + 1), k=rng.randint(5, D))) for _ in range(40)]
        t = build_itable(r, D, sigma)
        decoded = [v_inverse(t, w) for w in words]
        canonical = {e: v_of(t, e) for e in expvecs_up_to(r.n, D)}
        by_vector = itable_of_rows(r, D, t.sigma, rows_of(t))
        assert decoded == [v_inverse(by_vector, w) for w in words]
        walked = {}
        for e, b, x in oracles.peel_walk(rows_of(t), D):
            walked[e] = () if b is None else (x,) + walked[b]
        assert canonical == walked


def test_itable_of_rows_reads_as_the_build():
    # every corpus input at D = 8: the table of one state per vector of a
    # build's rows gives the build's rows, canonical words, decodings of
    # every word of length <= 4 and seeded words up to length D, and dump
    corpus = Path(__file__).resolve().parent.parent / "bench" / "corpus"
    paths = sorted(p for p in corpus.iterdir() if p.suffix in (".pres", ".rtable"))
    assert len(paths) == 34
    rng = random.Random(32)
    for path in paths:
        t = build_itable(load_pairmap(str(path)), D=8)
        by_vector = itable_of_rows(t.r, t.D, t.sigma, rows_of(t))
        assert len(by_vector.steps[0]) == math.comb(t.n + 7, t.n)
        assert rows_of(by_vector) == rows_of(t)
        assert all(v_of(by_vector, e) == v_of(t, e) for e in expvecs_up_to(t.n, 8))
        words = [w for m in range(5) for w in all_words(t.n, m)]
        words += [tuple(rng.choices(range(1, t.n + 1), k=rng.randint(5, 8))) for _ in range(40)]
        assert [v_inverse(by_vector, w) for w in words] == [v_inverse(t, w) for w in words]
        assert dump_itable(by_vector) == dump_itable(t)
