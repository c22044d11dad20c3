import itertools
import random
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
    expvecs_of_degree,
    expvecs_up_to,
    sort_word,
)

import oracles
from oracles import (
    build_itable_ref,
    class_index,
    expvecs_of_degree_ref,
    relations_of_pairmap,
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
                assert words_equal(t, left, (t.entry(b, i),) + v_of(t, b))


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


def test_normalize_word(x2y2_table):
    nf = normalize_word(x2y2_table, (2, 2, 1))
    assert nf.exps == (2, 1)
    assert nf.word == (1, 2, 2)  # the x y^2 spelling is canonical


def test_dump_golden(x2y2_r):
    assert dump_itable(build_itable(x2y2_r, D=3)) == X2Y2_DUMP_D3


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
    return t.D, t.sigma, t._rows


def test_expvecs_match_recursion():
    for n in range(1, 7):
        for d in range(12):
            assert expvecs_of_degree(n, d) == expvecs_of_degree_ref(n, d)


def test_rows_match_reference_census(census):
    maps = [s for cen in census.values() for s in cen.solutions]
    maps += [*enumerate_solutions(4).solutions, PairMap.flip(5)]
    for s in maps:
        t, ref = build_itable(s, D=8), build_itable_ref(s, D=8)
        assert (t.D, t.sigma, t._rows) == (ref.D, ref.sigma, ref._rows)


def test_rows_match_reference_every_sigma(x2y2_r):
    for r in (x2y2_r, PairMap.flip(3)):
        for sigma in all_perms(r.n):
            t, ref = build_itable(r, 8, sigma), build_itable_ref(r, 8, sigma)
            assert t._rows == ref._rows and t.sigma == ref.sigma == sigma


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


def _mutants4(rng, count):
    """Nondegenerate maps on 4 letters near the solutions: two r-orbits
    of a solution re-paired (still involutive), or one of its row maps
    c -> r(a, c)_1 or column maps c -> r(c, b)_2 replaced by a random
    permutation."""
    sols = enumerate_solutions(4).solutions
    pairs = [(a, b) for a in range(1, 5) for b in range(1, 5)]
    perms = list(itertools.permutations(range(1, 5)))
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
            k, new = rng.randrange(1, 5), rng.choice(perms)
            for c in range(1, 5):
                if len(out) % 4:
                    m[k, c] = (new[c - 1], m[k, c][1])
                else:
                    m[c, k] = (m[c, k][0], new[c - 1])
        r = PairMap.from_entries(4, m)
        if check_nondegenerate(r).ok:
            out.append(r)
    return out


def test_build_errors_match_reference_on_four_letters(monkeypatch):
    # a few hundred seeded mutants of the n = 4 solutions, smuggled past
    # the axiom gate: each memo hit reuses a row or a sweep on the same
    # values, so the first failure and its message are the reference's
    monkeypatch.setattr(ist, "check_axioms", lambda r: CheckResult.passed())
    monkeypatch.setattr(oracles, "check_axioms", lambda r: CheckResult.passed())
    kinds = []
    for r in _mutants4(random.Random(4), 300):
        got = _outcome(build_itable, r, 6)
        assert got == _outcome(build_itable_ref, r, 6)
        kinds.append(got[1].split()[0] if got[0] is ConsistencyError else "built")
    assert {"entry", "compatibility", "built"} <= set(kinds)


def test_rows_match_reference_decode_sized_tables(x2y2_r):
    # the tables the decode benchmark reads: 300 to 3,876 rows
    corpus = Path(__file__).resolve().parent.parent / "bench" / "corpus"
    c4_20 = load_pairmap(str(corpus / "c4_20.rtable"))
    for r, D in ((x2y2_r, 24), (PairMap.flip(5), 10), (c4_20, 16)):
        t, ref = build_itable(r, D), build_itable_ref(r, D)
        assert (t.D, t.sigma, t._rows) == (ref.D, ref.sigma, ref._rows)


def test_build_refuses_oversized_table(monkeypatch):
    # C(5+60-1, 5) = 7,624,512 rows; refused before any work
    with pytest.raises(InputError, match="7624512 rows"):
        build_itable(PairMap.flip(5), D=60)
    monkeypatch.setattr(ist, "MAX_TABLE_ROWS", 330)
    build_itable(PairMap.flip(4), D=8)  # exactly 330 rows
    with pytest.raises(InputError, match="495 rows"):
        build_itable(PairMap.flip(4), D=9)
