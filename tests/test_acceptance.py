"""Acceptance suite: one test per criterion, exact assertions, with the
stated time budgets enforced.  Run with ``pytest -s tests/test_acceptance.py``
to see one line per criterion."""

import math
import time

from itype import (
    AffineIso,
    PairMap,
    PhiMap,
    affine_generators,
    build_itable,
    build_r,
    check_action_consistency,
    check_involutive,
    check_nondegenerate,
    check_yb,
    classify_isometry_2d,
    classify_orbits3,
    compose,
    coset_decomposition,
    cocycle_exhaustive,
    enumerate_solutions,
    freeness_check,
    fundamental_domain_check,
    hilbert_count,
    kernel_exponents,
    v_inverse,
    words_equal,
)
from itype.core import all_words
from itype.istructure import expected_hilbert

from oracles import class_index, relations_of_pairmap


def report(num: int, text: str):
    print(f"criterion {num:2d}: {text}: PASS")


def test_criterion_1_star_presentations_give_valid_pair_maps(star_corpus):
    t0 = time.perf_counter()
    checked = 0
    for n, plist in star_corpus.items():
        assert plist, f"no star presentations found for n={n}"
        for p in plist:
            r = build_r(p)
            assert check_involutive(r).ok
            assert check_yb(r).ok
            assert check_nondegenerate(r).ok
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s"
    report(1, f"axioms exhaustive on {checked} star presentations (n=2..4) in {elapsed:.2f}s")


def test_criterion_2_orbit_census(star_corpus):
    for n, plist in star_corpus.items():
        for p in plist:
            rep = classify_orbits3(build_r(p))
            assert rep.star_census.ok, rep.star_census.witness
            assert rep.count("A") == n
            assert rep.count("B") == n * (n - 1)
            assert rep.count("C") == n * (n - 1) * (n - 2) // 6
            assert n**3 == n + 3 * n * (n - 1) + 6 * rep.count("C")
            assert rep.identity == "n^3 = n + 3*n*(n-1) + 6*#C"
    report(2, "orbit census #A=n, #B=n(n-1) size 3, #C=n(n-1)(n-2)/6 size 6")


def test_criterion_3_every_valid_map_admits_the_construction():
    t0 = time.perf_counter()
    built = 0
    for n in (1, 2, 3):
        census = enumerate_solutions(n)
        for s in census.solutions:
            build_itable(s, D=6)  # all internal cross-checks active
            built += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"budget exceeded: {elapsed:.2f}s"
    report(3, f"I-structure built to D=6 for all {built} solutions, n<=3, in {elapsed:.2f}s")


def test_criterion_4_x2y2_word_problem(x2y2_table):
    t = x2y2_table
    x, y = 1, 2
    assert words_equal(t, (x, y, y), (x, x, x))  # x y^2 = x^3
    assert words_equal(t, (x, x, x), (y, y, x))  # x^3 = y^2 x
    assert words_equal(t, (x, x), (y, y))  # x^2 = y^2
    for m in range(7):
        assert hilbert_count(t, m) == m + 1 == expected_hilbert(2, m)
    report(4, "x y^2 = x^3 = y^2 x, x^2 = y^2, hilbert(m) = m+1 for m <= 6")


def test_criterion_5_phi_calculus(x2y2_table, census):
    for n, cen in census.items():
        for s in cen.solutions:
            assert cocycle_exhaustive(PhiMap(build_itable(s, D=6))).ok
            kd = kernel_exponents(PhiMap(build_itable(s, D=7)))
            assert all(math.factorial(n) % ti == 0 for ti in kd.t)
    kd = kernel_exponents(PhiMap(x2y2_table))
    assert kd.t == (2, 2) and kd.group_order == 2
    report(5, "cocycle identity to degree 5 on the n<=3 census; t=(2,2), |G|=2 for x^2=y^2")


def test_criterion_6_coset_decomposition(x2y2_table, flip_tables):
    for table in [x2y2_table] + [flip_tables[n] for n in (1, 2, 3)]:
        rep = coset_decomposition(PhiMap(table))
        assert rep.factorization.ok, rep.factorization.witness
        assert rep.product_rule.ok, rep.product_rule.witness
        assert rep.commuting.ok, rep.commuting.witness
    report(6, "coset decomposition certified to degree D = 8; kernel generators commute")


def test_criterion_7_lattice_action(x2y2_table, flip_tables, census):
    t0 = time.perf_counter()
    corpus = [PhiMap(x2y2_table)] + [PhiMap(flip_tables[n]) for n in (1, 2, 3)]
    corpus += [PhiMap(build_itable(s, D=6)) for s in census[3].solutions]
    corpus += [PhiMap(build_itable(s, D=6)) for s in census[2].solutions]
    for pm in corpus:
        assert check_action_consistency(pm).ok
        rep = freeness_check(pm, 6)
        assert rep.ok, rep.witness
    tiling = fundamental_domain_check(PhiMap(x2y2_table), 2, 8)
    assert tiling.status == "pass" and tiling.covered == 5**2 and not tiling.missed
    for n in (1, 2, 3):
        tiling = fundamental_domain_check(PhiMap(flip_tables[n]), 2, 8)
        assert tiling.status == "pass" and tiling.covered == 5**n
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.2f}s"
    report(7, f"consistency to D-1, freeness at L=6, radius-2 tiling ({elapsed:.1f}s)")


def test_criterion_8_klein_bottle(x2y2_table, flip_tables):
    pm = PhiMap(x2y2_table)
    gx, gy = affine_generators(pm)
    # glide reflections along the same direction (1,1): parallel axes
    assert classify_isometry_2d(gx) == "glide-reflection axis a1-a2=1/2 glide=(1/2,1/2)"
    assert classify_isometry_2d(gy) == "glide-reflection axis a1-a2=-1/2 glide=(1/2,1/2)"
    assert classify_isometry_2d(compose(gx, gx)) == "translation (1,1)"
    torus = affine_generators(PhiMap(flip_tables[2]))
    assert list(map(classify_isometry_2d, torus)) == ["translation (1,0)", "translation (0,1)"]
    report(8, "x, y act as glide reflections with parallel axes at -+1/2; x^2 = (1,1)")


def test_criterion_9_oracle_equivalence(star_corpus, x2y2_r, census):
    inputs = [build_r(p) for plist in star_corpus.values() for p in plist]
    inputs.append(x2y2_r)
    inputs += [s for cen in census.values() for s in cen.solutions]
    for r in inputs:
        t = build_itable(r, D=5)
        rels = relations_of_pairmap(r)
        for m in (1, 2, 3, 4):
            labels = class_index(r.n, rels, m)
            # partition equality == all-pairs agreement of the two deciders
            label_to_nf = {}
            nf_to_label = {}
            for w in all_words(r.n, m):
                lab, nf = labels[w], v_inverse(t, w)
                assert label_to_nf.setdefault(lab, nf) == nf
                assert nf_to_label.setdefault(nf, lab) == lab
    report(9, f"words_equal matches brute-force closure to degree 4 on {len(inputs)} inputs")


def test_criterion_10_negative_controls(x2y2_table):
    res = check_nondegenerate(PairMap.identity(2))
    assert not res.ok and res.witness
    pm = PhiMap(x2y2_table)
    good = affine_generators(pm)
    corrupted = [AffineIso(good[0].perm, (1, -1)), good[1]]
    rep = freeness_check(pm, 3, generators=corrupted)
    assert not rep.ok and "fixes" in rep.witness
    report(10, "identity map fails nondegeneracy; corrupted shift caught by freeness")
