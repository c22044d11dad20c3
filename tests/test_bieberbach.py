import itertools
import math
import random
from fractions import Fraction

import pytest

from itype import (
    AffineIso,
    InputError,
    PairMap,
    PhiMap,
    act,
    affine_generators,
    build_itable,
    check_action_consistency,
    classify_isometry_2d,
    compose,
    enumerate_solutions,
    export_affine_group,
    fixed_points,
    freeness_check,
    fundamental_domain_check,
    generator_isometry,
    invert,
    v_inverse,
    v_of,
)
from itype import bieberbach
from itype.bieberbach import _right_products, refuse_large_tiling
from itype.core import Perm, expvecs_up_to

from oracles import freeness_check_bf, fundamental_domain_check_bf, image_group_ref


@pytest.fixture(scope="module")
def x2y2_pm(x2y2_table):
    return PhiMap(x2y2_table)


@pytest.fixture(scope="module")
def flip_pms(flip_tables):
    return {n: PhiMap(t) for n, t in flip_tables.items()}


def test_generator_isometries_x2y2(x2y2_pm):
    gx = generator_isometry(x2y2_pm, 1)
    gy = generator_isometry(x2y2_pm, 2)
    assert gx == AffineIso(Perm((2, 1)), (1, 0))
    assert gy == AffineIso(Perm((2, 1)), (0, 1))
    assert act(gx, (3, 5)) == (6, 3)  # (a1,a2) -> (a2+1, a1)
    assert act(gy, (3, 5)) == (5, 4)  # (a1,a2) -> (a2, a1+1)


def test_generator_isometries_flip(flip_pms):
    for n, pm in flip_pms.items():
        for i in range(1, n + 1):
            g = generator_isometry(pm, i)
            assert g.perm.is_identity()
            assert g.shift == tuple(1 if j == i else 0 for j in range(1, n + 1))


def test_act_basics(x2y2_pm):
    gx = generator_isometry(x2y2_pm, 1)
    assert act(AffineIso.identity(2), (4, -1)) == (4, -1)
    assert act(gx, (0, 0)) == (1, 0)
    xx = compose(gx, gx)
    for a in itertools.product(range(-2, 3), repeat=2):
        assert act(xx, a) == (a[0] + 1, a[1] + 1)


def test_compose_invert(x2y2_pm):
    gx = generator_isometry(x2y2_pm, 1)
    gy = generator_isometry(x2y2_pm, 2)
    assert compose(gx, invert(gx)) == AffineIso.identity(2)
    assert compose(invert(gy), gy) == AffineIso.identity(2)
    # right-action law act(g then h, a) = act(h, act(g, a))
    pts = list(itertools.product(range(-2, 3), repeat=2))
    for g, h in itertools.product((gx, gy, invert(gx), invert(gy)), repeat=2):
        gh = compose(g, h)
        for a in pts:
            assert act(gh, a) == act(h, act(g, a))


def test_isometry_preserves_distance(x2y2_pm):
    gx = generator_isometry(x2y2_pm, 1)
    gxy = compose(gx, invert(generator_isometry(x2y2_pm, 2)))
    for g in (gx, gxy):
        for a, b in itertools.product(itertools.product(range(-2, 3), repeat=2), repeat=2):
            ga, gb = act(g, a), act(g, b)
            d1 = sum((u - v) ** 2 for u, v in zip(a, b))
            d2 = sum((u - v) ** 2 for u, v in zip(ga, gb))
            assert d1 == d2


def test_generator_permutation_is_phi_row(x2y2_pm, flip_pms, census):
    # v(c u_i) = v(phi(u_i)(c)) x_i: the permutation part of generator i
    # is the table row of u_i, and right multiplication confirms it
    pms = [x2y2_pm, flip_pms[3]]
    solutions = [s for n in (1, 2, 3) for s in census[n].solutions]
    solutions += enumerate_solutions(4).class_reps
    assert len(solutions) == 1 + 2 + 12 + 23  # every solution for n <= 3, n = 4 classes
    pms += [PhiMap(build_itable(s, D=6)) for s in solutions]
    for pm in pms:
        t = pm.table
        for i in range(1, pm.n + 1):
            u = tuple(1 if j == i else 0 for j in range(1, pm.n + 1))
            assert generator_isometry(pm, i).perm == Perm(t.row(u))
        assert check_action_consistency(pm, pm.D - 1).ok


def test_sigma_must_be_identity(x2y2_r):
    t = build_itable(x2y2_r, D=4, sigma=Perm((2, 1)))
    with pytest.raises(InputError, match="sigma"):
        generator_isometry(PhiMap(t), 1)


def test_action_consistency(x2y2_pm, flip_pms):
    assert check_action_consistency(x2y2_pm, 4).ok
    assert check_action_consistency(flip_pms[3], 4).ok
    # a = 0: both sides give the degree-1 decoding of x_i
    t = x2y2_pm.table
    for i in (1, 2):
        g = generator_isometry(x2y2_pm, i)
        assert act(g, (0, 0)) == v_inverse(t, v_of(t, (0, 0)) + (i,))


def test_action_consistency_full_bound(x2y2_pm):
    assert check_action_consistency(x2y2_pm, x2y2_pm.D - 1).ok


def test_wrong_convention_fails_at_n3(census):
    # on some n=3 solution phi(u_i) has order 3; its inverse must fail
    found = False
    for s in census[3].solutions:
        pm = PhiMap(build_itable(s, D=6))
        inverted = [AffineIso(g.perm.inverse(), g.shift) for g in affine_generators(pm)]
        if any(g.perm * g.perm != Perm.identity(3) for g in inverted):
            res = check_action_consistency(pm, 2, generators=inverted)
            assert not res.ok
            assert "affine image" in res.witness and "right multiplication" in res.witness
            found = True
            with pytest.raises(InputError, match="dimension"):
                check_action_consistency(pm, 2, generators=inverted[:-1])
    assert found


def test_fixed_points():
    full = fixed_points(AffineIso.identity(3))
    assert not full.empty and full.dim == 3
    trans = fixed_points(AffineIso(Perm.identity(2), (1, 0)))
    assert trans.empty
    glide = fixed_points(AffineIso(Perm((2, 1)), (1, 0)))  # cycle sum 1
    assert glide.empty
    refl = fixed_points(AffineIso(Perm((2, 1)), (1, -1)))  # cycle sum 0
    assert not refl.empty and refl.dim == 1
    a = refl.point
    g = AffineIso(Perm((2, 1)), (1, -1))
    assert act(g, a) == a


def test_freeness_x2y2(x2y2_pm):
    rep = freeness_check(x2y2_pm, 4)
    assert rep.ok
    assert rep.relations  # x^2 y^-2 and friends
    # the word x x y^-1 y^-1 evaluates to the identity isometry
    gx = generator_isometry(x2y2_pm, 1)
    gy = generator_isometry(x2y2_pm, 2)
    word = [gx, gx, invert(gy), invert(gy)]
    iso = AffineIso.identity(2)
    for g in word:
        iso = compose(iso, g)
    assert iso.is_identity()
    assert (1, 1, -2, -2) in rep.relations


def test_freeness_flip(flip_pms):
    rep = freeness_check(flip_pms[2], 3)
    assert rep.ok
    rep4 = freeness_check(flip_pms[2], 4)
    assert rep4.ok and (1, 2, -1, -2) in rep4.relations  # commutator


def test_freeness_catches_corrupted_shift(x2y2_pm):
    gens = affine_generators(x2y2_pm)
    corrupted = [AffineIso(gens[0].perm, (1, -1)), gens[1]]
    rep = freeness_check(x2y2_pm, 2, generators=corrupted)
    assert not rep.ok
    assert "fixes" in rep.witness


def test_fundamental_domain_x2y2(x2y2_pm):
    rep = fundamental_domain_check(x2y2_pm, 2, 6)
    assert rep.status == "pass"
    assert rep.covered == 25 and not rep.missed


def test_fundamental_domain_flip(flip_pms):
    rep = fundamental_domain_check(flip_pms[2], 2, 4)
    assert rep.status == "pass" and rep.covered == 25
    rep3 = fundamental_domain_check(flip_pms[3], 1, 3)
    assert rep3.status == "pass" and rep3.covered == 27


def test_fundamental_domain_inconclusive(x2y2_pm):
    rep = fundamental_domain_check(x2y2_pm, 2, 2)
    assert rep.status == "inconclusive"
    assert rep.missed


def test_fundamental_domain_catches_duplicates(x2y2_pm):
    # a glide and a pure translation with the same origin image are
    # distinct isometries: injectivity must break
    gens = affine_generators(x2y2_pm)
    corrupted = [gens[0], AffineIso(Perm.identity(2), (1, 0))]
    rep = fundamental_domain_check(x2y2_pm, 1, 3, generators=corrupted)
    assert rep.status == "fail"
    assert "both send the origin" in rep.witness


def test_classify_x2y2(x2y2_pm):
    gx = generator_isometry(x2y2_pm, 1)
    gy = generator_isometry(x2y2_pm, 2)
    cx = classify_isometry_2d(gx)
    cy = classify_isometry_2d(gy)
    assert cx.kind == cy.kind == "glide-reflection"
    assert cx.axis_direction == cy.axis_direction == (1, 1)
    assert cx.glide_vector == cy.glide_vector == (Fraction(1, 2), Fraction(1, 2))
    # parallel distinct axes at offsets +-1/2: the Klein bottle case
    assert {cx.axis_offset, cy.axis_offset} == {Fraction(1, 2), Fraction(-1, 2)}
    cxx = classify_isometry_2d(compose(gx, gx))
    assert cxx.kind == "translation" and cxx.translation == (1, 1)


def test_classify_flip_torus(flip_pms):
    for g in affine_generators(flip_pms[2]):
        assert classify_isometry_2d(g).kind == "translation"


def test_classify_degenerate_and_errors():
    refl = classify_isometry_2d(AffineIso(Perm((2, 1)), (1, -1)))
    assert refl.kind == "glide-reflection"
    assert refl.glide_vector == (Fraction(0), Fraction(0))
    assert refl.axis_offset == Fraction(1)
    assert classify_isometry_2d(AffineIso.identity(2)).kind == "identity"
    with pytest.raises(InputError):
        classify_isometry_2d(AffineIso.identity(3))


def test_orbit_injectivity(x2y2_pm):
    # distinct isometries reach distinct points: implied by the passing
    # tiling check, asserted directly on the element map here
    gens = affine_generators(x2y2_pm)
    seen = {AffineIso.identity(2)}
    frontier = list(seen)
    for _ in range(4):
        nxt = []
        for g in frontier:
            for s in gens + [invert(h) for h in gens]:
                new = compose(g, s)
                if new not in seen:
                    seen.add(new)
                    nxt.append(new)
        frontier = nxt
    points = {act(g, (0, 0)) for g in seen}
    assert len(points) == len(seen)


def test_export_format(x2y2_pm):
    gens = affine_generators(x2y2_pm)
    text = export_affine_group(gens, ("x", "y"), ((1, 1, -2, -2),))
    assert text == (
        "gen x perm=2,1 shift=1,0\n"
        "gen y perm=2,1 shift=0,1\n"
        "rel x x y^-1 y^-1 = 1\n"
    )


def _assert_searches_match(pm, gens, lengths, radii, tile_lengths=None):
    """Freeness at each of `lengths`, tiling at each of `tile_lengths`
    (default: `lengths` and 2n) and `radii`, equal to the oracles; returns
    the outcomes seen (freeness ok values and tiling statuses)."""
    outcomes = set()
    for L in lengths:
        new = freeness_check(pm, L, generators=gens)
        assert new == freeness_check_bf(pm, L, generators=gens)
        outcomes.add(new.ok)
    for L in lengths + (2 * pm.n,) if tile_lengths is None else tile_lengths:
        for box in radii:
            new = fundamental_domain_check(pm, box, L, generators=gens)
            assert new == fundamental_domain_check_bf(pm, box, L, generators=gens)
            outcomes.add(new.status)
    return outcomes


def test_flat_searches_match_oracles_census(census):
    for n in (1, 2, 3):
        for s in census[n].solutions:
            pm = PhiMap(build_itable(s, D=6))
            _assert_searches_match(pm, affine_generators(pm), (2, 4), (0, 1))


def test_flat_searches_match_oracles_x2y2(x2y2_pm):
    _assert_searches_match(x2y2_pm, affine_generators(x2y2_pm), (1, 4, 7), (1, 2))


@pytest.fixture(scope="module")
def n4_pms():
    reps = enumerate_solutions(4).class_reps
    assert len(reps) == 23
    return [PhiMap(build_itable(r, D=4)) for r in reps]


def test_flat_searches_match_oracles_order_4_and_8(n4_pms):
    # the 23 n = 4 classes and flip5, image groups of order up to 8
    pms = n4_pms + [PhiMap(build_itable(PairMap.flip(5), D=4))]
    assert {4, 8} <= {len(image_group_ref(pm)) for pm in pms}
    for pm in pms:
        _assert_searches_match(pm, affine_generators(pm), (2, 3), (0, 1), (2, 4))


def test_flat_searches_match_oracles_corrupted(x2y2_pm):
    # either generator replaced, shifts up to 2: a search key that
    # ignored the size of the shifts would merge distinct elements
    outcomes = set()
    for i in (0, 1):
        for perm in (Perm((1, 2)), Perm((2, 1))):
            for shift in itertools.product(range(-2, 3), repeat=2):
                gens = affine_generators(x2y2_pm)
                gens[i] = AffineIso(perm, shift)
                outcomes |= _assert_searches_match(x2y2_pm, gens, (2, 4), (0, 1), (2, 3, 4))
    assert outcomes == {True, False, "pass", "fail", "inconclusive"}


def test_flat_searches_match_oracles_random_corruptions(census, n4_pms):
    pms = [PhiMap(build_itable(s, D=4)) for s in census[3].solutions] + n4_pms
    rng = random.Random(8)
    outcomes = set()
    for _ in range(60):
        pm = rng.choice(pms)
        gens = affine_generators(pm)
        perm = list(range(1, pm.n + 1))
        rng.shuffle(perm)
        shift = tuple(rng.randint(-2, 2) for _ in range(pm.n))
        gens[rng.randrange(pm.n)] = AffineIso(Perm(tuple(perm)), shift)
        outcomes |= _assert_searches_match(pm, gens, (2, 3), (0, 1), (2, 3))
    assert outcomes == {True, False, "pass", "fail", "inconclusive"}


def test_consistency_decode_matches_v_inverse(x2y2_table, flip_tables):
    for t in (x2y2_table, flip_tables[3]):
        right = _right_products(t, t.D - 1)
        assert list(right) == expvecs_up_to(t.n, t.D - 1)
        for a, products in right.items():
            w = v_of(t, a)
            assert products == tuple(v_inverse(t, w + (i,)) for i in range(1, t.n + 1))


def test_freeness_refuses_long_lengths(x2y2_pm):
    # sum over k <= 20 of 4 * 3^(k-1) reduced words
    with pytest.raises(InputError, match=f"enumerate {2 * (3**20 - 1)} reduced words"):
        freeness_check(x2y2_pm, 20)
    flip1 = PhiMap(build_itable(PairMap.flip(1), D=4))
    with pytest.raises(InputError, match="more than"):
        freeness_check(flip1, 10**9)


def test_tiling_refuses_large_orbits(x2y2_pm, monkeypatch):
    # lattice points of l1 norm <= L in Z^n: sum_j 2^j C(n,j) C(L,j)
    assert [
        sum(2**j * math.comb(2, j) * math.comb(L, j) for j in range(3)) for L in range(4)
    ] == [1, 5, 13, 25]
    refuse_large_tiling(5, 20)  # 982,729 points: allowed
    with pytest.raises(InputError, match="7095093 lattice points"):
        refuse_large_tiling(5, 30)
    with pytest.raises(InputError, match="7095093 lattice points"):
        fundamental_domain_check(PhiMap(build_itable(PairMap.flip(5), D=3)), 0, 30)
    with pytest.raises(InputError, match="more than"):
        fundamental_domain_check(x2y2_pm, 1, 10**9)
    monkeypatch.setattr(bieberbach, "MAX_TILING_POINTS", 25)
    assert fundamental_domain_check(x2y2_pm, 1, 3).status == "pass"  # 25 points
    with pytest.raises(InputError, match="41 lattice points"):
        fundamental_domain_check(x2y2_pm, 1, 4)
