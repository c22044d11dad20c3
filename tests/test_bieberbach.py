import collections
import itertools
import math
import random
from operator import add
from pathlib import Path

import pytest

from itype import (
    AffineIso,
    ITable,
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
    invert,
    v_inverse,
    v_of,
)
from itype import bieberbach
from itype.bieberbach import refuse_large_tiling
from itype.cli import load_pairmap
from itype.core import Perm, all_perms, expvec_level
from itype.structuremaps import kernel_exponents

from oracles import (
    check_action_consistency_ref,
    expvecs_up_to,
    freeness_check_bf,
    fundamental_domain_check_bf,
    graded_steps,
    image_group_ref,
    itable_of_rows,
    right_products_ref,
    rows_of,
)

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"


@pytest.fixture(scope="module")
def x2y2_pm(x2y2_table):
    return PhiMap(x2y2_table)


@pytest.fixture(scope="module")
def flip_pms(flip_tables):
    return {n: PhiMap(t) for n, t in flip_tables.items()}


def test_generator_isometries_x2y2(x2y2_pm):
    gx, gy = affine_generators(x2y2_pm)
    assert gx == AffineIso(Perm((2, 1)), (1, 0))
    assert gy == AffineIso(Perm((2, 1)), (0, 1))
    assert act(gx, (3, 5)) == (6, 3)  # (a1,a2) -> (a2+1, a1)
    assert act(gy, (3, 5)) == (5, 4)  # (a1,a2) -> (a2, a1+1)


def test_generator_isometries_flip(flip_pms):
    for n, pm in flip_pms.items():
        for i in range(1, n + 1):
            g = affine_generators(pm)[i - 1]
            assert g.perm.is_identity()
            assert g.shift == tuple(1 if j == i else 0 for j in range(1, n + 1))


def test_act_basics(x2y2_pm):
    gx = affine_generators(x2y2_pm)[0]
    assert act(AffineIso.identity(2), (4, -1)) == (4, -1)
    assert act(gx, (0, 0)) == (1, 0)
    xx = compose(gx, gx)
    for a in itertools.product(range(-2, 3), repeat=2):
        assert act(xx, a) == (a[0] + 1, a[1] + 1)


def test_compose_invert(x2y2_pm):
    gx, gy = affine_generators(x2y2_pm)
    assert compose(gx, invert(gx)) == AffineIso.identity(2)
    assert compose(invert(gy), gy) == AffineIso.identity(2)
    # right-action law act(g then h, a) = act(h, act(g, a))
    pts = list(itertools.product(range(-2, 3), repeat=2))
    for g, h in itertools.product((gx, gy, invert(gx), invert(gy)), repeat=2):
        gh = compose(g, h)
        for a in pts:
            assert act(gh, a) == act(h, act(g, a))


def test_isometry_preserves_distance(x2y2_pm):
    gx = affine_generators(x2y2_pm)[0]
    gxy = compose(gx, invert(affine_generators(x2y2_pm)[1]))
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
            assert affine_generators(pm)[i - 1].perm == Perm(t.row(u))
        assert check_action_consistency(pm).ok


def test_sigma_must_be_identity(x2y2_r):
    t = build_itable(x2y2_r, D=4, sigma=Perm((2, 1)))
    with pytest.raises(InputError, match="sigma"):
        affine_generators(PhiMap(t))


def test_sigma_must_be_identity_with_a_generator_list(x2y2_r, x2y2_pm):
    # a generator list in place of the table's does not lift the refusal
    pm = PhiMap(build_itable(x2y2_r, D=4, sigma=Perm((2, 1))))
    gens = affine_generators(x2y2_pm)
    for call in (
        lambda: check_action_consistency(pm, generators=gens),
        lambda: freeness_check(pm, 3, generators=gens),
        lambda: fundamental_domain_check(pm, 1, 3, generators=gens),
    ):
        with pytest.raises(InputError, match="sigma"):
            call()


def test_action_consistency(x2y2_r, x2y2_pm):
    assert check_action_consistency(PhiMap(build_itable(x2y2_r, D=5))).ok
    assert check_action_consistency(PhiMap(build_itable(PairMap.flip(3), D=5))).ok
    # a = 0: both sides give the degree-1 decoding of x_i
    t = x2y2_pm.table
    for i in (1, 2):
        g = affine_generators(x2y2_pm)[i - 1]
        assert act(g, (0, 0)) == v_inverse(t, v_of(t, (0, 0)) + (i,))


def test_action_consistency_full_bound(x2y2_pm):
    assert check_action_consistency(x2y2_pm).ok


def record_consistency_paths(monkeypatch) -> list[str]:
    """The names of the sweep and walk calls that each consistency check
    makes from now on, in order, appended to the list returned."""
    calls = []
    for name in ("_sweep", "_walk"):
        real = getattr(bieberbach, name)
        monkeypatch.setattr(
            bieberbach, name, lambda *args, name=name, real=real: calls.append(name) or real(*args)
        )
    return calls


def test_action_consistency_matches_reference(monkeypatch):
    # the affine-image comparison against one decoding per point and
    # generator, witness text included: each corpus table at D = 7 with
    # the rows of one degree from 1 to 6 shuffled, then its true table
    # with one generator's permutation or shift replaced.  Every table is
    # swept, and a failure past the origin then walked to word it
    paths = sorted(p for p in CORPUS.iterdir() if p.suffix in (".pres", ".rtable"))
    assert len(paths) == 34
    rng = random.Random(5)
    verdicts = set()
    calls = record_consistency_paths(monkeypatch)
    failed_by = set()
    for path in paths:
        t = build_itable(load_pairmap(str(path)), D=7)
        for _ in range(4):
            level = expvec_level(t.n, rng.randint(1, 6))
            shuffled = [t.row(b) for b in level]
            rng.shuffle(shuffled)
            pm = PhiMap(itable_of_rows(t.r, t.D, t.sigma, {**rows_of(t), **dict(zip(level, shuffled))}))
            calls.clear()
            got = check_action_consistency(pm)
            assert got == check_action_consistency_ref(pm)
            verdicts.add(got.ok)
            if not got.ok:
                failed_by.add(tuple(calls))
        pm = PhiMap(t)
        for _ in range(4):
            gens = affine_generators(pm)
            i = rng.randrange(pm.n)
            perm, shift = gens[i].perm, list(gens[i].shift)
            if rng.random() < 0.5:
                perm = rng.choice(all_perms(pm.n))
            else:
                shift[rng.randrange(pm.n)] += rng.choice((-1, 1))
            gens[i] = AffineIso(perm, tuple(shift))
            calls.clear()
            got = check_action_consistency(pm, generators=gens)
            assert got == check_action_consistency_ref(pm, generators=gens)
            verdicts.add(got.ok)
            if not got.ok:
                failed_by.add(tuple(calls))
    assert verdicts == {True, False}
    assert failed_by == {(), ("_sweep", "_walk")}


def test_action_consistency_matches_reference_at_every_bound(monkeypatch):
    # the top level steps no further, so each bound D - 1 from 1 to 6 is
    # compared, on the table at D: the rows of the bound's own level or of
    # level 1 shuffled, and corrupted generators: each swept, then walked
    paths = sorted(p for p in CORPUS.iterdir() if p.suffix in (".pres", ".rtable"))
    rng = random.Random(14)
    top = set()  # the bounds at which a point of degree bound was the witness
    calls = record_consistency_paths(monkeypatch)
    failed_by = set()

    def compare(pm, gens=None):
        calls.clear()
        got = check_action_consistency(pm, generators=gens)
        assert got == check_action_consistency_ref(pm, generators=gens)
        if not got.ok:
            failed_by.add(tuple(calls))
            a = got.witness.split("a=(")[1].split(")")[0]
            if sum(map(int, a.split(","))) == pm.D - 1:
                top.add(pm.D - 1)

    for path in paths:
        r = load_pairmap(str(path))
        for bound in range(1, 7):
            t = build_itable(r, D=bound + 1)
            pm = PhiMap(t)
            for d in sorted({bound, 1}):
                level = expvec_level(t.n, d)
                shuffled = [t.row(b) for b in level]
                rng.shuffle(shuffled)
                rows = {**rows_of(t), **dict(zip(level, shuffled))}
                compare(PhiMap(itable_of_rows(t.r, t.D, t.sigma, rows)))
            gens = affine_generators(pm)
            i = rng.randrange(pm.n)
            if rng.random() < 0.8:
                gens[i] = AffineIso(rng.choice(all_perms(pm.n)), gens[i].shift)
            else:
                shift = list(gens[i].shift)
                shift[rng.randrange(pm.n)] += rng.choice((-1, 1))
                gens[i] = AffineIso(gens[i].perm, tuple(shift))
            compare(pm, gens)
    assert top == set(range(1, 7))
    assert failed_by == {(), ("_sweep", "_walk")}


def test_consistency_sweep_matches_reference_on_graded_steps(monkeypatch):
    # on tables whose steps carry one wrong row at one degree, failures sit
    # past degree 1 and at few instances, so the sweep's bounds, start and
    # seen states decide: each corpus table at D = 7, two entries of one
    # (row, degree) swapped, against the reference, witness included
    paths = sorted(p for p in CORPUS.iterdir() if p.suffix in (".pres", ".rtable"))
    rng = random.Random(26)
    calls = record_consistency_paths(monkeypatch)
    verdicts = collections.Counter()
    for path in paths:
        t = build_itable(load_pairmap(str(path)), D=7)
        if t.n == 1:
            continue
        distinct = t.steps[0]
        for _ in range(6):
            d = rng.randint(1, 6)
            p = distinct.index(t.row(rng.choice(expvec_level(t.n, d))))
            bad = list(distinct[p])
            i, j = rng.sample(range(t.n), 2)
            bad[i], bad[j] = bad[j], bad[i]
            graded = ITable(t.r, t.D, t.sigma, *graded_steps(t, p, d, tuple(bad)))
            by_vector = PhiMap(itable_of_rows(t.r, t.D, t.sigma, rows_of(graded)))
            calls.clear()
            got = check_action_consistency(PhiMap(graded))
            assert got == check_action_consistency_ref(by_vector)
            verdicts[got.ok, tuple(calls)] += 1
    assert set(verdicts) == {(True, ("_sweep",)), (False, ("_sweep", "_walk"))}


def test_unconfirmed_sweep_failure_raises(x2y2_pm, monkeypatch):
    # a sweep failure that the point walk does not confirm is a bug: the
    # check refuses to pass silently
    monkeypatch.setattr(bieberbach, "_sweep", lambda steps, gens, bound: False)
    with pytest.raises(AssertionError, match="the point walk holds"):
        check_action_consistency(x2y2_pm)


def test_valid_tables_pass_consistency_without_the_walk(monkeypatch):
    # with the point walk refused, every corpus input at D = 8, x2y2 at
    # D = 24, flip5 at D = 10 and the 183 solutions with n <= 4 at D = 8
    # pass consistency at bound D - 1 on the build's steps alone
    def refuse(*args):
        raise AssertionError("point walk taken")

    monkeypatch.setattr(bieberbach, "_walk", refuse)
    paths = sorted(p for p in CORPUS.iterdir() if p.suffix in (".pres", ".rtable"))
    named = {p.name: load_pairmap(str(p)) for p in paths}
    cases = [(r, 8) for r in named.values()]
    cases += [(named["x2y2.pres"], 24), (named["flip5.rtable"], 10)]
    cases += [(s, 8) for n in (1, 2, 3, 4) for s in enumerate_solutions(n).solutions]
    assert len(cases) == 34 + 2 + 183
    for r, D in cases:
        assert check_action_consistency(PhiMap(build_itable(r, D))).ok


def test_wrong_convention_fails_at_n3(census):
    # on some n=3 solution phi(u_i) has order 3; its inverse must fail
    found = False
    for s in census[3].solutions:
        pm = PhiMap(build_itable(s, D=3))
        inverted = [AffineIso(g.perm.inverse(), g.shift) for g in affine_generators(pm)]
        if any(g.perm * g.perm != Perm.identity(3) for g in inverted):
            res = check_action_consistency(pm, generators=inverted)
            assert not res.ok
            assert "affine image" in res.witness and "right multiplication" in res.witness
            found = True
            with pytest.raises(InputError, match="dimension"):
                check_action_consistency(pm, generators=inverted[:-1])
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
    gx, gy = affine_generators(x2y2_pm)
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


def _ball(gens, L):
    """Every element of word length <= L, one compose per step."""
    seen = {AffineIso.identity(gens[0].n)}
    frontier = list(seen)
    for _ in range(L):
        nxt = []
        for g in frontier:
            for s in gens + [invert(h) for h in gens]:
                new = compose(g, s)
                if new not in seen:
                    seen.add(new)
                    nxt.append(new)
        frontier = nxt
    return seen


def _assert_torsion_witness(rep, gens):
    """The failed report's witness is the element and point `_torsion`
    gives, the element is not the identity, and act verifies the point."""
    g, point = bieberbach._torsion(tuple(gens))
    assert not rep.ok and rep.witness == f"element {g} fixes {point}"
    assert not g.perm.is_identity() and act(g, point) == point
    return g


# Generator 1 of comm3 replaced: the first fixed point the walk meets is
# x1 x2, with permutation part a 2-cycle or a 3-cycle and a shift, hence
# q, nonzero but summing to 0 on every cycle.  A test of q == 0 alone
# passes that element.
CYCLE_SUM_CONTROLS = (
    (Perm((2, 1, 3)), (-1, 0, 0), (-1, 1, 0), "element perm=2,1,3 shift=0,0,0 fixes (0, 0, 0)"),
    (Perm((2, 3, 1)), (-2, 0, 1), (-2, 1, 1), "element perm=2,3,1 shift=-2,1,1 fixes (0, 2, 1)"),
)


def test_freeness_decides_fixed_points_by_cycle_sums():
    pm = PhiMap(build_itable(load_pairmap(str(CORPUS / "comm3.pres")), D=4))
    for perm, shift, element_shift, witness in CYCLE_SUM_CONTROLS:
        gens = affine_generators(pm)
        gens[0] = AffineIso(perm, shift)
        element = compose(gens[0], gens[1])
        assert element == AffineIso(perm, element_shift)
        assert not fixed_points(element).empty
        rep = freeness_check(pm, 3, generators=gens)
        assert rep.witness == witness and _assert_torsion_witness(rep, gens) in _ball(gens, 2)
        oracle = freeness_check_bf(pm, 3, generators=gens)
        assert not oracle.ok and set(oracle.relations) <= set(rep.relations)


def test_freeness_finds_torsion_past_the_walks_length():
    # x1 of comm3 replaced by a reflection with shift (-2, -2, -2): no
    # word of length <= 6 has a fixed point, so the walk passes there,
    # yet an element of word length 7 fixes (0, -2, 0)
    pm = PhiMap(build_itable(load_pairmap(str(CORPUS / "comm3.pres")), D=4))
    gens = affine_generators(pm)
    gens[0] = AffineIso(Perm((2, 1, 3)), (-2, -2, -2))
    rep = freeness_check(pm, 6, generators=gens)
    assert rep.witness == "element perm=2,1,3 shift=2,-2,0 fixes (0, -2, 0)"
    g = _assert_torsion_witness(rep, gens)
    assert g in _ball(gens, 7) and g not in _ball(gens, 6)
    oracle = freeness_check_bf(pm, 6, generators=gens)
    assert oracle.ok
    assert (oracle.relations, oracle.isometries_seen) == (rep.relations, rep.isometries_seen)
    assert not freeness_check_bf(pm, 7, generators=gens).ok


def _grid_closed_walks(n, L):
    """The non-backtracking closed walks of length 1..L from the origin of
    the grid Z^n, by dynamic programming over (point, last step); step k^1
    undoes step k."""
    units = [tuple(sign * (j == i) for j in range(n)) for i in range(n) for sign in (1, -1)]
    walks = {((0,) * n, -1): 1}
    closed = 0
    for _ in range(L):
        nxt = collections.Counter()
        for (pt, last), count in walks.items():
            for k, u in enumerate(units):
                if k != last ^ 1:
                    nxt[tuple(map(add, pt, u)), k] += count
        walks = nxt
        closed += sum(count for (pt, _), count in walks.items() if not any(pt))
    return closed


def test_relations_are_the_grids_closed_walks(census, flip_pms):
    # under the tiling certificate the left Cayley graph is the grid, so
    # the relation count depends on n and L alone (freeness_check docstring)
    assert _grid_closed_walks(2, 12) == 19_880 and _grid_closed_walks(3, 8) == 6_504
    assert _grid_closed_walks(5, 4) == 80
    solutions = [s for n in (1, 2, 3) for s in census[n].solutions]
    solutions += enumerate_solutions(4).solutions
    assert len(solutions) == 183
    pms = [PhiMap(build_itable(s, D=2)) for s in solutions]
    pms.append(PhiMap(build_itable(PairMap.flip(5), D=2)))
    for pm in pms:
        L = {1: 8, 2: 8, 3: 6}.get(pm.n, 4)
        assert bieberbach._tiles_simply(pm.n, affine_generators(pm))
        rep = freeness_check(pm, L)
        assert rep.ok and len(rep.relations) == _grid_closed_walks(pm.n, L)
    # shifts that are not unit vectors: free, but not the grid's count
    gens = [AffineIso(Perm((1, 3, 2)), s) for s in ((-1, -1, 0), (0, 1, 0), (0, 0, 1))]
    assert not bieberbach._tiles_simply(3, gens)
    rep = freeness_check(flip_pms[3], 6, generators=gens)
    assert rep.ok and len(rep.relations) == 368 and _grid_closed_walks(3, 6) == 384


def test_torsion_cycle_sums_match_fixed_points():
    # `_torsion` finds no torsion in the corpus inputs' groups, and in
    # their word-length-4 balls only the identity has a fixed point; each
    # control has another within that ball, and `_torsion` finds one
    paths = sorted(p for p in CORPUS.iterdir() if p.suffix in (".pres", ".rtable"))
    assert len(paths) == 34
    for path in paths:
        pm = PhiMap(build_itable(load_pairmap(str(path)), D=2))
        gens = affine_generators(pm)
        assert bieberbach._torsion(tuple(gens)) is None
        assert sum(not fixed_points(g).empty for g in _ball(gens, 4)) == 1  # the identity alone
    pm = PhiMap(build_itable(load_pairmap(str(CORPUS / "comm3.pres")), D=2))
    for perm, shift, _, _ in CYCLE_SUM_CONTROLS:
        gens = affine_generators(pm)
        gens[0] = AffineIso(perm, shift)
        assert sum(not fixed_points(g).empty for g in _ball(gens, 4)) > 1
        g, point = bieberbach._torsion(tuple(gens))
        assert not g.perm.is_identity() and act(g, point) == point


def test_frame_labels_are_the_kernel_image_group():
    # one H: the permutation parts the frame numbers, the identity first,
    # are the image of phi that kernel_exponents closes
    paths = sorted(p for p in CORPUS.iterdir() if p.suffix in (".pres", ".rtable"))
    assert len(paths) == 34
    for path in paths:
        pm = PhiMap(build_itable(load_pairmap(str(path)), D=8))
        labels = bieberbach._label_frame(tuple(affine_generators(pm)))[1]
        perms = [Perm(tuple([k + 1 for k in sigma])) for sigma in labels]
        assert perms[0] == Perm.identity(pm.n) and len(set(perms)) == len(perms)
        assert set(perms) == kernel_exponents(pm).group, path.name


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
    gx, gy = affine_generators(x2y2_pm)
    # glide reflections along (1,1) by (1/2,1/2), on the parallel distinct
    # axes at offsets +-1/2: the Klein bottle case
    assert classify_isometry_2d(gx) == "glide-reflection axis a1-a2=1/2 glide=(1/2,1/2)"
    assert classify_isometry_2d(gy) == "glide-reflection axis a1-a2=-1/2 glide=(1/2,1/2)"
    assert classify_isometry_2d(compose(gx, gx)) == "translation (1,1)"


def test_classify_flip_torus(flip_pms):
    gens = affine_generators(flip_pms[2])
    assert list(map(classify_isometry_2d, gens)) == ["translation (1,0)", "translation (0,1)"]


def test_classify_degenerate_and_errors():
    refl = classify_isometry_2d(AffineIso(Perm((2, 1)), (1, -1)))
    assert refl == "glide-reflection axis a1-a2=1 glide=(0,0)"
    assert classify_isometry_2d(AffineIso.identity(2)) == "identity"
    with pytest.raises(InputError):
        classify_isometry_2d(AffineIso.identity(3))


def test_orbit_injectivity(x2y2_pm):
    # distinct isometries reach distinct points: implied by the passing
    # tiling check, asserted directly on the element map here
    seen = _ball(affine_generators(x2y2_pm), 4)
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
    """Freeness at each of `lengths` against the walk, and tiling at each
    of `tile_lengths` (default: `lengths` and 2n) and `radii` equal to
    the oracle; returns the outcomes seen (freeness ok values and tiling
    statuses).  Freeness is exact: where the walk passes, the relations
    and the count are the walk's, and the verdict too unless the report
    carries a verified witness; where the walk fails, so does the
    report, with every relation the walk met."""
    outcomes = set()
    for L in lengths:
        new = freeness_check(pm, L, generators=gens)
        old = freeness_check_bf(pm, L, generators=gens)
        if old.ok:
            assert (new.relations, new.isometries_seen) == (old.relations, old.isometries_seen)
        else:
            assert set(old.relations) <= set(new.relations)
        if new.ok:
            assert old.ok and not new.witness
        else:
            _assert_torsion_witness(new, gens)
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
            _assert_searches_match(pm, affine_generators(pm), (), (2, 3), (1, 2))  # R > L m


def test_flat_searches_match_oracles_x2y2(x2y2_pm):
    _assert_searches_match(x2y2_pm, affine_generators(x2y2_pm), (1, 4, 7), (1, 2))
    _assert_searches_match(x2y2_pm, affine_generators(x2y2_pm), (), (2, 3), (1, 2))  # R > L m


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
    # ignored the size of the shifts would merge distinct elements, and
    # a box radius past L m puts box points outside every reachable image
    outcomes = set()
    for i in (0, 1):
        for perm in (Perm((1, 2)), Perm((2, 1))):
            for shift in itertools.product(range(-2, 3), repeat=2):
                gens = affine_generators(x2y2_pm)
                gens[i] = AffineIso(perm, shift)
                outcomes |= _assert_searches_match(x2y2_pm, gens, (2, 4), (0, 1), (2, 3, 4))
                outcomes |= _assert_searches_match(x2y2_pm, gens, (), (2, 3), (1, 2))
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


def test_flat_searches_match_oracles_with_the_certificate_off(census, x2y2_pm, n4_pms, monkeypatch):
    # on valid maps the closed form answers first; the parity sets above,
    # rerun on the search alone, keep it covered there too
    monkeypatch.setattr(bieberbach, "_tiles_simply", lambda n, gens: False)
    test_flat_searches_match_oracles_census(census)
    test_flat_searches_match_oracles_x2y2(x2y2_pm)
    test_flat_searches_match_oracles_order_4_and_8(n4_pms)
    test_flat_searches_match_oracles_corrupted(x2y2_pm)
    test_flat_searches_match_oracles_random_corruptions(census, n4_pms)


def test_tiling_takes_the_closed_form_on_valid_maps(census, monkeypatch):
    # every solution for n <= 4, x2y2, comm3 and flip5, at the CLI's length
    # for radius 1 and at a length that leaves the corner (2, ..., 2) out:
    # the search never runs.  The report is the oracle's; for the n = 4
    # solutions outside the 23 class representatives (the oracle takes
    # about 30 s on them) it is the search's, which the parity tests
    # above tie to the oracle
    solutions = [s for n in (1, 2, 3) for s in census[n].solutions]
    reps = list(enumerate_solutions(4).class_reps)
    others = [s for s in enumerate_solutions(4).solutions if s not in reps]
    assert len(solutions) + len(reps) + len(others) == 183
    named = [load_pairmap(str(CORPUS / name)) for name in ("x2y2.pres", "comm3.pres", "flip5.rtable")]
    pms = [PhiMap(build_itable(s, D=2)) for s in solutions + reps + named + others]
    cases = [(pm, R, L) for pm in pms for R, L in ((1, 2 * pm.n), (2, max(1, 2 * pm.n - 1)))]
    frame = bieberbach._frame

    def search(*args):
        raise AssertionError("search run on a valid map")

    monkeypatch.setattr(bieberbach, "_frame", search)
    got = [fundamental_domain_check(pm, R, L) for pm, R, L in cases]
    assert {rep.status for rep in got} == {"pass", "inconclusive"}
    monkeypatch.setattr(bieberbach, "_frame", frame)
    monkeypatch.setattr(bieberbach, "_tiles_simply", lambda n, gens: False)
    oracle = 2 * (len(pms) - len(others))
    for k, (rep, (pm, R, L)) in enumerate(zip(got, cases)):
        check = fundamental_domain_check_bf if k < oracle else fundamental_domain_check
        assert rep == check(pm, R, L)
        assert rep.orbit_size == sum(2**j * math.comb(pm.n, j) * math.comb(L, j) for j in range(pm.n + 1))


def test_each_certificate_gate_falls_back_to_the_search(x2y2_pm, flip_pms, census, monkeypatch):
    # a shift that is not a unit vector, a diagonal i -> pi_i(i) that is
    # not a bijection, and (found by a seeded search) unit shifts and a
    # bijective diagonal whose translation lattice has index other than
    # |H|: each runs the search, and its report is the oracle's
    frames = []
    frame = bieberbach._frame
    monkeypatch.setattr(bieberbach, "_frame", lambda *args: frames.append(args) or frame(*args))

    def falls_back(pm, gens, box, L):
        assert not bieberbach._tiles_simply(pm.n, gens)
        calls = len(frames)
        rep = fundamental_domain_check(pm, box, L, generators=gens)
        assert len(frames) == calls + 1
        assert rep == fundamental_domain_check_bf(pm, box, L, generators=gens)
        return rep

    # translations by (1, 1) and (0, 1): the diagonal is a bijection and
    # the lattice is Z^2, but (1, -1) takes three steps, not two
    gens = [AffineIso(Perm((1, 2)), (1, 1)), affine_generators(flip_pms[2])[1]]
    rep = falls_back(flip_pms[2], gens, 1, 2)
    assert rep.status == "inconclusive" and rep.missed == ((1, -1), (-1, 1))
    gens = [AffineIso(Perm((1, 2)), (1, 0)), affine_generators(x2y2_pm)[1]]  # pi_1(1) = pi_2(2) = 1
    assert falls_back(x2y2_pm, gens, 1, 4).status == "fail"
    rng = random.Random(0)
    pms = [PhiMap(build_itable(s, D=2)) for s in census[3].solutions]
    units = affine_generators(pms[0])
    for _ in range(100):
        pm = rng.choice(pms)
        gens = affine_generators(pm)
        i = rng.randrange(3)
        gens[i] = AffineIso(rng.choice(all_perms(3)), gens[i].shift)
        if len({g.perm(j) for j, g in enumerate(gens, start=1)}) == 3:
            rep = fundamental_domain_check(pm, 1, 6, generators=gens)
            if rep.status == "fail":
                break
    else:
        raise AssertionError("no unit-shift corruption with a bijective diagonal fails")
    assert [g.shift for g in gens] == [g.shift for g in units]
    assert falls_back(pm, gens, 1, 6) == rep


def test_freeness_takes_the_closed_form_on_valid_maps(census, monkeypatch):
    # every solution for n <= 4, x2y2, comm3 and flip5, at L = 2 and at the
    # lengths of test_relations_are_the_grids_closed_walks, and at lengths
    # where the relation walk cuts most prefixes (x2y2 at 12, comm3 at 8,
    # flip5 and each n = 4 class at 5): the torsion test never runs.  The
    # report is the one without the certificate, where `_torsion` finds no
    # torsion on any of the 186 and the ball is walked to radius L (the
    # parity tests above tie it to the oracle), and the oracle's where
    # that is cheap: the n <= 3 solutions at L = 2 and 4, the n = 4 class
    # representatives at L = 3
    solutions = [s for n in (1, 2, 3) for s in census[n].solutions]
    reps = list(enumerate_solutions(4).class_reps)
    others = [s for s in enumerate_solutions(4).solutions if s not in reps]
    named = [load_pairmap(str(CORPUS / name)) for name in ("x2y2.pres", "comm3.pres", "flip5.rtable")]
    assert len(solutions) + len(reps) + len(others) + len(named) == 186
    cases = []  # (pm, L, whether the oracle is run)
    for k, s in enumerate(solutions + reps + named + others):
        pm = PhiMap(build_itable(s, D=2))
        cases += [(pm, 2, pm.n <= 3), (pm, {1: 8, 2: 8, 3: 6}.get(pm.n, 4), False)]
        if k < len(solutions) + len(reps):
            cases.append((pm, 4 if pm.n <= 3 else 3, True))
        if len(solutions) <= k < len(solutions) + len(reps) + len(named):
            cases.append((pm, {2: 12, 3: 8}.get(pm.n, 5), False))
    torsion = bieberbach._torsion

    def torsion_test(*args):
        raise AssertionError("torsion test run on a valid map")

    monkeypatch.setattr(bieberbach, "_torsion", torsion_test)
    got = [freeness_check(pm, L) for pm, L, _ in cases]
    monkeypatch.setattr(bieberbach, "_torsion", torsion)
    monkeypatch.setattr(bieberbach, "_tiles_simply", lambda n, gens: False)
    for rep, (pm, L, oracle) in zip(got, cases):
        assert rep.ok and rep == freeness_check(pm, L)
        assert rep.isometries_seen == sum(2**j * math.comb(pm.n, j) * math.comb(L, j) for j in range(pm.n + 1))
        if oracle:
            assert rep == freeness_check_bf(pm, L)


def test_freeness_falls_back_when_the_lattice_index_is_wrong(census):
    # corruptions of n = 3 solutions drawn as in
    # test_each_certificate_gate_falls_back_to_the_search, kept when they
    # pass gates (a) and (b): a closed form that skipped gate (c) would
    # pass the 51 that fail it, yet each has torsion, and the oracle's
    # walk finds a fixed point by L = 6 on each of them
    rng = random.Random(0)
    pms = [PhiMap(build_itable(s, D=2)) for s in census[3].solutions]
    units = [tuple(int(j == i) for j in range(3)) for i in range(3)]
    kept = []
    for _ in range(400):
        pm = rng.choice(pms)
        gens = affine_generators(pm)
        i = rng.randrange(3)
        gens[i] = AffineIso(rng.choice(all_perms(3)), gens[i].shift)
        if len({g.perm(j) for j, g in enumerate(gens, start=1)}) == 3:
            assert [g.shift for g in gens] == units
            kept.append((pm, gens))
    failures = []
    for pm, gens in kept:
        rep = freeness_check(pm, 6, generators=gens)
        assert rep.ok == bieberbach._tiles_simply(3, gens)
        assert (rep.relations, rep.isometries_seen) == bieberbach._relations(3, gens, 6, 6)
        if not rep.ok:
            _assert_torsion_witness(rep, gens)
            oracle = freeness_check_bf(pm, 6, generators=gens)
            assert not oracle.ok and set(oracle.relations) <= set(rep.relations)
            failures.append((tuple(g.perm.images for g in gens), rep.witness))
    assert len(kept) == 133 and len(failures) == 51
    assert sum(not bieberbach._tiles_simply(3, gens) for _, gens in kept) == 51
    assert (
        ((2, 1, 3), (2, 3, 1), (2, 3, 1)),
        "element perm=2,1,3 shift=0,0,0 fixes (0, 0, 0)",
    ) in failures


@pytest.mark.parametrize(
    "call",
    [
        lambda pm, gens: fundamental_domain_check(pm, 1, 4, generators=gens),
        lambda pm, gens: freeness_check(pm, 3, generators=gens),
    ],
    ids=["tiling", "freeness"],
)
def test_searches_refuse_a_generator_list_of_the_wrong_length(x2y2_pm, call):
    gens = affine_generators(x2y2_pm)
    for wrong in (gens[:1], gens + gens[:1], [gens[0], AffineIso.identity(3)]):
        with pytest.raises(InputError, match="dimension mismatch"):
            call(x2y2_pm, wrong)


def test_consistency_decode_matches_v_inverse(x2y2_table, flip_tables):
    # the reference consistency check decodes v(a) x_i on the rows, the
    # products for a continuing those for b = a - u_j by the letter
    # x[b, j]: each equals v_inverse of the word
    for t in (x2y2_table, flip_tables[3]):
        right = right_products_ref(t)
        assert list(right) == expvecs_up_to(t.n, t.D - 1)
        for a, products in right.items():
            w = v_of(t, a)
            assert products == [v_inverse(t, w + (i,)) for i in range(1, t.n + 1)]


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


def test_tiling_guard_counts_the_longest_shift(x2y2_pm, monkeypatch):
    # shifts of l1 norm 2 and 3: six steps reach origin images of norm 18
    # (685 points), where a unit-step count (85 points) lets 291 elements
    # in.  The search meets at most one element per reduced word, so the
    # guard takes the smaller of the two counts: at L = 3 53 words (181
    # points), at L = 4 161 words (313 points)
    gens = [AffineIso(Perm((1, 2)), (-2, 0)), AffineIso(Perm((2, 1)), (-2, -1))]
    rep = fundamental_domain_check(x2y2_pm, 0, 6, generators=gens)
    assert rep.status == "pass" and rep.orbit_size == 291
    monkeypatch.setattr(bieberbach, "MAX_TILING_POINTS", 100)
    rep = fundamental_domain_check(x2y2_pm, 0, 3, generators=gens)
    assert rep == fundamental_domain_check_bf(x2y2_pm, 0, 3, generators=gens)
    for L, points in ((4, 161), (6, 685)):
        with pytest.raises(
            InputError,
            match=f"^tiling to word length {L} may reach {points} lattice points, over the limit of 100$",
        ):
            fundamental_domain_check(x2y2_pm, 0, L, generators=gens)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda pm: fundamental_domain_check(pm, -1, 3), "tiling box radius must be >= 0, got -1"),
        (lambda pm: fundamental_domain_check(pm, 1, 0), "tiling word length must be >= 1, got 0"),
        (lambda pm: freeness_check(pm, 0), "freeness word length must be >= 1, got 0"),
    ],
    ids=["tiling-box", "tiling-length", "freeness-length"],
)
def test_certificates_refuse_empty_ranges(x2y2_pm, call, message):
    # each of these would pass having checked nothing
    with pytest.raises(InputError, match=message):
        call(x2y2_pm)


def test_tiling_refuses_large_boxes(x2y2_pm, monkeypatch):
    # the l1 ball of radius n box holds the cube: at box 10^4 that is
    # 800,040,001 points, though L = 1 reaches 5; past a radius of the
    # limit the count is that of the ball of radius the limit
    for box, points in ((10**4, "800040001"), (10**7, "more than 2000002000001")):
        with pytest.raises(
            InputError,
            match=f"^tiling box of radius {box} lies in the l1 ball of radius {2 * box}, "
            f"which holds {points} lattice points, over the limit of 1000000$",
        ):
            fundamental_domain_check(x2y2_pm, box, 1)
    monkeypatch.setattr(bieberbach, "MAX_TILING_POINTS", 12)
    assert fundamental_domain_check(x2y2_pm, 0, 1).status == "pass"  # 5 points
    with pytest.raises(
        InputError,
        match="^tiling box of radius 1 lies in the l1 ball of radius 2, "
        "which holds 13 lattice points, over the limit of 12$",
    ):
        fundamental_domain_check(x2y2_pm, 1, 1)  # the radius-2 ball
