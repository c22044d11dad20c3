import itertools
import math
from pathlib import Path

import pytest

from itype import (
    DegreeBoundError,
    ITable,
    PairMap,
    PhiMap,
    build_itable,
    build_r,
    check_cocycle,
    cocycle_exhaustive,
    coset_decomposition,
    enumerate_solutions,
    kernel_exponents,
    parse_presentation,
    parse_rtable,
    phi_of,
    v_of,
    words_equal,
)
from itype.core import Perm, all_perms, degree, exp_add, expvecs_up_to, relabel_expvec

from itype.cli import load_pairmap
from itype.structuremaps import CosetReport
from oracles import cocycle_exhaustive_ref, coset_decomposition_ref, image_group_ref

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"


@pytest.fixture(scope="module")
def x2y2_pm(x2y2_table):
    return PhiMap(x2y2_table)


@pytest.fixture(scope="module")
def flip_pms(flip_tables):
    return {n: PhiMap(t) for n, t in flip_tables.items()}


def test_phi_values_x2y2(x2y2_pm):
    assert phi_of(x2y2_pm, (1, 0)) == Perm((2, 1))
    assert phi_of(x2y2_pm, (2, 0)) == Perm((1, 2))
    assert phi_of(x2y2_pm, (0, 0)).is_identity()


def test_phi_flip_trivial(flip_pms):
    pm = flip_pms[3]
    for b in expvecs_up_to(3, pm.D - 1):
        assert phi_of(pm, b).is_identity()


def test_phi_degree_bound(x2y2_pm):
    with pytest.raises(DegreeBoundError):
        phi_of(x2y2_pm, (x2y2_pm.D, 0))


def test_cocycle_unit(x2y2_pm):
    unit = (0, 0)
    for b in expvecs_up_to(2, 3):
        assert check_cocycle(x2y2_pm, b, unit).ok
        assert check_cocycle(x2y2_pm, unit, b).ok


def test_cocycle_x2y2_generator_pair(x2y2_pm):
    # phi(u1^2) = id agrees with phi(u2) * phi(u1) = (12)(12)
    assert check_cocycle(x2y2_pm, (1, 0), (1, 0)).ok
    assert (Perm((2, 1)) * Perm((2, 1))).images == (1, 2)


def test_cocycle_exhaustive(x2y2_pm, flip_pms, census):
    assert cocycle_exhaustive(x2y2_pm, 5).ok
    assert cocycle_exhaustive(flip_pms[3], 5).ok
    for s in census[3].solutions:
        assert cocycle_exhaustive(PhiMap(build_itable(s, D=6)), 5).ok


def test_kernel_x2y2(x2y2_pm):
    kd = kernel_exponents(x2y2_pm)
    assert kd.t == (2, 2)
    assert kd.group == frozenset({Perm((1, 2)), Perm((2, 1))})
    assert kd.group_order == 2
    assert kd.p0_generators == ((2, 0), (0, 2))


def test_kernel_flip(flip_pms):
    kd = kernel_exponents(flip_pms[3])
    assert kd.t == (1, 1, 1)
    assert kd.group == frozenset({Perm((1, 2, 3))})


def test_kernel_divides_factorial(census):
    for n, cen in census.items():
        for s in cen.solutions:
            kd = kernel_exponents(PhiMap(build_itable(s, D=7)))
            assert all(math.factorial(n) % ti == 0 for ti in kd.t)
            if n == 3:
                assert all(ti in (1, 2, 3, 6) for ti in kd.t)


def test_kernel_needs_degree(x2y2_r):
    pm = PhiMap(build_itable(x2y2_r, D=2))
    with pytest.raises(DegreeBoundError, match="raise the degree bound"):
        kernel_exponents(pm)


def test_group_closed(x2y2_pm, census):
    pms = [x2y2_pm] + [PhiMap(build_itable(s, D=6)) for s in census[3].solutions[:4]]
    for pm in pms:
        g = kernel_exponents(pm).group
        for p, q in itertools.product(g, repeat=2):
            assert p * q in g
        for p in g:
            assert p.inverse() in g


CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"


def corpus_pairmaps():
    for path in sorted(CORPUS.iterdir()):
        if path.suffix == ".pres":
            yield build_r(parse_presentation(path.read_text()))
        elif path.suffix == ".rtable":
            yield parse_rtable(path.read_text())


def test_group_is_generated_by_the_generator_images():
    # every sigma for n <= 3, at table bounds 2, 3 and 8: 201 cases
    cases = 0
    for r in corpus_pairmaps():
        sigmas = all_perms(r.n) if r.n <= 3 else [Perm.identity(r.n)]
        for sigma in sigmas:
            group = kernel_exponents(PhiMap(build_itable(r, D=8, sigma=sigma))).group
            for D in (2, 3, 8):
                assert group == image_group_ref(PhiMap(build_itable(r, D=D, sigma=sigma)))
                cases += 1
    assert cases == 201


def test_kernel_stable_under_group_relabeling(x2y2_pm):
    kd = kernel_exponents(x2y2_pm)
    kernel = [b for b in expvecs_up_to(2, x2y2_pm.D - 1) if phi_of(x2y2_pm, b).is_identity()]
    for g in kd.group:
        for a in kernel:
            assert phi_of(x2y2_pm, relabel_expvec(a, g)).is_identity()


def test_kernel_translation_identities(x2y2_pm):
    # for b in the kernel: phi(ab) = phi(a) and v(ab) = v(a) v(b)
    pm = x2y2_pm
    t = pm.table
    vecs = expvecs_up_to(2, pm.D - 1)
    kernel = [b for b in vecs if phi_of(pm, b).is_identity()]
    for b in kernel:
        for a in vecs:
            if degree(a) + degree(b) > pm.D - 1:
                continue
            ab = exp_add(a, b)
            assert phi_of(pm, ab) == phi_of(pm, a)
            assert words_equal(t, v_of(t, ab), v_of(t, a) + v_of(t, b))


def test_kernel_saturated(x2y2_pm):
    pm = x2y2_pm
    vecs = expvecs_up_to(2, pm.D - 1)
    kernel = {b for b in vecs if phi_of(pm, b).is_identity()}
    for a in kernel:
        for b in vecs:
            ab = exp_add(a, b)
            if degree(ab) > pm.D - 1:
                continue
            assert ((ab in kernel)) == (b in kernel)


def test_cosets_x2y2(x2y2_pm):
    rep = coset_decomposition(x2y2_pm, 6)
    assert rep.reps == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert rep.ok
    # v(u1^2) and v(u2^2) commute in the semigroup
    t = x2y2_pm.table
    w1, w2 = v_of(t, (2, 0)), v_of(t, (0, 2))
    assert words_equal(t, w1 + w2, w2 + w1)


def test_cosets_flip_single(flip_pms):
    rep = coset_decomposition(flip_pms[2], 6)
    assert rep.reps == ((0, 0),)
    assert rep.ok


def test_coset_degree_bound(x2y2_pm):
    with pytest.raises(DegreeBoundError):
        coset_decomposition(x2y2_pm, x2y2_pm.D + 1)


def _cocycle_tables(x2y2_r, census):
    tables = [build_itable(x2y2_r, D=6), build_itable(x2y2_r, D=6, sigma=Perm((2, 1)))]
    tables += [build_itable(s, D=6) for cen in census.values() for s in cen.solutions]
    tables += [build_itable(s, D=6) for s in enumerate_solutions(4).class_reps]
    return tables + [build_itable(PairMap.flip(3), D=6, sigma=Perm((2, 3, 1)))]


def test_cocycle_matches_reference(x2y2_r, census):
    for t in _cocycle_tables(x2y2_r, census):
        for dmax in (0, 1, 3, 5):
            assert cocycle_exhaustive(PhiMap(t), dmax) == cocycle_exhaustive_ref(PhiMap(t), dmax)


def test_cocycle_negative_control_matches_reference(x2y2_r, census):
    # one row of degree 2 or 3 replaced by another permutation: phi(b) for
    # that b breaks the pair (b - u_j, u_j), so the sweep must fail, with
    # the reference's first failing pair and witness.  Classes 12 and 19
    # of n = 4 have non-abelian image groups (order 8), where composing
    # phi in the wrong order also fails.
    reps4 = enumerate_solutions(4).class_reps
    tables = _cocycle_tables(x2y2_r, census)[:8]
    tables += [build_itable(reps4[12], D=6), build_itable(reps4[19], D=6)]
    for t in tables:
        if t.n == 1:
            continue
        for b in expvecs_up_to(t.n, 3):
            if degree(b) < 2:
                continue
            others = [p for p in all_perms(t.n) if p.images != t.row(b)]
            for other in others[:3]:
                rows = dict(t._rows)
                rows[b] = other.images
                bad = ITable(t.r, t.D, t.sigma, rows)
                got = cocycle_exhaustive(PhiMap(bad), 5)
                assert not got.ok
                assert got == cocycle_exhaustive_ref(PhiMap(bad), 5)


def test_cosets_refuse_short_table_up_front(x2y2_r):
    # t = (2, 2): the commuting check decodes words of degree 4
    pm = PhiMap(build_itable(x2y2_r, D=3))
    assert kernel_exponents(pm).t == (2, 2)
    with pytest.raises(DegreeBoundError, match="needs degree 4"):
        coset_decomposition(pm, 3)
    assert coset_decomposition(PhiMap(build_itable(x2y2_r, D=4)), 4).ok


def _coset_outcome(coset, t, m):
    """The coset report of a table, or the exception's type and text."""
    try:
        return coset(PhiMap(t), m)
    except Exception as exc:  # the outcome under comparison
        return type(exc), str(exc)


def _with_row(t, b, images):
    rows = dict(t._rows)
    rows[b] = images
    return ITable(t.r, t.D, t.sigma, rows)


def test_cosets_match_reference_corpus():
    # the arguments `phi` passes at the default --degree
    paths = sorted(CORPUS.glob("*.rtable")) + sorted(CORPUS.glob("*.pres"))
    assert len(paths) == 34
    for path in paths:
        t = build_itable(load_pairmap(str(path)), D=8)
        got = coset_decomposition(PhiMap(t), 6)
        assert got.ok
        assert got == coset_decomposition_ref(PhiMap(t), 6)


def test_coset_negative_controls(x2y2_table):
    # x2y2 has t = (2, 2).  Swapping the entries of one row: (2,1) is read
    # by v((3,1)); (2,2) is in P0; (1,2) is read only by the decoding of
    # v(u_1^2) v(u_2^2), so the product rule holds and the commuting fails
    t = x2y2_table
    bad = {b: _with_row(t, b, t.row(b)[::-1]) for b in ((2, 1), (2, 2), (1, 2))}
    reports = {b: coset_decomposition(PhiMap(tb), 6) for b, tb in bad.items()}
    for b, rep in reports.items():
        assert rep == coset_decomposition_ref(PhiMap(bad[b]), 6)
        assert rep.t == (2, 2) and not rep.ok
    assert reports[(2, 1)].product_rule.witness == (
        "v((3,1)) differs from v((1,1))v((2,0)) in the semigroup"
    )
    assert reports[(2, 2)].factorization.witness == "P0 part (2,2) of (2,2) has nontrivial phi"
    assert reports[(2, 2)].product_rule and reports[(2, 2)].commuting
    assert reports[(1, 2)].factorization and reports[(1, 2)].product_rule
    assert reports[(1, 2)].commuting.witness == "v(u_1^2) and v(u_2^2) do not commute"


def test_coset_corruptions_match_reference(x2y2_table):
    # every row of degree at most 4 replaced by two other permutations and
    # by (1, ..., 1), which is none, on inputs with t up to (4, 4, 4, 4):
    # the reports, or the exceptions, agree witness for witness with the
    # vector-by-vector check
    tables = [x2y2_table] + [
        build_itable(load_pairmap(str(CORPUS / name)), D=8)
        for name in ("c3_02.rtable", "c3_05.rtable", "c4_13.rtable", "c4_20.rtable")
    ]
    failed = set()
    for t in tables:
        for b in expvecs_up_to(t.n, 4):
            others = [p.images for p in all_perms(t.n) if p.images != t.row(b)]
            for images in [*others[:2], (1,) * t.n]:
                bad = _with_row(t, b, images)
                got = _coset_outcome(coset_decomposition, bad, 6)
                assert got == _coset_outcome(coset_decomposition_ref, bad, 6)
                if isinstance(got, CosetReport):
                    checks = ("factorization", "product_rule", "commuting")
                    failed |= {k for k in checks if not getattr(got, k)}
    assert failed == {"factorization", "product_rule", "commuting"}
