import collections
import itertools
import math
import random
from pathlib import Path

import pytest

from itype import (
    DegreeBoundError,
    ITable,
    InputError,
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
from itype.core import (
    Perm,
    all_perms,
    degree,
    exp_add,
    expvec_level,
    relabel_expvec,
)

from itype import structuremaps
from itype.cli import load_pairmap, main
from itype.structuremaps import CosetReport
from oracles import (
    cocycle_exhaustive_ref,
    coset_decomposition_ref,
    expvecs_up_to,
    graded_steps,
    image_group_ref,
    itable_of_rows,
    rows_of,
)

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


def test_cocycle_exhaustive(x2y2_r, census):
    assert cocycle_exhaustive(PhiMap(build_itable(x2y2_r, D=6))).ok
    assert cocycle_exhaustive(PhiMap(build_itable(PairMap.flip(3), D=6))).ok
    for s in census[3].solutions:
        assert cocycle_exhaustive(PhiMap(build_itable(s, D=6))).ok


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


def test_kernel_refusal_names_a_bound_that_suffices(x2y2_r):
    # t_i needs D >= t_i + 1, and D = n! + 1 always suffices: 3 for x2y2
    with pytest.raises(DegreeBoundError, match=r"\(D = n! \+ 1 = 3 suffices\)"):
        kernel_exponents(PhiMap(build_itable(x2y2_r, D=2)))
    assert kernel_exponents(PhiMap(build_itable(x2y2_r, D=3))).t == (2, 2)


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
    rep = coset_decomposition(x2y2_pm)
    assert rep.reps == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert rep.ok
    # v(u1^2) and v(u2^2) commute in the semigroup
    t = x2y2_pm.table
    w1, w2 = v_of(t, (2, 0)), v_of(t, (0, 2))
    assert words_equal(t, w1 + w2, w2 + w1)


def test_cosets_flip_single(flip_pms):
    rep = coset_decomposition(flip_pms[2])
    assert rep.reps == ((0, 0),)
    assert rep.ok


def _cocycle_tables(x2y2_r, census, D=6):
    tables = [build_itable(x2y2_r, D=D), build_itable(x2y2_r, D=D, sigma=Perm((2, 1)))]
    tables += [build_itable(s, D=D) for cen in census.values() for s in cen.solutions]
    tables += [build_itable(s, D=D) for s in enumerate_solutions(4).class_reps]
    return tables + [build_itable(PairMap.flip(3), D=D, sigma=Perm((2, 3, 1)))]


def test_cocycle_matches_reference(x2y2_r, census):
    # each table at D = 2, 4 and 6: every pair to degree 1, 3 and 5
    for tables in zip(*(_cocycle_tables(x2y2_r, census, D) for D in (2, 4, 6))):
        for t in tables:
            assert cocycle_exhaustive(PhiMap(t)) == cocycle_exhaustive_ref(PhiMap(t))


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
                bad = _with_row(t, b, other.images)
                got = cocycle_exhaustive(PhiMap(bad))
                assert not got.ok
                assert got == cocycle_exhaustive_ref(PhiMap(bad))


def test_cocycle_matches_reference_on_shuffled_tables():
    # 306 corrupted tables: each corpus table at D = 6 with the rows of
    # one degree from 1 to 5 shuffled.  A failing generator instance
    # falls back to the full sweep, which must name the reference's
    # first failing pair; a passing one must mean the sweep passes.
    paths = sorted(p for p in CORPUS.iterdir() if p.suffix in (".pres", ".rtable"))
    rng = random.Random(7)
    verdicts = set()
    for path in paths:
        t = build_itable(load_pairmap(str(path)), D=6)
        for _ in range(9):
            level = expvec_level(t.n, rng.randint(1, 5))
            shuffled = [t.row(b) for b in level]
            rng.shuffle(shuffled)
            bad = itable_of_rows(t.r, t.D, t.sigma, {**rows_of(t), **dict(zip(level, shuffled))})
            got = cocycle_exhaustive(PhiMap(bad))
            assert got == cocycle_exhaustive_ref(PhiMap(bad))
            verdicts.add(got.ok)
    assert verdicts == {True, False}


def test_cocycle_reads_the_origin_and_every_top_row(x2y2_r, census):
    # the rows the middle degrees leave out: a wrong phi(0), and each row
    # of degree D - 1 = 5, which only the generator instance (b, u_j) with
    # b + u_j there reads
    reps4 = enumerate_solutions(4).class_reps
    tables = [build_itable(x2y2_r, D=6), *(build_itable(s, D=6) for s in census[3].solutions[:6])]
    tables += [build_itable(reps4[12], D=6), build_itable(reps4[19], D=6)]
    for t in tables:
        for b in [(0,) * t.n, *expvec_level(t.n, 5)]:
            other = next(p for p in all_perms(t.n) if p.images != t.row(b))
            bad = _with_row(t, b, other.images)
            got = cocycle_exhaustive(PhiMap(bad))
            assert not got.ok
            assert got == cocycle_exhaustive_ref(PhiMap(bad))


def test_cosets_refuse_short_table_up_front(x2y2_r):
    # t = (2, 2): the commuting check decodes words of degree 4
    pm = PhiMap(build_itable(x2y2_r, D=3))
    assert kernel_exponents(pm).t == (2, 2)
    with pytest.raises(DegreeBoundError, match="needs degree 4"):
        coset_decomposition(pm)
    assert coset_decomposition(PhiMap(build_itable(x2y2_r, D=4))).ok


def _coset_outcome(coset, t):
    """The coset report of a table, or the exception's type and text."""
    try:
        return coset(PhiMap(t))
    except Exception as exc:  # the outcome under comparison
        return type(exc), str(exc)


def _with_row(t, b, images):
    """The table of t's rows with the row of b replaced by `images`."""
    return itable_of_rows(t.r, t.D, t.sigma, {**rows_of(t), b: images})


def test_cosets_match_reference_corpus():
    # the tables `phi` checks at the default --degree
    paths = sorted(CORPUS.glob("*.rtable")) + sorted(CORPUS.glob("*.pres"))
    assert len(paths) == 34
    for path in paths:
        t = build_itable(load_pairmap(str(path)), D=8)
        got = coset_decomposition(PhiMap(t))
        assert got.ok
        assert got == coset_decomposition_ref(PhiMap(t))


def test_coset_negative_controls(x2y2_table):
    # x2y2 has t = (2, 2).  Swapping the entries of one row: (2,1) is read
    # by v((3,1)); (2,2) is in P0; (1,2) is read only by the decoding of
    # v(u_1^2) v(u_2^2), so the product rule holds and the commuting fails
    t = x2y2_table
    bad = {b: _with_row(t, b, t.row(b)[::-1]) for b in ((2, 1), (2, 2), (1, 2))}
    reports = {b: coset_decomposition(PhiMap(tb)) for b, tb in bad.items()}
    for b, rep in reports.items():
        assert rep == coset_decomposition_ref(PhiMap(bad[b]))
        assert rep.kernel.t == (2, 2) and not rep.ok
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
                got = _coset_outcome(coset_decomposition, bad)
                assert got == _coset_outcome(coset_decomposition_ref, bad)
                if isinstance(got, CosetReport):
                    checks = ("factorization", "product_rule", "commuting")
                    failed |= {k for k in checks if not getattr(got, k)}
    assert failed == {"factorization", "product_rule", "commuting"}


def test_cosets_match_reference_for_every_sigma():
    # the inputs with n <= 3 under every sigma, at D = 8 and 6: 86 passing
    # reports, 66 of them with sigma != id, each equal to the reference's
    paths = sorted(p for p in CORPUS.iterdir() if p.suffix in (".pres", ".rtable"))
    cases = []
    for path in paths:
        r = load_pairmap(str(path))
        for sigma in all_perms(r.n) if r.n <= 3 else ():
            for D in (8, 6):
                t = build_itable(r, D=D, sigma=sigma)
                got = coset_decomposition(PhiMap(t))
                assert got == coset_decomposition_ref(PhiMap(t))
                cases.append((got.ok, sigma.is_identity()))
    assert cases.count((True, False)) == 66 and cases.count((True, True)) == 20


CHECKS = ("factorization", "product_rule", "commuting")


def test_coset_corruptions_of_the_deepest_rows_match_reference(x2y2_r):
    # each row of degree D - 1, the deepest the walk reads, replaced by two
    # other permutations and by (1, ..., 1), on x2y2 and on t = (3, 3, 3)
    # at D = 6, where the commuting check reads them, and at D = 7, where
    # P0 points of degree D - 1 hold rows: the reports, or the exceptions,
    # agree
    c3_05 = load_pairmap(str(CORPUS / "c3_05.rtable"))
    outcomes = set()
    for t in (build_itable(r, D=D) for D in (6, 7) for r in (x2y2_r, c3_05)):
        for b in expvec_level(t.n, t.D - 1):
            others = [p.images for p in all_perms(t.n) if p.images != t.row(b)]
            for images in [*others[:2], (1,) * t.n]:
                bad = _with_row(t, b, images)
                got = _coset_outcome(coset_decomposition, bad)
                assert got == _coset_outcome(coset_decomposition_ref, bad)
                if isinstance(got, CosetReport):
                    outcomes |= {k for k in CHECKS if not getattr(got, k)}
                else:
                    outcomes.add(got[0])
    assert outcomes == {ValueError, InputError, *CHECKS}


def test_phi_checks_refuse_a_row_that_is_no_permutation(x2y2_r, x2y2_table):
    # (1, 1) in place of phi(u_1^2) = id: the kernel walk reads it before
    # any power of u_1 with trivial phi.  The cocycle check validates every
    # row to degree D - 1 before it checks a pair, as its reference does.
    bad = _with_row(x2y2_table, (2, 0), (1, 1))
    with pytest.raises(InputError, match=r"not a permutation of 1..2: \(1, 1\)"):
        kernel_exponents(PhiMap(bad))
    t = build_itable(x2y2_r, D=6)
    for b in expvecs_up_to(2, 5):
        for cocycle in (cocycle_exhaustive, cocycle_exhaustive_ref):
            with pytest.raises(InputError, match=r"not a permutation of 1..2: \(1, 1\)"):
                cocycle(PhiMap(_with_row(t, b, (1, 1))))


def test_states_give_the_image_group_and_the_kernel():
    # every corpus input, and every sigma of the classes with n <= 3, at
    # D = 8: the build steps every distinct row, the distinct rows are the
    # |H| values of phi, and t_i is the period of state 0 under step[i]
    tables = [build_itable(r, D=8) for r in corpus_pairmaps()]
    classes = [s for n in (1, 2, 3) for s in enumerate_solutions(n).class_reps]
    tables += [build_itable(s, D=8, sigma=sigma) for s in classes for sigma in all_perms(s.n)]
    assert len(tables) == 34 + 35
    for t in tables:
        distinct, step = t.steps
        kd = kernel_exponents(PhiMap(t))
        assert len(distinct) == kd.group_order
        assert all(len(s_i) == len(distinct) for s_i in step)
        for s_i, ti in zip(step, kd.t):
            p = 0
            assert next(k for k in range(1, len(distinct) + 1) if (p := s_i[p]) == 0) == ti


def _on_steps(t, distinct, D):
    """The table to D <= t.D on t's steps with the rows `distinct`, and
    the table of one state per vector of every row those steps give."""
    on_steps = ITable(t.r, D, t.sigma, tuple(distinct), t.steps[1])
    return on_steps, itable_of_rows(t.r, D, t.sigma, rows_of(on_steps))


def test_phi_on_states_rejects_what_the_references_reject():
    # each corpus table at D = 8, under every sigma for n <= 3, with two
    # entries of one non-origin row of its steps swapped, each pair of each
    # row: phi's checks on the states (the cocycle also on the same rows
    # to D = 3 and 4) against the references on one state per vector of
    # the same rows.
    # What the references reject fails on the states with their
    # witnesses, and what they pass passes; where a swapped row equals
    # sigma, a P0 point's state is not the origin's and the vector walk
    # decides
    verdicts = collections.Counter()
    for r in corpus_pairmaps():
        for sigma in all_perms(r.n) if r.n <= 3 else [Perm.identity(r.n)]:
            t = build_itable(r, D=8, sigma=sigma)
            distinct = t.steps[0]
            pairs = itertools.combinations(range(t.n), 2)
            for p, (i, j) in itertools.product(range(1, len(distinct)), list(pairs)):
                bad = list(distinct[p])
                bad[i], bad[j] = bad[j], bad[i]
                rows = [*distinct[:p], tuple(bad), *distinct[p + 1 :]]
                cocycle = {}
                for D in (3, 4, 6):
                    on_steps, by_vector = _on_steps(t, rows, D)
                    cocycle[D - 1] = cocycle_exhaustive(PhiMap(on_steps))
                    assert cocycle[D - 1] == cocycle_exhaustive_ref(PhiMap(by_vector))
                on_steps, by_vector = _on_steps(t, rows, t.D)
                cosets = _coset_outcome(coset_decomposition, on_steps)
                ref = _coset_outcome(coset_decomposition_ref, by_vector)
                assert cosets == ref
                ok = isinstance(cosets, CosetReport) and cosets.ok
                ref_ok = isinstance(ref, CosetReport) and ref.ok
                verdicts[cocycle[5].ok and ok, cocycle[5].ok and ref_ok] += 1
    assert verdicts == {(False, False): 396, (True, True): 34}


def test_state_checks_on_graded_steps(x2y2_r, x2y2_table, monkeypatch):
    # graded steps describe the rows with every state apart by degree.  A
    # wrong origin fails the cocycle on the states with the reference's
    # witness.  Unchanged, no P0 point's state is the origin's, and the
    # coset walk finds every vector holding, as the reference does.  A
    # cocycle failure that the sweep of every pair does not confirm raises
    t, t6 = x2y2_table, build_itable(x2y2_r, D=6)
    graded = ITable(t6.r, t6.D, t6.sigma, *graded_steps(t6, 0, 0, t6.row((0, 0))[::-1]))
    by_vector = itable_of_rows(t6.r, t6.D, t6.sigma, rows_of(graded))
    got = cocycle_exhaustive(PhiMap(graded))
    assert not got.ok
    assert got == cocycle_exhaustive_ref(PhiMap(by_vector))
    graded = ITable(t.r, t.D, t.sigma, *graded_steps(t, 0, 0, t.row((0, 0))))
    assert rows_of(graded) == rows_of(t)
    got = coset_decomposition(PhiMap(graded))
    assert got.ok and got == coset_decomposition_ref(PhiMap(graded))
    graded = ITable(t6.r, t6.D, t6.sigma, *graded_steps(t6, 0, 0, t6.row((0, 0))))
    assert cocycle_exhaustive(PhiMap(graded)).ok
    monkeypatch.setattr(structuremaps, "_instances_on_states", lambda pm: False)
    with pytest.raises(AssertionError, match="the generator instances failed, yet every pair holds"):
        cocycle_exhaustive(PhiMap(graded))


def test_phi_answers_the_corpus_without_the_coset_walk(capsys, monkeypatch):
    # with the coset walk refused, itype phi prints the same bytes and
    # exits with the same code on every corpus input: a build's states
    # decide its coset check, so the walk runs on no build
    paths = sorted(str(p) for p in CORPUS.iterdir() if p.suffix in (".pres", ".rtable"))
    assert len(paths) == 34

    def outcomes():
        return [(main(["phi", path]), *capsys.readouterr()) for path in paths]

    def refuse(*args):
        raise AssertionError("coset walk taken")

    before = outcomes()
    assert {code for code, _, _ in before} == {0}
    monkeypatch.setattr(structuremaps, "_coset_walk", refuse)
    assert outcomes() == before
