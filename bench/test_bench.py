"""Self-tests of the benchmark, including its negative controls.

    python3 -m pytest bench/test_bench.py -q

A corrupted expectation must be counted as a failed operation, so that
a run reporting no failures cannot come from a check that never fires.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import (  # noqa: E402
    CORPUS,
    Census,
    Decode,
    Lattice,
    Op,
    Session,
    load_manifest,
    load_pairmap,
    rewrite,
)


@pytest.fixture(scope="module")
def itype():
    return run.import_program()


@pytest.fixture(scope="module")
def manifest():
    return load_manifest()


def failures(*ops) -> int:
    loop = run.Loop(list(ops), [])
    loop.run(0)
    assert loop.attempted == len(ops)
    return loop.failed


def entry(manifest, name: str) -> dict:
    return next(e for e in manifest["inputs"] if e["file"] == name)


def test_phi_with_wrong_t_vector_fails(itype, manifest):
    e = entry(manifest, "c4_20.rtable")
    path = str(CORPUS / e["file"])
    assert e["t"] == [4, 4, 4, 4]
    assert failures(Session.phi_op(itype.cli, path, e["t"], e["group_order"])) == 0
    assert failures(Session.phi_op(itype.cli, path, [4, 4, 4, 2], e["group_order"])) == 1
    assert failures(Session.phi_op(itype.cli, path, e["t"], e["group_order"] + 1)) == 1


def test_equal_pair_with_flipped_answer_fails(itype):
    path = str(CORPUS / "x2y2.pres")
    assert failures(Session.equal_op(itype.cli, path, "y y x", "x x x", True)) == 0
    assert failures(Session.equal_op(itype.cli, path, "y y x", "x x x", False)) == 1
    assert failures(Session.equal_op(itype.cli, path, "y y x", "x y x", True)) == 1


def test_normalize_outside_the_rewriting_class_fails(itype):
    path = str(CORPUS / "x2y2.pres")
    orbit = {"y y x", "x x x", "x y y"}
    assert failures(Session.normalize_op(itype.cli, path, "y y x", orbit)) == 0
    assert failures(Session.normalize_op(itype.cli, path, "y y x", orbit - {"x y y"})) == 1


def test_decode_checks_fire(itype):
    r, _ = load_pairmap(itype, CORPUS / "x2y2.pres")
    table = itype.build_itable(r, 8)
    w = (2, 2, 1, 2)
    same = rewrite(r, w, random.Random(0), 5)
    assert failures(Decode.equal_op(itype, table, w, same, True)) == 0
    assert failures(Decode.equal_op(itype, table, w, same, False)) == 1
    ok = Decode.normalize_op(itype, table, w, same, itype.v_inverse, itype.v_of)
    bad = Decode.normalize_op(itype, table, w, (1, 2, 1, 2), itype.v_inverse, itype.v_of)
    assert failures(ok) == 0
    assert failures(bad) == 1


def test_census_with_wrong_counts_fails(itype):
    # n = 3 keeps the test fast; the benchmark also times n = 4
    three = [
        f"class {k}: " + "; ".join(f"{a} {b} -> {c} {d}" for (a, b), (c, d) in r.pairs())
        for k, r in enumerate(itype.enumerate_solutions(3).class_reps, start=1)
    ]
    assert failures(Census.op(itype.cli, 3, [12, 5], three)) == 0
    assert failures(Census.op(itype.cli, 3, [12, 4], three)) == 1
    assert failures(Census.op(itype.cli, 3, [12, 5], three[::-1])) == 1


def test_lattice_with_wrong_verdict_fails(itype, tmp_path):
    path = CORPUS / "c2_02.rtable"
    assert failures(Lattice.op(itype.cli, path, "valid", 3)) == 0
    assert failures(Lattice.op(itype.cli, path, "invalid", 3)) == 1
    klein = CORPUS / "x2y2.pres"
    assert failures(Lattice.op(itype.cli, klein, "valid", 3, klein=True)) == 0
    # the free abelian group on x, y: translations, not glide reflections
    torus = tmp_path / "comm2.pres"
    torus.write_text("gens x y\nrel y x = x y\n", encoding="utf-8")
    assert failures(Lattice.op(itype.cli, torus, "valid", 3, klein=True)) == 1


def test_an_operation_that_raises_is_counted_failed():
    def boom():
        raise RuntimeError("boom")

    assert failures(Op("boom", boom, lambda res: None)) == 1


def test_long_operation_is_probed_and_probes_are_not_timed():
    def busy(seconds: float):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    loop = run.Loop([Op("busy", lambda: busy(0.5), lambda res: None)], [])
    loop.run(0)
    # probes before and after the pass, and the timer's during it
    assert len(loop.probes) >= 2 + int(0.5 / run.PROBE_EVERY_S) - 1
    assert loop.probing_s > 0
    assert loop.raw_pass_s[0] == pytest.approx(0.5 - loop.probing_s, abs=0.02)
    scale = statistics.fmean(run.HOST_REF_S / p for p in loop.probes)
    assert loop.busy_s[0] / loop.raw_pass_s[0] == pytest.approx(scale, rel=0.05)


def test_manifest_t_vectors_divide_n_factorial(manifest):
    from math import factorial

    assert len(manifest["inputs"]) == 34
    for e in manifest["inputs"]:
        assert all(factorial(e["n"]) % t == 0 for t in e["t"]), e
        assert factorial(e["n"]) % e["group_order"] == 0, e
    sizes = [e["census_class"][0] for e in manifest["inputs"] if e["census_class"]]
    assert [sizes.count(n) for n in (1, 2, 3, 4)] == [1, 2, 5, 23]


def test_tracer_drops_missing_names_and_restores(itype, manifest):
    spans = tracer.SPANS + [("gone", "itype.core", "no_such_function", None)]
    original = itype.istructure.v_inverse
    e = entry(manifest, "x2y2.pres")
    orbit = {"y y x", "x x x", "x y y"}
    op = Session.normalize_op(itype.cli, str(CORPUS / e["file"]), "y y x", orbit)
    with tracer.Tracer(spans=spans) as tr:
        assert failures(op) == 0
    assert tr.dropped == ["itype.core.no_such_function"]
    assert itype.istructure.v_inverse is original
    assert tr.group("cli.main").calls == 1
    assert tr.group("istructure.build").calls == 1
    assert tr.group("istructure.decode").calls == 1
    assert tr.counts["istructure.decode.letters"] == 3
    assert tr.counts["istructure.build.rows"] == 36  # C(2+8-1, 2)
    main = tr.group("cli.main")
    assert 0 < main.self_s < main.busy_s


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert run.per_layer(tracer.Tracer(), [1.0], [1.0]).keys() == run.per_layer_units().keys()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
