import hashlib
import subprocess
import sys

import pytest

from itype.cli import main

from conftest import COMM2_TEXT, X2Y2_TEXT

X2Y2_RTABLE = (
    "gens x y\n"
    "rtable\n"
    "x x -> y y\n"
    "x y -> x y\n"
    "y x -> y x\n"
    "y y -> x x\n"
)


@pytest.fixture()
def x2y2_file(tmp_path):
    f = tmp_path / "x2y2.pres"
    f.write_text(X2Y2_TEXT)
    return str(f)


@pytest.fixture()
def comm2_file(tmp_path):
    f = tmp_path / "comm2.pres"
    f.write_text(COMM2_TEXT)
    return str(f)


@pytest.fixture()
def rtable_file(tmp_path):
    f = tmp_path / "x2y2.rtable"
    f.write_text(X2Y2_RTABLE)
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_x2y2_mixed_report(x2y2_file, capsys):
    code, out = run(capsys, "check", x2y2_file)
    assert code == 0  # axioms pass even though the star shape fails
    assert "star1: fail" in out
    assert "involutive: pass" in out
    assert "nondegenerate: pass" in out
    assert "cyclic: pass" in out
    assert "verdict: valid" in out


def test_check_rtable(rtable_file, capsys):
    code, out = run(capsys, "--format", "machine", "check", rtable_file)
    assert code == 0
    assert "kind=rtable" in out
    assert "yang-baxter=pass" in out


def test_check_ill_defined_pair_map(tmp_path, capsys):
    f = tmp_path / "reused.pres"
    f.write_text("gens x y z\nrel y x = x y\nrel z x = x y\n")
    code, out = run(capsys, "check", str(f))
    assert code == 1
    assert "pair-map: fail" in out
    assert "occurs in two relations" in out


def test_check_invalid_map(tmp_path, capsys):
    f = tmp_path / "bad.rtable"
    f.write_text(
        "gens x y\nrtable\nx x -> x x\nx y -> x y\ny x -> y x\ny y -> y y\n"
    )
    code, out = run(capsys, "check", str(f))
    assert code == 1
    assert "nondegenerate: fail" in out


def test_equal_true(x2y2_file, capsys):
    code, out = run(capsys, "equal", x2y2_file, "x y y", "x x x")
    assert code == 0
    assert "equal: true" in out
    code, _ = run(capsys, "equal", x2y2_file, "x x", "y y")
    assert code == 0


def test_equal_false(x2y2_file, capsys):
    code, out = run(capsys, "equal", x2y2_file, "x x", "x y")
    assert code == 1
    assert "equal: false" in out
    assert "left.exps" in out


def test_normalize(x2y2_file, capsys):
    code, out = run(capsys, "normalize", x2y2_file, "y y x")
    assert code == 0
    assert "exps: (2,1)" in out
    assert "canonical: x y y" in out


def test_build_dump(x2y2_file, capsys):
    code, out = run(capsys, "build", x2y2_file, "--degree", "3")
    assert code == 0
    assert out.startswith("itable n=2 D=3 sigma=1,2\n")
    assert "(1,0) 1 -> 2" in out


def test_phi_report_golden(x2y2_file, capsys):
    code, out = run(capsys, "phi", x2y2_file)
    assert code == 0
    assert out == (
        "phi x: 2,1\n"
        "phi y: 2,1\n"
        "kernel t: (2,2)\n"
        "G order: 2\n"
        "cosets: (0,0) (0,1) (1,0) (1,1)\n"
        "cocycle: pass\n"
        "coset-factorization: pass\n"
        "coset-product-rule: pass\n"
        "coset-commuting: pass\n"
    )


def test_build_invalid_map_is_check_failure(tmp_path, capsys):
    f = tmp_path / "free.pres"
    f.write_text("gens x y\n")  # free on two letters: not of I-type
    assert main(["build", str(f)]) == 1


def test_bieberbach_report(x2y2_file, capsys):
    code, out = run(capsys, "bieberbach", x2y2_file, "--length", "4")
    assert code == 0
    assert "gen x perm=2,1 shift=1,0" in out
    assert "rel x x y^-1 y^-1 = 1" in out
    assert "freeness: pass" in out
    assert "tiling: pass" in out
    assert "class x: glide-reflection axis a1-a2=1/2 glide=(1/2,1/2)" in out
    assert "class y: glide-reflection axis a1-a2=-1/2 glide=(1/2,1/2)" in out
    assert "class x x: translation (1,1)" in out


def test_orbits_commutative(comm2_file, capsys):
    code, out = run(capsys, "orbits", comm2_file)
    assert code == 0
    assert "counts: A=2 B=2 C=0" in out
    assert "star-census: pass" in out
    assert "identity: n^3 = n + 3*n*(n-1) + 6*#C" in out


def test_orbits_x2y2_informational(rtable_file, capsys):
    code, out = run(capsys, "orbits", rtable_file)
    assert code == 0  # census failure is informational off the star shape
    assert "star-census: fail" in out


def test_enumerate(capsys):
    code, out = run(capsys, "enumerate", "--n", "1")
    assert code == 0
    assert "solutions: 1" in out
    code, out = run(capsys, "enumerate", "--n", "2", "--list")
    assert code == 0
    assert "solutions: 2" in out and "classes: 2" in out


def test_enumerate_n4_list_golden(capsys):
    code, out = run(capsys, "enumerate", "--n", "4", "--list")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1a2ff5ad22e8f9ec21aef640b5b23f3773bb2b9bc1a7685d8009489ca8079a5e"
    )


def test_input_errors(tmp_path, capsys):
    code = main(["check", str(tmp_path / "missing.pres")])
    assert code == 2
    bad = tmp_path / "bad.pres"
    bad.write_text("gens x y\nrel y x x = x y\n")
    assert main(["check", str(bad)]) == 2
    f = tmp_path / "ok.pres"
    f.write_text(X2Y2_TEXT)
    assert main(["equal", str(f), "x q", "x x"]) == 2
    assert main(["equal", str(f), "x x x x x x x x x", "x x", "--degree", "4"]) == 2
    assert main(["enumerate", "--n", "9"]) == 2


def test_deterministic_output(x2y2_file, capsys):
    _, out1 = run(capsys, "phi", x2y2_file)
    _, out2 = run(capsys, "phi", x2y2_file)
    assert out1 == out2


def test_console_script_entry(x2y2_file):
    proc = subprocess.run(
        [sys.executable, "-m", "itype.cli", "equal", x2y2_file, "x y y", "x x x"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "equal: true" in proc.stdout
