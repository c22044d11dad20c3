import hashlib
import subprocess
import sys
from pathlib import Path

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


CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"


@pytest.mark.parametrize(
    "name, length, radius, digest",
    [
        ("x2y2.pres", 9, 1, "352264dcea2288577a429de41e12faa4ed37ff1e0ae3eeb99c7f85ebef4aa885"),
        ("c4_19.rtable", 3, 1, "d130970f67812bc12f31311388382d0768cab433ed03a27b3f29671239302946"),
        ("flip5.rtable", 3, 1, "1971719afb26a59cc9806e0707eca341a4751528a3f85a66b3c44d2587321660"),
        ("c3_02.rtable", 6, 2, "77874e295de2fda862293a7521b4b2e8c610b67c34b3a6cfea045faff70a1093"),
    ],
)
def test_bieberbach_golden(capsys, name, length, radius, digest):
    code, out = run(
        capsys, "bieberbach", str(CORPUS / name), "--length", str(length), "--radius", str(radius)
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "flags",
    [("--length", "0"), ("--length", "-2"), ("--radius", "-1"), ("--radius", "-1", "--length", "-2")],
)
def test_bieberbach_rejects_vacuous_bounds(x2y2_file, capsys, flags):
    code = main(["bieberbach", x2y2_file, *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "must be >=" in captured.err


def test_bieberbach_refuses_long_freeness(x2y2_file, capsys):
    code = main(["bieberbach", x2y2_file, "--length", "20", "--radius", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{2 * (3**20 - 1)} reduced words" in captured.err


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("build", "c4_20.rtable"), "6b4c96bd2a472b7446d976b24a21dd14ae1742a417ffcb9c26701de20ed202b1"),
        (("build", "flip5.rtable"), "ded62962e81c475e468151be89081552ab71987451ff31dfcc5351e4d6eef235"),
        (
            ("build", "x2y2.pres", "--degree", "24"),
            "fa011cf60ebd0b10bf7dfd2c4c7d50b7d8d889f18745b16c7efdfc07095671f8",
        ),
        (
            ("build", "c3_02.rtable", "--degree", "10", "--sigma", "3,1,2"),
            "14146bd2d97119c144207fafc2ec629b508e33a22e3467fb1023e053de639e6d",
        ),
        (("phi", "c4_20.rtable"), "f1bc50f3e83b3450b8b7838824b914d3517dcefa795430eca3b399a0e58ed364"),
        (
            ("phi", "c4_22.rtable", "--degree", "12"),
            "193d3795dbae0b1486af8282504b1a3d9a0412186f4fa2e2374c9deddcb11b6a",
        ),
        (("phi", "flip5.rtable"), "18a6cabe76051581c58024f230efc293471ee83933b1ec9e00d7f5b1ac4b4324"),
        (("phi", "comm3.pres"), "f414bc8ceaf533f15e61c63f31a2365736b02d61a617b023edaad4b6228418d1"),
    ],
)
def test_build_phi_golden(capsys, argv, digest):
    command, name, *flags = argv
    code, out = run(capsys, command, str(CORPUS / name), *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def refused(capsys, *argv) -> str:
    """Run a command that must be refused up front; returns its stderr."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    return captured.err


@pytest.mark.parametrize("name, degree, need", [("x2y2.pres", 3, 4), ("c4_20.rtable", 6, 8)])
def test_phi_short_table_prints_nothing(capsys, name, degree, need):
    err = refused(capsys, "phi", str(CORPUS / name), "--degree", str(degree))
    assert f"needs degree {need}" in err


@pytest.mark.parametrize(
    "argv",
    [("build",), ("equal", "x1", "x1"), ("phi",)],
)
def test_degree_guard(capsys, argv):
    command, *words = argv
    path = str(CORPUS / "flip5.rtable")
    err = refused(capsys, command, path, *words, "--degree", "60")
    assert "7624512 rows" in err


def test_radius_guard(capsys):
    err = refused(capsys, "bieberbach", str(CORPUS / "flip5.rtable"), "--radius", "3")
    assert "7095093 lattice points" in err


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
