import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from itype import build_r, format_rtable, parse_presentation
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
        # order-8 image groups, t = (2,2,2,2) and (4,4,4,4)
        ("c4_13.rtable", 4, 2, "a71b19813f9c0e46192633ea2583d925c6315731e30ed4fc524008b47101d4f1"),
        ("c4_20.rtable", 4, 2, "6336dff03dcebb882c30791bbdac44151ab8b42278ac5722398dc45c1cdfeba1"),
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


CHECK_ORBITS_DIGESTS = {
    ("check", "x2y2.pres"): (
        "ab78cde6849e9b709daf640ecaae08d35fe732bf18df7a925e67170f5d079f57",
        "2ef575c753317d15a6b9129aaa040c27ed64a579e416d7099af9fb12f456ab74",
    ),
    ("check", "comm3.pres"): (
        "c89d8b3e89139b01fd616b602dca8c9a880b585a0524f2909ca630060c3c5b17",
        "fa2e6e5066784087839dab79c18a8ccf80f24a79c26406890d74e1ccf9cb5dab",
    ),
    ("check", "c3_02.rtable"): (
        "d38548185359920cf797afb0cd9f0c788a56424262d2307b725b60ad3377f53f",
        "fda9b8f956221d8a3d747279d5c5798606c342b867cc03abd5db1f68d2456521",
    ),
    ("check", "c4_12.rtable"): (
        "20088f8217ef157a02d0b46bb5c6b28bdc098790758d4a833df3ab88ceb5d23c",
        "677894aa16097fb97f7123e8f35359cb9a5aa31350038f2354b592de47f36a6f",
    ),
    ("check", "c4_19.rtable"): (
        "20088f8217ef157a02d0b46bb5c6b28bdc098790758d4a833df3ab88ceb5d23c",
        "677894aa16097fb97f7123e8f35359cb9a5aa31350038f2354b592de47f36a6f",
    ),
    ("check", "flip5.rtable"): (
        "9972fe86354b9fcafa4722ad27fee551d96b2041f7fe43f6bb87e5ecc2412930",
        "2d6925b21f0cd45fc32bdde459431aa4e38ca03bcbe764fa44901e253036e721",
    ),
    ("orbits", "x2y2.pres"): (
        "f58327e21d3aadf4996d6d9129a58de515f3121a847cc56f005318110a1dea3b",
        "05a7b0845c71230d7432930ada24570d75f8a3d00e162ec1ef7c47d19af21938",
    ),
    ("orbits", "comm3.pres"): (
        "083196225cbca185eb6348b7523e2aefb07e0491b420e007c6ab166f02fb5c22",
        "30ff9c522dfef9d20d7ae8ff84992ff32555922aad4831f9c1f97d218952f60d",
    ),
    ("orbits", "c3_02.rtable"): (
        "bff709de88461c3f37aaadcdb7b23839f9561d5f86ad2ef22e052e958fd63cc3",
        "f0081be029931c15faa6eee051ab5b58c2e468d4e6bc70bcc33941e472d47b72",
    ),
    ("orbits", "c4_12.rtable"): (
        "bdc923741b2cd94c75bcb7c8e9ecefc0cb06d813f022306159cff415f4434c0e",
        "052f4ce17339742543062edd727eb31ec31e437d637579fba9ed84b63d240a06",
    ),
    ("orbits", "c4_19.rtable"): (
        "b516638d0df8f60856c64a396cf94f22b76a30fcc13cae21e939944f9283df35",
        "c1031d0f91a226f56ccf6975f821981959907dd3ccf78e3fa8d03d6c36d1fcde",
    ),
    ("orbits", "flip5.rtable"): (
        "c30b722d232df350ea7d82b0fd7f20b42d05f788a4efc9d5901400f2b08da9c3",
        "d02e191e56c3e302bf00f2c0c976c8f7298038e67667154a6ed6c56674aed901",
    ),
}


@pytest.mark.parametrize("command, name", sorted(CHECK_ORBITS_DIGESTS))
def test_check_orbits_golden(capsys, command, name):
    for fmt, digest in zip(("plain", "machine"), CHECK_ORBITS_DIGESTS[command, name]):
        code, out = run(capsys, "--format", fmt, command, str(CORPUS / name))
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


GENS_FAULTS = [
    ("gens x 1\n", "line 1: generator name '1' is reserved for the empty word"),
    ("gens x y\ngens x y\n", "line 2: repeated gens directive"),
    ("gens\n", "line 1: gens needs at least one name"),
    ("gens x y x\n", "line 1: duplicate generator name"),
]


@pytest.mark.parametrize("gens, message", GENS_FAULTS)
def test_gens_faults_read_the_same_in_both_formats(tmp_path, capsys, gens, message):
    pres = tmp_path / "bad.pres"
    pres.write_text(gens + "rel y y = x x\n")
    rtable = tmp_path / "bad.rtable"
    rtable.write_text(gens + X2Y2_RTABLE.split("\n", 1)[1])
    for path in (pres, rtable):
        assert refused(capsys, "check", str(path)) == f"error: {message}\n"


def test_unknown_generator_in_a_word_names_the_word(x2y2_file, capsys):
    err = refused(capsys, "equal", x2y2_file, "x q", "x x")
    assert err == "error: word 'x q': unknown generator 'q'\n"


def test_generators_may_be_named_rtable_and_gens(tmp_path, capsys):
    # every line after the rtable line is a table line, directive words included
    f = tmp_path / "named.rtable"
    f.write_text(
        "gens rtable gens\n"
        "rtable\n"
        "rtable rtable -> gens gens\n"
        "rtable gens -> rtable gens\n"
        "gens rtable -> gens rtable\n"
        "gens gens -> rtable rtable\n"
    )
    code, out = run(capsys, "check", str(f))
    assert code == 0
    assert "verdict: valid" in out


@pytest.mark.parametrize(
    "extra, lineno",
    [("rtable\n", 4), ("gens z\n", 7)],
    ids=["repeated-rtable", "gens-after-table"],
)
def test_directive_inside_the_table_is_refused(tmp_path, capsys, extra, lineno):
    lines = X2Y2_RTABLE.splitlines(keepends=True)
    lines.insert(lineno - 1, extra)
    f = tmp_path / "bad.rtable"
    f.write_text("".join(lines))
    assert refused(capsys, "check", str(f)) == f"error: line {lineno}: expected 'a b -> c d'\n"


def test_unknown_table_name_is_named_in_both_formats(tmp_path, capsys):
    pres = tmp_path / "bad.pres"
    pres.write_text("gens x y\nrel y y = x q\n")
    rtable = tmp_path / "bad.rtable"
    rtable.write_text(X2Y2_RTABLE.replace("y y -> x x", "y y -> x q"))
    assert refused(capsys, "check", str(pres)) == "error: line 2: unknown generator 'q'\n"
    assert refused(capsys, "check", str(rtable)) == "error: line 6: unknown generator 'q'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("build",),
        ("normalize", "y y x"),
        ("equal", "x y y", "y y x"),
        ("phi",),
        ("bieberbach", "--length", "3", "--radius", "1"),
    ],
)
def test_rtable_path_prints_the_presentation_names(tmp_path, capsys, argv):
    command, *rest = argv
    pres = CORPUS / "x2y2.pres"
    rtable = tmp_path / "x2y2.rtable"
    rtable.write_text(format_rtable(build_r(parse_presentation(pres.read_text()))))
    want = run(capsys, command, str(pres), *rest)
    assert run(capsys, command, str(rtable), *rest) == want


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
