"""The scripts under bench/ import the package by name; importing them
here makes a rename or deletion they depend on fail the test suite."""

import importlib.util
import sys
from pathlib import Path

import pytest

from itype import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
MAKE_CORPUS = BENCH / "make_corpus.py"


def load_script(path: Path):
    spec = importlib.util.spec_from_file_location(f"bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_make_corpus_imports_and_computes_kernel_facts(x2y2_r):
    module = load_script(MAKE_CORPUS)  # main() is guarded: nothing is written
    assert module.kernel_facts(x2y2_r) == ((2, 2), 2)


def test_tracer_hooks_bind_their_arguments(capsys):
    # the hooks read parameters and report fields by name; a rename
    # lands in hook_failures and the counter silently reads 0
    tracer = load_script(BENCH / "tracer.py")
    x2y2 = str(BENCH / "corpus" / "x2y2.pres")
    with tracer.Tracer() as tr:
        assert cli.main(["enumerate", "--n", "2"]) == 0
        assert cli.main(["bieberbach", x2y2, "--length", "2", "--radius", "0"]) == 0
        assert cli.main(["normalize", x2y2, "y y x"]) == 0
    capsys.readouterr()
    assert tr.hook_failures == {}


@pytest.mark.parametrize(
    "name, words", [("x2y2.pres", ("y y x", "x x x")), ("c3_02.rtable", ("x1 x2", "x2 x1"))]
)
@pytest.mark.parametrize(
    "command, n_words, flags",
    [
        ("build", 0, ()),
        ("normalize", 1, ()),
        ("equal", 2, ()),
        ("phi", 0, ()),
        ("bieberbach", 0, ("--length", "3", "--radius", "1")),
        ("check", 0, ()),
        ("orbits", 0, ()),
    ],
)
def test_table_commands_parse_once_and_build_once(capsys, name, words, command, n_words, flags):
    # one parse of the file plus one per word on the command line, and one
    # table; check and orbits read the pair map alone and build none
    tracer = load_script(BENCH / "tracer.py")
    argv = [command, str(BENCH / "corpus" / name), *words[:n_words], *flags]
    with tracer.Tracer() as tr:
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert tr.group("istructure.build").calls == (0 if command in ("check", "orbits") else 1)
    assert tr.group("presentation.parse").calls == 1 + n_words
    assert tr.hook_failures == {}
