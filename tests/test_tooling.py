"""The scripts under bench/ import the package by name; importing them
here makes a rename or deletion they depend on fail the test suite."""

import importlib.util
from pathlib import Path

MAKE_CORPUS = Path(__file__).resolve().parent.parent / "bench" / "make_corpus.py"


def test_make_corpus_imports_and_computes_kernel_facts(x2y2_r):
    spec = importlib.util.spec_from_file_location("make_corpus", MAKE_CORPUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # main() is guarded: nothing is written
    assert module.kernel_facts(x2y2_r) == ((2, 2), 2)
