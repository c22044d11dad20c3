"""The scripts under bench/ import the package by name; importing them
here makes a rename or deletion they depend on fail the test suite.

bench/run.py imports the package afresh, so a test that ran it leaves
new modules in sys.modules: the tests here look `itype.cli` and
`itype.istructure` up when they run, never at load time."""

import ast
import importlib.util
import random
import sys
from pathlib import Path

import pytest

from oracles import build_itable_ref, itable_of_rows, rows_of

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
MAKE_CORPUS = BENCH / "make_corpus.py"


def program(name: str):
    """The package module `name` as imported now (see the module notes)."""
    return importlib.import_module(f"itype.{name}")


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
    cli = program("cli")
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
    cli = program("cli")
    with tracer.Tracer() as tr:
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert tr.group("istructure.build").calls == (0 if command in ("check", "orbits") else 1)
    assert tr.group("presentation.parse").calls == 1 + n_words
    assert tr.hook_failures == {}


def test_word_commands_build_no_level_past_one(capsys, monkeypatch):
    # the full build of normalize and equal never asks level_indices for a
    # level past 1, nor do their reads of its steps: with level_indices
    # refused past level 1 they still answer every corpus input byte for
    # byte, and build, which gathers every row to dump it, fails
    cli, istructure = program("cli"), program("istructure")
    paths = sorted(str(p) for p in (BENCH / "corpus").iterdir() if p.suffix in (".pres", ".rtable"))
    assert len(paths) == 34
    rng = random.Random(5)
    runs = []
    for path in paths:
        word = " ".join(rng.choices(cli.load_pairmap(path).names, k=8))
        assert cli.main(["normalize", path, word]) == 0
        canonical = capsys.readouterr().out.split("canonical: ")[1].strip()
        runs += [["normalize", path, word], ["equal", path, word, canonical]]

    def outcomes():
        return [(cli.main(argv), *capsys.readouterr()) for argv in runs]

    before = outcomes()
    assert {code for code, _, _ in before} == {0}
    real = istructure.level_indices

    def level_indices(n, d):
        if d >= 2:
            raise AssertionError(f"level {d} built")
        return real(n, d)

    monkeypatch.setattr(istructure, "level_indices", level_indices)
    assert outcomes() == before
    with pytest.raises(AssertionError, match="level 2 built"):
        cli.main(["build", paths[0]])


def by_vector(monkeypatch):
    """Make the CLI's tables one state per vector of the build's rows
    (oracles.itable_of_rows) from now on, where every check reads every
    vector."""
    cli = program("cli")
    build = cli.build_itable

    def table(*args):
        t = build(*args)
        return itable_of_rows(t.r, t.D, t.sigma, rows_of(t))

    monkeypatch.setattr(cli, "build_itable", table)


def test_certified_rows_past_degree_one_are_gathered_when_read(capsys, monkeypatch):
    # itype bieberbach answers every corpus input byte for byte as it does
    # on one state per vector of the same rows; on a freshly built table
    # the first read through each entry point gives the reference rows'
    # answer
    cli, core, ist, sm = (program(name) for name in ("cli", "core", "istructure", "structuremaps"))
    paths = sorted(str(p) for p in (BENCH / "corpus").iterdir() if p.suffix in (".pres", ".rtable"))
    assert len(paths) == 34
    runs = [["bieberbach", path, "--length", "3", "--radius", "1"] for path in paths]

    def outcomes():
        return [(cli.main(argv), *capsys.readouterr()) for argv in runs]

    before = outcomes()
    assert {code for code, _, _ in before} == {0}
    with monkeypatch.context() as patched:
        by_vector(patched)
        assert outcomes() == before
    rng = random.Random(28)
    for name in ("x2y2.pres", "c3_02.rtable", "c4_20.rtable", "flip5.rtable"):
        r = cli.load_pairmap(str(BENCH / "corpus" / name))
        n, D = r.n, 8
        ref = build_itable_ref(r, D)
        word = tuple(rng.choices(range(1, n + 1), k=D))
        reads = [
            lambda t, b=rng.choice(core.expvec_level(n, D - 1)): t.row(b),
            lambda t, a=rng.choice(core.expvec_level(n, D)): ist.v_of(t, a),
            lambda t: ist.v_inverse(t, word),
            ist.dump_itable,
            lambda t: sm.cocycle_exhaustive(sm.PhiMap(t)),
            lambda t: sm.coset_decomposition(sm.PhiMap(t)),
        ]
        for read in reads:
            assert read(ist.build_itable(r, D)) == read(ref)


def test_word_problem_gathers_no_row():
    # v_inverse, words_equal and normalize_word on fresh tables agree
    # with one another
    cli, ist = program("cli"), program("istructure")
    rng = random.Random(29)
    for name in ("x2y2.pres", "c3_02.rtable", "c4_20.rtable", "flip5.rtable"):
        r = cli.load_pairmap(str(BENCH / "corpus" / name))
        n, D = r.n, 8
        t = ist.build_itable(r, D)
        for _ in range(20):
            w1, w2 = (tuple(rng.choices(range(1, n + 1), k=rng.randint(0, D))) for _ in "12")
            a = ist.v_inverse(t, w1)
            nf = ist.normalize_word(t, w1)
            assert nf.exps == a and ist.words_equal(t, w1, nf.word)
            assert ist.words_equal(t, w1, w2) == (a == ist.v_inverse(t, w2))


def test_axioms_and_orbits_read_no_pair(capsys, monkeypatch):
    # check and orbits decide on the pair maps' flat indices: with
    # PairMap.__call__ and PairMap.apply_at refused they print every
    # corpus input's bytes as before
    cli, ybr = program("cli"), program("ybr")
    paths = sorted(str(p) for p in (BENCH / "corpus").iterdir() if p.suffix in (".pres", ".rtable"))
    assert len(paths) == 34
    runs = [[command, path] for path in paths for command in ("check", "orbits")]

    def outcomes():
        return [(cli.main(argv), *capsys.readouterr()) for argv in runs]

    before = outcomes()
    assert {code for code, _, _ in before} == {0}

    def refused(*args):
        raise AssertionError("pair read one at a time")

    monkeypatch.setattr(ybr.PairMap, "__call__", refused)
    monkeypatch.setattr(ybr.PairMap, "apply_at", refused)
    assert outcomes() == before


def test_phi_gathers_no_row(capsys, monkeypatch):
    # the kernel, cocycle and coset checks read the build's states: itype
    # phi prints what it prints on one state per vector of the same rows,
    # where the coset check walks every vector
    cli = program("cli")
    names = ("x2y2.pres", "c3_02.rtable", "c4_20.rtable", "flip5.rtable")
    paths = [str(BENCH / "corpus" / name) for name in names]

    def outcomes():
        return [(cli.main(["phi", path]), *capsys.readouterr()) for path in paths]

    before = outcomes()
    assert {code for code, _, _ in before} == {0}
    by_vector(monkeypatch)
    assert outcomes() == before


def test_a_table_is_its_builds_automaton():
    # ITable is constructed in the package only by build_itable, and a
    # table holds its automaton and no row dict
    def calls(tree):
        return [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ITable"
        ]

    found, in_build = [], []
    for path in sorted((ROOT / "src" / "itype").glob("*.py")):
        tree = ast.parse(path.read_text())
        found += calls(tree)
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name == "build_itable":
                in_build += calls(fn)
    assert len(found) == 1 and found == in_build
    ist = program("istructure")
    t = ist.build_itable(program("cli").load_pairmap(str(BENCH / "corpus" / "c4_20.rtable")))
    assert set(vars(t)) == {"r", "n", "D", "sigma", "steps"}
    distinct, step = t.steps
    assert type(distinct) is tuple and all(type(s_j) is tuple for s_j in step)


def test_package_modules_use_every_name_they_import():
    # a simplification that frees an import must delete it too, in the
    # package, the tests and the bench scripts; __init__.py imports to
    # re-export
    unused = []
    sources = (ROOT / "src" / "itype", ROOT / "tests", BENCH)
    for path in sorted(path for folder in sources for path in folder.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.relative_to(ROOT)}: {name}")
    assert unused == []


def test_package_definitions_serve_the_package():
    # every top-level function and class of every package module is named
    # by package code outside its own definition, or re-exported by
    # __init__.py: helpers that only the tests call live in tests/oracles.py
    package = ROOT / "src" / "itype"
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    exported = {
        alias.name
        for node in trees.pop("__init__.py").body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    definitions = [
        node
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]

    def named(name, inside):
        return any(
            getattr(node, "id", getattr(node, "attr", None)) == name and id(node) not in inside
            for tree in trees.values()
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        )

    unused = [
        node.name
        for node in definitions
        if node.name not in exported and not named(node.name, {id(n) for n in ast.walk(node)})
    ]
    assert len(definitions) > 100 and unused == []


def test_package_caches_are_bounded():
    # every functools cache in the package is an lru_cache given its
    # maxsize, and that size is finite: no cache grows without bound in a
    # long-lived process
    unbounded = []
    for path in sorted((ROOT / "src" / "itype").glob("*.py")):
        module = importlib.import_module(f"itype.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text())):
            for dec in getattr(node, "decorator_list", []):
                func = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(func, "attr", getattr(func, "id", None)) not in ("cache", "lru_cache"):
                    continue
                given = isinstance(dec, ast.Call) and (dec.args or dec.keywords)
                size = getattr(module, node.name).cache_parameters()["maxsize"]
                if not given or size is None:
                    unbounded.append(f"{path.name}: {node.name}")
    assert unbounded == []
