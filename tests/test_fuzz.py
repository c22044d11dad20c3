"""Fuzzing of the input readers and of the command line: malformed input
raises InputError and nothing else, and every command run on any file
exits 0, 1 or 2 without an uncaught exception."""

import contextlib
import io
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from itype import InputError, parse_presentation, parse_rtable, parse_word  # noqa: E402
from itype.cli import main  # noqa: E402

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"
VALID = tuple(
    (CORPUS / name).read_text()
    for name in ("x2y2.pres", "comm3.pres", "c2_02.rtable", "c3_05.rtable")
)
TOKENS = ("gens", "rel", "rtable", "=", "->", "#", "x", "y", "z", "x1", "x2", "x3", "1", "x x")


def mutate(text: str, edits) -> str:
    """A valid file with lines dropped, repeated or swapped, or one token
    replaced: mostly near misses, sometimes still valid."""
    lines = text.splitlines()
    for pos, op, tok in edits:
        if not lines:
            break
        i = pos % len(lines)
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "swap":
            lines[i - 1], lines[i] = lines[i], lines[i - 1]
        else:
            words = lines[i].split() or [""]
            words[pos % len(words)] = tok
            lines[i] = " ".join(words)
    return "\n".join(lines)


token = st.one_of(st.sampled_from(TOKENS), st.text(max_size=3))
free_text = st.lists(st.lists(token, max_size=4).map(" ".join), max_size=6).map("\n".join)
edit = st.tuples(
    st.integers(0, 30),
    st.sampled_from(("drop", "repeat", "swap", "token")),
    st.sampled_from(TOKENS),
)
mutated = st.builds(mutate, st.sampled_from(VALID), st.lists(edit, max_size=2))
texts = st.one_of(mutated, free_text, st.text(max_size=30))
names = st.lists(st.sampled_from(("x", "y", "z", "x1", "1")), min_size=1, max_size=3, unique=True)
fuzz = settings(derandomize=True, deadline=None, database=None)


@settings(fuzz, max_examples=200)
@given(texts, names, free_text)
def test_readers_raise_only_input_error(text, gen_names, word):
    for parse in (parse_presentation, parse_rtable):
        with contextlib.suppress(InputError):
            parse(text)
    with contextlib.suppress(InputError):
        parse_word(word, tuple(gen_names))


COMMANDS = (
    ("check",),
    ("orbits",),
    ("build", "--degree", "3"),
    ("phi", "--degree", "4"),
    ("bieberbach", "--length", "2", "--radius", "0"),
)


@settings(fuzz, max_examples=100)
@given(mutated.map(str.encode) | st.binary(max_size=30))
def test_commands_exit_0_1_or_2(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "input"
    path.write_bytes(data)
    for command, *flags in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), *flags])
        assert code in (0, 1, 2), (command, data)
