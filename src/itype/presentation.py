"""Quadratic semigroup presentations <X; R>, the input file format and
the shape checks.

Presentation file format (UTF-8, line oriented, ``#`` starts a comment):

    gens x y z          # declaration order fixes the indices 1..n
    rel y x = x y       # one quadratic relation per line, letters
    rel z x = x z       # separated by spaces
    rel z y = y z

The r-table parser ``ybr.parse_rtable`` also reads its lines through
``lex_lines``, its alphabet through ``parse_gens`` (one dict of names)
and its table lines through ``to_word``.  The name ``1`` is reserved
for the empty word and cannot name a generator.

The four checks below classify a presentation: ``star1``/``star2`` are
per-relation index-pattern conditions, ``star3`` asks that degree-3
rewriting classes have unique sorted representatives, and ``cyclic`` is
a condition on the induced pair map.  A failed check is a result with a
witness, never an exception; only malformed input raises.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .core import CheckResult, InputError, Word, all_words, closure, format_word, sort_word


@dataclass(frozen=True)
class Presentation:
    """An alphabet plus quadratic relations, both sides of degree 2."""

    gen_names: tuple[str, ...]
    relations: tuple[tuple[Word, Word], ...]

    def __post_init__(self):
        n = self.n
        seen: set[frozenset[Word]] = set()
        for lhs, rhs in self.relations:
            if len(lhs) != 2 or len(rhs) != 2:
                raise InputError(f"relation of degree != 2: {lhs} = {rhs}")
            for a in lhs + rhs:
                if not 1 <= a <= n:
                    raise InputError(f"letter {a} out of range 1..{n}")
            if lhs == rhs:
                raise InputError(f"trivial relation: {self.format_relation(lhs, rhs)}")
            key = frozenset((lhs, rhs))
            if key in seen:
                raise InputError(f"duplicate relation: {self.format_relation(lhs, rhs)}")
            seen.add(key)

    @property
    def n(self) -> int:
        return len(self.gen_names)

    def format_relation(self, lhs: Word, rhs: Word) -> str:
        return f"rel {format_word(lhs, self.gen_names)} = {format_word(rhs, self.gen_names)}"


@dataclass(frozen=True)
class StarReport:
    star1: CheckResult
    star2: CheckResult
    star3: CheckResult

    def all_star_ok(self) -> bool:
        return self.star1.ok and self.star2.ok and self.star3.ok


def lex_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) of every line that is not blank once its
    ``#`` comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


def parse_gens(lineno: int, tokens: list[str], letter: dict[str, int] | None) -> dict[str, int]:
    """The alphabet of a ``gens`` line, each name to its index 1..n;
    ``letter`` is the one declared so far, if any."""
    if letter is not None:
        raise InputError(f"line {lineno}: repeated gens directive")
    if len(tokens) < 2:
        raise InputError(f"line {lineno}: gens needs at least one name")
    letter = {name: i for i, name in enumerate(tokens[1:], start=1)}
    if len(letter) != len(tokens) - 1:
        raise InputError(f"line {lineno}: duplicate generator name")
    if "1" in letter:
        raise InputError(f"line {lineno}: generator name '1' is reserved for the empty word")
    return letter


def parse_presentation(text: str) -> Presentation:
    """Parse the presentation file format; raises InputError with a line
    number on any syntax problem."""
    letter: dict[str, int] | None = None
    relations: list[tuple[Word, Word]] = []
    for lineno, tokens in lex_lines(text):
        if tokens[0] == "gens":
            letter = parse_gens(lineno, tokens, letter)
        elif tokens[0] == "rel":
            if letter is None:
                raise InputError(f"line {lineno}: rel before gens")
            try:
                eq = tokens.index("=")
            except ValueError:
                raise InputError(f"line {lineno}: relation needs '='") from None
            lhs = to_word(tokens[1:eq], letter, f"line {lineno}")
            rhs = to_word(tokens[eq + 1 :], letter, f"line {lineno}")
            if len(lhs) != 2 or len(rhs) != 2:
                raise InputError(f"line {lineno}: relation sides must have degree 2")
            relations.append((lhs, rhs))
        else:
            raise InputError(f"line {lineno}: unknown directive {tokens[0]!r}")
    if letter is None:
        raise InputError("missing gens directive")
    return Presentation(tuple(letter), tuple(relations))


def to_word(tokens: list[str], letter: dict[str, int], where: str) -> Word:
    """The word spelled by generator names, ``letter`` taking each to its
    index; ``where`` opens the error message for an unknown name."""
    try:
        return tuple([letter[tok] for tok in tokens])
    except KeyError as exc:
        raise InputError(f"{where}: unknown generator {exc.args[0]!r}") from None


def parse_word(text: str, names: tuple[str, ...]) -> Word:
    """Parse a space-separated word over declared generator names; ``1``
    alone is the empty word."""
    tokens = text.split()
    if tokens == ["1"]:
        return ()
    return to_word(tokens, {name: i for i, name in enumerate(names, 1)}, f"word {text!r}")


def format_presentation(p: Presentation) -> str:
    """Re-emit a presentation bit-exactly: declaration order and relation
    order are preserved."""
    lines = ["gens " + " ".join(p.gen_names)]
    lines.extend(p.format_relation(lhs, rhs) for lhs, rhs in p.relations)
    return "\n".join(lines) + "\n"


def check_star1(p: Presentation) -> CheckResult:
    """Relations are exactly indexed by the pairs j > i: each left side is
    x_j x_i, each right side x_i' x_j' with i' < j' and i' < j."""
    seen_lhs: dict[tuple[int, int], tuple[Word, Word]] = {}
    for lhs, rhs in p.relations:
        j, i = lhs
        if not j > i:
            return CheckResult.failed(
                f"{p.format_relation(lhs, rhs)}: left side is not x_j x_i with j > i"
            )
        ip, jp = rhs
        if not ip < jp:
            return CheckResult.failed(
                f"{p.format_relation(lhs, rhs)}: right side is not x_i' x_j' with i' < j'"
            )
        if not ip < j:
            return CheckResult.failed(
                f"{p.format_relation(lhs, rhs)}: i' < j violated"
            )
        if (j, i) in seen_lhs:
            return CheckResult.failed(
                f"{p.format_relation(lhs, rhs)}: left side already constrained by "
                f"{p.format_relation(*seen_lhs[(j, i)])}"
            )
        seen_lhs[(j, i)] = (lhs, rhs)
    for i in range(1, p.n + 1):
        for j in range(i + 1, p.n + 1):
            if (j, i) not in seen_lhs:
                lhs = (j, i)
                return CheckResult.failed(
                    f"no relation with left side {format_word(lhs, p.gen_names)}"
                )
    return CheckResult.passed()


def check_star2(p: Presentation) -> CheckResult:
    """The right-side pairs (i', j') hit every pair i' < j' exactly once."""
    seen: dict[tuple[int, int], tuple[Word, Word]] = {}
    for lhs, rhs in p.relations:
        key = tuple(rhs)
        if key in seen:
            return CheckResult.failed(
                f"right side pair {format_word(rhs, p.gen_names)} duplicated by "
                f"{p.format_relation(lhs, rhs)} and {p.format_relation(*seen[key])}"
            )
        seen[key] = (lhs, rhs)
    for i in range(1, p.n + 1):
        for j in range(i + 1, p.n + 1):
            if (i, j) not in seen:
                return CheckResult.failed(
                    f"right side pair {format_word((i, j), p.gen_names)} never occurs"
                )
    return CheckResult.passed()


def rewrite_class(p: Presentation, w: Word) -> frozenset[Word]:
    """Closure of a word under applying the relations, both directions, at
    every position."""
    rules = [rule for lhs, rhs in p.relations for rule in ((lhs, rhs), (rhs, lhs))]

    def moves(cur: Word) -> list[Word]:
        return [
            cur[:pos] + dst + cur[pos + 2 :]
            for pos in range(len(cur) - 1)
            for src, dst in rules
            if cur[pos : pos + 2] == src
        ]

    return frozenset(closure([w], moves))


def check_star3(p: Presentation) -> CheckResult:
    """Every degree-3 rewriting class contains exactly one sorted word;
    exhaustive over the n^3 words (with quadratic relations every overlap
    lives in degree 3, so no higher degree needs checking)."""
    done: set[Word] = set()
    for w in all_words(p.n, 3):
        if w in done:
            continue
        cls = rewrite_class(p, w)
        done.update(cls)
        sorted_members = [u for u in cls if u == sort_word(u)]
        if len(sorted_members) != 1:
            members = ", ".join(format_word(u, p.gen_names) for u in sorted(cls))
            return CheckResult.failed(
                f"class {{{members}}} contains {len(sorted_members)} sorted words"
            )
    return CheckResult.passed()


def check_cyclic(r) -> CheckResult:
    """Applying r at position 2 then position 1 maps every word x_a x_a x_b
    to a word x_c x_d x_d, bijectively onto those."""
    n, R = r.n, r.index_map
    images = set()
    for a in range(n):  # letters 0-based, pairs as in ybr.PairMap.index_map
        for b in range(n):
            y, z = divmod(R[a * n + b], n)  # r at position 2: (a, y, z)
            x, y = divmod(R[a * n + y], n)  # then at position 1: (x, y, z)
            if y != z:
                w, u = r._fmt((a + 1, a + 1, b + 1)), r._fmt((x + 1, y + 1, z + 1))
                return CheckResult.failed(f"{w} maps to {u}, not of the form x_c x_d x_d")
            images.add(x * n + y)
    if len(images) != n * n:
        return CheckResult.failed(
            f"image of the doubled-first-letter words has size {len(images)} < {n * n}"
        )
    return CheckResult.passed()


def star_report(p: Presentation) -> StarReport:
    """The three shape checks of a presentation at once."""
    return StarReport(star1=check_star1(p), star2=check_star2(p), star3=check_star3(p))
