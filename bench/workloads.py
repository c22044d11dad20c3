"""The four benchmark workloads and the checks on every operation.

A workload is built once per set-up round from the freshly imported
``itype`` package, a seeded ``random.Random`` and the corpus.  It exposes
``ops``: one pass of operations, each a callable plus a check that
returns ``None`` when the answer is right and a reason when it is not.
Expected answers come from the corpus manifest, from published counts,
or from how the input was made (a rewrite of a word by the pair map is
equal to it; changing one letter of a word gives an unequal word, since
semigroups of I-type are cancellative).  None is read back from the
table under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CORPUS = Path(__file__).resolve().parent / "corpus"

# K = 1..3 take milliseconds and K = 4 seconds: the small censuses run
# this many times per pass, so that the per-operation percentiles rest
# on many samples (p50 falls on K = 1 and 2, p90 on K = 3), spread over
# more than a second of the host's changing speed, while the pass time
# stays dominated by K = 4.
CENSUS_SMALL_REPEATS = 100

# Bieberbach word length and tiling radius for the whole corpus, and the
# longer word length for the x2y2 (Klein bottle) input, so that the n=2
# exponential freeness path is covered.  Inputs with n <= 3 take tens of
# milliseconds and the n=4 classes about 0.4 s: the small ones run this
# many times per pass, so that p50 falls on them and p90 on the middle
# of the n=4 classes rather than on the slowest few.
LATTICE_LENGTH = 3
LATTICE_RADIUS = 1
KLEIN_LENGTH = 9
LATTICE_SMALL_REPEATS = 10

# Decode tables: name -> degree bound.  Row counts C(n+D-1, n) run from
# 300 (x2y2) to 3,876 (each n=4 class with t = (4,4,4,4)).
DECODE_DEGREES = {"x2y2.pres": 24, "flip5.rtable": 10}
DECODE_T4_DEGREE = 16
DECODE_QUERIES = 3000

# The CLI's default --degree.
SESSION_DEGREE = 8
# Longest word given to `normalize` in the session.  Its check closes the
# word's rewriting class during set-up, and the class grows fast with
# length; short words keep set-up small and about equal across seeds.
SESSION_NORMALIZE_LEN = 5
# The session runs on the inputs with at least this many letters.  On
# smaller ones every command takes a few milliseconds (lattice and
# decode cover them), and including them shrinks the share of the phi
# commands, which set the tail, until p90 sits at the edge of their
# cluster and jumps from run to run.
SESSION_MIN_N = 4


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass(frozen=True)
class CliResult:
    rc: int
    out: str
    err: str

    def field(self, key: str) -> str | None:
        prefix = key + ": "
        for line in self.out.splitlines():
            if line.startswith(prefix):
                return line[len(prefix) :]
        return None

    def lines(self, prefix: str) -> list[str]:
        return [line for line in self.out.splitlines() if line.startswith(prefix)]


def run_cli(cli, argv: list[str]) -> CliResult:
    """``itype.cli.main(argv)`` in-process, output captured.  ``main`` is
    looked up on the module at each call, so a traced run sees it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return CliResult(rc, out.getvalue(), err.getvalue())


def load_manifest() -> dict:
    with open(CORPUS / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_pairmap(itype, path: Path):
    """The pair map and generator names of a corpus file."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".pres":
        p = itype.parse_presentation(text)
        return itype.build_r(p), p.gen_names
    r = itype.parse_rtable(text)
    return r, r.names


def expect_fields(res: CliResult, rc: int, fields: dict[str, str] | None = None) -> str | None:
    if res.rc != rc:
        return f"exit code {res.rc}, expected {rc}: {res.err.strip()[:200]}"
    for key, want in (fields or {}).items():
        got = res.field(key)
        if got != want:
            return f"{key}: got {got!r}, expected {want!r}"
    return None


def fmt_vec(v) -> str:
    return "(" + ",".join(str(k) for k in v) + ")"


def rewrite(r, word: tuple[int, ...], rng, moves: int) -> tuple[int, ...]:
    """Apply the pair map at random positions: an equal word."""
    for _ in range(moves if len(word) > 1 else 0):
        word = r.apply_at(word, rng.randrange(1, len(word)))
    return word


def change_letter(n: int, word: tuple[int, ...], rng) -> tuple[int, ...]:
    """Replace one letter by another: an unequal word (cancellativity)."""
    pos = rng.randrange(len(word))
    other = rng.choice([a for a in range(1, n + 1) if a != word[pos]])
    return word[:pos] + (other,) + word[pos + 1 :]


def random_word(n: int, length: int, rng) -> tuple[int, ...]:
    return tuple(rng.randint(1, n) for _ in range(length))


def spell(names: tuple[str, ...], word: tuple[int, ...]) -> str:
    return " ".join(names[a - 1] for a in word)


def rewrite_orbit(r, word: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Every word reachable from ``word`` by applying the pair map: its
    class in the semigroup."""
    seen = {word}
    frontier = [word]
    while frontier:
        cur = frontier.pop()
        for pos in range(1, len(cur)):
            nxt = r.apply_at(cur, pos)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


class Census:
    """``itype enumerate --n K --list`` for K = 1..4, in seeded order."""

    def __init__(self, itype, rng, manifest):
        expected_lines: dict[int, list[str]] = {}
        for entry in manifest["inputs"]:
            if entry["census_class"] is None:
                continue
            n, k = entry["census_class"]
            r, _ = load_pairmap(itype, CORPUS / entry["file"])
            pairs = "; ".join(f"{a} {b} -> {c} {d}" for (a, b), (c, d) in r.pairs())
            expected_lines.setdefault(n, []).append(f"class {k}: {pairs}")
        sizes = [1, 2, 3] * CENSUS_SMALL_REPEATS + [4]
        rng.shuffle(sizes)
        self.ops = [
            self.op(itype.cli, k, manifest["census"][str(k)], expected_lines[k]) for k in sizes
        ]

    @staticmethod
    def op(cli, k: int, counts: list[int], class_lines: list[str]) -> Op:
        def check(res: CliResult) -> str | None:
            bad = expect_fields(
                res, 0, {"n": str(k), "solutions": str(counts[0]), "classes": str(counts[1])}
            )
            if bad:
                return bad
            if res.lines("class ") != class_lines:
                return f"n={k}: class list differs from the corpus fixtures"
            return None

        return Op("enumerate", lambda: run_cli(cli, ["enumerate", "--n", str(k), "--list"]), check)


class Lattice:
    """``itype bieberbach FILE`` over the corpus, plus x2y2 at a long L,
    in seeded order."""

    def __init__(self, itype, rng, manifest):
        self.ops = [self.op(itype.cli, CORPUS / "x2y2.pres", "valid", KLEIN_LENGTH, klein=True)]
        for e in manifest["inputs"]:
            repeats = LATTICE_SMALL_REPEATS if e["n"] <= 3 else 1
            op = self.op(itype.cli, CORPUS / e["file"], e["verdict"], LATTICE_LENGTH)
            self.ops += [op] * repeats
        rng.shuffle(self.ops)

    @staticmethod
    def op(cli, path: Path, verdict: str, length: int, klein: bool = False) -> Op:
        argv = ["bieberbach", str(path), "--length", str(length), "--radius", str(LATTICE_RADIUS)]
        rc = 0 if verdict == "valid" else 1

        def check(res: CliResult) -> str | None:
            bad = expect_fields(
                res,
                rc,
                {"verdict": verdict, "consistency": "pass", "freeness": "pass", "tiling": "pass"},
            )
            if bad or not klein:
                return bad
            # The Klein bottle group: both generators glide reflections,
            # the square of one a translation.
            classes = [res.field(f"class {g}") or "" for g in ("x", "y", "x x")]
            if not (
                classes[0].startswith("glide-reflection")
                and classes[1].startswith("glide-reflection")
                and classes[2].startswith("translation")
            ):
                return f"x2y2 isometry classes {classes}"
            return None

        return Op("bieberbach", lambda: run_cli(cli, argv), check)


class Decode:
    """Word-problem reads through the public API against tables built
    during set-up."""

    def __init__(self, itype, rng, manifest):
        degrees = dict(DECODE_DEGREES)
        for entry in manifest["inputs"]:
            if entry["n"] == 4 and entry["t"] == [4, 4, 4, 4]:
                degrees[entry["file"]] = DECODE_T4_DEGREE
        # The checks call the functions bound now, before any tracing,
        # so they never count as traced work.
        v_inverse, v_of = itype.v_inverse, itype.v_of
        tables = []
        for name, d in degrees.items():
            r, _ = load_pairmap(itype, CORPUS / name)
            tables.append((r, itype.build_itable(r, d)))
        self.ops = []
        for _ in range(DECODE_QUERIES):
            r, table = rng.choice(tables)
            word = random_word(r.n, rng.randint(1, table.D), rng)
            kind = rng.choice(("equal", "unequal", "normalize"))
            other = (
                change_letter(r.n, word, rng)
                if kind == "unequal"
                else rewrite(r, word, rng, rng.randint(1, 2 * len(word)))
            )
            if kind == "normalize":
                self.ops.append(self.normalize_op(itype, table, word, other, v_inverse, v_of))
            else:
                self.ops.append(self.equal_op(itype, table, word, other, kind == "equal"))

    @staticmethod
    def equal_op(itype, table, w1, w2, expected: bool) -> Op:
        def check(got) -> str | None:
            if got is not expected:
                return f"words_equal({w1}, {w2}) = {got}, expected {expected}"
            return None

        return Op("words_equal", lambda: itype.words_equal(table, w1, w2), check)

    @staticmethod
    def normalize_op(itype, table, word, rewritten, v_inverse, v_of) -> Op:
        def check(nf) -> str | None:
            a = nf.exps
            if sum(a) != len(word) or len(nf.word) != len(word):
                return f"normal form of {word} has the wrong degree: {nf}"
            if v_inverse(table, rewritten) != a:
                return f"{word} and its rewrite {rewritten} decode differently"
            if v_inverse(table, v_of(table, a)) != a:
                return f"v_inverse(v_of({a})) != {a}"
            return None

        return Op("normalize_word", lambda: itype.normalize_word(table, word), check)


class Session:
    """Per corpus input with n >= SESSION_MIN_N, the CLI commands a user
    runs, each re-parsing the file and rebuilding the table at the
    default --degree."""

    def __init__(self, itype, rng, manifest):
        entries = [e for e in manifest["inputs"] if e["n"] >= SESSION_MIN_N]
        rng.shuffle(entries)
        cli = itype.cli
        self.ops = []
        for e in entries:
            path = str(CORPUS / e["file"])
            r, names = load_pairmap(itype, CORPUS / e["file"])
            n = r.n
            word = random_word(n, rng.randint(1, SESSION_NORMALIZE_LEN), rng)
            w1 = random_word(n, rng.randint(1, SESSION_DEGREE), rng)
            equal = rng.random() < 0.5
            w2 = rewrite(r, w1, rng, 2 * len(w1)) if equal else change_letter(n, w1, rng)
            self.ops += [
                self.check_op(cli, path),
                self.orbits_op(cli, path, n),
                self.phi_op(cli, path, e["t"], e["group_order"]),
                self.build_op(cli, path, n),
                self.normalize_op(
                    cli, path, spell(names, word), {spell(names, w) for w in rewrite_orbit(r, word)}
                ),
                self.equal_op(cli, path, spell(names, w1), spell(names, w2), equal),
            ]

    @staticmethod
    def check_op(cli, path: str) -> Op:
        return Op(
            "check",
            lambda: run_cli(cli, ["check", path]),
            lambda res: expect_fields(
                res,
                0,
                {
                    "involutive": "pass",
                    "yang-baxter": "pass",
                    "nondegenerate": "pass",
                    "verdict": "valid",
                },
            ),
        )

    @staticmethod
    def orbits_op(cli, path: str, n: int) -> Op:
        def check(res: CliResult) -> str | None:
            bad = expect_fields(res, 0)
            if bad:
                return bad
            sizes = [int(line.split(":")[0].split()[-1]) for line in res.lines("orbit ")]
            if sum(sizes) != n**3:
                return f"orbit sizes {sizes} do not add up to n^3 = {n ** 3}"
            return None

        return Op("orbits", lambda: run_cli(cli, ["orbits", path]), check)

    @staticmethod
    def phi_op(cli, path: str, t: list[int], order: int) -> Op:
        return Op(
            "phi",
            lambda: run_cli(cli, ["phi", path]),
            lambda res: expect_fields(
                res,
                0,
                {
                    "kernel t": fmt_vec(t),
                    "G order": str(order),
                    "cocycle": "pass",
                    "coset-factorization": "pass",
                    "coset-product-rule": "pass",
                },
            ),
        )

    @staticmethod
    def build_op(cli, path: str, n: int) -> Op:
        rows = math.comb(n + SESSION_DEGREE - 1, n)
        header = f"itable n={n} D={SESSION_DEGREE} sigma=" + ",".join(map(str, range(1, n + 1)))

        def check(res: CliResult) -> str | None:
            bad = expect_fields(res, 0)
            if bad:
                return bad
            lines = res.out.splitlines()
            if not lines or lines[0] != header or len(lines) != 1 + n * rows:
                return f"table dump: {len(lines)} lines, expected {1 + n * rows}"
            return None

        return Op("build", lambda: run_cli(cli, ["build", path]), check)

    @staticmethod
    def normalize_op(cli, path: str, word: str, orbit: set[str]) -> Op:
        def check(res: CliResult) -> str | None:
            bad = expect_fields(res, 0, {"word": word})
            if bad:
                return bad
            exps = res.field("exps") or "()"
            if res.field("canonical") not in orbit:
                return f"canonical form of {word!r} is not in its rewriting class"
            if sum(int(k) for k in exps.strip("()").split(",")) != len(word.split()):
                return f"exponents {exps} of {word!r} have the wrong degree"
            return None

        return Op("normalize", lambda: run_cli(cli, ["normalize", path, word]), check)

    @staticmethod
    def equal_op(cli, path: str, w1: str, w2: str, expected: bool) -> Op:
        return Op(
            "equal",
            lambda: run_cli(cli, ["equal", path, w1, w2]),
            lambda res: expect_fields(res, 0 if expected else 1, {"equal": str(expected).lower()}),
        )


WORKLOADS = {"census": Census, "lattice": Lattice, "decode": Decode, "session": Session}
