"""Batch front end.

    itype check FILE            shape checks + pair-map axioms
    itype build FILE            materialize and dump the letter table
    itype normalize FILE WORD   canonical form + exponent vector
    itype equal FILE W1 W2      decide equality in the semigroup
    itype phi FILE              permutation calculus: phi, kernel, cosets
    itype bieberbach FILE       affine action: generators, freeness, tiling
    itype orbits FILE           orbit census on degree-3 words
    itype enumerate --n K       census of all valid pair maps on K letters

Input files are auto-detected: a ``rel`` directive introduces a
presentation, an ``rtable`` directive a raw pair-map table.  Words on
the command line are space-separated generator names, e.g. ``"x y y"``.
Exit codes: 0 all checks passed, 1 a check failed (witness printed),
2 malformed input or bound violation.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .bieberbach import (
    check_action_consistency,
    classify_isometry_2d,
    compose,
    export_affine_group,
    affine_generators,
    freeness_check,
    fundamental_domain_check,
    refuse_large_tiling,
    refuse_long_freeness,
    resolve_convention,
)
from .core import (
    AxiomError,
    CheckResult,
    ConsistencyError,
    DegreeBoundError,
    InputError,
    Perm,
    format_expvec,
    format_word,
)
from .istructure import ITable, build_itable, dump_itable, normalize_word, v_inverse
from .presentation import (
    Presentation,
    check_cyclic,
    lex_lines,
    parse_presentation,
    parse_word,
    star_report,
)
from .structuremaps import PhiMap, cocycle_exhaustive, coset_decomposition
from .ybr import (
    PairMap,
    axiom_checks,
    build_r,
    classify_orbits3,
    enumerate_solutions,
    parse_rtable,
)


# Every file command sweeps the n^3 words of degree 3 (Yang-Baxter, star3,
# orbits); `orbits` on the 100-letter flip map takes 1.5-2.7 s, peak 132 MiB
# (2 vCPUs, Python 3.11.7).  Past this many words, files are refused.
MAX_DEGREE3_WORDS = 1_000_000


class Reporter:
    def __init__(self, fmt: str):
        self.machine = fmt == "machine"

    def field(self, key: str, value) -> None:
        print(f"{key}={value}" if self.machine else f"{key}: {value}")

    def check(self, key: str, res: CheckResult) -> None:
        self.field(key, "pass" if res.ok else "fail")
        if not res.ok:
            self.field(f"{key}.witness", res.witness)


def load_input(path: str) -> Presentation | PairMap:
    """The presentation or the pair map a file holds; an ``rtable`` line
    marks the r-table format.  Refuses (InputError) an alphabet of more
    than MAX_DEGREE3_WORDS words of degree 3."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    rtable = any(tokens[0] == "rtable" for _, tokens in lex_lines(text))
    x = parse_rtable(text) if rtable else parse_presentation(text)
    if x.n**3 > MAX_DEGREE3_WORDS:
        raise InputError(
            f"{x.n} generators make {x.n**3} words of degree 3, "
            f"over the limit of {MAX_DEGREE3_WORDS}"
        )
    return x


def as_pairmap(x: Presentation | PairMap) -> PairMap:
    """The pair map of an input: read as such, or built from its relations."""
    return build_r(x) if isinstance(x, Presentation) else x


def load_pairmap(path: str) -> PairMap:
    """The pair map of a file."""
    return as_pairmap(load_input(path))


def load_table(args) -> ITable:
    """The table of ``args.file`` to ``args.degree``, with the command's
    ``--sigma`` if it has one; the file is read before ``--sigma``."""
    return build_itable(load_pairmap(args.file), args.degree, _sigma(args))


def cmd_check(args, rep: Reporter) -> int:
    x = load_input(args.file)
    if isinstance(x, Presentation):
        rep.field("kind", "presentation")
        rep.field("n", x.n)
        sr = star_report(x)
        rep.check("star1", sr.star1)
        rep.check("star2", sr.star2)
        rep.check("star3", sr.star3)
        try:
            r = build_r(x)
        except InputError as exc:
            rep.check("pair-map", CheckResult.failed(str(exc)))
            return 1
    else:
        r = x
        rep.field("kind", "rtable")
        rep.field("n", r.n)
    axioms = list(axiom_checks(r))
    for name, res in axioms:
        rep.check(name, res)
    rep.check("cyclic", check_cyclic(r))
    ok = all(res.ok for _, res in axioms)
    rep.field("verdict", "valid" if ok else "invalid")
    return 0 if ok else 1


def cmd_build(args, rep: Reporter) -> int:
    sys.stdout.write(dump_itable(load_table(args)))
    return 0


def cmd_normalize(args, rep: Reporter) -> int:
    t = load_table(args)
    names = t.r.names
    w = parse_word(args.word, names)
    nf = normalize_word(t, w)
    rep.field("word", format_word(w, names))
    rep.field("exps", format_expvec(nf.exps))
    rep.field("canonical", format_word(nf.word, names))
    return 0


def cmd_equal(args, rep: Reporter) -> int:
    t = load_table(args)
    w1 = parse_word(args.word1, t.r.names)
    w2 = parse_word(args.word2, t.r.names)
    a1, a2 = v_inverse(t, w1), v_inverse(t, w2)
    rep.field("equal", "true" if a1 == a2 else "false")
    if a1 != a2:
        rep.field("left.exps", format_expvec(a1))
        rep.field("right.exps", format_expvec(a2))
        return 1
    return 0


def cmd_phi(args, rep: Reporter) -> int:
    t = load_table(args)
    pm = PhiMap(t)
    # every stage that can refuse runs before the first line is printed
    cosets = coset_decomposition(pm)
    cc = cocycle_exhaustive(pm)
    for name, g in zip(t.r.names, cosets.kernel.generators):
        rep.field(f"phi {name}", ",".join(str(k) for k in g.images))
    rep.field("kernel t", format_expvec(cosets.kernel.t))
    rep.field("G order", cosets.kernel.group_order)
    rep.field("cosets", " ".join(format_expvec(a) for a in cosets.reps))
    rep.check("cocycle", cc)
    rep.check("coset-factorization", cosets.factorization)
    rep.check("coset-product-rule", cosets.product_rule)
    rep.check("coset-commuting", cosets.commuting)
    return 0 if cc.ok and cosets.ok else 1


def cmd_bieberbach(args, rep: Reporter) -> int:
    if args.length < 1:
        raise InputError(f"--length must be >= 1, got {args.length}")
    if args.radius < 0:
        raise InputError(f"--radius must be >= 0, got {args.radius}")
    t = load_table(args)
    names = t.r.names
    tiling_length = max(args.length, 2 * args.radius * t.n)
    refuse_long_freeness(t.n, args.length)
    refuse_large_tiling(t.n, tiling_length)
    pm = PhiMap(t)
    gens = affine_generators(pm)
    cons = check_action_consistency(pm, gens)
    free = freeness_check(pm, args.length, gens)
    tile = fundamental_domain_check(pm, args.radius, tiling_length, gens)
    rep.field("convention", resolve_convention())
    sys.stdout.write(export_affine_group(gens, names, free.relations))
    rep.check("consistency", cons)
    rep.check("freeness", CheckResult(free.ok, free.witness))
    rep.field("relations", len(free.relations))
    rep.field("tiling", tile.status)
    if tile.status != "pass":
        rep.field("tiling.witness", tile.witness)
    rep.field("orbit", f"{tile.covered} box points covered, {tile.orbit_size} elements")
    if t.n == 2:
        for name, g in zip(names, gens):
            rep.field(f"class {name}", classify_isometry_2d(g))
        rep.field(f"class {names[0]} {names[0]}", classify_isometry_2d(compose(gens[0], gens[0])))
    ok = cons.ok and free.ok and tile.status != "fail"
    rep.field("verdict", "valid" if ok else "invalid")
    return 0 if ok else 1


def cmd_orbits(args, rep: Reporter) -> int:
    x = load_input(args.file)
    r = as_pairmap(x)
    report = classify_orbits3(r)
    name = ("", *r.names)  # 1-based
    for o in report.orbits:
        members = ", ".join([f"{name[a]} {name[b]} {name[c]}" for a, b, c in o.elements])
        rep.field(f"orbit {o.kind} size {o.size}", members)
    rep.field("counts", f"A={report.count('A')} B={report.count('B')} C={report.count('C')}")
    rep.field("identity", report.identity)
    rep.check("star-census", report.star_census)
    if isinstance(x, Presentation):
        sr = star_report(x)
        if sr.all_star_ok() and not report.star_census.ok:
            return 1
    return 0


def cmd_enumerate(args, rep: Reporter) -> int:
    census = enumerate_solutions(args.n)
    rep.field("n", census.n)
    rep.field("solutions", census.raw_count)
    rep.field("classes", census.class_count)
    if args.list:
        for k, sol in enumerate(census.class_reps, start=1):
            entries = "; ".join(
                f"{a} {b} -> {c} {d}" for (a, b), (c, d) in sol.pairs()
            )
            rep.field(f"class {k}", entries)
    return 0


def _sigma(args) -> Perm | None:
    if not getattr(args, "sigma", None):
        return None
    try:
        return Perm(tuple(int(tok) for tok in args.sigma.split(",")))
    except ValueError as exc:
        raise InputError(f"bad --sigma value {args.sigma!r}: {exc}") from None


@functools.lru_cache(maxsize=1)
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves
    it unchanged, so in-process callers share it."""
    ap = argparse.ArgumentParser(prog="itype", description=__doc__.split("\n")[0])
    ap.add_argument("--format", choices=("plain", "machine"), default="plain")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, *positionals, degree=True):
        """A command on an input file; the table commands take --degree."""
        sp = sub.add_parser(name)
        sp.set_defaults(fn=fn)
        for pos in ("file", *positionals):
            sp.add_argument(pos)
        if degree:
            sp.add_argument("--degree", type=int, default=8)
        return sp

    add("check", cmd_check, degree=False)
    add("build", cmd_build).add_argument("--sigma", default="")
    add("normalize", cmd_normalize, "word")
    add("equal", cmd_equal, "word1", "word2")
    add("phi", cmd_phi)
    sp = add("bieberbach", cmd_bieberbach)
    sp.add_argument("--radius", type=int, default=2)
    sp.add_argument("--length", type=int, default=6)
    add("orbits", cmd_orbits, degree=False)
    sp = sub.add_parser("enumerate")
    sp.set_defaults(fn=cmd_enumerate)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--list", action="store_true")
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    rep = Reporter(args.format)
    try:
        return args.fn(args, rep)
    except (InputError, DegreeBoundError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AxiomError, ConsistencyError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
