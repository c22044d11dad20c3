"""Regenerate the benchmark corpus and its manifest.

    python3 bench/make_corpus.py

Writes one r-table file per isomorphism class of solutions on n <= 4
letters (in ``enumerate_solutions`` order), the x2y2 (Klein bottle) and
commutative n=3 presentations and the flip map on 5 letters, plus
``manifest.json`` recording each input's expected verdict, kernel
t-vector and image-group order.  Those expectations are computed here
once and then frozen: the benchmark checks every later version of the
program against them.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from itype import (  # noqa: E402
    PairMap,
    build_itable,
    build_r,
    enumerate_solutions,
    format_rtable,
    kernel_exponents,
    parse_presentation,
)
from itype.structuremaps import PhiMap  # noqa: E402

CORPUS = HERE / "corpus"
# The CLI's default --degree, the bound the session workload runs at.
DEGREE = 8

PRESENTATIONS = {
    "x2y2.pres": "gens x y\nrel y y = x x\n",
    "comm3.pres": "gens x y z\nrel y x = x y\nrel z x = x z\nrel z y = y z\n",
}


def kernel_facts(r: PairMap) -> tuple[tuple[int, ...], int]:
    kd = kernel_exponents(PhiMap(build_itable(r, DEGREE)))
    for ti in kd.t:
        if math.factorial(r.n) % ti:
            raise SystemExit(f"t = {kd.t}: {ti} does not divide {r.n}!")
    if math.factorial(r.n) % kd.group_order:
        raise SystemExit(f"|G| = {kd.group_order} does not divide {r.n}!")
    return kd.t, kd.group_order


def main() -> None:
    CORPUS.mkdir(exist_ok=True)
    entries = []

    def add(name: str, text: str, r: PairMap, census_class: list[int] | None) -> None:
        (CORPUS / name).write_text(text, encoding="utf-8")
        t, order = kernel_facts(r)
        entries.append(
            {
                "file": name,
                "n": r.n,
                "verdict": "valid",
                "t": list(t),
                "group_order": order,
                "census_class": census_class,
            }
        )

    for n in (1, 2, 3, 4):
        for k, rep in enumerate(enumerate_solutions(n).class_reps, start=1):
            add(f"c{n}_{k:02d}.rtable", format_rtable(rep), rep, [n, k])
    for name, text in PRESENTATIONS.items():
        add(name, text, build_r(parse_presentation(text)), None)
    add("flip5.rtable", format_rtable(PairMap.flip(5)), PairMap.flip(5), None)
    # Published raw/class counts (Etingof-Schedler-Soloviev 1999).
    census = {"1": [1, 1], "2": [2, 2], "3": [12, 5], "4": [168, 23]}
    rows = ",\n  ".join(json.dumps(e) for e in entries)
    text = f'{{\n "census": {json.dumps(census)},\n "inputs": [\n  {rows}\n ]\n}}\n'
    json.loads(text)
    (CORPUS / "manifest.json").write_text(text, encoding="utf-8")
    print(f"wrote {len(entries)} inputs to {CORPUS}")


if __name__ == "__main__":
    main()
