import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from itype import (
    InputError,
    PairMap,
    Perm,
    Presentation,
    build_itable,
    build_r,
    check_star1,
    check_star2,
    check_star3,
    enumerate_solutions,
    parse_presentation,
)

X2Y2_TEXT = "gens x y\nrel y y = x x\n"
COMM2_TEXT = "gens x y\nrel y x = x y\n"


def commutative_presentation(n: int) -> Presentation:
    names = tuple("xyzw"[:n])
    rels = tuple(((j, i), (i, j)) for i in range(1, n + 1) for j in range(i + 1, n + 1))
    return Presentation(names, rels)


def permutation_solution(sigma: Perm) -> PairMap:
    """r(a, b) = (sigma(b), sigma^-1(a)), a solution for every sigma
    (Etingof-Schedler-Soloviev 1999); phi(u_i) is sigma for every i."""
    inv = sigma.inverse()
    table = tuple((sigma(b), inv(a)) for a in range(1, sigma.n + 1) for b in range(1, sigma.n + 1))
    return PairMap(sigma.n, table, tuple(f"x{i}" for i in range(1, sigma.n + 1)))


def find_star_presentations(n: int) -> list[Presentation]:
    """Exhaustive search over right-side assignments for presentations
    passing all three star conditions."""
    names = tuple(f"g{i}" for i in range(1, n + 1))
    keys = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    found = []
    for assignment in itertools.permutations(keys):
        rels = []
        ok = True
        for (i, j), (ip, jp) in zip(keys, assignment):
            if not ip < j:
                ok = False
                break
            rels.append(((j, i), (ip, jp)))
        if not ok:
            continue
        try:
            p = Presentation(names, tuple(rels))
        except InputError:
            continue
        if check_star1(p).ok and check_star2(p).ok and check_star3(p).ok:
            found.append(p)
    return found


@pytest.fixture(scope="session")
def x2y2() -> Presentation:
    return parse_presentation(X2Y2_TEXT)


@pytest.fixture(scope="session")
def x2y2_r(x2y2) -> PairMap:
    return build_r(x2y2)


@pytest.fixture(scope="session")
def x2y2_table(x2y2_r):
    return build_itable(x2y2_r, D=8)


@pytest.fixture(scope="session")
def flip_tables():
    return {n: build_itable(PairMap.flip(n), D=8) for n in (1, 2, 3)}


@pytest.fixture(scope="session")
def star_corpus():
    return {n: find_star_presentations(n) for n in (2, 3, 4)}


@pytest.fixture(scope="session")
def census():
    return {n: enumerate_solutions(n) for n in (1, 2, 3)}
