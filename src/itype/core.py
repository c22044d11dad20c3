"""Exact foundational types: words over an indexed alphabet, exponent
vectors of the free commutative semigroup, and permutations.

Generators are the integers 1..n throughout the package; printable names
exist only in parsers and formatters.  Everything here is an immutable
value, safe to hash, share and compare.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

# A word is a finite sequence of generator indices; () is the empty word.
Word = tuple[int, ...]
# An exponent vector is a length-n tuple of non-negative integers.
ExpVec = tuple[int, ...]


class InputError(ValueError):
    """Malformed input: files, words, flags, out-of-range indices."""


class DegreeBoundError(ValueError):
    """A query exceeded the degree bound a table was built for."""


class AxiomError(ValueError):
    """A pair map fails an axiom required by the requested construction."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed: a bug, or an invalid map slipped
    through the axiom checks."""


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a verification: failure is data, with a witness."""

    ok: bool
    witness: str = ""

    def __bool__(self) -> bool:
        return self.ok

    @staticmethod
    def passed() -> "CheckResult":
        return CheckResult(True)

    @staticmethod
    def failed(witness: str) -> "CheckResult":
        return CheckResult(False, witness)


@dataclass(frozen=True)
class Perm:
    """A permutation of {1..n}, stored as the image tuple (p(1),...,p(n)).

    Composition convention, used identically by every module:
        (p * q)(i) = p(q(i))   -- q first, then p.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise InputError(f"not a permutation of 1..{n}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        return compose_perm(self, other)

    def inverse(self) -> "Perm":
        inv = [0] * self.n
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Perm(tuple(inv))

    def is_identity(self) -> bool:
        return all(j == i for i, j in enumerate(self.images, start=1))

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycle decomposition including fixed points, each cycle starting
        at its least element, cycles ordered by that element."""
        seen = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            j = self(start)
            while j != start:
                cyc.append(j)
                seen.add(j)
                j = self(j)
            out.append(tuple(cyc))
        return out

    @staticmethod
    def identity(n: int) -> "Perm":
        return Perm(tuple(range(1, n + 1)))

    def __repr__(self) -> str:
        return f"Perm{self.images}"


def compose_perm(p: Perm, q: Perm) -> Perm:
    """(p o q)(i) = p(q(i)); see the convention note on Perm."""
    if p.n != q.n:
        raise InputError(f"size mismatch: {p.n} vs {q.n}")
    return Perm(tuple(p(q(i)) for i in range(1, p.n + 1)))


def all_perms(n: int):
    """All of Sym_n in lexicographic order of image tuples."""
    return [Perm(imgs) for imgs in itertools.permutations(range(1, n + 1))]


def check_word(w: Word, n: int) -> Word:
    for a in w:
        if not 1 <= a <= n:
            raise InputError(f"letter {a} out of range 1..{n} in word {w}")
    return tuple(w)


def abelianize(w: Word, n: int) -> ExpVec:
    """Letter-count projection of a word onto the free commutative
    semigroup: entry i is the number of occurrences of generator i."""
    e = [0] * n
    for a in w:
        e[a - 1] += 1
    return tuple(e)


def sort_word(w: Word) -> Word:
    """The non-decreasing rearrangement of a word."""
    return tuple(sorted(w))


def degree(e: ExpVec) -> int:
    return sum(e)


def support(e: ExpVec) -> tuple[int, ...]:
    """Generator indices with a positive exponent, ascending."""
    return tuple(i for i, k in enumerate(e, start=1) if k > 0)


def exp_unit(n: int) -> ExpVec:
    return (0,) * n


def exp_gen(n: int, i: int) -> ExpVec:
    e = [0] * n
    e[i - 1] = 1
    return tuple(e)


def exp_add(a: ExpVec, b: ExpVec) -> ExpVec:
    return tuple(x + y for x, y in zip(a, b))


def exp_add_gen(e: ExpVec, i: int) -> ExpVec:
    return e[: i - 1] + (e[i - 1] + 1,) + e[i:]


def exp_sub_gen(e: ExpVec, i: int) -> ExpVec:
    if e[i - 1] <= 0:
        raise InputError(f"generator {i} absent from {e}")
    return e[: i - 1] + (e[i - 1] - 1,) + e[i:]


def relabel_expvec(e: ExpVec, p: Perm) -> ExpVec:
    """Relabel generators by p: exponent of p(i) in the result is the
    exponent of i in e (the semigroup action of Sym_n on exponent vectors)."""
    out = [0] * len(e)
    for i, k in enumerate(e, start=1):
        out[p(i) - 1] = k
    return tuple(out)


def expvecs_of_degree(n: int, d: int) -> list[ExpVec]:
    """All exponent vectors of the given degree, lexicographically
    ascending; concatenating over d gives the graded-lex order.

    Stars and bars: n-1 bars among d+n-1 slots, the exponents being the
    gaps between them.  Bar positions in lex order give the exponent
    vectors in lex order, since each gap grows with its bar."""
    end = d + n - 1
    out = []
    for bars in itertools.combinations(range(end), n - 1):
        cuts = (-1, *bars, end)
        out.append(tuple(cuts[k + 1] - cuts[k] - 1 for k in range(n)))
    return out


def expvecs_up_to(n: int, dmax: int) -> list[ExpVec]:
    """Graded-lex enumeration of all exponent vectors of degree <= dmax."""
    out = []
    for d in range(dmax + 1):
        out.extend(expvecs_of_degree(n, d))
    return out


def all_words(n: int, m: int):
    """All n^m words of degree m, lexicographic."""
    return itertools.product(range(1, n + 1), repeat=m)


def format_word(w: Word, names: tuple[str, ...] | None = None) -> str:
    if not w:
        return "1"
    if names is None:
        return " ".join(f"x{a}" for a in w)
    return " ".join(names[a - 1] for a in w)


def format_expvec(e: ExpVec) -> str:
    return "(" + ",".join(str(k) for k in e) + ")"
