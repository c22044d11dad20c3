"""Independent brute-force oracles for the test suite.

Nothing here goes through the I-structure table: equality of words is
decided by closing under the degree-2 relations directly, which is the
ground truth the table-based decision procedure must reproduce.

The lattice searches at the end are the straightforward versions of
`freeness_check` and `fundamental_domain_check`: one `AffineIso` per
word or element, composed with the public `compose` and deduplicated by
the isometry itself.  The flat searches in `itype.bieberbach` must
return the same reports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from itype import AffineIso, act, affine_generators, compose, fixed_points
from itype.bieberbach import (
    FixedPointSet,
    FreenessReport,
    SignedWord,
    TilingReport,
    _box_points,
    _signed_generators,
    format_signed_word,
)


def relations_of_pairmap(r) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The defining relations of the semigroup of a pair map: w = r(w)
    for every non-fixed pair."""
    return [(w, img) for w, img in r.pairs() if img != w]


def closure(relations, w) -> frozenset:
    """All words reachable from w by applying a relation (either way) at
    any position."""
    rules = []
    for lhs, rhs in relations:
        rules.append((lhs, rhs))
        rules.append((rhs, lhs))
    seen = {w}
    todo = [w]
    while todo:
        cur = todo.pop()
        for pos in range(len(cur) - 1):
            pair = cur[pos : pos + 2]
            for src, dst in rules:
                if pair == src:
                    nxt = cur[:pos] + dst + cur[pos + 2 :]
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
    return frozenset(seen)


def class_index(n: int, relations, m: int) -> dict:
    """Map each word of degree m to a canonical label of its class (the
    least member)."""
    label = {}
    for w in itertools.product(range(1, n + 1), repeat=m):
        if w in label:
            continue
        cls = closure(relations, w)
        rep = min(cls)
        for u in cls:
            label[u] = rep
    return label


def words_equal_bf(relations, w1, w2) -> bool:
    if len(w1) != len(w2):
        return False
    return w2 in closure(relations, w1)


@dataclass(frozen=True)
class GroupElement:
    word: SignedWord
    iso: AffineIso


def freeness_check_bf(pm, L: int, generators: list[AffineIso] | None = None) -> FreenessReport:
    """Enumerate every reduced word in the generators and inverses up to
    length L.  A non-identity isometry with a fixed point fails the
    check; identity isometries from non-empty words are relations of the
    group, recorded, never failures."""
    gens = affine_generators(pm) if generators is None else generators
    signed = _signed_generators(gens)
    verdict: dict[AffineIso, FixedPointSet] = {}
    relations: list[SignedWord] = []
    frontier = [GroupElement((), AffineIso.identity(pm.n))]
    seen_isos = {frontier[0].iso}
    for _ in range(L):
        nxt = []
        for el in frontier:
            last = el.word[-1] if el.word else 0
            for s, g in signed:
                if s == -last:
                    continue  # cancellation: not a reduced word
                word = el.word + (s,)
                iso = compose(el.iso, g)
                nxt.append(GroupElement(word, iso))
                seen_isos.add(iso)
                if iso.is_identity():
                    relations.append(word)
                    continue
                fp = verdict.get(iso)
                if fp is None:
                    fp = fixed_points(iso)
                    verdict[iso] = fp
                if not fp.empty:
                    return FreenessReport(
                        False,
                        f"word {format_signed_word(word)} is not the identity yet "
                        f"fixes {fp.point}",
                        tuple(relations),
                        len(seen_isos),
                    )
        frontier = nxt
    relations.sort(key=lambda w: (len(w), w))
    return FreenessReport(True, "", tuple(relations), len(seen_isos))


def fundamental_domain_check_bf(
    pm, box: int, L: int, generators: list[AffineIso] | None = None
) -> TilingReport:
    """Orbit of the origin under all elements of word length <= L:
    distinct isometries must reach distinct points (simple transitivity),
    and every lattice point of the radius-`box` cube must be reached once
    L is large enough.  Missing points with no injectivity violation is
    'inconclusive', not failure."""
    gens = affine_generators(pm) if generators is None else generators
    signed = _signed_generators(gens)
    origin = (0,) * pm.n
    owner: dict[tuple, SignedWord] = {origin: ()}
    seen: dict[AffineIso, SignedWord] = {AffineIso.identity(pm.n): ()}
    frontier = list(seen.items())
    for _ in range(L):
        nxt = []
        for iso, word in frontier:
            for s, g in signed:
                new = compose(iso, g)
                if new in seen:
                    continue
                nw = word + (s,)
                seen[new] = nw
                nxt.append((new, nw))
                pt = act(new, origin)
                if pt in owner:
                    return TilingReport(
                        "fail",
                        f"distinct elements {format_signed_word(owner[pt])} and "
                        f"{format_signed_word(nw)} both send the origin to {pt}",
                        len(seen),
                        0,
                        (),
                    )
                owner[pt] = nw
        frontier = nxt
    box_points = list(_box_points(pm.n, box))
    missed = tuple(pt for pt in box_points if pt not in owner)
    covered = len(box_points) - len(missed)
    if missed:
        return TilingReport(
            "inconclusive",
            f"{len(missed)} of {len(box_points)} box points not reached at "
            f"word length {L}; raise L",
            len(seen),
            covered,
            missed,
        )
    return TilingReport("pass", "", len(seen), covered, ())
