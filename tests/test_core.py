import itertools

import pytest

from itype.core import (
    InputError,
    Perm,
    abelianize,
    all_perms,
    closure,
    compose_perm,
    expvec_level,
    format_word,
    relabel_expvec,
    sort_word,
)

from oracles import exp_sub_gen, expvecs_up_to


def test_abelianize():
    assert abelianize((), 2) == (0, 0)
    assert abelianize((2, 1, 1), 2) == (2, 1)
    assert abelianize((3, 3, 1), 3) == (1, 0, 2)


def test_sort_word():
    assert sort_word((2, 1)) == (1, 2)
    assert sort_word(()) == ()
    assert sort_word((3, 1, 2)) == (1, 2, 3)


def test_sort_word_preserves_abelianization():
    for m in range(5):
        for w in itertools.product((1, 2, 3), repeat=m):
            assert abelianize(sort_word(w), 3) == abelianize(w, 3)
            assert sort_word(sort_word(w)) == sort_word(w)


def test_compose_identity():
    p = Perm((2, 3, 1))
    assert compose_perm(Perm.identity(3), p) == p
    assert compose_perm(p, Perm.identity(3)) == p


def test_compose_involution():
    swap = Perm((2, 1))
    assert compose_perm(swap, swap) == Perm.identity(2)


def test_compose_convention():
    # (p o q)(i) = p(q(i)) with p the 3-cycle 1->2->3->1 and q the swap
    p = Perm((2, 3, 1))
    q = Perm((2, 1, 3))
    assert compose_perm(p, q).images == (3, 2, 1)


def test_compose_associative_and_inverses():
    for p, q, s in itertools.product(all_perms(3), repeat=3):
        assert (p * q) * s == p * (q * s)
    for p in all_perms(3):
        assert p * p.inverse() == Perm.identity(3)
        assert p.inverse() * p == Perm.identity(3)


def test_perm_validation():
    with pytest.raises(InputError):
        Perm((1, 1))
    with pytest.raises(InputError):
        compose_perm(Perm.identity(2), Perm.identity(3))


def test_perm_cycles():
    assert Perm((2, 1, 3)).cycles() == [(1, 2), (3,)]
    assert Perm((2, 3, 1)).cycles() == [(1, 2, 3)]


def test_expvec_enumeration_graded_lex():
    assert expvec_level(2, 2) == ((0, 2), (1, 1), (2, 0))
    vecs = expvecs_up_to(3, 4)
    assert len(vecs) == len(set(vecs))
    degrees = [sum(v) for v in vecs]
    assert degrees == sorted(degrees)
    from math import comb

    assert len(vecs) == sum(comb(3 + d - 1, d) for d in range(5))


def test_relabel_expvec():
    # u_1^2 u_2 relabeled by the swap becomes u_2^2 u_1
    assert relabel_expvec((2, 1), Perm((2, 1))) == (1, 2)
    sigma = Perm((2, 3, 1))
    assert relabel_expvec((1, 0, 0), sigma) == (0, 1, 0)


def test_exp_sub_gen_refuses_an_absent_generator():
    assert exp_sub_gen((1, 2), 2) == (1, 1)
    with pytest.raises(InputError, match=r"generator 2 absent from \(1, 0\)"):
        exp_sub_gen((1, 0), 2)


def test_closure_is_breadth_first_from_the_start():
    # a 6-cycle 0 -> 1 -> ... -> 5 -> 0 with chords k -> k + 3: start first,
    # then each element where it is first met, and the walk ends
    def moves(k):
        return (k + 1) % 6, (k + 3) % 6

    assert closure([0], moves) == [0, 1, 3, 2, 4, 5]
    assert closure([4, 2, 4], moves) == [4, 2, 5, 1, 3, 0]  # start deduplicated, in order
    assert closure(["a"], lambda w: [w + "a"] if len(w) < 3 else []) == ["a", "aa", "aaa"]
    assert closure([], moves) == []


def test_closure_to_a_depth_is_the_prefix_within_that_many_moves():
    # on the same 6-cycle: 5 lies three moves from 0, and each depth keeps
    # the unbounded closure's order
    def moves(k):
        return (k + 1) % 6, (k + 3) % 6

    full = closure([0], moves)
    assert [closure([0], moves, depth) for depth in range(5)] == [
        [0],
        [0, 1, 3],
        [0, 1, 3, 2, 4],
        full,
        full,
    ]
    assert closure([4, 2, 4], moves, 0) == [4, 2]
    assert closure([], moves, 2) == []


def test_closure_of_generators_is_the_group_they_generate():
    swap, cyc = Perm((2, 1, 3)), Perm((2, 3, 1))
    group = closure([swap, cyc], lambda p: [p * swap, p * cyc])
    assert group[:2] == [swap, cyc] and sorted(group, key=lambda p: p.images) == all_perms(3)


def test_format_word_names_inverse_letters():
    assert format_word((1, -2), ("x", "y")) == "x y^-1"
    assert format_word((-1,)) == "x1^-1"
    assert format_word(()) == "1"
    assert format_word((2, 1, -1), ("x", "y")) == "y x x^-1"
