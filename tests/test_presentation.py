import pytest

from itype import (
    InputError,
    Presentation,
    build_r,
    check_cyclic,
    check_star1,
    check_star2,
    check_star3,
    format_presentation,
    parse_presentation,
    parse_word,
    star_report,
)
from itype.presentation import rewrite_class

from conftest import COMM2_TEXT, X2Y2_TEXT, commutative_presentation


def test_parse_x2y2():
    p = parse_presentation(X2Y2_TEXT)
    assert p.n == 2
    assert p.relations == (((2, 2), (1, 1)),)


def test_parse_commutative():
    p = parse_presentation(COMM2_TEXT)
    assert p.relations == (((2, 1), (1, 2)),)


def test_parse_free_rank_one():
    p = parse_presentation("gens x\n")
    assert p.n == 1
    assert p.relations == ()


def test_parse_comments_and_errors():
    p = parse_presentation("# header\ngens x y  # alphabet\nrel y x = x y\n")
    assert p.n == 2
    with pytest.raises(InputError, match="line 1"):
        parse_presentation("rel y x = x y\n")
    with pytest.raises(InputError, match="degree 2"):
        parse_presentation("gens x y\nrel y x x = x y\n")
    with pytest.raises(InputError, match="unknown generator"):
        parse_presentation("gens x y\nrel y z = x y\n")
    with pytest.raises(InputError, match="duplicate relation"):
        parse_presentation("gens x y\nrel y x = x y\nrel x y = y x\n")
    with pytest.raises(InputError, match="trivial"):
        parse_presentation("gens x y\nrel x y = x y\n")


def test_format_round_trip():
    for text in (X2Y2_TEXT, COMM2_TEXT, "gens a b c\nrel b a = a b\nrel c a = a c\nrel c b = b c\n"):
        assert format_presentation(parse_presentation(text)) == text


def test_parse_word():
    names = ("x", "y")
    assert parse_word("x y y", names) == (1, 2, 2)
    assert parse_word("1", names) == ()
    with pytest.raises(InputError):
        parse_word("x q", names)


def test_star1():
    assert check_star1(parse_presentation(COMM2_TEXT)).ok
    res = check_star1(parse_presentation(X2Y2_TEXT))
    assert not res.ok and "y y" in res.witness
    assert check_star1(parse_presentation("gens x\n")).ok  # vacuous


def test_star2():
    assert check_star2(parse_presentation(COMM2_TEXT)).ok
    assert check_star2(commutative_presentation(3)).ok
    # two relations sharing the right-side pair (1,2)
    p = Presentation(("x", "y", "z"), (((2, 1), (1, 2)), ((3, 1), (1, 2)), ((3, 2), (1, 3))))
    assert check_star1(p).ok
    res = check_star2(p)
    assert not res.ok and "duplicated" in res.witness


def test_star3():
    assert check_star3(commutative_presentation(2)).ok
    assert check_star3(commutative_presentation(3)).ok
    # passes star1 and star2 but a degree-3 class has two sorted words
    p = Presentation(("x", "y", "z"), (((2, 1), (1, 3)), ((3, 1), (2, 3)), ((3, 2), (1, 2))))
    assert check_star1(p).ok and check_star2(p).ok
    res = check_star3(p)
    assert not res.ok and "2 sorted words" in res.witness


def test_rewrite_class_sizes_divide_six(star_corpus):
    from itype.core import all_words

    for n, plist in star_corpus.items():
        for p in plist:
            for w in all_words(p.n, 3):
                assert 6 % len(rewrite_class(p, w)) == 0


def test_cyclic_commutative():
    p = parse_presentation(COMM2_TEXT)
    r = build_r(p)
    res = check_cyclic(r)
    assert res.ok
    # the flip sends x x y to y x x at positions 2 then 1
    assert r.apply_at(r.apply_at((1, 1, 2), 2), 1) == (2, 1, 1)


def test_cyclic_rank_one():
    assert check_cyclic(build_r(parse_presentation("gens x\n"))).ok


def test_cyclic_x2y2(x2y2, x2y2_r):
    assert check_cyclic(x2y2_r).ok


def test_star_report(x2y2, x2y2_r):
    sr = star_report(x2y2)
    assert not sr.star1.ok and check_cyclic(x2y2_r).ok
    assert not sr.all_star_ok()
    sr2 = star_report(commutative_presentation(3))
    assert sr2.all_star_ok()


def test_star_passing_shape(star_corpus):
    # j, j' > i, i' for every relation, and exactly n(n-1)/2 relations
    for n, plist in star_corpus.items():
        assert commutative_presentation(n).relations in {
            tuple(p.relations) for p in plist
        }
        for p in plist:
            assert len(p.relations) == n * (n - 1) // 2
            for (j, i), (ip, jp) in p.relations:
                assert j > i and j > ip and jp > i and jp > ip
