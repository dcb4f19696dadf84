import math

import pytest
from hypothesis import given, strategies as st

from sphshift.multiindex import MultiIndex, enumerate_level, level_count, multinomial


def test_level_m2_k2_exhaustive():
    lvl = enumerate_level(2, 2)
    assert [tuple(n) for n in lvl] == [(2, 0), (1, 1), (0, 2)]
    assert len(lvl) == 3


def test_level_single_zero_index():
    lvl = enumerate_level(3, 0)
    assert [tuple(n) for n in lvl] == [(0, 0, 0)]


def test_level_m3_k6_count_matches_binomial():
    # brute-force enumeration is the oracle for the binomial count
    assert len(enumerate_level(3, 6)) == math.comb(8, 2) == 28


def test_level_count_small():
    assert level_count(2, 5) == 6
    assert level_count(3, 2) == 6


def test_level_count_4_30():
    assert level_count(4, 30) == 5456
    assert len(enumerate_level(4, 30)) == 5456


def test_level_count_matches_enumeration():
    for m in range(1, 5):
        for k in range(31):
            assert level_count(m, k) == len(enumerate_level(m, k))


def test_multinomial():
    assert multinomial((1, 1)) == 2
    assert multinomial((0, 0, 0)) == 1
    assert multinomial((2, 1, 1)) == math.factorial(4) // 2 == 12


def test_multinomial_theorem_exact():
    for m in range(1, 5):
        for k in range(13):
            assert sum(multinomial(a) for a in enumerate_level(m, k)) == m ** k


def test_rank_unrank_inverse():
    for m in range(1, 5):
        for k in range(13):
            lvl = enumerate_level(m, k)
            for i, n in enumerate(lvl):
                assert lvl.rank(n) == i
                assert lvl.unrank(i) == n


def test_unit_arithmetic():
    assert tuple(MultiIndex((1, 0)).add_unit(2)) == (1, 1)
    assert MultiIndex((0, 3)).sub_unit(1) is None
    assert tuple(MultiIndex((2, 1)).sub_unit(1)) == (1, 1)
    assert type(MultiIndex((2, 1)).add_unit(1).sub_unit(2)) is MultiIndex


def test_constructor_returns_a_multiindex_unchanged():
    n = MultiIndex((2, 0, 1))
    assert MultiIndex(n) is n


def test_degree():
    assert MultiIndex((2, 0, 5)).degree() == 7


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        MultiIndex(())
    with pytest.raises(ValueError):
        MultiIndex((1, -1))
    with pytest.raises(ValueError):
        MultiIndex((1, 0)).add_unit(3)


@given(st.integers(1, 4), st.integers(0, 12), st.data())
def test_rank_unrank_property(m, k, data):
    lvl = enumerate_level(m, k)
    i = data.draw(st.integers(0, len(lvl) - 1))
    n = lvl.unrank(i)
    assert lvl.rank(n) == i
    assert n.degree() == k
