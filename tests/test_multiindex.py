import math

import numpy as np
import pytest

from exact_reference import grevlex_level, multinomial
from sphshift.multiindex import enumerate_level, level_count, rank


def test_level_m2_k2_exhaustive():
    lvl = enumerate_level(2, 2)
    assert lvl.tolist() == [[2, 0], [1, 1], [0, 2]]


def test_level_single_zero_index():
    assert enumerate_level(3, 0).tolist() == [[0, 0, 0]]


@pytest.mark.parametrize("m", range(1, 9))
def test_level_is_the_transcribed_order(m):
    for k in range(9):
        lvl = enumerate_level(m, k)
        assert lvl.dtype == np.intp and lvl.shape == (level_count(m, k), m)
        assert [tuple(n) for n in lvl.tolist()] == grevlex_level(m, k), (m, k)


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


def test_level_refuses_a_bad_arity_or_degree():
    with pytest.raises(ValueError, match="arity"):
        enumerate_level(0, 2)
    with pytest.raises(ValueError, match="degree"):
        enumerate_level(2, -1)


@pytest.mark.parametrize("m,N", [(1, 30), (2, 14), (3, 8), (5, 5), (8, 4)])
def test_rank_is_the_place_in_the_transcribed_order(m, N):
    order = [n for k in range(N + 1) for n in grevlex_level(m, k)]
    assert rank(np.array(order)).tolist() == list(range(len(order)))
    # any row order: rank is per row
    shuffled = np.random.default_rng(m).permutation(len(order))
    assert rank(np.array(order)[shuffled]).tolist() == shuffled.tolist()


def test_rank_of_no_rows_is_empty():
    assert rank(np.zeros((0, 3), dtype=np.intp)).shape == (0,)


def test_multinomial():
    assert multinomial((1, 1)) == 2
    assert multinomial((0, 0, 0)) == 1
    assert multinomial((2, 1, 1)) == math.factorial(4) // 2 == 12


def test_multinomial_theorem_exact():
    for m in range(1, 5):
        for k in range(13):
            assert sum(multinomial(a) for a in enumerate_level(m, k).tolist()) == m ** k
