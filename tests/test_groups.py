import math
import random

import numpy as np
import pytest
from scipy import stats

from linwht.gf2 import identity
from linwht.groups import (
    count_algorithms,
    count_algorithms_simplified,
    count_bit_index_algorithms,
    count_gl,
    enumerate_gl,
    enumerate_perm,
    random_invertible,
    _random_invertibles,
    _random_words,
)

from helpers import brute_gl, naive_is_permutation


def test_count_gl_values():
    assert [count_gl(n) for n in range(6)] == [1, 1, 6, 168, 20160, 9999360]


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_enumerate_matches_brute_force(n):
    got = [m.words for m in enumerate_gl(n)]
    assert len(got) == len(set(got)) == count_gl(n)
    if n:
        assert set(got) == brute_gl(n)


def test_enumerate_gl4_count_only():
    assert sum(1 for _ in enumerate_gl(4)) == 20160


def test_enumerate_gl_bounds_and_warning():
    with pytest.raises(ValueError):
        enumerate_gl(6)
    with pytest.warns(RuntimeWarning):
        it = enumerate_gl(5)
    assert next(it).rank() == 5


def test_enumerate_perm():
    perms = list(enumerate_perm(3))
    assert len(perms) == 6
    assert perms[0] == identity(3)
    assert all(naive_is_permutation(p) for p in perms)
    assert len({p.words for p in perms}) == 6


def test_random_invertible_deterministic():
    a = random_invertible(8, random.Random(123))
    b = random_invertible(8, random.Random(123))
    assert a == b
    assert a.rank() == 8


def test_random_invertible_degenerate():
    m = random_invertible(0, random.Random(0))
    assert m.rows == m.cols == 0


@pytest.mark.parametrize("m", [0, 1, 2, 15, 63, 64])
def test_batched_draws_follow_the_stream(m):
    """The batched drawer yields the row words of what sequential draws from an
    equal-seeded stream yield, for every count up to n = m + 1; at m = 0 it uses no bits."""
    for count in range(1, m + 2):
        ours, theirs = random.Random(count), random.Random(count)
        state = ours.getstate()
        got = _random_invertibles(m, count, ours)
        assert got.tolist() == [list(random_invertible(m, theirs).words) for _ in range(count)]
        assert got.shape == (count, m) and got.dtype == np.uint64
        if m == 0:
            assert ours.getstate() == state


@pytest.mark.parametrize("n", [0, 1, 2, 31, 32, 33, 63, 64])
@pytest.mark.parametrize("k", [1, 7, 224])
def test_one_call_draw_follows_the_stream(n, k):
    """One ``getrandbits`` call gives the words of k calls of ``getrandbits(n)``
    and leaves the generator in the same state."""
    ours, theirs = random.Random(n * 1000 + k), random.Random(n * 1000 + k)
    got = _random_words(n, k, ours)
    assert got.dtype == np.uint64
    assert got.tolist() == [theirs.getrandbits(n) for _ in range(k)]
    assert ours.getstate() == theirs.getstate()


def test_gl2_sampling_uniform():
    """Chi-square over the six GL_2 elements, 6000 draws."""
    rng = random.Random(2024)
    counts = {}
    for _ in range(6000):
        w = random_invertible(2, rng).words
        counts[w] = counts.get(w, 0) + 1
    assert set(counts) == brute_gl(2)
    p = stats.chisquare(list(counts.values())).pvalue
    assert p > 0.001


def test_count_algorithms_values():
    assert [count_algorithms(n) for n in range(1, 5)] == [1, 6, 36288, 16059338588160]
    for n in range(1, 8):
        assert count_algorithms(n) == count_gl(n) * count_gl(n - 1) ** n


def test_count_simplified_values():
    assert [count_algorithms_simplified(n) for n in range(1, 5)] == [2, 6, 18144, 4014834647040]
    for n in range(1, 8):
        assert count_algorithms_simplified(n) == (2 ** (n + 1) - 2) * count_gl(n - 1) ** (n + 1)


def test_simplified_undercounts_by_power_of_two():
    # the two closed forms differ by exactly 2^(n-2) at every size
    for n in range(1, 10):
        assert count_algorithms(n) * 4 == count_algorithms_simplified(n) << n


def test_count_bit_index_values():
    assert [count_bit_index_algorithms(n) for n in range(1, 5)] == [1, 2, 48, 31104]
    for n in range(1, 8):
        assert count_bit_index_algorithms(n) == math.factorial(n) * math.factorial(n - 1) ** n
