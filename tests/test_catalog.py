import operator
import random
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linwht import (
    CATALOG,
    NotMemberError,
    check_membership,
    evaluate,
    hadamard,
    identity,
    is_member,
    iterative_ct,
    pease,
    pease_transpose,
    reversed_inverted,
    to_sequency,
)
from linwht.catalog import _bit_swap
from linwht.gf2 import BitMatrix
from linwht.textio import format_sequence

from helpers import bit_reverse, kron_hadamard, lists, naive_apply, naive_inverse, random_sequence


def test_catalog_names():
    assert set(CATALOG) == {"pease", "pease-t", "ict"}


def test_pease_n2_text():
    assert format_sequence(pease(2)) == "n=2; 10/01; 01/10; 01/10"


def test_pease_leading_identity():
    for n in (1, 3, 6):
        P = pease(n)
        assert P[0] == identity(n)
        assert len({P[k].words for k in range(1, n + 1)}) == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_catalog_members_fast(n):
    for fn in CATALOG.values():
        assert is_member(fn(n))


@pytest.mark.parametrize("n", range(1, 6))
def test_catalog_oracle_equality(n):
    h = hadamard(n)
    for fn in CATALOG.values():
        assert (evaluate(fn(n)) == h).all()


def test_pease_transpose_is_reversed_inverse():
    P = pease(3)
    T = pease_transpose(3)
    for k in range(4):
        assert T[k] == P[3 - k].inverse()
    assert (evaluate(T) == evaluate(P).T).all()
    for n in range(1, 65):
        assert check_membership(pease_transpose(n)).passed, n


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 64), st.integers(0, 2**32 - 1))
@example(1, 0)
@example(2, 1)
@example(32, 3)  # the last n whose divisions by the identity run on the max/min loop
@example(33, 4)
@example(64, 2)
def test_reversed_inverted_against_naive(n, seed):
    """Stage k of the result is the naive inverse of stage n - k, and the map is an involution."""
    P = random_sequence(n, random.Random(seed))
    T = reversed_inverted(P)
    for k in range(n + 1):
        assert lists(T[k]) == naive_inverse(lists(P[n - k])), k
    assert reversed_inverted(T) == P


def test_pease_transpose_n2_is_known_row():
    assert format_sequence(pease_transpose(2)) == "n=2; 01/10; 01/10; 10/01"


def test_ict_n1_trivial():
    assert format_sequence(iterative_ct(1)) == "n=1; 1; 1"


def test_ict_n2_text():
    # distinct from the constant-geometry sequence, same computed matrix
    assert format_sequence(iterative_ct(2)) == "n=2; 01/10; 01/10; 10/01"
    assert format_sequence(iterative_ct(2)) != format_sequence(pease(2))


@pytest.mark.parametrize("n", range(1, 6))
def test_ict_matches_kronecker_form(n):
    assert (evaluate(iterative_ct(n)) == kron_hadamard(n)).all()


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_ict_stage_locality(n):
    """The tail product from stage k back to the input equals the swap of
    bits k and n, so stage-k butterfly partners differ in exactly bit k."""
    P = iterative_ct(n)
    for k in range(1, n + 1):
        assert reduce(operator.matmul, P.matrices[k:]) == _bit_swap(n, k)
    assert P[n] == identity(n)


def test_bit_swap_matrix():
    t = _bit_swap(3, 1)
    assert [naive_apply(t, i) for i in range(8)] == [0, 4, 2, 6, 1, 5, 3, 7]
    assert _bit_swap(3, 3) == identity(3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sequency_rows_are_bit_reversed(n):
    w = evaluate(to_sequency(pease(n)))
    h = hadamard(n)
    for i in range(1 << n):
        assert (w[i] == h[bit_reverse(i, n)]).all()


def test_sequency_involution():
    for name, fn in CATALOG.items():
        P = fn(3)
        assert to_sequency(to_sequency(P)).key() == P.key()


def test_sequency_changes_only_first_matrix():
    P = pease(3)
    S = to_sequency(P)
    assert S.matrices[1:] == P.matrices[1:]
    assert S[0] != P[0]


def test_sequency_n1_identity():
    P = pease(1)
    assert to_sequency(P).key() == P.key()


def test_sequency_rejects_garbage():
    import random

    P = random_sequence(3, random.Random(0))
    assert not is_member(P)
    with pytest.raises(NotMemberError):
        to_sequency(P)


def test_sequency_distinct_members_stay_distinct():
    seen = {to_sequency(fn(3)).key() for fn in CATALOG.values()}
    originals = {fn(3).key() for fn in CATALOG.values()}
    assert len(seen) == len(originals)
