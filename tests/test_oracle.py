import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linwht import (
    AlgorithmSeq,
    SizeLimitError,
    evaluate,
    hadamard,
    pease,
    reversed_inverted,
)
from linwht.gf2 import BitMatrix, parity, rotation_matrix
from linwht.groups import random_invertible
from linwht.oracle import dependency_sets, evaluate_partial, perm_indices

from helpers import (
    WHT3,
    forced_singular_sequence,
    kron_hadamard,
    perm_matrix,
    random_sequence,
)


def test_hadamard_matches_hand_table():
    assert (hadamard(3) == WHT3).all()


def test_hadamard_sign_rule():
    h = hadamard(4)
    for i in (0, 3, 9, 15):
        for j in (0, 5, 10, 14):
            assert h[i, j] == (-1) ** parity(i & j)


def test_hadamard_first_row_and_column_ones():
    h = hadamard(5)
    assert (h[0] == 1).all() and (h[:, 0] == 1).all()


def test_hadamard_orthogonality():
    h = hadamard(4)
    assert (h @ h == 16 * np.eye(16, dtype=np.int32)).all()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hadamard_equals_kron_product(n):
    assert (hadamard(n) == kron_hadamard(n)).all()


def test_perm_indices_matches_apply():
    rng = random.Random(1)
    q = random_invertible(4, rng)
    idx = perm_indices(q)
    assert sorted(idx) == list(range(16))
    for i in range(16):
        assert idx[i] == q.apply(i)


def test_perm_indices_rejects_singular():
    with pytest.raises(ValueError):
        perm_indices(BitMatrix.from_text("11/11"))


@settings(max_examples=30)
@given(st.integers(1, 4), st.integers(0, 2**30), st.integers(0, 2**30))
def test_linear_perm_composition(n, s1, s2):
    q = random_invertible(n, random.Random(s1))
    r = random_invertible(n, random.Random(s2))
    assert (perm_indices(q @ r) == perm_indices(q)[perm_indices(r)]).all()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pease_evaluates_to_transform(n):
    assert (evaluate(pease(n)) == hadamard(n)).all()


def test_single_stage_partial_product():
    # last stage of the n=2 constant-geometry sequence: butterfly after shuffle
    P = pease(2)
    got = evaluate_partial(P, 2)
    f2 = np.array([[1, 1], [1, -1]], dtype=np.int64)
    b = np.kron(np.eye(2, dtype=np.int64), f2)
    assert (got == b @ perm_matrix(rotation_matrix(2))).all()


def test_partial_product_chain():
    rng = random.Random(7)
    P = random_sequence(3, rng)
    full = evaluate_partial(P, 1)
    assert (evaluate(P) == perm_matrix(P[0]) @ full).all()
    assert (evaluate_partial(P, 4) == np.eye(8)).all()


def test_partial_bounds():
    P = pease(2)
    with pytest.raises(ValueError):
        evaluate_partial(P, 0)
    with pytest.raises(ValueError):
        evaluate_partial(P, 4)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**30))
def test_transpose_symmetry(n, seed):
    """The computed matrix of the reversed-inverted sequence is the
    transpose, member or not."""
    P = random_sequence(n, random.Random(seed))
    assert (evaluate(reversed_inverted(P)) == evaluate(P).T).all()


def test_dependency_sets_read_off_columns():
    P = pease(2)
    d = dependency_sets(P, 1, 0)
    assert d.support == frozenset({0, 1, 2, 3})
    assert d.minus == frozenset()
    assert d.plus == frozenset({0, 1, 2, 3})


def test_dependency_sets_match_partial_matrix():
    rng = random.Random(3)
    P = random_sequence(3, rng)
    for k in range(1, 5):
        m = evaluate_partial(P, k)
        for i in range(8):
            d = dependency_sets(P, k, i)
            col = m[:, i]
            assert d.support == frozenset(np.flatnonzero(col != 0).tolist())
            assert d.plus == frozenset(np.flatnonzero(col > 0).tolist())
            assert d.minus == frozenset(np.flatnonzero(col < 0).tolist())


def test_dependency_sets_full_product():
    P = pease(3)
    h = hadamard(3)
    for i in range(8):
        d = dependency_sets(P, 0, i)
        assert d.plus == frozenset(np.flatnonzero(h[:, i] > 0).tolist())
        assert d.minus == frozenset(np.flatnonzero(h[:, i] < 0).tolist())


def test_row_support_bounded_by_spreading_rank():
    """Rows of the computed matrix can never have more nonzeros than
    2^rank(X)."""
    from linwht import spreading_matrix

    rng = random.Random(17)
    for trial in range(100):
        if trial % 2:
            P = forced_singular_sequence(3, rng)
        else:
            P = random_sequence(3, rng)
        bound = 1 << spreading_matrix(P).rank()
        w = evaluate(P)
        assert int(np.count_nonzero(w, axis=1).max()) <= bound


def test_size_guard_default():
    with pytest.raises(SizeLimitError):
        hadamard(15)
    with pytest.raises(SizeLimitError):
        evaluate(pease(15))


def test_size_guard_env_override(monkeypatch):
    monkeypatch.setenv("WHT_MAX_N", "4")
    with pytest.raises(SizeLimitError):
        hadamard(5)
    assert hadamard(4).shape == (16, 16)
    monkeypatch.setenv("WHT_MAX_N", "bogus")
    with pytest.raises(ValueError):
        hadamard(2)
