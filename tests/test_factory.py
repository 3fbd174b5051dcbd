import copy
import hashlib
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from linwht import (
    AlgorithmSeq,
    FactorTuple,
    NotMemberError,
    build,
    enumerate_bit_index_members,
    enumerate_members,
    evaluate,
    factorize,
    hadamard,
    identity,
    iterative_ct,
    is_member,
    pease,
    reversed_inverted,
    sample_member,
    to_sequency,
)
from linwht.config import MEMBER_ENUM_MAX
from linwht import factory
from linwht.factory import census, survey_members
from linwht.gf2 import BitMatrix, DimensionError, SingularError, rotation_matrix
from linwht.groups import count_bit_index_algorithms, random_invertible
from linwht.membership import spreading_matrix
from linwht.textio import (
    AlgorithmDocument, format_document, format_factors, format_sequence, parse_document, parse_factors,
)

from helpers import N2_ROWS, naive_is_permutation, read_fixture


def random_coordinates(n: int, seed: int) -> tuple[BitMatrix, tuple[BitMatrix, ...]]:
    rng = random.Random(seed)
    return random_invertible(n, rng), tuple(random_invertible(n - 1, rng) for _ in range(n))


def random_factors(n: int, seed: int) -> FactorTuple:
    return FactorTuple(*random_coordinates(n, seed))


def assert_trusted_values_pass_checks(n: int, seed: int) -> None:
    """What build, reversed_inverted, to_sequency, the parser, enumerate_members(2),
    factorize and sample_member make without the constructor check holds its stages
    as one read-only (n+1, n) uint64 array, and equals, and hashes like, the same
    value checked.  Factor tuples, checked, from ``factorize`` or from the parser,
    hold B and the Q_i as read-only (n,) and (n, n-1) uint64 words, copies and
    unpickled values too, and give back the matrices they were made from."""
    b, qs = random_coordinates(n, seed)
    f = FactorTuple(b, qs)
    P = build(f)
    parsed = parse_document(format_document(AlgorithmDocument(P, {"seed": str(seed)}))).seq
    for Q in (P, reversed_inverted(P), to_sequency(P), parsed, *enumerate_members(2)):
        m = Q.n
        assert Q.stack.dtype == np.uint64 and Q.stack.shape == (m + 1, m)
        assert not Q.stack.flags.writeable and not copy.deepcopy(Q).stack.flags.writeable
        assert Q.stack.tolist() == [list(s.words) for s in Q.matrices]
        checked = AlgorithmSeq(Q.matrices)
        assert checked == Q and hash(checked) == hash(Q)
    g = factorize(P)
    for h in (f, g, parse_factors(format_factors(f)), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert h.b_words.dtype == h.q_words.dtype == np.uint64
        assert h.b_words.shape == (n,) and h.q_words.shape == (n, n - 1)
        assert not h.b_words.flags.writeable and not h.q_words.flags.writeable
        assert h.n == n and h.b == b and h.qs == qs
        assert h == f and hash(h) == hash(f)
    checked = FactorTuple(g.b, g.qs)
    assert checked == g and hash(checked) == hash(g)
    # sample_member draws the tuple that random_factors draws from the same seed
    assert sample_member(n, seed) == P


def test_factor_tuple_validation():
    with pytest.raises(DimensionError):
        FactorTuple(identity(2), (BitMatrix(0, 0, ()),))
    with pytest.raises(DimensionError):
        FactorTuple(identity(2), (identity(1),))
    with pytest.raises(ValueError):
        FactorTuple(BitMatrix(2, 2, (3, 3)), (identity(1), identity(1)))
    with pytest.raises(ValueError):
        FactorTuple(identity(3), (identity(2), BitMatrix(2, 2, (3, 3)), identity(2)))


def test_build_identity_factors_gives_constant_geometry():
    f = FactorTuple(identity(3), (identity(2),) * 3)
    assert build(f).key() == pease(3).key()


def test_build_n1():
    P = build(FactorTuple(identity(1), (BitMatrix(0, 0, ()),)))
    assert format_sequence(P) == "n=1; 1; 1"


def test_build_shuffle_b_lands_on_known_row():
    c2 = BitMatrix(2, 2, (1, 2))
    P = build(FactorTuple(c2, (identity(1), identity(1))))
    key = (tuple(m.to_text() for m in P), "10/01", spreading_matrix(P).to_text())
    assert key in N2_ROWS
    assert tuple(m.to_text() for m in P) == ("01/10", "01/10", "10/01")


def test_spreading_matrix_recovers_b():
    for seed in range(10):
        f = random_factors(4, seed)
        assert spreading_matrix(build(f)) == f.b


def _unbordered(m: BitMatrix) -> BitMatrix:
    """q from diag(q, 1)."""
    assert m.words[-1] == 1 and not any(w & 1 for w in m.words[:-1])
    return BitMatrix(m.rows - 1, m.rows - 1, tuple(w >> 1 for w in m.words[:-1]))


def _factorize_from_spreading(P: AlgorithmSeq) -> FactorTuple:
    """factorize as first written: B = spreading_matrix(P), B^-1 = B.inverse()."""
    b = spreading_matrix(P)
    c_t = rotation_matrix(P.n).transpose()
    tilde = b.inverse() @ P[0]
    qs = [_unbordered(tilde)]
    for i in range(1, P.n):
        tilde = c_t @ tilde @ P[i]
        qs.append(_unbordered(tilde))
    return FactorTuple(b, tuple(qs))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**30))
def test_factorize_matches_spreading_construction(n, seed):
    P = sample_member(n, seed)
    assert factorize(P) == _factorize_from_spreading(P)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**30))
def test_factorize_build_round_trip(n, seed):
    f = random_factors(n, seed)
    assert factorize(build(f)) == f
    assert_trusted_values_pass_checks(n, seed)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**30))
def test_build_factorize_round_trip(n, seed):
    P = sample_member(n, seed)
    assert build(factorize(P)).key() == P.key()


@pytest.mark.parametrize("n", [31, 32, 33, 64])
def test_round_trips_across_vector_product_threshold(n):
    """Sizes on both sides of 32, where ``@`` once switched to numpy, and the
    top size; build divides on (2n)-bit slots and factorize uses the bit stack."""
    for P in (sample_member(n, n), pease(n), iterative_ct(n)):
        assert build(factorize(P)).key() == P.key()
    f = random_factors(n, n)
    assert factorize(build(f)) == f
    assert_trusted_values_pass_checks(n, n)


@pytest.mark.parametrize("n", [1, 2, 16, 64])
def test_factor_tuple_words_round_trip(n):
    assert_trusted_values_pass_checks(n, 100 + n)


def test_factorize_rejects_non_members():
    with pytest.raises(NotMemberError):
        factorize(AlgorithmSeq((identity(2),) * 3))
    P = parse_document(read_fixture("break_inverse_n3.alg")).seq
    with pytest.raises(NotMemberError):
        factorize(P)


def test_factor_fixture_builds_constant_geometry():
    f = parse_factors(read_fixture("pease3.factors"))
    assert build(f).key() == pease(3).key()
    assert len(set(f.qs)) == 1


def test_factorize_checks_the_border(monkeypatch):
    """Given a wrong X^-1 for a member, the factors X^-1 * P_{0:i} lose
    their border, and ``factorize`` says so instead of dropping it."""
    P = sample_member(4, 1)
    report, prefix, x, x_inv = factory._structure(P)
    assert (x_inv != np.eye(4, dtype=np.uint8)).any()
    monkeypatch.setattr(factory, "_structure", lambda _: (report, prefix, x, np.eye(4, dtype=np.uint8)))
    with pytest.raises(RuntimeError, match="^internal error: factor matrix is not bordered$"):
        factorize(P)


def test_enumerate_members_n1():
    members = list(enumerate_members(1))
    assert len(members) == 1
    assert format_sequence(members[0]) == "n=1; 1; 1"


def test_enumerate_members_n2_matches_known_rows():
    rows = set()
    for P in enumerate_members(2):
        rows.add(
            (
                tuple(m.to_text() for m in P),
                (P[0] @ P[1] @ P[2]).to_text(),
                spreading_matrix(P).to_text(),
            )
        )
    assert rows == N2_ROWS


def test_enumerate_members_bounds():
    with pytest.raises(ValueError):
        list(enumerate_members(MEMBER_ENUM_MAX + 1))
    with pytest.raises(ValueError):
        list(enumerate_bit_index_members(5))


def test_survey_n2():
    s = survey_members(2, verify_oracle=True)
    assert (s.raw, s.distinct, s.verified) == (6, 6, 6)


@pytest.mark.parametrize("verify,verified", [(None, 0), ("fast", 6), ("oracle", 6)])
def test_census_verify_setting(verify, verified):
    """One setting picks no verification, the fast check, or the fast check plus the
    oracle; a sequence that fails the check counts as seen but not as verified."""
    members = list(enumerate_members(2)) + [pease(2), AlgorithmSeq((identity(2),) * 3)]
    s = census(members, 2, verify=verify)
    assert (s.raw, s.distinct, s.verified) == (8, 7, verified)


def test_census_rejects_unknown_verify_setting():
    with pytest.raises(ValueError, match="verify must be None, 'fast' or 'oracle', got 'Oracle'"):
        census(enumerate_members(2), 2, verify="Oracle")


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 48)])
def test_bit_index_enumeration_counts(n, expected):
    keys = set()
    for P in enumerate_bit_index_members(n):
        assert all(naive_is_permutation(m) for m in P)
        assert is_member(P)
        keys.add(P.key())
    assert len(keys) == expected == count_bit_index_algorithms(n)


def _digest(members) -> str:
    return hashlib.sha256("\n".join(P.key() for P in members).encode()).hexdigest()[:16]


@pytest.mark.parametrize("members, digest", [
    (lambda: enumerate_members(3), "2d83838b1ff0c609"),
    (lambda: enumerate_bit_index_members(4), "f3261e7fa33774c3"),
    (lambda: (sample_member(n, s) for n in (1, 2, 3, 5, 16, 17, 33, 64) for s in (0, 1, 2)),
     "04b128876a116d73"),
], ids=["enumerate3", "bit_index4", "samples"])
def test_construction_outputs_are_pinned(members, digest):
    """The keys, in order, of what the enumerations and seeded samples make,
    hashed: the elimination kernels behind them must not change a member."""
    assert _digest(members()) == digest


def test_sample_member_deterministic():
    assert sample_member(8, 42).key() == sample_member(8, 42).key()


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**30))
def test_sampled_members_verify(n, seed):
    P = sample_member(n, seed)
    assert is_member(P)
    if n <= 4:
        assert (evaluate(P) == hadamard(n)).all()


def test_sample_bounds():
    with pytest.raises(ValueError):
        sample_member(0)
    with pytest.raises(ValueError):
        sample_member(65)


def _bucket(key: str, buckets: int) -> int:
    return int.from_bytes(hashlib.md5(key.encode()).digest()[:4], "big") % buckets


def test_sampling_uniform_over_n3_members():
    """10^4 draws bucketed against the exact enumeration by key hash."""
    buckets = 48
    ground = [0] * buckets
    for P in enumerate_members(3):
        ground[_bucket(P.key(), buckets)] += 1
    total_members = sum(ground)
    assert total_members == 36288

    draws = 10_000
    observed = [0] * buckets
    for seed in range(draws):
        observed[_bucket(sample_member(3, seed).key(), buckets)] += 1
    expected = [draws * g / total_members for g in ground]
    p = stats.chisquare(observed, f_exp=expected).pvalue
    assert p > 0.001
