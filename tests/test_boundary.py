"""The size contract 1 <= n <= N_MAX and the error types at the input boundary."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linwht import (
    AlgorithmSeq,
    FactorTuple,
    build,
    find_counterexample,
    identity,
    iterative_ct,
    pease,
    sample_member,
)
from linwht import membership
from linwht.config import N_MAX
from linwht.factory import enumerate_bit_index_members, enumerate_members
from linwht.gf2 import BitMatrix, DimensionError, SingularError, rotation_matrix
from linwht.groups import (
    count_algorithms,
    count_algorithms_simplified,
    count_bit_index_algorithms,
    count_gl,
    enumerate_gl,
    enumerate_perm,
    random_invertible,
)
from linwht.textio import ParseError, parse_document, parse_factors, parse_sequence

from helpers import lists, naive_rank, read_fixture

HUGE_N = "n=" + "9" * 5000 + "; 1; 1"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: pease(0), ValueError, "n must be >= 1, got 0"),
        (lambda: iterative_ct(0), ValueError, "n must be >= 1, got 0"),
        (lambda: BitMatrix(-1, 2, ()), DimensionError, "negative dimensions -1x2"),
        (lambda: BitMatrix(2, 3, (0, 0)).inverse(), DimensionError, "cannot invert 2x3"),
        (lambda: rotation_matrix(0), DimensionError, "rotation needs n >= 1"),
        (lambda: enumerate_perm(-1), ValueError, "enumerate_perm needs n >= 0"),
        (lambda: enumerate_gl(-1), ValueError, "enumerate_gl supports 0 <= n <= 5, got -1"),
        (lambda: enumerate_members(9), ValueError, "full enumeration supported for 1 <= n <= 3"),
        (lambda: enumerate_bit_index_members(9), ValueError, "bit-index enumeration supported for 1 <= n <= 4"),
        (lambda: count_gl(-1), ValueError, "count_gl needs n >= 0"),
        (lambda: count_algorithms(0), ValueError, "count_algorithms needs n >= 1"),
        (lambda: count_algorithms_simplified(0), ValueError, "count_algorithms_simplified needs n >= 1"),
        (lambda: count_bit_index_algorithms(0), ValueError, "count_bit_index_algorithms needs n >= 1"),
    ],
    ids=[
        "pease", "iterative_ct", "bitmatrix_negative", "inverse_non_square", "rotation", "enumerate_perm",
        "enumerate_gl", "enumerate_members", "enumerate_bit_index_members", "count_gl", "count_algorithms",
        "count_algorithms_simplified", "count_bit_index_algorithms",
    ],
)
def test_argument_checks_raise_at_the_call(call, error, message):
    """Each bad argument is refused by the call itself, an enumeration included, before
    any item is drawn: the exact exception type and message, with no iteration."""
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


def test_algorithm_seq_rejects_n_above_contract(monkeypatch):
    with pytest.raises(DimensionError):
        AlgorithmSeq((identity(N_MAX + 1),) * (N_MAX + 2))
    with pytest.raises(DimensionError):
        pease(80)
    # build trusts its FactorTuple, so the bound must hold there
    with pytest.raises(DimensionError):
        build(FactorTuple(identity(N_MAX + 1), (identity(N_MAX),) * (N_MAX + 1)))
    with pytest.raises(DimensionError):
        iterative_ct(N_MAX + 1)
    with pytest.raises(DimensionError):
        find_counterexample(N_MAX + 1, "product", budget=1)
    # the search bounds n before it draws, whatever the budget
    with pytest.raises(DimensionError):
        find_counterexample(N_MAX + 1, "product", budget=0)
    draws = []
    monkeypatch.setattr(
        membership, "random_invertible", lambda n, rng: draws.append(n) or random_invertible(n, rng)
    )
    with pytest.raises(DimensionError):
        find_counterexample(N_MAX + 1, "inverse", budget=5)
    assert draws == []
    assert AlgorithmSeq((identity(N_MAX),) * (N_MAX + 1)).n == N_MAX


def test_sample_member_rejects_n_above_contract():
    with pytest.raises(DimensionError):
        sample_member(N_MAX + 1)


@pytest.mark.parametrize("parse", [parse_document, parse_factors])
@pytest.mark.parametrize("header", [f"n={N_MAX + 1}", "n=0", "n=000", "n=100"])
def test_header_rejects_n_outside_contract(parse, header):
    with pytest.raises(ParseError) as e:
        parse(f"# name: x\n{header}; 1; 1")
    assert (e.value.line, e.value.column) == (2, 3)
    assert f"1..{N_MAX}" in str(e.value)


def test_header_checks_digit_count_before_int():
    with pytest.raises(ParseError) as e:
        parse_sequence(HUGE_N)
    assert (e.value.line, e.value.column) == (1, 3)
    assert "5000-digit" in str(e.value)
    with pytest.raises(ParseError):
        parse_factors(HUGE_N)


def test_header_accepts_leading_zeros_and_ascii_digits_only():
    assert parse_sequence("n=01; 1; 1").n == 1
    with pytest.raises(ParseError):
        parse_sequence("n=٢; 10/01; 01/10; 01/10")
    with pytest.raises(ParseError):
        parse_sequence("n=²; 10/01; 01/10; 01/10")


def test_factor_tuple_singular_carries_rank():
    with pytest.raises(SingularError) as e:
        FactorTuple(BitMatrix(2, 2, (3, 3)), (identity(1), identity(1)))
    assert e.value.rank == 1
    assert str(e.value) == "B is singular"
    with pytest.raises(SingularError) as e:
        FactorTuple(identity(3), (identity(2), BitMatrix(2, 2, (3, 3)), identity(2)))
    assert e.value.rank == 1
    assert str(e.value) == "inner matrix 2 is singular"
    with pytest.raises(SingularError) as e:
        parse_factors("n=1; 0")
    assert e.value.rank == 0
    with pytest.raises(SingularError) as e:
        parse_factors(read_fixture("singular_inner.factors"))
    assert str(e.value) == "inner matrix 2 is singular"
    with pytest.raises(DimensionError) as e:
        FactorTuple(BitMatrix(2, 3, (4, 2)), (identity(1), identity(1)))
    assert str(e.value) == "B is 2x3, expected 2x2"
    with pytest.raises(DimensionError) as e:
        FactorTuple(BitMatrix(0, 0, ()), ())
    assert str(e.value) == f"B is 0x0, expected n x n with 1 <= n <= {N_MAX}"


def test_algorithm_seq_rejects_non_square_stage():
    with pytest.raises(DimensionError) as e:
        AlgorithmSeq((identity(2), BitMatrix(3, 2, (2, 1, 3)), identity(2)))
    assert str(e.value) == "stage matrix 1 is 3x2, expected 2x2"


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_algorithm_seq_names_first_singular_stage(data):
    """Each stage in ``bad`` gets a row that is the sum of a subset of
    its other rows, so its rank falls below n; the error names the
    first such stage and carries that stage's rank."""
    n = data.draw(st.integers(1, 8))
    bad = data.draw(st.sets(st.integers(0, n), min_size=1))
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    mats = [random_invertible(n, rng) for _ in range(n + 1)]
    for k in bad:
        words = list(mats[k].words)
        r = data.draw(st.integers(0, n - 1))
        words[r] = 0
        for other in data.draw(st.sets(st.integers(0, n - 1))) - {r}:
            words[r] ^= words[other]
        mats[k] = BitMatrix(n, n, tuple(words))
    first = min(bad)
    with pytest.raises(SingularError) as e:
        AlgorithmSeq(tuple(mats))
    assert str(e.value) == f"stage matrix {first} is singular"
    assert e.value.rank == naive_rank(lists(mats[first]))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.text(),
        st.text(alphabet="n=0123456789;/ #:\n", max_size=80),
        st.builds(
            lambda n, body: f"n={n};{body}",
            st.integers(0, 3 * N_MAX),
            st.text(alphabet="01/; \n", max_size=60),
        ),
    ),
    st.sampled_from([parse_document, parse_factors]),
)
@example("n=1; 0", parse_factors)
@example("n=2; 11/11; 1; 1", parse_factors)
@example("n=1; 0; 1", parse_document)
@example(HUGE_N, parse_document)
@example(HUGE_N, parse_factors)
def test_parsers_raise_only_boundary_errors(text, parse):
    try:
        parse(text)
    except (ParseError, DimensionError, SingularError):
        pass


def _spoiled(m: BitMatrix, kind: str, rng: random.Random, keep_rows: bool) -> BitMatrix:
    """m made singular of rank n - j by setting j >= 1 of its rows to sums of subsets of
    the others (a 0x0 matrix cannot be), or else given a wrong shape, with m.rows rows
    if ``keep_rows``."""
    n = m.rows
    if kind == "singular" and n:
        words = list(m.words)
        spoilt = rng.sample(range(n), rng.randint(1, n))
        kept = [words[r] for r in range(n) if r not in spoilt]
        for r in spoilt:
            words[r] = 0
            for w in rng.sample(kept, rng.randint(0, len(kept))):
                words[r] ^= w
        return BitMatrix(n, n, tuple(words))
    sizes = range(max(n - 1, 0), n + 2)
    rows = n if keep_rows else rng.choice(sizes)
    cols = rng.choice([c for c in sizes if (rows, c) != (n, n)])
    return BitMatrix(rows, cols, tuple(rng.getrandbits(cols) if cols else 0 for _ in range(rows)))


def _expected_error(groups, spoiled):
    """The error the checks should raise over ``groups`` of (names, matrices, n), in
    check order: each group's shapes in index order, then its naive ranks.  Only the
    matrices named in ``spoiled`` are ranked; the others came from ``random_invertible``."""
    for names, mats, n in groups:
        for name, m in zip(names, mats):
            if (m.rows, m.cols) != (n, n):
                return DimensionError, f"{name} is {m.rows}x{m.cols}, expected {n}x{n}", None
        for name, m in zip(names, mats):
            if name in spoiled and (rank := naive_rank(lists(m))) != n:
                return SingularError, f"{name} is singular", rank
    return None


def _assert_raises_expected(make, expected):
    if expected is None:
        make()
        return
    kind, text, rank = expected
    with pytest.raises((DimensionError, SingularError)) as e:
        make()
    assert (type(e.value), str(e.value), getattr(e.value, "rank", None)) == (kind, text, rank)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, N_MAX),
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.integers(0, N_MAX), st.sampled_from(["shape", "singular"])), max_size=2),
)
@example(1, 0, [(1, "singular"), (0, "singular")])
@example(1, 1, [(1, "shape")])
@example(2, 2, [(2, "shape"), (0, "singular")])
@example(2, 3, [])
@example(N_MAX, 4, [(N_MAX, "singular"), (3, "shape")])
@example(N_MAX, 5, [(0, "singular"), (N_MAX, "singular")])
def test_stack_check_against_naive(n, seed, bad):
    """AlgorithmSeq and FactorTuple check every shape, then every rank, each in
    index order; zero, one or two spoiled matrices at drawn positions."""
    rng = random.Random(seed)
    spots = {at % (n + 1): kind for at, kind in bad}
    stages = [random_invertible(n, rng) for _ in range(n + 1)]
    for at, kind in spots.items():
        stages[at] = _spoiled(stages[at], kind, rng, keep_rows=False)
    names = [f"stage matrix {i}" for i in range(n + 1)]
    expected = _expected_error([(names, stages, n)], {names[at] for at in spots})
    _assert_raises_expected(lambda: AlgorithmSeq(tuple(stages)), expected)

    # position 0 is B, which keeps its n rows, as they fix n; position i is Q_i
    mats = [random_invertible(n, rng)] + [random_invertible(n - 1, rng) for _ in range(n)]
    for at, kind in spots.items():
        mats[at] = _spoiled(mats[at], kind, rng, keep_rows=at == 0)
    b, qs = mats[0], mats[1:]
    names = ["B"] + [f"inner matrix {i}" for i in range(1, n + 1)]
    expected = _expected_error([(names[:1], [b], n), (names[1:], qs, n - 1)], {names[at] for at in spots})
    _assert_raises_expected(lambda: FactorTuple(b, tuple(qs)), expected)
