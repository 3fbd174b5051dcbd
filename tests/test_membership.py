import itertools
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linwht import (
    AlgorithmSeq,
    CheckReport,
    ConditionError,
    SizeLimitError,
    check_corner_condition,
    check_membership,
    evaluate,
    factorize,
    hadamard,
    identity,
    is_member,
    pease,
    predict_plus_set,
    reversed_inverted,
    sample_member,
    spreading_matrix,
)
from linwht.gf2 import BitMatrix
from linwht.groups import enumerate_gl, random_invertible
from linwht.membership import _claimed_rows, _corner_witness, _structure, find_counterexample
from linwht.oracle import dependency_sets
from linwht.textio import format_sequence, parse_document

from helpers import (
    N2_ROWS,
    border_all_ones,
    forced_singular_sequence,
    lists,
    naive_corner,
    naive_corner_witness,
    naive_inverse,
    naive_mul,
    naive_prefix_products,
    naive_rank,
    naive_spreading,
    random_sequence,
    read_fixture,
    twisted_member,
)


def all_n2_sequences():
    gl2 = list(enumerate_gl(2))
    for t in itertools.product(gl2, repeat=3):
        yield AlgorithmSeq(t)


def test_exhaustive_n2_against_oracle():
    """Every one of the 216 possible n=2 sequences: the structural check
    agrees with dense evaluation, and exactly six pass."""
    h = hadamard(2)
    members = []
    for P in all_n2_sequences():
        fast = is_member(P)
        assert fast == bool((evaluate(P) == h).all())
        if fast:
            members.append(P)
    assert len(members) == 6
    rows = {
        (
            tuple(m.to_text() for m in P),
            (P[0] @ P[1] @ P[2]).to_text(),
            spreading_matrix(P).to_text(),
        )
        for P in members
    }
    assert rows == N2_ROWS


def test_spreading_matrix_of_pease_is_identity():
    for n in (1, 2, 3, 5):
        assert spreading_matrix(pease(n)) == identity(n)


def test_report_fields_on_member():
    r = check_membership(pease(3))
    assert r.passed and r.cond_product and r.cond_inverse and r.x_invertible
    assert r.witness is None


@pytest.mark.parametrize("n", [5, 6])
def test_fast_check_agrees_with_oracle_at_n5_n6(n):
    """Differential sweep: the structural check and the corner condition
    against dense evaluation, on members, twisted members, random and
    forced-singular sequences."""
    rng = random.Random(500 + n)
    h = hadamard(n)
    kinds = {
        "member": lambda: sample_member(n, rng.randrange(1 << 30)),
        "twisted": lambda: twisted_member(n, rng),
        "random": lambda: random_sequence(n, rng),
        "singular": lambda: forced_singular_sequence(n, rng),
    }
    for kind, draw in kinds.items():
        for _ in range(100):
            P = draw()
            r = check_membership(P)
            w = evaluate(P)
            assert r.passed == bool((w == h).all()), (kind, format_sequence(P))
            border = bool((w[0] == 1).all() and (w[:, 0] == 1).all())
            assert check_corner_condition(P) == r.cond_inverse == border, (kind, format_sequence(P))
            assert r.passed == (kind == "member")
            if kind == "singular":
                assert not r.x_invertible


def test_report_consistency_enforced():
    with pytest.raises(ValueError):
        CheckReport(True, True, True, False, None)
    with pytest.raises(ValueError):
        CheckReport(False, False, False, True, "x")


def test_singular_spreading_witness():
    rng = random.Random(21)
    P = forced_singular_sequence(3, rng)
    r = check_membership(P)
    assert not r.x_invertible and not r.passed and not r.cond_inverse
    assert "singular" in r.witness


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10), st.integers(1, 9), st.integers(0, 2**30))
@example(33, 1, 4)
@example(33, 7, 5)
@example(64, 1, 4)
@example(64, 9, 6)
def test_singular_witness_reports_the_rank(n, fixed, seed):
    """The singular-X witness prints the rank that the failed inversion of X
    reached, which is the rank of X."""
    P = forced_singular_sequence(n, random.Random(seed), min(fixed, n - 1))
    r = check_membership(P)
    rank = naive_rank(naive_spreading(P))
    assert rank < n
    assert r.witness == f"spreading matrix is singular (rank {rank} of {n})"


def test_identity_sequence_fails():
    # all stage products fix the last basis vector, so every column of X is e
    P = AlgorithmSeq((identity(2),) * 3)
    r = check_membership(P)
    assert not r.passed
    assert not r.x_invertible
    assert spreading_matrix(P).rank() == 1


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**30))
def test_members_pass_and_transpose_closure(n, seed):
    P = sample_member(n, seed)
    assert is_member(P)
    assert is_member(reversed_inverted(P))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 8), st.sampled_from(("member", "random")), st.integers(0, 2**30))
def test_outer_stages_never_change_the_inverse_condition(n, kind, seed):
    """The inverse condition reads neither P_n nor P_0 (X = P_0 * X', and row k of
    X^-1 * P_{0:n-k} is row k of X'^-1 * P_{1:n-k}), so new outer stages keep its verdict."""
    rng = random.Random(seed)
    P = sample_member(n, rng.randrange(1 << 30)) if kind == "member" else random_sequence(n, rng)
    outer = AlgorithmSeq((random_invertible(n, rng),) + P.matrices[1:-1] + (random_invertible(n, rng),))
    assert check_membership(outer).cond_inverse == check_membership(P).cond_inverse


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**30))
def test_twist_breaks_product_keeps_corner(n, seed):
    P = twisted_member(n, random.Random(seed))
    r = check_membership(P)
    assert r.cond_inverse and not r.cond_product and not r.passed
    assert check_corner_condition(P)


def test_corner_condition_equivalences_exhaustive_n2():
    for P in all_n2_sequences():
        corner = check_corner_condition(P)
        r = check_membership(P)
        assert corner == r.cond_inverse == border_all_ones(P)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 4), st.integers(0, 2**30))
def test_corner_condition_equivalences_random(n, seed):
    rng = random.Random(seed)
    P = {0: random_sequence(n, rng), 1: twisted_member(n, rng), 2: forced_singular_sequence(n, rng)}[seed % 3]
    corner = check_corner_condition(P)
    r = check_membership(P)
    assert corner == r.cond_inverse == border_all_ones(P)


def _corner_draw(n: int, kind: str, rng: random.Random) -> AlgorithmSeq:
    if kind == "member":
        return sample_member(n, rng.randrange(1 << 30))
    if kind == "twisted":
        return twisted_member(n, rng)
    if kind == "singular":
        return forced_singular_sequence(n, rng)
    return random_sequence(n, rng)


CORNER_KINDS = ("member", "twisted", "random", "singular")


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.sampled_from(CORNER_KINDS), st.integers(0, 2**30))
def test_corner_condition_against_naive(n, kind, seed):
    """The paper's equivalence of the corner condition and the inverse
    condition: ``check_corner_condition`` (the inverse condition, M*X = I)
    against every central product and its inverse, formed entry by entry."""
    if n == 1 and kind in ("twisted", "singular"):
        kind = "member"
    P = _corner_draw(n, kind, random.Random(seed))
    corner = check_corner_condition(P)
    assert corner == naive_corner(P)
    if kind in ("member", "twisted"):
        assert corner
    if kind == "singular":
        assert not corner


def test_corner_condition_against_naive_sweep():
    rng = random.Random(77)
    outcomes = set()
    for n in range(2, 9):
        for kind in CORNER_KINDS:
            for _ in range(6):
                P = _corner_draw(n, kind, rng)
                corner = check_corner_condition(P)
                assert corner == naive_corner(P), (kind, format_sequence(P))
                outcomes.add(corner)
    assert outcomes == {True, False}


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 6), st.sampled_from(("random", "singular")), st.integers(0, 2**30))
def test_corner_witness_against_naive(n, kind, seed):
    """The first failing pair (k, l) read off M*X is the first one a
    naive search over every central product finds."""
    P = _corner_draw(n, kind, random.Random(seed))
    bad = _corner_witness(P)
    assert bad == naive_corner_witness(P)
    assert check_corner_condition(P) == (bad is None)


def test_corner_witness_against_naive_sweep():
    rng = random.Random(78)
    kinds = set()
    for n in range(2, 7):
        for kind in ("random", "singular"):
            for _ in range(8):
                P = _corner_draw(n, kind, rng)
                bad = _corner_witness(P)
                assert bad == naive_corner_witness(P), (kind, format_sequence(P))
                kinds.add(None if bad is None else bad[2])
    assert kinds == {None, False, True}


def test_corner_n2_means_central_shuffle():
    c2 = BitMatrix(2, 2, (1, 2))
    for P in all_n2_sequences():
        assert check_corner_condition(P) == (P[1] == c2)


def test_plus_set_pease_n2():
    assert predict_plus_set(pease(2), 3) == frozenset({0, 3})
    assert predict_plus_set(pease(2), 0) == frozenset({0, 1, 2, 3})


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**30))
def test_plus_set_matches_oracle_on_members_and_twists(n, seed):
    rng = random.Random(seed)
    P = sample_member(n, seed) if seed % 2 else twisted_member(n, rng)
    for i in range(1 << n):
        assert predict_plus_set(P, i) == dependency_sets(P, 0, i).plus


def test_plus_set_requires_corner_condition():
    P = AlgorithmSeq((identity(2),) * 3)
    with pytest.raises(ConditionError):
        predict_plus_set(P, 1)
    with pytest.raises(ValueError):
        predict_plus_set(pease(2), 4)


def test_plus_set_refuses_sizes_above_oracle_limit():
    P = sample_member(15, seed=15)
    t0 = time.perf_counter()
    with pytest.raises(SizeLimitError):
        predict_plus_set(P, 1)
    assert time.perf_counter() - t0 < 1.0


def test_plus_set_limit_follows_active_limits(monkeypatch):
    P = sample_member(4, seed=4)
    monkeypatch.setenv("WHT_MAX_N", "3")
    with pytest.raises(SizeLimitError):
        predict_plus_set(P, 1)
    monkeypatch.setenv("WHT_MAX_N", "4")
    assert predict_plus_set(P, 1) == dependency_sets(P, 0, 1).plus


def test_plus_set_at_oracle_limit():
    P = sample_member(14, seed=14)
    for i in (0, 1, (1 << 14) - 1):
        assert predict_plus_set(P, i) == dependency_sets(P, 0, i).plus


SHARED_KINDS = ("member", "twisted", "random", "singular")


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 10), st.sampled_from(SHARED_KINDS), st.integers(0, 2**30))
# fixed draws where the bit stack is widest: n = 33 is past a 32-bit
# word, and at n = 63 and 64 a float32 parity product sums up to 64
# terms; random seeds 3 (n=33), 6 (n=63) and 5 (n=64) draw an invertible
# X that fails the inverse condition
@example(33, "member", 1)
@example(33, "twisted", 2)
@example(33, "random", 3)
@example(33, "singular", 4)
@example(63, "member", 1)
@example(63, "twisted", 2)
@example(63, "random", 6)
@example(63, "singular", 4)
@example(64, "member", 1)
@example(64, "twisted", 2)
@example(64, "random", 5)
@example(64, "singular", 4)
def test_shared_pass_against_naive(n, kind, seed):
    """The one structural pass returns the naive prefix products, the
    naive spreading matrix and, whenever X is invertible, the naive
    inverse of X; on every draw, singular X included, row k of
    the claimed rows M times the naive P_{0:n-k} is e^T, so it is the
    bottom row of P_{0:n-k}^{-1}."""
    if n == 1:
        kind = "member"
    P = _corner_draw(n, kind, random.Random(seed))
    report, prefix, x, x_inv = _structure(P)
    naive_prefix = naive_prefix_products(P)
    assert prefix.tolist() == naive_prefix
    assert lists(x) == naive_spreading(P, naive_prefix)
    assert x == spreading_matrix(P)
    if report.x_invertible:
        assert x_inv.tolist() == naive_inverse(lists(x))
    else:
        assert x_inv is None
    rows = _claimed_rows(P, prefix).tolist()
    e = [0] * (n - 1) + [1]
    for k in range(1, n + 1):
        assert naive_mul([rows[k - 1]], naive_prefix[n - k]) == [e]
    if kind == "member":
        assert report.passed


def test_prefix_products_exact_when_sums_reach_64():
    """Every stage is the 64x64 upper-triangular all-ones matrix U, so
    row 0 of U times column 63 of U sums 64 ones: the float32 parity
    chain must still give the naive prefix products and X."""
    n = 64
    u = BitMatrix(n, n, tuple((1 << (n - r)) - 1 for r in range(n)))
    rows = lists(u)
    assert sum(rows[0][k] * rows[k][n - 1] for k in range(n)) == n
    P = AlgorithmSeq((u,) * (n + 1))
    report, prefix, x, _ = _structure(P)
    naive_prefix = naive_prefix_products(P)
    assert prefix.tolist() == naive_prefix
    assert lists(x) == naive_spreading(P, naive_prefix)
    assert report == check_membership(P)


def test_matmul_calls_do_not_grow_with_n(monkeypatch):
    """The structural pass and factorize multiply on the bit stack, so
    their count of packed BitMatrix products is the same at n = 16 and
    n = 64."""
    members = {n: sample_member(n, n) for n in (16, 64)}
    calls = []
    packed = BitMatrix.__matmul__

    def counted(self, other):
        calls.append(self.rows)
        return packed(self, other)

    monkeypatch.setattr(BitMatrix, "__matmul__", counted)
    for fn in (check_membership, factorize):
        counts = []
        for P in members.values():
            calls.clear()
            fn(P)
            counts.append(len(calls))
        assert counts[0] == counts[1], (fn.__name__, counts)


def test_twisted_member_needs_two_bits():
    """GL_1 = {I} holds no twist, so the helper raises instead of looping."""
    with pytest.raises(ValueError):
        twisted_member(1, random.Random(0))
    assert not check_membership(twisted_member(2, random.Random(0))).cond_product


@pytest.mark.parametrize("which,n", [("product", 2), ("inverse", 2), ("product", 3), ("inverse", 3)])
def test_counterexample_search_reproduces_fixture(which, n):
    P = find_counterexample(n, which, seed=0)
    assert P is not None
    fixture = parse_document(read_fixture(f"break_{which}_n{n}.alg")).seq
    assert format_sequence(P) == format_sequence(fixture)


@pytest.mark.parametrize("name", ["break_product_n2", "break_inverse_n2", "break_product_n3", "break_inverse_n3"])
def test_frozen_counterexamples_still_split_conditions(name):
    P = parse_document(read_fixture(f"{name}.alg")).seq
    r = check_membership(P)
    assert not r.passed
    if "product" in name:
        assert r.cond_inverse and not r.cond_product
    else:
        assert r.cond_product and not r.cond_inverse
    assert not (evaluate(P) == hadamard(P.n)).all()


def _lists_product(mats):
    acc = lists(mats[0])
    for m in mats[1:]:
        acc = naive_mul(acc, lists(m))
    return acc


def test_product_witness_names_first_bad_row():
    P = parse_document(read_fixture("break_product_n3.alg")).seq
    witness = check_membership(P).witness
    assert witness.startswith("product of all stage matrices differs from X*X^T")
    x = lists(spreading_matrix(P))
    gram = naive_mul(x, [list(col) for col in zip(*x)])
    total = _lists_product(P.matrices)
    first = next(r for r in range(P.n) if total[r] != gram[r])
    assert first == 1
    assert witness.endswith(f"first in row {first + 1} of {P.n}")


def _naive_first_bad_inverse_row(P: AlgorithmSeq):
    """The first k where row k of the naive X^-1 is not the bottom row of
    the naive inverse of P_{0:n-k}, or None."""
    n = P.n
    x_inv = naive_inverse(naive_spreading(P))
    prefix = naive_prefix_products(P)
    return next((k for k in range(1, n + 1) if x_inv[k - 1] != naive_inverse(prefix[n - k])[n - 1]), None)


def _with_product_condition(P: AlgorithmSeq) -> AlgorithmSeq:
    """P with P_n replaced by P_{0:n-1}^-1 X X^T, formed entry by entry.

    Neither X nor the inverse condition reads P_n, so this keeps both
    and makes the product condition hold, which lets the witness name
    the inverse condition's row."""
    x = naive_spreading(P)
    gram = naive_mul(x, [list(col) for col in zip(*x)])
    rows = naive_mul(naive_inverse(naive_prefix_products(P)[P.n - 1]), gram)
    last = BitMatrix(P.n, P.n, tuple(int("".join(map(str, r)), 2) for r in rows))
    return AlgorithmSeq(P.matrices[:-1] + (last,))


def _inverse_witness_inputs():
    """The two frozen fixtures, then seeded random sequences whose X is
    invertible and fails the inverse condition."""
    for name in ("break_inverse_n2", "break_inverse_n3"):
        yield parse_document(read_fixture(f"{name}.alg")).seq
    for n in (4, 8, 16, 33):
        rng = random.Random(n)
        while True:
            P = random_sequence(n, rng)
            if naive_rank(naive_spreading(P)) == n and _naive_first_bad_inverse_row(P):
                break
        yield _with_product_condition(P)


def test_inverse_witness_names_first_bad_row():
    seen = []
    for P in _inverse_witness_inputs():
        n = P.n
        r = check_membership(P)
        assert r.cond_product and r.x_invertible and not r.cond_inverse
        assert r.witness.startswith("rows of X^-1 do not match the partial-product inverses")
        # row k of X^-1 should be the bottom row of P_{0:n-k}^-1
        k = _naive_first_bad_inverse_row(P)
        assert r.witness.endswith(f"row {k} of {n} is not the bottom row of P_0:{n - k}^-1")
        seen.append((n, k))
    assert seen[1] == (3, 2)


def test_counterexample_arg_validation():
    with pytest.raises(ValueError):
        find_counterexample(2, "both")
    with pytest.raises(ValueError):
        find_counterexample(1, "product")


def test_counterexample_budget_exhaustion():
    assert find_counterexample(2, "product", budget=0) is None
