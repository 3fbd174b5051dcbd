import functools
import operator
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linwht.gf2 import (
    BitMatrix,
    DimensionError,
    SingularError,
    _eliminate,
    _mul_bits,
    _packed,
    _solve,
    _to_bits,
    _words,
    identity,
    parity,
    rotation_matrix,
)
from linwht.groups import random_invertible

from helpers import lists, naive_apply, naive_inverse, naive_mul, naive_rank


def matrices(rows=st.integers(1, 6), cols=None):
    def build(r, c, draw_words):
        return BitMatrix(r, c, tuple(draw_words))

    if cols is None:
        cols = rows
    return st.tuples(rows, cols).flatmap(
        lambda rc: st.builds(
            build,
            st.just(rc[0]),
            st.just(rc[1]),
            st.lists(st.integers(0, (1 << rc[1]) - 1), min_size=rc[0], max_size=rc[0]),
        )
    )


def square_matrices(max_n=6):
    return matrices(rows=st.integers(1, max_n))


def invertible_matrices(max_n=6):
    return st.tuples(st.integers(1, max_n), st.integers(0, 2**31)).map(
        lambda t: random_invertible(t[0], random.Random(t[1]))
    )


def naive_transpose(m: BitMatrix) -> list[list[int]]:
    rows = lists(m)
    return [[row[c] for row in rows] for c in range(m.cols)]


def test_text_example_packing():
    m = BitMatrix(2, 2, (1, 2))
    assert m.to_text() == "01/10"
    assert lists(m) == [[0, 1], [1, 0]]


def test_bad_shapes_rejected():
    with pytest.raises(DimensionError):
        BitMatrix(2, 2, (1, 2, 3))
    with pytest.raises(DimensionError):
        BitMatrix(1, 1, (2,))


@given(matrices(rows=st.integers(0, 6), cols=st.integers(0, 70)))
def test_to_text_writes_cols_digits_per_row(m):
    """Each row is exactly ``cols`` digits, so a row of a 0-column matrix is empty."""
    assert m.to_text() == "/".join("".join(map(str, row)) for row in lists(m))


def test_to_text_of_empty_shapes():
    assert BitMatrix(2, 0, (0, 0)).to_text() == "/"
    assert BitMatrix(0, 3, ()).transpose().to_text() == "//"
    assert BitMatrix(0, 3, ()).to_text() == ""


_WIDE = (1 << 100) - 3


@given(matrices(rows=st.integers(0, 6), cols=st.integers(0, 70)))
@example(BitMatrix(3, 0, (0, 0, 0)))
@example(BitMatrix(0, 4, ()))
@example(BitMatrix(1, 100, (_WIDE,)))
@example(BitMatrix(100, 1, tuple(int(i % 3 == 0) for i in range(100))))
def test_transpose_involution(m):
    t = m.transpose()
    assert (t.rows, t.cols) == (m.cols, m.rows)
    assert lists(t) == naive_transpose(m)
    assert t.transpose() == m


@settings(max_examples=60)
@given(st.data())
def test_matmul_against_naive(data):
    r = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, 5))
    c = data.draw(st.integers(1, 5))
    a = BitMatrix(r, k, tuple(data.draw(st.integers(0, (1 << k) - 1)) for _ in range(r)))
    b = BitMatrix(k, c, tuple(data.draw(st.integers(0, (1 << c) - 1)) for _ in range(k)))
    assert lists(a @ b) == naive_mul(lists(a), lists(b))


@st.composite
def product_pairs(draw, dims=st.integers(0, 5)):
    """a (r x k) and b (k x c), any of r, k, c possibly 0."""
    r, k, c = draw(dims), draw(dims), draw(dims)
    return draw(matrices(st.just(r), st.just(k))), draw(matrices(st.just(k), st.just(c)))


@settings(max_examples=40)
@given(product_pairs())
@example((BitMatrix(3, 2, (1, 2, 3)), BitMatrix(2, 0, (0, 0))))
@example((BitMatrix(0, 2, ()), BitMatrix(2, 4, (5, 10))))
@example((BitMatrix(1, 2, (3,)), BitMatrix(2, 100, (_WIDE, _WIDE >> 7))))
@example((BitMatrix(100, 2, tuple(i % 4 for i in range(100))), BitMatrix(2, 1, (1, 0))))
def test_transpose_of_product(pair):
    a, b = pair
    t = (a @ b).transpose()
    assert lists(t) == naive_transpose(a @ b)
    assert t == b.transpose() @ a.transpose()


def test_matmul_dimension_mismatch():
    a = identity(3)
    b = identity(2)
    with pytest.raises(DimensionError):
        a @ b


@given(square_matrices())
def test_rank_against_naive(m):
    assert m.rank() == naive_rank(lists(m))


@given(invertible_matrices())
def test_inverse_round_trip(m):
    inv = m.inverse()
    assert m @ inv == identity(m.rows)
    assert inv @ m == identity(m.rows)


def test_singular_reports_rank():
    m = BitMatrix(2, 2, (3, 3))
    with pytest.raises(SingularError) as e:
        m.inverse()
    assert e.value.rank == 1
    assert m.rank() < m.rows


@pytest.mark.parametrize(
    "rows, inner, cols, ones",
    [
        (31, 64, 64, False),
        (32, 32, 32, False),
        (64, 64, 64, True),
        (33, 64, 1, False),
        (40, 40, 100, False),
        (64, 64, 65, False),
    ],
)
def test_matmul_against_naive_across_vector_switch(rows, inner, cols, ones):
    """``@`` packs its left factor in one int and runs ``_mul``, the product
    ``oracle._plan`` runs too, at every size; shapes around 32 and 64 rows,
    inner dimensions and columns, and outputs wider than 64 columns, give
    the naive product."""
    rng = random.Random(rows * inner + cols)
    word = (lambda w: (1 << w) - 1) if ones else (lambda w: rng.randrange(1 << w))
    a = BitMatrix(rows, inner, tuple(word(inner) for _ in range(rows)))
    b = BitMatrix(inner, cols, tuple(word(cols) for _ in range(inner)))
    assert lists(a @ b) == naive_mul(lists(a), lists(b))


@st.composite
def word_stacks(draw):
    """n in 1..64 and a (stages, rows) nest of n-bit words, drawn with
    the extreme words 0 and 2^n - 1 as likely as any other."""
    n = draw(st.integers(1, 64))
    word = st.one_of(st.just(0), st.just((1 << n) - 1), st.integers(0, (1 << n) - 1))
    rows = draw(st.integers(1, 6))
    stages = draw(st.integers(1, 3))
    return n, draw(st.lists(st.lists(word, min_size=rows, max_size=rows), min_size=stages, max_size=stages))


@settings(max_examples=150, deadline=None)
@given(word_stacks())
@example((1, [[0, 1]]))
@example((64, [[0, (1 << 64) - 1, 1 << 63, 1]]))
def test_bit_stack_round_trip(case):
    """``_to_bits`` puts a word's most significant bit in column 0, and
    ``_words`` and ``_packed`` give back the same words from the stack."""
    n, words = case
    bits = _to_bits(words, n)
    assert bits.shape == (len(words), len(words[0]), n)
    assert bits.tolist() == [[[(w >> (n - 1 - j)) & 1 for j in range(n)] for w in ws] for ws in words]
    assert _words(bits).tolist() == words
    assert [_packed(b) for b in bits] == [BitMatrix(len(ws), n, tuple(ws)) for ws in words]


@st.composite
def square_word_pairs(draw):
    """n in 1..64 and the row words of two n x n matrices."""
    n = draw(st.integers(1, 64))
    words = st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
    return n, draw(words), draw(words)


@settings(max_examples=60, deadline=None)
@given(square_word_pairs())
@example((64, [(1 << 64) - 1] * 64, [(1 << 64) - 1] * 64))
def test_mul_bits_against_naive(case):
    """The float32 parity product is exact up to n = 64, where an
    all-ones product sums 64 ones in every entry."""
    n, a, b = case
    got = _mul_bits(_to_bits(a, n), _to_bits(b, n))
    assert got.tolist() == naive_mul(lists(BitMatrix(n, n, tuple(a))), lists(BitMatrix(n, n, tuple(b))))


def test_large_inverse_round_trip():
    rng = random.Random(9)
    m = random_invertible(64, rng)
    assert m @ m.inverse() == identity(64)


@st.composite
def wide_matrices(draw, square=False):
    """rows and cols drawn independently in 1..64 (or equal, if ``square``),
    with some rows zeroed and some repeating an earlier row, so that
    elimination meets full 64-bit words, empty pivots and dependencies."""
    rows = draw(st.integers(1, 64))
    cols = rows if square else draw(st.integers(1, 64))
    words = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    for i in draw(st.lists(st.integers(0, rows - 1), max_size=3)):
        words[i] = 0
    for i, j in draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, rows - 1)), max_size=3)):
        words[i] = words[j]
    return BitMatrix(rows, cols, tuple(words))


def _seeded(rows, cols, seed):
    rng = random.Random(seed)
    return BitMatrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))


@settings(max_examples=60, deadline=None)
@given(wide_matrices())
@example(_seeded(64, 64, 1))
@example(_seeded(64, 17, 2))
@example(_seeded(17, 64, 3))
def test_packed_rank_against_naive_wide(m):
    assert m.rank() == naive_rank(lists(m))


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    wide_matrices(square=True),
    st.tuples(st.integers(1, 64), st.integers(0, 2**31)).map(
        lambda t: random_invertible(t[0], random.Random(t[1]))),
), st.integers(0, 65), st.integers(0, 2**31))
@example(_seeded(64, 64, 4), 65, 6)
@example(random_invertible(64, random.Random(5)), 0, 7)
@example(random_invertible(64, random.Random(8)), 65, 9)
def test_packed_inverse_against_naive_wide(m, width, seed):
    """Either a two-sided inverse, equal to the textbook one, and ``_solve``
    of [m | b] equal to the textbook m^-1 * b for a right side b of 0..65
    columns, or SingularError carrying the rank from both."""
    b = _seeded(m.rows, width, seed)
    rows = [(x << width) | y for x, y in zip(m.words, b.words)]
    rank = naive_rank(lists(m))
    if rank < m.rows:
        for divide in (m.inverse, lambda: _solve(rows, width)):
            with pytest.raises(SingularError) as e:
                divide()
            assert e.value.rank == rank
            assert str(e.value) == f"matrix of rank {rank} < {m.rows} is singular"
        return
    inv = m.inverse()
    assert m @ inv == identity(m.rows) == inv @ m
    textbook = naive_inverse(lists(m))
    assert lists(inv) == textbook
    quotient = BitMatrix(m.rows, width, _solve(rows, width))
    assert lists(quotient) == naive_mul(textbook, lists(b))


@st.composite
def stacks(draw):
    """1..6 square matrices of one size n in 1..64, invertible, seeded or drawn,
    with a few rows given their top bit (bit 63 at n = 64), zeroed or repeated,
    which makes singular members; right parts of one width in 1..64."""
    n = draw(st.integers(1, 64))
    width = draw(st.integers(1, 64))
    a, b = [], []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("invertible", "seeded", "drawn")))
        if kind == "drawn":
            words = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
        else:
            seed = draw(st.integers(0, 2**31))
            m = random_invertible(n, random.Random(seed)) if kind == "invertible" else _seeded(n, n, seed)
            words = list(m.words)
        for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
            words[i] |= 1 << (n - 1)
        for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
            words[i] = 0
        for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2)):
            words[i] = words[j]
        a.append(words)
        b.append(_seeded(n, width, draw(st.integers(0, 2**31))).words)
    return n, width, a, b


def _singular_stack(n):
    """A case of ``stacks`` with no invertible member: a zero matrix, one with a repeated
    row and one whose last row is the sum of the others (at n = 1 all three are zero)."""
    rows = list(random_invertible(n, random.Random(n)).words)[:-1]
    repeated = rows + rows[:1] if n > 1 else [0]
    dependent = rows + [functools.reduce(operator.xor, rows, 0)]
    return n, n, [[0] * n, repeated, dependent], [_seeded(n, n, s).words for s in range(3)]


def _boundary_stack(n, width):
    """A case of ``stacks`` with an invertible member and one with a repeated row (zero at
    n = 1), whose right parts are exactly ``width`` bits wide: the max/min loop divides while
    n + width <= 64 and the argmin loop past that."""
    words = list(random_invertible(n, random.Random(n + width)).words)
    singular = words[:-1] + words[:1] if n > 1 else [0]
    right = [[(1 << (width - 1)) | w for w in _seeded(n, width, s).words] for s in range(2)]
    return n, width, [words, singular], right


@settings(max_examples=40, deadline=None)
@given(stacks())
@example((64, 64, [[(1 << 64) - 1 - (1 << r) for r in range(64)], list(_seeded(64, 64, 10).words),
                   [(1 << 63) | w for w in _seeded(64, 64, 11).words]],
          [_seeded(64, 64, 12).words] * 3))
@example((1, 1, [[0], [1]], [(1,), (1,)]))
@example(_singular_stack(1))
@example(_singular_stack(2))
@example(_singular_stack(32))
@example(_singular_stack(33))
@example(_singular_stack(63))
@example(_boundary_stack(32, 32))
@example(_boundary_stack(32, 33))
@example(_boundary_stack(33, 31))
@example(_boundary_stack(1, 63))
@example(_boundary_stack(63, 1))
@example(_boundary_stack(1, 64))
@example(_boundary_stack(64, 1))
@example(_singular_stack(64))
@example((64, 5, [list(random_invertible(64, random.Random(5)).words)], [_seeded(64, 5, 6).words]))
@example((5, 3, [], []))  # an empty stack
@example((0, 4, [[], []], [[], []]))  # 0 x 0 matrices
@example((64, 64, [[(1 << 63) | 0x2545F4914F6CDD1D] * 64], [_seeded(64, 64, 13).words]))  # rank 1, bit 63 set
@example((8, 8, [[0] * 8, [0x80] + [0] * 7, [0xFF] * 8, list(random_invertible(8, random.Random(8)).words)],
          [_seeded(8, 8, s).words for s in range(4)]))  # ranks 0, 1, 1 and 8 in one stack
def test_stack_elimination_against_naive(case):
    """Each rank equals the textbook rank, with and without right parts (the rank-only
    loop), and each full-rank quotient equals ``_solve`` on the same rows and the
    textbook a^-1 times b."""
    n, width, a, b = case
    naive = [naive_rank(lists(BitMatrix(n, n, tuple(w)))) for w in a]
    stack, right_parts = (np.array(w, np.uint64).reshape(len(w), n) for w in (a, b))  # (N, n) at N = 0 too
    assert _eliminate(stack)[0].tolist() == naive
    ranks, x = _eliminate(stack, right_parts)
    assert ranks.tolist() == naive
    for words, right, rank, got in zip(a, b, ranks.tolist(), x.tolist()):
        if rank < n:
            continue
        assert tuple(got) == _solve([(p << width) | q for p, q in zip(words, right)], width)
        textbook = naive_mul(naive_inverse(lists(BitMatrix(n, n, tuple(words)))),
                             lists(BitMatrix(n, width, tuple(right))))
        assert lists(BitMatrix(n, width, tuple(got))) == textbook


@pytest.mark.parametrize("n", [2, 31, 32, 33, 63, 64])
def test_packed_elimination_edge_rows(n):
    full = (1 << n) - 1
    assert BitMatrix(n, n, (0,) * n).rank() == 0
    assert BitMatrix(n, n, (full,) * n).rank() == 1
    assert BitMatrix(1, n, (full,)).rank() == 1
    assert BitMatrix(n, 1, (1,) * n).rank() == 1
    with pytest.raises(SingularError) as e:
        BitMatrix(n, n, (full,) * n).inverse()
    assert e.value.rank == 1
    # all ones on and above the diagonal: the inverse is bidiagonal
    upper = BitMatrix(n, n, tuple((1 << (n - r)) - 1 for r in range(n)))
    bidiagonal = tuple(3 << (n - 2 - r) for r in range(n - 1)) + (1,)
    assert upper.rank() == n
    assert upper.inverse().words == bidiagonal


def test_zero_size_rank_and_inverse():
    """The one-int loop needs a row width of at least one bit, so the empty shapes never reach it."""
    assert BitMatrix(0, 5, ()).rank() == 0
    assert BitMatrix(5, 0, (0,) * 5).rank() == 0
    assert BitMatrix(0, 0, ()).rank() == 0
    assert BitMatrix(0, 0, ()).inverse() == BitMatrix(0, 0, ())


def test_rotation_rotates_bits():
    c = rotation_matrix(4)
    for i in range(16):
        assert naive_apply(c, i) == ((i << 1) & 0xF) | (i >> 3)


def test_rotation_order_n():
    c = rotation_matrix(5)
    acc = identity(5)
    for _ in range(5):
        acc = acc @ c
    assert acc == identity(5)


def test_parity():
    assert parity(0) == 0
    assert parity(0b1011) == 1
    assert parity((1 << 64) | 1) == 0
