"""Shared fixtures and independent reference implementations.

The reference code here deliberately avoids the packed-word paths of
the library: matrices are lists of 0/1 ints and ranks come from a
textbook elimination, so library bugs cannot hide in both places.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import threading
from pathlib import Path

import numpy as np

from linwht import AlgorithmSeq, BitMatrix, evaluate, sample_member
from linwht.groups import random_invertible

FIXTURES = Path(__file__).parent / "fixtures"

# 8-point transform tabulated by hand from the sign rule
# entry(i, j) = (-1)^popcount(i & j).
WHT3 = np.array(
    [
        [1, 1, 1, 1, 1, 1, 1, 1],
        [1, -1, 1, -1, 1, -1, 1, -1],
        [1, 1, -1, -1, 1, 1, -1, -1],
        [1, -1, -1, 1, 1, -1, -1, 1],
        [1, 1, 1, 1, -1, -1, -1, -1],
        [1, -1, 1, -1, -1, 1, -1, 1],
        [1, 1, -1, -1, -1, -1, 1, 1],
        [1, -1, -1, 1, -1, 1, 1, -1],
    ],
    dtype=np.int32,
)

# the six n=2 members: stage texts, their product, and the spreading matrix
N2_ROWS = frozenset(
    {
        (("10/01", "01/10", "01/10"), "10/01", "10/01"),
        (("01/10", "01/10", "10/01"), "10/01", "01/10"),
        (("10/11", "01/10", "01/11"), "11/10", "10/11"),
        (("11/01", "01/10", "11/10"), "01/11", "11/01"),
        (("11/10", "01/10", "10/11"), "01/11", "11/10"),
        (("01/11", "01/10", "11/01"), "11/10", "01/11"),
    }
)


def read_fixture(name: str) -> str:
    return (FIXTURES / name).read_text()


def lists(m: BitMatrix) -> list[list[int]]:
    """The entries of m as rows of 0/1 ints, column 0 from the top bit of each row word."""
    return [[(w >> (m.cols - 1 - j)) & 1 for j in range(m.cols)] for w in m.words]


def naive_apply(q: BitMatrix, v: int) -> int:
    """q*v for the index v read as a bit column (top bit first): bit r of the
    result, from the top, is the parity of row r of q times those bits."""
    bits = [(v >> (q.cols - 1 - c)) & 1 for c in range(q.cols)]
    out = 0
    for row in lists(q):
        out = 2 * out + sum(a * b for a, b in zip(row, bits)) % 2
    return out


def naive_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Row i of a*b is the sum of the rows k of b with a[i][k] = 1, mod 2."""
    inner, cols = len(b), len(b[0]) if b else 0
    assert all(len(r) == inner for r in a)
    out = []
    for row in a:
        acc = [0] * cols
        for bit, b_row in zip(row, b):
            if bit:
                acc = list(map(operator.add, acc, b_row))
        out.append([v % 2 for v in acc])
    return out


def naive_rank(rows: list[list[int]]) -> int:
    m = [list(r) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                m[r] = [x ^ y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def naive_inverse(rows: list[list[int]]) -> list[list[int]]:
    """Textbook Gauss-Jordan on [A | I]; raises ValueError when A is singular."""
    n = len(rows)
    m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            raise ValueError("singular")
        m[c], m[pivot] = m[pivot], m[c]
        for r in range(n):
            if r != c and m[r][c]:
                m[r] = list(map(operator.xor, m[r], m[c]))
    return [r[n:] for r in m]


def naive_corner(P: AlgorithmSeq) -> bool:
    """The corner condition from every central product P_{k:l} (0 < k <= l < n)
    and its inverse, each formed entry by entry."""
    n = P.n
    for k in range(1, n):
        acc = lists(P[k])
        for l in range(k, n):
            if l > k:
                acc = naive_mul(acc, lists(P[l]))
            if acc[n - 1][n - 1] or naive_inverse(acc)[n - 1][n - 1]:
                return False
    return True


def naive_corner_witness(P: AlgorithmSeq):
    """The first (k, l), in ``naive_corner``'s order, whose central product
    has a 1 in its corner, with True when it is the inverse's corner; None
    when no corner is set."""
    n = P.n
    for k in range(1, n):
        acc = lists(P[k])
        for l in range(k, n):
            if l > k:
                acc = naive_mul(acc, lists(P[l]))
            if acc[n - 1][n - 1]:
                return k, l, False
            if naive_inverse(acc)[n - 1][n - 1]:
                return k, l, True
    return None


def naive_is_permutation(m: BitMatrix) -> bool:
    """Square, with exactly one 1 in every row and every column."""
    rows = lists(m)
    return m.rows == m.cols and all(sum(line) == 1 for line in rows + [list(c) for c in zip(*rows)])


def naive_prefix_products(P: AlgorithmSeq) -> list[list[list[int]]]:
    """P_{0:0}, P_{0:1}, ..., P_{0:n}, each multiplied entry by entry."""
    out = [lists(P[0])]
    for m in P.matrices[1:]:
        out.append(naive_mul(out[-1], lists(m)))
    return out


def naive_spreading(P: AlgorithmSeq, prefix=None) -> list[list[int]]:
    """X, whose column c is the last column of P_{0:n-1-c}; ``prefix``
    passes in ``naive_prefix_products(P)`` when it is already formed."""
    n = P.n
    prefix = prefix or naive_prefix_products(P)
    return [[prefix[n - 1 - c][r][n - 1] for c in range(n)] for r in range(n)]


def brute_gl(n: int) -> set[tuple[int, ...]]:
    """Every invertible n x n matrix as a word tuple, by exhaustive scan."""
    assert n <= 3
    out = set()
    for words in itertools.product(range(1 << n), repeat=n):
        rows = [[(w >> (n - 1 - c)) & 1 for c in range(n)] for w in words]
        if naive_rank(rows) == n:
            out.add(words)
    return out


def random_sequence(n: int, rng: random.Random) -> AlgorithmSeq:
    return AlgorithmSeq(tuple(random_invertible(n, rng) for _ in range(n + 1)))


def twisted_member(n: int, rng: random.Random) -> AlgorithmSeq:
    """A member with P_0 replaced by A*P_0 for a random A != I.

    Any nonidentity twist keeps the corner condition (it only touches
    P_0) and breaks the product condition.  GL_1 = {I} has no such
    twist, so n < 2 raises ValueError.
    """
    if n < 2:
        raise ValueError(f"no invertible {n}x{n} matrix other than I; need n >= 2")
    P = sample_member(n, rng.randrange(1 << 30))
    while True:
        a = random_invertible(n, rng)
        if any(a.words[r] != 1 << (n - 1 - r) for r in range(n)):
            break
    return AlgorithmSeq((a @ P[0],) + P.matrices[1:])


def forced_singular_sequence(n: int, rng: random.Random, fixed: int = 1) -> AlgorithmSeq:
    """Random sequence whose P_1..P_fixed (1 <= fixed < n) fix the last basis
    vector, which forces fixed + 1 equal columns in the spreading matrix, so
    its rank is at most n - fixed."""
    fixers = []
    for _ in range(fixed):
        inner = random_invertible(n - 1, rng)
        row = rng.randrange(1 << (n - 1))
        fixers.append(BitMatrix(n, n, tuple(w << 1 for w in inner.words) + ((row << 1) | 1,)))
    mats = [random_invertible(n, rng)] + fixers
    mats += [random_invertible(n, rng) for _ in range(n - fixed)]
    return AlgorithmSeq(tuple(mats))


def naive_format_factors(f) -> str:
    """The factor text written one matrix at a time through ``to_text``;
    at n = 1 the 0x0 inner matrix is written as nothing."""
    parts = [f"n={f.n}", f.b.to_text()] + ([q.to_text() for q in f.qs] if f.n > 1 else [])
    return f"{parts[0]}; " + "; ".join(parts[1:])


def perm_matrix(q: BitMatrix) -> np.ndarray:
    """Dense 0/1 matrix of the index permutation i -> q*i, entry by entry."""
    size = 1 << q.rows
    m = np.zeros((size, size), dtype=np.int64)
    for i in range(size):
        m[naive_apply(q, i), i] = 1
    return m


def naive_evaluate(P: AlgorithmSeq, first: int = 1, final_perm: bool = True) -> np.ndarray:
    """Dense product of the stage matrices, one matrix per step.

    Stage k is (I_{2^(n-1)} (x) F_2) times the permutation matrix of P_k;
    stages n..first are multiplied in order, then P_0 if ``final_perm``.
    """
    size = 1 << P.n
    butterfly = np.kron(np.eye(size // 2, dtype=np.int64), np.array([[1, 1], [1, -1]], dtype=np.int64))
    m = np.eye(size, dtype=np.int64)
    for k in range(P.n, first - 1, -1):
        m = butterfly @ perm_matrix(P[k]) @ m
    if final_perm:
        m = perm_matrix(P[0]) @ m
    return m


def naive_transform(P: AlgorithmSeq, x: np.ndarray) -> np.ndarray:
    """The stages run one at a time on the rows of x, in x's dtype.

    Each stage's index map i -> P_k i is the XOR of the columns P_k e_j
    over the set bits j of i, formed by numpy bit arithmetic.  Row i
    moves to row P_k i, then each natural-order pair (2j, 2j+1) becomes
    its sum and difference; stages run n..1, and P_0 moves the rows last.
    """
    n = P.n
    idx = np.arange(1 << n)

    def moved(q: BitMatrix, y: np.ndarray) -> np.ndarray:
        dest = np.zeros_like(idx)
        for j in range(n):
            dest ^= ((idx >> j) & 1) * naive_apply(q, 1 << j)
        out = np.empty_like(y)
        out[dest] = y
        return out

    y = np.array(x)
    for k in range(n, 0, -1):
        m = moved(P[k], y)
        y[0::2], y[1::2] = m[0::2] + m[1::2], m[0::2] - m[1::2]
    return moved(P[0], y)


def bit_reverse(i: int, n: int) -> int:
    return int(format(i, f"0{n}b")[::-1], 2)


def kron_hadamard(n: int) -> np.ndarray:
    """Product of the n matrices I_{2^(k-1)} (x) F_2 (x) I_{2^(n-k)}."""
    f2 = np.array([[1, 1], [1, -1]], dtype=np.int64)
    factors = [
        np.kron(np.kron(np.eye(1 << (k - 1), dtype=np.int64), f2), np.eye(1 << (n - k), dtype=np.int64))
        for k in range(1, n + 1)
    ]
    return functools.reduce(np.matmul, factors)


def reshape_fwht(x: np.ndarray) -> np.ndarray:
    """H_n times x along the first axis, by the textbook in-place butterfly.

    Each step views the rows as (high bits, one bit, low bits) and
    replaces each pair (a, b) across the middle axis by (a + b, a - b),
    one bit per step, so the result is in natural order.
    """
    size = x.shape[0]
    out = np.array(x)
    h = size >> 1
    while h:
        y = out.reshape(size // (2 * h), 2, h, -1)
        y[:, 0], y[:, 1] = y[:, 0] + y[:, 1], y[:, 0] - y[:, 1]
        h >>= 1
    return out


def border_all_ones(P: AlgorithmSeq) -> bool:
    w = evaluate(P)
    return bool((w[0] == 1).all() and (w[:, 0] == 1).all())


class SubtractFailsInWorkers:
    """Stands in for numpy in ``linwht.oracle``: ``subtract``, which only
    the butterflies call, raises MemoryError on any thread but the main one."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def subtract(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("Unable to allocate in a worker thread")
        return np.subtract(*args, **kwargs)
