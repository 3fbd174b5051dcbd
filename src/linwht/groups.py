"""Enumeration, sampling and exact counting over GL_n(F2).

Counts use plain Python ints throughout, so they stay exact at every
size, and ``exact_str`` prints them in full; only enumeration is bounded.
"""

from __future__ import annotations

import decimal
import itertools
import math
import random
import warnings
from typing import Iterator

import numpy as np

from .config import GL_ENUM_MAX
from .gf2 import BitMatrix, _eliminate

__all__ = [
    "enumerate_gl",
    "enumerate_perm",
    "count_gl",
    "count_algorithms",
    "count_algorithms_simplified",
    "count_bit_index_algorithms",
]


def enumerate_gl(n: int) -> Iterator[BitMatrix]:
    """All invertible n x n bit matrices, in a fixed deterministic order.

    Rows are chosen top to bottom, each in increasing integer order
    among the words outside the span of the rows already placed.  Full
    enumeration is intended for n <= 4; n = 5 (about 10^7 matrices) is
    allowed with a warning.
    """
    if not 0 <= n <= GL_ENUM_MAX:
        raise ValueError(f"enumerate_gl supports 0 <= n <= {GL_ENUM_MAX}, got {n}")
    if n == GL_ENUM_MAX:
        warnings.warn(
            f"enumerating GL_{n}(F2) yields {count_gl(n)} matrices; this will take a while",
            RuntimeWarning,
            stacklevel=2,
        )
    return _gl_rec(n, (), frozenset((0,)))


def _gl_rec(n: int, rows: tuple[int, ...], span: frozenset[int]) -> Iterator[BitMatrix]:
    if len(rows) == n:
        yield BitMatrix(n, n, rows)
        return
    for w in range(1, 1 << n):
        if w in span:
            continue
        yield from _gl_rec(n, rows + (w,), span | {s ^ w for s in span})


def enumerate_perm(n: int) -> Iterator[BitMatrix]:
    """All n x n permutation matrices, in lexicographic order of the
    underlying permutation; row r of the matrix for p is e_{p(r)}.
    n=0 yields the empty matrix."""
    if n < 0:
        raise ValueError("enumerate_perm needs n >= 0")
    return (BitMatrix(n, n, tuple(1 << (n - 1 - p) for p in per)) for per in itertools.permutations(range(n)))


def random_invertible(n: int, rng: random.Random) -> BitMatrix:
    """Uniform draw from GL_n(F2) by rejection of uniform bit matrices.

    The acceptance rate converges to about 0.2888 as n grows, so the
    expected number of draws is under 4 for every n.
    """
    while True:
        m = BitMatrix(n, n, tuple(rng.getrandbits(n) for _ in range(n)))
        if m.rank() == n:
            return m


def _random_words(n: int, k: int, rng: random.Random) -> np.ndarray:
    """``[rng.getrandbits(n) for _ in range(k)]`` as uint64, n <= 64, in one call: CPython builds
    a word from one 32-bit output (n <= 32) or two, low first, so both take the same outputs."""
    if n <= 32:  # getrandbits(0) takes no output
        w = np.frombuffer(rng.getrandbits(32 * k if n else 0).to_bytes(4 * k, "little"), "<u4")
        return (w >> np.uint32(32 - n)).astype(np.uint64)
    w = np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"), "<u8")
    return w >> np.uint64(96 - n) << np.uint64(32) | w & np.uint64(0xFFFFFFFF)


def _random_invertibles(n: int, count: int, rng: random.Random) -> np.ndarray:
    """The row words of ``[random_invertible(n, rng) for _ in range(count)]``, (count, n) uint64,
    from rounds of about 3.5 candidates per matrix still needed; ``rng`` ends past the last round."""
    out = np.empty((0, n), np.uint64)
    while (need := count - len(out)) > 0:
        k = math.ceil(3.5 * need)
        cands = _random_words(n, k * n, rng).reshape(k, n)
        out = np.concatenate([out, cands[_eliminate(cands)[0] == n][:need]])
    return out


def count_gl(n: int) -> int:
    """|GL_n(F2)| = prod_{i<n} (2^n - 2^i); the empty product 1 at n = 0."""
    if n < 0:
        raise ValueError("count_gl needs n >= 0")
    return math.prod((1 << n) - (1 << i) for i in range(n))


def count_algorithms(n: int) -> int:
    """Number of distinct transform algorithms on n bits.

    Every algorithm corresponds to exactly one coordinate tuple
    (B, Q_1, ..., Q_n) in GL_n x GL_{n-1}^n, so the count is the product
    of the group orders.  Exhaustive generation at n = 3 confirms the
    value 36288 with no collisions.
    """
    if n < 1:
        raise ValueError("count_algorithms needs n >= 1")
    return count_gl(n) * count_gl(n - 1) ** n


def count_algorithms_simplified(n: int) -> int:
    """A simplified closed form, (2^{n+1}-2) * |GL_{n-1}|^{n+1}.

    Kept as a diagnostic: it treats |GL_n| as (2^{n+1}-2)*|GL_{n-1}|,
    which is only true at n = 2, so it differs from count_algorithms
    by a factor of 2^{n-2}.  Exhaustive generation at n = 3 agrees with
    count_algorithms, not with this form.
    """
    if n < 1:
        raise ValueError("count_algorithms_simplified needs n >= 1")
    return ((1 << (n + 1)) - 2) * count_gl(n - 1) ** (n + 1)


def count_bit_index_algorithms(n: int) -> int:
    """Algorithms whose stage matrices are all permutation matrices.

    Equals n * ((n-1)!)^{n+1}, i.e. n! * ((n-1)!)^n coordinate choices
    with B and every Q_i restricted to permutation matrices.
    """
    if n < 1:
        raise ValueError("count_bit_index_algorithms needs n >= 1")
    return n * math.factorial(n - 1) ** (n + 1)


def exact_str(x: int) -> str:
    """Decimal digits of x, at any size.

    ``str(x)`` refuses ints above the interpreter's digit limit (4300
    by default); ``Decimal(x)`` converts exactly without touching that
    global setting.
    """
    return str(decimal.Decimal(x))
