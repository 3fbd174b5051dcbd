"""Exact linear algebra over GF(2) with bit-packed rows.

A matrix stores one Python int per row.  The most significant bit of a
row word is column 0, so a row's integer value reads the same as its
bit string: the matrix ``01/10`` has words ``(1, 2)``.  Column vectors
use the same convention, which makes them literally equal to the index
integers they encode: the packed form of the binary digits of ``i``
(most significant bit on top) is ``i`` itself, and the vector
``(0, ..., 0, 1)`` is the integer ``1``.

Each kernel has a one-matrix shape and a stack shape.  One system runs
in one int on one Gauss-Jordan loop (``_reduce``), row i in the bit slot
[i*w, (i+1)*w): one carry-free ``big ^= (sel ^ pivot) * pivot_row``
clears a pivot's column from every other row.  ``rank`` counts its
pivots, and ``_solve`` runs it on the rows of [a | b], leaving a^-1 * b
(``inverse``: the structural pass's X^-1, ``_plan``'s one division).  A
stack of N systems of one size, as uint64 row words, runs
one numpy loop over the n pivot columns (``_eliminate``).  While a row of
[a | b] fits one word it is the max/min loop (every rank: the checks of
given or parsed stages and of factors, ``sample_member``'s candidates; the
divisions of ``build``, ``sample_member`` and ``reversed_inverted`` up to
n = 32): with columns < c cleared, a matrix's largest row has column c iff
any row has, so on the stack transposed a column is a max, then a XOR and
a minimum that set each row to min(row, row ^ pivot), the pivots found so
far too when dividing, which leaves [e_c | row c of a^-1 * b] in pivot
slot c.  Wider divisions (square ones from n = 33) take the argmin
Gauss-Jordan loop.  ``_mul`` multiplies a matrix packed in one int the
same way by row words, one carry-free ``out ^= column_k * row_k`` per
row of the right factor (``@``, packed in slots as wide as its wider
operand, and ``oracle._plan``'s word products); ``_mul_bits`` is one
BLAS product over a 0/1 stack (the prefix chain, every P_0 of ``build``,
``factorize``'s n products, kept as n calls: one GEMM measured slower).

Everything here is immutable and every operation returns a new value,
so instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "BitMatrix",
    "DimensionError",
    "SingularError",
    "identity",
    "rotation_matrix",
    "parity",
]

class DimensionError(ValueError):
    """Operand shapes are incompatible."""


class SingularError(ValueError):
    """The matrix is not invertible over GF(2).

    ``rank`` carries the rank reached by elimination, so callers can
    report how far from invertible the input was.
    """

    def __init__(self, message: str, rank: int):
        super().__init__(message)
        self.rank = rank


def parity(x: int) -> int:
    """Parity of the popcount, i.e. the GF(2) sum of the bits of x."""
    return x.bit_count() & 1


def _pack(words: Sequence[int], width: int) -> int:
    """All rows in one int: row i in bits [i*width, (i+1)*width)."""
    big = 0
    for w in reversed(words):
        big = (big << width) | w
    return big


def _slot_ones(slots: int, width: int) -> int:
    """Bit 0 of each of ``slots`` slots of ``width`` bits (a base-2^width repunit)."""
    return ((1 << (slots * width)) - 1) // ((1 << width) - 1)


def _mul(a: int, b: Sequence[int], every: int) -> int:
    """a b with a packed as ``_pack`` packs its row words, in slots at least as wide as b's
    rows, and b as its row words: column k of a, spread over a's row slots by ``every``
    (``_slot_ones`` of a's rows and that width), picks row k of b."""
    out, n = 0, len(b)
    for k, row in enumerate(b):
        out ^= ((a >> (n - 1 - k)) & every) * row
    return out


def _reduce(rows: Sequence[int], width: int, m: int = 0) -> tuple[int, list[int]]:
    """Gauss-Jordan on the row words of ``width`` >= 1 bits, over their columns above the
    low m bits: the reduced rows packed as ``_pack`` packs them, and each pivot row's slot
    bit, in column order."""
    big = _pack(rows, width)
    live = every = _slot_ones(len(rows), width)
    mask = (1 << width) - 1
    pivots = []
    for b in range(width - 1, m - 1, -1):
        sel = (big >> b) & every
        if cand := sel & live:
            at = cand.bit_length() - 1
            pivot = 1 << at
            big ^= (sel ^ pivot) * ((big >> at) & mask)
            live ^= pivot
            pivots.append(at)
    return big, pivots


def _solve(rows: Sequence[int], m: int) -> tuple[int, ...]:
    """Row words of a^-1 * b, from the n row words of [a | b] with a n x n,
    n >= 1, and b n x m; raises SingularError with the rank of a on failure."""
    n = len(rows)
    big, pivots = _reduce(rows, n + m, m)
    if (r := len(pivots)) < n:
        raise SingularError(f"matrix of rank {r} < {n} is singular", r)
    right = (1 << m) - 1
    return tuple((big >> at) & right for at in pivots)


def _eliminate(a, b=None):
    """Ranks of the N n x n matrices (n <= 64) in row words a, (N, n), and a_i^-1 * b_i if full,
    with b (N, n) row words as wide as its widest, w bits: on the max/min loop while n + w <= 64
    (always without b), else on the argmin loop."""
    a = np.asarray(a, np.uint64)
    N, n = a.shape
    w = 0 if b is None else int(np.max(b := np.asarray(b, np.uint64), initial=0)).bit_length()
    if n + w <= 64:  # row r of every [a | b] in one run, then n pivot slots, each written before read
        rows, d = np.empty((2 * n, N), np.uint64), b is not None
        tmp = np.empty((n + n * d, N), np.uint64)  # ranks alone need no scratch for the pivots
        live = rows[:n]
        live[...] = (a << np.uint64(w) | b).T if d else a.T
        for c, s in enumerate(np.arange(n + w - 1, w - 1, -1, dtype=np.uint64)):  # rows < 2^(s+1)
            piv = live.max(axis=0, out=rows[n + c])  # holds column c iff any row does ...
            piv *= piv >> s  # ... else 0
            part, out = (rows[: n + c], tmp[: n + c]) if d else (live, tmp)  # dividing, pivots too
            np.minimum(part, np.bitwise_xor(part, piv, out=out), out=part)  # clears c; the pivot drops to 0
        x = (rows[n:] & np.uint64((1 << w) - 1)).T.copy() if d else None  # slot c: [e_c | row c of x]
        return np.count_nonzero(rows[n:], axis=0), x
    a = (a << np.uint64(64 - n)).view(np.int64)  # each step shifts the next column into the sign bit
    at = np.arange(N) * n
    parts = [a, np.array(b, np.uint64).view(np.int64)]
    live, pivots = np.full(N * n, -1, np.int64), np.empty((N, n), np.intp)
    for c in range(n):
        flat = a.reshape(-1) >> 63
        cand = flat & live
        p = cand.reshape(N, n).argmin(axis=1) + at  # first live row with the bit
        hit = cand[p]
        flat[p] = 0
        for part in parts:
            part ^= flat.reshape(N, n) & (part.reshape(-1)[p] & hit)[:, None]
        live[p] ^= hit
        pivots[:, c] = p
        a <<= 1
    return n + live.reshape(N, n).sum(axis=1), parts[1].reshape(-1)[pivots].view(np.uint64)


@dataclass(frozen=True)
class BitMatrix:
    """An immutable rows x cols matrix over GF(2), one int per row."""

    rows: int
    cols: int
    words: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionError(f"negative dimensions {self.rows}x{self.cols}")
        if len(self.words) != self.rows:
            raise DimensionError(
                f"{self.rows} rows declared but {len(self.words)} row words given"
            )
        limit = 1 << self.cols
        for w in self.words:
            if not 0 <= w < limit:
                raise DimensionError(f"row word {w:#x} does not fit in {self.cols} columns")

    # -- queries -----------------------------------------------------

    def to_text(self) -> str:
        """The ``/``-separated row form, e.g. ``01/10``: each row exactly ``cols`` digits."""
        top = 1 << self.cols
        return "/".join([bin(w | top)[3:] for w in self.words])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BitMatrix({self.to_text()!r})"

    # -- arithmetic --------------------------------------------------

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        w = max(self.cols, other.cols, 1)
        big, mask = _mul(_pack(self.words, w), other.words, _slot_ones(self.rows, w)), (1 << w) - 1
        return BitMatrix(self.rows, other.cols, tuple((big >> (w * i)) & mask for i in range(self.rows)))

    def transpose(self) -> "BitMatrix":
        text, step = self.to_text(), self.cols + 1  # entry (r, c) is text[r * step + c]
        words = [int(text[c::step] or "0", 2) for c in range(self.cols)]  # "" when rows == 0
        return BitMatrix(self.cols, self.rows, tuple(words))

    def rank(self) -> int:
        return len(_reduce(self.words, self.cols)[1]) if self.rows and self.cols else 0

    def inverse(self) -> "BitMatrix":
        """Gauss-Jordan inverse; raises SingularError with the rank on failure."""
        if self.rows != self.cols:
            raise DimensionError(f"cannot invert {self.rows}x{self.cols}")
        n = self.cols
        if not n:
            return self
        # slot r holds (matrix row r << n) | identity row r
        rows = [(w << n) | (1 << (n - 1 - r)) for r, w in enumerate(self.words)]
        return BitMatrix(n, n, _solve(rows, n))


def _to_bits(words, n: int) -> np.ndarray:
    """Nested row words as 0/1 uint8 along a new last axis of n <= 64 columns, MSB first."""
    low = -(-n // 8)  # only the low ceil(n/8) bytes of each word are unpacked
    octets = np.array(words, ">u8")[..., None].view(np.uint8)[..., 8 - low :]
    return np.unpackbits(octets, axis=-1)[..., 8 * low - n :]


def _words(bits: np.ndarray) -> np.ndarray:
    """Row words of a 0/1 stack of at most 64 columns, as uint64 shaped like its rows."""
    padded = np.zeros(bits.shape[:-1] + (64,), np.uint8)
    padded[..., 64 - bits.shape[-1] :] = bits
    return np.packbits(padded, axis=-1).view(">u8")[..., 0].astype(np.uint64)


def _packed(bits: np.ndarray) -> BitMatrix:
    """The BitMatrix of a 2-D 0/1 array of at most 64 columns."""
    return BitMatrix(*bits.shape, tuple(_words(bits).tolist()))


def _mul_bits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """GF(2) product of 0/1 arrays, stacked like ``np.matmul``: a float32
    BLAS product reduced mod 2, exact as no entry sums over 64 < 2^24 ones."""
    return (a.astype(np.float32) @ b.astype(np.float32)).astype(np.uint8) & 1


def identity(n: int) -> BitMatrix:
    return BitMatrix(n, n, tuple(1 << (n - 1 - r) for r in range(n)))


def rotation_matrix(n: int) -> BitMatrix:
    """Cyclic bit rotation towards the top: row k maps component k+1 up."""
    if n < 1:
        raise DimensionError("rotation needs n >= 1")
    words = tuple(1 << (n - 2 - r) for r in range(n - 1)) + (1 << (n - 1),)
    return BitMatrix(n, n, words)
