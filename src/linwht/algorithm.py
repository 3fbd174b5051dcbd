"""Stage sequences: the algorithm objects everything else manipulates.

A transform algorithm on n bits is a sequence of n+1 invertible n x n
bit matrices (P_0, ..., P_n).  It denotes the linear map

    perm(P_0) . B . perm(P_1) . B . ... . B . perm(P_n)

where B applies a 2-point butterfly to each adjacent pair of entries
and perm(Q) sends the value at index i to index Q*i (indices read as
bit column vectors).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .config import N_MAX
from .gf2 import BitMatrix, DimensionError, SingularError, _eliminate, _to_bits, identity

__all__ = ["AlgorithmSeq", "reversed_inverted"]


def _check(mats: Sequence[BitMatrix], n: int, what: str, start: int = 0) -> None:
    """Raise unless every matrix is invertible and n x n, n <= 64: all shapes, then all
    ranks in one stack elimination; ``what.format(start + i)`` names matrix i in the error."""
    for i, m in enumerate(mats):
        if m.rows != n or m.cols != n:
            raise DimensionError(f"{what.format(start + i)} is {m.rows}x{m.cols}, expected {n}x{n}")
    for i, rank in enumerate(_eliminate([m.words for m in mats])[0].tolist()):
        if rank != n:
            raise SingularError(f"{what.format(start + i)} is singular", rank)


def _trusted(cls, **fields):
    """A ``cls`` made without its ``__post_init__`` check, for values whose
    maker has already proved them: a product of invertible matrices is one."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class AlgorithmSeq:
    """Immutable sequence of n+1 invertible n x n stage matrices."""

    matrices: tuple[BitMatrix, ...]

    def __post_init__(self):
        n = len(self.matrices) - 1
        if not 1 <= n <= N_MAX:
            raise DimensionError(f"an algorithm needs 2..{N_MAX + 1} stage matrices, got {n + 1}")
        _check(self.matrices, n, "stage matrix {}")

    @property
    def n(self) -> int:
        return len(self.matrices) - 1

    def __getitem__(self, k: int) -> BitMatrix:
        return self.matrices[k]

    def __iter__(self) -> Iterator[BitMatrix]:
        return iter(self.matrices)

    def key(self) -> str:
        """Canonical text form, usable as a dictionary/dedupe key: each stage's
        ``to_text``, joined by ``;``, written as one byte array."""
        n = self.n
        chars = np.full((n + 1, n, n + 1), ord("/"), np.uint8)  # a '/' ends each row ...
        chars[:, -1, -1] = ord(";")  # ... and a ';' each stage
        np.add(_to_bits([m.words for m in self.matrices], n), ord("0"), out=chars[..., :n])
        return str(chars.reshape(-1)[:-1], "ascii")  # decoded in place: no bytes copy


def reversed_inverted(P: AlgorithmSeq) -> AlgorithmSeq:
    """The sequence (P_n^-1, ..., P_0^-1), which computes the transpose map."""
    n = P.n
    inverses = _eliminate([m.words for m in reversed(P.matrices)], [identity(n).words] * (n + 1))[1]
    return _trusted(AlgorithmSeq, matrices=tuple(BitMatrix(n, n, tuple(w)) for w in inverses.tolist()))
