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
from typing import Iterator

from .config import N_MAX
from .gf2 import BitMatrix, DimensionError, SingularError

__all__ = ["AlgorithmSeq", "reversed_inverted"]


def _check(m: BitMatrix, n: int, what: str) -> None:
    """Raise unless m is an invertible n x n matrix; ``what`` names it in the error."""
    if m.rows != n or m.cols != n:
        raise DimensionError(f"{what} is {m.rows}x{m.cols}, expected {n}x{n}")
    if (rank := m.rank()) != n:
        raise SingularError(f"{what} is singular", rank)


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
        for idx, m in enumerate(self.matrices):
            _check(m, n, f"stage matrix {idx}")

    @property
    def n(self) -> int:
        return len(self.matrices) - 1

    def __getitem__(self, k: int) -> BitMatrix:
        return self.matrices[k]

    def __iter__(self) -> Iterator[BitMatrix]:
        return iter(self.matrices)

    def key(self) -> str:
        """Canonical text form, usable as a dictionary/dedupe key."""
        return ";".join(m.to_text() for m in self.matrices)


def reversed_inverted(P: AlgorithmSeq) -> AlgorithmSeq:
    """The sequence (P_n^-1, ..., P_0^-1), which computes the transpose map."""
    return _trusted(AlgorithmSeq, matrices=tuple(m.inverse() for m in reversed(P.matrices)))
