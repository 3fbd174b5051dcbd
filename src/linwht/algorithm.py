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


def _check(mats: Sequence[BitMatrix], n: int, what: str, start: int = 0) -> np.ndarray:
    """The row words of ``mats``, (len(mats), n) uint64, once every one is n x n (n <= 64)
    and ``_proved``; ``what.format(start + i)`` names matrix i in the error."""
    for i, m in enumerate(mats):
        if m.rows != n or m.cols != n:
            raise DimensionError(f"{what.format(start + i)} is {m.rows}x{m.cols}, expected {n}x{n}")
    return _proved(np.array([m.words for m in mats], np.uint64), what, start)


def _proved(words: np.ndarray, what: str, start: int = 0) -> np.ndarray:
    """``words``, (N, n) uint64, once every matrix is invertible, all ranked in one stack
    elimination; else an error for the first rank below n.  The one rank check of outside input."""
    for i, rank in enumerate(_eliminate(words)[0].tolist()):
        if rank != words.shape[1]:
            raise SingularError(f"{what.format(start + i)} is singular", rank)
    return words


def _trusted(cls, **words):
    """A ``cls`` whose fields are ``words`` as read-only uint64 arrays, made without its
    ``__post_init__`` check, for values already proved: by ``_proved``, or by their maker,
    as a product of invertible matrices is invertible."""
    obj = object.__new__(cls)
    for name, w in words.items():
        obj.__dict__[name] = w = np.asarray(w, np.uint64)
        w.flags.writeable = False
    return obj


def _sequence(words) -> AlgorithmSeq:
    """The ``AlgorithmSeq`` of proved (n+1, n) stage words, unchecked."""
    return _trusted(AlgorithmSeq, stack=words)


@dataclass(frozen=True, init=False, eq=False)
class AlgorithmSeq:
    """Immutable sequence of n+1 invertible n x n stage matrices, held as the row words of
    all stages in one read-only (n+1, n) uint64 array, ``stack``.  The constructor checks
    ``BitMatrix`` stages; ``matrices``, ``P[k]`` and iteration make them on demand."""

    stack: np.ndarray

    def __init__(self, matrices: Sequence[BitMatrix]):
        self.__post_init__(tuple(matrices))

    def __post_init__(self, matrices: tuple[BitMatrix, ...]):
        n = len(matrices) - 1
        if not 1 <= n <= N_MAX:
            raise DimensionError(f"an algorithm needs 2..{N_MAX + 1} stage matrices, got {n + 1}")
        self.__dict__.update(vars(_sequence(_check(matrices, n, "stage matrix {}"))))

    @property
    def n(self) -> int:
        return len(self.stack) - 1

    @property
    def matrices(self) -> tuple[BitMatrix, ...]:
        return tuple(BitMatrix(self.n, self.n, tuple(w)) for w in self.stack.tolist())

    def __getitem__(self, k: int) -> BitMatrix:
        return BitMatrix(self.n, self.n, tuple(self.stack[k].tolist()))

    def __iter__(self) -> Iterator[BitMatrix]:
        return iter(self.matrices)

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgorithmSeq) and self.stack.tobytes() == other.stack.tobytes()

    def __hash__(self) -> int:
        return hash(self.stack.tobytes())

    def __reduce__(self):  # a copied or unpickled stack is made read-only again
        return _sequence, (self.stack,)

    def key(self) -> str:
        """Canonical text form, usable as a dictionary/dedupe key: each stage's
        ``to_text``, joined by ``;``."""
        return _text(self.stack, self.n)


def _text(stack, k: int) -> str:
    """The k x k matrices (k >= 1) of row words (N, k) in ``to_text`` form, joined by ``;``."""
    chars = np.full((len(stack), k, k + 1), ord("/"), np.uint8)  # a '/' ends each row ...
    chars[:, -1, -1] = ord(";")  # ... and a ';' each matrix
    np.add(_to_bits(stack, k), ord("0"), out=chars[..., :k])
    return str(chars.reshape(-1)[:-1], "ascii")  # decoded in place: no bytes copy


def reversed_inverted(P: AlgorithmSeq) -> AlgorithmSeq:
    """The sequence (P_n^-1, ..., P_0^-1), which computes the transpose map."""
    return _sequence(_eliminate(P.stack[::-1], [identity(P.n).words] * (P.n + 1))[1])
