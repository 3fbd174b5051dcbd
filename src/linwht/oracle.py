"""Dense exact evaluation: the ground truth the fast checks answer to.

``evaluate`` materialises the full 2^n x 2^n signed integer matrix of a
stage sequence by pushing basis columns through the stages one at a
time; no matrix-matrix products and no floating point are involved.
``hadamard`` builds the transform itself straight from its definition,
entry (i, j) = (-1)^{<i_bits, j_bits>}.  Entries are int32: stage k of
an evaluation is bounded by 2^k in magnitude, and the size guard keeps
2^n well below the int32 range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algorithm import AlgorithmSeq
from .config import SizeLimitError, active_limits
from .gf2 import BitMatrix, SingularError

__all__ = [
    "DependencySets",
    "hadamard",
    "evaluate",
    "evaluate_partial",
    "dependency_sets",
]


def _guard(n: int) -> None:
    lim = active_limits().oracle_max_n
    if not 1 <= n <= lim:
        raise SizeLimitError(
            f"dense evaluation needs 1 <= n <= {lim} (2^{n} points requested); "
            f"raise the limit with WHT_MAX_N if you really want this"
        )


def hadamard(n: int) -> np.ndarray:
    """The 2^n x 2^n Walsh-Hadamard matrix in natural (binary) order."""
    _guard(n)
    idx = np.arange(1 << n)
    x = np.bitwise_and.outer(idx, idx)
    # parity fold; entries are below 2^14 under the default guard
    for s in (16, 8, 4, 2, 1):
        x ^= x >> s
    return (1 - 2 * (x & 1)).astype(np.int32)


def perm_indices(q: BitMatrix) -> np.ndarray:
    """Destination table of the index permutation i -> q*i."""
    if not q.is_invertible():
        raise SingularError(f"permutation matrix is singular (rank {q.rank()})", q.rank())
    n = q.rows
    size = 1 << n
    idx = np.zeros(size, dtype=np.intp)
    for k in range(n):
        col = q.apply(1 << (n - 1 - k))
        idx ^= ((np.arange(size) >> (n - 1 - k)) & 1) * col
    return idx


def _run_stages(P: AlgorithmSeq, first: int, m: np.ndarray, final_perm: bool) -> np.ndarray:
    for k in range(P.n, first - 1, -1):
        out = np.empty_like(m)
        out[perm_indices(P[k])] = m
        m = np.empty_like(out)
        m[0::2] = out[0::2] + out[1::2]
        m[1::2] = out[0::2] - out[1::2]
    if final_perm:
        out = np.empty_like(m)
        out[perm_indices(P[0])] = m
        m = out
    return m


def evaluate(P: AlgorithmSeq) -> np.ndarray:
    """The full signed matrix computed by the stage sequence."""
    _guard(P.n)
    m = np.eye(1 << P.n, dtype=np.int32)
    return _run_stages(P, 1, m, final_perm=True)


def evaluate_partial(P: AlgorithmSeq, k: int) -> np.ndarray:
    """The matrix of stages k..n only (butterfly first, P_0 excluded).

    k ranges over 1..n+1; k = n+1 gives the identity.
    """
    n = P.n
    _guard(n)
    if not 1 <= k <= n + 1:
        raise ValueError(f"stage index {k} outside 1..{n + 1}")
    return _run_stages(P, k, np.eye(1 << n, dtype=np.int32), final_perm=False)


@dataclass(frozen=True)
class DependencySets:
    """Row indices of one column, split by entry value."""

    support: frozenset[int]
    plus: frozenset[int]
    minus: frozenset[int]


def dependency_sets(P: AlgorithmSeq, k: int, i: int) -> DependencySets:
    """Which outputs of stages k..n depend on input i, and with what sign.

    k = 0 reads the full algorithm including the output permutation;
    1 <= k <= n+1 reads the partial evaluation.  ``support`` collects
    all nonzero rows; ``plus``/``minus`` the entries equal to +1/-1.
    """
    n = P.n
    if not 0 <= i < 1 << n:
        raise ValueError(f"input index {i} outside 0..{(1 << n) - 1}")
    if k == 0:
        w = evaluate(P)
    else:
        w = evaluate_partial(P, k)
    col = w[:, i]
    return DependencySets(
        support=frozenset(np.flatnonzero(col).tolist()),
        plus=frozenset(np.flatnonzero(col == 1).tolist()),
        minus=frozenset(np.flatnonzero(col == -1).tolist()),
    )
