"""Dense exact evaluation: the ground truth the fast checks answer to.

One executor runs a stage sequence on data.  Stage k moves row i to row
P_k i and then adds and subtracts the row pairs (2j, 2j+1); ``_run``
does both in one pass, a gather and then the butterfly.  Rows are held
in split order, row j holding natural row C j (C the bit rotation), so
each gather table is the index table of an n x n map, and one
``perm_indices`` call builds them all.  The trailing axes of the data
are flattened into columns, and all stages run on one column panel of
about ``_PANEL_BYTES`` before the next panel starts, so a panel's
stages stay in the L2 cache however large the whole matrix is.

``transform`` runs an algorithm on any array of 2^n rows, in its dtype.
``evaluate`` runs it on the identity and so materialises the full
2^n x 2^n signed integer matrix; no matrix-matrix products and no
floating point are involved.  The identity itself is never formed:
each panel of it is written into the panel's staging buffer, zeros and
then its ones, before the stages run.  A butterfly at most doubles the
largest magnitude in a column, so no entry of an evaluation exceeds
2^n, and the stages of an identity run in the smallest signed integer
type that holds 2^n (int16 up to n = 14, the default size guard); the
result is cast into int32 by the final row scatter.  ``hadamard``
builds the transform itself, whose entry (i, j) is (-1)^popcount(i & j),
by Sylvester doubling in place in its int32 result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algorithm import AlgorithmSeq
from .config import SizeLimitError, active_limits
from .gf2 import DimensionError, _solve

__all__ = [
    "DependencySets",
    "hadamard",
    "transform",
    "evaluate",
    "evaluate_partial",
    "dependency_sets",
]

# Working data of one column panel; a panel's gather buffer and stage
# output together take twice this, which fits a 1-2 MiB L2 cache.
_PANEL_BYTES = 512 * 1024


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
    h = np.empty((1 << n, 1 << n), dtype=np.int32)
    h[0, 0] = 1
    for k in range(n):
        # Sylvester doubling in place: H_{k+1} = [[H_k, H_k], [H_k, -H_k]]
        m = 1 << k
        h[:m, m : 2 * m] = h[:m, :m]
        h[m : 2 * m, :m] = h[:m, :m]
        np.negative(h[:m, :m], out=h[m : 2 * m, m : 2 * m])
    return h


def perm_indices(maps, n: int) -> np.ndarray:
    """Index tables of n x n maps given as row words, built together by
    doubling: row r of the result holds maps[r]*i at column i.  The maps
    are invertible by construction, so each row is a permutation."""
    words = np.array(maps, dtype=np.intp)[:, :, None]
    # images[:, b] = q*2^b, column n-1-b of q read as an index
    images = (((words >> np.arange(n)) & 1) << np.arange(n - 1, -1, -1)[:, None]).sum(axis=1)
    idx = np.zeros((len(maps), 1 << n), dtype=np.intp)
    for b in range(n):  # q*(2^b + i) = q*2^b ^ q*i for i < 2^b
        np.bitwise_xor(idx[:, : 1 << b], images[:, b : b + 1], out=idx[:, 1 << b : 2 << b])
    return idx


# the signed types an evaluation may run in, with their largest values
_WORKING_TYPES = tuple((np.dtype(t), int(np.iinfo(t).max)) for t in (np.int16, np.int32, np.int64))


def _working_dtype(n: int) -> np.dtype:
    """The smallest signed integer type that holds every entry of a
    2^n-point evaluation, whose magnitudes are at most 2^n."""
    return next(t for t, top in _WORKING_TYPES if top >= 1 << n)


def _run(P: AlgorithmSeq, first: int, x: np.ndarray | None, final_perm: bool) -> np.ndarray:
    """Stages n..first of P, then P_0 if ``final_perm``, on the rows of x.

    ``x=None`` stands for the 2^n x 2^n identity: each panel of it is
    written into the staging buffer, the stages run in
    ``_working_dtype(n)`` and the result is int32.

    Between stages the rows are held in split order: the sum of pair j
    at row j and the difference at row 2^(n-1) + j, so that both halves
    of a butterfly are contiguous; row j holds natural row C j, C =
    ``rotation_matrix(n)``.  Each table is the index table of an n x n
    map: stage k gathers through C^-1 P_k^-1 C (P_n^-1 C from natural
    order), and the last scatter sends row j to P_0 C j.
    """
    n = P.n
    size = 1 << n
    half = size >> 1
    rot = [1 << (n - 2 - r) for r in range(n - 1)] + [1 << (n - 1)]  # rows of C
    stages, maps = P.stack.tolist(), []
    for k in range(n, first - 1, -1):
        m = _solve([(w << n) | c for w, c in zip(stages[k], rot)], n)  # P_k^-1 C
        maps.append(m if k == n else m[-1:] + m[:-1])  # C^-1 moves the rows down
    final = stages[0] if final_perm else [1 << (n - 1 - r) for r in range(n)]
    if maps:  # Q C turns each row word of Q right
        final = [(w >> 1) | ((w & 1) << (n - 1)) for w in final]
    *tables, dest = perm_indices(maps + [final], n)

    if x is None:
        dtype = _working_dtype(n)
        ncols = size
        out = np.empty((size, size), dtype=np.int32)
    else:
        cols = x.reshape(size, x.size // size)
        dtype = cols.dtype
        ncols = cols.shape[1]
        out = np.empty_like(cols)
    width = max(1, min(ncols, _PANEL_BYTES // (size * dtype.itemsize)))
    gathered = np.empty(size * width, dtype=dtype)
    staged = np.empty(size * width, dtype=dtype)
    for c0 in range(0, ncols, width):
        w = min(width, ncols - c0)
        g = gathered[: size * w].reshape(size, w)
        s = staged[: size * w].reshape(size, w)
        if x is None:
            s.fill(0)
            staged[c0 * w : (c0 + w) * w : w + 1] = 1  # s[c0 + j, j] for j < w
            m = s
        else:
            m = cols[:, c0 : c0 + w]
        for table in tables:
            # indices are in range; "clip" lets take write straight into g
            np.take(m, table, axis=0, out=g, mode="clip")
            np.add(g[:half], g[half:], out=s[:half])
            np.subtract(g[:half], g[half:], out=s[half:])
            m = s
        out[dest, c0 : c0 + w] = m
    return out if x is None else out.reshape(x.shape)


def transform(P: AlgorithmSeq, x) -> np.ndarray:
    """The algorithm applied along the first axis of ``x``, shape (2^n, ...).

    Equals ``evaluate(P)`` times x, computed in ``x.dtype`` without
    forming the matrix; integer dtypes wrap on overflow.  Besides the
    output it holds n+1 index tables of 2^n entries and two panel
    buffers, so only the shape is checked, not the size guard.
    """
    x = np.asarray(x)
    size = 1 << P.n
    if x.ndim == 0 or x.shape[0] != size:
        raise DimensionError(
            f"a 2^{P.n}-point algorithm needs x of shape ({size}, ...), got {x.shape}"
        )
    return _run(P, 1, x, final_perm=True)


def evaluate(P: AlgorithmSeq) -> np.ndarray:
    """The full signed matrix computed by the stage sequence."""
    _guard(P.n)
    return _run(P, 1, None, final_perm=True)


def evaluate_partial(P: AlgorithmSeq, k: int) -> np.ndarray:
    """The matrix of stages k..n only (butterfly first, P_0 excluded).

    k ranges over 1..n+1; k = n+1 gives the identity.
    """
    n = P.n
    _guard(n)
    if not 1 <= k <= n + 1:
        raise ValueError(f"stage index {k} outside 1..{n + 1}")
    return _run(P, k, None, final_perm=False)


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
    Only column i is computed, by running the stages on e_i.
    """
    n = P.n
    if not 0 <= i < 1 << n:
        raise ValueError(f"input index {i} outside 0..{(1 << n) - 1}")
    _guard(n)
    if not 0 <= k <= n + 1:
        raise ValueError(f"stage index {k} outside 0..{n + 1}")
    e = np.zeros(1 << n, dtype=np.int32)
    e[i] = 1
    col = _run(P, max(k, 1), e, final_perm=k == 0)
    return DependencySets(
        support=frozenset(np.flatnonzero(col).tolist()),
        plus=frozenset(np.flatnonzero(col == 1).tolist()),
        minus=frozenset(np.flatnonzero(col == -1).tolist()),
    )
