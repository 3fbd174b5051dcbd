"""Dense exact evaluation: the ground truth the fast checks answer to.

One executor runs a stage sequence on data.  Stage k moves row i to row
P_k i and then adds and subtracts the row pairs (2j, 2j+1); ``_run``
does both in one pass, a gather and then the butterfly.  Rows are held
in split order, row j holding natural row C j (C the bit rotation), so
each gather table is the index table of an n x n map, and one
``perm_indices`` call builds them all.  The trailing axes of the data
are flattened into columns, and all stages run on one column panel of
about ``_PANEL_BYTES`` before the next, so a panel's stages stay in the
L2 cache; contiguous ranges of panels run on one thread per usable CPU.

``transform`` runs an algorithm on any array of 2^n rows, in its dtype.
``evaluate`` materialises the full 2^n x 2^n signed integer matrix E,
with no matrix products and no floating point, by running the transposed
program (P_n^-1, ..., P_0^-1) on the identity: a column panel of E^T is
a row block of E, and the gather maps are P's own stages.  The identity
is never formed: each panel of it is staged, zeros and then its ones, in
the output rows it becomes.  A butterfly at most doubles the largest
magnitude in a column, so no entry exceeds 2^n, and the stages run in
the smallest signed integer type that holds 2^n (int16 up to n = 14, the
default size guard).  ``hadamard`` builds the transform itself, whose
entry (i, j) is (-1)^popcount(i & j), by Sylvester doubling in place.
"""

from __future__ import annotations

import os
import threading
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

# Working data of one column panel; a thread's gather and stage buffers
# together take twice this, which fits a 1-2 MiB L2 cache.
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

    Between stages the rows are held in split order: the sum of pair j
    at row j and the difference at row 2^(n-1) + j, so that both halves
    of a butterfly are contiguous; row j holds natural row C j, C =
    ``rotation_matrix(n)``.  Each table is the index table of an n x n
    map.  On data x, stage k gathers through C^-1 P_k^-1 C (P_n^-1 C from
    natural order) and the last scatter sends row j to P_0 C j.
    ``x=None`` stands for the identity: the result E is int32, and the
    program of E^T, (P_n^-1, ..., P_first^-1, A^-1) with A = P_0 if
    ``final_perm`` else I, gathers through A C, then C^-1 P_j C for j =
    first..n-1, and a take through C^-1 P_n places each column panel,
    copied transposed into its row block of E, where it was staged.
    """
    n = P.n
    size = 1 << n
    half = size >> 1
    stages = P.stack.tolist()
    ident = [1 << (n - 1 - r) for r in range(n)]
    turn = lambda q: [(w >> 1) | ((w & 1) << (n - 1)) for w in q]  # q C turns each row word right
    down = lambda q: q[-1:] + q[:-1]  # C^-1 q moves the rows down
    a = stages[0] if final_perm else ident
    if x is None:
        maps = [turn(a)] + [down(turn(q)) for q in stages[first:n]] if first <= n else []
        last = down(stages[n]) if maps else ident
        dtype, ncols = _working_dtype(n), size
        out = np.empty((size, size), dtype=np.int32)
    else:
        maps = [_solve([(w << n) | c for w, c in zip(q, turn(ident))], n) for q in stages[n : first - 1 : -1]]
        maps = maps[:1] + [down(m) for m in maps[1:]]  # P_n^-1 C, then C^-1 P_k^-1 C
        last = turn(a) if maps else a
        cols = x.reshape(size, x.size // size)
        dtype, ncols = cols.dtype, cols.shape[1]
        out = np.empty_like(cols)
    *tables, last = perm_indices(maps + [last], n)
    width = max(1, min(ncols, _PANEL_BYTES // (size * dtype.itemsize)))
    # an identity panel is held as tiles of 16 columns, (w/16, 2^n, 16), which transpose fastest
    tile = min(width, 16) if x is None else width
    # rows of E go out from g's tiles by halves, quarters...: none overlays a tile still unread
    groups = [width // tile - (width // tile >> i) for i in range((width // tile).bit_length())] + [width // tile]
    errors = []

    def panels(part: range) -> None:
        try:
            # an int16 identity panel runs in the int32 rows it becomes, which hold two panels
            own = None if x is None and dtype.itemsize == 2 else np.empty(2 * size * width, dtype=dtype)
            for c0 in part:
                w = min(width, ncols - c0)
                both = out[c0 : c0 + w].view(dtype).reshape(-1) if own is None else own
                s, g = both[: 2 * size * w].reshape(2, -1, size, min(tile, w))
                m = s if x is None else cols[None, :, c0 : c0 + w]
                if x is None:
                    s.fill(0)  # the ones s[b, c0 + b tile + j, j] lie on row b of this (w / tile)-row view
                    both[c0 * tile :][: w * (size + tile)].reshape(w // tile, -1)[:, : tile * tile : tile + 1] = 1
                for table in tables:
                    # indices are in range; "clip" lets take write straight into g
                    m.take(table, 1, g, "clip")
                    np.add(g[:, :half], g[:, half:], out=s[:, :half])
                    np.subtract(g[:, :half], g[:, half:], out=s[:, half:])
                    m = s
                if x is None:
                    m.take(last, 1, g, "clip")
                    for b, e in zip(groups, groups[1:]):
                        out[c0 + b * tile : c0 + e * tile].reshape(-1, tile, size)[...] = g[b:e].transpose(0, 2, 1)
                else:
                    out[last, c0 : c0 + w] = m[0]
        except BaseException as exc:  # raised again in the caller once every thread is done
            errors.append(exc)

    starts = range(0, ncols, width)
    # the CPUs this process may run on, or all of them where the OS has no affinity call
    workers = min(len(getattr(os, "sched_getaffinity", lambda pid: range(os.cpu_count() or 1))(0)), len(starts))
    ranges = [starts[len(starts) * i // workers : len(starts) * (i + 1) // workers] for i in range(workers)]
    threads = [threading.Thread(target=panels, args=(r,)) for r in ranges[1:]]
    for t in threads:
        t.start()
    panels(ranges[0])
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return out if x is None else out.reshape(x.shape)


def transform(P: AlgorithmSeq, x) -> np.ndarray:
    """The algorithm applied along the first axis of ``x``, shape (2^n, ...).

    Equals ``evaluate(P)`` times x, computed in ``x.dtype`` without
    forming the matrix; integer dtypes wrap on overflow.  Besides the
    output it holds n+1 index tables of 2^n entries and two panel
    buffers per thread, so only the shape is checked, not the size guard.
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
