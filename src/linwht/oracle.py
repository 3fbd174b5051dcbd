"""Dense exact evaluation: the ground truth the fast checks answer to.

One executor runs a stage sequence on data.  Stage k moves row i to row
P_k i and then adds and subtracts the row pairs (2j, 2j+1).  ``_plan``
splits the butterflies into runs, each in a frame (an order of the rows
in which its butterfly j pairs rows differing in index bit n-1-j) reached
by one gather through an n x n map's index table.  By the corner
condition, X against X^-1, a member's butterflies share frames: runs of
K, the index bits whose butterflies keep long contiguous pieces, each in
place; other programs run one butterfly to a frame.  The trailing axes of
the data are flattened into columns, and all stages run on one column
panel of about ``_PANEL_BYTES`` before the next, so a panel's stages stay
in the L2 cache; contiguous ranges of panels run on one thread per CPU.

``transform`` runs an algorithm on any array of 2^n rows, in its dtype.
``evaluate`` materialises the full 2^n x 2^n signed integer matrix E,
with no matrix products and no floating point, by running the transposed
program (P_n^-1, ..., P_0^-1) on the identity: a column panel of E^T is
a row block of E, and the maps are P's own stages.  The identity is
never formed: a first run's butterflies on a unit vector leave Sylvester
signs, which each panel writes into the output rows it becomes (for a
member, all n - K short index bits, then one run of K in place).  A
butterfly at most doubles the largest magnitude in a column, so no entry
exceeds 2^n, and the stages run in the smallest signed integer type that
holds 2^n (int16 up to n = 14, the default size guard).  ``hadamard``
builds the transform, whose entry (i, j) is (-1)^popcount(i & j).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import config, gf2
from .algorithm import AlgorithmSeq, reversed_inverted
from .gf2 import DimensionError, SingularError

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


def hadamard(n: int) -> np.ndarray:
    """The 2^n x 2^n Walsh-Hadamard matrix in natural (binary) order."""
    config._guard(n)
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
    # images[:, b] = q*2^b, column n-1-b of q read as an index; a product is faster than a sum on few maps
    images = (1 << np.arange(n - 1, -1, -1)) @ ((words >> np.arange(n)) & 1)
    idx = np.zeros((len(maps), 1 << n), dtype=np.intp)
    for b in range(n):  # q*(2^b + i) = q*2^b ^ q*i for i < 2^b
        np.bitwise_xor(idx[:, : 1 << b], images[:, b : b + 1], idx[:, 1 << b : 2 << b])
    return idx


# the signed types an evaluation may run in, with their largest values
_WORKING_TYPES = tuple((np.dtype(t), int(np.iinfo(t).max)) for t in (np.int16, np.int32, np.int64))


def _working_dtype(n: int) -> np.dtype:
    """The smallest signed integer type that holds every entry of a
    2^n-point evaluation, whose magnitudes are at most 2^n."""
    for t, top in _WORKING_TYPES:
        if top >= 1 << n:
            return t


# a butterfly along index bit b adds pieces of 2^b tiles; shorter pieces than this cost more per element
_RUN_CHUNK = 4096
# a member's plan, 2n word products and a division, repays its time on calls this large (n >= 7 on the identity)
_PLAN_ENTRIES = 1 << 14
# the 2^k x 2^k Sylvester block in a working type (k <= n), made once and shared as a read-only view
_signs = lru_cache(maxsize=None)(lambda k, dtype: np.broadcast_to(hadamard(k).astype(dtype), (1 << k, 1 << k)))


def _plan(stages, last, n: int, cap: int, head: int = 0):
    """Runs, and maps, for the program that for each D in ``stages`` moves
    row i to row D^-1 i and adds and subtracts the pairs (2j, 2j+1), then
    moves row i to row last^-1 i (all n row words, one stage or more).
    Column j of a run's frame F is S_j e and row j of F^-1 is e^T S_j^-1
    (S_j = D_0 ... D_j over the run, e = e_(n-1)); E = S^-1 F is the run's
    end frame.  Maps: F_1, E_(i-1)^-1 F_i for each later run, E^-1 last.
    When all n butterflies' pair directions and first-functionals are
    biorthogonal (for a member, the corner condition) every frame is X =
    (S_0 e, ..., S_(n-1) e) with its columns rotated, in runs of ``head``
    (written, so uncapped) and then of at most ``cap``; otherwise each
    butterfly runs in its own frame D C, C the bit rotation with C e_0 = e.
    """
    # butterflies t and t+1 are biorthogonal only if e^T D_(t+1) e = 0, which most other programs fail
    if len(stages) == n and max(cap, head) > 1 and not any(d[-1] & 1 for d in stages[1:]):
        mask, every = (1 << n) - 1, gf2._slot_ones(n, n)
        rows = lambda a: [(a >> (n * i)) & mask for i in range(n)]
        s = v = 0
        for t, d in enumerate(stages):
            s = gf2._mul(s, d, every) if t else gf2._pack(d, n)
            v |= (s & every) << (n - 1 - t)
        try:
            a = gf2._pack(gf2._solve([(x << n) | (1 << (n - 1 - i)) for i, x in enumerate(rows(v))], n), n)
        except SingularError:
            a = 0
        for t, d in enumerate(stages):  # the first-functionals are X^-1's rows when row t of X^-1 S_t is e^T
            a = a and gf2._mul(a, d, every)
            a *= (a >> (n * t)) & mask == 1
        if a:  # a = X^-1 S, its rows rotated as the last frame's columns, gives E^-1 last
            runs = [head] * (head > 0) + [min(cap, n - t) for t in range(head, n, cap)]
            at = n - runs[-1]
            end = rows(gf2._mul(a >> (n * at) | (a & ((1 << (n * at)) - 1)) << (n * (n - at)), last, every))
            ident = [1 << (n - 1 - r) for r in range(n)]
            return runs, [rows(v)] + [ident[-r:] + ident[:-r] for r in runs[:-1]] + [end]
    # F = D C turns each row word right, and C^-1 moves the rows down
    maps = [[(x >> 1) | ((x & 1) << (n - 1)) for x in q] for q in stages] + [last]
    return [1] * len(stages), maps[:1] + [q[-1:] + q[:-1] for q in maps[1:]]


def _run(P: AlgorithmSeq, first: int, x: np.ndarray | None, final_perm: bool) -> np.ndarray:
    """Stages n..first of P, then P_0 if ``final_perm``, on the rows of x.

    On data x, ``_plan`` takes the inverses of P_n, ..., P_first from
    ``reversed_inverted(P)``, and last P_0^-1 or I; x with no column is
    returned as an empty copy.  ``x=None`` stands for the
    identity: the result E is int32, and the program of E^T (A = P_0 if
    ``final_perm`` else I, then P_first..P_(n-1), last P_n) starts each
    column panel in the rows of E it becomes, its first run written, and
    after the last take copies it there transposed.
    """
    n = P.n
    size = 1 << n
    if first > n or x is not None and not x.size:  # no stage (P_0 comes only with stage 1), or no column
        return np.eye(size, dtype=np.int32) if x is None else np.array(x)
    if x is None:
        words = P.stack.tolist()
        stages, last = [words[0] if final_perm else [1 << (n - 1 - r) for r in range(n)]] + words[first:n], words[n]
        dtype, ncols = _working_dtype(n), size
        out = np.empty((size, size), dtype=np.int32)
    else:
        inv = reversed_inverted(P).stack.tolist()
        stages, last = inv[: n + 1 - first], inv[n] if final_perm else [1 << (n - 1 - r) for r in range(n)]
        cols = x.reshape(size, x.size // size)
        dtype, ncols = cols.dtype, cols.shape[1]
        out = np.empty_like(cols)
    width = max(1, min(ncols, _PANEL_BYTES // (size * dtype.itemsize)))
    # an identity panel is held as tiles of 16 columns, (w/16, 2^n, 16), which transpose fastest
    tile = min(width, 16) if x is None else width
    # a run in place takes the index bits b with tile * 2^b >= _RUN_CHUNK, and at least one
    cap = max(1, long := n - ((_RUN_CHUNK - 1) // tile).bit_length())
    # the identity's first run is written: a member's holds every index bit too short to run in place
    runs, maps = _plan(stages, last, n, cap, n - max(0, long) if x is None and ncols << n >= _PLAN_ENTRIES else 0)
    start, *tables, last = perm_indices(maps, n)
    written = runs[0] if x is None else 0
    if x is None:  # column c of the identity has its one at row r = F_1^-1 c, split (hi, lo) at bit n - written
        at = np.empty(size, np.intp)
        at[start] = np.arange(size)
        hi, lo = np.divmod(at.reshape(-1, width // tile, tile), 1 << (n - written))  # by panel, tile, column
        signs, tiles, cols_in = _signs(written, dtype), np.arange(width // tile)[:, None], np.arange(tile)
    # rows of E go out from the second half's tiles by halves, quarters...: none overlays a tile still unread
    groups = [width // tile - (width // tile >> i) for i in range((width // tile).bit_length())] + [width // tile]
    errors = []

    def panels(part: range) -> None:
        try:
            # an int16 identity panel runs in the int32 rows it becomes, which hold two panels
            own = None if x is None and dtype.itemsize == 2 else np.empty(2 * size * width, dtype=dtype)
            for c0 in part:
                w = min(width, ncols - c0)
                both = out[c0 : c0 + w].view(dtype).reshape(-1) if own is None else own
                halves = list(both[: 2 * size * w].reshape(2, -1, size, min(tile, w)))
                # butterfly j along index bit n-1-j reads each half as the rows with that bit 0, then 1
                views = [both[: 2 * size * w].reshape(2, len(halves[0]) << j, 2, -1) for j in range(cap)]
                pairs = [[(y[h, :, 0], y[h, :, 1]) for y in views] for h in (0, 1)]
                k = (len(maps) + len(stages) - written) % 2  # halves alternate at each move, ending at the second
                if x is None:
                    # the first run's butterflies on e_r leave (-1)^popcount(v & hi) at rows (v, lo)
                    rows = both[(1 - k) * size * w :][: w << written].reshape(w // tile, tile, -1)
                    signs.take(hi[c0 // width], 0, rows, "clip")
                    halves[k].fill(0)
                    halves[k].reshape(w // tile, 1 << written, -1, tile)[tiles, :, lo[c0 // width], cols_in] = rows
                else:
                    cols[None, :, c0 : c0 + w].take(start, 1, halves[k], "clip")
                for i, r in enumerate(runs):
                    if i:
                        # indices are in range; "clip" lets take write straight into the other half
                        halves[k].take(tables[i - 1], 1, halves[1 - k], "clip")
                        k = 1 - k
                    for j in range(0 if i else written, r):
                        (a0, a1), (b0, b1) = pairs[k][j], pairs[1 - k][j]
                        np.add(a0, a1, b0)
                        np.subtract(a0, a1, b1)
                        k = 1 - k
                if x is None:
                    g = halves[1]
                    halves[0].take(last, 1, g, "clip")
                    for b, e in zip(groups, groups[1:]):
                        out[c0 + b * tile : c0 + e * tile].reshape(-1, tile, size)[...] = g[b:e].transpose(0, 2, 1)
                else:
                    halves[k].take(last, 1, out[None, :, c0 : c0 + w], "clip")
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
    output it holds runs+1 <= n+1 index tables of 2^n entries and two
    panel buffers per thread, so only the shape is checked, not the guard.
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
    config._guard(P.n)
    return _run(P, 1, None, final_perm=True)


def evaluate_partial(P: AlgorithmSeq, k: int) -> np.ndarray:
    """The matrix of stages k..n only (butterfly first, P_0 excluded).

    k ranges over 1..n+1; k = n+1 gives the identity.
    """
    n = P.n
    config._guard(n)
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
    config._guard(n)
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
