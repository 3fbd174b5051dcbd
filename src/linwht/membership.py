"""Fast structural membership checks for stage sequences.

A sequence P = (P_0, ..., P_n) computes the 2^n-point Walsh-Hadamard
transform exactly when two bit-matrix conditions hold.  Write
P_{i:j} = P_i * ... * P_j and let the spreading matrix be

    X = ( P_{0:n-1}*e | P_{0:n-2}*e | ... | P_{0:1}*e | P_0*e ),

where e = (0, ..., 0, 1)^T.  The conditions are

  * product condition:  P_{0:n} = X * X^T, and
  * inverse condition:  X is invertible and row k of X^{-1} equals the
    bottom row of P_{0:n-k}^{-1} (k = 1..n).

Neither condition implies the other; ``find_counterexample`` searches
out witnesses for both gaps.  Everything here runs on n x n bit
matrices only, never on 2^n-sized objects: O(n) products of n x n
matrices, which is O(n^3) operations on n-bit row words.

One structural pass, ``_structure``, is the only code that forms the
prefix products P_{0:k} and X.  It also forms X's rank, X * X^T and
X^{-1}, tests the inverse condition row by row, and hands all but
X * X^T back: ``check_membership`` keeps the report, ``spreading_matrix``
X, ``factorize`` B = X, X^{-1} and the prefix products,
``predict_plus_set`` P_{0:n} and X^{-1}, ``_corner_witness`` the
prefix products and X, and the CLI's table rows P_{0:n} and X.  The
paper's corner condition is the inverse condition read as M * X = I,
where M stacks the claimed rows of X^{-1} (see
``check_corner_condition``); M is formed only to name a set corner.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .algorithm import AlgorithmSeq
from .gf2 import BitMatrix, parity
from .groups import random_invertible
from .oracle import _guard

__all__ = [
    "CheckReport",
    "ConditionError",
    "NotMemberError",
    "spreading_matrix",
    "check_membership",
    "is_member",
    "check_corner_condition",
    "predict_plus_set",
    "find_counterexample",
]


class ConditionError(ValueError):
    """A predictor was called on a sequence that fails its precondition."""


class NotMemberError(ValueError):
    """The sequence does not compute the Walsh-Hadamard transform."""


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    x_invertible: bool
    cond_product: bool
    cond_inverse: bool
    witness: Optional[str]

    def __post_init__(self):
        if self.passed != (self.cond_product and self.cond_inverse):
            raise ValueError("inconsistent report: passed must mirror the two conditions")
        if self.cond_inverse and not self.x_invertible:
            raise ValueError("inconsistent report: inverse condition needs invertible X")


def _claimed_rows(P: AlgorithmSeq, prefix: Sequence[BitMatrix]) -> BitMatrix:
    """M, whose row k (from 1) is the bottom row of P_{0:n-k}^{-1}, as
    the one product R * P_{0:n-1}^{-1}: row k of R is the bottom row of
    the suffix product P_{n-k+1:n-1} (e for k = 1), accumulated right to
    left, and prefix[n-1] = P_{0:n-1}.  M = X^{-1} exactly when the
    inverse condition holds."""
    n = P.n
    rows = [1]
    suffix = None
    for j in range(n - 1, 0, -1):
        suffix = P[j] if suffix is None else P[j] @ suffix
        rows.append(suffix.words[-1])
    return BitMatrix(n, n, tuple(rows)) @ prefix[n - 1].inverse()


def spreading_matrix(P: AlgorithmSeq) -> BitMatrix:
    """Columns P_{0:n-1}*e, ..., P_0*e for e = (0,...,0,1)^T, read off
    the structural pass."""
    return _structure(P)[2]


def _first_mismatch(a: BitMatrix, b: BitMatrix) -> Optional[int]:
    """Number (from 1) of the first row where a and b differ, or None."""
    return next((r for r, (x, y) in enumerate(zip(a.words, b.words), start=1) if x != y), None)


def _structure(
    P: AlgorithmSeq,
) -> tuple[CheckReport, list[BitMatrix], BitMatrix, Optional[BitMatrix]]:
    """The one structural pass behind ``check_membership``.

    Returns the report, the prefix products P_{0:0}, ..., P_{0:n}, X and
    X^{-1} (None when X is singular); (X * X^T)^{-1} is X^{-T} * X^{-1}.
    X is ranked first, as a failed inversion costs about twice a rank.
    """
    n = P.n
    prefix = [P[0]]
    for q in P.matrices[1:]:
        prefix.append(prefix[-1] @ q)
    # the rows of X^T are the columns of X, so it is built directly
    xt = BitMatrix(n, n, tuple(prefix[j].apply(1) for j in range(n - 1, -1, -1)))
    x = xt.transpose()
    rank_x = x.rank()
    x_invertible = rank_x == n
    bad_product = _first_mismatch(prefix[n], x @ xt)

    x_inv = bad_inverse = None
    if x_invertible:
        x_inv = x.inverse()
        # row k of X^-1 is the bottom row of P_{0:n-k}^-1 exactly when
        # it times P_{0:n-k} is e^T, the packed word 1
        products = ((k, BitMatrix(1, n, (w,)) @ prefix[n - k]) for k, w in enumerate(x_inv.words, 1))
        bad_inverse = next((k for k, p in products if p.words != (1,)), None)

    cond_product = bad_product is None
    cond_inverse = x_invertible and bad_inverse is None
    passed = cond_product and cond_inverse
    if passed:
        witness = None
    elif not x_invertible:
        witness = f"spreading matrix is singular (rank {rank_x} of {n})"
    elif not cond_product:
        witness = f"product of all stage matrices differs from X*X^T, first in row {bad_product} of {n}"
    else:
        witness = (
            f"rows of X^-1 do not match the partial-product inverses: row {bad_inverse} of {n}"
            f" is not the bottom row of P_0:{n - bad_inverse}^-1"
        )
    report = CheckReport(passed, x_invertible, cond_product, cond_inverse, witness)
    return report, prefix, x, x_inv


def check_membership(P: AlgorithmSeq) -> CheckReport:
    """Evaluate both membership conditions on n x n bit matrices.

    The inverse condition is tested as the paper states it: X is
    inverted once, and row k of X^{-1} is the bottom row of
    P_{0:n-k}^{-1} exactly when (row k of X^{-1}) * P_{0:n-k} = e^T,
    one row times a prefix product the pass already holds.  A failed
    condition's witness names its first bad row, counted from 1: the
    first row where P_{0:n} and X*X^T differ, or the first such k.
    """
    return _structure(P)[0]


def is_member(P: AlgorithmSeq) -> bool:
    return check_membership(P).passed


def check_corner_condition(P: AlgorithmSeq) -> bool:
    """No central product P_{k:l} (0 < k <= l < n), nor its inverse, has
    a 1 in its bottom-right corner.

    Let M stack the claimed rows of X^{-1}, row k (from 1) the bottom
    row of P_{0:n-k}^{-1}.  Entry (r, c) of M * X, counted from 0, is
    e^T P_{0:n-1-r}^{-1} P_{0:n-1-c} e: 1 on the diagonal, the corner
    of P_{n-r:n-1-c} below it and that of P_{n-c:n-1-r}^{-1} above it.  So

        corner(P_{k:l})      = (M X)[n-k][n-1-l]
        corner(P_{k:l}^{-1}) = (M X)[n-1-l][n-k],

    the pairs cover every off-diagonal entry once, and the condition is
    exactly M * X = I: the inverse condition, which is what this
    returns.  It is also equivalent to the computed matrix having an
    all-ones first row and first column.
    """
    return check_membership(P).cond_inverse


def _corner_witness(P: AlgorithmSeq) -> Optional[tuple[int, int, bool]]:
    """The first (k, l), by ascending k and then l, whose corner is set,
    with True when it is the corner of P_{k:l}^{-1}; None when the
    condition holds.  When it fails, M is formed and the corners are
    read off M * X."""
    n = P.n
    report, prefix, x, _ = _structure(P)
    if report.cond_inverse:
        return None
    mx = _claimed_rows(P, prefix) @ x
    for k in range(1, n):
        for l in range(k, n):
            if mx.words[n - k] >> l & 1:
                return k, l, False
            if mx.words[n - 1 - l] >> (k - 1) & 1:
                return k, l, True
    return None


def predict_plus_set(P: AlgorithmSeq, i: int) -> frozenset[int]:
    """Outputs predicted to carry +1 in column i, from bit matrices alone.

    Requires the corner condition, tested as the equivalent inverse
    condition; then the +1 rows of column i are exactly
    { j : <(X X^T)^{-1} P_{0:n} i, j> = 0 }, where (X X^T)^{-1} is
    X^{-T} X^{-1}, from the structural pass's X^{-1}.  For i = 0 this is
    every output index.  The set has up to 2^n entries, so n is bounded
    like the dense oracle (``SizeLimitError`` above ``oracle_max_n``).
    """
    n = P.n
    if not 0 <= i < 1 << n:
        raise ValueError(f"input index {i} outside 0..{(1 << n) - 1}")
    _guard(n)
    report, prefix, _, x_inv = _structure(P)
    if not report.cond_inverse:
        raise ConditionError("plus-set prediction needs the corner condition to hold")
    u = x_inv.transpose().apply(x_inv.apply(prefix[n].apply(i)))
    return frozenset(j for j in range(1 << n) if parity(u & j) == 0)


def find_counterexample(
    n: int,
    which: str,
    budget: int = 100_000,
    seed: int = 0,
) -> Optional[AlgorithmSeq]:
    """Search for a sequence violating exactly one membership condition.

    ``which`` selects the violated condition: "product" finds a P with
    the inverse condition holding but the product condition broken;
    "inverse" the other way around.  Draws uniform random sequences
    until one qualifies; returns None if the budget runs out.
    """
    if which not in ("product", "inverse"):
        raise ValueError(f"which must be 'product' or 'inverse', got {which!r}")
    if n < 2:
        raise ValueError("no condition can fail at n = 1; need n >= 2")
    rng = random.Random(seed)
    for _ in range(budget):
        P = AlgorithmSeq(tuple(random_invertible(n, rng) for _ in range(n + 1)))
        r = check_membership(P)
        if which == "product" and r.cond_inverse and not r.cond_product:
            return P
        if which == "inverse" and r.cond_product and not r.cond_inverse:
            return P
    return None
