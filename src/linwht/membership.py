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
matrices only, never on 2^n-sized objects.

One structural pass, ``_structure``, runs on the stages unpacked into
one 0/1 stack; every reader here, ``factorize`` and the CLI's table rows
use it, packing only the matrix they print or invert.  The paper's corner
condition is the inverse condition read as M * X = I, where M stacks the
claimed rows of X^{-1} (see ``check_corner_condition``); M and M * X are
formed on the stack, and only to name a set corner.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algorithm import AlgorithmSeq, _sequence
from .config import N_MAX, _guard
from .gf2 import BitMatrix, DimensionError, SingularError, _mul_bits, _packed, _to_bits, _words, parity
from .groups import random_invertible

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


def _chain(stack: np.ndarray) -> np.ndarray:
    """The running products stack[0] * ... * stack[k], written over the stack."""
    for k in range(1, len(stack)):
        stack[k] = _mul_bits(stack[k - 1], stack[k])
    return stack


def _claimed_rows(P: AlgorithmSeq, prefix: np.ndarray) -> np.ndarray:
    """M as a 0/1 array (X^{-1} exactly when the inverse condition holds), row k the
    bottom row of P_{0:n-k}^{-1}, as R * P_{0:n-1}^{-1}: row k of R is the bottom row of
    P_{n-k+1:n-1} (e for k = 1), the last column of the chain P_{n-1}^T * ... * P_j^T."""
    n = P.n
    stages = _to_bits(P.stack, n)[n - 1 : 0 : -1]
    r = np.vstack([np.arange(n) == n - 1, _chain(stages.transpose(0, 2, 1))[:, :, n - 1]])
    return _mul_bits(r, _to_bits(_packed(prefix[n - 1]).inverse().words, n))


def spreading_matrix(P: AlgorithmSeq) -> BitMatrix:
    """Columns P_{0:n-1}*e, ..., P_0*e for e = (0,...,0,1)^T, from ``_structure``."""
    return _structure(P)[2]


def _first_set_row(diff: np.ndarray) -> Optional[int]:
    """Number (from 1) of the first row of diff with a set entry, or None."""
    return next((r for r, bad in enumerate(diff.any(axis=1).tolist(), 1) if bad), None)


def _structure(P: AlgorithmSeq) -> tuple[CheckReport, np.ndarray, BitMatrix, Optional[np.ndarray]]:
    """The report, the prefix products P_{0:0..n} as an (n+1, n, n) 0/1 stack, X and
    X^{-1} as an (n, n) 0/1 array (None if X is singular).  Products are ``_mul_bits``;
    the inverse condition's n row products are one uint8 einsum, exact as no sum
    exceeds 64.  Only X is packed, for one ``inverse``: most passes check members, whose
    X is invertible, so a singular X's rank comes from the ``SingularError``."""
    n = P.n
    prefix = _chain(_to_bits(P.stack, n))
    # row c of X^T is the last column of P_{0:n-1-c}
    xt = prefix[n - 1 :: -1, :, n - 1]
    x = _packed(xt.T)
    bad_product = _first_set_row(_mul_bits(xt.T, xt) != prefix[n])

    x_inv = bad_inverse = None
    try:
        x_inv = _to_bits(x.inverse().words, n)
    except SingularError as exc:
        rank_x = exc.rank
    else:
        # row k of X^-1 is the bottom row of P_{0:n-k}^-1 exactly when
        # it times P_{0:n-k} is e^T
        rows = np.einsum("kj,kjc->kc", x_inv, prefix[n - 1 :: -1]) & 1
        bad_inverse = _first_set_row(rows != (np.arange(n) == n - 1))
    x_invertible = x_inv is not None

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

    Row k of X^{-1} is the bottom row of P_{0:n-k}^{-1} exactly when it
    times P_{0:n-k} is e^T.  A failed condition's witness names its first
    bad row, counted from 1: the first row where P_{0:n} and X*X^T
    differ, or the first such k.
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
    read off M * X, with X the last columns of the prefix stack."""
    n = P.n
    report, prefix, _, _ = _structure(P)
    if report.cond_inverse:
        return None
    mx = _mul_bits(_claimed_rows(P, prefix), prefix[n - 1 :: -1, :, n - 1].T).tolist()
    for k in range(1, n):
        for l in range(k, n):
            if mx[n - k][n - 1 - l]:
                return k, l, False
            if mx[n - 1 - l][n - k]:
                return k, l, True
    return None


def predict_plus_set(P: AlgorithmSeq, i: int) -> frozenset[int]:
    """Outputs predicted to carry +1 in column i, from bit matrices alone.

    Requires the corner condition, tested as the equivalent inverse
    condition; then the +1 rows of column i are exactly
    { j : <(X X^T)^{-1} P_{0:n} i, j> = 0 }, where (X X^T)^{-1} is
    X^{-T} X^{-1}: three 0/1 products on the structural pass's arrays and
    the bits of i.  For i = 0 this is every output index.  The set has up
    to 2^n entries, so n is bounded like the dense oracle (``SizeLimitError``
    above ``oracle_max_n``).
    """
    n = P.n
    if not 0 <= i < 1 << n:
        raise ValueError(f"input index {i} outside 0..{(1 << n) - 1}")
    _guard(n)
    report, prefix, _, x_inv = _structure(P)
    if not report.cond_inverse:
        raise ConditionError("plus-set prediction needs the corner condition to hold")
    u = int(_words(_mul_bits(x_inv.T, _mul_bits(x_inv, _mul_bits(prefix[n], _to_bits(i, n))))))
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
    if n > N_MAX:
        raise DimensionError(f"n must be in 2..{N_MAX}, got {n}")
    rng = random.Random(seed)
    for _ in range(budget):
        # random_invertible proves each stage, so the draw needs no re-check
        P = _sequence([random_invertible(n, rng).words for _ in range(n + 1)])
        r = check_membership(P)
        if which == "product" and r.cond_inverse and not r.cond_product:
            return P
        if which == "inverse" and r.cond_product and not r.cond_inverse:
            return P
    return None
