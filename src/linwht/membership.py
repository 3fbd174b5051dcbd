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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .algorithm import AlgorithmSeq, seq_product
from .gf2 import BitMatrix, identity, parity
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


def _prefix_products(P: AlgorithmSeq) -> list[BitMatrix]:
    prefix = [P[0]]
    for k in range(1, P.n + 1):
        prefix.append(prefix[-1] @ P[k])
    return prefix


def _spreading_from_prefix(prefix: list[BitMatrix], n: int) -> BitMatrix:
    return BitMatrix.from_cols([prefix[j].apply(1) for j in range(n - 1, -1, -1)], n)


def spreading_matrix(P: AlgorithmSeq) -> BitMatrix:
    """Columns P_{0:n-1}*e, ..., P_0*e for e = (0,...,0,1)^T."""
    return _spreading_from_prefix(_prefix_products(P), P.n)


def _first_mismatch(a: BitMatrix, b: BitMatrix) -> Optional[int]:
    """Number (from 1) of the first row where a and b differ, or None."""
    return next((r for r, (x, y) in enumerate(zip(a.words, b.words), start=1) if x != y), None)


def check_membership(P: AlgorithmSeq) -> CheckReport:
    """Evaluate both membership conditions without forming any inverse of X.

    The inverse condition is tested as M * X = I where M stacks the
    claimed rows; the bottom rows of the partial-product inverses come
    from one inversion of P_{0:n-1} via
    P_{0:j}^{-1} = P_{j+1:n-1} * P_{0:n-1}^{-1}.  A failed condition's
    witness names its first bad row, counted from 1: the first row where
    P_{0:n} and X*X^T differ, or the first k where row k of M is not
    row k of X^{-1} (the first row of M*X that is not the identity's).
    """
    n = P.n
    mats = P.matrices
    prefix = _prefix_products(P)
    x = _spreading_from_prefix(prefix, n)
    rank_x = x.rank()
    x_invertible = rank_x == n
    bad_product = _first_mismatch(prefix[n], x @ x.transpose())

    bad_inverse = None
    if x_invertible:
        # rho[j] = bottom row of P_{j+1:n-1}, accumulated right to left
        rho = [0] * n
        suffix = identity(n)
        for j in range(n - 1, -1, -1):
            rho[j] = suffix.words[-1]
            if j:
                suffix = mats[j] @ suffix
        f = prefix[n - 1].inverse()
        claimed = BitMatrix(n, n, tuple(f.left_apply(rho[n - 1 - r]) for r in range(n)))
        bad_inverse = _first_mismatch(claimed @ x, identity(n))

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
    return CheckReport(passed, x_invertible, cond_product, cond_inverse, witness)


def is_member(P: AlgorithmSeq) -> bool:
    return check_membership(P).passed


def check_corner_condition(P: AlgorithmSeq) -> bool:
    """No central product P_{k:l} (0 < k <= l < n), nor its inverse, has
    a 1 in its bottom-right corner.

    Equivalent to the inverse condition of ``check_membership``, and to
    the computed matrix having an all-ones first row and first column.

    With e the last basis vector, v_k = P_{1:k-1}*e (v_1 = e) and
    u_l = e^T * P_{1:l}^{-1} (u_0 = e^T), the corners are

        corner(P_{k:l})      = <u_{k-1}, v_{l+1}>
        corner(P_{k:l}^{-1}) = <u_l, v_k>,

    and u_l = (bottom row of P_{l+1:n-1}) * P_{1:n-1}^{-1}.  One
    inversion, n prefix and n suffix products give every u and v, and
    the corners are O(n^2) parities; X is never formed.
    """
    n = P.n
    if n == 1:
        return True
    mats = P.matrices
    # v[k] = P_{1:k-1} e for k = 1..n (v[0] unused); prefix ends as P_{1:n-1}
    v = [0, 1]
    prefix = mats[1]
    for k in range(2, n + 1):
        v.append(prefix.apply(1))
        if k < n:
            prefix = prefix @ mats[k]
    f = prefix.inverse()
    # u[0] = e^T; u[l] from the bottom row of suffix = P_{l+1:n-1}, right to left
    u = [1] * n
    suffix = identity(n)
    for l in range(n - 1, 0, -1):
        u[l] = f.left_apply(suffix.words[-1])
        if l > 1:
            suffix = mats[l] @ suffix
    for k in range(1, n):
        for l in range(k, n):
            if parity(u[k - 1] & v[l + 1]) or parity(u[l] & v[k]):
                return False
    return True


def predict_plus_set(P: AlgorithmSeq, i: int) -> frozenset[int]:
    """Outputs predicted to carry +1 in column i, from bit matrices alone.

    Requires the corner condition; then the +1 rows of column i are
    exactly { j : <(X X^T)^{-1} P_{0:n} i, j> = 0 }.  For i = 0 this is
    every output index.
    """
    n = P.n
    if not 0 <= i < 1 << n:
        raise ValueError(f"input index {i} outside 0..{(1 << n) - 1}")
    if not check_corner_condition(P):
        raise ConditionError("plus-set prediction needs the corner condition to hold")
    x = spreading_matrix(P)
    gram_inv = (x @ x.transpose()).inverse()
    u = gram_inv.apply(seq_product(P, 0, n).apply(i))
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
