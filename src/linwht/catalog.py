"""Named reference sequences and their bit-reversed (Paley) output order."""

from __future__ import annotations

from .algorithm import AlgorithmSeq, _sequence, reversed_inverted
from .gf2 import BitMatrix, identity, rotation_matrix
from .membership import NotMemberError, is_member

__all__ = [
    "pease",
    "pease_transpose",
    "iterative_ct",
    "to_sequency",
    "CATALOG",
]


def pease(n: int) -> AlgorithmSeq:
    """Constant-geometry sequence: every stage permutation is the perfect
    shuffle C_n, with no leading permutation (P_0 = I)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    c = rotation_matrix(n)
    return AlgorithmSeq((identity(n),) + (c,) * n)


def pease_transpose(n: int) -> AlgorithmSeq:
    """The reversed-inverted pease sequence; computes the same transform
    because the transform matrix is symmetric."""
    return reversed_inverted(pease(n))


def _bit_swap(n: int, k: int) -> BitMatrix:
    """Identity with index bits k and n exchanged (1-indexed from the top)."""
    words = [1 << (n - 1 - r) for r in range(n)]
    words[k - 1], words[n - 1] = words[n - 1], words[k - 1]
    return BitMatrix(n, n, tuple(words))


def iterative_ct(n: int) -> AlgorithmSeq:
    """In-place iterative Cooley-Tukey order: stage k pairs indices that
    differ in bit k.

    Each stage is the adjacent-pair butterfly column conjugated by the
    swap T_k of bits k and n; fusing neighbouring permutations gives
    P_0 = T_1, P_i = T_i * T_{i+1}, P_n = T_n = I.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    t = [_bit_swap(n, k) for k in range(1, n + 1)]
    mats = [t[0]]
    for i in range(1, n):
        mats.append(t[i - 1] @ t[i])
    mats.append(t[n - 1])
    return AlgorithmSeq(tuple(mats))


def to_sequency(P: AlgorithmSeq) -> AlgorithmSeq:
    """Left-multiply P_0 by the bit reversal J, which only reverses the order of P_0's rows:
    the output rows go from natural to bit-reversed (Paley, dyadic) order, which despite
    the name is not sequency order.

    Accepts members and outputs of a previous ``to_sequency`` call (the
    bit-reversal squares to the identity, so applying this twice returns
    the original sequence).
    """
    twisted = _sequence([P.stack[0, ::-1], *P.stack[1:]])
    if not (is_member(P) or is_member(twisted)):
        raise NotMemberError("sequence is neither a member nor a sequency reordering of one")
    return twisted


CATALOG = {
    "pease": pease,
    "pease-t": pease_transpose,
    "ict": iterative_ct,
}
