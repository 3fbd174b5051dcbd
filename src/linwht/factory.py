"""Parametrization of all stage sequences that compute the transform.

Every member is built from one B in GL_n and n matrices Q_1..Q_n in
GL_{n-1}, via (with C the downward index rotation and D_i the bordered
matrix diag(Q_i, 1)):

    P_0 = B * D_1
    P_i = D_i^{-1} * C * D_{i+1}      for 0 < i <= n, with D_{n+1} = B^T

C only permutes rows: C * D is D with its rows moved up one place,
cyclically, so P_i, i > 0, is the quotient of C * D_{i+1} by D_i and P_0
one product; ``build``, and the enumerations for all members that share
a B, form every quotient in one stack elimination (the Gauss-Jordan loop)
and every P_0 in one bit-stack product.  ``factorize`` inverts the
construction; B comes back as the spreading matrix X of the sequence, and
since P_{0:i} = B * C^i * D_{i+1},

    D_{i+1} = C^{-i} * X^{-1} * P_{0:i}.

A ``FactorTuple`` holds the row words that ``factorize`` packs, ``build``
reads and ``parse_factors`` decodes, checked on the rank-only loop.

The map is injective, so member counts equal parameter counts:
|GL_n| * |GL_{n-1}|^n.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .algorithm import AlgorithmSeq, _check, _sequence, _trusted
from .config import BIT_INDEX_ENUM_MAX, MEMBER_ENUM_MAX, N_MAX
from .gf2 import BitMatrix, DimensionError, SingularError, _eliminate, _mul_bits, _to_bits, _words
from .groups import _random_invertibles, enumerate_gl, enumerate_perm, random_invertible
from .membership import NotMemberError, _structure, check_membership
from .oracle import evaluate, hadamard

__all__ = [
    "FactorTuple",
    "MemberSurvey",
    "build",
    "factorize",
    "sample_member",
    "enumerate_members",
    "enumerate_bit_index_members",
    "survey_members",
]


@dataclass(frozen=True, init=False, eq=False)
class FactorTuple:
    """B plus the n inner matrices; the free coordinates of a member, held as read-only uint64
    row words: B's in ``b_words``, (n,), and the Q_i's in ``q_words``, (n, n-1).  The
    constructor checks ``BitMatrix`` values; ``b``, ``qs`` and ``n`` make theirs on demand."""

    b_words: np.ndarray
    q_words: np.ndarray

    def __init__(self, b: BitMatrix, qs: Iterable[BitMatrix]):
        self.__post_init__(b, tuple(qs))

    def __post_init__(self, b: BitMatrix, qs: tuple[BitMatrix, ...]):
        n = b.rows
        # the size bound comes first, as the rank check's stack elimination needs n <= 64
        if not 1 <= n <= N_MAX:
            raise DimensionError(f"B is {n}x{n}, expected n x n with 1 <= n <= {N_MAX}")
        # B's rank is checked alone only when a later shape is wrong, to come before that error
        bad = len(qs) != n or any(q.rows != n - 1 or q.cols != n - 1 for q in qs)
        bw = _check((b,), n, "B", rank=bad)
        if len(qs) != n:
            raise DimensionError(f"need exactly {n} inner matrices, got {len(qs)}")
        qw = _check(qs, n - 1, "inner matrix {}", start=1, rank=False)
        self.__dict__.update(vars(_factors(bw[0], qw, check=True)))

    @property
    def n(self) -> int:
        return len(self.b_words)

    @property
    def b(self) -> BitMatrix:
        return BitMatrix(self.n, self.n, tuple(self.b_words.tolist()))

    @property
    def qs(self) -> tuple[BitMatrix, ...]:
        return tuple(BitMatrix(self.n - 1, self.n - 1, tuple(q)) for q in self.q_words.tolist())

    def __eq__(self, other) -> bool:
        return isinstance(other, FactorTuple) and self._bytes() == other._bytes()

    def __hash__(self) -> int:
        return hash(self._bytes())

    def _bytes(self) -> bytes:  # 8n^2 bytes, so they fix n
        return self.b_words.tobytes() + self.q_words.tobytes()

    def __reduce__(self):  # copied or unpickled words are made read-only again
        return _factors, (self.b_words, self.q_words)


def _factors(b, q, check: bool = False) -> FactorTuple:
    """The ``FactorTuple`` of row words b, (n,), and q, (n, n-1), made read-only; with ``check``,
    once B and every D_i = diag(Q_i, 1), of rank rank(Q_i) + 1, are ranked in one stack
    elimination, else an error for the first singular one, B before the Q_i."""
    b, q = np.asarray(b, np.uint64), np.asarray(q, np.uint64)
    if check:
        n = len(b)
        d = np.empty((n + 1, n), np.uint64)
        d[0], d[1:, :-1], d[1:, -1] = b, q << np.uint64(1), 1
        for i, rank in enumerate(_eliminate(d)[0].tolist()):
            if rank != n:
                raise SingularError(f"inner matrix {i} is singular" if i else "B is singular", rank - (i > 0))
    b.flags.writeable = q.flags.writeable = False
    return _trusted(FactorTuple, b_words=b, q_words=q)


def _built(b, qs) -> list[AlgorithmSeq]:
    """The members (B, Q_1..Q_n), row words in ``b`` and ``qs``: every P_0 in one bit-stack product
    and all divisions in one stack elimination, into one array whose (n+1, n) slices are their stacks."""
    n, count = len(b), len(qs)
    bits = _to_bits(b, n)
    # D_i = diag(Q_i, 1): each row of Q_i with a 0 appended, then e_n; D_{n+1} = B^T
    d = np.empty((count, n + 1, n), np.uint64)
    d[:, :n, :-1] = np.array(qs, np.uint64).reshape(count, n, n - 1) << np.uint64(1)
    d[:, :n, -1] = 1
    d[:, n] = _words(bits.T)
    stages = np.empty((count, n + 1, n), np.uint64)
    stages[:, 0] = _words(_mul_bits(bits, _to_bits(d[:, 0], n)))
    # P_i = D_i^{-1} * (C * D_{i+1}); C * D moves the rows of D up one place
    x = _eliminate(d[:, :-1].reshape(-1, n), np.roll(d[:, 1:], -1, axis=2).reshape(-1, n))[1]
    stages[:, 1:] = x.reshape(count, n, n)
    return [_sequence(s) for s in stages]


def build(f: FactorTuple) -> AlgorithmSeq:
    return _built(f.b_words, f.q_words[None])[0]


def factorize(P: AlgorithmSeq) -> FactorTuple:
    """Recover the (B, Q_1..Q_n) coordinates of a member.

    One structural pass, the same as ``check_membership``, gives B = X, X^{-1}
    and the prefix stack; each D_{i+1} = C^{-i} * X^{-1} * P_{0:i} is one product.
    Raises NotMemberError when the sequence fails that check.
    """
    report, prefix, b, b_inv = _structure(P)
    if not report.passed:
        raise NotMemberError(report.witness or "sequence fails the membership conditions")
    n = P.n
    at = np.arange(n)
    d = np.stack([_mul_bits(b_inv, p) for p in prefix[:-1]])
    # stage i, row r of C^{-i} * D is row r - i of D, cyclically
    d = d[at[:, None], (at - at[:, None]) % n]
    e = at == n - 1
    if (d[:, -1] != e).any() or (d[:, :, -1] != e).any():
        raise RuntimeError("internal error: factor matrix is not bordered")
    return _factors(b.words, _words(d[:, :-1, :-1]))


def sample_member(n: int, seed: Optional[int] = None) -> AlgorithmSeq:
    """Uniform draw from the member set (uniform over factor tuples)."""
    if not 1 <= n <= N_MAX:
        raise DimensionError(f"n must be in 1..{N_MAX}, got {n}")
    rng = random.Random(seed)
    b = random_invertible(n, rng).words
    return _built(b, _random_invertibles(n - 1, n, rng)[None])[0]


def _members(
    n: int, outer: Callable[[int], Iterator[BitMatrix]], bound: int, what: str
) -> Iterator[AlgorithmSeq]:
    if not 1 <= n <= bound:  # refused at the call, before the generator is returned
        raise ValueError(f"{what} supported for 1 <= n <= {bound}")
    inner = [q.words for q in outer(n - 1)]
    return (P for b in outer(n) for P in _built(b.words, list(itertools.product(inner, repeat=n))))


def enumerate_members(n: int) -> Iterator[AlgorithmSeq]:
    """All members at size n, one per factor tuple."""
    return _members(n, enumerate_gl, MEMBER_ENUM_MAX, "full enumeration")


def enumerate_bit_index_members(n: int) -> Iterator[AlgorithmSeq]:
    """Members whose stage matrices are all permutations of the index bits."""
    return _members(n, enumerate_perm, BIT_INDEX_ENUM_MAX, "bit-index enumeration")


@dataclass(frozen=True)
class MemberSurvey:
    raw: int
    distinct: int
    verified: int


def census(
    members: Iterable[AlgorithmSeq],
    n: int,
    dedupe: bool = True,
    verify: Optional[str] = "fast",
    emit: Callable[[AlgorithmSeq], None] = lambda P: None,
) -> MemberSurvey:
    """Count the members, drop repeated stage stacks, verify and emit the rest.

    ``verify`` is None, "fast" (the structural check) or "oracle" (that check,
    then the computed matrix against the transform, entrywise).  Without
    ``dedupe`` every member counts as distinct.
    """
    if verify not in (None, "fast", "oracle"):
        raise ValueError(f"verify must be None, 'fast' or 'oracle', got {verify!r}")
    reference = hadamard(n) if verify == "oracle" else None
    raw = 0
    verified = 0
    seen: set[bytes] = set()
    for P in members:
        raw += 1
        if dedupe:
            k = P.stack.tobytes()
            if k in seen:
                continue
            seen.add(k)
        if verify:
            ok = check_membership(P).passed
            if ok and reference is not None:
                ok = bool((evaluate(P) == reference).all())
            verified += ok
        emit(P)
    return MemberSurvey(raw, len(seen) if dedupe else raw, verified)


def survey_members(n: int, verify_oracle: bool = False) -> MemberSurvey:
    """Enumerate every member at size n and verify each distinct one."""
    return census(enumerate_members(n), n, verify="oracle" if verify_oracle else "fast")
