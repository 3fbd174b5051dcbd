"""The four benchmark workloads.

Each workload is a closed loop with one caller: the next operation
starts only when the previous one has returned.  A workload makes a
fixed window of inputs from the seed (``make_inputs``), runs one
untimed operation of every kind (``warm_up``), then runs passes over
the window (``run_pass``) until the run's time is up.  Every output is
checked right after its operation returns, outside the timed interval;
``finish`` runs the checks that need the whole run.  NOTES.md gives the
reasons for each workload and the metrics each layer should move.

Each operation's time on one input is the best of its passes.  On a
shared host, other tenants on the same physical cores can slow every
operation by up to 1.6x for seconds at a time; the best of several
passes, seconds apart, removes most of that and keeps the cost of the
input itself.  Medians and tails are then taken over the inputs.

The library is always called through module attributes
(``membership.check_membership``), never through names bound at
import, so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from linwht import algorithm, catalog, factory, groups, membership, oracle, textio


class ItemFailed(Exception):
    """An operation raised; the rest of its item is skipped."""


class Recorder:
    """Per-input best times, work done and failures of one measured stretch."""

    def __init__(self, tracer=None):
        self.best: dict[str, dict[int, int]] = defaultdict(dict)
        self.calls: dict[str, int] = defaultdict(int)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer = tracer

    def item(self, i: int) -> None:
        if self.tracer is not None:
            self.tracer.current_item = i

    def record(self, kind: str, slot: int, ns: int) -> None:
        best = self.best[kind]
        if ns < best.get(slot, ns + 1):
            best[slot] = ns
        self.calls[kind] += 1

    def time(self, kind: str, slot: int, fn, *args):
        self.attempted += 1
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args)
        except Exception as exc:
            self.fail(kind, f"input {slot} raised {exc!r}")
            raise ItemFailed(kind) from exc
        self.record(kind, slot, time.perf_counter_ns() - t0)
        return result

    def expect(self, kind: str, ok: bool, what: str) -> None:
        """Count the operation just timed as failed unless ``ok``."""
        if not ok:
            self.fail(kind, what)

    def fail(self, kind: str, what: str) -> None:
        self.failed += 1
        self.note(f"{kind}: {what}")

    def note(self, problem: str) -> None:
        """Record a wrong result, also one that no single operation owns."""
        if len(self.problems) < 20:
            self.problems.append(problem)
        else:
            self.problems[-1] = "... more problems omitted"

    def best_total_ns(self) -> int:
        return sum(sum(per_input.values()) for per_input in self.best.values())

    def inputs(self) -> int:
        slots: set[int] = set()
        for per_input in self.best.values():
            slots.update(per_input)
        return len(slots)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:16]


def _past(deadline: Optional[float]) -> bool:
    return deadline is not None and time.perf_counter() >= deadline


def _text_roundtrip(doc):
    return textio.parse_document(textio.format_document(doc))


def _factor_roundtrip(P):
    return factory.build(factory.factorize(P))


@dataclass(frozen=True)
class Op:
    """A timed operation kind and the metric name reported for it."""

    kind: str
    metric: str
    p90: bool = False


@dataclass
class StructuralInputs:
    member_seeds: list[int]
    pool: list
    warm_seed: int
    cond_inverse: dict[int, set] = field(default_factory=lambda: defaultdict(set))

    def digest(self) -> str:
        return _digest([*self.member_seeds, self.warm_seed, *(q.key() for q in self.pool)])


class Structural:
    """Per member: sample, text round-trip, check, factor round-trip,
    reject one random sequence and, on every ``corner_every``-th member,
    the corner condition, all at size n."""

    # The paper's equivalence cond_inverse == corner condition is checked
    # on the random sequences only where the corner check is cheap.
    equivalence_max_n = 16
    ops = (
        Op("sample", "sample_ms"),
        Op("check", "check_ms", p90=True),
        Op("reject", "reject_ms"),
        Op("corner", "corner_ms"),
        Op("roundtrip", "roundtrip_ms", p90=True),
        Op("textio", "textio_ms"),
    )
    headline = "check"

    def __init__(self, n: int, window: int, corner_every: int, pool_size: int):
        self.n = n
        self.name = f"structural{n}"
        self.window = window
        self.corner_every = corner_every
        self.pool_size = pool_size

    def make_inputs(self, seed: int) -> StructuralInputs:
        rng = random.Random(f"{self.name}/{seed}")
        member_seeds = [rng.getrandbits(63) for _ in range(self.window)]
        warm_seed = rng.getrandbits(63)
        n = self.n
        pool = [
            algorithm.AlgorithmSeq(tuple(groups.random_invertible(n, rng) for _ in range(n + 1)))
            for _ in range(self.pool_size)
        ]
        return StructuralInputs(member_seeds, pool, warm_seed)

    def warm_up(self, st: StructuralInputs) -> None:
        try:
            self._item(st, Recorder(), -1, st.warm_seed, 0, corner=True)
        except ItemFailed:
            pass  # the timed passes record the failure

    def run_pass(self, st: StructuralInputs, rec: Recorder, deadline: Optional[float]) -> bool:
        for slot, seed in enumerate(st.member_seeds):
            if _past(deadline):
                return False
            rec.item(slot)
            try:
                self._item(st, rec, slot, seed, slot % self.pool_size,
                           corner=slot % self.corner_every == 0)
            except ItemFailed:
                continue
        return True

    def _item(self, st, rec: Recorder, slot: int, seed: int, q: int, corner: bool) -> None:
        P = rec.time("sample", slot, factory.sample_member, self.n, seed)
        key = P.key()

        meta = {"source": self.name, "seed": str(seed)}
        back = rec.time("textio", slot, _text_roundtrip, textio.AlgorithmDocument(P, meta))
        rec.expect("textio", back.seq.key() == key and back.metadata == meta,
                   f"text round-trip changed member {slot}")

        report = rec.time("check", slot, membership.check_membership, P)
        rec.expect("check", report.passed, f"member {slot} rejected: {report.witness}")

        again = rec.time("roundtrip", slot, _factor_roundtrip, P)
        rec.expect("roundtrip", again.key() == key, f"build(factorize) changed member {slot}")

        refused = rec.time("reject", slot, membership.check_membership, st.pool[q])
        rec.expect("reject", not refused.passed, f"random sequence {q} accepted")
        st.cond_inverse[q].add(refused.cond_inverse)

        if corner:
            ok = rec.time("corner", slot, membership.check_corner_condition, P)
            rec.expect("corner", ok, f"member {slot} fails the corner condition")

    def finish(self, st: StructuralInputs, rec: Recorder) -> None:
        if self.n > self.equivalence_max_n:
            return
        for q, seen in sorted(st.cond_inverse.items()):
            corner = membership.check_corner_condition(st.pool[q])
            if seen != {corner}:
                rec.note(f"random sequence {q}: cond_inverse {sorted(seen)} but corner {corner}")


@dataclass
class CensusInputs:
    expected: int

    def digest(self) -> str:
        return _digest(["enumerate_members", Census.n, self.expected])


class Census:
    """Every member at n=3 from ``enumerate_members``, deduped by key and
    checked; one pass is the whole census."""

    name = "census3"
    n = 3
    ops = (Op("member", "member_ms", p90=True),)
    headline = "member"

    def make_inputs(self, seed: int) -> CensusInputs:
        # The census is the whole member set, so the seed selects nothing.
        return CensusInputs(groups.count_algorithms(self.n))

    def warm_up(self, st: CensusInputs) -> None:
        first = next(factory.enumerate_members(self.n))
        membership.check_membership(first)

    def run_pass(self, st: CensusInputs, rec: Recorder, deadline: Optional[float]) -> bool:
        members = factory.enumerate_members(self.n)
        seen: set[str] = set()
        raw = verified = 0
        while not _past(deadline):
            rec.item(raw)
            t0 = time.perf_counter_ns()
            try:
                P = next(members, None)
                if P is None:
                    break
                k = P.key()
                fresh = k not in seen
                if fresh:
                    seen.add(k)
                    passed = membership.check_membership(P).passed
            except Exception as exc:
                rec.attempted += 1
                rec.fail("member", f"member {raw} raised {exc!r}")
                break
            rec.record("member", raw, time.perf_counter_ns() - t0)
            rec.attempted += 1
            if not fresh:
                rec.fail("member", f"duplicate member {raw}")
            elif not passed:
                rec.fail("member", f"member {raw} rejected")
            else:
                verified += 1
            raw += 1
        else:
            return False
        counts = (raw, len(seen), verified)
        if counts != (st.expected,) * 3:
            rec.note(f"raw, distinct, verified = {counts}, expected {st.expected} each")
        return True

    def finish(self, st: CensusInputs, rec: Recorder) -> None:
        pass


@dataclass
class DenseInputs:
    seqs: dict[int, list]
    refs: dict[int, np.ndarray]

    def digest(self) -> str:
        return _digest([f"{n}:{P.key()}" for n in sorted(self.seqs) for P in self.seqs[n]])


class Dense:
    """``evaluate`` on pease, iterative_ct and sampled members: per pass,
    ``small_count`` sequences at n=10 and ``large_count`` at n=12, the
    large ones spread evenly among the small ones."""

    name = "dense"
    small, large = 10, 12
    small_count, large_count = 100, 4
    ops = (
        Op("evaluate_n10", "evaluate_n10_ms", p90=True),
        Op("evaluate_n12", "evaluate_n12_ms"),
    )
    headline = "evaluate_n10"

    def make_inputs(self, seed: int) -> DenseInputs:
        rng = random.Random(f"{self.name}/{seed}")
        seqs = {
            n: [catalog.pease(n), catalog.iterative_ct(n)]
            + [factory.sample_member(n, rng.getrandbits(63)) for _ in range(count - 2)]
            for n, count in ((self.small, self.small_count), (self.large, self.large_count))
        }
        refs = {n: self.reference(n) for n in seqs}
        return DenseInputs(seqs, refs)

    def reference(self, n: int) -> np.ndarray:
        """``hadamard(n)``, built from ``hadamard(small)`` above n=small.

        In natural order H_n = H_(n-m) (x) H_m (Sylvester).  Built
        directly, ``hadamard(12)`` holds several 128 MiB int64 arrays at
        once, and that set-up peak would hide the peak of the timed
        ``evaluate`` calls from ``peak_rss_mb``; the Kronecker product
        peaks below it.
        """
        if n <= self.small:
            return oracle.hadamard(n)
        return np.kron(oracle.hadamard(n - self.small), oracle.hadamard(self.small))

    def warm_up(self, st: DenseInputs) -> None:
        for n in st.seqs:
            oracle.evaluate(st.seqs[n][0])

    def run_pass(self, st: DenseInputs, rec: Recorder, deadline: Optional[float]) -> bool:
        per_block = self.small_count // self.large_count
        order = []
        for b in range(self.large_count):
            order += [(self.small, j) for j in range(b * per_block, (b + 1) * per_block)]
            order.append((self.large, b))
        for slot, (n, j) in enumerate(order):
            if _past(deadline):
                return False
            rec.item(slot)
            kind = f"evaluate_n{n}"
            try:
                M = rec.time(kind, slot, oracle.evaluate, st.seqs[n][j])
            except ItemFailed:
                continue
            rec.expect(kind, np.array_equal(M, st.refs[n]),
                       f"sequence {j} at n={n} does not compute hadamard({n})")
            del M
        return True

    def finish(self, st: DenseInputs, rec: Recorder) -> None:
        pass


WORKLOADS = {
    "structural64": Structural(64, window=4, corner_every=2, pool_size=4),
    "structural16": Structural(16, window=128, corner_every=4, pool_size=32),
    "census3": Census(),
    "dense": Dense(),
}
