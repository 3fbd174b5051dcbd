"""Outside-in span tracer for the benchmark.

The library knows nothing about tracing.  ``Tracer.install`` replaces
the public entry points of each measured layer with wrappers that
record a span per call, and ``uninstall`` puts the originals back.

* Methods are wrapped on their class (``BitMatrix.rank``, the
  ``__post_init__`` of ``AlgorithmSeq`` and ``FactorTuple``), so every
  instance sees the wrapper.
* Module functions are wrapped in every ``linwht`` namespace that holds
  them, because modules import them by name: ``factorize`` calls the
  ``check_membership`` bound in ``linwht.factory``, not the one in
  ``linwht.membership``.  A caller that bound a function before
  ``install`` keeps the original, so the benchmark always calls through
  module attributes.

Spans are kept in flat arrays (one entry per call) and turned into
per-layer figures when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

NO_PARENT = -1
SETUP_ITEM = -1

LAYERS = ("gf2", "algorithm", "membership", "factory", "groups", "oracle", "textio")


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``owner.attr`` recorded as span ``name``.

    ``owner`` is a module path ("linwht.factory") or a class path
    ("linwht.gf2:BitMatrix").  ``count_only`` records the call count but
    no span, for methods called too often to time.  ``generator`` also
    records one span per item the returned iterator yields.  ``extra``
    maps the call's arguments to (counter name, amount).
    """

    name: str
    owner: str
    attr: str
    count_only: bool = False
    generator: bool = False
    extra: Optional[Callable] = None


def _document_bytes(args, kwargs) -> tuple[str, int]:
    return "textio.parse.bytes", len(args[0].encode("utf-8"))


def evaluate_bytes(n: int) -> int:
    """Bytes the stage passes of ``evaluate`` read and write at size n.

    Computed from array shapes, not measured: the identity is written
    once; each of the n+1 permutation passes reads the int32 matrix and
    its intp index table and writes the matrix; each of the n
    butterflies reads and writes the matrix.
    """
    side = 1 << n
    matrix = side * side * 4
    table = side * 8
    return matrix + (n + 1) * (2 * matrix + table) + n * 2 * matrix


def _evaluate_bytes(args, kwargs) -> tuple[str, int]:
    return "oracle.evaluate.bytes_computed", evaluate_bytes(args[0].n)


TARGETS = (
    Target("gf2.matmul", "linwht.gf2:BitMatrix", "__matmul__"),
    Target("gf2.rank", "linwht.gf2:BitMatrix", "rank"),
    Target("gf2.inverse", "linwht.gf2:BitMatrix", "inverse"),
    Target("gf2.transpose", "linwht.gf2:BitMatrix", "transpose"),
    Target("gf2.construct", "linwht.gf2:BitMatrix", "__post_init__", count_only=True),
    Target("algorithm.construct", "linwht.algorithm:AlgorithmSeq", "__post_init__"),
    Target("membership.check", "linwht.membership", "check_membership"),
    Target("membership.spreading", "linwht.membership", "spreading_matrix"),
    Target("membership.corner", "linwht.membership", "check_corner_condition"),
    Target("factory.build", "linwht.factory", "build"),
    Target("factory.factorize", "linwht.factory", "factorize"),
    Target("factory.factor_tuple", "linwht.factory:FactorTuple", "__post_init__"),
    Target("groups.random_invertible", "linwht.groups", "random_invertible"),
    Target("groups.enumerate_gl", "linwht.groups", "enumerate_gl", generator=True),
    Target("oracle.perm_indices", "linwht.oracle", "perm_indices"),
    Target("oracle.evaluate", "linwht.oracle", "evaluate", extra=_evaluate_bytes),
    Target("oracle.hadamard", "linwht.oracle", "hadamard"),
    Target("textio.parse", "linwht.textio", "parse_document", extra=_document_bytes),
    Target("textio.format", "linwht.textio", "format_document"),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = sys.modules[module_name]
    return getattr(module, class_name) if class_name else module


def _linwht_namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "linwht" or name.startswith("linwht."))]


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.counters: dict[str, int] = {}
        self.errors: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.item = array("i")
        self.current_item = SETUP_ITEM
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.item.append(self.current_item)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, target: Target, fn):
        nid = self.name_id(target.name)
        layer = target.name.split(".")[0]
        calls = self.calls
        counters = self.counters
        errors = self.errors

        if target.count_only:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[nid] += 1
                return fn(*args, **kwargs)
            return counted

        def traced_iter(it):
            while True:
                idx = self.open(nid)
                try:
                    value = next(it)
                except StopIteration:
                    return
                except BaseException:
                    errors[layer] += 1
                    raise
                finally:
                    self.close(idx)
                yield value

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[nid] += 1
            if target.extra is not None:
                key, amount = target.extra(args, kwargs)
                counters[key] = counters.get(key, 0) + amount
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                self.close(idx)
            return traced_iter(result) if target.generator else result

        return traced

    # -- installation ------------------------------------------------

    def install(self) -> None:
        """Wrap every target; the library must already be imported."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        namespaces = _linwht_namespaces()
        for target in TARGETS:
            owner = _resolve(target.owner)
            if isinstance(owner, type):
                original = owner.__dict__[target.attr]
                self._undo.append((owner, target.attr, original))
                setattr(owner, target.attr, self._wrap(target, original))
                continue
            original = getattr(owner, target.attr)
            wrapper = self._wrap(target, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._undo.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis ----------------------------------------------------

    def self_times_ns(self) -> list[int]:
        return self_times(self.start, self.end, self.parent)

    def spans_named(self, name: str) -> list[int]:
        nid = self._ids.get(name)
        return [i for i, s in enumerate(self.span_name) if s == nid]

    def dump(self, path) -> None:
        """Write every span to an ``.npz`` file, one array per field."""
        import numpy as np

        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.span_name, np.int32),
                 start_ns=np.frombuffer(self.start, np.int64),
                 end_ns=np.frombuffer(self.end, np.int64),
                 parent=np.frombuffer(self.parent, np.int32),
                 item=np.frombuffer(self.item, np.int32))


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap one another and may stick out of their parent;
    only the union of their intervals clipped to the parent counts.
    """
    own = [e - s for s, e in zip(start, end)]
    kids: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p != NO_PARENT:
            kids.setdefault(p, []).append(i)
    for p, members in kids.items():
        lo, hi = start[p], end[p]
        covered = 0
        run_lo = run_hi = None
        for k in sorted(members, key=start.__getitem__):
            s, e = max(start[k], lo), min(end[k], hi)
            if e <= s:
                continue
            if run_hi is None or s > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = s, e
            else:
                run_hi = max(run_hi, e)
        if run_hi is not None:
            covered += run_hi - run_lo
        own[p] -= covered
    return own
