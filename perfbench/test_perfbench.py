"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import numpy as np  # noqa: E402
from linwht import factory, membership, oracle  # noqa: E402

import linwht  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.tail_percentile(list(range(99))) is None
    hundred = list(range(100, 0, -1))
    p90 = stats.tail_percentile(hundred)
    assert p90 == 90
    assert sum(1 for v in hundred if v > p90) == stats.MIN_BEYOND
    assert stats.tail_percentile([5.0] * 250) == 5.0
    assert stats.tail_percentile([]) is None


def test_self_time_subtracts_union_of_overlapping_children():
    root, inner = 0, 4
    spans = [  # (start, end, parent)
        (0, 100, tracer.NO_PARENT),
        (10, 40, root),
        (30, 60, root),     # overlaps the one before: union 10..60
        (90, 130, root),    # sticks out: only 90..100 counts
        (70, 80, root),
        (72, 75, inner),
        (74, 79, inner),    # overlaps the one before: union 72..79
    ]
    own = tracer.self_times(*zip(*spans))
    assert own[root] == 100 - 50 - 10 - 10
    assert own[inner] == 10 - 7
    assert own == [30, 30, 30, 40, 3, 3, 5]  # leaves keep their whole duration


def test_wrappers_reach_names_bound_by_importing_modules():
    P = factory.sample_member(5, seed=3)
    originals = (membership.check_membership, factory.check_membership,
                 linwht.check_membership, factory.build)
    t = tracer.Tracer()
    t.install()
    try:
        assert factory.check_membership is membership.check_membership
        assert linwht.check_membership is membership.check_membership
        assert membership.check_membership is not originals[0]
        factory.factorize(P)
    finally:
        t.uninstall()
    assert (membership.check_membership, factory.check_membership,
            linwht.check_membership, factory.build) == originals

    (outer,) = t.spans_named("factory.factorize")
    children = {t.names[t.span_name[i]] for i, p in enumerate(t.parent) if p == outer}
    assert {"membership.check", "membership.spreading", "gf2.inverse"} <= children
    (check,) = t.spans_named("membership.check")
    assert t.parent[check] == outer
    assert t.calls[t.name_id("gf2.construct")] > 0
    assert not t.spans_named("gf2.construct")


def test_generator_spans_and_errors_are_recorded():
    t = tracer.Tracer()
    t.install()
    try:
        gl2 = list(linwht.groups.enumerate_gl(2))
        with pytest.raises(linwht.SingularError):
            linwht.gf2.BitMatrix(2, 2, (1, 1)).inverse()
    finally:
        t.uninstall()
    assert len(gl2) == 6
    assert t.calls[t.name_id("groups.enumerate_gl")] == 1
    # one span for the call and one per yielded matrix, plus the end
    assert len(t.spans_named("groups.enumerate_gl")) == 1 + 6 + 1
    assert t.errors["gf2"] == 1


def test_evaluate_bytes_counts_every_stage_pass():
    n = 2
    matrix, table = 16 * 4, 4 * 8
    assert tracer.evaluate_bytes(n) == matrix + 3 * (2 * matrix + table) + 2 * 2 * matrix


def test_dense_reference_is_hadamard():
    dense = type("SmallDense", (workloads.Dense,), {"small": 4})()
    for n in (3, 4, 6):
        assert np.array_equal(dense.reference(n), oracle.hadamard(n))
    assert dense.reference(6).dtype == oracle.hadamard(6).dtype


SMALL = {
    "structural64": workloads.Structural(64, window=1, corner_every=1, pool_size=1),
    "structural16": workloads.Structural(16, window=8, corner_every=4, pool_size=4),
    "dense": type("SmallDense", (workloads.Dense,), {"small_count": 4, "large_count": 1})(),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_workload_pass_checks_every_output(name):
    wl = SMALL[name]
    st = wl.make_inputs(7)
    wl.warm_up(st)
    rec = workloads.Recorder()
    assert wl.run_pass(st, rec, None)
    wl.finish(st, rec)
    assert rec.failed == 0 and rec.problems == []
    assert rec.attempted == sum(rec.calls.values()) > 0
    assert set(rec.best) == {op.kind for op in wl.ops}
    assert wl.make_inputs(7).digest() == st.digest() != wl.make_inputs(8).digest()


def test_wrong_results_count_as_failed():
    wl = SMALL["structural16"]
    st = wl.make_inputs(7)
    st.pool[0] = factory.sample_member(16, seed=1)  # a member where a non-member belongs
    rec = workloads.Recorder()
    wl.run_pass(st, rec, None)
    assert rec.failed == 2  # slots 0 and 4 reject pool entry 0
    assert all(p.startswith("reject") for p in rec.problems)


def test_census_pass_counts_every_member():
    wl = workloads.WORKLOADS["census3"]
    st = wl.make_inputs(0)
    rec = workloads.Recorder()
    assert wl.run_pass(st, rec, None)
    assert rec.failed == 0 and rec.problems == []
    assert rec.attempted == len(rec.best["member"]) == 36288


def _last_line(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_declared_metrics(trace):
    proc, lines = _last_line(["--workload", "structural16", "--seed", "3",
                              "--seconds", "0.1", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in section} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert dict(run.PER_LAYER if trace else run.END_TO_END) == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert {w["name"] for w in declared["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_traced_call_counts_repeat_for_one_seed():
    wl = SMALL["structural16"]
    runs = [run.measure_traced(wl, argparse.Namespace(seed=5), workloads) for _ in range(2)]
    counts = [{k: v["value"] for k, v in result["metrics"].items() if v["unit"] in ("count", "bytes")}
              for result, _ in runs]
    assert counts[0] == counts[1]
    assert counts[0]["membership.check.calls"] > 0
    assert all(rec.failed == 0 and not rec.problems for _, rec in runs)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, lines = _last_line(["--workload", "census3", "--seed", "1", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
