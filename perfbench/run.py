"""Benchmark for the linwht library: four closed-loop workloads.

    python3 perfbench/run.py --workload structural64 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; the library is imported from its
``src`` directory.  With ``--trace 0`` the run reports the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a separate traced
run.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it list every metric of the workload with its unit and sample
count.  A full report (and, when traced, every span) is written under
``perfbench/out/``.  NOTES.md describes the workloads and metrics.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from stats import tail_percentile  # noqa: E402
from tracer import LAYERS, TARGETS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One workload per process, one caller, no helper threads in numpy.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

# setup_s is the median of several set-ups, each in a child process:
# as many as fit in SETUP_BUDGET_S, judged by the first, within bounds.
SETUP_MIN_SAMPLES, SETUP_MAX_SAMPLES, SETUP_BUDGET_S = 5, 15, 6.0
TRACE_PASSES = 2
WORKLOAD_NAMES = ("structural64", "structural16", "census3", "dense")

# Reported on the last line of every untraced run, for every workload.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "headline_ms_p50": "ms",
}

# Reported on the last line of every traced run, for every workload.
# Figures that are zero on some gated workload (the layer is not used
# there) are left to the report lines above it: the self times of such
# layers, and the calls of groups.enumerate_gl, which only census3 makes.
PER_LAYER = {
    **{f"{name}.calls": "count" for name in (
        "gf2.matmul", "gf2.rank", "gf2.inverse", "gf2.transpose", "gf2.construct",
        "algorithm.construct", "membership.check", "membership.spreading",
        "membership.corner", "factory.build", "factory.factorize", "factory.factor_tuple",
        "groups.random_invertible", "oracle.perm_indices",
        "oracle.evaluate", "oracle.hadamard", "textio.parse", "textio.format")},
    **{f"{name}.self_ms": "ms" for name in (
        "gf2.matmul", "gf2.rank", "gf2.inverse", "gf2.transpose", "algorithm.construct",
        "factory.build", "factory.factor_tuple")},
    "textio.parse.bytes": "bytes",
    "oracle.evaluate.bytes_computed": "bytes",
    **{f"{layer}.errors": "count" for layer in (
        "gf2", "algorithm", "membership", "factory", "groups", "oracle", "textio")},
    "trace.overhead_pct": "%",
}


class LibraryMissing(Exception):
    pass


def load_library():
    """Import the library from this checkout's ``src`` and the benchmark
    modules that use it; refuse a copy installed anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import linwht
    except ImportError as exc:
        raise LibraryMissing(f"cannot import linwht from {SRC}: {exc}") from exc
    if not Path(linwht.__file__).resolve().is_relative_to(SRC):
        raise LibraryMissing(f"linwht was imported from {linwht.__file__}, not from {SRC}")
    import workloads

    return workloads


def environment(np) -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "one_workload_per_process": True,
        "dense_matrix_mib": {n: (1 << (2 * n)) * 4 / 2**20 for n in (10, 12, 14)},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            env["caches"][f"L{level}"] = size
    return env


# Times a whole set-up in a fresh interpreter: importing the library
# and the workloads, making the inputs and references, warming up.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
wl = workloads.WORKLOADS[sys.argv[3]]
wl.warm_up(wl.make_inputs(int(sys.argv[4])))
print(time.perf_counter() - t0)
"""


def setup_seconds(wl, seed: int) -> float:
    """One set-up of ``wl`` in a child process, which runs alone.

    The measuring process imports the library only once, and its first
    import also compiles and reads files, which varies from run to run.
    A child's memory does not count in this process's ``peak_rss_mb``.
    """
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), wl.name,
                           str(seed)], stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    return float(proc.stdout)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(wl, args, workloads) -> tuple[dict, object]:
    """Untraced run: set-up, then passes until ``--seconds`` of passes are
    done.  Set-ups are timed in child processes spread evenly over the
    passes, so that a slow spell of the host at the start does not set
    ``setup_s``; their time does not count against the passes."""
    st = wl.make_inputs(args.seed)
    inputs_rss = peak_rss_mb()
    wl.warm_up(st)
    first_setup_s = time.perf_counter() - T_START

    samples: list[float] = []
    wanted = SETUP_MIN_SAMPLES
    rec = workloads.Recorder()
    t0 = time.perf_counter()
    deadline = t0 + args.seconds
    passes = complete = 0
    while passes == 0 or time.perf_counter() < deadline:
        complete += wl.run_pass(st, rec, deadline if passes else None)
        passes += 1
        done = 1 - (deadline - time.perf_counter()) / args.seconds
        while len(samples) < wanted * done and time.perf_counter() < deadline:
            s0 = time.perf_counter()
            samples.append(setup_seconds(wl, args.seed))
            deadline += time.perf_counter() - s0
            wanted = min(SETUP_MAX_SAMPLES, max(SETUP_MIN_SAMPLES, int(SETUP_BUDGET_S / samples[0])))
    while len(samples) < wanted:
        samples.append(setup_seconds(wl, args.seed))
    wall_s = time.perf_counter() - t0
    wl.finish(st, rec)

    ops = {}
    for op in wl.ops:
        ms = [ns / 1e6 for ns in rec.best[op.kind].values()]
        if not ms:
            continue
        ops[f"{op.metric}_p50"] = metric(statistics.median(ms), "ms", len(ms))
        p90 = tail_percentile(ms) if op.p90 else None
        if p90 is not None:
            ops[f"{op.metric}_p90"] = metric(p90, "ms", len(ms))
    throughput = rec.inputs() / (rec.best_total_ns() / 1e9)
    if isinstance(wl, workloads.Census):
        ops["census_members_per_s"] = metric(throughput, "1/s", rec.inputs())

    headline = [ns / 1e6 for ns in rec.best[wl.headline].values()]
    metrics = {
        "setup_s": metric(statistics.median(samples), "s", len(samples)),
        "peak_rss_mb": metric(peak_rss_mb(), "MB", 1),
        "throughput_per_s": metric(throughput, "1/s", rec.inputs()),
        "headline_ms_p50": metric(statistics.median(headline), "ms", len(headline)),
    }
    extra = {
        "operations": ops,
        "calls": dict(rec.calls),
        "setup": {"in_process_s": first_setup_s, "samples_s": samples,
                  "inputs_peak_rss_mb": inputs_rss},
        "passes": passes,
        "complete_passes": complete,
        "wall_s": wall_s,
        "inputs_digest": st.digest(),
    }
    return {"metrics": metrics, "extra": extra}, rec


def measure_traced(wl, args, workloads) -> tuple[dict, object]:
    """Traced set-up, then passes over the inputs, alternately untraced
    and traced; the tracing overhead compares each side's best times."""
    tracer = Tracer()
    tracer.install()
    try:
        st = wl.make_inputs(args.seed)
        wl.warm_up(st)
    finally:
        tracer.uninstall()
    plain = workloads.Recorder()
    rec = workloads.Recorder(tracer)
    for _ in range(TRACE_PASSES):
        wl.run_pass(st, plain, None)
        tracer.install()
        try:
            wl.run_pass(st, rec, None)
        finally:
            tracer.uninstall()
    wl.finish(st, rec)

    self_ns = [0] * len(tracer.names)
    for nid, ns in zip(tracer.span_name, tracer.self_times_ns()):
        self_ns[nid] += ns
    layer = {}
    for target in TARGETS:
        nid = tracer.name_id(target.name)
        layer[f"{target.name}.calls"] = metric(tracer.calls[nid], "count")
        if not target.count_only:
            layer[f"{target.name}.self_ms"] = metric(self_ns[nid] / 1e6, "ms")
    layer["textio.parse.bytes"] = metric(tracer.counters.get("textio.parse.bytes", 0), "bytes")
    layer["oracle.evaluate.bytes_computed"] = metric(
        tracer.counters.get("oracle.evaluate.bytes_computed", 0), "bytes")
    draws = tracer.spans_named("groups.random_invertible")
    draw_set = set(draws)
    attempts = sum(1 for i in tracer.spans_named("gf2.rank") if tracer.parent[i] in draw_set)
    layer["groups.gl_accept_ratio"] = metric(len(draws) / attempts if attempts else None, "ratio")
    for name in LAYERS:
        layer[f"{name}.errors"] = metric(tracer.errors[name], "count")
    untraced_ns, traced_ns = plain.best_total_ns(), rec.best_total_ns()
    layer["trace.overhead_pct"] = metric(100 * (traced_ns - untraced_ns) / untraced_ns, "%")

    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{wl.name}.npz")
    rec.attempted += plain.attempted
    rec.failed += plain.failed
    rec.problems += plain.problems
    extra = {
        "passes": TRACE_PASSES,
        "spans": len(tracer.start),
        "untraced_best_ms": untraced_ns / 1e6,
        "traced_best_ms": traced_ns / 1e6,
        "inputs_digest": st.digest(),
    }
    return {"metrics": layer, "extra": extra}, rec


def metric(value, unit: str, samples: int | None = None) -> dict:
    out = {"value": value, "unit": unit}
    if samples is not None:
        out["samples"] = samples
    return out


def run_one(args) -> int:
    try:
        workloads = load_library()
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    wl = workloads.WORKLOADS[args.workload]
    if args.trace:
        result, rec = measure_traced(wl, args, workloads)
        wanted = PER_LAYER
    else:
        result, rec = measure(wl, args, workloads)
        wanted = END_TO_END
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(np),
        **result["extra"],
        "metrics": result["metrics"],
        "problems": rec.problems,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    shown = {**result["metrics"], **result["extra"].get("operations", {})}
    for name in sorted(shown):
        m = shown[name]
        count = f"  samples={m['samples']}" if "samples" in m else ""
        print(f"{wl.name}  {name}  {m['value']}  {m['unit']}{count}")
    for problem in rec.problems:
        print(f"{wl.name}  problem: {problem}")
    last = {
        "correct": rec.failed == 0 and not rec.problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": result["metrics"][k]["value"], "unit": unit}
                    for k, unit in wanted.items()},
    }
    print(json.dumps(last))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            print(f"{name}: failed (exit code {proc.returncode})")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
