"""Closed-loop benchmark of shotstego.

    python3 bench/run.py --workload warden --seed 1 --seconds 45 --trace 0

Run from any directory; the program is imported from ``src/`` beside this
directory, never from an installed copy. One process runs one workload
with a single client: the next operation starts when the previous one has
returned. Every output is checked.

``--trace 0`` sets the workload up three times (reporting the median as
``setup_s``), then measures for ``--seconds`` with tracing off and reports
the end-to-end metrics. ``--trace 1`` sets up once, then for ``--seconds``
alternates untraced and traced rounds of a fixed list of operations, and
reports the per-layer metrics per operation of the traced rounds; count
metrics therefore repeat exactly between runs.

Seeds: the default seed is 1. The held-out seed is 7919: do not use it
while developing a change, and check every performance claim on it too.

Standard output ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the environment and details such as the tail percentile. The exit code is
0 when every check passed, 1 when one failed, 2 when the program cannot be
found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

WORKLOADS = ("exchange-16k", "receive-short", "warden", "bigframe")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed; check perf claims on the held-out seed "
                        f"{HELD_OUT_SEED} too")
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def load_program():
    """Put ``src/`` first on the path and import the program from it."""
    src = ROOT / "src"
    if not (src / "shotstego" / "__init__.py").is_file():
        raise ImportError(f"no shotstego sources under {src}")
    # single-threaded numerics: one process, one client, at most two threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import shotstego
    if Path(shotstego.__file__).resolve().parent != src / "shotstego":
        raise ImportError(f"shotstego imported from {shotstego.__file__}, not {src}")


def environment() -> dict:
    import numpy
    import scipy
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": os.cpu_count(),
           "cpu": platform.machine(), "commit": "unknown"}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             env={**os.environ, "GIT_DIR": str(ROOT / ".git")})
        if out.returncode == 0:
            env["commit"] = out.stdout.strip()
    return env


class Loop:
    """Runs operations one after another and counts the failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # failed ops, then failed run-level checks

    def op(self, i: int, recorder=None) -> float:
        task = self.workload.prepare(i)
        if recorder is not None:
            recorder.op = i
        self.attempted += 1
        start = time.perf_counter()
        try:
            task()
        except Exception as exc:  # every failure is counted, none ends the run
            self.failed += 1
            reason = "".join(traceback.format_exception_only(exc)).strip()
            self.failures.append(f"op {i}: {reason}")
        return time.perf_counter() - start

    def timed(self, seconds: float) -> tuple[list[float], float]:
        """Closed loop for ``seconds``: latencies and wall time."""
        latencies = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            latencies.append(self.op(len(latencies)))
        return latencies, time.perf_counter() - start

    def one_round(self, recorder=None) -> tuple[int, float]:
        """Ops 0..trace_ops-1 once: number of ops and wall time."""
        start = time.perf_counter()
        for i in range(self.workload.trace_ops):
            self.op(i, recorder)
        return self.workload.trace_ops, time.perf_counter() - start


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples above it,
    and that percentile. A run of fewer than 4 * TAIL_BEYOND ops leaves a
    quarter of its samples above it instead, so the tail never falls to
    the median and does not jump as the op count crosses a threshold."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n // 4)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def end_to_end(args, workloads) -> tuple[Loop, dict, dict]:
    cls = workloads.WORKLOADS[args.workload]
    setup_times = []
    for rep in range(SETUP_REPEATS):
        if rep:
            workload.close()
        workload = cls(args.seed, args.tiny, str(OUT_DIR))
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    loop = Loop(workload)
    try:
        latencies, wall = loop.timed(args.seconds)
        loop.failures += workload.finish()
    finally:
        workload.close()
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "ops_per_s": (len(latencies) / wall, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {"ops": len(latencies), "op_tail_pct": round(tail_pct, 2),
               "setup_runs_s": setup_times}
    return loop, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, details


def traced(args, workloads, spans) -> tuple[Loop, dict, dict]:
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, str(OUT_DIR))
    recorder = spans.SpanRecorder()
    plain_ops = traced_ops = 0
    plain_wall = traced_wall = 0.0
    try:
        workload.setup()
        loop = Loop(workload)
        # untraced and traced rounds alternate, so drift hits both alike
        start = time.perf_counter()
        while plain_ops == 0 or time.perf_counter() - start < args.seconds:
            n, wall = loop.one_round()
            plain_ops, plain_wall = plain_ops + n, plain_wall + wall
            with spans.instrumented(recorder):
                n, wall = loop.one_round(recorder)
            traced_ops, traced_wall = traced_ops + n, traced_wall + wall
        loop.failures += workload.finish()
    finally:
        workload.close()
    overhead = 1.0 - (traced_ops / traced_wall) / (plain_ops / plain_wall)
    span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    recorder.write(span_file)
    metrics = spans.layer_metrics(recorder.spans, traced_ops, overhead)
    details = {"untraced_ops": plain_ops, "traced_ops": traced_ops,
               "spans": len(recorder.spans), "span_file": str(span_file.relative_to(ROOT))}
    return loop, metrics, details


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_program()
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    import spans
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        loop, metrics, details = traced(args, workloads, spans)
    else:
        loop, metrics, details = end_to_end(args, workloads)
    for failure in loop.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    details.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   fail_frac=loop.failed / max(loop.attempted, 1),
                   run_checks_failed=len(loop.failures) - loop.failed,
                   **loop.workload.details())
    print(json.dumps({"environment": environment(), "details": details}))
    correct = not loop.failures
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
