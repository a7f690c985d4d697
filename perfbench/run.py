"""Benchmark of the twohop toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports twohop from ``src`` and
nothing else, and writes only under ``.perfbench_out``.  Workloads, metrics
and their bounds are listed in BENCHMARK.json.

The load is closed loop with one client: a single process sends one request
at a time, in process, through ``twohop.cli.main`` or the public library,
and sends the next when the reply arrives.  Thread-pool variables are fixed
at 1.  Every reply is checked after the measurement (worker.py).

``--trace 0`` measures the end-to-end metrics.  Set-up is timed in three
fresh interpreters that import twohop and generate the inputs, and the
median is reported; the measured run is a fourth fresh interpreter, so the
log-miss table cache starts empty as it does for a ``twohop`` user.  Peak
memory is read after the requests a traced run sends, which allocate the
same array sizes in every run.

``--trace 1`` reports the per-layer metrics.  It sends the workload's first
few requests (a fixed count, so that counts repeat exactly) once untraced
and once traced, each in a fresh interpreter; the gap between the two
request rates is the tracing overhead.  Spans are written to
``.perfbench_out/spans``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The process exits
non-zero, without that line, when it cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
DEADLINE_S = 170.0   # every run ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RunError(RuntimeError):
    """The benchmark cannot produce a result."""


def tail_percentile(samples, beyond: int = 10) -> tuple[int, float, int]:
    """Highest whole percentile from p90 up with at least `beyond` samples
    above it.

    Returns (percentile, nearest-rank value, samples beyond).  Below 100
    samples no tail percentile qualifies, and the maximum is returned as
    percentile 100 (a lower percentile would not be a tail: with 11 samples
    the rule alone picks the minimum).
    """
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 89, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= beyond:
            return p, xs[rank - 1], n - rank
    return 100, xs[-1], 0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Runner:
    """Starts worker processes for one workload and seed."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        **{v: "1" for v in THREAD_VARS})
        self.count = 0

    def child(self, *extra: str) -> tuple[float, dict]:
        """Run one worker; returns (wall seconds from spawn to exit, result)."""
        self.count += 1
        result = OUT_DIR / f"result-{os.getpid()}-{self.count}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--out-dir", str(OUT_DIR), "--result", str(result),
               *extra]
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RunError("out of time before the last worker")
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.DEVNULL)
        # a blocking wait, not Popen.wait(timeout), which polls in 50 ms steps
        watchdog = threading.Timer(left, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        if code != 0:
            raise RunError(f"worker exited with code {code}"
                           + (" (out of time)" if time.monotonic() >= self.deadline else ""))
        try:
            data = json.loads(result.read_text(encoding="utf-8"))
        finally:
            result.unlink(missing_ok=True)
        if data["setup_failures"]:
            raise RunError("input generation failed: " + "; ".join(data["setup_failures"]))
        return wall, data


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    setups = [runner.child("--setup-only")[0] for _ in range(SETUP_SAMPLES)]
    _, run = runner.child("--seconds", str(seconds))
    lat = run["latencies"]
    if not lat:
        raise RunError("no request was sent")
    pct, tail, beyond = tail_percentile(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "requests_per_s": run["attempted"] / run["elapsed_s"],
        "request_p50_s": statistics.median(lat),
        "request_tail_s": tail,
        "peak_rss_mb": run["prefix_rss_kb"] / 1024.0,
    }
    print(f"setup: {', '.join(f'{s:.3f}' for s in setups)} s; window {run['elapsed_s']:.2f} s"
          f" with {run['attempted']} requests")
    print(f"peak_rss_mb is the peak after the first {run['prefix_requests']} requests;"
          f" over the whole window it was {run['run_rss_kb'] / 1024.0:.1f} MB")
    print(f"request_tail_s is p{pct} of {len(lat)} latencies ({beyond} beyond it)")
    for kind in sorted(set(run["kinds"])):
        trials = sum(t for t, k in zip(run["trials"], run["kinds"]) if k == kind)
        if trials:
            busy = sum(x for x, k in zip(lat, run["kinds"]) if k == kind)
            name = "sim_holding_trials_per_s" if kind == "holding" else "sim_trials_per_s"
            print(f"{name} = {trials / busy:.1f} 1/s over {trials} trials")
    return metrics, run


def per_layer(runner: Runner) -> tuple[dict, dict]:
    _, plain = runner.child("--prefix")
    _, traced = runner.child("--prefix", "--trace", "1")
    if traced["self_sum_violations"]:
        traced["failures"].append(f"{traced['self_sum_violations']} requests whose span"
                                  " self times do not sum to the request span")
    traced_rate = traced["attempted"] / traced["elapsed_s"]
    plain_rate = plain["attempted"] / plain["elapsed_s"]
    metrics = dict(traced["layers"])
    metrics.update({
        "trace.requests": traced["attempted"],
        "trace.spans": traced["spans"],
        "trace.requests_per_s": traced_rate,
        "trace.untraced_requests_per_s": plain_rate,
        "trace.overhead_frac": 1.0 - traced_rate / plain_rate,
    })
    print(f"traced {traced['attempted']} requests, {traced['spans']} spans; overhead"
          f" {100.0 * metrics['trace.overhead_frac']:.1f}% of the untraced request rate")
    merged = {
        "attempted": plain["attempted"] + traced["attempted"],
        "failures": plain["failures"] + traced["failures"],
        "matched_reference": plain["matched_reference"] + traced["matched_reference"],
        "numpy": traced["numpy"],
    }
    return metrics, merged


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="twohop benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if not (ROOT / "src" / "twohop" / "__init__.py").is_file():
            raise RunError(f"no twohop sources under {ROOT / 'src'}")
        workloads = {w["name"]: w["why"] for w in spec["workloads"]}
        if args.workload not in workloads:
            raise RunError(f"unknown workload {args.workload!r}")
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        OUT_DIR.mkdir(exist_ok=True)
        runner = Runner(args.workload, args.seed)
        print(f"workload {args.workload}, seed {args.seed}: {workloads[args.workload]}")
        print(f"environment: {os.cpu_count()} CPUs ({len(os.sched_getaffinity(0))} usable),"
              f" {cpu_model()}, Python {platform.python_version()}")
        print("load: closed loop, one client process, one request in flight;"
              f" {', '.join(THREAD_VARS)} = 1")
        if args.trace:
            metrics, run = per_layer(runner)
        else:
            metrics, run = end_to_end(runner, args.seconds)
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            raise RunError(f"metrics not measured: {missing}")
    except (RunError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = run["failures"]
    print(f"numpy {run['numpy']}; {run['attempted']} replies checked,"
          f" {run['matched_reference']} against recorded reference outputs;"
          f" failed_frac = {len(failures) / max(run['attempted'], 1):.4g}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    result = {
        "correct": not failures,
        "attempted": run["attempted"],
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    details = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                   failures=failures)
    (OUT_DIR / "runs").mkdir(exist_ok=True)
    (OUT_DIR / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
