"""One benchmark process: generate a workload's inputs, send its requests one
at a time (closed loop, one client, one request in flight), then check every
reply.

Started by run.py in a fresh interpreter, with ``src`` on the import path
and the thread-pool variables set to 1.  It writes a JSON result file and
exits 0 when it could measure, whatever the checks found.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import twohop
import twohop.mcsim

import tracing
from workloads import WORKLOADS, Mismatch, Request, digest

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0, help="measurement window")
    p.add_argument("--prefix", action="store_true",
                   help="send the workload's first trace_requests requests, not a window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out-dir", required=True, help="directory for inputs, spans and outputs")
    p.add_argument("--result", required=True, help="path of the JSON result file")
    return p.parse_args(argv)


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def send_all(wl, requests: list[Request], seconds: float, tracer):
    """The closed loop over `requests` until `seconds` have passed (0: send
    them all).

    Returns (latencies, replies, elapsed seconds, peak RSS in KiB after the
    first `wl.trace_requests` requests).  That fixed prefix has the same
    array sizes in every run, while the peak of a whole window swings by one
    40 MB simulator array with the allocator's history.
    """
    latencies, replies = [], []
    prefix_rss = 0
    start = time.perf_counter()
    for i, req in enumerate(requests):
        if seconds and time.perf_counter() - start >= seconds:
            break
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        try:
            reply = wl.send(req)
        except Exception:  # a raising request is a failed request
            reply = Mismatch("raised " + traceback.format_exc(limit=-3).strip())
        latencies.append(time.perf_counter() - t0)
        replies.append(reply)
        if i + 1 == wl.trace_requests:
            prefix_rss = peak_rss_kb()
    return latencies, replies, time.perf_counter() - start, prefix_rss or peak_rss_kb()


def check_all(wl, requests, replies, reference: dict) -> tuple[list[str], dict]:
    failures, outputs = [], {}
    for req, reply in zip(requests, replies):
        try:
            if isinstance(reply, Mismatch):
                raise reply
            got = digest(*wl.check(req, reply))
            want = reference.get(req.key)
            if want is not None and want != got:
                raise Mismatch("outputs differ from the reference")
            outputs[req.key] = got
        except (Mismatch, KeyError, ValueError, TypeError) as exc:
            failures.append(f"{req.ident}: {exc}")
    return failures, outputs


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=out_dir))
    try:
        try:
            requests = wl.generate(args.seed, workdir)
        except Mismatch as exc:
            result = {"setup_failures": [str(exc)]}
        else:
            result = {"setup_failures": []}
            if not args.setup_only:
                result.update(measure(wl, requests, args, out_dir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def measure(wl, requests, args, out_dir: Path) -> dict:
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        if args.prefix:
            requests = requests[:wl.trace_requests]
        latencies, replies, elapsed, prefix_rss_kb = send_all(
            wl, requests, 0.0 if args.prefix else args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    run_rss_kb = peak_rss_kb()

    ref_path = REFERENCE_DIR / f"{wl.name}.json"
    reference = json.loads(ref_path.read_text(encoding="utf-8")) if ref_path.is_file() else {}
    failures, outputs = check_all(wl, requests, replies, reference)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}-{'prefix' if args.prefix else 'window'}"
    (out_dir / "outputs").mkdir(exist_ok=True)
    (out_dir / "outputs" / f"{tag}.json").write_text(json.dumps(outputs, sort_keys=True),
                                                      encoding="utf-8")
    result = {
        "latencies": latencies,
        "kinds": [r.kind for r in requests[:len(replies)]],
        "trials": [r.trials for r in requests[:len(replies)]],
        "elapsed_s": elapsed,
        "attempted": len(replies),
        "failures": failures,
        "matched_reference": sum(1 for k in outputs if k in reference),
        "prefix_requests": min(wl.trace_requests, len(replies)),
        "prefix_rss_kb": prefix_rss_kb,
        "run_rss_kb": run_rss_kb,
        "numpy": np.__version__,
    }
    if tracer is not None:
        (out_dir / "spans").mkdir(exist_ok=True)
        tracer.write(out_dir / "spans" / f"{tag}.jsonl")
        selfs = tracing.self_times(tracer.spans)
        result["self_sum_violations"] = tracing.self_sum_violations(tracer.spans, selfs)
        result["spans"] = len(tracer.spans)
        result["layers"] = tracing.layer_metrics(tracer.spans,
                                                 getattr(twohop.mcsim, "_BATCH", 0))
    return result


if __name__ == "__main__":
    sys.exit(main())
