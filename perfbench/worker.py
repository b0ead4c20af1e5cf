"""One workload process: set up, run operations in a closed loop, check them.

Started by ``run.py``; prints one JSON object as its last line of output.
With ``--probe`` it stops after set-up, so that ``run.py`` can sample the
set-up time several times in one run.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads
from tracing import Tracer, layer_metrics

CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def _rss_bytes():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _caches():
    """{"L2": bytes, "L3": bytes, ...} of the data and unified caches of cpu0."""
    out = {}
    for idx in sorted(CACHE_DIR.glob("index*")):
        try:
            kind = (idx / "type").read_text().strip()
            level = (idx / "level").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction" or not size.endswith("K"):
            continue
        out[f"L{level}"] = int(size[:-1]) * 1024
    return out


def environment(wl, rss_setup):
    import scipy

    kernels = sys.modules["torsionshape.kernels"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = _caches()
    llc = caches.get("L3") or caches.get("L2") or 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "use_numba": bool(kernels.USE_NUMBA),
        "blas": blas.get("name"),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "caches_bytes": caches,
        "working_set": {
            "grid_array_bytes": wl.array_bytes,
            "rss_growth_bytes": max(peak - rss_setup, 0),
            "grid_array_over_llc": wl.array_bytes / llc if llc else None,
            "bandwidth_measured": False,
            "why_not": "no array reaches 4x the last-level cache, so the data "
                       "stays cache-resident and memory bandwidth is not measured",
        },
    }


def _timed_op(wl, i, tracer=None):
    """One operation and its check: (seconds, answer error, detail, spans)."""
    spans = []
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = wl.run(i)
        else:
            out, spans = tracer.run(wl.run, i)
    except Exception:
        return time.perf_counter() - t0, None, {"error": traceback.format_exc()}, spans
    dt = time.perf_counter() - t0
    try:
        acc, err, fail = wl.check(i, out)
    except Exception:
        return dt, None, {"error": traceback.format_exc()}, spans
    detail = dict(acc, seconds=dt)
    if fail:
        detail["failed"] = fail
    return dt, err, detail, spans


def measure(wl, seconds):
    """Run every input once, the reference first, then the reference again
    while another run of it would end within ``seconds``."""
    deadline = time.perf_counter() + seconds
    ref_times, ops = [], []
    answer_err = float("nan")
    schedule = range(len(wl.inputs))
    while True:
        for i in schedule:
            dt, err, detail, _ = _timed_op(wl, i)
            ops.append(dict(detail, op=i))
            if i == 0:
                ref_times.append(dt)
                if err is not None and len(ref_times) == 1:
                    answer_err = err
        if time.perf_counter() + ref_times[-1] > deadline:
            break
        schedule = (0,)
    failed = sum(1 for o in ops if "error" in o or "failed" in o)
    metrics = {
        "run_s": statistics.median(ref_times),
        "ok_frac": 1.0 - failed / len(ops),
        "answer_err": answer_err,
    }
    return metrics, len(ops), failed, {"ops": ops}


def measure_traced(wl, seconds):
    """Untraced and traced runs of the reference in pairs, while they fit."""
    deadline = time.perf_counter() + seconds
    plain, traced, layers, ops = [], [], [], []
    while True:
        c0 = time.perf_counter()
        for tracer in (None, Tracer()):
            if tracer is None:
                dt, _, detail, _ = _timed_op(wl, 0)
                plain.append(dt)
            else:
                with tracer:
                    dt, _, detail, spans = _timed_op(wl, 0, tracer)
                traced.append(dt)
                layers.append(layer_metrics(spans, detail.get("artifact_bytes", 0)))
            ops.append(dict(detail, op=0, traced=tracer is not None))
        now = time.perf_counter()
        if now + (now - c0) > deadline:
            break
    failed = sum(1 for o in ops if "error" in o or "failed" in o)
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["trace.run_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics, len(ops), failed, {"plain_s": plain, "traced_s": traced, "ops": ops}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--probe", action="store_true")
    p.add_argument("--spawned", type=float, required=True,
                   help="perf_counter() reading of the parent just before the spawn")
    args = p.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    setup_s = time.perf_counter() - args.spawned
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    rss_setup = _rss_bytes()
    try:
        if args.trace:
            metrics, attempted, failed, detail = measure_traced(wl, args.seconds)
        else:
            metrics, attempted, failed, detail = measure(wl, args.seconds)
    finally:
        try:
            workloads.WORKDIR.rmdir()
        except OSError:  # absent, or still in use by another run
            pass
    if not args.trace:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail.update(inputs=wl.inputs, env=environment(wl, rss_setup))
    print(json.dumps({"setup_s": setup_s, "metrics": metrics, "attempted": attempted,
                      "failed": failed, "detail": detail}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
