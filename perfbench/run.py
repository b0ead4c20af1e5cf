#!/usr/bin/env python3
"""Benchmark of the torsionshape level-set flow.

Run from the root of a checkout:

    python3 perfbench/run.py --workload flow-ellipse-128 --seed 0 --seconds 40 --trace 0

Each workload runs in its own process on one thread, as a closed loop of
operations on inputs generated from ``--seed``; every output is checked
against ground truth. ``--trace 0`` prints the end-to-end metrics and
``--trace 1`` the per-layer metrics of a separately traced run; names and
units come from ``BENCHMARK.json``. The last line of output is the result
object; the line before it holds per-operation detail and the environment.
``--smoke`` runs the same code on 64² grids, for the benchmark's own tests.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 1       # set-up-only processes before and again after the measuring one
DEADLINE_S = 170.0     # whole-invocation limit: a run must end within three minutes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "TORSIONSHAPE_THREADS")


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({w["name"] for w in spec["workloads"]},
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _worker(args, extra, timeout):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               **{k: "1" for k in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--smoke"] if args.smoke else []) + extra
    spawned = time.perf_counter()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="64² grids, for the benchmark's own tests")
    args = p.parse_args(argv)
    start = time.perf_counter()
    names, end_to_end, per_layer = _spec()
    if args.workload not in names:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(names)}")
    if not (ROOT / "src" / "torsionshape" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'torsionshape'} is missing",
              file=sys.stderr)
        return 2

    def left():
        return DEADLINE_S - (time.perf_counter() - start)

    def probes():
        n = 0 if args.trace else SETUP_PROBES
        return [_worker(args, ["--probe"], left())["setup_s"] for _ in range(n)]

    setups = probes()
    res = _worker(args, [], left())
    setups += [res["setup_s"]] + probes()
    values = dict(res["metrics"], setup_s=statistics.median(setups))
    units = per_layer if args.trace else end_to_end
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    res["detail"]["setup_samples_s"] = setups
    print(json.dumps({"detail": res["detail"]}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
