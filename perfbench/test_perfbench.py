"""Tests of the benchmark itself, on 64² grids (``--smoke``).

Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
EXACT_UNITS = {"count", "bytes", "count/iter", "ratio"}


def bench(workload, trace, cwd=ROOT, seed=0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_emitted_with_unit(workload, trace):
    res = result(bench(workload, trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and np.isfinite(got["value"])
    if not trace:
        assert all(res["metrics"][m["name"]]["value"] != 0 for m in spec)


@pytest.mark.parametrize("workload", ["flow-ellipse-128", "cli-pnorm-256"])
def test_exact_counts_repeat(workload):
    first, second = (result(bench(workload, 1, seed=3))["metrics"] for _ in range(2))
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] in EXACT_UNITS]
    assert {k: first[k]["value"] for k in exact} == {k: second[k]["value"] for k in exact}
    assert first["torsion.solve.calls"]["value"] > 0
    assert first["kernels.cell_geometry.calls"]["value"] > 0
    assert first["optimizer.iterations"]["value"] > 0


def test_traced_layers_cover_the_flow():
    m = result(bench("flow-ellipse-128", 1))["metrics"]
    assert m["other.s"]["value"] < 0.1 * m["trace.run_s"]["value"]
    assert m["verify.solves"]["value"] == 0 and m["domain.hausdorff.calls"]["value"] == 0


def test_geometry_runs_no_torsion_solve():
    m = result(bench("geometry-384", 1))["metrics"]
    assert m["torsion.solve.calls"]["value"] == 0
    assert m["kernels.eikonal.calls"]["value"] == m["domain.reinit.calls"]["value"] > 0


def _shifted(d, cells):
    """The domain translated by ``cells`` grid steps along x."""
    ls = np.full_like(d.ls, np.max(d.ls))
    ls[cells:, :] = d.ls[:-cells, :]
    return type(d)(d.grid, ls, is_signed_distance=d.is_signed_distance)


def test_flow_check_flags_a_shifted_domain():
    wl = workloads.Flow(0, smoke=True)
    trace = wl.run(0)
    assert wl.check(0, trace)[2] == []
    trace.final_domain = _shifted(trace.final_domain, 3)
    assert any("radius error" in f for f in wl.check(0, trace)[2])
    trace.reason = ""
    assert any("termination" in f for f in wl.check(0, trace)[2])


def test_geometry_check_flags_a_shifted_domain():
    wl = workloads.Geometry(0, smoke=True)
    out = wl.run(0)
    assert wl.check(0, out)[2] == []
    out["base"] = _shifted(out["base"], 3)
    fails = wl.check(0, out)[2]
    assert any("signed-distance" in f for f in fails)
    out = wl.run(1)
    out["volumes"][0] *= 1.02
    assert any("area error" in f for f in wl.check(1, out)[2])


def test_cli_check_flags_a_failed_check(tmp_path):
    wl = workloads.Cli(0, smoke=True, workdir=tmp_path)
    rc, out = wl.run(0)
    report = json.loads((out / "report.json").read_text())
    report["checks"][2]["pass"] = False
    (out / "report.json").write_text(json.dumps(report))
    fails = wl.check(0, (rc, out))[2]
    assert any("6/7 checks pass" in f for f in fails)
    assert not out.exists()
    rc, out = wl.run(0)
    assert any("exit code" in f for f in wl.check(0, (1, out))[2])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("flow-ellipse-128", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_readme_maps_every_per_layer_metric():
    text = (HERE / "README.md").read_text()
    mapping = text[text.index("### Which end-to-end metric"):]
    missing = [m["name"] for m in SPEC["per_layer"] if f"`{m['name']}`" not in mapping]
    assert missing == []
