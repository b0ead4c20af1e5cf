"""The benchmark's workloads: seeded inputs, the timed call into the program,
and the check of each output against ground truth.

A run executes every input of the workload once, the reference input first,
and then the reference again for as long as the run lasts. The reference
input is the same for every seed, and the end-to-end ``run_s`` and
``answer_err`` are taken from it, so they differ between runs only by the
machine's noise; a faster program runs it more often. The other inputs are
drawn from ``default_rng(seed)`` and widen what the checks cover.

Each workload has ``inputs``, ``run(i)`` on input ``i``,
the timed call into the program, and ``check(i, output)``, which returns the
accuracy numbers, the answer error and the list of failed checks. Importing
this module imports nothing from the program: ``load_program`` does that,
from the checkout's ``src`` directory only.
"""

import importlib
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

ROOT = Path(__file__).resolve().parent.parent
# CLI artifacts go here, inside the checkout; each is removed once checked
WORKDIR = ROOT / ".bench_work"
BOX = (-2.0, -2.0, 2.0, 2.0)

LAYERS = ("torsion", "domain", "kernels", "optimizer", "weight", "verify", "cli",
          "oracle")
REASONS = ("converged", "stalled", "stationary", "max_iters")
CLI_CHECKS = ("basic", "starshaped", "convex", "symmetry_x", "symmetry_y",
              "sandwich", "scaling")
CLI_ARTIFACTS = ("trace.jsonl", "domain.csv", "field.csv", "boundary.csv",
                 "report.json")


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/torsionshape`` to benchmark."""


def load_program():
    """Import torsionshape from ``<checkout>/src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "torsionshape" / "__init__.py").is_file():
        raise ProgramMissing(f"no torsionshape package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import torsionshape
    for layer in LAYERS:
        importlib.import_module(f"torsionshape.{layer}")
    if Path(torsionshape.__file__).resolve().parent != (src / "torsionshape").resolve():
        raise ProgramMissing(f"imported torsionshape from {torsionshape.__file__}")
    return torsionshape


class Flow:
    """``optimize`` on the radial weight k=1/2, alpha=2 from an ellipse seed.

    The oracle answer is the ball of radius ``oracle.fbp_radius(1/2, 2) = 1``.
    The inputs are the reference ``Ellipse(1.3, 0.7)`` and a seeded ellipse
    with ``a ∈ [1.2, 1.4]`` and ``b ∈ [0.6, 0.8]``.
    """

    name = "flow-ellipse-128"
    K, ALPHA = 0.5, 2.0

    def __init__(self, seed, smoke=False):
        ts = load_program()
        self.ts = ts
        n = 64 if smoke else 128
        self.grid = ts.GridSpec(n, n, BOX)
        self.weight = ts.radial_weight(self.K, self.ALPHA)
        self.radius = ts.oracle.fbp_radius(self.K, self.ALPHA)
        a, b = np.random.default_rng(seed).uniform((1.2, 0.6), (1.4, 0.8))
        self.inputs = [{"a": 1.3, "b": 0.7}, {"a": float(a), "b": float(b)}]
        self.array_bytes = 8 * (n + 1) ** 2

    def run(self, i):
        ts = self.ts
        p = self.inputs[i]
        init = ts.domain.build_domain(self.grid, ts.Ellipse(p["a"], p["b"]))
        return ts.optimizer.optimize(self.weight, init)

    def check(self, i, trace):
        ts = self.ts
        fail = []
        if trace.reason not in REASONS:
            fail.append(f"termination reason {trace.reason!r} not recorded")
        if not trace.records:
            fail.append("no iteration recorded")
        if not np.all(np.isfinite(trace.final_field.values)):
            fail.append("final stress field is not finite")
        s = ts.domain.boundary_samples(trace.final_domain)
        r = np.hypot(s.points[:, 0], s.points[:, 1])
        radius_err = float(np.max(np.abs(r - self.radius)) / self.radius)
        tol = self.grid.h / self.radius
        if not radius_err <= tol:
            fail.append(f"radius error {radius_err:.4g} > h/R* = {tol:.4g}")
        res_sup, res_l2 = ts.torsion.residual_fbp(trace.final_field, self.weight, 1.0)
        acc = {"radius_err": radius_err, "residual_sup": res_sup,
               "residual_l2": res_l2, "iterations": len(trace.records),
               "termination": trace.reason}
        return acc, radius_err, fail


class Cli:
    """In-process ``torsionshape solve`` on the package's default 256² grid.

    The inputs are the reference ``p = 4`` and a seeded ``p ∈ [3.5, 5]``.
    """

    name = "cli-pnorm-256"

    def __init__(self, seed, smoke=False, workdir=WORKDIR):
        ts = load_program()
        self.ts = ts
        self.workdir = Path(workdir)
        self.smoke = smoke
        self.inputs = [{"p": 4.0},
                       {"p": float(np.random.default_rng(seed).uniform(3.5, 5.0))}]
        n = 64 if smoke else ts.cli.DEFAULT_CONFIG["grid"]["nx"]
        self.array_bytes = 8 * (n + 1) ** 2

    def argv(self, i, out):
        weight = {"alpha": 2.0, "profile": {"type": "pnorm", "p": self.inputs[i]["p"],
                                            "a": 1.0, "b": 1.0}}
        argv = ["--quiet", "solve", "--out", str(out),
                "--override", "weight=" + json.dumps(weight),
                "--override", "checks=" + json.dumps(list(CLI_CHECKS))]
        if self.smoke:
            argv += ["--override", "grid.nx=64", "--override", "grid.ny=64"]
        return argv

    def run(self, i):
        self.workdir.mkdir(parents=True, exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix="cli-", dir=self.workdir))
        return self.ts.cli.main(self.argv(i, out)), out

    def check(self, i, result):
        rc, out = result
        try:
            return self._check(rc, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, rc, out):
        fail = []
        if rc != 0:
            fail.append(f"exit code {rc}")
        missing = [f for f in CLI_ARTIFACTS if not (out / f).is_file()]
        if missing:
            fail.append(f"missing artifacts {missing}")
        acc = {"artifact_bytes": sum((out / f).stat().st_size
                                     for f in CLI_ARTIFACTS if (out / f).is_file())}
        try:
            report = json.loads((out / "report.json").read_text())
        except (OSError, json.JSONDecodeError) as e:
            fail.append(f"report.json unreadable: {e}")
            return acc, float("nan"), fail
        if report.get("schema") != 1:
            fail.append(f"report schema {report.get('schema')!r} != 1")
        checks = report.get("checks", [])
        passed = sum(1 for c in checks if c.get("pass") is True)
        acc["checks_passed"] = passed / len(CLI_CHECKS)
        if len(checks) != len(CLI_CHECKS) or passed != len(CLI_CHECKS):
            bad = [c.get("name") for c in checks if c.get("pass") is not True]
            fail.append(f"{passed}/{len(CLI_CHECKS)} checks pass; failing {bad}")
        for key in ("residual_sup", "residual_l2", "iterations", "termination"):
            acc[key] = report.get(key)
        res_l2 = report.get("residual_l2")
        if not isinstance(res_l2, (int, float)) or not math.isfinite(res_l2):
            fail.append(f"residual_l2 {res_l2!r} is not a finite number")
            res_l2 = float("nan")
        if report.get("termination") not in REASONS:
            fail.append(f"termination {report.get('termination')!r} not recorded")
        return acc, float(res_l2), fail


class Geometry:
    """The ``domain`` layer alone on seeded starshaped curves, no torsion solve.

    Each curve is ``r(θ) = 1 + Σ_m (c_m cos mθ + s_m sin mθ)``, m = 2..5,
    with ``c_m, s_m`` uniform in ``[-AMP, AMP] / m``; its area ``½∫r²dθ`` is
    exact, and its signed distance is taken to a dense polyline. Mode 1,
    nearly a translation, is left out: it would change how far the box
    corners lie from the curve, and with it the redistancing time. The inputs
    are the reference curve, drawn from ``default_rng([0, 0])``, and one curve
    drawn from ``default_rng([seed, 1])``.
    """

    name = "geometry-384"
    modes = np.arange(2, 6)
    AMP = 0.15
    SCALES = (0.9, 1.1)
    DENSE = 1 << 15

    def __init__(self, seed, smoke=False):
        ts = load_program()
        self.ts = ts
        n = 64 if smoke else 384
        self.grid = ts.GridSpec(n, n, BOX)
        nodes = self.grid.nodes()
        r = np.hypot(nodes[..., 0], nodes[..., 1])
        theta = np.arctan2(nodes[..., 1], nodes[..., 0])
        self.inputs = []
        self.fields = []
        m = self.modes
        for i in range(2):
            rng = np.random.default_rng([seed if i else 0, i])
            cos_c, sin_c = rng.uniform(-self.AMP, self.AMP, size=(2, len(m))) / m
            self.inputs.append({"cos": cos_c.tolist(), "sin": sin_c.tolist()})
            self.fields.append(r - self._radius(i, theta))
        self.array_bytes = 8 * (n + 1) ** 2

    def _radius(self, i, theta):
        p = self.inputs[i]
        mt = self.modes * np.asarray(theta)[..., None]
        return 1.0 + np.sum(np.asarray(p["cos"]) * np.cos(mt)
                            + np.asarray(p["sin"]) * np.sin(mt), axis=-1)

    def exact_area(self, i):
        p = self.inputs[i]
        return math.pi * (1.0 + 0.5 * float(np.sum(np.square(p["cos"]))
                                            + np.sum(np.square(p["sin"]))))

    def polyline(self, i, t=1.0):
        theta = np.linspace(0.0, 2.0 * np.pi, self.DENSE, endpoint=False)
        r = t * self._radius(i, theta)
        return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)

    def run(self, i):
        dom = self.ts.domain
        d = dom.build_domain(self.grid, self.ts.Field(self.fields[i]))
        out = {"base": d, "samples": dom.boundary_samples(d), "volume": dom.volume(d),
               "scaled": [], "volumes": [], "hausdorff": []}
        for t in self.SCALES:
            dt = dom.reinitialize(dom.scale_domain(d, t))
            out["scaled"].append(dt)
            out["volumes"].append(dom.volume(dt))
            out["hausdorff"].append(dom.hausdorff_distance(d, dt))
        return out

    def check(self, i, out):
        fail = []
        h = self.grid.h
        area = self.exact_area(i)
        domains = [(1.0, out["base"], out["volume"])]
        domains += list(zip(self.SCALES, out["scaled"], out["volumes"]))
        area_err = max(abs(v - t * t * area) / (t * t * area) for t, _, v in domains)
        sdf_err = max(self._sdf_band_err(i, t, d) for t, d, _ in domains)
        if not area_err <= h * h:
            fail.append(f"area error {area_err:.3g} > h² = {h * h:.3g}")
        if not sdf_err <= 0.25 * h:
            fail.append(f"signed-distance error {sdf_err:.3g} > h/4 = {0.25 * h:.3g}")
        curve = self.polyline(i)
        tree = cKDTree(curve)
        gap = float(np.max(tree.query(out["samples"].points)[0]))
        if not gap <= 0.1 * h:
            fail.append(f"boundary sample {gap:.3g} off the curve > h/10")
        for t, hd in zip(self.SCALES, out["hausdorff"]):
            scaled = t * curve
            exact = max(np.max(cKDTree(scaled).query(curve)[0]),
                        np.max(tree.query(scaled)[0]))
            if not abs(hd - exact) <= 2.0 * h:
                fail.append(f"Hausdorff {hd:.4g} vs exact {exact:.4g} at t={t}")
        acc = {"area_err": area_err, "sdf_band_err": sdf_err,
               "boundary_gap": gap, "hausdorff": out["hausdorff"]}
        return acc, sdf_err / h, fail

    def _sdf_band_err(self, i, t, d):
        """max |ls - exact signed distance| over nodes within 3h of the curve."""
        h = self.grid.h
        nodes = self.grid.nodes().reshape(-1, 2)
        ls = d.ls.reshape(-1)
        curve = self.polyline(i, t)
        near = np.abs(ls) < 4.0 * h
        q = nodes[near]
        _, j = cKDTree(curve).query(q)
        n = len(curve)
        dist = np.full(len(q), np.inf)
        for k in (j - 1, j):
            a = curve[k % n]
            b = curve[(k + 1) % n]
            ab = b - a
            s = np.clip(np.sum((q - a) * ab, axis=1) / np.sum(ab * ab, axis=1), 0.0, 1.0)
            dist = np.minimum(dist, np.hypot(*(q - a - s[:, None] * ab).T))
        theta = np.arctan2(q[:, 1], q[:, 0])
        inside = np.hypot(q[:, 0], q[:, 1]) < t * self._radius(i, theta)
        exact = np.where(inside, -dist, dist)
        band = np.abs(exact) < 3.0 * h
        if not np.any(band):
            return float("inf")
        return float(np.max(np.abs(ls[near][band] - exact[band])))


WORKLOADS = {w.name: w for w in (Flow, Cli, Geometry)}
