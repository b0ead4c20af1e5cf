"""Per-layer tracing from outside the program.

Entering a ``Tracer`` rebinds each layer's functions where their callers look
them up: the defining module, every ``from .x import f`` name in the other
``torsionshape`` modules, and the ``kernels.f`` attributes. Each call then
records a span (name, start, end, parent) in memory; ``layer_metrics`` turns
the spans of one traced operation into the per-layer metrics. Leaving the
``with`` block restores the original functions.
"""

import functools
import sys
import time
from collections import defaultdict

import numpy as np

from workloads import CLI_CHECKS


def _symmetry_name(args, kwargs):
    axis = kwargs.get("axis", args[1] if len(args) > 1 else None)
    return "verify.symmetry_" + ("x" if axis == 0 else "y")


def _solve_counts(out, args, kwargs):
    return {"cg_iters": out.iterations,
            "unknowns": int(np.count_nonzero(out.domain.ls < 0.0))}


def _matvec_counts(out, args, kwargs):
    # diag, four couplings and the input are read, the output is written
    return {"bytes_computed": 7 * args[5].nbytes}


def _samples_counts(out, args, kwargs):
    return {"samples": len(out)}


def _optimize_counts(out, args, kwargs):
    return {"iterations": len(out.records)}


# (module, function, span name, counts recorded from the call)
SPANS = (
    ("torsion", "solve_torsion", "torsion.solve", _solve_counts),
    ("torsion", "energy_J", "torsion.functionals", None),
    ("torsion", "phi_constraint", "torsion.functionals", None),
    ("torsion", "boundary_gradient", "torsion.functionals", None),
    ("torsion", "residual_fbp", "torsion.functionals", None),
    ("torsion", "objective_scale_invariant", "torsion.functionals", None),
    ("torsion", "weighted_perimeter", "torsion.functionals", None),
    ("domain", "build_domain", "domain.build", None),
    ("domain", "reinitialize", "domain.reinit", None),
    ("domain", "boundary_samples", "domain.boundary", _samples_counts),
    ("domain", "cell_quadrature", "domain.quadrature", None),
    ("domain", "volume", "domain.quadrature", None),
    ("domain", "scale_domain", "domain.scale", None),
    ("domain", "hausdorff_distance", "domain.hausdorff", None),
    ("domain", "save_domain", "cli.write", None),
    ("domain", "save_boundary", "cli.write", None),
    ("kernels", "poisson_matvec", "kernels.matvec", _matvec_counts),
    ("kernels", "cell_geometry", "kernels.cell_geometry", None),
    ("kernels", "eikonal_solve", "kernels.eikonal", None),
    ("kernels", "advect_step", "kernels.advect", None),
    ("optimizer", "optimize", "optimizer.optimize", _optimize_counts),
    ("optimizer", "_extend_velocity", "optimizer.extend", None),
    ("optimizer", "estimate_multiplier", "optimizer.multiplier", None),
    ("optimizer", "rescale_to_constraint", "optimizer.rescale", None),
    ("optimizer", "fbp_rescale", "optimizer.rescale", None),
    ("weight", "eval_weight", "weight.eval", None),
    ("verify", "check_basic", "verify.basic", None),
    ("verify", "check_starshaped", "verify.starshaped", None),
    ("verify", "check_convex", "verify.convex", None),
    ("verify", "check_symmetry", _symmetry_name, None),
    ("verify", "check_sandwich", "verify.sandwich", None),
    ("verify", "check_scaling_laws", "verify.scaling", None),
    ("verify", "check_radial_ball", "verify.radial_ball", None),
    ("cli", "cmd_solve", "cli.solve", None),
    ("cli", "_run_checks", "cli.checks", None),
    ("cli", "_atomic_write", "cli.write", None),
)

ROOT_SPAN = "run"


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.counts = None


class Tracer:
    """Spans of the calls into the program, kept in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def span(self, name, fn, counts=None):
        """``fn`` wrapped so that each call records a span named ``name``."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            s = Span(label, stack[-1] if stack else None)
            spans.append(s)
            stack.append(s)
            s.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                s.end = time.perf_counter()
                stack.pop()
            if counts is not None:
                s.counts = counts(out, args, kwargs)
            return out

        return traced

    def __enter__(self):
        """Rebind every function in ``SPANS`` to its traced wrapper."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "torsionshape" or k.startswith("torsionshape."))]
        for mod_name, attr, name, counts in SPANS:
            orig = getattr(sys.modules[f"torsionshape.{mod_name}"], attr)
            traced = self.span(name, orig, counts)
            for mod in modules:
                if mod.__dict__.get(attr) is orig:
                    self._saved.append((mod, attr, orig))
                    setattr(mod, attr, traced)
        return self

    def __exit__(self, *exc):
        """Restore the original functions."""
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def run(self, fn, *args):
        """Call ``fn`` under a root span; returns (result, the op's spans)."""
        first = len(self.spans)
        out = self.span(ROOT_SPAN, fn)(*args)
        return out, self.spans[first:]


def _under(span, prefix):
    p = span.parent
    while p is not None:
        if p.name.startswith(prefix):
            return True
        p = p.parent
    return False


def layer_metrics(spans, artifact_bytes=0):
    """Per-layer metrics of one traced operation.

    ``.s`` is the inclusive time of a layer's calls, ``.self_s`` the part not
    covered by traced calls it made, and ``other.s`` the self time of the
    root span: time spent outside every traced layer.
    """
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_t = defaultdict(float)
    counts = defaultdict(float)
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[id(s.parent)] += s.end - s.start
    for s in spans:
        dur = s.end - s.start
        calls[s.name] += 1
        self_t[s.name] += dur - child[id(s)]
        # a span nested in one of its own name is already counted in the outer
        if not _under(s, s.name):
            incl[s.name] += dur
        for k, v in (s.counts or {}).items():
            counts[f"{s.name}.{k}"] += v
    in_opt = defaultdict(int)
    in_verify = defaultdict(int)
    cli_opt = 0.0
    for s in spans:
        if _under(s, "optimizer.optimize"):
            in_opt[s.name] += 1
        if _under(s, "verify."):
            in_verify[s.name] += 1
        if s.name == "optimizer.optimize" and s.parent is not None \
                and s.parent.name == "cli.solve":
            cli_opt += s.end - s.start
    iters = counts["optimizer.optimize.iterations"]
    trials = in_opt["kernels.advect"]
    # one multiplier fit per optimize call plus one per accepted step
    accepted = in_opt["optimizer.multiplier"] - calls["optimizer.optimize"]

    def per_iter(name):
        return in_opt[name] / iters if iters else 0.0

    m = {
        "torsion.solve.calls": calls["torsion.solve"],
        "torsion.solve.self_s": self_t["torsion.solve"],
        "torsion.solve.cg_iters": counts["torsion.solve.cg_iters"],
        "torsion.solve.unknowns": counts["torsion.solve.unknowns"],
        "torsion.functionals.calls": calls["torsion.functionals"],
        "torsion.functionals.self_s": self_t["torsion.functionals"],
        "kernels.matvec.bytes_computed": counts["kernels.matvec.bytes_computed"],
        "domain.boundary.samples": counts["domain.boundary.samples"],
        "optimizer.iterations": iters,
        "optimizer.trial_steps": trials,
        "optimizer.accept_ratio": accepted / trials if trials else 0.0,
        "optimizer.extend.s": incl["optimizer.extend"],
        "optimizer.multiplier.s": incl["optimizer.multiplier"],
        "optimizer.self_s": sum(self_t[n] for n in ("optimizer.optimize",
                                                     "optimizer.rescale",
                                                     "optimizer.multiplier")),
        "optimizer.quad_per_iter": per_iter("kernels.cell_geometry"),
        "optimizer.boundary_per_iter": per_iter("domain.boundary"),
        "optimizer.solves_per_iter": per_iter("torsion.solve"),
        "weight.eval.calls": calls["weight.eval"],
        "weight.eval.s": incl["weight.eval"],
        "verify.solves": in_verify["torsion.solve"],
        "verify.self_s": sum(t for n, t in self_t.items() if n.startswith("verify.")),
        "cli.optimize.s": cli_opt,
        "cli.checks.s": incl["cli.checks"],
        "cli.artifacts.s": incl["cli.write"] + self_t["cli.solve"],
        "cli.artifacts.bytes": artifact_bytes,
        "other.s": self_t[ROOT_SPAN],
        "trace.spans": len(spans),
    }
    for k in ("matvec", "cell_geometry", "eikonal", "advect"):
        m[f"kernels.{k}.calls"] = calls[f"kernels.{k}"]
        m[f"kernels.{k}.s"] = incl[f"kernels.{k}"]
    for k in ("quadrature", "boundary", "reinit", "scale", "build", "hausdorff"):
        m[f"domain.{k}.calls"] = calls[f"domain.{k}"]
        m[f"domain.{k}.self_s"] = self_t[f"domain.{k}"]
    for k in CLI_CHECKS:
        m[f"verify.{k}.s"] = incl[f"verify.{k}"]
    return m
