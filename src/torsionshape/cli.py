"""Command-line entry point: run orchestration and artifact emission."""

import argparse
import contextlib
import copy
import datetime
import json
import os
import sys

import numpy as np

from . import oracle as oracle_mod
from .domain import (Ball, GridSpec, Sublevel, atomic_open, build_domain,
                     load_domain, save_boundary, save_domain, write_csv)
from .errors import (BadDegree, ConfigParse, EpsTooLarge, NonPositiveProfile,
                     TorsionShapeError)
from .optimizer import optimize, shape_derivative
from .torsion import energy_J, phi_constraint, residual_fbp, solve_torsion
from .verify import (check_basic, check_convex, check_radial_ball,
                     check_sandwich, check_scaling_laws, check_starshaped,
                     check_symmetry)
from .weight import make_weight

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# every key any command reads, with its default; see _merge for the rules
DEFAULT_CONFIG = {
    "schema": 1,
    "weight": {"alpha": 2.0, "profile": {"type": "radial", "k": 0.5}},
    "grid": {"nx": 256, "ny": 256, "box": [-2.0, -2.0, 2.0, 2.0]},
    # solve's exit gate on the reported sup residual; the flow has no setting
    "optimizer": {"tol_residual": 5e-2},
    "checks": ["basic"],
    "radii": [0.8, 1.0, 1.2],                                 # derivcheck
    "sweep": {"eps": [0.02, 0.05, 0.1]},
    "out": "out",
}

# each check takes (d, w, g1, u): g1 is the seed {w < 1} and u the
# torsion solution on d, when the caller has them, else None; each
# check sets its own tolerance
_CHECKS = {
    "basic": lambda d, w, g1, u: check_basic(d),
    "starshaped": lambda d, w, g1, u: check_starshaped(d),
    "convex": lambda d, w, g1, u: check_convex(d),
    "radial_ball": lambda d, w, g1, u: check_radial_ball(d),
    "symmetry_x": lambda d, w, g1, u: check_symmetry(d, 0),
    "symmetry_y": lambda d, w, g1, u: check_symmetry(d, 1),
    "sandwich": lambda d, w, g1, u: check_sandwich(d, w, g1=g1),
    "scaling": lambda d, w, g1, u: check_scaling_laws(d, w, 0.8, u=u),
}


def _atomic_write(path, text):
    with atomic_open(path) as fh:
        fh.write(text)


def _dump_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _apply_override(cfg, key, value):
    try:
        value = json.loads(value)
    except json.JSONDecodeError:
        pass
    node = cfg
    parts = key.split(".")
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigParse(f"override {key!r}: {p!r} is not an object")
    node[parts[-1]] = value


def _merge(default, user, path=()):
    """``user`` laid over the table ``default``: a dict takes only its
    default's keys, a list must be non-empty, and each value must be of its
    default's kind (a float takes an int; a bool is no number).
    ``weight.profile`` is taken whole: its keys depend on its type, and
    ``make_weight`` checks them."""
    if path == ("weight", "profile"):
        return user
    where = ".".join(path)
    if isinstance(default, dict):
        if not isinstance(user, dict):
            raise ConfigParse(f"{where} must be an object, got {user!r}")
        unknown = sorted(".".join((*path, k))
                         for k in set(user) - set(default))
        if unknown:
            raise ConfigParse(f"unknown config keys {unknown}")
        return {k: _merge(v, user[k], (*path, k)) if k in user else v
                for k, v in default.items()}
    if isinstance(default, list):
        if not (isinstance(user, list) and user):
            raise ConfigParse(f"{where} needs a non-empty list, got {user!r}")
        return [_merge(default[0], v, path) for v in user]
    kind = (int, float) if isinstance(default, float) else type(default)
    if not isinstance(user, kind) or isinstance(user, bool):
        raise ConfigParse(f"{where} must be like {default!r}, got {user!r}")
    return user


def load_config(path, overrides=()):
    user = {}
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigParse(f"cannot read config {path}: {e}") from e
        if not isinstance(user, dict):
            raise ConfigParse("config must be a JSON object")
    for ov in overrides:
        if "=" not in ov:
            raise ConfigParse(f"override {ov!r} is not KEY=VALUE")
        key, value = ov.split("=", 1)
        _apply_override(user, key, value)
    cfg = copy.deepcopy(_merge(DEFAULT_CONFIG, user))
    if cfg["schema"] != 1:
        raise ConfigParse(f"schema must be 1, got {cfg['schema']}")
    if not cfg["optimizer"]["tol_residual"] > 0:
        raise ConfigParse("optimizer.tol_residual must be positive")
    unknown = sorted(set(cfg["checks"]) - set(_CHECKS))
    if unknown:
        raise ConfigParse(f"unknown checks {unknown}")
    return cfg


def _grid_from_spec(g):
    try:
        return GridSpec(g["nx"], g["ny"], tuple(g["box"]))
    except ValueError as e:
        raise ConfigParse(f"bad grid spec: {e}") from e


def _weight_from_spec(spec):
    try:
        return make_weight(spec)
    except KeyError as e:
        raise ConfigParse(f"weight.profile lacks key {e}; it is taken whole") from e
    except (TypeError, ValueError, BadDegree, NonPositiveProfile) as e:
        raise ConfigParse(f"bad weight spec: {e}") from e


def _run_checks(names, d, w, g1=None, u=None):
    return [_CHECKS[name](d, w, g1, u) for name in names]


def cmd_solve(cfg, quiet):
    w = _weight_from_spec(cfg["weight"])
    grid = _grid_from_spec(cfg["grid"])
    tol_residual = cfg["optimizer"]["tol_residual"]
    g1 = build_domain(grid, Sublevel(w, 1.0))
    trace = optimize(w, g1)
    d = trace.final_domain
    u = trace.final_field
    # everything that can raise a numerical error runs before the first
    # write, so a failed solve leaves the previous output set untouched
    res_sup, res_l2 = residual_fbp(u, w, 1.0)
    reports = _run_checks(cfg["checks"], d, w, g1=g1, u=u)
    J, phi = energy_J(u), phi_constraint(w, d)
    report = {
        "schema": 1,
        "config": cfg,
        "J": J,
        "phi": phi,
        "objective": oracle_mod.scale_invariant_objective(J, phi, w.alpha),
        "residual_sup": res_sup,
        "residual_l2": res_l2,
        "rescale_factor": trace.final_rescale,
        "iterations": len(trace.records),
        "termination": trace.reason,
        "checks": [r.to_json() for r in reports],
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    # the five files are staged side by side and renamed only after the
    # last one is written, so a failed write leaves the old set whole
    out = cfg["out"]
    with contextlib.ExitStack() as stack:
        fh = {name: stack.enter_context(atomic_open(os.path.join(out, name)))
              for name in ("trace.jsonl", "domain.csv", "field.csv",
                           "boundary.csv", "report.json")}
        fh["trace.jsonl"].writelines(json.dumps(rec, sort_keys=True) + "\n"
                                     for rec in trace.records)
        save_domain(d, fh["domain.csv"])
        write_csv(fh["field.csv"], u.values)
        save_boundary(d.samples, fh["boundary.csv"])
        fh["report.json"].write(_dump_json(report))
    passed = all(r.passed for r in reports)
    if not quiet:
        print(f"solve: residual_sup={res_sup:.3g} termination={trace.reason} "
              f"checks={'pass' if passed else 'FAIL'}")
    return EXIT_OK if passed and res_sup <= tol_residual else EXIT_CHECKS_FAILED


def cmd_oracle(args):
    if args.N < 1:
        raise ConfigParse(f"N must be at least 1, got {args.N}")
    if not np.all(np.isfinite([args.k, args.alpha, args.eps or 0.0])):
        raise ConfigParse("k, alpha and eps must be finite")
    try:
        rep = oracle_mod.oracle_report(args.k, args.alpha, args.N, args.eps)
    except (ValueError, EpsTooLarge) as e:
        raise ConfigParse(f"bad oracle arguments: {e}") from e
    print(_dump_json(rep), end="")
    return EXIT_OK


def cmd_verify(cfg, domain_path):
    w = _weight_from_spec(cfg["weight"])
    try:
        d = load_domain(domain_path)
    except (OSError, ValueError, IndexError, TorsionShapeError) as e:
        raise ConfigParse(f"cannot read domain {domain_path}: {e}") from e
    reports = _run_checks(cfg["checks"], d, w)
    out = {"schema": 1, "checks": [r.to_json() for r in reports]}
    print(_dump_json(out), end="")
    ok = all(r.passed for r in reports)
    return EXIT_OK if ok else EXIT_CHECKS_FAILED


def cmd_derivcheck(cfg):
    """Shape derivative on balls against central differences in the radius."""
    delta, rtol = 1e-2, 2e-2
    w = _weight_from_spec(cfg["weight"])
    grid = _grid_from_spec(cfg["grid"])
    radii = cfg["radii"]
    if not all(R > delta for R in radii):
        raise ConfigParse(f"radii must exceed delta = {delta}, got {radii!r}")

    def ball_field(radius):
        return solve_torsion(build_domain(grid, Ball(radius=radius)))

    rows = []
    ok = True
    for R in radii:
        dJ, dphi = shape_derivative(ball_field(R), w, 1.0)
        up, um = ball_field(R + delta), ball_field(R - delta)
        fdJ = (energy_J(up) - energy_J(um)) / (2 * delta)
        fdP = (phi_constraint(w, up.domain)
               - phi_constraint(w, um.domain)) / (2 * delta)
        errJ = abs(dJ - fdJ) / abs(fdJ)
        errP = abs(dphi - fdP) / abs(fdP)
        ok = ok and errJ <= rtol and errP <= rtol
        rows.append({"R": R, "dJ": dJ, "dJ_fd": fdJ, "errJ": errJ,
                     "dphi": dphi, "dphi_fd": fdP, "errPhi": errP})
    print(_dump_json({"schema": 1, "delta": delta, "rtol": rtol, "rows": rows,
                      "pass": ok}), end="")
    return EXIT_OK if ok else EXIT_CHECKS_FAILED


def cmd_sweep(cfg, quiet):
    base = _weight_from_spec(cfg["weight"])  # perturbed by eps cos(2 theta)
    if base.kind != "radial":
        raise ConfigParse(f"sweep needs a radial weight, got {base.kind!r}")
    k, alpha = float(base.params["a"][0]), base.alpha
    epss = cfg["sweep"]["eps"]
    # eps = 0 is the radial row; a negative eps would be fitted as signed
    # against widths even in eps, and a repeated one makes the fit singular
    if not all(eps >= 0 for eps in epss) or len(set(epss)) < len(epss):
        raise ConfigParse("sweep.eps must be distinct and non-negative, "
                          f"got {epss!r}")
    grid = _grid_from_spec(cfg["grid"])
    h = grid.h
    # every weight is built, and so checked, before the first flow runs
    weights = [_weight_from_spec({"alpha": alpha, "profile": {
        "type": "fourier", "a": [k, 0.0, k * eps], "b": []}}) for eps in epss]
    rows = []
    ok = True
    for eps, w in zip(epss, weights):
        init = build_domain(grid, Sublevel(w, 1.0))
        trace = optimize(w, init)
        s = trace.final_domain.samples
        r = np.hypot(s.points[:, 0], s.points[:, 1])
        r_meas, R_meas = float(np.min(r)), float(np.max(r))
        if eps > 0:
            r_or, R_or = oracle_mod.stability_radii(k, alpha, 2, eps, "sup")
        else:
            r_or = R_or = oracle_mod.fbp_radius(k, alpha, 2)
        ok = (ok and trace.reason == "converged" and r_meas >= r_or - 3 * h
              and R_meas <= R_or + 3 * h)
        rows.append((eps, r_or, R_or, r_meas, R_meas))
    out_lines = ["eps,r_oracle,R_oracle,r_measured,R_measured"]
    out_lines += [",".join(f"{v:.10g}" for v in row) for row in rows]
    arr = np.array(rows)
    if len(arr) >= 2:
        slope_meas = float(np.polyfit(arr[:, 0], arr[:, 4] - arr[:, 3], 1)[0])
        slope_orac = float(np.polyfit(arr[:, 0], arr[:, 2] - arr[:, 1], 1)[0])
        theory = oracle_mod.width_slope(k, alpha, 2)
        response = oracle_mod.response_width_slope(k, alpha, 2)
        out_lines.append(f"# slope_measured={slope_meas:.6g} "
                         f"slope_oracle={slope_orac:.6g} "
                         f"slope_bracket_theory={theory:.6g} "
                         f"slope_response_theory={response:.6g}")
    text = "\n".join(out_lines) + "\n"
    out = cfg["out"]
    if out:
        _atomic_write(os.path.join(out, "sweep.csv"), text)
    if not quiet:
        print(text, end="")
    return EXIT_OK if ok else EXIT_CHECKS_FAILED


def build_parser():
    p = argparse.ArgumentParser(prog="torsionshape")
    p.add_argument("--quiet", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("solve", "sweep", "derivcheck"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
        if name != "derivcheck":  # derivcheck only prints
            sp.add_argument("--out", default=None)
        sp.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE")
    so = sub.add_parser("oracle")
    so.add_argument("--k", type=float, required=True)
    so.add_argument("--alpha", type=float, required=True)
    so.add_argument("--N", type=int, default=2)
    so.add_argument("--eps", type=float, default=None)
    sv = sub.add_parser("verify")
    sv.add_argument("--config", default=None)
    sv.add_argument("--domain", required=True)
    sv.add_argument("--override", action="append", default=[],
                    metavar="KEY=VALUE")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "oracle":
            return cmd_oracle(args)
        cfg = load_config(args.config, args.override)
        if getattr(args, "out", None):
            cfg["out"] = args.out
        if args.command == "solve":
            return cmd_solve(cfg, args.quiet)
        if args.command == "verify":
            return cmd_verify(cfg, args.domain)
        if args.command == "derivcheck":
            return cmd_derivcheck(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.quiet)
        raise ConfigParse(f"unknown command {args.command}")
    except ConfigParse as e:
        print(_dump_json({"error": "config", "message": str(e)}),
              end="", file=sys.stderr)
        return EXIT_CONFIG
    except TorsionShapeError as e:
        print(_dump_json({"error": type(e).__name__, "message": str(e)}),
              end="", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
