"""End-to-end acceptance gate: ten numbered criteria, one verdict line each.

Each test prints a single "[criterion NN] name: PASS/FAIL" line and then
asserts.  Criterion 6 is split: the bracket containment (6a), the fitted
width slope (6b) and the boundary's Fourier modes (6c).  6b compares the
solution's min-max width response to eps with its closed form
oracle.response_width_slope (2/3 here), which is a third of the
bracket-width slope oracle.width_slope (2); it also requires every sweep run
to have moved off its seed, whose own width slope is about 1.  See README
("Stability width slope") for the derivation.  6c fits the same
runs' boundary radius r(theta) up to mode 6 and compares each mode with its
first-order closed form oracle.response_modes.
"""

import time

import numpy as np
import pytest

from shapes import (check_inclusion, radius_modes, random_starshaped_blob,
                    steiner_symmetrize)
from torsionshape import (Ball, Ellipse, GridSpec, Sublevel, boundary_samples,
                          build_domain, energy_J, estimate_multiplier,
                          eval_weight, make_weight, oracle, phi_constraint,
                          residual_fbp, scale_domain, solve_torsion, volume,
                          weighted_perimeter)
from torsionshape.optimizer import shape_derivative
from torsionshape.verify import (check_basic, check_convex, check_radial_ball,
                                 check_sandwich, check_starshaped,
                                 check_symmetry)
from torsionshape.weight import fourier_weight, radial_weight

BOX = (-2.0, -2.0, 2.0, 2.0)


def _verdict(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def test_criterion_01_radial_solve(radial_run):
    r_oracle = oracle.fbp_radius(0.5, 2.0, 2)
    radius_ok = (abs(radial_run.r_min - r_oracle) <= 0.02 * r_oracle
                 and abs(radial_run.r_max - r_oracle) <= 0.02 * r_oracle)
    sup, _ = residual_fbp(radial_run.field, radial_run.weight, 1.0)
    ok = radius_ok and sup <= 5e-2 and radial_run.runtime <= 60.0
    detail = (f"radii [{radial_run.r_min:.4f}, {radial_run.r_max:.4f}] vs 1.0, "
              f"residual_sup {sup:.3g}, runtime {radial_run.runtime:.1f}s")
    assert _verdict("01", "radial solve", ok, detail), detail


def test_criterion_02_pde_accuracy():
    errs = {}
    for n in (128, 256, 512):
        grid = GridSpec(n, n, BOX)
        u = solve_torsion(build_domain(grid, Ball(radius=1.0)))
        pts = grid.nodes()
        exact = np.maximum(0.0, 1.0 - pts[..., 0] ** 2 - pts[..., 1] ** 2) / 4.0
        errs[n] = float(np.max(np.abs(u.values - exact)))
    hs = np.array([4.0 / n for n in errs])
    order = float(np.polyfit(np.log(hs), np.log(list(errs.values())), 1)[0])
    ok = errs[512] <= 1e-3 and order >= 1.0
    detail = (f"max error at h=1/128: {errs[512]:.2e}, observed order {order:.2f}")
    assert _verdict("02", "pde accuracy", ok, detail), detail


def test_criterion_03_scaling_laws(grid256):
    w = radial_weight(0.5, 2.0)
    domains = {
        "ball": build_domain(grid256, Ball(radius=1.0)),
        "blob": random_starshaped_blob(grid256, np.random.default_rng(23),
                                       r0=0.9, amp=0.15),
    }
    worst = 0.0
    for d in domains.values():
        J = energy_J(solve_torsion(d))
        phi = phi_constraint(w, d)
        for t in (0.8, 1.37):
            dt = scale_domain(d, t)
            errJ = abs(energy_J(solve_torsion(dt)) / J - t ** 4) / t ** 4
            errP = (abs(phi_constraint(w, dt) / phi - t ** 6) / t ** 6)
            worst = max(worst, errJ, errP)
    ok = worst <= 2e-2
    detail = f"worst relative scaling error {worst:.2e} (tol 2e-2)"
    assert _verdict("03", "scaling laws", ok, detail), detail


def test_criterion_04_shape_derivative(grid256):
    w = radial_weight(0.5, 2.0)
    delta = 1e-2
    worst = 0.0
    for R in (0.8, 1.0, 1.2):
        d = build_domain(grid256, Ball(radius=R))
        u = solve_torsion(d)
        dJ, dphi = shape_derivative(u, w, 1.0)
        vals = {}
        for s in (+1, -1):
            ds = build_domain(grid256, Ball(radius=R + s * delta))
            vals[s] = (energy_J(solve_torsion(ds)), phi_constraint(w, ds))
        fdJ = (vals[1][0] - vals[-1][0]) / (2 * delta)
        fdP = (vals[1][1] - vals[-1][1]) / (2 * delta)
        worst = max(worst, abs(dJ - fdJ) / abs(fdJ), abs(dphi - fdP) / abs(fdP))
    ok = worst <= 2e-2
    detail = f"worst relative derivative error {worst:.2e} (tol 2e-2)"
    assert _verdict("04", "shape derivative", ok, detail), detail


def test_criterion_05_multiplier_fixed_point(radial_run):
    mu = estimate_multiplier(radial_run.field, radial_run.weight)
    # at the fixed point the converged solution needs no further rescale
    t = oracle.multiplier_rescale(mu, radial_run.weight.alpha)
    ok = 0.9 <= -2.0 * mu <= 1.1 and 0.95 <= t <= 1.05
    detail = f"-2mu = {-2.0 * mu:.4f}, residual rescale t = {t:.4f}"
    assert _verdict("05", "multiplier fixed point", ok, detail), detail


def test_criterion_06a_stability_bracket(sweep_runs):
    h = 4.0 / 256
    ok = True
    parts = []
    for eps, run in sorted(sweep_runs.items()):
        r_or, R_or = oracle.stability_radii(0.5, 2.0, 2, eps, "sup")
        ok = ok and run.r_min >= r_or - 3 * h and run.r_max <= R_or + 3 * h
        parts.append(f"eps={eps}: [{run.r_min:.3f},{run.r_max:.3f}]"
                     f" in [{r_or - 3 * h:.3f},{R_or + 3 * h:.3f}]")
    detail = "; ".join(parts)
    assert _verdict("06a", "stability bracket", ok, detail), detail


def test_criterion_06b_stability_width_slope(sweep_runs):
    eps = np.array(sorted(sweep_runs))
    runs = [sweep_runs[e] for e in eps]
    widths = np.array([run.r_max - run.r_min for run in runs])
    slope = float(np.polyfit(eps, widths, 1)[0])
    target = oracle.response_width_slope(0.5, 2.0, 2)
    bracket = oracle.width_slope(0.5, 2.0, 2)
    # every run must have left its seed: the seed's own width slope is ~1
    moved = all(len(run.trace.records) >= 2
                and run.trace.records[-1]["residual_l2"]
                < run.trace.records[0]["residual_l2"] for run in runs)
    ok = moved and slope <= bracket and abs(slope - target) <= 0.15 * target
    runs_detail = "; ".join(
        f"eps={e}: width {w:.4f}, {run.trace.records[-1]['iter']} steps, "
        f"{run.trace.reason}" for e, w, run in zip(eps, widths, runs))
    detail = (f"fitted width slope {slope:.3f} vs solution response "
              f"{target:.3f} +/- 15% (bracket slope {bracket:.3f}); "
              f"all runs moved: {moved}; {runs_detail}")
    assert _verdict("06b", "stability width slope", ok, detail), detail


MODES = 6


def test_criterion_06c_response_modes(sweep_runs):
    # the driven cos 2 theta mode within 0.05 h of its closed form, and the
    # modes 1..6 the weight does not drive within 0.1 h of 0; the mean
    # radius (mode 0) is left out, for it is even in eps and so carries an
    # O(eps^2) shift the first-order oracle omits (0.18 h at eps = 0.1)
    worst_driven = worst_other = 0.0
    rows = []
    for eps, run in sorted(sweep_runs.items()):
        h = run.grid.h
        A, B = radius_modes(run.domain.samples, MODES)
        a = np.zeros(MODES + 1)
        a[2] = eps
        A0, B0 = oracle.response_modes(0.5, 2.0, a, np.zeros(MODES + 1))
        errA, errB = (A - A0) / h, (B - B0) / h
        driven = errA[2]
        other = np.max(np.abs(np.concatenate([errA[[1, 3, 4, 5, 6]],
                                              errB[1:]])))
        worst_driven = max(worst_driven, abs(driven))
        worst_other = max(worst_other, other)
        rows.append(f"eps={eps}: cos 2 {driven:+.3f} h, others <= "
                    f"{other:.3f} h, mean {errA[0]:+.3f} h")
    ok = worst_driven <= 0.05 and worst_other <= 0.1
    detail = "; ".join(rows)
    assert _verdict("06c", "response modes", ok, detail), detail


def test_criterion_07_monotonicity(radial_run, radial_k06_run):
    r1 = oracle.fbp_radius(0.6, 2.0, 2)   # 1/(1.2) for the larger weight
    r2 = oracle.fbp_radius(0.5, 2.0, 2)
    radii_ok = (abs(radial_k06_run.r_min - r1) <= 0.02 * r1
                and abs(radial_k06_run.r_max - r1) <= 0.02 * r1
                and abs(radial_run.r_min - r2) <= 0.02 * r2
                and abs(radial_run.r_max - r2) <= 0.02 * r2)
    incl = check_inclusion(radial_k06_run.domain, radial_run.domain)
    ok = radii_ok and incl.passed
    detail = (f"radii {radial_k06_run.r_min:.4f}..{radial_k06_run.r_max:.4f} vs "
              f"{r1:.4f} and {radial_run.r_min:.4f}..{radial_run.r_max:.4f} vs "
              f"{r2:.4f}; inclusion measured {incl.measured:.3g}")
    assert _verdict("07", "monotonicity", ok, detail), detail


def test_criterion_08_qualitative_suite(radial_run, fourier03_run, pnorm_run,
                                        cos2_eps01_run):
    failures = []
    for label, run in (("radial", radial_run), ("fourier", fourier03_run),
                       ("pnorm", pnorm_run), ("cos2", cos2_eps01_run)):
        if not check_basic(run.domain).passed:
            failures.append(f"{label}:basic")
        if not check_starshaped(run.domain).passed:
            failures.append(f"{label}:starshaped")
    if not check_convex(pnorm_run.domain).passed:
        failures.append("pnorm:convex")
    for axis in (0, 1):
        if not check_symmetry(cos2_eps01_run.domain, axis).passed:
            failures.append(f"cos2:symmetry_{'xy'[axis]}")
    if not check_radial_ball(radial_run.domain).passed:
        failures.append("radial:ball")
    ok = not failures
    detail = "all checks passed" if ok else "failed: " + ", ".join(failures)
    assert _verdict("08", "qualitative suite", ok, detail), detail


def test_criterion_09_sandwich(radial_run, fourier03_run):
    rep = check_sandwich(fourier03_run.domain, fourier03_run.weight)
    A, B = rep.witness["A"], rep.witness["B"]
    rho = np.sqrt(2.0)  # G_1 radius of the radial weight k=1/2, alpha=2
    radial_rep = check_sandwich(radial_run.domain, radial_run.weight)
    inner_radius = radial_rep.witness["inner_scale"] * rho
    outer_radius = radial_rep.witness["outer_scale"] * rho
    tight = (abs(inner_radius - 1.0) <= 0.02 and abs(outer_radius - 1.0) <= 0.02)
    ok = rep.passed and A < B and radial_rep.passed and tight
    detail = (f"fourier A={A:.3f} < B={B:.3f}, inclusions measured "
              f"{rep.measured:.3g} (slack {rep.tol:.3g}); radial bounds "
              f"[{inner_radius:.4f}, {outer_radius:.4f}] vs 1.0 +/- 2%")
    assert _verdict("09", "sandwich", ok, detail), detail


# --- criterion 10: randomized property suites -------------------------------

def _suite_homogeneity(rng):
    pool = [radial_weight(0.7, 2.0), fourier_weight(2.5, [1.0, 0.3], b=[0.2]),
            fourier_weight(2.0, [0.5, 0.0, 0.05]),
            make_weight({"alpha": 2.0, "profile": {"type": "pnorm", "p": 4.0,
                                                   "a": 1.0, "b": 1.5}})]
    trials = 0
    worst = 0.0
    for w in pool:
        x = rng.normal(size=(300, 2))
        t = rng.uniform(0.01, 10.0, size=300)
        g = eval_weight(w, x)
        gt = eval_weight(w, t[:, None] * x)
        rel = np.abs(gt - t ** w.alpha * g) / (1.0 + t ** w.alpha * g)
        worst = max(worst, float(np.max(rel)))
        trials += 300
    return trials, worst, 1e-12


def _suite_symmetrization(rng, n_trials=1000):
    grid = GridSpec(64, 64, BOX)
    worst = -np.inf
    for i in range(n_trials):
        d = random_starshaped_blob(grid, rng, r0=1.0, amp=0.25)
        J = energy_J(solve_torsion(d))
        ball = Ball(radius=np.sqrt(volume(d) / np.pi))  # Schwarz
        J_sch = energy_J(solve_torsion(build_domain(grid, ball)))
        J_st = energy_J(solve_torsion(steiner_symmetrize(d, int(rng.integers(2)))))
        worst = max(worst, (J_sch - J) / abs(J), (J_st - J) / abs(J))
    return n_trials, worst, 5e-3


def _suite_sqrt_concavity(rng):
    grid = GridSpec(256, 256, BOX)
    worst = -np.inf
    trials = 0
    for seed in (Ball(radius=1.2), Ellipse(1.5, 0.8)):
        d = build_domain(grid, seed)
        u = solve_torsion(d).values
        ls = d.ls
        need = 1000
        got = 0
        while got < need:
            mid = rng.integers(8, 249, size=(4000, 2))
            off = rng.integers(-60, 61, size=(4000, 2))
            a, b = mid - off, mid + off
            okm = ((np.abs(off).max(axis=1) >= 2)
                   & (a >= 0).all(axis=1) & (b >= 0).all(axis=1)
                   & (a <= 256).all(axis=1) & (b <= 256).all(axis=1))
            mid, a, b = mid[okm], a[okm], b[okm]
            inside = ((ls[mid[:, 0], mid[:, 1]] < 0)
                      & (ls[a[:, 0], a[:, 1]] < 0) & (ls[b[:, 0], b[:, 1]] < 0))
            mid, a, b = mid[inside], a[inside], b[inside]
            if len(mid) == 0:
                continue
            viol = (0.5 * (np.sqrt(u[a[:, 0], a[:, 1]])
                           + np.sqrt(u[b[:, 0], b[:, 1]]))
                    - np.sqrt(u[mid[:, 0], mid[:, 1]]))
            worst = max(worst, float(np.max(viol)))
            got += len(mid)
        trials += got
    return trials, worst, 1e-6


def _suite_isoperimetric(rng, n_trials=1000):
    grid = GridSpec(64, 64, BOX)
    pool = [radial_weight(0.5, 2.0), fourier_weight(2.0, [1.0, 0.3]),
            radial_weight(1.0, 3.0),
            make_weight({"alpha": 2.0, "profile": {"type": "pnorm", "p": 4.0,
                                                   "a": 1.0, "b": 1.0}})]
    worst = 0.0
    for i in range(n_trials):
        d = random_starshaped_blob(grid, rng, r0=0.9, amp=0.2)
        w = pool[i % len(pool)]
        t = float(rng.uniform(0.6, 1.4))
        expo = (w.alpha + 1.0) / (2.0 * w.alpha + 2.0)

        def ratio(dd):
            return weighted_perimeter(w, dd) / phi_constraint(w, dd) ** expo

        r1 = ratio(d)
        worst = max(worst, abs(ratio(scale_domain(d, t)) - r1) / abs(r1))
    return n_trials, worst, 2e-2


def test_criterion_10_property_suites():
    t0 = time.perf_counter()
    results = {
        "homogeneity": _suite_homogeneity(np.random.default_rng(101)),
        "symmetrization": _suite_symmetrization(np.random.default_rng(102)),
        "sqrt_concavity": _suite_sqrt_concavity(np.random.default_rng(103)),
        "isoperimetric": _suite_isoperimetric(np.random.default_rng(104)),
    }
    elapsed = time.perf_counter() - t0
    failures = [f"{name}: worst {worst:.3g} > tol {tol:g}"
                for name, (n, worst, tol) in results.items()
                if worst > tol or n < 1000]
    ok = not failures and elapsed <= 600.0
    detail = ("; ".join(f"{name} n={n} worst={worst:.2e} tol={tol:g}"
                        for name, (n, worst, tol) in results.items())
              + f"; elapsed {elapsed:.0f}s")
    assert _verdict("10", "property suites", ok, detail), detail
