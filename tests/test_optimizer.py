"""Gradient flow: projection, derivatives, multiplier, rescale, convergence."""

import numpy as np
import pytest

from torsionshape import (Ball, Ellipse, Sublevel, build_domain, energy_J,
                          estimate_multiplier, fbp_rescale, hausdorff_distance,
                          optimize, phi_constraint, rescale_to_constraint,
                          residual_fbp, scale_domain, shape_derivative,
                          solve_torsion)
from torsionshape import domain, kernels, optimizer
from torsionshape.optimizer import REINIT_EVERY
from torsionshape.errors import AlphaOne, BadMultiplier
from torsionshape.weight import radial_weight


def test_optimizer_params_validated(grid64):
    init = build_domain(grid64, Ball(radius=1.0))
    with pytest.raises(ValueError):
        optimize(radial_weight(0.5, 2.0), init, tol_residual=-1.0)


def test_rescale_to_constraint(grid256):
    w = radial_weight(0.5, 2.0)
    d = build_domain(grid256, Ball(radius=1.4))
    phi = phi_constraint(w, d)
    d2, t = rescale_to_constraint(d, w)
    assert t == pytest.approx(phi ** (-1.0 / 6.0), rel=1e-12)
    assert phi_constraint(w, d2) == pytest.approx(1.0, abs=1e-3)


def test_rescale_to_constraint_fixed_point(grid256):
    w = radial_weight(0.5, 2.0)
    d, _ = rescale_to_constraint(build_domain(grid256, Ball(radius=1.2)), w)
    _, t = rescale_to_constraint(d, w)
    assert t == pytest.approx(1.0, abs=1e-3)


def test_shape_derivative_unit_ball(grid256):
    w = radial_weight(1.0, 2.0)
    d = build_domain(grid256, Ball(radius=1.0))
    u = solve_torsion(d)
    dJ, dphi = shape_derivative(u, w, 1.0)
    assert dJ == pytest.approx(-np.pi / 4.0, rel=2e-2)
    assert dphi == pytest.approx(2 * np.pi, rel=2e-2)


def test_shape_derivative_zero_velocity(grid128):
    w = radial_weight(1.0, 2.0)
    d = build_domain(grid128, Ball(radius=1.0))
    u = solve_torsion(d)
    assert shape_derivative(u, w, 0.0) == (0.0, 0.0)


def test_shape_derivative_matches_finite_difference(grid256):
    w = radial_weight(0.5, 2.0)
    delta = 1e-2

    def J_phi(R):
        d = build_domain(grid256, Ball(radius=R))
        return energy_J(solve_torsion(d)), phi_constraint(w, d)

    for R in (0.8, 1.0, 1.2):
        d = build_domain(grid256, Ball(radius=R))
        u = solve_torsion(d)
        dJ, dphi = shape_derivative(u, w, 1.0)
        Jp, pp = J_phi(R + delta)
        Jm, pm = J_phi(R - delta)
        assert dJ == pytest.approx((Jp - Jm) / (2 * delta), rel=2e-2)
        assert dphi == pytest.approx((pp - pm) / (2 * delta), rel=2e-2)


def test_estimate_multiplier_radial_solution(grid256):
    w = radial_weight(0.5, 2.0)
    u = solve_torsion(build_domain(grid256, Ball(radius=1.0)))
    assert estimate_multiplier(u, w) == pytest.approx(-0.5, abs=5e-2)


def test_estimate_multiplier_exact_scaled_fit(grid256):
    # On the unit ball |grad u| = 0.5; with g = 0.25 r^2 that is 2g on the
    # boundary, so the fitted multiplier must be -(1/2)*2^2 = -2.
    w = radial_weight(0.25, 2.0)
    u = solve_torsion(build_domain(grid256, Ball(radius=1.0)))
    assert estimate_multiplier(u, w) == pytest.approx(-2.0, abs=0.1)


def test_fbp_rescale_identity(grid128):
    d = build_domain(grid128, Ball(radius=1.0))
    d2, t = fbp_rescale(d, -0.5, 2.0)
    assert t == pytest.approx(1.0)
    assert hausdorff_distance(d, d2) <= grid128.h


def test_fbp_rescale_factors(grid128):
    d = build_domain(grid128, Ball(radius=0.8))
    _, t = fbp_rescale(d, -2.0, 2.0)
    assert t == pytest.approx(2.0)
    _, t = fbp_rescale(d, -1.0 / 8.0, 3.0)
    assert t == pytest.approx(2.0 ** -0.5)


def test_fbp_rescale_rejects_bad_inputs(grid128):
    d = build_domain(grid128, Ball(radius=1.0))
    with pytest.raises(BadMultiplier):
        fbp_rescale(d, 0.5, 2.0)
    with pytest.raises(AlphaOne):
        fbp_rescale(d, -0.5, 1.0)


def test_optimize_rejects_alpha_one(grid128):
    w = radial_weight(0.5, 1.0)
    init = build_domain(grid128, Ball(radius=1.0))
    with pytest.raises(AlphaOne):
        optimize(w, init)


def test_optimize_fixed_point_from_oracle_ball(grid128):
    w = radial_weight(0.5, 2.0)
    init = build_domain(grid128, Ball(radius=1.0))
    trace = optimize(w, init)
    assert len(trace.records) <= 5
    sup, _ = residual_fbp(trace.final_field, w, 1.0)
    assert sup <= 5e-2


def test_optimize_trace_invariants(radial_run):
    recs = radial_run.trace.records
    assert len(recs) >= 1
    for rec in recs:
        assert abs(rec["phi"] - 1.0) <= 1e-3
    objs = [rec["objective"] for rec in recs]
    for a, b in zip(objs, objs[1:]):
        assert b <= a + 1e-6 * abs(a)


def test_optimize_multiplier_fixed_point(radial_run):
    mu = estimate_multiplier(radial_run.field, radial_run.weight)
    assert 0.9 <= -2.0 * mu <= 1.1


def test_optimize_unique_limit_from_two_inits(grid128):
    w = radial_weight(0.5, 2.0)
    base = build_domain(grid128, Sublevel(w, 1.0))
    finals = []
    for s in (0.5, 1.3):
        trace = optimize(w, scale_domain(base, s))
        finals.append(trace.final_domain)
    assert hausdorff_distance(*finals) <= 3 * grid128.h


def test_optimize_builds_each_domain_geometry_once(grid64, monkeypatch):
    calls = {"cell_geometry": 0, "boundary_samples": 0, "advect_step": 0,
             "scale_domain": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(kernels, "cell_geometry")
    counted(domain, "boundary_samples")
    counted(kernels, "advect_step")
    counted(optimizer, "scale_domain")
    trace = optimize(radial_weight(0.5, 2.0),
                     build_domain(grid64, Ellipse(1.3, 0.7)))
    trials = calls["advect_step"]
    assert trials >= 1 and len(trace.records) >= 2
    # one per trial step (the advected domain, solved and scored), plus the
    # input (its phi for the projection) and the projected domain
    assert calls["cell_geometry"] <= trials + 2
    assert calls["boundary_samples"] <= trials + 1
    # one homothety at each end of the flow: onto phi = 1 and the final
    # multiplier rescale; no trial step rescales
    assert calls["scale_domain"] == 2


def test_optimize_phi_drifts_little(grid128):
    # the flow projects onto phi = 1 only once; the fitted multiplier holds
    # phi to first order on a moving flow
    trace = optimize(radial_weight(0.5, 2.0),
                     build_domain(grid128, Ellipse(1.3, 0.7)))
    assert trace.reason == "converged" and len(trace.records) >= 10
    assert trace.records[0]["phi"] == pytest.approx(1.0, abs=1e-3)
    assert max(abs(rec["phi"] - 1.0) for rec in trace.records) <= 0.02


def test_optimize_redistances_on_schedule(grid64, monkeypatch):
    # every trial step is advect (A), maybe redistance (R), torsion solve (S);
    # the first trial of iteration it advects by the dt of its record, and
    # each rejection halves it
    events = []

    def recorded(module, name, tag):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            events.append((tag, args[3] if tag == "A" else None))
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    recorded(optimizer, "reinitialize", "R")
    recorded(optimizer, "solve_torsion", "S")
    recorded(kernels, "advect_step", "A")
    trace = optimize(radial_weight(0.5, 2.0),
                     build_domain(grid64, Ellipse(1.3, 0.7)))
    dts = [rec["dt"] for rec in trace.records]
    trials = []
    it = -1
    for k, (tag, dt) in enumerate(events):
        if tag == "A":
            if it + 1 < len(dts) and dt == dts[it + 1]:
                it += 1
            trials.append((it, events[k + 1][0] == "R"))
    # iteration REINIT_EVERY - 1 ran its trials, so the schedule fired
    assert it + 1 > REINIT_EVERY
    assert [i for i, redistanced in trials if redistanced] == [
        i for i, _ in trials if (i + 1) % REINIT_EVERY == 0]
