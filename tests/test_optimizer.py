"""Gradient flow: projection, derivatives, multiplier, rescale, convergence."""

import itertools

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from torsionshape import (Ball, Ellipse, GridSpec, Sublevel, build_domain,
                          energy_J, estimate_multiplier, fbp_rescale,
                          hausdorff_distance, optimize, phi_constraint,
                          rescale_to_constraint, residual_fbp, scale_domain,
                          shape_derivative, solve_torsion)
from torsionshape import domain, kernels, optimizer
from torsionshape.domain import interp_bilinear
from torsionshape.optimizer import REINIT_EVERY
from torsionshape.errors import AlphaOne, BadMultiplier, OutOfBox
from torsionshape.weight import radial_weight


def test_optimizer_params_validated(grid64):
    # the flow has no setting: each level stops on its own C_L2 * h
    init = build_domain(grid64, Ball(radius=1.0))
    with pytest.raises(TypeError):
        optimize(radial_weight(0.5, 2.0), init, tol_residual=5e-2)


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


def _finest(trace):
    """The records of the trace's finest level."""
    level = trace.records[-1]["level"]
    return [rec for rec in trace.records if rec["level"] == level]


def test_optimize_trace_invariants(radial_run):
    recs = _finest(radial_run.trace)
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
    for s, first_level in ((0.5, 64), (1.3, 128)):
        trace = optimize(w, scale_domain(base, s))
        assert trace.records[0]["level"] == first_level
        finals.append(trace.final_domain)
    # the 1.3 seed starts at the fine level: at 64² the box's 4-cell margin
    # is twice as wide, and its injected front lies in it
    with pytest.raises(OutOfBox):
        domain.Domain(GridSpec(64, 64, grid128.box),
                      scale_domain(base, 1.3).ls[::2, ::2])
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


@pytest.fixture(scope="module")
def ellipse_trace128(grid128):
    """The radial flow k = 1/2, alpha = 2 from Ellipse(1.3, 0.7) at 128²."""
    return optimize(radial_weight(0.5, 2.0),
                    build_domain(grid128, Ellipse(1.3, 0.7)))


def test_optimize_phi_drifts_little(ellipse_trace128):
    # each level projects onto phi = 1 only once; the fitted multiplier
    # holds phi to first order on a moving flow
    trace = ellipse_trace128
    assert trace.reason == "converged" and len(trace.records) >= 10
    recs = _finest(trace)
    assert recs[0]["phi"] == pytest.approx(1.0, abs=1e-3)
    assert max(abs(rec["phi"] - 1.0) for rec in recs) <= 0.02


def test_optimize_radial_flow_reaches_the_ball(ellipse_trace128):
    s = ellipse_trace128.final_domain.samples
    r = np.hypot(s.points[:, 0], s.points[:, 1])
    assert ellipse_trace128.reason == "converged"
    assert np.max(np.abs(r - 1.0)) <= 0.02


@pytest.mark.parametrize("n, levels", [(128, [64, 128]), (48, [48]),
                                       (81, [81])])
def test_optimize_runs_coarse_to_fine(n, levels):
    grid = GridSpec(n, n, (-2.0, -2.0, 2.0, 2.0))
    trace = optimize(radial_weight(0.5, 2.0),
                     build_domain(grid, Ellipse(1.2, 0.8)))
    seen = [rec["level"] for rec in trace.records]
    assert seen == sorted(seen) and sorted(set(seen)) == levels
    assert trace.final_domain.grid is grid


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


def _neumann_laplacian(n, h):
    """1-D second difference on n nodes with reflected boundary rows."""
    L = sparse.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)],
                     [-1, 0, 1], format="lil")
    L[0, 1] = L[n - 1, n - 2] = 2.0
    return L.tocsr() / h ** 2


@pytest.mark.parametrize("shape", [(33, 33), (33, 25)])
def test_h1_solve_matches_sparse_solve(shape):
    h = 0.125
    f = np.random.default_rng(3).normal(size=shape)
    lap = (sparse.kron(_neumann_laplacian(shape[0], h), sparse.eye(shape[1]))
           + sparse.kron(sparse.eye(shape[0]), _neumann_laplacian(shape[1], h)))
    ell = optimizer.ELL_CELLS * h
    A = (sparse.eye(f.size) - ell ** 2 * lap).tocsc()
    ref = spsolve(A, f.ravel()).reshape(shape)
    out = optimizer._h1_solve(f, h)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("radius", [0.5, 1.0, 1.5])
def test_extension_of_a_constant_speed_on_a_ball(grid128, radius):
    # the continuous extension is constant on a circle; the spread of the
    # samples onto the grid varies along it by about 3.5% at ell = 4 cells
    d = build_domain(grid128, Ball(radius=radius))
    s = d.samples
    V = optimizer._extend_velocity(grid128, s, np.full(len(s.ds), 2.0))
    at_samples = interp_bilinear(V, grid128, s.points)
    assert np.ptp(at_samples) <= 0.05 * np.mean(at_samples)
    assert np.mean(at_samples) == pytest.approx(2.0, rel=0.03)


def test_extension_never_exceeds_the_sample_speeds(grid64):
    # dt = CFL h / max|vn| bounds every move at CFL h only if |V| <= max|vn|;
    # unclipped, a nearly constant speed overshoots by about 6% inside
    rng = np.random.default_rng(0)
    d = build_domain(grid64, Ellipse(1.3, 0.7))
    s = d.samples
    for noise in (0.01, 0.1, 1.0, 10.0):
        vn = 1.0 + noise * rng.normal(size=len(s.ds))
        V = optimizer._extend_velocity(grid64, s, vn)
        assert np.max(np.abs(V)) <= np.max(np.abs(vn))
        # the L2(ds) projection keeps the speeds' sign on average
        at_samples = interp_bilinear(V, grid64, s.points)
        assert np.sum(at_samples * vn * s.ds) > 0.0


def test_optimize_rejects_a_step_into_the_margin(grid64, monkeypatch):
    # every trial step lands on a ball whose front lies in the box's frame
    pts = grid64.nodes()
    into_margin = np.hypot(pts[..., 0], pts[..., 1]) - (2.0 - 2 * grid64.h)
    monkeypatch.setattr(kernels, "advect_step",
                        lambda ls, vn, h, dt: into_margin.copy())
    init = build_domain(grid64, Ellipse(1.3, 0.7))
    with pytest.raises(OutOfBox):
        optimize(radial_weight(0.5, 2.0), init)


def test_optimize_stalls_on_a_constant_objective(grid64, monkeypatch):
    # every trial is accepted and none changes the objective, so the level
    # ends stalled at the record after the third such step
    monkeypatch.setattr(optimizer, "scale_invariant_objective",
                        lambda J, phi, alpha: -1.0)
    trace = optimize(radial_weight(0.5, 2.0),
                     build_domain(grid64, Ellipse(1.3, 0.7)))
    assert trace.reason == "stalled"
    assert len(trace.records) == 4


def test_optimize_stalls_after_five_rejected_trials(grid64, monkeypatch):
    # an objective that rises on every call rejects every trial; each
    # rejection halves dt, and the fifth ends the level
    values = itertools.count()
    monkeypatch.setattr(optimizer, "scale_invariant_objective",
                        lambda J, phi, alpha: float(next(values)))
    dts = []
    advect = kernels.advect_step

    def counted(ls, vn, h, dt):
        dts.append(dt)
        return advect(ls, vn, h, dt)

    monkeypatch.setattr(kernels, "advect_step", counted)
    trace = optimize(radial_weight(0.5, 2.0),
                     build_domain(grid64, Ellipse(1.3, 0.7)))
    assert trace.reason == "stalled"
    assert len(trace.records) == 1
    assert dts == [trace.records[0]["dt"] / 2 ** k for k in range(5)]


@pytest.mark.parametrize("run", ["fourier03_run", "pnorm_run"])
def test_non_radial_runs_take_a_step(run, request):
    # unlike a radial weight's, a non-radial G_1 seed is not the solution;
    # a level with n records took n - 1 steps
    recs = request.getfixturevalue(run).trace.records
    assert len(recs) - len({rec["level"] for rec in recs}) >= 1


def test_pnorm_run_converges(pnorm_run):
    # the 256² level of the p = 4 run starts near its discrete minimum; the
    # smoothed speed is a descent direction there, so the level reaches the
    # L2 stop instead of rejecting five trials and ending stalled
    trace = pnorm_run.trace
    assert trace.reason == "converged"
    assert trace.records[-1]["residual_l2"] <= optimizer.C_L2 * pnorm_run.grid.h
