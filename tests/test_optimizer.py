"""Gradient flow: projection, derivatives, multiplier, rescale, convergence."""

import itertools
import re

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from shapes import fourier_modes, radius_modes
from torsionshape import (Ball, Ellipse, Field, GridSpec, Sublevel,
                          build_domain, energy_J, estimate_multiplier,
                          fbp_rescale, hausdorff_distance, optimize,
                          phi_constraint, rescale_to_constraint, residual_fbp,
                          scale_domain, shape_derivative, solve_torsion)
from torsionshape import domain, kernels, optimizer, oracle
from torsionshape.domain import interp_bilinear
from torsionshape.errors import (AlphaOne, BadMultiplier, OutOfBox,
                                 StarvedBoundary)
from torsionshape.weight import eval_weight, radial_weight


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


def test_pohozaev_multiplier_is_second_order(grid128, grid256):
    # on the unit ball mu = -1/2; measured relative errors at 128² and 256²:
    # the Pohozaev mu 1.5e-3 and 3.7e-4, the fit 4.7e-3 and 1.7e-3
    w = radial_weight(0.5, 2.0)
    errs = []
    for grid in (grid128, grid256):
        u = solve_torsion(build_domain(grid, Ball(radius=1.0)))
        mu = oracle.pohozaev_multiplier(energy_J(u),
                                        phi_constraint(w, u.domain), w.alpha)
        errs.append(abs(mu / -0.5 - 1.0))
        assert errs[-1] <= 0.5 * abs(estimate_multiplier(u, w) / -0.5 - 1.0)
    assert errs[1] <= errs[0] / 3.0


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
    calls = {"cell_geometry": 0, "boundary_samples": 0, "solve_torsion": 0,
             "scale_domain": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(kernels, "cell_geometry")
    counted(domain, "boundary_samples")
    counted(optimizer, "solve_torsion")
    counted(optimizer, "scale_domain")
    trace = optimize(radial_weight(0.5, 2.0),
                     build_domain(grid64, Ellipse(1.3, 0.7)))
    # one level: every trial step is solved once, besides the projected
    # seed and the final domain
    trials = calls["solve_torsion"] - 2
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
    # each level projects onto phi = 1 only once and the step leaves mode 0
    # to the multiplier; the 64² level moves the front, and the finest level,
    # which starts near the solution, holds phi close to 1
    trace = ellipse_trace128
    coarse = [rec for rec in trace.records if rec["level"] == 64]
    assert trace.reason == "converged" and len(coarse) >= 2
    assert coarse[-1]["objective"] < coarse[0]["objective"]
    assert all(rec["step"] > 0.0 for rec in coarse[:-1])
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
    # every trial step is a run of advect substeps (A) of one dt each,
    # together time 1 times the trial's scale, then one redistance (R) and
    # one torsion solve (S): every accepted step redistances
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
    tags = "".join(tag for tag, _ in events)
    # one level: the projected seed's solve, the trials, the final solve
    assert re.fullmatch(r"S(A+RS)+S", tags)
    dts = [dt for _, dt in events]
    trials = [m.span() for m in re.finditer("A+", tags)]
    assert len(trials) == len(trace.records) - 1 >= 2
    h = grid64.h
    for (a, b), rec in zip(trials, trace.records):
        assert len(set(dts[a:b])) == 1
        assert sum(dts[a:b]) == pytest.approx(1.0, rel=1e-12)
        assert b - a == int(np.ceil(rec["step"] / (optimizer.CFL * h)))


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
    # a step moves no node farther than the largest sample displacement
    # only if |V| <= max|vn|; unclipped, a nearly constant speed overshoots
    # by about 6% inside
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
    # every trial is accepted and none changes the objective; with the L2
    # stop out of reach, the level ends stalled at the record after the
    # third such step
    monkeypatch.setattr(optimizer, "scale_invariant_objective",
                        lambda J, phi, alpha: -1.0)
    monkeypatch.setattr(optimizer, "C_L2", 0.0)
    trace = optimize(radial_weight(0.5, 2.0),
                     build_domain(grid64, Ellipse(1.3, 0.7)))
    assert trace.reason == "stalled"
    assert len(trace.records) == 4


def test_optimize_stalls_after_five_rejected_trials(grid64, monkeypatch):
    # an objective that rises on every call rejects every trial; each
    # rejection halves the step's length, and the fifth ends the level
    values = itertools.count()
    monkeypatch.setattr(optimizer, "scale_invariant_objective",
                        lambda J, phi, alpha: float(next(values)))
    moves = []
    advect = kernels.advect_step

    def counted(ls, vn, h, dt):
        moves.append(float(np.max(np.abs(vn))) * dt)
        return advect(ls, vn, h, dt)

    trials = []
    solve = optimizer.solve_torsion

    def marked(d):
        trials.append(sum(moves))
        moves.clear()
        return solve(d)

    monkeypatch.setattr(kernels, "advect_step", counted)
    monkeypatch.setattr(optimizer, "solve_torsion", marked)
    trace = optimize(radial_weight(0.5, 2.0),
                     build_domain(grid64, Ellipse(1.3, 0.7)))
    assert trace.reason == "stalled"
    assert len(trace.records) == 1 and trace.records[0]["step"] == 0.0
    # the projected seed's solve, five trials, the final solve
    assert trials[0] == 0.0 and len(trials) == 7
    assert trials[1] > grid64.h
    assert trials[1:6] == pytest.approx(
        [trials[1] / 2 ** k for k in range(5)], rel=1e-12)


def _perturbed_ball(grid, m, e):
    """The ball r < 1 + e cos(m theta) on ``grid``."""
    pts = grid.nodes()
    r = np.hypot(pts[..., 0], pts[..., 1])
    theta = np.arctan2(pts[..., 1], pts[..., 0])
    return build_domain(grid, Field(r - (1.0 + e * np.cos(m * theta))))


@pytest.mark.parametrize("m", [2, 3])
def test_newton_step_removes_a_mode(grid128, m):
    # on r = 1 + e cos(m theta) the residual's mode m is -(m + alpha - 1) e
    # (the linearisation of oracle.response_modes), so one step of
    # e cos(m theta) / (m + alpha - 1) per unit of it takes the mode out;
    # measured: the fit within 2%, 91% of the mode removed
    w, e = radial_weight(0.5, 2.0), 0.05
    d = _perturbed_ball(grid128, m, e)
    u = solve_torsion(d)
    mu = estimate_multiplier(u, w)
    s = d.samples
    grad, valid = u.gradient
    rho = grad / (np.sqrt(-2.0 * mu) * eval_weight(w, s.points)) - 1.0
    A, _ = fourier_modes(s.points[valid], s.ds[valid], rho[valid])
    assert A[m] == pytest.approx(-(m + w.alpha - 1.0) * e, rel=0.05)
    vn = optimizer._newton_speed(u, w, mu)
    V = optimizer._extend_velocity(grid128, s, vn)
    moved = optimizer._advance(d, V, 1.0)
    before = np.concatenate(radius_modes(s))
    after = np.concatenate(radius_modes(moved.samples))
    assert before[m] == pytest.approx(e, rel=0.02)
    assert abs(after[m]) <= 0.2 * e
    # no other mode grows past a tenth of e, the mean radius included (the
    # entries are A_0..A_6, then B_0 = 0 and B_1..B_6)
    others = np.delete(after - before, [0, m])
    assert np.max(np.abs(others)) <= 0.1 * e
    assert abs(after[0] - before[0]) <= 0.1 * e


def test_newton_step_on_a_front_that_is_not_starshaped(grid64):
    # the unit ball less a ball about (1, 0) is no graph over theta: some
    # rays leave it through the bite, where r_hat.n < 0.  The step still
    # moves the front by the radial field dr(theta) r_hat, inward in the
    # normal's sense there; the objective test accepts it, and the flow
    # fills the bite and reaches the ball
    pts = grid64.nodes()
    x, y = pts[..., 0], pts[..., 1]
    ls = np.maximum(np.hypot(x, y) - 1.0, 0.6 - np.hypot(x - 1.0, y))
    d = build_domain(grid64, Field(ls))
    u = solve_torsion(d)
    _, valid = u.gradient
    x_n = np.sum(d.samples.points * d.samples.normals, axis=1)
    assert np.any(valid & (x_n < 0.0))
    trace = optimize(radial_weight(0.5, 2.0), d)
    objs = [rec["objective"] for rec in trace.records]
    assert trace.records[0]["step"] > 0.0 and objs[1] < objs[0]
    assert trace.reason == "converged"
    s = trace.final_domain.samples
    r = np.hypot(s.points[:, 0], s.points[:, 1])
    assert np.max(np.abs(r - 1.0)) <= 0.25 * grid64.h


def test_optimize_raises_on_a_missed_projection(grid64):
    # at k = 400 the seed G_1 has radius 0.05, under a cell at 64²; its
    # homothety onto phi = 1 resamples a one-node domain and lands at
    # phi = 8.48, so the flow would run, and converge, on a garbage domain
    w = radial_weight(400.0, 2.0)
    init = build_domain(grid64, Sublevel(w, 1.0))
    with pytest.raises(StarvedBoundary, match=r"left phi = 8\.48.*grid 64x64"):
        optimize(w, init)


def test_optimize_goes_on_past_a_coarse_projection_miss(grid256):
    # a seed ball of radius 0.15 spans 9.6 cells at 256² but 2.4 at the 64²
    # level, where its projection onto phi = 1 misses by more than PHI_TOL;
    # only the finest level's projection is checked, so the flow goes on
    # and reaches the unit ball (measured within 0.03 h)
    w = radial_weight(0.5, 2.0)
    trace = optimize(w, build_domain(grid256, Ball((0.0, 0.0), 0.15)))
    assert trace.records[0]["level"] == 64
    assert trace.records[0]["phi"] > 1.0 + optimizer.PHI_TOL
    assert trace.reason == "converged"
    s = trace.final_domain.samples
    r = np.hypot(s.points[:, 0], s.points[:, 1])
    assert np.max(np.abs(r - 1.0)) <= 0.1 * grid256.h


def test_final_rescale_takes_the_pohozaev_multiplier(grid256):
    # alpha = 1.25 turns a relative bias d in mu into a radius bias
    # d / (2 (alpha - 1)) = 2 d; the fitted mu left max|r - R| = 0.233 h,
    # the Pohozaev mu of the last iterate leaves 0.032 h
    w = radial_weight(0.5, 1.25)
    trace = optimize(w, build_domain(grid256, Ellipse(1.1, 0.9)))
    assert trace.reason == "converged"
    s = trace.final_domain.samples
    r = np.hypot(s.points[:, 0], s.points[:, 1])
    R = oracle.fbp_radius(0.5, 1.25)
    assert np.max(np.abs(r - R)) <= 0.08 * grid256.h


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
