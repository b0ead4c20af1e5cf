"""Torsion PDE solve and the functionals J, phi, boundary gradient, residuals."""

import re

import numpy as np
import pytest

from torsionshape import (Ball, Domain, Ellipse, GridSpec, boundary_samples,
                          build_domain, energy_J, objective_scale_invariant,
                          phi_constraint, residual_fbp, scale_domain,
                          solve_torsion, weighted_perimeter)
from torsionshape import kernels, torsion
from torsionshape.domain import cell_quadrature
from torsionshape.errors import EmptyDomain, SolverDiverged
from torsionshape.torsion import (CG_RTOL, _build_system, _interior_operator,
                                  boundary_gradient)
from torsionshape.weight import radial_weight
from scipy.spatial import cKDTree

BOX = (-2.0, -2.0, 2.0, 2.0)


def _ball_solution_error(n):
    grid = GridSpec(n, n, BOX)
    d = build_domain(grid, Ball(radius=1.0))
    u = solve_torsion(d)
    pts = grid.nodes()
    exact = np.maximum(0.0, 1.0 - pts[..., 0] ** 2 - pts[..., 1] ** 2) / 4.0
    return float(np.max(np.abs(u.values - exact))), u


def _square_torsion_max(n_terms=200):
    """Series value of max u for the unit square (center of the square)."""
    total = 0.0
    for m in range(1, n_terms, 2):
        for n in range(1, n_terms, 2):
            sign = (-1.0) ** ((m - 1) // 2 + (n - 1) // 2)
            total += 16.0 * sign / (np.pi ** 4 * m * n * (m * m + n * n))
    return total


def test_unit_ball_center_value_and_error():
    err, u = _ball_solution_error(256)
    x0 = u.values[128, 128]  # node at the origin
    assert x0 == pytest.approx(0.25, abs=1e-4)
    assert err <= 1e-3


def test_convergence_order_at_least_one():
    e1, _ = _ball_solution_error(64)
    e2, _ = _ball_solution_error(128)
    assert np.log2(e1 / e2) >= 1.0


def test_unit_square_max_value():
    grid = GridSpec(256, 256, BOX)
    pts = grid.nodes()
    ls = np.maximum(np.abs(pts[..., 0]), np.abs(pts[..., 1])) - 0.5
    d = Domain(grid, ls)
    u = solve_torsion(d)
    assert float(np.max(u.values)) == pytest.approx(_square_torsion_max(), abs=1e-3)


def test_ball_radius_two_center_value():
    grid = GridSpec(192, 192, (-3.0, -3.0, 3.0, 3.0))
    u = solve_torsion(build_domain(grid, Ball(radius=2.0)))
    assert u.values[96, 96] == pytest.approx(1.0, abs=1e-3)


def test_maximum_principle():
    grid = GridSpec(128, 128, BOX)
    u = solve_torsion(build_domain(grid, Ellipse(1.3, 0.7)))
    assert float(np.min(u.values)) >= -1e-12


def test_solve_rejects_empty_domain(grid128):
    with pytest.raises(EmptyDomain):
        solve_torsion(Domain(grid128, np.ones(grid128.shape)))


def test_solver_diverged_names_its_context():
    d = build_domain(GridSpec(32, 32, BOX), Ball(radius=1.0))
    with pytest.raises(SolverDiverged) as exc:
        solve_torsion(d, rtol=0.0)
    msg = str(exc.value)
    n = int(np.count_nonzero(d.ls < 0.0))
    m = re.search(r"true residual (\S+) > rtol 0 after (\d+) iterations "
                  r"on (\d+) unknowns, grid 32x32", msg)
    assert m is not None, msg
    assert float(m.group(1)) > 0.0
    assert 0 < int(m.group(2)) <= 20 * 32
    assert int(m.group(3)) == n


def test_interior_operator_matches_stencil():
    grid = GridSpec(64, 64, BOX)
    d = build_domain(grid, Ellipse(1.3, 0.7))
    inside, diag, cw, ce, cs, cn, b = _build_system(d)
    # the domain is cut: some interior nodes carry a ghost-fluid diagonal
    assert np.any(diag[inside] > 4.0 / grid.h ** 2 * (1 + 1e-12))
    A = _interior_operator(inside, diag, cw, ce, cs, cn)
    n = int(np.count_nonzero(inside))
    assert A.shape == (n, n)
    assert abs(A - A.T).max() == 0.0
    v = np.zeros(grid.shape)
    v[inside] = np.random.default_rng(0).standard_normal(n)
    out = kernels.poisson_matvec(diag, cw, ce, cs, cn, v)
    expect = out[inside]
    got = A @ v[inside]
    assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))

    u = solve_torsion(d)
    out = kernels.poisson_matvec(diag, cw, ce, cs, cn, u.values)
    res = np.linalg.norm((b - out)[inside]) / np.linalg.norm(b[inside])
    assert u.residual == pytest.approx(res, rel=1e-9)
    assert u.residual <= CG_RTOL


def test_solve_restarts_from_true_residual(monkeypatch):
    # a first CG pass that stops early stands in for a recursive residual
    # that rounding let drift below the tolerance
    real = torsion._pcg
    tols = []

    def stops_early(A, x, r, inv_d, tol, maxiter):
        tols.append(tol)
        return real(A, x, r, inv_d, tol * (1e4 if len(tols) == 1 else 1.0),
                    maxiter)

    monkeypatch.setattr(torsion, "_pcg", stops_early)
    u = solve_torsion(build_domain(GridSpec(64, 64, BOX), Ellipse(1.3, 0.7)))
    assert len(tols) == 2
    assert u.residual <= CG_RTOL


def test_energy_unit_ball(grid256):
    u = solve_torsion(build_domain(grid256, Ball(radius=1.0)))
    assert energy_J(u) == pytest.approx(-np.pi / 16.0, rel=1e-3)


def test_energy_ball_radius_15(grid256):
    u = solve_torsion(build_domain(grid256, Ball(radius=1.5)))
    assert energy_J(u) == pytest.approx(-np.pi * 1.5 ** 4 / 16.0, rel=1e-3)
    assert energy_J(u) == pytest.approx(-0.99402, rel=1e-3)


def test_energy_scaling_law(grid256):
    d = build_domain(grid256, Ball(radius=1.0))
    t = 1.37
    J1 = energy_J(solve_torsion(d))
    J2 = energy_J(solve_torsion(scale_domain(d, t)))
    assert J2 == pytest.approx(t ** 4 * J1, rel=1e-2)


def test_energy_monotone_under_inclusion(grid256):
    J_small = energy_J(solve_torsion(build_domain(grid256, Ball(radius=0.8))))
    J_big = energy_J(solve_torsion(build_domain(grid256, Ball(radius=1.2))))
    assert J_small >= J_big


def test_phi_unit_ball(grid256):
    w = radial_weight(1.0, 2.0)
    d = build_domain(grid256, Ball(radius=1.0))
    assert phi_constraint(w, d) == pytest.approx(np.pi / 3.0, rel=1e-3)


def test_phi_closed_form_general(grid256):
    w = radial_weight(0.7, 3.0)
    R = 1.2
    d = build_domain(grid256, Ball(radius=R))
    expected = 0.7 ** 2 * 2 * np.pi * R ** (2 * 3.0 + 2) / (2 * 3.0 + 2)
    assert phi_constraint(w, d) == pytest.approx(expected, rel=1e-3)


def test_phi_scaling_law(grid256):
    w = radial_weight(0.5, 2.0)
    d = build_domain(grid256, Ball(radius=1.0))
    t = 1.37
    assert phi_constraint(w, scale_domain(d, t)) == pytest.approx(
        t ** (2 * w.alpha + 2) * phi_constraint(w, d), rel=1e-2)


def test_weighted_perimeter_ball(grid256):
    w = radial_weight(0.5, 2.0)
    R = 1.2
    d = build_domain(grid256, Ball(radius=R))
    assert weighted_perimeter(w, d) == pytest.approx(
        0.5 * R ** 2 * 2 * np.pi * R, rel=1e-2)


def test_boundary_gradient_unit_ball(grid256):
    u = solve_torsion(build_domain(grid256, Ball(radius=1.0)))
    grad, valid = boundary_gradient(u)
    assert np.all(valid[np.abs(grad) > 0])
    assert np.max(np.abs(grad[valid] - 0.5)) < 2e-2


def test_boundary_gradient_ball_radius_two():
    grid = GridSpec(192, 192, (-3.0, -3.0, 3.0, 3.0))
    u = solve_torsion(build_domain(grid, Ball(radius=2.0)))
    grad, valid = boundary_gradient(u)
    assert np.max(np.abs(grad[valid] - 1.0)) < 2e-2


def test_boundary_gradient_scaling_relation(grid256):
    d = build_domain(grid256, Ellipse(1.2, 0.7))
    t = 1.3
    u1 = solve_torsion(d)
    u2 = solve_torsion(scale_domain(d, t))
    s1 = boundary_samples(d)
    g1, v1 = boundary_gradient(u1)
    s2 = boundary_samples(u2.domain)
    g2, v2 = boundary_gradient(u2)
    tree = cKDTree(s1.points[v1])
    dist, idx = tree.query(s2.points[v2] / t)
    close = dist < 2 * grid256.h
    assert np.median(np.abs(g2[v2][close] - t * g1[v1][idx[close]])) < 2e-2
    assert np.max(np.abs(g2[v2][close] - t * g1[v1][idx[close]])) < 5e-2


def test_residual_radial_solution(grid256):
    w = radial_weight(0.5, 2.0)
    u = solve_torsion(build_domain(grid256, Ball(radius=1.0)))
    sup, l2 = residual_fbp(u, w, 1.0)
    assert sup <= 5e-2
    assert l2 <= 5e-2


def test_residual_zero_scale_degenerates_to_gradient_norm(grid128):
    w = radial_weight(0.5, 2.0)
    u = solve_torsion(build_domain(grid128, Ball(radius=1.0)))
    sup, l2 = residual_fbp(u, w, 0.0)
    assert sup == pytest.approx(0.5, abs=2e-2)
    assert l2 > 0.0


def test_objective_value_and_exponent(grid256):
    w = radial_weight(1.0, 2.0)
    d = build_domain(grid256, Ball(radius=1.0))
    u = solve_torsion(d)
    obj = objective_scale_invariant(w, u)
    assert obj == pytest.approx(-(np.pi / 16) * (np.pi / 3) ** (-2.0 / 3.0),
                                rel=1e-2)
    assert obj == pytest.approx(
        phi_constraint(w, d) ** (-2.0 / 3.0) * energy_J(u), rel=1e-12)


def test_objective_scale_invariance(grid256):
    w = radial_weight(0.5, 2.0)
    d = build_domain(grid256, Ball(radius=1.0))
    base = objective_scale_invariant(w, solve_torsion(d))
    for t in (0.8, 1.37):
        dt = scale_domain(d, t)
        val = objective_scale_invariant(w, solve_torsion(dt))
        assert val == pytest.approx(base, rel=1e-2)


def test_cached_geometry_equals_fresh_computation(grid64):
    d = build_domain(grid64, Ellipse(1.3, 0.7))
    u = solve_torsion(d)
    areas, cxs, cys = cell_quadrature(d)
    mask = areas > 0.0
    weights, pts = d.quadrature
    assert np.array_equal(weights, areas[mask])
    assert np.array_equal(pts, np.stack([cxs[mask], cys[mask]], axis=-1))
    s = boundary_samples(d)
    for name in ("points", "normals", "ds"):
        assert np.array_equal(getattr(d.samples, name), getattr(s, name))
    grad, valid = boundary_gradient(u)
    assert np.array_equal(u.gradient[0], grad)
    assert np.array_equal(u.gradient[1], valid)
    assert d.quadrature is d.quadrature and d.samples is d.samples
    assert u.gradient is u.gradient


def test_cached_inputs_and_results_are_read_only(grid64):
    d = build_domain(grid64, Ellipse(1.3, 0.7))
    u = solve_torsion(d)
    for arr in (d.ls, u.values, d.quadrature[0], d.quadrature[1],
                d.samples.points, u.gradient[0], u.gradient[1]):
        with pytest.raises(ValueError):
            arr[0] = 0.0
