"""Torsion PDE solve and the functionals J, phi, boundary gradient, residuals."""

import re

import numpy as np
import pytest

import wholebox
from shapes import random_starshaped_blob, steiner_symmetrize
from torsionshape import (Ball, Domain, Ellipse, GridSpec, boundary_samples,
                          build_domain, energy_J, objective_scale_invariant,
                          phi_constraint, residual_fbp, scale_domain,
                          solve_torsion, weighted_perimeter)
from torsionshape import kernels, torsion
from torsionshape.domain import cell_quadrature, interp_bilinear, volume
from torsionshape.errors import EmptyDomain, SolverDiverged, StarvedBoundary
from torsionshape.torsion import (CG_RTOL, MG_COARSE, THETA_MIN,
                                  _interior_operator, _multigrid,
                                  _restriction, _vcycle, boundary_gradient)
from torsionshape.weight import radial_weight
from scipy.sparse.linalg import spsolve
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


def test_solver_diverged_names_its_context(monkeypatch):
    d = build_domain(GridSpec(32, 32, BOX), Ball(radius=1.0))
    monkeypatch.setattr(torsion, "CG_RTOL", 0.0)
    with pytest.raises(SolverDiverged) as exc:
        solve_torsion(d)
    msg = str(exc.value)
    n = int(np.count_nonzero(d.ls < 0.0))
    m = re.search(r"true residual (\S+) > rtol 0 after (\d+) iterations "
                  r"on (\d+) unknowns, grid 32x32", msg)
    assert m is not None, msg
    assert float(m.group(1)) > 0.0
    assert 0 < int(m.group(2)) <= 20 * 32
    assert int(m.group(3)) == n


def _grid_stencil(d):
    """The ghost-fluid stencil as five full-grid arrays, from a padded ls.

    Built apart from the CSR operator, as the reference it is checked
    against: (inside, diag, cw, ce, cs, cn) for ``kernels.poisson_matvec``.
    """
    ls = d.ls
    inv_h2 = 1.0 / d.grid.h ** 2
    inside = ls < 0.0
    pad = np.pad(ls, 1, constant_values=np.inf)
    diag = np.zeros(ls.shape)
    coup = []
    for nb in (pad[:-2, 1:-1], pad[2:, 1:-1], pad[1:-1, :-2], pad[1:-1, 2:]):
        nb_in = inside & (nb < 0.0)
        coup.append(np.where(nb_in, inv_h2, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            theta = np.clip(ls / (ls - nb), THETA_MIN, 1.0)
        diag += np.where(nb_in, inv_h2, np.where(inside, inv_h2 / theta, 0.0))
    return (inside, diag, *coup)


def test_interior_operator_matches_stencil():
    grid = GridSpec(64, 64, BOX)
    d = build_domain(grid, Ellipse(1.3, 0.7))
    A, inside = _interior_operator(d)
    ref_inside, diag, cw, ce, cs, cn = _grid_stencil(d)
    assert np.array_equal(inside, ref_inside)
    # the domain is cut: some interior nodes carry a ghost-fluid diagonal
    assert np.any(diag[inside] > 4.0 / grid.h ** 2 * (1 + 1e-12))
    n = int(np.count_nonzero(inside))
    assert A.shape == (n, n)
    assert abs(A - A.T).max() == 0.0
    # one entry per unknown and two per interior-interior edge, and every
    # off-diagonal couples two 4-neighbours: no column names an outside node
    edges = (np.count_nonzero(inside[1:, :] & inside[:-1, :])
             + np.count_nonzero(inside[:, 1:] & inside[:, :-1]))
    assert A.nnz == n + 2 * edges
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    off = rows != A.indices
    pos = np.argwhere(inside)
    assert np.all(A.indices >= 0)
    assert np.all(np.abs(pos[rows[off]] - pos[A.indices[off]]).sum(axis=1) == 1)
    v = np.zeros(grid.shape)
    v[inside] = np.random.default_rng(0).standard_normal(n)
    expect = kernels.poisson_matvec(diag, cw, ce, cs, cn, v)[inside]
    got = A @ v[inside]
    assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))

    # the stored residual is the gate's b - A x on the CSR; the grid
    # stencil sums in another order, so it is only held to the tolerance
    u = solve_torsion(d)
    r = 1.0 - A @ u.values[inside]
    assert u.residual == np.sqrt(np.dot(r, r)) / np.sqrt(n)
    out = kernels.poisson_matvec(diag, cw, ce, cs, cn, u.values)
    assert np.linalg.norm((1.0 - out)[inside]) / np.sqrt(n) <= CG_RTOL


def test_solve_restarts_from_true_residual(monkeypatch):
    # a first CG pass that stops early stands in for a recursive residual
    # that rounding let drift below the tolerance
    real = torsion._pcg
    tols = []

    def stops_early(A, x, r, mg, tol, maxiter):
        tols.append(tol)
        return real(A, x, r, mg, tol * (1e4 if len(tols) == 1 else 1.0),
                    maxiter)

    monkeypatch.setattr(torsion, "_pcg", stops_early)
    # at 128² the first pass takes several steps; a 64² system is solved
    # exactly in one, so it would never stop early
    u = solve_torsion(build_domain(GridSpec(128, 128, BOX), Ellipse(1.3, 0.7)))
    assert len(tols) == 2
    assert u.residual <= CG_RTOL


def _square_to_the_margin(grid):
    """A square whose sides lie half a cell inside the box's 4-cell margin."""
    pts = grid.nodes()
    half = 2.0 - 4.5 * grid.h
    return Domain(grid, np.maximum(np.abs(pts[..., 0]), np.abs(pts[..., 1]))
                  - half)


def _coarse_masks(inside, levels):
    """The coarse interior mask of each level that ``_multigrid`` built."""
    masks = []
    for _ in levels:
        inside = _restriction(inside)[1]
        masks.append(inside)
    return masks


@pytest.mark.parametrize("n, make, reaches_edge", [
    (45, lambda g: build_domain(g, Ellipse(1.3, 0.7)), False),
    (64, lambda g: build_domain(g, Ellipse(1.3, 0.7)), False),
    (95, lambda g: build_domain(g, Ellipse(1.3, 0.7)), False),
    (119, _square_to_the_margin, False),
    (239, _square_to_the_margin, True),
], ids=["ellipse-45", "ellipse-64", "ellipse-95", "square-119",
        "square-239"])
def test_solve_matches_direct_solve(n, make, reaches_edge):
    # 45 and 95 cells give an even node count, and 95 builds a level (1,616
    # unknowns); at 239 the margin has shrunk away on the coarsest level (841
    # unknowns), whose restriction stencils then reach past the last row of
    # the level above; at 119 the levels stop at 729 unknowns, before that
    d = make(GridSpec(n, n, BOX))
    A, inside = _interior_operator(d)
    x = spsolve(A.tocsc(), np.ones(A.shape[0]))
    u = solve_torsion(d)
    assert np.linalg.norm(u.values[inside] - x) <= 1e-9 * np.linalg.norm(x)
    masks = _coarse_masks(inside, _multigrid(A, inside)[0])
    assert any(m[-1].any() or m[:, -1].any() for m in masks) == reaches_edge


@pytest.mark.parametrize("n", [128, 256, 512])
def test_iterations_do_not_grow_with_the_grid(n):
    u = solve_torsion(build_domain(GridSpec(n, n, BOX), Ellipse(1.3, 0.7)))
    assert u.iterations <= 16
    assert u.residual <= CG_RTOL


def _coarse_operators(d):
    """The Galerkin chain R A R^T of d's operator, level by level, until the
    coarse set is empty: every level ``_multigrid`` builds, and deeper."""
    A, inside = _interior_operator(d)
    ops = []
    while True:
        R, inside = _restriction(inside)
        if not inside.any():
            return ops
        A = R @ (A @ R.T)
        ops.append(A)


def test_coarse_operators_are_positive_definite():
    # the draws of the property suite's symmetrization trials, through its
    # 17th blob, whose coarse operator is singular when the coarse set is
    # every node that interpolation touches rather than the injected ones
    rng = np.random.default_rng(102)
    grid = GridSpec(64, 64, BOX)
    for _ in range(17):
        d = random_starshaped_blob(grid, rng, r0=1.0, amp=0.25)
        schwarz = build_domain(grid, Ball(radius=np.sqrt(volume(d) / np.pi)))
        for dom in (d, schwarz, steiner_symmetrize(d, int(rng.integers(2)))):
            ops = _coarse_operators(dom)
            assert ops
            for Ac in ops:
                assert abs(Ac - Ac.T).max() <= 1e-12 * abs(Ac).max()
                assert np.linalg.eigvalsh(Ac.toarray())[0] > 0.0


def test_small_domain_is_solved_directly():
    d = build_domain(GridSpec(64, 64, BOX), Ball(radius=0.3))
    assert np.count_nonzero(d.ls < 0.0) <= MG_COARSE
    u = solve_torsion(d)
    assert u.iterations == 1
    assert u.residual <= CG_RTOL


def test_small_system_is_one_exact_step():
    # every 64² system of the flow is at most MG_COARSE unknowns: no level,
    # so the V-cycle is the banded solve and CG stops after one step
    d = build_domain(GridSpec(64, 64, BOX), Ellipse(1.3, 0.7))
    A, inside = _interior_operator(d)
    assert A.shape[0] == 735
    assert _multigrid(A, inside)[0] == []
    u = solve_torsion(d)
    assert u.iterations == 1
    assert u.residual <= CG_RTOL


def _coarsest(d):
    """(the coarsest operator, the hierarchy) of d's ``_multigrid``."""
    A, inside = _interior_operator(d)
    mg = _multigrid(A, inside)
    for Al, _, R, P in mg[0]:
        A = R @ (Al @ P)
    return A, mg


@pytest.mark.parametrize("n", [128, 256, 512])
def test_coarsest_level_fits_the_banded_solve(n):
    d = build_domain(GridSpec(n, n, BOX), Ellipse(1.3, 0.7))
    Ac, (levels, _) = _coarsest(d)
    assert levels
    assert levels[-1][0].shape[0] > MG_COARSE
    assert Ac.shape[0] <= MG_COARSE


def _strip(grid):
    """A vertical strip 10 nodes wide, to the box's margin in y."""
    pts = grid.nodes()
    return Domain(grid, np.maximum(np.abs(pts[..., 0] - 0.5 * grid.h)
                                   - 5.0 * grid.h,
                                   np.abs(pts[..., 1]) - (2.0 - 4.5 * grid.h)))


@pytest.mark.parametrize("n, make, min_kd", [
    (239, _square_to_the_margin, 25),
    (128, _strip, 119),
], ids=["square-239", "strip-128"])
def test_banded_solve_matches_dense_solve(n, make, min_kd):
    # the strip's unknowns run up each column in C order, so its half-band
    # is a column's 119 nodes: the widest band a system this size has
    Ac, mg = _coarsest(make(GridSpec(n, n, BOX)))
    kd, n = mg[1].shape[0] - 1, mg[1].shape[1]
    assert n == Ac.shape[0]
    assert kd >= min_kd
    r = np.random.default_rng(0).standard_normal(Ac.shape[0])
    z = _vcycle(mg, r, lev=len(mg[0]))
    ref = np.linalg.solve(Ac.toarray(), r)
    assert np.linalg.norm(z - ref) <= 1e-12 * np.linalg.norm(ref)


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


def _two_point_reference(u):
    """Sample by sample: the shallowest depths m*h, (m+1)*h, m = 1..4, whose
    bilinear stencils are all interior, and the two-point |grad u| there."""
    d = u.domain
    grid = d.grid
    h = grid.h
    x0, y0, _, _ = grid.box
    s = d.samples
    ref = np.zeros(len(s))
    ref_valid = np.zeros(len(s), dtype=bool)

    def stencil_inside(q):
        i = min(max(int((q[0] - x0) / h), 0), grid.nx - 1)
        j = min(max(int((q[1] - y0) / h), 0), grid.ny - 1)
        return bool(np.all(d.ls[i:i + 2, j:j + 2] < 0))

    for k, (p, nrm) in enumerate(zip(s.points, s.normals)):
        for m in range(1, 5):
            s1, s2 = m * h, (m + 1) * h
            q1, q2 = p - s1 * nrm, p - s2 * nrm
            if stencil_inside(q1) and stencil_inside(q2):
                u1, u2 = interp_bilinear(u.values, grid, np.array([q1, q2]))
                ref[k] = abs((u1 * s2 ** 2 - u2 * s1 ** 2)
                             / (s1 * s2 * (s2 - s1)))
                ref_valid[k] = True
                break
    return ref, ref_valid


@pytest.mark.parametrize("b", [0.12, 0.15])
def test_boundary_gradient_starved_samples(grid64, b):
    # a thin ellipse: near its tips no depth pair has an interior stencil
    u = solve_torsion(build_domain(grid64, Ellipse(1.2, b)))
    grad, valid = boundary_gradient(u)
    assert not np.all(valid)
    assert np.all(grad[~valid] == 0.0)
    ref, ref_valid = _two_point_reference(u)
    assert np.array_equal(valid, ref_valid)
    assert np.array_equal(grad, ref)


def test_boundary_gradient_all_starved_raises(grid64):
    # a ball of radius under one cell: every sample is starved, so no gradient,
    # multiplier or residual can be read from it
    u = solve_torsion(build_domain(grid64, Ball(radius=0.05)))
    n = len(u.domain.samples)
    with pytest.raises(StarvedBoundary, match=rf"none of {n} boundary "
                       r"samples .* grid 64x64"):
        boundary_gradient(u)
    with pytest.raises(StarvedBoundary):
        residual_fbp(u, radial_weight(0.5, 2.0), 1.0)


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
    areas, cxs, cys = wholebox.cell_quadrature(d)
    mask = areas > 0.0
    weights, pts = d.quadrature
    assert np.array_equal(weights, areas[mask])
    assert np.array_equal(pts, np.stack([cxs[mask], cys[mask]], axis=-1))
    fresh = cell_quadrature(d)
    assert np.array_equal(weights, fresh[0]) and np.array_equal(pts, fresh[1])
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
