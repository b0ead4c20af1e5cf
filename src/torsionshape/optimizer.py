"""Level-set gradient flow minimizing the torsional energy under phi = 1."""

from dataclasses import dataclass

import numpy as np
from scipy.fft import dctn, idctn

from . import kernels
from .domain import (Domain, Field, GridSpec, build_domain, interp_bilinear,
                     reinitialize, scale_domain)
from .errors import (AlphaOne, BadMultiplier, DegenerateWeight, EmptyDomain,
                     OutOfBox)
from .oracle import multiplier_rescale, phi_degree, scale_invariant_objective
from .torsion import energy_J, phi_constraint, residual_fbp, solve_torsion
from .weight import eval_weight

MAX_ITERS = 200
CFL = 0.45
# the H^1 extension's length ell, in cells: at 2 cells the sample noise of
# the one-sided |grad u| still reaches the advection (the Ellipse(1.3, 0.7)
# flow at 256² ends stalled), while 4 and 8 cells behave alike; counted in
# cells, ell shrinks with h, so each level smooths the same number of nodes
ELL_CELLS = 4
# a level stops once residual_l2 <= C_L2 * h: twice the L2 floor, about
# 0.12 h, of the boundary gradient on the exact unit ball
C_L2 = 0.25
TOL_OBJECTIVE = 1e-6
REINIT_EVERY = 10
MIN_LEVEL_CELLS = 64  # the coarsest level keeps at least this many cells


@dataclass(eq=False)
class OptimizationTrace:
    records: list
    final_domain: Domain
    final_field: object
    final_rescale: float
    reason: str


def rescale_to_constraint(d, w):
    """Project onto phi = 1 by the exact homothety t = phi^(-1/(2 alpha + N))."""
    phi = phi_constraint(w, d)
    if phi <= 0:
        raise DegenerateWeight("phi must be positive")
    t = phi ** (-1.0 / phi_degree(w.alpha))
    return scale_domain(d, t), t


def shape_derivative(u, w, vn):
    """(dJ, dphi) for a per-sample normal speed vn on u's domain.

    dJ = -(1/2) sum |grad u|^2 vn ds; dphi = sum g^2 vn ds.
    """
    s = u.domain.samples
    vn = np.asarray(vn, dtype=float)
    if vn.ndim == 0:
        vn = np.full(len(s), float(vn))
    grad, valid = u.gradient
    dJ = -0.5 * float(np.sum(grad[valid] ** 2 * vn[valid] * s.ds[valid]))
    g2 = eval_weight(w, s.points) ** 2
    dphi = float(np.sum(g2 * vn * s.ds))
    return dJ, dphi


def estimate_multiplier(u, w):
    """Multiplier of |grad u|^2 = -2 mu g^2, fitted over the boundary.

    The fit minimizes the weighted L2 misfit.
    """
    s = u.domain.samples
    grad, valid = u.gradient
    g = eval_weight(w, s.points)
    ds = s.ds
    g4 = np.sum(g[valid] ** 4 * ds[valid])
    if g4 < 1e-14:
        raise DegenerateWeight("boundary weight too small for a multiplier fit")
    num = np.sum(grad[valid] ** 2 * g[valid] ** 2 * ds[valid])
    return -0.5 * float(num / g4)


def fbp_rescale(d, mu, alpha):
    """Homothety t Omega with t = oracle.multiplier_rescale(mu, alpha)."""
    if mu >= 0:
        raise BadMultiplier(f"need mu < 0, got {mu}")
    t = multiplier_rescale(mu, alpha)
    return scale_domain(d, t), t


def _h1_solve(f, h):
    """V with (1 - ell^2 Lap_h) V = f on the box, ell = ELL_CELLS h.

    Lap_h is the 5-point Laplacian with reflected (Neumann) boundary rows,
    which the type-I DCT diagonalises: mode (p, q) has the eigenvalue
    -(lam_p + lam_q), lam_p = (2 - 2 cos(pi p / n)) / h^2 on n cells.
    """
    ell2 = (ELL_CELLS * h) ** 2
    lam = [(2.0 - 2.0 * np.cos(np.pi * np.arange(n) / (n - 1))) / h ** 2
           for n in f.shape]
    return idctn(dctn(f, type=1) / (1.0 + ell2 * (lam[0][:, None] + lam[1])),
                 type=1)


def _extend_velocity(grid, samples, vn_samples):
    """H^1 (Sobolev-gradient) extension of the sample speeds to the grid.

    The speeds, as the boundary measure vn ds, are spread to the four nodes
    of each sample's cell with bilinear weights (the adjoint of
    ``interp_bilinear``) and smoothed by ``_h1_solve``, as in Burger
    (Interfaces Free Bound. 5, 2003) and Allaire, Jouve and Toader
    (J. Comput. Phys. 194, 2004).  The result is scaled by its L2(ds)
    projection onto vn at the samples and clipped to +-max|vn|, so that
    dt = CFL h / max|vn| still moves the front at most CFL h.
    """
    h = grid.h
    i, j, tx, ty = grid.cell(samples.points)
    m = vn_samples * samples.ds / h ** 2
    ny1 = grid.shape[1]
    nodes = np.concatenate([i * ny1 + j, (i + 1) * ny1 + j,
                            i * ny1 + j + 1, (i + 1) * ny1 + j + 1])
    weights = np.concatenate([(1 - tx) * (1 - ty) * m, tx * (1 - ty) * m,
                              (1 - tx) * ty * m, tx * ty * m])
    f = np.bincount(nodes, weights, minlength=grid.shape[0] * ny1)
    V = _h1_solve(f.reshape(grid.shape), h)
    Vs = interp_bilinear(V, grid, samples.points)
    V *= np.sum(Vs * vn_samples * samples.ds) / np.sum(Vs * Vs * samples.ds)
    vmax = np.max(np.abs(vn_samples))
    return np.clip(V, -vmax, vmax)


def _ladder(init):
    """The level grids, coarsest first, and the seed on the coarsest.

    Halves the grid while both cell counts stay even and at least
    MIN_LEVEL_CELLS, and while the injected level set ``ls[::2, ::2]`` is a
    valid Domain.  The finest level is ``init`` itself.
    """
    grids, d = [init.grid], init
    while True:
        g = grids[-1]
        if g.nx % 2 or g.ny % 2 or min(g.nx, g.ny) < 2 * MIN_LEVEL_CELLS:
            break
        half = GridSpec(g.nx // 2, g.ny // 2, g.box)
        try:
            d = Domain(half, d.ls[::2, ::2])
        except (OutOfBox, EmptyDomain):
            break
        grids.append(half)
    if d is not init:
        d = build_domain(d.grid, Field(d.ls))
    return grids[::-1], d


def optimize(w, init):
    """Gradient flow with normal speed (1/2)|grad u|^2 + mu g^2, coarse to fine.

    Runs the single-level flow on each grid of ``_ladder(init)`` in turn;
    each finer level starts from the previous level's last iterate,
    interpolated bilinearly and redistanced (nested iteration).  The final
    homothety by the finest level's multiplier solves the free-boundary
    problem.  The records of all levels are concatenated, coarse to fine,
    and each names its grid's ``nx`` as ``level``; the termination reason
    is the finest level's.
    """
    if w.alpha <= 1:
        raise AlphaOne("optimization restricted to alpha > 1")
    grids, d = _ladder(init)
    records = []
    for k, grid in enumerate(grids):
        if k:
            ls = interp_bilinear(d.ls, d.grid, grid.nodes())
            d = build_domain(grid, Field(ls))
        d, mu, reason = _flow(w, d, records)
    final_d, t = fbp_rescale(d, mu, w.alpha)
    if not final_d.is_signed_distance:
        final_d = reinitialize(final_d)
    return OptimizationTrace(records=records, final_domain=final_d,
                             final_field=solve_torsion(final_d),
                             final_rescale=t, reason=reason)


def _flow(w, init, records):
    """The flow on ``init``'s grid; appends its records to ``records``.

    Projects the input onto phi = 1 once; each accepted step then advects
    the level set (first-order upwind, CFL limited) and reinitializes every
    REINIT_EVERY iterations, with no projection: the objective
    phi^(-4/(2 alpha + 2)) J is homothety invariant, the fitted multiplier
    holds phi to first order (the records' phi shows the drift), and the
    final homothety needs only mu.  Terminates when the L2 residual of
    |grad u| = sqrt(-2 mu) g drops to C_L2 * h (by homogeneity, the
    free-boundary residual after that homothety), when the objective
    stalls, or at MAX_ITERS.  Returns the last iterate, its multiplier and
    the termination reason.
    """
    grid = init.grid
    h = grid.h
    d, _ = rescale_to_constraint(init, w)
    if not d.is_signed_distance:
        d = reinitialize(d)
    step_scale = 1.0
    stall_count = 0
    reason = "max_iters"
    u = solve_torsion(d)
    mu = estimate_multiplier(u, w)
    J, phi = energy_J(u), phi_constraint(w, d)
    obj = scale_invariant_objective(J, phi, w.alpha)

    for it in range(MAX_ITERS):
        res_sup, res_l2 = residual_fbp(u, w, np.sqrt(-2.0 * mu))
        s = d.samples
        grad, valid = u.gradient
        g2 = eval_weight(w, s.points) ** 2
        vn = 0.5 * grad ** 2 + mu * g2
        vn[~valid] = 0.0
        vmax = float(np.max(np.abs(vn)))
        dt = CFL * h / max(vmax, 1e-12) * step_scale
        records.append(dict(level=grid.nx, iter=it, J=J, phi=phi,
                            objective=obj, mu=mu, residual_sup=res_sup,
                            residual_l2=res_l2, dt=dt))
        if res_l2 <= C_L2 * h:
            reason = "converged"
            break
        if stall_count >= 3:
            reason = "stalled"
            break

        vn_ext = _extend_velocity(grid, s, vn)
        # every iteration that gets here accepts a step or ends the flow, so
        # iteration it tries the (it + 1)-th step: redistance every
        # REINIT_EVERY accepted steps
        for _ in range(5):
            ls_new = kernels.advect_step(d.ls, vn_ext, h, dt)
            d_new = Domain(grid, ls_new, is_signed_distance=False)
            if (it + 1) % REINIT_EVERY == 0:
                d_new = reinitialize(d_new)
            u_new = solve_torsion(d_new)
            J_new, phi_new = energy_J(u_new), phi_constraint(w, d_new)
            obj_new = scale_invariant_objective(J_new, phi_new, w.alpha)
            if obj_new <= obj + 1e-6 * abs(obj):
                break
            dt *= 0.5
            step_scale = max(step_scale * 0.5, 1.0 / 32.0)
        else:
            reason = "stalled"
            break
        step_scale = min(1.0, step_scale * 1.5)
        stalled = abs(obj - obj_new) < TOL_OBJECTIVE * abs(obj_new)
        stall_count = stall_count + 1 if stalled else 0
        d, u, J, phi, obj = d_new, u_new, J_new, phi_new, obj_new
        mu = estimate_multiplier(u, w)
    return d, mu, reason
