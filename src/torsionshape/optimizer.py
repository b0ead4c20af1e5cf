"""Level-set gradient flow minimizing the torsional energy under phi = 1."""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import kernels
from .domain import Domain, reinitialize, scale_domain
from .errors import AlphaOne, BadMultiplier, DegenerateWeight
from .oracle import multiplier_rescale, phi_degree
from .torsion import (energy_J, objective_scale_invariant, phi_constraint,
                      residual_fbp, solve_torsion)
from .weight import eval_weight

MAX_ITERS = 200
CFL = 0.45
TOL_RESIDUAL = 5e-2
TOL_OBJECTIVE = 1e-6
REINIT_EVERY = 10


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


def _extend_velocity(grid, samples, vn_samples):
    """Constant extension of the sample speeds by closest boundary point."""
    tree = cKDTree(samples.points)
    nodes = grid.nodes().reshape(-1, 2)
    _, idx = tree.query(nodes)
    return vn_samples[idx].reshape(grid.shape)


def optimize(w, init, tol_residual=TOL_RESIDUAL):
    """Gradient flow with normal speed (1/2)|grad u|^2 + mu g^2.

    Projects the input onto phi = 1 once; each accepted step then advects
    the level set (first-order upwind, CFL limited) and reinitializes every
    REINIT_EVERY iterations, with no projection: the objective
    phi^(-4/(2 alpha + 2)) J is homothety invariant, the fitted multiplier
    holds phi to first order (the records' phi shows the drift), and the
    final homothety needs only mu.  Terminates when the residual of
    |grad u| = sqrt(-2 mu) g drops below tol_residual (by homogeneity, the
    free-boundary residual after that homothety), when the objective
    stalls, or at MAX_ITERS.
    """
    if not tol_residual > 0:
        raise ValueError("tol_residual must be positive")
    if w.alpha <= 1:
        raise AlphaOne("optimization restricted to alpha > 1")
    grid = init.grid
    h = grid.h
    d, _ = rescale_to_constraint(init, w)
    if not d.is_signed_distance:
        d = reinitialize(d)
    records = []
    obj_prev = None
    step_scale = 1.0
    stall_count = 0
    reason = "max_iters"
    u = solve_torsion(d)
    mu = estimate_multiplier(u, w)
    obj = objective_scale_invariant(w, u)

    for it in range(MAX_ITERS):
        J = energy_J(u)
        phi = phi_constraint(w, d)
        res_sup, res_l2 = residual_fbp(u, w, np.sqrt(-2.0 * mu))
        s = d.samples
        grad, valid = u.gradient
        g2 = eval_weight(w, s.points) ** 2
        vn = 0.5 * grad ** 2 + mu * g2
        vn[~valid] = 0.0
        vmax = float(np.max(np.abs(vn)))
        dt = CFL * h / max(vmax, 1e-12) * step_scale
        records.append(dict(iter=it, J=J, phi=phi, objective=obj, mu=mu,
                            residual_sup=res_sup, residual_l2=res_l2, dt=dt))
        if res_sup <= tol_residual:
            reason = "converged"
            break
        if obj_prev is not None and abs(obj_prev - obj) < TOL_OBJECTIVE * abs(obj):
            stall_count += 1
            if stall_count >= 3:
                reason = "stalled"
                break
        else:
            stall_count = 0
        if vmax < 1e-12:
            reason = "stationary"
            break
        obj_prev = obj

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
            obj_new = objective_scale_invariant(w, u_new)
            if obj_new <= obj + 1e-6 * abs(obj):
                break
            dt *= 0.5
            step_scale = max(step_scale * 0.5, 1.0 / 32.0)
        else:
            reason = "stalled"
            break
        step_scale = min(1.0, step_scale * 1.5)
        d, u, obj = d_new, u_new, obj_new
        mu = estimate_multiplier(u, w)

    final_d, t = fbp_rescale(d, mu, w.alpha)
    if not final_d.is_signed_distance:
        final_d = reinitialize(final_d)
    return OptimizationTrace(records=records, final_domain=final_d,
                             final_field=solve_torsion(final_d),
                             final_rescale=t, reason=reason)
