"""Level-set gradient flow minimizing the torsional energy under phi = 1."""

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from . import kernels
from .domain import Domain, reinitialize, scale_domain
from .errors import AlphaOne, BadMultiplier, DegenerateWeight
from .oracle import multiplier_rescale, phi_degree
from .torsion import (energy_J, objective_scale_invariant, phi_constraint,
                      residual_fbp, solve_torsion)
from .weight import eval_weight


MULTIPLIER_MODES = ("lsq", "ratio")


@dataclass(frozen=True)
class OptimizerParams:
    max_iters: int = 200
    cfl: float = 0.45
    tol_residual: float = 5e-2
    tol_objective: float = 1e-6
    reinit_every: int = 10
    multiplier_mode: str = "lsq"

    def __post_init__(self):
        if not 0.0 < self.cfl < 1.0:
            raise ValueError("cfl must be in (0, 1)")
        if self.tol_residual <= 0 or self.tol_objective <= 0:
            raise ValueError("tolerances must be positive")
        if self.multiplier_mode not in MULTIPLIER_MODES:
            raise ValueError(f"multiplier_mode must be one of {MULTIPLIER_MODES}, "
                             f"got {self.multiplier_mode!r}")


@dataclass(eq=False)
class OptimizationTrace:
    records: list = field(default_factory=list)
    final_domain: Domain = None
    final_field: object = None
    final_rescale: float = 1.0
    reason: str = ""

    def add(self, **kw):
        self.records.append(kw)


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


def estimate_multiplier(u, w, mode="lsq"):
    """Multiplier of |grad u|^2 = -2 mu g^2, fitted over the boundary.

    "lsq" minimizes the weighted L2 misfit; "ratio" averages |grad u|^2/g^2.
    """
    if mode not in MULTIPLIER_MODES:
        raise ValueError(f"unknown multiplier mode {mode!r}")
    s = u.domain.samples
    grad, valid = u.gradient
    g = eval_weight(w, s.points)
    ds = s.ds
    g4 = np.sum(g[valid] ** 4 * ds[valid])
    if g4 < 1e-14:
        raise DegenerateWeight("boundary weight too small for a multiplier fit")
    if mode == "ratio":
        return -0.5 * float(np.mean(grad[valid] ** 2 / g[valid] ** 2))
    num = np.sum(grad[valid] ** 2 * g[valid] ** 2 * ds[valid])
    return -0.5 * float(num / g4)


def fbp_rescale(d, mu, alpha):
    """Homothety t Omega with t = oracle.multiplier_rescale(mu, alpha)."""
    if alpha == 1:
        raise AlphaOne("alpha = 1 admits no rescaling")
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


def optimize(w, init, params=None):
    """Gradient flow with normal speed (1/2)|grad u|^2 + mu g^2.

    Each accepted step advects the level set (first-order upwind, CFL
    limited), reinitializes on schedule and projects back onto phi = 1 by
    the exact homothety.  Terminates when the residual of |grad u| =
    sqrt(-2 mu) g drops below tol (this equals, by homogeneity, the
    free-boundary residual after the final multiplier rescale), when the
    scale-invariant objective stalls, or at the iteration cap.  The final
    domain is the multiplier rescale of the converged iterate.
    """
    params = params or OptimizerParams()
    if w.alpha == 1:
        raise AlphaOne("optimization requires alpha != 1")
    if w.alpha < 1:
        raise AlphaOne("optimization restricted to alpha > 1")
    grid = init.grid
    h = grid.h
    d, _ = rescale_to_constraint(init, w)
    if not d.is_signed_distance:
        d = reinitialize(d)
    trace = OptimizationTrace()
    obj_prev = None
    step_scale = 1.0
    stall_count = 0
    reason = "max_iters"
    u = solve_torsion(d)
    mu = estimate_multiplier(u, w, params.multiplier_mode)
    steps_since_reinit = 0

    for it in range(params.max_iters):
        J = energy_J(u)
        phi = phi_constraint(w, d)
        obj = objective_scale_invariant(w, u)
        c = np.sqrt(-2.0 * mu)
        res_sup, res_l2 = residual_fbp(u, w, c)
        s = d.samples
        grad, valid = u.gradient
        g2 = eval_weight(w, s.points) ** 2
        vn = 0.5 * grad ** 2 + mu * g2
        vn[~valid] = 0.0
        vmax = float(np.max(np.abs(vn)))
        dt = params.cfl * h / max(vmax, 1e-12) * step_scale
        trace.add(iter=it, J=J, phi=phi, objective=obj, mu=mu,
                  residual_sup=res_sup, residual_l2=res_l2, dt=dt)
        if res_sup <= params.tol_residual:
            reason = "converged"
            break
        if obj_prev is not None and abs(obj_prev - obj) < params.tol_objective * abs(obj):
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
        accepted = False
        for _ in range(5):
            ls_new = np.empty(grid.shape)
            kernels.advect_step(np.ascontiguousarray(d.ls), vn_ext, h, dt, ls_new)
            d_new = Domain(grid, ls_new, is_signed_distance=False)
            steps_next = steps_since_reinit + 1
            if steps_next >= params.reinit_every:
                d_new = reinitialize(d_new)
                steps_next = 0
            d_new, _ = rescale_to_constraint(d_new, w)
            u_new = solve_torsion(d_new)
            obj_new = objective_scale_invariant(w, u_new)
            if obj_new <= obj + 1e-6 * abs(obj):
                accepted = True
                break
            dt *= 0.5
            step_scale = max(step_scale * 0.5, 1.0 / 32.0)
        if not accepted:
            reason = "stalled"
            break
        step_scale = min(1.0, step_scale * 1.5)
        d, u = d_new, u_new
        steps_since_reinit = steps_next
        mu = estimate_multiplier(u, w, params.multiplier_mode)

    final_d, t = fbp_rescale(d, mu, w.alpha)
    if not final_d.is_signed_distance:
        final_d = reinitialize(final_d)
    trace.final_domain = final_d
    trace.final_field = solve_torsion(final_d)
    trace.final_rescale = t
    trace.reason = reason
    return trace
