"""Level-set gradient flow minimizing the torsional energy under phi = 1."""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.fft import dctn, idctn

from . import kernels
from .domain import (Domain, Field, GridSpec, build_domain, interp_bilinear,
                     reinitialize, scale_domain)
from .errors import (AlphaOne, BadMultiplier, DegenerateWeight, EmptyDomain,
                     OutOfBox, StarvedBoundary)
from .oracle import (multiplier_rescale, phi_degree, pohozaev_multiplier,
                     scale_invariant_objective)
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
# the Newton-type step fits at least the residual's modes 1..M_MODES; a
# front of mean radius R resolves R / ell modes, about 4 on the 64² level
# of the unit-ball references
M_MODES = 4
# |phi - 1| after the finest level's projection: at most 0.004 on every
# test and benchmark flow and 0.02 on a seed of radius 4h, but 0.05 to 7.5
# on the radial seeds of radius 2.8h down to 0.8h (k = 32 to 400 at 64²),
# which the homothety's bilinear resampling distorts
PHI_TOL = 0.03
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
    projection onto vn at the samples and clipped to +-max|vn|, so no node
    moves farther than the largest sample displacement.
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
    """Newton-type flow, coarse to fine, closed by the Pohozaev homothety.

    Runs the single-level flow ``_flow`` on each grid of ``_ladder(init)``
    in turn; each finer level starts from the previous level's last
    iterate, interpolated by a bicubic spline and redistanced (nested
    iteration).  The homothety by ``oracle.pohozaev_multiplier`` of the
    finest level's last J and phi then solves the free-boundary problem.
    The records of all levels are concatenated, coarse to fine, and each
    names its grid's ``nx`` as ``level``; the termination reason is the
    finest level's.
    """
    if w.alpha <= 1:
        raise AlphaOne("optimization restricted to alpha > 1")
    grids, d = _ladder(init)
    records = []
    for k, grid in enumerate(grids):
        if k:
            # bilinear resampling leaves the coarse cells' kinks in the
            # front: the radial k = 0.6 flow's 256² level starts at an L2
            # residual of 0.43 h after it and 0.15 h after the spline
            at = np.moveaxis(grid.nodes(), -1, 0) - np.reshape(
                d.grid.box[:2], (2, 1, 1))
            ls = ndimage.map_coordinates(d.ls, at / d.grid.h, order=3,
                                         mode="nearest")
            d = build_domain(grid, Field(ls))
        d, J, phi, reason = _flow(w, d, records, k == len(grids) - 1)
    # every step redistances, so d and its homothety are signed distances
    final_d, t = fbp_rescale(d, pohozaev_multiplier(J, phi, w.alpha), w.alpha)
    return OptimizationTrace(records=records, final_domain=final_d,
                             final_field=solve_torsion(final_d),
                             final_rescale=t, reason=reason)


def _newton_speed(u, w, mu):
    """Per-sample normal speed of the Newton-type step.

    The relative residual rho = |grad u| / (c g) - 1, c = sqrt(-2 mu), is
    fitted over the valid samples by ds-weighted least squares in 1,
    cos m theta, sin m theta (theta the sample's angle about the origin)
    for m = 1..K, K = max(M_MODES, R / ell): the modes that the extension
    of length ell = ELL_CELLS h resolves on a front of mean radius R.  On
    the ball, r = R (1 + e cos m theta) gives rho the mode-m amplitude
    -(m + alpha - 1) e (the linearisation of ``oracle.response_modes``), so
    the step moves the front radially by dr/r = sum_m rho_m / (m + alpha -
    1) + (rho - fit) / (K + alpha - 1): a gradient step in the metric of the
    shape Hessian at the ball (Burger, Interfaces Free Bound. 5, 2003).
    The remainder takes mode K's gain, for the extension damps mode m by
    about 1 / (1 + (m ell / R)^2) and no more: a larger gain over-steps the
    modes just beyond K, and the fine levels chase the boundary gradient's
    grid-scale noise.  Mode 0 is the homothety, which the multiplier owns,
    so it gets no step; an invalid sample takes the fitted modes alone.
    The radial move dr r_hat has the normal speed dr r_hat.n = (dr/r) x.n.
    On a front that is not starshaped about the origin that product is <= 0
    where a ray leaves the front inwards: the front still moves by the
    radial field dr(theta) r_hat, which is no longer a Newton step, and the
    objective test decides.
    """
    s = u.domain.samples
    grad, valid = u.gradient
    rho = grad / (np.sqrt(-2.0 * mu) * eval_weight(w, s.points)) - 1.0
    r = np.hypot(s.points[:, 0], s.points[:, 1])
    ell = ELL_CELLS * u.domain.grid.h
    K = max(M_MODES, int(np.sum(r * s.ds) / (np.sum(s.ds) * ell)))
    m = np.arange(1, K + 1)
    mt = np.outer(np.arctan2(s.points[:, 1], s.points[:, 0]), m)
    basis = np.column_stack([np.ones_like(r), np.cos(mt), np.sin(mt)])
    sw = np.sqrt(s.ds[valid])
    coef = np.linalg.lstsq(basis[valid] * sw[:, None], rho[valid] * sw,
                           rcond=None)[0]
    rel = basis[:, 1:] @ (coef[1:] / np.tile(m + w.alpha - 1.0, 2))
    tail = (rho - basis @ coef) / (K + w.alpha - 1.0)
    rel[valid] += tail[valid]
    return rel * np.sum(s.points * s.normals, axis=1)


def _advance(d, V, scale):
    """d advected by the grid speed scale * V over time 1, redistanced.

    The move takes ceil(scale max|V| / (CFL h)) upwind substeps, so no
    substep moves the front more than CFL h.
    """
    h = d.grid.h
    n = max(1, int(np.ceil(scale * float(np.max(np.abs(V))) / (CFL * h))))
    ls = d.ls
    for _ in range(n):
        ls = kernels.advect_step(ls, V, h, scale / n)
    return reinitialize(Domain(d.grid, ls))


def _flow(w, init, records, finest):
    """The flow on ``init``'s grid; appends its records to ``records``.

    Projects the input onto phi = 1 once; on the ``finest`` level, raises
    StarvedBoundary if the projected phi misses 1 by more than PHI_TOL (a
    front resolved by too few cells to be resampled).  A coarser level goes
    on from such a projection: the objective is homothety invariant, and
    each finer level projects again.  Each iteration then takes the
    Newton-type step of ``_newton_speed``, extended to the grid by
    ``_extend_velocity``, advected over time 1 and redistanced
    (``_advance``); a step that raises the objective phi^(-4/(2 alpha + 2))
    J is halved, and the fifth rejection ends the level ``stalled``.  No
    step projects: the objective is homothety invariant, the step leaves
    mode 0 to the multiplier (the records' phi shows the drift), and the
    final homothety needs only J and phi.  Terminates when the L2 residual
    of |grad u| = sqrt(-2 mu) g drops to C_L2 * h (by homogeneity, the
    free-boundary residual after that homothety), when three accepted steps
    in a row leave the objective flat, or at MAX_ITERS.  Returns the last
    iterate, its J and phi and the termination reason.
    """
    grid = init.grid
    h = grid.h
    d, _ = rescale_to_constraint(init, w)
    if not d.is_signed_distance:
        d = reinitialize(d)
    phi = phi_constraint(w, d)
    if finest and abs(phi - 1.0) > PHI_TOL:
        raise StarvedBoundary(
            f"projection onto phi = 1 left phi = {phi:.6g} on a front of "
            f"{len(d.samples)} samples, grid {grid.nx}x{grid.ny}")
    stall_count = 0
    reason = "max_iters"
    u = solve_torsion(d)
    mu = estimate_multiplier(u, w)
    J = energy_J(u)
    obj = scale_invariant_objective(J, phi, w.alpha)

    for it in range(MAX_ITERS):
        res_sup, res_l2 = residual_fbp(u, w, np.sqrt(-2.0 * mu))
        rec = dict(level=grid.nx, iter=it, J=J, phi=phi, objective=obj,
                   mu=mu, residual_sup=res_sup, residual_l2=res_l2, step=0.0)
        records.append(rec)
        if res_l2 <= C_L2 * h:
            reason = "converged"
            break
        if stall_count >= 3:
            reason = "stalled"
            break

        vn = _newton_speed(u, w, mu)
        V = _extend_velocity(grid, d.samples, vn)
        scale = 1.0
        for _ in range(5):
            d_new = _advance(d, V, scale)
            u_new = solve_torsion(d_new)
            J_new, phi_new = energy_J(u_new), phi_constraint(w, d_new)
            obj_new = scale_invariant_objective(J_new, phi_new, w.alpha)
            if obj_new <= obj + 1e-6 * abs(obj):
                break
            scale *= 0.5
        else:
            reason = "stalled"
            break
        rec["step"] = scale * float(np.max(np.abs(V)))
        stalled = abs(obj - obj_new) < TOL_OBJECTIVE * abs(obj_new)
        stall_count = stall_count + 1 if stalled else 0
        d, u, J, phi, obj = d_new, u_new, J_new, phi_new, obj_new
        mu = estimate_multiplier(u, w)
    return d, J, phi, reason
