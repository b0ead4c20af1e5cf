"""Torsion PDE solve on a level-set domain and the associated functionals."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix

from . import kernels
from .domain import interp_bilinear
from .errors import EmptyDomain, SolverDiverged
from .oracle import phi_degree
from .weight import eval_weight

THETA_MIN = 1e-2     # cut-cell fraction clamp, keeps the system well conditioned
CG_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class StressField:
    """Solution of -lap u = 1, u = 0 on the boundary, on d = {ls < 0}.

    ``values`` is read-only, so the cached boundary gradient never goes stale.
    """

    domain: object
    values: np.ndarray   # nodal u, 0 outside
    iterations: int
    residual: float

    def __post_init__(self):
        self.values.setflags(write=False)

    @cached_property
    def gradient(self):
        """(values, valid mask) of ``boundary_gradient`` on ``domain.samples``."""
        vals, valid = boundary_gradient(self)
        vals.setflags(write=False)
        valid.setflags(write=False)
        return vals, valid


def _build_system(d):
    ls = d.ls
    h = d.grid.h
    inside = ls < 0.0
    if not np.any(inside):
        raise EmptyDomain("no interior nodes")
    inv_h2 = 1.0 / (h * h)
    shape = ls.shape
    diag = np.zeros(shape)
    cw = np.zeros(shape)
    ce = np.zeros(shape)
    cs = np.zeros(shape)
    cn = np.zeros(shape)

    pad = np.pad(ls, 1, mode="constant", constant_values=np.inf)
    nb_w = pad[:-2, 1:-1]
    nb_e = pad[2:, 1:-1]
    nb_s = pad[1:-1, :-2]
    nb_n = pad[1:-1, 2:]
    for nb, coup in ((nb_w, cw), (nb_e, ce), (nb_s, cs), (nb_n, cn)):
        nb_in = inside & np.isfinite(nb) & (nb < 0.0)
        coup[inside & nb_in] = inv_h2
        diag[inside & nb_in] += inv_h2
        # ghost value by linear extrapolation through the zero crossing
        cut = inside & ~nb_in
        nbv = np.where(np.isfinite(nb), nb, 1.0)
        denom = ls - nbv
        tt = np.where(denom != 0.0, ls / np.where(denom != 0.0, denom, 1.0), 1.0)
        t = np.clip(tt, THETA_MIN, 1.0)
        diag[cut] += inv_h2 / t[cut]
    b = np.where(inside, 1.0, 0.0)
    return inside, diag, cw, ce, cs, cn, b


def _interior_operator(inside, diag, cw, ce, cs, cn):
    """The stencil of ``_build_system`` on the interior nodes, as CSR.

    Unknown ``k`` is the k-th interior node in C order, so the columns of a
    row are ordered west, south, centre, north, east.  A coupling is only
    nonzero between two interior nodes, and the centre always is.
    """
    n = int(np.count_nonzero(inside))
    idx = np.full(inside.shape, -1, dtype=np.int32)
    idx[inside] = np.arange(n, dtype=np.int32)
    pad = np.pad(idx, 1, constant_values=-1)
    cols = np.stack([pad[:-2, 1:-1][inside], pad[1:-1, :-2][inside], idx[inside],
                     pad[1:-1, 2:][inside], pad[2:, 1:-1][inside]], axis=1)
    vals = np.stack([-cw[inside], -cs[inside], diag[inside],
                     -cn[inside], -ce[inside]], axis=1)
    keep = vals != 0.0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    return csr_matrix((vals[keep], cols[keep], indptr), shape=(n, n))


def _pcg(A, x, r, inv_d, tol, maxiter):
    """Jacobi-preconditioned CG on A x = b from x with residual r = b - A x.

    Updates x in place and stops once the recursive residual has
    ||r|| <= tol, on breakdown, or after maxiter steps; returns the steps.
    """
    z = r * inv_d
    p = z.copy()
    rz = np.dot(r, z)
    it = 0
    while np.sqrt(np.dot(r, r)) > tol and it < maxiter:
        q = A @ p
        denom = np.dot(p, q)
        if denom <= 0.0:
            break
        alpha = rz / denom
        x += alpha * p
        r -= alpha * q
        np.multiply(r, inv_d, out=z)
        rz_new = np.dot(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
        it += 1
    return it


def solve_torsion(d, rtol=CG_RTOL):
    """Finite-difference solve with symmetric cut-cell Dirichlet treatment.

    Outside neighbours of the five-point stencil are replaced by linear
    ghost extrapolation through the interface, which keeps the system
    symmetric positive definite (Gibou, Fedkiw, Cheng and Kang, J. Comput.
    Phys. 176, 2002).  The system is assembled on the interior nodes only
    and solved by Jacobi-preconditioned CG.  The result is accepted on its
    true residual, recomputed with the grid stencil; CG restarts from it in
    the rare case that rounding left it above the recursive one.
    """
    inside, diag, cw, ce, cs, cn, b = _build_system(d)
    A = _interior_operator(inside, diag, cw, ce, cs, cn)
    b_in = b[inside]
    inv_d = 1.0 / diag[inside]
    bnorm = np.sqrt(np.dot(b_in, b_in))
    tol = rtol * bnorm
    maxiter = 20 * max(d.grid.nx, d.grid.ny)
    x = np.zeros_like(b)
    x_in = np.zeros_like(b_in)
    r = b_in.copy()
    it = 0
    while True:
        steps = _pcg(A, x_in, r, inv_d, tol, maxiter - it)
        it += steps
        x[inside] = x_in
        ax = kernels.poisson_matvec(diag, cw, ce, cs, cn, x)
        r = b_in - ax[inside]
        rnorm = np.sqrt(np.dot(r, r))
        if rnorm <= tol or steps == 0:  # met, or budget spent / breakdown
            break
    res = float(rnorm / bnorm)
    if not res <= rtol:
        raise SolverDiverged(
            f"Jacobi-PCG true residual {res:g} > rtol {rtol:g} after {it} "
            f"iterations on {len(b_in)} unknowns, grid "
            f"{d.grid.nx}x{d.grid.ny}")
    return StressField(domain=d, values=np.maximum(x, 0.0), iterations=it,
                       residual=res)


# --- functionals ------------------------------------------------------------

def energy_J(u):
    """J = -(1/2) * integral of u over the domain (cut-cell quadrature)."""
    weights, pts = u.domain.quadrature
    uc = interp_bilinear(u.values, u.domain.grid, pts)
    return float(-0.5 * np.sum(weights * uc))


def phi_constraint(w, d):
    """Weighted volume: integral of g^2 over the domain."""
    weights, pts = d.quadrature
    g2 = eval_weight(w, pts) ** 2
    return float(np.sum(weights * g2))


def weighted_perimeter(w, d):
    """Integral of g over the boundary (marching-squares quadrature)."""
    s = d.samples
    return float(np.sum(eval_weight(w, s.points) * s.ds))


def boundary_gradient(u):
    """|grad u| at boundary samples by one-sided differences along the normal.

    Uses two interior points at depths m*h and (m+1)*h (m minimal such that
    all bilinear stencil nodes are interior) together with u = 0 at the
    sample point.  Returns (values, valid mask); starved samples are flagged.
    ``u.gradient`` caches the result.
    """
    d = u.domain
    grid = d.grid
    h = grid.h
    s = d.samples
    n = len(s)
    vals = np.zeros(n)
    valid = np.zeros(n, dtype=bool)
    ls = d.ls
    x0, y0, _, _ = grid.box

    def corners_inside(q):
        fx = (q[:, 0] - x0) / h
        fy = (q[:, 1] - y0) / h
        i = np.clip(fx.astype(int), 0, grid.nx - 1)
        j = np.clip(fy.astype(int), 0, grid.ny - 1)
        return ((ls[i, j] < 0) & (ls[i + 1, j] < 0)
                & (ls[i, j + 1] < 0) & (ls[i + 1, j + 1] < 0))

    pending = np.arange(n)
    for m in range(1, 5):
        if len(pending) == 0:
            break
        q1 = s.points[pending] - m * h * s.normals[pending]
        q2 = s.points[pending] - (m + 1) * h * s.normals[pending]
        ok = corners_inside(q1) & corners_inside(q2)
        sel = pending[ok]
        if len(sel):
            s1 = m * h
            s2 = (m + 1) * h
            u1 = interp_bilinear(u.values, grid, s.points[sel] - s1 * s.normals[sel])
            u2 = interp_bilinear(u.values, grid, s.points[sel] - s2 * s.normals[sel])
            vals[sel] = (u1 * s2 ** 2 - u2 * s1 ** 2) / (s1 * s2 * (s2 - s1))
            valid[sel] = True
        pending = pending[~ok]
    vals = np.abs(vals)
    return vals, valid


def residual_fbp(u, w, c):
    """Sup and L2 residuals of |grad u| = c*g over valid boundary samples."""
    s = u.domain.samples
    grad, valid = u.gradient
    g = eval_weight(w, s.points)
    target = c * g
    diff = grad[valid] - target[valid]
    ds = s.ds[valid]
    sup_ref = float(np.max(np.abs(target[valid]))) if np.any(valid) else 0.0
    if sup_ref <= 0.0:
        gn = np.sqrt(np.sum(grad[valid] ** 2 * ds))
        return float(np.max(np.abs(grad[valid]))), float(gn)
    res_sup = float(np.max(np.abs(diff)) / sup_ref)
    l2_ref = np.sqrt(np.sum(target[valid] ** 2 * ds))
    res_l2 = float(np.sqrt(np.sum(diff ** 2 * ds)) / l2_ref)
    return res_sup, res_l2


def objective_scale_invariant(w, u):
    """phi^(-(N+2)/phi_degree) * J on u's domain, N = 2; homothety invariant."""
    J = energy_J(u)
    phi = phi_constraint(w, u.domain)
    expo = 4.0 / phi_degree(w.alpha)
    return float(phi ** (-expo) * J)
