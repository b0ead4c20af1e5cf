"""Torsion PDE solve on a level-set domain and the associated functionals."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.sparse import csr_matrix

from .domain import interp_bilinear
from .errors import SolverDiverged, StarvedBoundary
from .oracle import scale_invariant_objective
from .weight import eval_weight

THETA_MIN = 1e-2     # cut-cell fraction clamp, keeps the system well conditioned
CG_RTOL = 1e-10
MG_COARSE = 1500     # unknowns at which the V-cycle switches to a banded solve
MG_OMEGA = 0.7       # damped-Jacobi weight of the smoother
MG_SWEEPS = 2        # smoothing sweeps before and after each coarse correction


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


def _interior_operator(d):
    """The ghost-fluid five-point operator on ``inside = ls < 0``, as CSR.

    Unknown ``k`` is the k-th interior node in C order, so a row's columns
    run west, south, centre, north, east.  An outside neighbour, at zero
    crossing fraction theta, adds 1/(theta h^2) to the diagonal and no
    column.  Returns (A, inside).
    """
    ls = d.ls
    inv_h2 = 1.0 / (d.grid.h * d.grid.h)
    inside = ls < 0.0
    n = int(np.count_nonzero(inside))
    idx = np.full(ls.shape, -1, dtype=np.int32)
    idx[inside] = np.arange(n, dtype=np.int32)
    # a Domain's frame is outside, so every interior node has its four
    # neighbours on the grid, and the core's C order is the grid's
    core = inside[1:-1, 1:-1]
    west, east = np.s_[:-2, 1:-1], np.s_[2:, 1:-1]
    south, north = np.s_[1:-1, :-2], np.s_[1:-1, 2:]
    centre = ls[inside]
    diag = np.zeros(n)
    for side in (west, east, south, north):
        nb = ls[side][core]
        coef = np.full(n, inv_h2)
        # at a cut ls - nb <= ls < 0
        cut = nb >= 0.0
        coef[cut] /= np.clip(centre[cut] / (centre[cut] - nb[cut]),
                             THETA_MIN, 1.0)
        diag += coef
    cols = np.stack([idx[west][core], idx[south][core], idx[inside],
                     idx[north][core], idx[east][core]], axis=1)
    keep = cols >= 0
    vals = np.full(cols.shape, -inv_h2)
    vals[:, 2] = diag
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    return csr_matrix((vals[keep], cols[keep], indptr), shape=(n, n)), inside


# the 3x3 fine nodes (2I + di, 2J + dj) of coarse node (I, J) in C order, and
# their bilinear weights
_DI = np.repeat([-1, 0, 1], 3)
_DJ = np.tile([-1, 0, 1], 3)
_W9 = (1.0 - 0.5 * np.abs(_DI)) * (1.0 - 0.5 * np.abs(_DJ))


def _restriction(inside):
    """Full-weighting restriction R = P^T from the unknowns of ``inside``.

    P is bilinear interpolation from the coarse unknowns, the interior nodes
    with both indices even (injection).  So P holds an identity block and has
    full column rank, and R A R^T is positive definite whenever A is.  An
    outside node contributes zero, the Dirichlet value.  Returns (R as CSR,
    coarse interior mask).
    """
    coarse = inside[::2, ::2]
    n = int(np.count_nonzero(inside))
    # the margin shrinks by half on each level, so a coarse node may sit on
    # the last row; the row of -1 past it, also read by index -1, is outside
    idx = np.full((inside.shape[0] + 1, inside.shape[1] + 1), -1,
                  dtype=np.int32)
    idx[:-1, :-1][inside] = np.arange(n, dtype=np.int32)
    ci, cj = np.nonzero(coarse)
    cols = idx[2 * ci[:, None] + _DI, 2 * cj[:, None] + _DJ]
    keep = cols >= 0
    indptr = np.zeros(len(ci) + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    vals = np.broadcast_to(_W9, cols.shape)[keep]
    R = csr_matrix((vals, cols[keep], indptr), shape=(len(ci), n))
    return R, coarse


def _banded_factor(A):
    """Upper banded Cholesky factor of the SPD CSR matrix A (Golub and Van
    Loan, Matrix Computations, 4.3), in LAPACK's band storage for
    ``cho_solve_banded`` and the natural order of A's unknowns."""
    A = A.tocoo()
    upper = A.col >= A.row
    row, col = A.row[upper], A.col[upper]
    kd = int(np.max(col - row))
    ab = np.zeros((kd + 1, A.shape[0]))
    ab[kd + row - col, col] = A.data[upper]
    return cholesky_banded(ab, check_finite=False)


def _multigrid(A, inside):
    """Galerkin hierarchy of the SPD operator A on ``inside``, for ``_vcycle``.

    Coarse operators R A R^T (Trottenberg, Oosterlee and Schueller,
    Multigrid, 2001) down to at most MG_COARSE unknowns, which a banded
    Cholesky factor solves at O(n kd^2) cost, kd the half-bandwidth.  A
    system of at most MG_COARSE unknowns gets no level, so its V-cycle is
    the exact solve.  Returns (levels, factor); a level is
    (A, MG_OMEGA / diag A, R, R^T).
    """
    levels = []
    while A.shape[0] > MG_COARSE:
        R, inside = _restriction(inside)
        P = R.T
        levels.append((A, MG_OMEGA / A.diagonal(), R, P))
        A = R @ (A @ P)
    return levels, _banded_factor(A)


def _vcycle(mg, r, lev=0):
    """One V-cycle of ``mg`` on A z = r from z = 0: the preconditioned r.

    Each level smooths with MG_SWEEPS damped-Jacobi sweeps before and after
    its coarse correction.  The same symmetric sweeps on both sides keep the
    preconditioner symmetric, as CG needs.  The coarsest level is solved
    exactly by the banded factor; with no level above it, that is A^-1 r.
    """
    levels, factor = mg
    if lev == len(levels):
        return cho_solve_banded((factor, False), r, check_finite=False)
    A, w_inv_d, R, P = levels[lev]
    x = w_inv_d * r
    for _ in range(MG_SWEEPS - 1):
        x += w_inv_d * (r - A @ x)
    x += P @ _vcycle(mg, R @ (r - A @ x), lev + 1)
    for _ in range(MG_SWEEPS):
        x += w_inv_d * (r - A @ x)
    return x


def _pcg(A, x, r, mg, tol, maxiter):
    """CG on A x = b from x with residual r = b - A x, preconditioned by one
    V-cycle of the hierarchy ``mg``.

    Updates x in place and stops once the recursive residual has
    ||r|| <= tol, on breakdown, or after maxiter steps; returns the steps.
    The stop is tested before each V-cycle, so none runs unread.
    """
    p = rz = None
    it = 0
    while np.sqrt(np.dot(r, r)) > tol and it < maxiter:
        z = _vcycle(mg, r)
        rz_new = np.dot(r, z)
        if p is None:
            p = z
        else:
            p *= rz_new / rz
            p += z
        rz = rz_new
        q = A @ p
        denom = np.dot(p, q)
        if denom <= 0.0:
            break
        alpha = rz / denom
        x += alpha * p
        r -= alpha * q
        it += 1
    return it


def solve_torsion(d):
    """Finite-difference solve with symmetric cut-cell Dirichlet treatment.

    Outside neighbours of the five-point stencil are replaced by linear
    ghost extrapolation through the interface, which keeps the system
    symmetric positive definite (Gibou, Fedkiw, Cheng and Kang, J. Comput.
    Phys. 176, 2002).  The system is assembled on the interior nodes only
    and solved by CG preconditioned with one multigrid V-cycle, whose
    iteration count does not grow with the grid; the V-cycle ends in a
    banded Cholesky solve of at most MG_COARSE unknowns, at O(n kd^2) cost
    for half-bandwidth kd, so a system that small takes one exact CG step.
    The result is accepted on its true residual b - A x, recomputed from x
    on the same operator; CG restarts from it in the rare case that
    rounding left it above the recursive one.
    """
    A, inside = _interior_operator(d)
    n = A.shape[0]
    b = np.ones(n)
    mg = _multigrid(A, inside)
    bnorm = np.sqrt(n)
    tol = CG_RTOL * bnorm
    maxiter = 20 * max(d.grid.nx, d.grid.ny)
    x = np.zeros(n)
    r = b.copy()
    it = 0
    while True:
        steps = _pcg(A, x, r, mg, tol, maxiter - it)
        it += steps
        r = b - A @ x
        rnorm = np.sqrt(np.dot(r, r))
        if rnorm <= tol or steps == 0:  # met, or budget spent / breakdown
            break
    res = float(rnorm / bnorm)
    if not res <= CG_RTOL:
        raise SolverDiverged(
            f"MG-PCG true residual {res:g} > rtol {CG_RTOL:g} after {it} "
            f"iterations on {n} unknowns, grid {d.grid.nx}x{d.grid.ny}")
    values = np.zeros(d.ls.shape)
    values[inside] = np.maximum(x, 0.0)
    return StressField(domain=d, values=values, iterations=it, residual=res)


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

    Uses two interior points at depths m*h and (m+1)*h (m = 1..4 minimal such
    that all bilinear stencil nodes of both are interior) together with u = 0
    at the sample point; one pass tests all five depths.  Returns (values,
    valid mask); starved samples are 0 and flagged.  Raises StarvedBoundary
    when every sample is starved, a domain too thin for the grid.
    ``u.gradient`` caches the result.
    """
    d = u.domain
    grid = d.grid
    h = grid.h
    s = d.samples
    depth = np.arange(1, 6) * h
    q = s.points - depth[:, None, None] * s.normals   # (5, n, 2)
    i, j, _, _ = grid.cell(q)
    inside = d.ls < 0
    corners_in = (inside[i, j] & inside[i + 1, j]
                  & inside[i, j + 1] & inside[i + 1, j + 1])
    ok = corners_in[:-1] & corners_in[1:]
    valid = ok.any(axis=0)
    sel = np.flatnonzero(valid)
    if sel.size == 0:
        raise StarvedBoundary(f"none of {len(s)} boundary samples has two "
                              f"interior probes, grid {grid.nx}x{grid.ny}")
    m = np.argmax(ok, axis=0)[sel]
    s1, s2 = depth[m], depth[m + 1]
    u1 = interp_bilinear(u.values, grid, q[m, sel])
    u2 = interp_bilinear(u.values, grid, q[m + 1, sel])
    vals = np.zeros(len(s))
    vals[sel] = np.abs((u1 * s2 ** 2 - u2 * s1 ** 2) / (s1 * s2 * (s2 - s1)))
    return vals, valid


def residual_fbp(u, w, c):
    """Sup and L2 residuals of |grad u| = c*g over valid boundary samples."""
    s = u.domain.samples
    grad, valid = u.gradient
    g = eval_weight(w, s.points)
    target = c * g
    diff = grad[valid] - target[valid]
    ds = s.ds[valid]
    sup_ref = float(np.max(np.abs(target[valid])))
    if sup_ref <= 0.0:
        gn = np.sqrt(np.sum(grad[valid] ** 2 * ds))
        return float(np.max(np.abs(grad[valid]))), float(gn)
    res_sup = float(np.max(np.abs(diff)) / sup_ref)
    l2_ref = np.sqrt(np.sum(target[valid] ** 2 * ds))
    res_l2 = float(np.sqrt(np.sum(diff ** 2 * ds)) / l2_ref)
    return res_sup, res_l2


def objective_scale_invariant(w, u):
    """oracle.scale_invariant_objective of J and phi on u's domain."""
    return scale_invariant_objective(energy_J(u), phi_constraint(w, u.domain),
                                     w.alpha)
