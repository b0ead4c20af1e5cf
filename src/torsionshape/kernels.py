"""Hot numeric kernels, one numpy implementation each.

``mixed_cells`` is the marching-squares walk (Lorensen and Cline, SIGGRAPH
1987) shared by the cut-cell quadrature here and the boundary extraction in
``domain.boundary_samples``: both read the interface as the linear
interpolant of the nodal level set along the cell edges.
"""

import numpy as np

USE_NUMBA = False  # no compiled kernels; perfbench/worker.py still records it


# ---------------------------------------------------------------------------
# Poisson matrix-vector product (symmetric ghost-fluid stencil)
# ---------------------------------------------------------------------------

def poisson_matvec(diag, cw, ce, cs, cn, u):
    out = diag * u
    out[1:, :] -= cw[1:, :] * u[:-1, :]
    out[:-1, :] -= ce[:-1, :] * u[1:, :]
    out[:, 1:] -= cs[:, 1:] * u[:, :-1]
    out[:, :-1] -= cn[:, :-1] * u[:, 1:]
    return out


# ---------------------------------------------------------------------------
# First-order upwind (Godunov) advection of a level set by a normal speed
# ---------------------------------------------------------------------------

def _one_sided_diffs(ls, h):
    dmx = np.empty_like(ls)
    dpx = np.empty_like(ls)
    dmy = np.empty_like(ls)
    dpy = np.empty_like(ls)
    dmx[1:, :] = (ls[1:, :] - ls[:-1, :]) / h
    dmx[0, :] = (ls[1, :] - ls[0, :]) / h
    dpx[:-1, :] = (ls[1:, :] - ls[:-1, :]) / h
    dpx[-1, :] = dmx[-1, :]
    dmy[:, 1:] = (ls[:, 1:] - ls[:, :-1]) / h
    dmy[:, 0] = (ls[:, 1] - ls[:, 0]) / h
    dpy[:, :-1] = (ls[:, 1:] - ls[:, :-1]) / h
    dpy[:, -1] = dmy[:, -1]
    return dmx, dpx, dmy, dpy


def advect_step(ls, vn, h, dt):
    dmx, dpx, dmy, dpy = _one_sided_diffs(ls, h)
    gp = np.sqrt(np.maximum(dmx, 0.0) ** 2 + np.minimum(dpx, 0.0) ** 2
                 + np.maximum(dmy, 0.0) ** 2 + np.minimum(dpy, 0.0) ** 2)
    gm = np.sqrt(np.minimum(dmx, 0.0) ** 2 + np.maximum(dpx, 0.0) ** 2
                 + np.minimum(dmy, 0.0) ** 2 + np.maximum(dpy, 0.0) ** 2)
    return ls - dt * (np.maximum(vn, 0.0) * gp + np.minimum(vn, 0.0) * gm)


# ---------------------------------------------------------------------------
# Eikonal solve |grad d| = 1 (Jacobi iteration)
# ---------------------------------------------------------------------------

def _eikonal_round(d, frozen, h, cap):
    p = np.pad(d, 1, constant_values=cap)
    a = np.minimum(p[:-2, 1:-1], p[2:, 1:-1])
    b = np.minimum(p[1:-1, :-2], p[1:-1, 2:])
    diff = np.abs(a - b)
    new = np.where(
        diff >= h,
        np.minimum(a, b) + h,
        0.5 * (a + b + np.sqrt(np.maximum(2.0 * h * h - diff * diff, 0.0))),
    )
    new = np.minimum(d, new)
    new[frozen] = d[frozen]
    np.copyto(d, new)


def eikonal_solve(d, frozen, h, band):
    """In-place unsigned distance in a tube; ``frozen`` nodes keep their values.

    The result is the converged Jacobi distance wherever that is below
    ``C = band*h``, and ``C`` beyond it (Adalsteinsson and Sethian,
    J. Comput. Phys. 118, 1995).  A round carries the front's values one
    cell further, so ``2*band + 2`` rounds settle the tube.  Clamping ``d``
    to ``C`` before the rounds gives the same values as clamping after
    them: the update ``f(a, b)`` is nondecreasing in each argument, and for
    ``a >= C`` both ``f(a, b)`` and ``f(C, b)`` are ``b + h`` when
    ``b <= C - h`` and at least ``C`` otherwise, so
    ``min(f(a, b), C) = min(f(min(a, C), min(b, C)), C)``.  Seeded at the
    cap, the rounds need no sentinel for unreached nodes.
    """
    cap = band * h
    np.minimum(d, cap, out=d)
    for _ in range(2 * band + 2):
        _eikonal_round(d, frozen, h, cap)
    return d


# ---------------------------------------------------------------------------
# Marching squares: cut cells, their areas and centroids
# ---------------------------------------------------------------------------

# node offsets of cell corners k = 0..3, CCW from the cell's node (i, j)
CORNERS = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])


def mixed_cells(ls):
    """The cells with 1 to 3 corners in {ls < 0}, in C order.

    Returns ``(i, j, v, cross, t)``: cell (i, j) spans nodes i..i+1,
    j..j+1; ``v`` holds its corner values CCW from (i, j), shape (n, 4);
    ``cross[:, k]`` marks a sign change along edge k -> k+1, and there
    ``t[:, k] = v_k / (v_k - v_{k+1})`` is the fraction of the edge at which
    the linear interpolant crosses zero (NaN on the other edges).
    """
    inside = ls < 0.0
    c = (inside[:-1, :-1].astype(np.int8) + inside[1:, :-1] + inside[1:, 1:]
         + inside[:-1, 1:])
    i, j = np.nonzero((c > 0) & (c < 4))
    v = np.stack([ls[i, j], ls[i + 1, j], ls[i + 1, j + 1], ls[i, j + 1]], axis=1)
    nxt = np.roll(v, -1, axis=1)
    cross = (v < 0.0) != (nxt < 0.0)
    t = np.divide(v, v - nxt, out=np.full(v.shape, np.nan), where=cross)
    return i, j, v, cross, t


def cell_geometry(ls, h):
    """Per-cell area of {ls < 0} and its centroid, in box-local coordinates.

    A cut cell's polygon lists, for k = 0..3, corner k (if inside, or on the
    interface between two closed-inside neighbours, which keeps grid-aligned
    boundaries exact) and then the crossing on edge k -> k+1.  Its area and
    centroid come from the shoelace formula, summed vertex by vertex.
    """
    inside = ls < 0.0
    full = inside[:-1, :-1] & inside[1:, :-1] & inside[1:, 1:] & inside[:-1, 1:]
    n0, n1 = ls.shape
    ci = np.arange(n0 - 1)[:, None]
    cj = np.arange(n1 - 1)[None, :]
    areas = np.where(full, h * h, 0.0)
    cxs = (ci + 0.5) * h * np.ones_like(areas)
    cys = (cj + 0.5) * h * np.ones_like(areas)
    i, j, v, cross, t = mixed_cells(ls)

    # 8 slots per cell: corner k at slot 2k, crossing on edge k at 2k + 1
    vm, vp = np.roll(v, 1, axis=1), np.roll(v, -1, axis=1)
    cx, cy = CORNERS[:, 0] * h, CORNERS[:, 1] * h
    cx2, cy2 = np.roll(cx, -1), np.roll(cy, -1)
    xs = np.empty((len(i), 8))
    ys = np.empty((len(i), 8))
    valid = np.empty((len(i), 8), dtype=bool)
    xs[:, 0::2] = cx
    ys[:, 0::2] = cy
    valid[:, 0::2] = (v < 0.0) | ((v == 0.0) & (vm <= 0.0) & (vp <= 0.0))
    xs[:, 1::2] = cx + t * (cx2 - cx)
    ys[:, 1::2] = cy + t * (cy2 - cy)
    valid[:, 1::2] = cross

    # compact each polygon to its first m slots, pad with its vertex 0
    order = np.argsort(~valid, axis=1, kind="stable")
    xs = np.take_along_axis(xs, order, axis=1)
    ys = np.take_along_axis(ys, order, axis=1)
    m = np.count_nonzero(valid, axis=1)
    used = np.arange(8) < m[:, None]
    xs = np.where(used, xs, xs[:, :1])
    ys = np.where(used, ys, ys[:, :1])

    # the padding adds only zero cross products, so the sums match a
    # vertex-by-vertex loop over the m vertices
    area2 = np.zeros(len(i))
    sx = np.zeros(len(i))
    sy = np.zeros(len(i))
    mx = np.zeros(len(i))
    my = np.zeros(len(i))
    for k in range(8):
        k2 = (k + 1) % 8
        cross = xs[:, k] * ys[:, k2] - xs[:, k2] * ys[:, k]
        area2 += cross
        sx += (xs[:, k] + xs[:, k2]) * cross
        sy += (ys[:, k] + ys[:, k2]) * cross
        mx += np.where(used[:, k], xs[:, k], 0.0)
        my += np.where(used[:, k], ys[:, k], 0.0)
    area = 0.5 * area2
    # slivers take the vertex mean as centroid
    sliver = area <= 1e-14 * h * h
    with np.errstate(divide="ignore", invalid="ignore"):
        gx = np.where(sliver, mx / m, sx / (6.0 * area))
        gy = np.where(sliver, my / m, sy / (6.0 * area))
    areas[i, j] = np.maximum(area, 0.0)
    cxs[i, j] = i * h + gx
    cys[i, j] = j * h + gy
    return areas, cxs, cys
