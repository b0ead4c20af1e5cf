"""Hot numeric kernels, one numpy implementation each.

``mixed_cells`` is the marching-squares walk (Lorensen and Cline, SIGGRAPH
1987) shared by the cut-cell quadrature here and the boundary extraction in
``domain.boundary_samples``: both read the interface as the linear
interpolant of the nodal level set along the cell edges.
"""

import math

import numpy as np

USE_NUMBA = False  # no compiled kernels; perfbench/worker.py still records it


# ---------------------------------------------------------------------------
# Poisson matrix-vector product (symmetric ghost-fluid stencil)
# ---------------------------------------------------------------------------

def poisson_matvec(diag, cw, ce, cs, cn, u):
    """Grid-stencil reference that the tests compare the torsion CSR with.

    ``src/`` no longer calls it; the benchmark's tracer hooks it by name."""
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
    """(dmx, dpx, dmy, dpy): per axis, one forward difference serves as both,
    shifted by a node, with its edge row repeated."""
    out = []
    for axis in (0, 1):
        fwd = np.diff(ls, axis=axis) / h
        out += [np.concatenate([fwd.take([0], axis), fwd], axis),
                np.concatenate([fwd, fwd.take([-1], axis)], axis)]
    return out


def nonzero_2d(mask):
    """``np.nonzero`` of a 2-D mask, the same index arrays, taken from its
    flat indices: 3 to 12 times faster than numpy's 2-D path on the masks
    of a 384² domain."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def neighbour_differs(a):
    """Nodes with a 4-neighbour that holds a different value.

    Its one caller in ``src/``, ``domain.reinitialize``, applies it to
    ``ls < 0`` to mark the flip nodes, those with a neighbour across the
    front, which seed and are frozen in ``eikonal_solve``.
    """
    out = np.zeros(a.shape, dtype=bool)
    ne = a[:-1, :] != a[1:, :]
    out[:-1, :] |= ne
    out[1:, :] |= ne
    ne = a[:, :-1] != a[:, 1:]
    out[:, :-1] |= ne
    out[:, 1:] |= ne
    return out


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

def _eikonal_round(p, nb, m, h):
    """One Jacobi round on the first ``m`` nodes of the compact array ``p``,
    whose neighbours are ``p[nb[:, :m]]``; every new value is computed
    before any is stored."""
    a = np.minimum(p[nb[0, :m]], p[nb[1, :m]])
    b = np.minimum(p[nb[2, :m]], p[nb[3, :m]])
    diff = np.abs(a - b)
    new = np.where(
        diff >= h,
        np.minimum(a, b) + h,
        0.5 * (a + b + np.sqrt(np.maximum(2.0 * h * h - diff * diff, 0.0))),
    )
    np.minimum(p[:m], new, out=p[:m])


def grow_4(mask, steps):
    """Each node's 4-neighbour graph distance from ``mask``, off-grid nodes
    counting as outside, and ``steps + 1`` for the nodes farther than
    ``steps``: ``steps`` shift-ORs, each of the previous round's mask, and
    per node ``steps + 1`` less the number of these masks it is in."""
    out = mask.copy()
    prev = np.empty_like(out)
    ring = np.full(out.shape, steps + 1, np.min_scalar_type(steps + 1))
    for _ in range(steps):
        ring -= out
        np.copyto(prev, out)
        out[1:, :] |= prev[:-1, :]
        out[:-1, :] |= prev[1:, :]
        out[:, 1:] |= prev[:, :-1]
        out[:, :-1] |= prev[:, 1:]
    ring -= out
    return ring


def eikonal_solve(shape, flip, seeds, h, band):
    """Unsigned distance from the ``flip`` nodes ``(fi, fj)`` on a grid of
    ``shape``; they stay frozen at ``min(seeds, C)``, the rest start at ``C``.

    The result is ``2*band + 2`` Jacobi rounds of the upwind update, capped
    at ``C = band*h`` (Adalsteinsson and Sethian, J. Comput. Phys. 118,
    1995), not the rounds' fixed point.  A round never raises a value, and
    as the update is nondecreasing in each argument, never lowers one below
    the fixed point.  After ``k`` rounds a node holds its fixed-point value
    when the chain of smaller neighbours its update reads reaches a frozen
    node within ``k`` links.  A two-sided update whose axis minima differ by
    nearly ``h`` lies barely above the larger one, so a chain can be longer.
    Over nine measured redistancings at 64² to 384², the fixed point took
    18 to 31 rounds, and after ``2*band + 2`` = 18 up to 1,530 nodes sat
    above it, by at most 1.3e-8*h and none within 4h of the front.

    Clamping the seeds to ``C`` before the rounds gives the same values as
    clamping after them: for ``a >= C`` both ``f(a, b)`` and ``f(C, b)``
    are ``b + h`` when ``b <= C - h`` and at least ``C`` otherwise, so
    ``min(f(a, b), C) = min(f(min(a, C), min(b, C)), C)``.  Started at the
    cap, the rounds need no sentinel for unreached nodes.

    The rounds run only on the tube, the rings ``1..R`` of 4-neighbour graph
    distance from the flip nodes, ``R = floor(band*sqrt(2))``; a node in
    ring ``k`` is ``k`` or more steps from every flip node below ``C``, even
    where one at the cap is nearer.  For ``diff = |a - b| <= h`` the update
    is ``min(a, b) + (diff + sqrt(2h^2 - diff^2))/2 >= min(a, b) +
    h/sqrt(2)``, and ``min(a, b) + h`` beyond, so a node ``k`` steps from
    every flip node below ``C`` never falls below ``min(C, k*h/sqrt(2))``:
    ring ``R + 1 > band*sqrt(2)`` and every node beyond it stay at the cap,
    which is what the cap padding around the flip nodes' box supplies to
    ring ``R``.

    The tube is numbered ring by ring, in C order within a ring, and held
    first in a compact array ``p``, followed by the padded box as fixed
    values; the four neighbour index arrays into ``p`` are built once.
    Round ``k`` (from 1) updates only the rings ``<= min(k, R)``, a prefix
    of ``p``.  Before it a node in ring ``j >= k`` still holds the cap, so
    in round ``k`` a node in ring ``j > k`` reads the cap on all four sides
    and its update ``f(C, C) = C + h/sqrt(2)`` leaves it at ``C``: skipping
    it changes no bit of the result.
    """
    cap = band * h
    fi, fj = flip
    reach = math.floor(band * math.sqrt(2.0))
    i0, j0 = max(fi.min() - reach, 0), max(fj.min() - reach, 0)
    box = (slice(i0, fi.max() + reach + 1), slice(j0, fj.max() + reach + 1))
    d = np.full(shape, cap)
    d[fi, fj] = np.minimum(seeds, cap)
    sub = d[box]
    ring0 = np.zeros(sub.shape, dtype=bool)
    ring0[fi - i0, fj - j0] = True
    ring = grow_4(ring0, reach)
    tube = np.flatnonzero((ring > 0) & (ring <= reach))
    rings = ring.ravel()[tube]
    tube = tube[np.argsort(rings, kind="stable")]
    counts = np.cumsum(np.bincount(rings, minlength=reach + 1))
    ti, tj = np.divmod(tube, sub.shape[1])
    stride = sub.shape[1] + 2
    q = (ti + 1) * stride + tj + 1
    t = len(q)
    p = np.full(t + (sub.shape[0] + 2) * stride, cap)
    p[t:].reshape(-1, stride)[1:-1, 1:-1] = sub
    at = np.arange(t, len(p))  # where each padded node sits in p
    at[q] = np.arange(t)
    nb = at[q + np.array([[-stride], [stride], [-1], [1]])]
    for k in range(1, 2 * band + 3):
        _eikonal_round(p, nb, counts[min(k, reach)], h)
    sub[ti, tj] = p[:t]
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
    i, j = nonzero_2d((c > 0) & (c < 4))
    v = np.stack([ls[i, j], ls[i + 1, j], ls[i + 1, j + 1], ls[i, j + 1]], axis=1)
    nxt = np.roll(v, -1, axis=1)
    cross = (v < 0.0) != (nxt < 0.0)
    t = np.divide(v, v - nxt, out=np.full(v.shape, np.nan), where=cross)
    return i, j, v, cross, t


def cell_geometry(ls, h, cells):
    """Per-cell area of {ls < 0}, and the centroids of the cut cells.

    ``cells`` is ``mixed_cells(ls)``.  Returns ``(areas, cx, cy)``: the
    area of every cell, shape ``(n0 - 1, n1 - 1)``, and the box-local
    centroids of the cut cells, in ``cells``' order.  A cut cell's polygon
    lists, for k = 0..3, corner k (if inside, or on the interface between
    two closed-inside neighbours, which keeps grid-aligned boundaries exact)
    and then the crossing on edge k -> k+1.  Its area and centroid come from
    the shoelace formula, summed vertex by vertex.
    """
    inside = ls < 0.0
    full = inside[:-1, :-1] & inside[1:, :-1] & inside[1:, 1:] & inside[:-1, 1:]
    areas = np.where(full, h * h, 0.0)
    i, j, v, cross, t = cells

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
    return areas, i * h + gx, j * h + gy
