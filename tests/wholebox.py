"""Whole-box forms of the domain sweeps that work on the front in ``src/``.

They are the references that the tests compare the front-only forms with,
bit for bit: ``cell_geometry`` builds centroid arrays of the whole box and
``scale_domain`` blends every node.
"""

import numpy as np

from torsionshape import kernels
from torsionshape.domain import Domain, _lerp2


def cell_geometry(ls, h):
    """(areas, cxs, cys): the area of {ls < 0} in every cell and its
    centroid in box-local coordinates, the centre for a cell not cut."""
    inside = ls < 0.0
    full = inside[:-1, :-1] & inside[1:, :-1] & inside[1:, 1:] & inside[:-1, 1:]
    n0, n1 = ls.shape
    ci = np.arange(n0 - 1)[:, None]
    cj = np.arange(n1 - 1)[None, :]
    areas = np.where(full, h * h, 0.0)
    cxs = (ci + 0.5) * h * np.ones_like(areas)
    cys = (cj + 0.5) * h * np.ones_like(areas)
    i, j, v, cross, t = kernels.mixed_cells(ls)

    # 8 slots per cell: corner k at slot 2k, crossing on edge k at 2k + 1
    vm, vp = np.roll(v, 1, axis=1), np.roll(v, -1, axis=1)
    cx, cy = kernels.CORNERS[:, 0] * h, kernels.CORNERS[:, 1] * h
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
    sliver = area <= 1e-14 * h * h
    with np.errstate(divide="ignore", invalid="ignore"):
        gx = np.where(sliver, mx / m, sx / (6.0 * area))
        gy = np.where(sliver, my / m, sy / (6.0 * area))
    areas[i, j] = np.maximum(area, 0.0)
    cxs[i, j] = i * h + gx
    cys[i, j] = j * h + gy
    return areas, cxs, cys


def cell_quadrature(d):
    """(areas, cxs, cys): ``cell_geometry`` of ``d`` in global coordinates."""
    areas, cxs, cys = cell_geometry(d.ls, d.grid.h)
    x0, y0, _, _ = d.grid.box
    return areas, cxs + x0, cys + y0


def quadrature(d):
    """(weights, points) of the cells with area > 0, as ``d.quadrature``."""
    areas, cxs, cys = cell_quadrature(d)
    mask = areas > 0.0
    return areas[mask], np.stack([cxs[mask], cys[mask]], axis=-1)


def scale_domain(d, t):
    """Homothety t*Omega, every node blended from its source cell at x/t."""
    grid = d.grid
    i, tx = grid.split(grid.xs / t, 0)
    j, ty = grid.split(grid.ys / t, 1)
    lo, hi = d.ls[i], d.ls[i + 1]
    ls = _lerp2(lo[:, j], hi[:, j], lo[:, j + 1], hi[:, j + 1],
                tx[:, None], ty[None, :])
    if d.is_signed_distance:
        ls = t * ls
    return Domain(grid, ls, is_signed_distance=d.is_signed_distance)


def same_bits(a, b):
    """Equal shapes and equal float64 bit patterns, so ``-0.0 != 0.0``."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))
