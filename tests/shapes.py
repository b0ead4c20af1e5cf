"""Test domains and the rearrangement, inclusion and mode-fit checks that
only the tests use: random starshaped blobs and fields, Steiner
symmetrization, the mirror image on the grid, inclusion and the Fourier
modes of a boundary function."""

import numpy as np

from torsionshape import kernels
from torsionshape.domain import Domain, Field, build_domain
from torsionshape.errors import GridMismatch
from torsionshape.verify import CheckReport


def random_starshaped_blob(grid, rng, r0=1.0, amp=0.25, n_modes=4):
    """Random smooth starshaped domain r(theta) = r0 (1 + sum of Fourier bumps)."""
    coef = rng.uniform(-amp, amp, size=(2, n_modes)) / np.arange(1, n_modes + 1)
    pts = grid.nodes()
    r = np.hypot(pts[..., 0], pts[..., 1])
    theta = np.arctan2(pts[..., 1], pts[..., 0])
    rb = np.ones_like(theta)
    for m in range(1, n_modes + 1):
        rb += coef[0, m - 1] * np.cos(m * theta) + coef[1, m - 1] * np.sin(m * theta)
    return build_domain(grid, Field(r - r0 * np.maximum(rb, 0.2)))


def starshaped_field(X, Y, rng, centre, scale):
    """``(r - r_b(theta))`` times a random factor, about ``centre``: r_b has
    random modes 2..5 like the geometry benchmark's curves, so the field is
    no signed distance and its front runs along the diagonals too."""
    x, y = (X - centre[0]) / scale, (Y - centre[1]) / scale
    theta = np.arctan2(y, x)
    rb = np.ones_like(theta)
    for m in range(2, 6):
        c, s = rng.uniform(-0.15, 0.15, 2) / m
        rb += c * np.cos(m * theta) + s * np.sin(m * theta)
    return (np.hypot(x, y) - rb) * rng.uniform(0.3, 3.0)


def fourier_modes(points, ds, values, modes=6):
    """(A, B): the ds-weighted least-squares fit of ``values`` at ``points``
    by sum_m A_m cos m theta + B_m sin m theta, m <= modes, theta each
    point's angle about the origin; B_0 = 0."""
    theta = np.arctan2(points[:, 1], points[:, 0])
    m = np.arange(modes + 1)
    X = np.hstack([np.cos(np.outer(theta, m)), np.sin(np.outer(theta, m[1:]))])
    sw = np.sqrt(ds)
    c = np.linalg.lstsq(X * sw[:, None], values * sw, rcond=None)[0]
    return c[:modes + 1], np.concatenate(([0.0], c[modes + 1:]))


def radius_modes(samples, modes=6):
    """``fourier_modes`` of the boundary samples' radius r(theta)."""
    r = np.hypot(samples.points[:, 0], samples.points[:, 1])
    return fourier_modes(samples.points, samples.ds, r, modes)


def steiner_symmetrize(d, axis):
    """Recenter, per grid column, the inside length about the hyperplane x_axis=0.

    Column lengths come from the same cut-cell areas as ``volume`` (cell-column
    area / h, averaged onto node lines), so the rearrangement preserves the
    measured volume up to round-off.
    """
    grid = d.grid
    h = grid.h
    areas, _, _ = kernels.cell_geometry(d.ls, h, d.cells)
    col = np.sum(areas, axis=1 if axis == 1 else 0) / h
    coords = grid.ys if axis == 1 else grid.xs
    lengths = np.zeros(len(col) + 1)
    lengths[1:-1] = 0.5 * (col[:-1] + col[1:])
    lengths[0] = 0.5 * col[0]
    lengths[-1] = 0.5 * col[-1]
    new = np.abs(coords)[None, :] - 0.5 * lengths[:, None]
    new = np.where(lengths[:, None] > 0.0, new, np.abs(coords)[None, :] + h)
    out = new if axis == 1 else new.T
    # the tent field |coord| - L/2 is itself a valid level set; skipping a
    # reinitialization keeps the per-column volume exact
    return Domain(grid, out)


def reflect(d, axis):
    """Mirror image about the hyperplane x_axis = 0, by flipping ``ls`` on
    the grid: the reference for ``check_symmetry``'s mirrored samples.  The
    box must be symmetric about the hyperplane, so that the flip maps the
    grid onto itself."""
    lo, hi = d.grid.box[axis], d.grid.box[axis + 2]
    if abs(lo + hi) > 1e-9 * (hi - lo):
        raise GridMismatch("reflection needs a box symmetric about the axis")
    ls = d.ls[:, ::-1] if axis == 1 else d.ls[::-1, :]
    return Domain(d.grid, np.ascontiguousarray(ls),
                  is_signed_distance=d.is_signed_distance)


def check_inclusion(inner, outer, slack=None):
    """Every inside node of `inner` must be inside `outer` up to a boundary band."""
    if inner.grid.shape != outer.grid.shape or inner.grid.box != outer.grid.box:
        raise GridMismatch("domains must share a grid")
    slack = 2 * inner.grid.h if slack is None else slack
    # a Domain has an inside node, so the maximum is over a non-empty set
    outer_ls = np.where(inner.ls < 0.0, outer.ls, -np.inf)
    idx = np.unravel_index(np.argmax(outer_ls), outer_ls.shape)
    measured = max(float(outer_ls[idx]), 0.0)
    return CheckReport("inclusion", bool(measured <= slack), measured=measured,
                       tol=slack,
                       witness={"point": inner.grid.nodes()[idx].tolist()})
