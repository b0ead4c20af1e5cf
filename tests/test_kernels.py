"""Numeric kernels against closed-form answers."""

import numpy as np
import pytest

from torsionshape import domain, kernels
from torsionshape.domain import (Domain, GridSpec, boundary_samples,
                                 reinitialize)


@pytest.fixture(scope="module")
def ball_ls():
    n = 96
    xs = np.linspace(-2.0, 2.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    ls = np.ascontiguousarray(np.hypot(X, Y) - 1.1)
    return ls, xs[1] - xs[0]


def _linear_ls(n=32, angle=0.7, offset=0.123):
    """Half-plane {a.x < offset} with |a| = 1, on [-2, 2]^2."""
    xs = np.linspace(-2.0, 2.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    ls = np.ascontiguousarray(np.cos(angle) * X + np.sin(angle) * Y - offset)
    return ls, xs, xs[1] - xs[0], (np.cos(angle), np.sin(angle), offset)


def _clip_square(x0, y0, h, a, b, c):
    """Area and centroid of [x0, x0+h] x [y0, y0+h] clipped to a x + b y < c."""
    sq = [(x0, y0), (x0 + h, y0), (x0 + h, y0 + h), (x0, y0 + h)]
    f = [a * x + b * y - c for x, y in sq]
    poly = []
    for k in range(4):
        k2 = (k + 1) % 4
        if f[k] < 0.0:
            poly.append(sq[k])
        if (f[k] < 0.0) != (f[k2] < 0.0):
            s = f[k] / (f[k] - f[k2])
            poly.append((sq[k][0] + s * (sq[k2][0] - sq[k][0]),
                         sq[k][1] + s * (sq[k2][1] - sq[k][1])))
    # fan of triangles from the first vertex
    area = mx = my = 0.0
    (px, py) = poly[0]
    for (qx, qy), (rx, ry) in zip(poly[1:-1], poly[2:]):
        t = 0.5 * ((qx - px) * (ry - py) - (rx - px) * (qy - py))
        area += t
        mx += t * (px + qx + rx) / 3.0
        my += t * (py + qy + ry) / 3.0
    return area, mx / area, my / area


def test_poisson_matvec_matches_stencil(ball_ls):
    ls, h = ball_ls
    rng = np.random.default_rng(0)
    shape = ls.shape
    diag, cw, ce, cs, cn = [rng.uniform(0.5, 2.0, shape) for _ in range(5)]
    # couplings that would reach past the grid edge are zero in assembled systems
    cw[0, :] = ce[-1, :] = cs[:, 0] = cn[:, -1] = 0.0
    p = rng.normal(size=shape)
    out = kernels.poisson_matvec(diag, cw, ce, cs, cn, p)
    pad = np.pad(p, 1)
    ref = (diag * p - cw * pad[:-2, 1:-1] - ce * pad[2:, 1:-1]
           - cs * pad[1:-1, :-2] - cn * pad[1:-1, 2:])
    assert np.array_equal(out, ref)


@pytest.mark.parametrize("speed", [0.8, -0.8])
def test_advect_step_constant_speed_on_linear_field(speed):
    ls, _, h, _ = _linear_ls()
    dt = 0.4 * h
    out = kernels.advect_step(ls, np.full_like(ls, speed), h, dt)
    assert np.max(np.abs(out - (ls - dt * speed))) < 1e-12


def test_advect_step_moves_interface_outward(ball_ls):
    ls, h = ball_ls
    vn = np.ones_like(ls)
    out = kernels.advect_step(ls, vn, h, 0.4 * h)
    interior = np.abs(ls) < 0.5
    assert np.all(out[interior] < ls[interior])  # positive speed expands {ls<0}


def test_eikonal_solve_reproduces_ball_distance(ball_ls):
    ls, h = ball_ls
    inside = ls < 0.0
    flip = np.zeros_like(inside)
    flip[:-1, :] |= inside[:-1, :] != inside[1:, :]
    flip[1:, :] |= inside[:-1, :] != inside[1:, :]
    flip[:, :-1] |= inside[:, :-1] != inside[:, 1:]
    flip[:, 1:] |= inside[:, :-1] != inside[:, 1:]
    dist = np.full(ls.shape, np.inf)
    dist[flip] = np.abs(ls[flip])
    n = ls.shape[0] - 1
    kernels.eikonal_solve(dist, flip, h, band=2 * n)  # the tube covers the grid
    # seeded from an exact distance field, the solve must reproduce it
    assert np.max(np.abs(dist - np.abs(ls))) < 3 * h


@pytest.mark.parametrize("n", [128, 384])
def test_banded_eikonal_rounds_do_not_grow_with_n(n, monkeypatch):
    grid = GridSpec(n, n, (-2.0, -2.0, 2.0, 2.0))
    pts = grid.nodes()
    ls = (pts[..., 0] / 1.3) ** 2 + (pts[..., 1] / 0.7) ** 2 - 1.0
    d = Domain(grid, ls)
    rounds = []
    one_round = kernels._eikonal_round

    def counted(*args):
        rounds.append(1)
        return one_round(*args)

    monkeypatch.setattr(kernels, "_eikonal_round", counted)
    reinitialize(d)
    assert len(rounds) == 2 * domain.REINIT_BAND_CELLS + 2


def test_cell_geometry_ball_area(ball_ls):
    ls, h = ball_ls
    areas, _, _ = kernels.cell_geometry(ls, h)
    assert np.sum(areas) == pytest.approx(np.pi * 1.1 ** 2, rel=1e-3)


def test_cell_geometry_linear_field_is_exact_clip():
    ls, xs, h, (a, b, c) = _linear_ls()
    areas, cxs, cys = kernels.cell_geometry(ls, h)
    i, j = kernels.mixed_cells(ls)[:2]
    assert len(i) > 40
    for ii, jj in zip(i, j):
        # cell_geometry works in box-local coordinates
        area, mx, my = _clip_square(xs[ii], xs[jj], h, a, b, c)
        assert abs(areas[ii, jj] - area) < 1e-12
        assert abs(cxs[ii, jj] + xs[0] - mx) < 1e-12
        assert abs(cys[ii, jj] + xs[0] - my) < 1e-12


def _saddle_domain():
    grid = GridSpec(16, 16, (-2.0, -2.0, 2.0, 2.0))
    ls = np.ones(grid.shape)
    ls[8, 8] = ls[9, 9] = -1.0  # cell (8, 8) has corners (-1, 1, -1, 1)
    return Domain(grid, ls)


def test_saddle_cell_area_and_chords():
    d = _saddle_domain()
    h = d.grid.h
    areas, _, _ = kernels.cell_geometry(d.ls, h)
    assert areas[8, 8] == pytest.approx(0.75 * h * h, rel=1e-14)
    s = boundary_samples(d)
    x0, y0 = d.grid.xs[8], d.grid.ys[8]
    in_cell = ((s.points[:, 0] > x0) & (s.points[:, 0] < x0 + h)
               & (s.points[:, 1] > y0) & (s.points[:, 1] < y0 + h))
    assert np.count_nonzero(in_cell) == 2
    # each chord cuts off one outside corner of the saddle cell
    assert np.allclose(s.ds[in_cell], h / np.sqrt(2.0), rtol=1e-14)
    pts = s.points[in_cell]
    pts = pts[np.argsort(pts[:, 0])]
    mids = np.array([[x0 + 0.25 * h, y0 + 0.75 * h], [x0 + 0.75 * h, y0 + 0.25 * h]])
    assert np.allclose(pts, mids, rtol=0.0, atol=1e-14)


def test_cell_geometry_grid_aligned_square_is_exact():
    # nodes sit on x, y = +-1, so every boundary cell has two node zeros;
    # counting on-interface corners flanked by inside nodes keeps them full
    xs = np.linspace(-2.0, 2.0, 33)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    ls = np.maximum(np.abs(X), np.abs(Y)) - 1.0
    h = xs[1] - xs[0]
    areas, _, _ = kernels.cell_geometry(ls, h)
    assert np.sum(areas) == 4.0
    assert set(np.unique(areas)) == {0.0, h * h}
