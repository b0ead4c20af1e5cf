"""Numeric kernels against closed-form answers."""

import numpy as np
import pytest
from scipy import ndimage

import wholebox
from shapes import starshaped_field
from torsionshape import domain, kernels
from torsionshape.domain import (Domain, GridSpec, boundary_samples,
                                 reinitialize)
from wholebox import same_bits


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
    flip = kernels.neighbour_differs(ls < 0.0)
    dist = np.full(ls.shape, np.inf)
    dist[flip] = np.abs(ls[flip])
    n = ls.shape[0] - 1
    kernels.eikonal_solve(dist, flip, h, band=2 * n)  # the tube covers the grid
    # seeded from an exact distance field, the solve must reproduce it
    assert np.max(np.abs(dist - np.abs(ls))) < 3 * h


def _whole_grid_round(d, frozen, h, cap):
    """One Jacobi round over every node, the grid padded with the cap."""
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


def _eikonal_whole_grid(d, frozen, h, band):
    """Reference: clamp to the cap, then every round over the whole grid."""
    cap = band * h
    np.minimum(d, cap, out=d)
    for _ in range(2 * band + 2):
        _whole_grid_round(d, frozen, h, cap)
    return d


@pytest.mark.parametrize("centre, radius, band", [
    ((0.0, 0.0), 0.6, 8),    # the grown box lies inside the grid
    ((-1.5, -1.5), 0.3, 8),  # the grown box is clipped by two grid edges
    ((0.0, 0.0), 1.1, 192),  # band = 2n: the tube covers the grid
])
def test_eikonal_solve_on_the_box_matches_whole_grid(centre, radius, band):
    xs = np.linspace(-2.0, 2.0, 97)
    h = xs[1] - xs[0]
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    ls = np.hypot(X - centre[0], Y - centre[1]) - radius
    frozen = kernels.neighbour_differs(ls < 0.0)
    dist = np.full(ls.shape, np.inf)
    dist[frozen] = np.abs(ls[frozen])
    ref = _eikonal_whole_grid(dist.copy(), frozen, h, band)
    assert np.array_equal(kernels.eikonal_solve(dist, frozen, h, band), ref)


def _case_ls(case, rng):
    """(ls, h) on the 96² grid on [-2, 2]², or on the geometry benchmark's
    384² grid for a case ending in ``n=384``: a random starshaped field that
    is centred, that lies in a corner, or that has two components."""
    n = 384 if case.endswith("n=384") else 96
    xs = np.linspace(-2.0, 2.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    if case.startswith("centred"):
        ls = starshaped_field(X, Y, rng, (0.0, 0.0), 1.0)
    elif case == "clipped":
        ls = starshaped_field(X, Y, rng, (-1.55, 1.5), 0.3)
    else:
        ls = np.minimum(starshaped_field(X, Y, rng, (-0.9, 0.1), 0.6),
                        starshaped_field(X, Y, rng, (0.8, -0.4), 0.7))
        assert ndimage.label(ls < 0.0)[1] == 2
    return ls, xs[1] - xs[0]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("case, band", [
    ("centred", 8),
    ("clipped", 8),        # the grown box is clipped by two grid edges
    ("two components", 8),
    ("centred", 192),      # band = 2n: the tube covers the grid
    ("centred at n=384", 8),
    ("centred, unfrozen seeds", 8),
])
def test_eikonal_solve_matches_whole_grid_on_random_fields(case, band, seed):
    rng = np.random.default_rng([seed, len(case), band])
    ls, h = _case_ls(case, rng)
    frozen = kernels.neighbour_differs(ls < 0.0)
    dist = np.full(ls.shape, np.inf)
    dist[frozen] = np.abs(ls[frozen])
    if case.endswith("unfrozen seeds"):
        # nodes below the cap that seed the rounds and are still updated
        loose = (np.abs(ls) < 4 * h) & ~frozen & (rng.random(ls.shape) < 0.05)
        dist[loose] = rng.uniform(0.0, band * h, np.count_nonzero(loose))
    ref = _eikonal_whole_grid(dist.copy(), frozen, h, band)
    assert np.count_nonzero(ref < band * h) > np.count_nonzero(frozen)
    if case.endswith("unfrozen seeds"):
        assert np.any(ref[loose] < dist[loose])
    assert np.array_equal(kernels.eikonal_solve(dist, frozen, h, band), ref)


@pytest.mark.parametrize("shape, frac", [((97, 97), 0.0), ((97, 97), 0.01),
                                          ((129, 97), 0.3), ((1, 5), 1.0)])
def test_nonzero_2d_matches_np_nonzero(shape, frac):
    mask = np.random.default_rng(3).random(shape) < frac
    for got, ref in zip(kernels.nonzero_2d(mask), np.nonzero(mask)):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


@pytest.mark.parametrize("steps", [1, 12, 40])
@pytest.mark.parametrize("case", ["centred", "clipped", "two components"])
def test_grow_4_matches_binary_dilation(case, steps):
    ls, _ = _case_ls(case, np.random.default_rng([7, len(case)]))
    seed = kernels.neighbour_differs(ls < 0.0)
    ref = ndimage.binary_dilation(seed, iterations=steps)
    assert np.count_nonzero(ref) > np.count_nonzero(seed)
    ring = kernels.grow_4(seed, steps)
    assert np.array_equal(ring <= steps, ref)
    assert np.all(ring[~ref] == steps + 1)
    # each ring is the shell that one more dilation adds
    assert np.array_equal(ring == 0, seed)
    for k in range(1, steps + 1):
        assert np.array_equal(ring <= k,
                              ndimage.binary_dilation(seed, iterations=k))
    # and on a box the grown tube reaches the edge of, as eikonal_solve's
    box = (slice(20, 80), slice(5, 60))
    assert np.array_equal(kernels.grow_4(seed[box], steps) <= steps,
                          ndimage.binary_dilation(seed[box], iterations=steps))


@pytest.mark.parametrize("seed", range(3))
def test_reinitialize_matches_full_grid_reference(seed):
    # |grad ls| from np.gradient over the whole grid, then the eikonal solve
    # over the whole grid
    grid = GridSpec(96, 96, (-2.0, -2.0, 2.0, 2.0))
    X, Y = np.moveaxis(grid.nodes(), -1, 0)
    ls = starshaped_field(X, Y, np.random.default_rng(seed), (0.1, -0.2), 1.0)
    h = grid.h
    flip = kernels.neighbour_differs(ls < 0.0)
    gx, gy = np.gradient(ls, h)
    gn = np.clip(np.hypot(gx, gy), 0.2, 5.0)
    dist = np.full(ls.shape, np.inf)
    dist[flip] = np.abs(ls[flip]) / gn[flip]
    dist = _eikonal_whole_grid(dist, flip, h, domain.REINIT_BAND_CELLS)
    out = reinitialize(Domain(grid, ls))
    assert out.is_signed_distance
    assert np.array_equal(out.ls, np.where(ls < 0.0, -dist, dist))


def test_eikonal_solve_without_a_node_below_the_cap():
    d = np.full((9, 9), np.inf)
    kernels.eikonal_solve(d, np.zeros(d.shape, dtype=bool), 0.5, band=2)
    assert np.all(d == 1.0)


@pytest.mark.parametrize("n", [128, 384])
def test_banded_eikonal_rounds_do_not_grow_with_n(n, monkeypatch):
    grid = GridSpec(n, n, (-2.0, -2.0, 2.0, 2.0))
    pts = grid.nodes()
    ls = (pts[..., 0] / 1.3) ** 2 + (pts[..., 1] / 0.7) ** 2 - 1.0
    d = Domain(grid, ls)
    rounds = []
    calls = []
    one_round = kernels._eikonal_round
    solve = kernels.eikonal_solve

    def counted(p, nb, m, h):
        rounds.append((m, nb.shape[1]))
        return one_round(p, nb, m, h)

    def seen(dist, frozen, h, band):
        calls.append((dist < band * h, frozen.copy(), band))
        return solve(dist, frozen, h, band)

    monkeypatch.setattr(kernels, "_eikonal_round", counted)
    monkeypatch.setattr(kernels, "eikonal_solve", seen)
    reinitialize(d)
    assert len(rounds) == 2 * domain.REINIT_BAND_CELLS + 2
    # round k updates the non-frozen nodes within min(k, R) links of a seed,
    # R = floor(band*sqrt(2)); the tube leaves out ring ceil(band*sqrt(2))
    [(seed, frozen, band)] = calls
    reach = int(np.floor(band * np.sqrt(2.0)))
    assert reach + 1 == np.ceil(band * np.sqrt(2.0))

    def within(k):
        grown = ndimage.binary_dilation(seed, iterations=k)
        return np.count_nonzero(grown & ~frozen)

    for k, (m, tube) in enumerate(rounds, start=1):
        assert m == within(min(k, reach))
        assert tube == within(reach) < within(reach + 1)


def test_cell_geometry_ball_area(ball_ls):
    ls, h = ball_ls
    areas, _, _ = kernels.cell_geometry(ls, h, kernels.mixed_cells(ls))
    assert np.sum(areas) == pytest.approx(np.pi * 1.1 ** 2, rel=1e-3)


def test_cell_geometry_linear_field_is_exact_clip():
    ls, xs, h, (a, b, c) = _linear_ls()
    cells = kernels.mixed_cells(ls)
    areas, cx, cy = kernels.cell_geometry(ls, h, cells)
    ref_areas, cxs, cys = wholebox.cell_geometry(ls, h)
    i, j = cells[:2]
    assert len(i) > 40
    assert same_bits(areas, ref_areas)
    assert same_bits(cx, cxs[i, j]) and same_bits(cy, cys[i, j])
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
    areas, _, _ = kernels.cell_geometry(d.ls, h, d.cells)
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
    areas, _, _ = kernels.cell_geometry(ls, h, kernels.mixed_cells(ls))
    assert np.sum(areas) == 4.0
    assert set(np.unique(areas)) == {0.0, h * h}
