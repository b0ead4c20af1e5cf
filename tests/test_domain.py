"""Level-set domains: seeds, quadrature, boundary extraction, rearrangements."""

import numpy as np
import pytest

from torsionshape import (Ball, Domain, Ellipse, GridSpec, Sublevel,
                          boundary_samples, build_domain, hausdorff_distance,
                          load_domain, reinitialize, save_domain, scale_domain,
                          schwarz_symmetrize, steiner_symmetrize, volume)
from torsionshape import domain as domain_mod
from torsionshape.domain import (Field, connected_components,
                                 random_starshaped_blob, reflect,
                                 save_boundary)
from torsionshape.errors import (DegenerateBoundary, EmptyDomain, GridMismatch,
                                 OutOfBox)
from torsionshape.weight import radial_weight

BOX = (-2.0, -2.0, 2.0, 2.0)


def _radii(d):
    s = boundary_samples(d)
    return np.hypot(s.points[:, 0], s.points[:, 1])


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(8, 8, BOX)
    with pytest.raises(ValueError):
        GridSpec(64, 64, (0.5, -2.0, 2.0, 2.0))   # origin not interior
    with pytest.raises(ValueError):
        GridSpec(64, 32, BOX)                     # non-uniform spacing
    g = GridSpec(256, 256, BOX)
    assert g.h == pytest.approx(1.0 / 64.0)
    assert g.shape == (257, 257)


def test_build_ball_is_exact_signed_distance(grid256):
    d = build_domain(grid256, Ball(radius=1.0))
    pts = grid256.nodes()
    assert np.allclose(d.ls, np.hypot(pts[..., 0], pts[..., 1]) - 1.0)
    assert d.is_signed_distance


def test_build_sublevel_seed_is_oracle_ball(grid256):
    w = radial_weight(0.5, 2.0)
    d = build_domain(grid256, Sublevel(w, 1.0))
    r = _radii(d)
    assert np.all(np.abs(r - np.sqrt(2.0)) < 2 * grid256.h)


def test_build_rejects_margin_violation(grid128):
    with pytest.raises(OutOfBox):
        build_domain(grid128, Ball(radius=1.95))


def test_build_rejects_empty_interior(grid128):
    with pytest.raises(EmptyDomain):
        build_domain(grid128, Field(np.ones(grid128.shape)))


def test_volume_unit_ball(grid256):
    d = build_domain(grid256, Ball(radius=1.0))
    assert volume(d) == pytest.approx(np.pi, rel=1e-3)


def test_volume_aligned_square(grid256):
    pts = grid256.nodes()
    ls = np.maximum(np.abs(pts[..., 0]), np.abs(pts[..., 1])) - 0.5
    d = Domain(grid256, ls)
    assert volume(d) == pytest.approx(1.0, abs=1e-6)


def test_volume_scales_quadratically(grid256):
    d = build_domain(grid256, Ball(radius=0.8))
    d2 = scale_domain(d, 2.0)
    assert volume(d2) == pytest.approx(4.0 * volume(d), rel=1e-3)


def test_boundary_perimeter_unit_ball(grid256):
    s = boundary_samples(build_domain(grid256, Ball(radius=1.0)))
    assert s.perimeter == pytest.approx(2 * np.pi, rel=1e-2)


def test_boundary_normals_radial(grid256):
    s = boundary_samples(build_domain(grid256, Ball(radius=1.0)))
    radial = s.points / np.linalg.norm(s.points, axis=1, keepdims=True)
    angle = np.arccos(np.clip(np.sum(s.normals * radial, axis=1), -1.0, 1.0))
    assert np.max(angle) < 1e-2
    assert np.allclose(np.linalg.norm(s.normals, axis=1), 1.0, atol=1e-8)


def test_boundary_requires_zero_crossing(grid128):
    d = Domain(grid128, -np.ones(grid128.shape))  # inside everywhere
    with pytest.raises(DegenerateBoundary):
        boundary_samples(d)


def test_scale_domain_dilates_ball(grid256):
    d = build_domain(grid256, Ball(radius=1.0))
    r = _radii(scale_domain(d, 1.3))
    assert np.all(np.abs(r - 1.3) < 2 * grid256.h)


def test_scale_domain_identity(grid128):
    d = build_domain(grid128, Ball(radius=1.0))
    assert np.allclose(scale_domain(d, 1.0).ls, d.ls)


def test_scale_domain_roundtrip(grid128):
    d = random_starshaped_blob(grid128, np.random.default_rng(5), r0=0.9, amp=0.2)
    back = scale_domain(scale_domain(d, 1.25), 0.8)
    assert hausdorff_distance(d, back) <= 2 * grid128.h


def test_reinitialize_gradient_near_boundary(grid128):
    pts = grid128.nodes()
    ls = (pts[..., 0] / 1.4) ** 2 + (pts[..., 1] / 0.7) ** 2 - 1.0  # not a distance
    d = reinitialize(Domain(grid128, ls))
    h = grid128.h
    gx = np.gradient(d.ls, h, axis=0)
    gy = np.gradient(d.ls, h, axis=1)
    gn = np.hypot(gx, gy)
    band = np.abs(d.ls) < 5 * h
    band[:2, :] = band[-2:, :] = band[:, :2] = band[:, -2:] = False
    assert np.all(np.abs(gn[band] - 1.0) < 0.10)


def test_banded_reinitialize_matches_full_solve_in_tube(grid128, monkeypatch):
    pts = grid128.nodes()
    ls = (pts[..., 0] / 1.3) ** 2 + (pts[..., 1] / 0.7) ** 2 - 1.0  # not a distance
    d = Domain(grid128, ls)
    width = domain_mod.REINIT_BAND_CELLS * grid128.h
    banded = reinitialize(d).ls
    # a tube twice the grid's width holds every node: the full solve
    monkeypatch.setattr(domain_mod, "REINIT_BAND_CELLS", 2 * grid128.nx)
    full = reinitialize(d).ls
    tube = np.abs(full) < width
    assert np.max(np.abs(banded[tube] - full[tube])) <= 1e-9
    assert np.array_equal(np.sign(banded), np.sign(ls))
    assert np.max(np.abs(banded)) <= width
    assert np.all(np.abs(banded[~tube]) == width)
    assert np.max(np.abs(full)) > width  # the band does cut the far field


def test_steiner_recenters_offset_ball(grid128):
    d = build_domain(grid128, Ball(center=(0.0, 0.7), radius=0.8))
    sym = steiner_symmetrize(d, axis=1)
    ref = build_domain(grid128, Ball(radius=0.8))
    assert hausdorff_distance(sym, ref) <= 2 * grid128.h


def test_steiner_fixed_point_on_symmetric_rectangle(grid128):
    pts = grid128.nodes()
    ls = np.maximum(np.abs(pts[..., 0]) / 1.2, np.abs(pts[..., 1]) / 0.6) - 1.0
    d = build_domain(grid128, Field(ls))
    sym = steiner_symmetrize(d, axis=1)
    assert hausdorff_distance(sym, d) <= 2 * grid128.h


def test_steiner_merges_stacked_intervals(grid128):
    pts = grid128.nodes()
    b1 = np.hypot(pts[..., 0], pts[..., 1] - 0.8) - 0.4
    b2 = np.hypot(pts[..., 0], pts[..., 1] + 0.8) - 0.4
    d = build_domain(grid128, Field(np.minimum(b1, b2)))
    assert connected_components(d) == 2
    sym = steiner_symmetrize(d, axis=1)
    assert connected_components(sym) == 1
    assert volume(sym) == pytest.approx(volume(d), rel=2e-3)
    assert hausdorff_distance(sym, reflect(sym, 1)) <= 2 * grid128.h


def test_steiner_idempotent(grid128):
    d = random_starshaped_blob(grid128, np.random.default_rng(9), r0=0.9, amp=0.2)
    once = steiner_symmetrize(d, axis=0)
    twice = steiner_symmetrize(once, axis=0)
    assert hausdorff_distance(once, twice) <= 2 * grid128.h


def test_steiner_preserves_volume(grid128):
    rng = np.random.default_rng(13)
    for _ in range(5):
        d = random_starshaped_blob(grid128, rng, r0=0.9, amp=0.2)
        for axis in (0, 1):
            assert volume(steiner_symmetrize(d, axis)) == pytest.approx(
                volume(d), rel=1e-3)


def test_schwarz_equal_area_ellipse(grid256):
    d = build_domain(grid256, Ellipse(1.6, 0.625))
    sym = schwarz_symmetrize(d)
    r = _radii(sym)
    assert np.all(np.abs(r - 1.0) < 2 * grid256.h)


def test_schwarz_fixed_point_on_ball(grid128):
    d = build_domain(grid128, Ball(radius=0.9))
    assert hausdorff_distance(schwarz_symmetrize(d), d) <= grid128.h


def test_schwarz_preserves_volume(grid128):
    rng = np.random.default_rng(17)
    for _ in range(5):
        d = random_starshaped_blob(grid128, rng, r0=0.9, amp=0.2)
        assert volume(schwarz_symmetrize(d)) == pytest.approx(volume(d), rel=1e-3)


def test_hausdorff_identical_domains(grid128):
    d = build_domain(grid128, Ball(radius=1.0))
    assert hausdorff_distance(d, d) <= grid128.h


def test_hausdorff_concentric_balls(grid128):
    d1 = build_domain(grid128, Ball(radius=1.0))
    d2 = build_domain(grid128, Ball(radius=1.2))
    assert hausdorff_distance(d1, d2) == pytest.approx(0.2, abs=2 * grid128.h)


def test_hausdorff_reflected_balls(grid128):
    c = 0.5
    d1 = build_domain(grid128, Ball(center=(c, 0.0), radius=0.8))
    d2 = build_domain(grid128, Ball(center=(-c, 0.0), radius=0.8))
    assert hausdorff_distance(d1, d2) == pytest.approx(2 * c, abs=2 * grid128.h)


def test_hausdorff_requires_matching_grid(grid64, grid128):
    with pytest.raises(GridMismatch):
        hausdorff_distance(build_domain(grid64, Ball(radius=1.0)),
                           build_domain(grid128, Ball(radius=1.0)))


def test_domain_roundtrip_csv(tmp_path, grid64):
    d = build_domain(grid64, Ball(radius=1.1))
    path = tmp_path / "domain.csv"
    save_domain(d, path)
    d2 = load_domain(path)
    assert d2.grid.shape == d.grid.shape
    assert d2.grid.box == d.grid.box
    assert np.allclose(d2.ls, d.ls)


def test_boundary_csv_format(tmp_path, grid64):
    s = boundary_samples(build_domain(grid64, Ball(radius=1.0)))
    path = tmp_path / "boundary.csv"
    save_boundary(s, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,nx,ny,ds"
    assert len(lines) == len(s) + 1
    row = np.loadtxt(path, delimiter=",", skiprows=1)
    assert row.shape == (len(s), 5)
