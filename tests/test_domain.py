"""Level-set domains: seeds, quadrature, boundary extraction, rearrangements."""

import io

import numpy as np
import pytest

import wholebox
from shapes import (random_starshaped_blob, reflect, starshaped_field,
                    steiner_symmetrize)
from torsionshape import (Ball, Domain, Ellipse, GridSpec, Sublevel,
                          boundary_samples, build_domain, hausdorff_distance,
                          load_domain, reinitialize, save_domain, scale_domain,
                          volume)
from torsionshape import domain as domain_mod
from torsionshape import kernels
from torsionshape.domain import (Field, connected_components,
                                 interp_bilinear, save_boundary, write_csv)
from torsionshape.errors import EmptyDomain, GridMismatch, NonFinite, OutOfBox
from torsionshape.torsion import solve_torsion
from torsionshape.weight import radial_weight
from wholebox import same_bits

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
    assert np.sum(s.ds) == pytest.approx(2 * np.pi, rel=1e-2)


def test_boundary_normals_radial(grid256):
    s = boundary_samples(build_domain(grid256, Ball(radius=1.0)))
    radial = s.points / np.linalg.norm(s.points, axis=1, keepdims=True)
    angle = np.arccos(np.clip(np.sum(s.normals * radial, axis=1), -1.0, 1.0))
    assert np.max(angle) < 1e-2
    assert np.allclose(np.linalg.norm(s.normals, axis=1), 1.0, atol=1e-8)


# the grids the front-only sweeps are checked on: square, non-square, and a
# box that is not symmetric about the origin
SWEEP_GRIDS = {
    "128x128": GridSpec(128, 128, BOX),
    "128x96": GridSpec(128, 96, (-2.0, -1.5, 2.0, 1.5)),
    "160x128-lopsided": GridSpec(160, 128, (-2.0, -2.0, 3.0, 2.0)),
}


def _sweep_domain(grid, signed, seed=0):
    """A small domain off the origin: a redistanced random blob, or a
    quadratic field that is no signed distance and has no clamped plateau."""
    pts = grid.nodes()
    if signed:
        d = random_starshaped_blob(grid, np.random.default_rng(seed), r0=0.55)
        assert d.is_signed_distance
        return d
    x, y = pts[..., 0] - 0.2, pts[..., 1] + 0.1
    return Domain(grid, (x / 0.6) ** 2 + (y / 0.45) ** 2 + 0.3 * x * y - 1.0)


@pytest.mark.parametrize("signed", [True, False], ids=["sdf", "raw"])
@pytest.mark.parametrize("name", SWEEP_GRIDS)
def test_boundary_normals_match_gradient_then_interpolation(name, signed):
    grid = SWEEP_GRIDS[name]
    d = _sweep_domain(grid, signed)
    s = boundary_samples(d)
    gx, gy = np.gradient(d.ls, grid.h)
    nx = interp_bilinear(gx, grid, s.points)
    ny = interp_bilinear(gy, grid, s.points)
    nrm = np.hypot(nx, ny)
    ref = np.stack([nx / nrm, ny / nrm], axis=-1)
    # orientation is the walk's, checked in test_boundary_normals_radial
    sign = np.where(np.sum(s.normals * ref, axis=1) < 0.0, -1.0, 1.0)
    assert len(s) > 100
    assert np.array_equal(s.normals, sign[:, None] * ref)


@pytest.mark.parametrize("t", [0.5, 0.9, 1.0, 1.1, 1.7])
@pytest.mark.parametrize("signed", [True, False], ids=["sdf", "raw"])
@pytest.mark.parametrize("name", SWEEP_GRIDS)
def test_scale_domain_matches_bilinear_resampling(name, signed, t):
    grid = SWEEP_GRIDS[name]
    d = _sweep_domain(grid, signed)
    ref = interp_bilinear(d.ls, grid, grid.nodes() / t)
    if signed:
        ref = t * ref
    out = scale_domain(d, t)
    assert out.is_signed_distance == signed
    assert np.array_equal(out.ls, ref)


def _random_field(grid, seed):
    """A random starshaped field about an off-centre point, with no plateau."""
    X, Y = np.moveaxis(grid.nodes(), -1, 0)
    return starshaped_field(X, Y, np.random.default_rng([seed, grid.nx, grid.ny]),
                            (0.15, -0.1), 0.6)


def _aligned_square(zero=0.0):
    """max(|x|, |y|) < 1 at 32² on [-2, 2]²: the nodes on x, y = +-1 hold
    ``zero``, and with ``zero = -0.0`` so does a 5x5 hole at the centre,
    whose cells are flat at -0.0."""
    grid = GridSpec(32, 32, BOX)
    pts = grid.nodes()
    ls = np.maximum(np.abs(pts[..., 0]), np.abs(pts[..., 1])) - 1.0
    ls[ls == 0.0] = zero
    if np.signbit(zero):
        ls[14:19, 14:19] = zero
    return Domain(grid, ls)


# the cases the front-only quadrature and homothety are checked on against
# their whole-box forms: redistanced and raw random fields on every sweep
# grid, and the grid-aligned square
WHOLE_BOX_CASES = [f"{kind}/{name}/seed{seed}" for name in SWEEP_GRIDS
                   for kind in ("sdf", "raw") for seed in (0, 1)]
WHOLE_BOX_CASES += ["square-32", "square-32-signed-zeros"]


def _whole_box_case(case):
    if case.startswith("square"):
        return _aligned_square(-0.0 if case.endswith("zeros") else 0.0)
    kind, name, seed = case.split("/")
    grid = SWEEP_GRIDS[name]
    d = Domain(grid, _random_field(grid, int(seed[4:])))
    return reinitialize(d) if kind == "sdf" else d


@pytest.mark.parametrize("case", WHOLE_BOX_CASES)
def test_quadrature_and_volume_match_whole_box(case):
    d = _whole_box_case(case)
    weights, points = d.quadrature
    ref_weights, ref_points = wholebox.quadrature(d)
    assert len(weights) > 100
    assert same_bits(weights, ref_weights)
    assert same_bits(points, ref_points)
    areas, _, _ = wholebox.cell_geometry(d.ls, d.grid.h)
    assert same_bits(volume(d), float(np.sum(areas)))


@pytest.mark.parametrize("t", [0.8, 0.9, 1.1, 1.25])
@pytest.mark.parametrize("case", WHOLE_BOX_CASES)
def test_scale_domain_matches_whole_box(case, t):
    d = _whole_box_case(case)
    out = scale_domain(d, t)
    ref = wholebox.scale_domain(d, t)
    assert out.is_signed_distance == ref.is_signed_distance
    assert same_bits(out.ls, ref.ls)


def test_one_domain_finds_its_cut_cells_once(grid128, monkeypatch):
    d = reinitialize(Domain(grid128, _random_field(grid128, 0)))
    calls = []
    find = kernels.mixed_cells

    def counted(ls):
        calls.append(1)
        return find(ls)

    monkeypatch.setattr(kernels, "mixed_cells", counted)
    for _ in range(2):
        assert len(d.samples) > 0 and len(d.quadrature[0]) > 0
        assert volume(d) > 0.0
    assert len(calls) == 1
    for a in d.cells:
        with pytest.raises(ValueError):
            a[0] = 0


def test_out_of_box_names_grid_margin_and_sides():
    grid = SWEEP_GRIDS["128x96"]
    pts = grid.nodes()
    # the front reaches into the frame at y = +-1.5 only
    ls = np.hypot(pts[..., 0] / 1.2, pts[..., 1] / 1.45) - 1.0
    with pytest.raises(OutOfBox) as err:
        Domain(grid, ls)
    msg = str(err.value)
    assert "4-cell" in msg and "grid 128x96" in msg
    assert "box [-2.0, -1.5, 2.0, 1.5]" in msg
    assert "side(s) y0, y1 " in msg
    lop = SWEEP_GRIDS["160x128-lopsided"]
    pts = lop.nodes()
    with pytest.raises(OutOfBox, match=r"side\(s\) x1 of grid 160x128"):
        Domain(lop, np.hypot(pts[..., 0] - 2.7, pts[..., 1]) - 0.3)
    with pytest.raises(EmptyDomain, match="grid 128x96"):
        Domain(grid, np.ones(grid.shape))


def test_boundary_requires_zero_crossing(grid128):
    # inside everywhere: the front cannot cross any cell, and the frame is in
    with pytest.raises(OutOfBox):
        Domain(grid128, -np.ones(grid128.shape))


def _ring_in_margin(grid):
    """A ball whose front runs through the frame of the box, inside the box."""
    pts = grid.nodes()
    return np.hypot(pts[..., 0], pts[..., 1]) - (2.0 - 2 * grid.h)


def _ball_with_nan_and_inf(grid):
    """A unit ball with NaN at its centre and inf on the frame."""
    pts = grid.nodes()
    ls = np.hypot(pts[..., 0], pts[..., 1]) - 1.0
    ls[grid.nx // 2, grid.ny // 2] = np.nan
    ls[0, 0] = np.inf
    return ls


@pytest.mark.parametrize("make_ls, error", [
    (lambda g: np.full((g.nx, g.ny), -1.0), GridMismatch),
    (lambda g: np.ones(g.shape), EmptyDomain),
    (_ring_in_margin, OutOfBox),
    (_ball_with_nan_and_inf, NonFinite),
], ids=["wrong-shape", "no-interior", "front-in-margin", "non-finite"])
def test_domain_is_valid_by_construction(grid64, make_ls, error):
    with pytest.raises(error):
        Domain(grid64, make_ls(grid64), is_signed_distance=True)


def test_non_finite_level_set_names_its_count(grid64):
    with pytest.raises(NonFinite, match="holds 2 non-finite values"):
        Domain(grid64, _ball_with_nan_and_inf(grid64))


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


def test_scale_domain_keeps_the_clamped_plateau_flat(grid128):
    # a node whose four bilinear source nodes all hold the clamp value
    # holds exactly +-t * cap, so the plateau stays flat and an upwind step
    # leaves it unchanged
    d = build_domain(grid128, Ellipse(1.3, 0.7))
    cap = float(np.max(np.abs(d.ls)))
    t = 1.1
    x0, y0, _, _ = grid128.box
    src = grid128.nodes() / t
    i = ((src[..., 0] - x0) / grid128.h).astype(int)
    j = ((src[..., 1] - y0) / grid128.h).astype(int)
    at_cap = np.abs(d.ls) == cap
    clamped = (at_cap[i, j] & at_cap[i + 1, j] & at_cap[i, j + 1]
               & at_cap[i + 1, j + 1])
    out = scale_domain(d, t).ls
    assert np.count_nonzero(clamped) > grid128.shape[0]
    assert np.all(np.abs(out[clamped]) == t * cap)


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
    sym = build_domain(grid256, Ball(radius=np.sqrt(volume(d) / np.pi)))
    r = _radii(sym)
    assert np.all(np.abs(r - 1.0) < 2 * grid256.h)


def test_schwarz_fixed_point_on_ball(grid128):
    d = build_domain(grid128, Ball(radius=0.9))
    sym = build_domain(grid128, Ball(radius=np.sqrt(volume(d) / np.pi)))
    assert hausdorff_distance(sym, d) <= grid128.h


def test_schwarz_preserves_volume(grid128):
    rng = np.random.default_rng(17)
    for _ in range(5):
        d = random_starshaped_blob(grid128, rng, r0=0.9, amp=0.2)
        sym = build_domain(grid128, Ball(radius=np.sqrt(volume(d) / np.pi)))
        assert volume(sym) == pytest.approx(volume(d), rel=1e-3)


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
    with open(path, "w") as fh:
        save_domain(d, fh)
    d2 = load_domain(path)
    assert d2.grid.shape == d.grid.shape
    assert d2.grid.box == d.grid.box
    assert np.allclose(d2.ls, d.ls)


def test_boundary_csv_format(tmp_path, grid64):
    s = boundary_samples(build_domain(grid64, Ball(radius=1.0)))
    path = tmp_path / "boundary.csv"
    with open(path, "w") as fh:
        save_boundary(s, fh)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,nx,ny,ds"
    assert len(lines) == len(s) + 1
    row = np.loadtxt(path, delimiter=",", skiprows=1)
    assert row.shape == (len(s), 5)


def _csv_arrays(grid):
    d = random_starshaped_blob(grid, np.random.default_rng(3))
    s = d.samples
    rng = np.random.default_rng(0)
    return {
        "level-set": d.ls,
        "field": solve_torsion(d).values,
        "boundary": np.column_stack([s.points, s.normals, s.ds]),
        "specials": np.array([[0.0, -0.0, 5e-324, -2.5e-310, 1.0],
                              [1e308, -1e308, np.inf, -np.inf, -0.0],
                              [np.nan, -np.nan, 0.0, 1.0, 2.0 ** -1074]]),
        "all-distinct": rng.standard_normal((65, 65)),
        "one-row": rng.standard_normal((1, 7)),
        "one-column": np.array([[0.0], [-0.0], [0.0], [3.5]]),
    }


@pytest.mark.parametrize("name", ["level-set", "field", "boundary",
                                  "specials", "all-distinct", "one-row",
                                  "one-column"])
def test_write_csv_matches_savetxt(grid64, name):
    # the solve's artifacts keep np.savetxt's bytes; 0.0 and -0.0 are one
    # value but two texts, so the writer must tell them apart by their bits
    a = _csv_arrays(grid64)[name]
    ref, out = io.StringIO(), io.StringIO()
    np.savetxt(ref, a, delimiter=",")
    write_csv(out, a)
    assert out.getvalue() == ref.getvalue()
