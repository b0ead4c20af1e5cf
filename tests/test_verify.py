"""Geometric checks: basic, starshaped, convex, sandwich, symmetry, scaling."""

import numpy as np
import pytest

from shapes import check_inclusion, random_starshaped_blob, reflect
from torsionshape import (Ball, Ellipse, GridSpec, Sublevel, build_domain,
                          hausdorff_distance, kernels, optimize, scale_domain,
                          verify)
from torsionshape.domain import Field
from torsionshape.errors import AlphaOne, GridMismatch
from torsionshape.verify import (check_basic, check_convex, check_radial_ball,
                                 check_sandwich, check_scaling_laws,
                                 check_starshaped, check_symmetry)
from torsionshape.torsion import solve_torsion
from torsionshape.weight import fourier_weight, radial_weight


def _kidney(grid, bite_center=(1.0, 0.0), bite_radius=0.55):
    """Ball minus an overlapping ball: connected but not convex."""
    pts = grid.nodes()
    b1 = np.hypot(pts[..., 0], pts[..., 1]) - 1.0
    b2 = np.hypot(pts[..., 0] - bite_center[0],
                  pts[..., 1] - bite_center[1]) - bite_radius
    return build_domain(grid, Field(np.maximum(b1, -b2)))


def test_basic_ball_passes(grid128):
    rep = check_basic(build_domain(grid128, Ball(radius=1.0)))
    assert rep.passed
    assert rep.witness["components"] == 1


def test_basic_fails_origin_outside(grid128):
    rep = check_basic(build_domain(grid128, Ball(center=(1.2, 0.0), radius=0.5)))
    assert not rep.passed


def test_basic_fails_disconnected(grid128):
    pts = grid128.nodes()
    b1 = np.hypot(pts[..., 0] - 0.9, pts[..., 1]) - 0.4
    b2 = np.hypot(pts[..., 0] + 0.9, pts[..., 1]) - 0.4
    rep = check_basic(build_domain(grid128, Field(np.minimum(b1, b2))))
    assert not rep.passed
    assert rep.witness["components"] == 2


def test_starshaped_ball_passes(grid128):
    assert check_starshaped(build_domain(grid128, Ball(radius=1.0))).passed


def test_starshaped_annulus_fails(grid128):
    pts = grid128.nodes()
    ls = np.abs(np.hypot(pts[..., 0], pts[..., 1]) - 1.0) - 0.3
    rep = check_starshaped(build_domain(grid128, Field(ls)))
    assert not rep.passed


def test_starshaped_reentrant_bite_fails(grid128):
    # Ball with an interior bite: rays near theta=0 leave and re-enter.
    pts = grid128.nodes()
    b1 = np.hypot(pts[..., 0], pts[..., 1]) - 1.0
    b2 = np.hypot(pts[..., 0] - 0.5, pts[..., 1]) - 0.3
    rep = check_starshaped(build_domain(grid128, Field(np.maximum(b1, -b2))))
    assert not rep.passed
    assert rep.measured > rep.tol


def test_starshaped_marks_a_depth_at_the_cap(grid128):
    # past the bite, theta = 0 re-enters the ball for 0.75, 0.375 deep at
    # its middle: deeper than the 8h = 0.25 that redistancing keeps
    pts = grid128.nodes()
    b1 = np.hypot(pts[..., 0], pts[..., 1]) - 1.5
    b2 = np.hypot(pts[..., 0] - 0.5, pts[..., 1]) - 0.25
    d = build_domain(grid128, Field(np.maximum(b1, -b2)))
    bitten = check_starshaped(d)
    assert bitten.measured == 8 * grid128.h
    assert bitten.witness["saturated"] is True
    # a homothety by t scales the cap to 8h*t
    for t in (0.9, 1.0, 1.1):
        rep = check_starshaped(scale_domain(d, t))
        assert rep.measured == pytest.approx(8 * t * grid128.h, rel=1e-12)
        assert rep.witness["saturated"] is True
        assert not rep.passed
    ball = check_starshaped(build_domain(grid128, Ball(radius=1.0)))
    assert ball.witness["saturated"] is False
    assert ball.passed


def test_convex_ellipse_passes(grid128):
    assert check_convex(build_domain(grid128, Ellipse(1.4, 0.7))).passed


def test_convex_kidney_fails_with_witness(grid128):
    rep = check_convex(_kidney(grid128))
    assert not rep.passed
    x, y = rep.witness["point"]
    assert x > 0.0  # the worst point sits in the bitten region
    assert rep.measured > rep.tol


def test_sandwich_radial_tight(grid256):
    w = radial_weight(0.5, 2.0)
    rep = check_sandwich(build_domain(grid256, Ball(radius=1.0)), w)
    assert rep.passed
    assert rep.witness["A"] == pytest.approx(np.sqrt(2) / 2, abs=2e-2)
    assert rep.witness["B"] == pytest.approx(np.sqrt(2) / 2, abs=2e-2)
    assert rep.witness["inner_scale"] * np.sqrt(2) == pytest.approx(1.0, rel=2e-2)


def test_sandwich_shrunk_ball_fails(grid256):
    w = radial_weight(0.5, 2.0)
    rep = check_sandwich(build_domain(grid256, Ball(radius=0.5)), w)
    assert not rep.passed


def test_sandwich_requires_alpha_above_one(grid128):
    with pytest.raises(AlphaOne):
        check_sandwich(build_domain(grid128, Ball(radius=1.0)),
                       radial_weight(0.5, 1.0))


def test_sandwich_with_given_g1_equals_rebuilt(grid128, monkeypatch):
    w = fourier_weight(2.0, [1.0, 0.3])
    d = build_domain(grid128, Ellipse(1.2, 0.9))
    g1 = build_domain(grid128, Sublevel(w, 1.0))
    ref = check_sandwich(d, w)
    solves = []

    def no_rebuild(*args, **kwargs):
        raise AssertionError("check_sandwich rebuilt G1")

    def no_redistance(*args, **kwargs):
        raise AssertionError("check_sandwich redistanced G1")

    monkeypatch.setattr(verify, "build_domain", no_rebuild)
    monkeypatch.setattr(kernels, "eikonal_solve", no_redistance)
    monkeypatch.setattr(verify, "solve_torsion",
                        lambda dom: solves.append(dom) or solve_torsion(dom))
    rep = check_sandwich(d, w, g1=g1)
    assert rep == ref
    assert solves == [g1]


def test_symmetry_centered_ball_passes(grid128):
    d = build_domain(grid128, Ball(radius=1.0))
    assert check_symmetry(d, 0).passed
    assert check_symmetry(d, 1).passed


def test_symmetry_offset_ball_fails(grid128):
    d = build_domain(grid128, Ball(center=(0.0, 0.5), radius=0.8))
    rep = check_symmetry(d, 1)
    assert not rep.passed
    assert rep.measured == pytest.approx(1.0, abs=2 * grid128.h)


@pytest.fixture(scope="module")
def symmetric_box_domains(pnorm_run, grid128):
    """Domains on dyadic boxes symmetric about both axes: the 256² pnorm
    p = 4 answer, the radial k = 0.7 answer on a 128x96 box and a ball off
    both axes."""
    w = radial_weight(0.7, 2.0)
    grid = GridSpec(128, 96, (-2.0, -1.5, 2.0, 1.5))
    lopsided = optimize(w, build_domain(grid, Sublevel(w, 1.0))).final_domain
    offset = build_domain(grid128, Ball(center=(0.3, -0.5), radius=0.8))
    return {"pnorm-256": pnorm_run.domain, "radial-128x96": lopsided,
            "offset-ball": offset}


@pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
@pytest.mark.parametrize("name", ["pnorm-256", "radial-128x96",
                                  "offset-ball"])
def test_symmetry_mirrored_samples_match_reflected_domain(
        symmetric_box_domains, name, axis):
    # on a symmetric dyadic box, mirroring the samples gives the bits of
    # walking the front of the domain flipped on the grid
    d = symmetric_box_domains[name]
    assert (check_symmetry(d, axis).measured
            == hausdorff_distance(d, reflect(d, axis)))


def test_radial_ball_exact_ball_passes(grid128):
    rep = check_radial_ball(build_domain(grid128, Ball(radius=1.0)))
    assert rep.passed
    assert rep.measured <= grid128.h


def test_radial_ball_ellipse_fails(grid128):
    rep = check_radial_ball(build_domain(grid128, Ellipse(1.2, 0.6)))
    assert not rep.passed
    assert rep.measured == pytest.approx(0.6, abs=3 * grid128.h)


def test_inclusion_reflexive(grid128):
    d = build_domain(grid128, Ball(radius=1.0))
    assert check_inclusion(d, d).passed


def test_inclusion_nested_balls(grid128):
    inner = build_domain(grid128, Ball(radius=0.8))
    outer = build_domain(grid128, Ball(radius=1.0))
    assert check_inclusion(inner, outer).passed
    rep = check_inclusion(outer, inner)
    assert not rep.passed
    assert rep.measured == pytest.approx(0.2, abs=2 * grid128.h)


def test_inclusion_transitive_up_to_doubled_slack(grid128):
    a = build_domain(grid128, Ball(radius=0.6))
    b = build_domain(grid128, Ball(radius=0.8))
    c = build_domain(grid128, Ball(radius=1.0))
    slack = grid128.h
    assert check_inclusion(a, b, slack).passed
    assert check_inclusion(b, c, slack).passed
    assert check_inclusion(a, c, 2 * slack).passed


def test_inclusion_requires_matching_grid(grid64, grid128):
    with pytest.raises(GridMismatch):
        check_inclusion(build_domain(grid64, Ball(radius=1.0)),
                        build_domain(grid128, Ball(radius=1.0)))


def test_scaling_laws_ball(grid256):
    w = radial_weight(0.5, 2.0)
    d = build_domain(grid256, Ball(radius=1.0))
    assert check_scaling_laws(d, w, 1.37).passed
    assert check_scaling_laws(d, w, 1.0).passed


def test_scaling_laws_blob(grid256):
    w = radial_weight(0.5, 2.0)
    d = random_starshaped_blob(grid256, np.random.default_rng(21), r0=1.0,
                               amp=0.2)
    assert check_scaling_laws(d, w, 0.8).passed


def test_scaling_laws_with_given_field_solves_once_less(grid128, monkeypatch):
    w = radial_weight(0.5, 2.0)
    d = random_starshaped_blob(grid128, np.random.default_rng(21), r0=1.0,
                               amp=0.2)
    u = solve_torsion(d)
    calls = []
    monkeypatch.setattr(verify, "solve_torsion",
                        lambda dom: calls.append(dom) or solve_torsion(dom))
    ref = check_scaling_laws(d, w, 0.8)
    n_ref = len(calls)
    calls.clear()
    rep = check_scaling_laws(d, w, 0.8, u=u)
    assert rep == ref
    assert n_ref == 2
    assert len(calls) == n_ref - 1
    assert calls[0] is not d


def test_scaling_laws_rejects_field_of_another_domain(grid128):
    w = radial_weight(0.5, 2.0)
    d = build_domain(grid128, Ball(radius=1.0))
    other = solve_torsion(build_domain(grid128, Ball(radius=0.9)))
    with pytest.raises(ValueError):
        check_scaling_laws(d, w, 0.8, u=other)


def test_report_serialization(grid128):
    rep = check_basic(build_domain(grid128, Ball(radius=1.0)))
    js = rep.to_json()
    assert js["pass"] is True
    assert set(js) == {"name", "pass", "measured", "tol", "witness"}
