"""Closed-form radial oracle: radii, energies, stability brackets, rescale."""

import numpy as np
import pytest

from torsionshape import oracle
from torsionshape.errors import AlphaOne, EpsTooLarge


def test_fbp_radius_values():
    assert oracle.fbp_radius(0.5, 2.0, 2) == pytest.approx(1.0)
    assert oracle.fbp_radius(1.0, 3.0, 2) == pytest.approx(2.0 ** -0.5)


def test_fbp_radius_rejects_alpha_one():
    with pytest.raises(AlphaOne):
        oracle.fbp_radius(0.5, 1.0, 2)


def test_ball_energy_phi_values():
    J, _ = oracle.ball_energy_phi(1.0, 1.0, 2.0, 2)
    assert J == pytest.approx(-np.pi / 16.0)
    _, phi = oracle.ball_energy_phi(1.0, 1.0, 2.0, 2)
    assert phi == pytest.approx(np.pi / 3.0)


def test_ball_energy_phi_scaling_exact():
    t = 1.7
    for N, alpha in ((2, 2.0), (3, 2.5)):
        J1, p1 = oracle.ball_energy_phi(1.0, 0.5, alpha, N)
        Jt, pt = oracle.ball_energy_phi(t, 0.5, alpha, N)
        assert Jt == pytest.approx(t ** (N + 2) * J1, rel=1e-12)
        assert pt == pytest.approx(t ** (2 * alpha + N) * p1, rel=1e-12)


def test_phi_degree_matches_ball_scaling():
    assert oracle.phi_degree(2.0) == 6.0
    t = 1.7
    for N, alpha in ((2, 2.0), (2, 3.5), (3, 2.5)):
        _, p1 = oracle.ball_energy_phi(1.0, 0.5, alpha, N)
        _, pt = oracle.ball_energy_phi(t, 0.5, alpha, N)
        assert np.log(pt / p1) / np.log(t) == pytest.approx(
            oracle.phi_degree(alpha, N), rel=1e-12)


def test_stability_radii_sup():
    r, R = oracle.stability_radii(0.5, 2.0, 2, 0.1, "sup")
    assert r == pytest.approx(0.9)
    assert R == pytest.approx(1.1)


def test_stability_radii_hom():
    r, R = oracle.stability_radii(0.5, 2.0, 2, 0.1, "hom")
    assert r == pytest.approx(1.0 / 1.2)
    assert R == pytest.approx(1.25)


def test_stability_radii_continuity_at_zero():
    base = oracle.fbp_radius(0.5, 2.0, 2)
    for mode in ("sup", "hom"):
        r, R = oracle.stability_radii(0.5, 2.0, 2, 1e-9, mode)
        assert r == pytest.approx(base, abs=1e-8)
        assert R == pytest.approx(base, abs=1e-8)


def test_stability_radii_nesting():
    base = oracle.fbp_radius(0.5, 2.0, 2)
    for mode, eps in (("sup", 0.3), ("hom", 0.3), ("sup", 0.05), ("hom", 0.05)):
        r, R = oracle.stability_radii(0.5, 2.0, 2, eps, mode)
        assert r < base < R


def test_stability_radii_eps_bounds():
    with pytest.raises(EpsTooLarge):
        oracle.stability_radii(0.5, 2.0, 2, 1.0, "sup")
    with pytest.raises(EpsTooLarge):
        oracle.stability_radii(0.5, 2.0, 2, 0.5, "hom")
    with pytest.raises(AlphaOne):
        oracle.stability_radii(0.5, 1.0, 2, 0.1, "sup")


def test_width_slope_matches_small_eps_fit():
    for k, alpha in ((0.5, 2.0), (1.0, 3.0), (0.7, 2.5)):
        eps = np.array([1e-3, 1e-2])
        widths = [np.subtract(*oracle.stability_radii(k, alpha, 2, e, "sup")[::-1])
                  for e in eps]
        slope = np.polyfit(eps, widths, 1)[0]
        assert slope == pytest.approx(oracle.width_slope(k, alpha, 2), rel=1e-2)
    with pytest.raises(AlphaOne):
        oracle.width_slope(0.5, 1.0)


def test_response_width_slope_values():
    assert oracle.response_width_slope(0.5, 2.0, 2) == pytest.approx(2.0 / 3.0)
    for k, alpha in ((0.5, 2.0), (1.0, 3.0), (0.7, 2.5)):
        for m in (1, 2, 3):
            bracket = oracle.width_slope(k, alpha, 2)
            assert oracle.response_width_slope(k, alpha, m) == pytest.approx(
                bracket * (alpha - 1.0) / (m + alpha - 1.0), rel=1e-12)
    with pytest.raises(AlphaOne):
        oracle.response_width_slope(0.5, 1.0, 2)


def test_response_modes_values():
    A, B = oracle.response_modes(0.5, 2.0, [0.0, 0.0, 0.1], [0.0, 0.0, 0.0, 0.05])
    assert A == pytest.approx([1.0, 0.0, -0.1 / 3.0], abs=1e-15)
    assert B == pytest.approx([0.0, 0.0, 0.0, -0.0125], abs=1e-15)
    # mode 0 rescales k: the ball of k (1 + delta) to first order in delta
    for k, alpha in ((0.5, 2.0), (1.0, 3.0), (0.7, 2.5)):
        delta = 1e-5
        A, _ = oracle.response_modes(k, alpha, [delta], [0.0])
        assert A[0] == pytest.approx(oracle.fbp_radius(k * (1 + delta), alpha),
                                     abs=1e-9)
    with pytest.raises(AlphaOne):
        oracle.response_modes(0.5, 1.0, [0.0, 0.1], [0.0])


def test_sandwich_radial_values():
    A, B, inner, outer = oracle.sandwich_radial(0.5, 2.0, 2)
    assert A == B == pytest.approx(np.sqrt(2.0) / 2.0)
    assert inner == outer == pytest.approx(1.0)
    A, B, inner, outer = oracle.sandwich_radial(1.0, 2.0, 2)
    assert A == pytest.approx(0.5)
    assert inner == pytest.approx(0.5)
    # the sandwich is tight: A^(1/(alpha-1)) rho is the ball's radius
    for k, alpha, N in ((0.5, 2.0, 2), (1.0, 2.0, 2), (1.0, 3.0, 2),
                        (0.7, 2.5, 2), (0.5, 2.0, 3), (2.0, 2.5, 3)):
        _, _, inner, outer = oracle.sandwich_radial(k, alpha, N)
        assert inner == outer == pytest.approx(oracle.fbp_radius(k, alpha, N),
                                               rel=1e-12)


def test_scale_invariant_objective_is_homothety_invariant():
    for k, alpha in ((0.5, 2.0), (1.0, 3.0), (0.7, 2.5)):
        objs = [oracle.scale_invariant_objective(
                    *oracle.ball_energy_phi(R, k, alpha), alpha)
                for R in (0.5, 1.0, 3.0)]
        assert objs == pytest.approx([objs[0]] * 3, rel=1e-12)
        assert objs[0] < 0.0


def test_multiplier_rescale():
    assert oracle.multiplier_rescale(-0.5, 2.0) == pytest.approx(1.0)
    assert oracle.multiplier_rescale(-2.0, 2.0) == pytest.approx(2.0)
    assert oracle.multiplier_rescale(-1.0 / 8.0, 3.0) == pytest.approx(2.0 ** -0.5)
    with pytest.raises(AlphaOne):
        oracle.multiplier_rescale(-0.5, 1.0)
    with pytest.raises(ValueError):
        oracle.multiplier_rescale(0.5, 2.0)


@pytest.mark.parametrize("N, alpha", [(2, 2.0), (2, 1.25), (3, 2.5)])
def test_pohozaev_multiplier_on_balls(N, alpha):
    # on the ball of radius R, |grad u| = R/N and g = k R^alpha on the
    # boundary, so mu = -(R/N)^2 / (2 k^2 R^(2 alpha)); -1/2 at fbp_radius
    k = 0.5
    for R in (0.7, 1.0, oracle.fbp_radius(k, alpha, N)):
        J, phi = oracle.ball_energy_phi(R, k, alpha, N)
        mu = -(R / N) ** 2 / (2.0 * k ** 2 * R ** (2 * alpha))
        assert oracle.pohozaev_multiplier(J, phi, alpha, N) == pytest.approx(
            mu, rel=1e-12)
    assert mu == pytest.approx(-0.5, rel=1e-12)
    with pytest.raises(ValueError):
        oracle.pohozaev_multiplier(J, 0.0, alpha, N)


def test_oracle_report_contents():
    rep = oracle.oracle_report(0.5, 2.0, 2, eps=0.1)
    assert rep["radius"] == pytest.approx(1.0)
    assert rep["boundary_gradient"] == pytest.approx(0.5)
    assert rep["r_eps"] == pytest.approx(0.9)
    assert rep["R_eps"] == pytest.approx(1.1)
    assert rep["r_eps_hom"] == pytest.approx(1.0 / 1.2)
    assert rep["width_slope"] == pytest.approx(2.0)
    assert rep["sandwich"]["A"] == rep["sandwich"]["B"]
