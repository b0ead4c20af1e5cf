"""Weight construction, evaluation, sublevel radii and quasi-convexity."""

import re

import numpy as np
import pytest

from torsionshape import check_quasiconvex, eval_weight, make_weight, sublevel_radius
from torsionshape.errors import BadDegree, BadLevel, NonPositiveProfile
from torsionshape.weight import fourier_weight, radial_weight


def test_radial_constructor_evaluates_k_r_alpha():
    w = radial_weight(0.5, 2.0)
    assert eval_weight(w, np.array([2.0, 0.0])) == pytest.approx(2.0)
    assert eval_weight(w, np.array([0.0, 2.0])) == pytest.approx(2.0)


def test_weight_vanishes_at_origin():
    for w in (radial_weight(1.0, 2.0), fourier_weight(2.0, [1.0, 0.3])):
        assert eval_weight(w, np.array([0.0, 0.0])) == 0.0


def test_radial_three_four_five():
    w = radial_weight(1.0, 2.0)
    assert eval_weight(w, np.array([3.0, 4.0])) == pytest.approx(25.0)


def test_fourier_positive_profile_accepted():
    w = fourier_weight(2.0, [1.0, 0.6])
    theta = np.linspace(0, 2 * np.pi, 1000)
    assert np.min(w.profile(theta)) == pytest.approx(0.4, abs=1e-5)


def test_fourier_nonpositive_profile_rejected():
    with pytest.raises(NonPositiveProfile):
        fourier_weight(2.0, [1.0, 1.2])


def test_nonpositive_alpha_rejected():
    with pytest.raises(BadDegree):
        radial_weight(0.5, 0.0)
    with pytest.raises(BadDegree):
        radial_weight(0.5, -1.0)


def test_unknown_profile_type_rejected():
    with pytest.raises(BadDegree):
        make_weight({"alpha": 2.0, "profile": {"type": "spline"}})


@pytest.mark.parametrize("profile", [
    {"type": "radial", "k": 0.5, "p": 4.0},
    {"type": "fourier", "a": [1.0], "k": 0.5},
    {"type": "pnorm", "p": 4.0, "a": 1.0, "b": 1.0, "c": 1.0}])
def test_profile_extra_keys_rejected(profile):
    with pytest.raises(ValueError, match="takes no keys"):
        make_weight({"alpha": 2.0, "profile": profile})


@pytest.mark.parametrize("profile, missing", [
    ({"type": "radial"}, "['k']"),
    ({"type": "fourier", "a": [1.0]}, "['b']"),
    ({"type": "pnorm", "p": 4.0}, "['a', 'b']")],
    ids=["radial", "fourier", "pnorm"])
def test_profile_missing_keys_rejected(profile, missing):
    with pytest.raises(ValueError, match=re.escape(f"needs keys {missing}")):
        make_weight({"alpha": 2.0, "profile": profile})


def test_pnorm_parameters_validated():
    with pytest.raises(NonPositiveProfile):
        make_weight({"alpha": 2.0,
                     "profile": {"type": "pnorm", "p": 4.0, "a": -1.0, "b": 1.0}})


def test_sublevel_radius_radial():
    w = radial_weight(0.5, 2.0)
    for theta in (0.0, 1.0, np.pi):
        assert sublevel_radius(w, 1.0, theta) == pytest.approx(np.sqrt(2.0))
    assert sublevel_radius(radial_weight(1.0, 2.0), 4.0, 0.3) == pytest.approx(2.0)


def test_sublevel_radius_rejects_bad_level():
    with pytest.raises(BadLevel):
        sublevel_radius(radial_weight(0.5, 2.0), 0.0, 0.0)


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_sublevel_dilation_law(alpha):
    w = fourier_weight(alpha, [1.0, 0.2, 0.1], b=[0.15])
    theta = np.linspace(0, 2 * np.pi, 17)
    ratio = sublevel_radius(w, 8.0, theta) / sublevel_radius(w, 1.0, theta)
    assert np.allclose(ratio, 8.0 ** (1.0 / alpha), rtol=1e-12)


def test_homogeneity_random():
    rng = np.random.default_rng(3)
    for w in (radial_weight(0.7, 2.0), fourier_weight(2.5, [1.0, 0.3], b=[0.2]),
              make_weight({"alpha": 2.0,
                           "profile": {"type": "pnorm", "p": 4.0,
                                       "a": 1.0, "b": 1.5}})):
        x = rng.normal(size=(500, 2))
        t = rng.uniform(0.01, 10.0, size=500)
        g = eval_weight(w, x)
        gt = eval_weight(w, t[:, None] * x)
        assert np.all(np.abs(gt - t ** w.alpha * g)
                      <= 1e-12 * (1.0 + t ** w.alpha * g))


def test_sublevel_consistency_with_eval():
    w = fourier_weight(2.0, [1.0, 0.3], b=[0.1])
    theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    for t in (0.5, 1.0, 3.0):
        r = sublevel_radius(w, t, theta)
        pts = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
        assert np.allclose(eval_weight(w, pts), t, rtol=1e-10)


def _brute_force_quasiconvex(w, n_pairs=10000, tol=1e-9):
    rng = np.random.default_rng(42)
    theta = rng.uniform(0, 2 * np.pi, size=(2, n_pairs))
    rad = rng.uniform(0.5, 1.5, size=(2, n_pairs))
    x = np.stack([rad * np.cos(theta), rad * np.sin(theta)], axis=-1)
    f = eval_weight(w, x) ** (1.0 / w.alpha)
    fmid = eval_weight(w, 0.5 * (x[0] + x[1])) ** (1.0 / w.alpha)
    return bool(np.max(fmid - 0.5 * (f[0] + f[1])) <= tol)


def test_quasiconvex_radial_passes():
    rep = check_quasiconvex(radial_weight(1.0, 2.0))
    assert rep["pass"]
    assert rep["worst_violation"] <= 1e-9


def test_quasiconvex_pnorm4_passes():
    w = make_weight({"alpha": 2.0,
                     "profile": {"type": "pnorm", "p": 4.0, "a": 1.0, "b": 1.0}})
    rep = check_quasiconvex(w)
    assert rep["pass"]
    assert _brute_force_quasiconvex(w)


def test_quasiconvex_cos3_fails_with_witness():
    w = fourier_weight(2.0, [1.0, 0.0, 0.0, 0.9])
    rep = check_quasiconvex(w)
    assert not rep["pass"]
    assert rep["worst_violation"] > 0.0
    x, y = np.asarray(rep["witness"][0]), np.asarray(rep["witness"][1])
    f = eval_weight(w, np.stack([x, y])) ** 0.5
    fmid = eval_weight(w, 0.5 * (x + y)) ** 0.5
    assert fmid - 0.5 * f.sum() == pytest.approx(rep["worst_violation"])
    assert not _brute_force_quasiconvex(w)

