"""Positively homogeneous weights g(x) = |x|^alpha * profile(theta)."""

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import BadDegree, BadLevel, NonPositiveProfile

_N_VALIDATE = 4096
_PROFILE_KEYS = {"radial": {"k"}, "fourier": {"a", "b"}, "pnorm": {"p", "a", "b"}}


@dataclass(frozen=True, eq=False)
class Weight:
    """alpha-homogeneous weight, determined by its degree and angular profile.

    ``profile`` maps angles (radians, any shape) to strictly positive values;
    homogeneity g(tx) = t^alpha g(x) is exact by construction.
    """

    alpha: float
    kind: str                     # "radial" | "fourier" | "pnorm"
    params: dict = field(repr=False)

    def profile(self, theta):
        theta = np.asarray(theta, dtype=float)
        a = self.params["a"]
        b = self.params["b"]
        if self.kind == "pnorm":
            # ((|cos|/a)^p + (|sin|/b)^p)^(alpha/p)
            p = self.params["p"]
            base = (np.abs(np.cos(theta)) / a) ** p + (np.abs(np.sin(theta)) / b) ** p
            return base ** (self.alpha / p)
        # Fourier, and radial as its one-term case
        out = np.full_like(theta, a[0], dtype=float)
        for m in range(1, len(a)):
            out += a[m] * np.cos(m * theta)
        for m in range(1, len(b)):
            out += b[m] * np.sin(m * theta)
        return out


def _real(name, v):
    """``v`` as a float; a bool, a string or a list is no number."""
    if isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Real):
        raise ValueError(f"{name} must be a number, got {v!r}")
    return float(v)


def _reals(name, v):
    """A number, or a flat list of numbers, as a 1-D float array."""
    items = v if isinstance(v, (list, tuple, np.ndarray)) else [v]
    return np.array([_real(name, x) for x in items], dtype=float)


def make_weight(spec):
    """Build a validated Weight from a JSON-style description.

    ``spec`` is ``{"alpha": a, "profile": {...}}`` with profile type
    "radial" (k), "fourier" (a, b cosine/sine coefficients) or
    "pnorm" (p, a, b).
    """
    alpha = _real("alpha", spec["alpha"])
    if alpha <= 0:
        raise BadDegree(f"alpha must be > 0, got {alpha}")
    prof = spec["profile"]
    kind = prof["type"]
    if kind not in _PROFILE_KEYS:
        raise BadDegree(f"unknown profile type {kind!r}")
    extra = sorted(set(prof) - _PROFILE_KEYS[kind] - {"type"})
    if extra:
        raise ValueError(f"{kind} profile takes no keys {extra}")
    missing = sorted(_PROFILE_KEYS[kind] - set(prof))
    if missing:
        raise ValueError(f"{kind} profile needs keys {missing}")
    if kind == "radial":  # the Fourier profile with a[0] = k alone
        params = {"a": np.array([_real("k", prof["k"])]), "b": np.zeros(1)}
    elif kind == "fourier":
        a = _reals("a", prof["a"])
        if a.size == 0:
            raise ValueError("fourier profile needs a constant term a[0]")
        b = _reals("b", prof["b"])
        params = {"a": a, "b": np.concatenate(([0.0], b))}  # b[m]: sin(m theta)
    else:
        params = {key: _real(key, prof[key]) for key in ("p", "a", "b")}
        if params["p"] <= 0 or params["a"] <= 0 or params["b"] <= 0:
            raise NonPositiveProfile("pnorm parameters must be positive")
    w = Weight(alpha=alpha, kind=kind, params=params)
    theta = np.linspace(0.0, 2.0 * np.pi, _N_VALIDATE, endpoint=False)
    pmin = float(np.min(w.profile(theta)))
    if pmin <= 0.0:
        raise NonPositiveProfile(f"min sampled profile {pmin:g} <= 0")
    return w


def radial_weight(k, alpha):
    return make_weight({"alpha": alpha, "profile": {"type": "radial", "k": k}})


def fourier_weight(alpha, a, b=()):
    return make_weight({"alpha": alpha,
                        "profile": {"type": "fourier", "a": list(a), "b": list(b)}})


def eval_weight(w, x):
    """g(x) = |x|^alpha * profile(angle(x)); vectorized over leading axes."""
    x = np.asarray(x, dtype=float)
    r = np.hypot(x[..., 0], x[..., 1])
    theta = np.mod(np.arctan2(x[..., 1], x[..., 0]), 2.0 * np.pi)
    out = np.where(r > 0.0, r ** w.alpha * w.profile(theta), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def sublevel_radius(w, t, theta):
    """Boundary radius of the sublevel set G_t = {g < t} along direction theta.

    All sublevel sets are dilations of G_1: radius scales as t^(1/alpha).
    """
    if t <= 0:
        raise BadLevel(f"level must be > 0, got {t}")
    theta = np.asarray(theta, dtype=float)
    r = (t / w.profile(theta)) ** (1.0 / w.alpha)
    if r.ndim == 0:
        return float(r)
    return r

