"""Positively homogeneous weights g(x) = |x|^alpha * profile(theta)."""

from dataclasses import dataclass, field

import numpy as np

from .errors import BadDegree, BadLevel, NonPositiveProfile

_N_VALIDATE = 4096
_N_QUASICONVEX = 10000  # random pairs that check_quasiconvex tests
_TOL_QUASICONVEX = 1e-9
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
        if self.kind == "radial":
            return np.full_like(theta, self.params["k"], dtype=float)
        if self.kind == "fourier":
            a = self.params["a"]
            b = self.params["b"]
            out = np.full_like(theta, a[0], dtype=float)
            for m in range(1, len(a)):
                out += a[m] * np.cos(m * theta)
            for m in range(1, len(b)):
                out += b[m] * np.sin(m * theta)
            return out
        # pnorm: ((|cos|/a)^p + (|sin|/b)^p)^(alpha/p)
        p = self.params["p"]
        a = self.params["a"]
        b = self.params["b"]
        base = (np.abs(np.cos(theta)) / a) ** p + (np.abs(np.sin(theta)) / b) ** p
        return base ** (self.alpha / p)


def make_weight(spec):
    """Build a validated Weight from a JSON-style description.

    ``spec`` is ``{"alpha": a, "profile": {...}}`` with profile type
    "radial" (k), "fourier" (a, b cosine/sine coefficients) or
    "pnorm" (p, a, b).
    """
    alpha = float(spec["alpha"])
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
    if kind == "radial":
        params = {"k": float(prof["k"])}
    elif kind == "fourier":
        a = np.atleast_1d(np.asarray(prof["a"], dtype=float))
        if a.size == 0:
            raise ValueError("fourier profile needs a constant term a[0]")
        b = np.atleast_1d(np.asarray(prof["b"], dtype=float))
        params = {"a": a, "b": np.concatenate(([0.0], b))}  # b[m]: sin(m theta)
    else:
        params = {"p": float(prof["p"]), "a": float(prof["a"]), "b": float(prof["b"])}
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


def check_quasiconvex(w):
    """Midpoint convexity test of g^(1/alpha) on random pairs in an annulus.

    Returns a report dict: pass flag, worst signed violation and the
    witnessing pair.  Positive violation means convexity fails there.
    """
    rng = np.random.default_rng(0)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(2, _N_QUASICONVEX))
    rad = rng.uniform(0.5, 1.5, size=(2, _N_QUASICONVEX))
    x = np.stack([rad * np.cos(theta), rad * np.sin(theta)], axis=-1)
    f = eval_weight(w, x) ** (1.0 / w.alpha)
    mid = 0.5 * (x[0] + x[1])
    fmid = eval_weight(w, mid) ** (1.0 / w.alpha)
    violation = fmid - 0.5 * (f[0] + f[1])
    worst = int(np.argmax(violation))
    return {
        "pass": bool(violation[worst] <= _TOL_QUASICONVEX),
        "worst_violation": float(violation[worst]),
        "witness": (x[0, worst].tolist(), x[1, worst].tolist()),
    }

