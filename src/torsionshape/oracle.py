"""Closed-form radial answers: ball solutions, stability radii, sandwich bounds."""

import math

import numpy as np

from .errors import AlphaOne, EpsTooLarge


def unit_ball_volume(N):
    return math.pi ** (N / 2.0) / math.gamma(N / 2.0 + 1.0)


def unit_sphere_area(N):
    return N * unit_ball_volume(N)


def phi_degree(alpha, N=2):
    """Degree 2 alpha + N of phi = integral of g^2 under x -> t x (J: N + 2)."""
    return 2 * alpha + N


def fbp_radius(k, alpha, N=2):
    """Radius of the ball solving the radial free-boundary problem.

    The ball condition g(R) = R/N with g = k r^alpha gives R = (kN)^(-1/(alpha-1)).
    """
    if k <= 0 or alpha <= 0:
        raise ValueError("k and alpha must be positive")
    if alpha == 1:
        raise AlphaOne("alpha = 1: no solution or infinitely many")
    return (k * N) ** (-1.0 / (alpha - 1.0))


def ball_fields(R, N, x):
    """(u(x), boundary |grad u|) for the ball of radius R.

    u = max(0, (R^2 - |x|^2)) / (2N); the boundary gradient is R/N.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    r2 = x[0] ** 2 + x[1] ** 2 if not hasattr(x, "ndim") else float((x ** 2).sum())
    u = max(0.0, (R * R - r2)) / (2.0 * N)
    return u, R / N


def ball_energy_phi(R, k, alpha, N=2):
    """(J, phi) for the ball of radius R under the radial weight k r^alpha."""
    if R <= 0 or k <= 0:
        raise ValueError("R and k must be positive")
    omega = unit_ball_volume(N)
    sigma = unit_sphere_area(N)
    J = -omega * R ** (N + 2) / (2.0 * N * (N + 2))
    p = phi_degree(alpha, N)
    phi = k * k * sigma * R ** p / p
    return J, phi


def stability_radii(k, alpha, N, eps, mode="sup"):
    """Bracketing radii (r, R) for near-radial weights.

    mode "sup": relative band g in [h(1-eps), h(1+eps)] with h = k r^alpha:
    r = ((1-eps)/(kN))^(1/(alpha-1)), R = ((1+eps)/(kN))^(1/(alpha-1)).
    mode "hom": additive band |g - h| <= eps r^alpha:
    r = (N(k+eps))^(-1/(alpha-1)), R = (N(k-eps))^(-1/(alpha-1)).
    """
    if alpha == 1:
        raise AlphaOne("alpha = 1: no solution or infinitely many")
    if eps <= 0:
        raise ValueError("eps must be positive")
    e = 1.0 / (alpha - 1.0)
    if mode == "sup":
        if eps >= 1:
            raise EpsTooLarge("sup mode needs eps < 1")
        return ((1.0 - eps) / (k * N)) ** e, ((1.0 + eps) / (k * N)) ** e
    if mode == "hom":
        if eps >= k:
            raise EpsTooLarge("hom mode needs eps < k")
        return (N * (k + eps)) ** -e, (N * (k - eps)) ** -e
    raise ValueError(f"unknown mode {mode!r}")


def width_slope(k, alpha, N=2):
    """Leading-order d(R_eps - r_eps)/d eps of the sup-mode bracket."""
    return 2.0 / ((alpha - 1.0) * (N * k) ** (1.0 / (alpha - 1.0)))


def response_modes(k, alpha, a, b):
    """First-order Fourier modes (A, B) of the solution's boundary, N = 2.

    For g = k r^alpha (1 + sum_m (a[m] cos m theta + b[m] sin m theta)) with
    small relative amplitudes a and b indexed from m = 0 (b[0] multiplies
    sin 0), linearise around the ball R0 = fbp_radius(k, alpha) one mode at
    a time: boundary r = R0 (1 + e cos m theta), u = (R0^2 - r^2)/4
    + c r^m cos m theta.  u = 0 on the boundary gives c R0^m = R0^2 e / 2,
    and |grad u| = g there gives e = -a[m]/(m + alpha - 1).  So
    r = sum_m (A[m] cos m theta + B[m] sin m theta) + O(eps^2) with
    A[m] = R0 (delta_m0 - a[m]/(m + alpha - 1)) and
    B[m] = -R0 b[m]/(m + alpha - 1).  A single driven mode's amplitude is
    odd in its eps (a rotation by pi/m flips the sign), so its error is
    O(eps^3).
    """
    R0 = fbp_radius(k, alpha, 2)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    A = -R0 * a / (np.arange(len(a)) + alpha - 1.0)
    B = -R0 * b / (np.arange(len(b)) + alpha - 1.0)
    A[0] += R0
    B[0] = 0.0
    return A, B


def response_width_slope(k, alpha, m=2):
    """Leading-order d(r_max - r_min)/d eps of the solution, N = 2.

    The min-max width of one cosine mode of response_modes, 2 R0 eps /
    (m + alpha - 1), is below the bracket slope of width_slope by the factor
    (alpha - 1)/(m + alpha - 1).
    """
    A, _ = response_modes(k, alpha, np.eye(m + 1)[m], np.zeros(1))
    return 2.0 * abs(A[m])


def sandwich_radial(k, alpha, N=2):
    """(A, B, inner radius, outer radius) of the level-set sandwich, radial case.

    G_1 is the ball of radius rho = k^(-1/alpha); its boundary gradient is
    constant rho/N, so A = B and the sandwich is tight at the solution radius.
    """
    if alpha <= 1:
        raise AlphaOne("sandwich bounds need alpha > 1")
    rho = k ** (-1.0 / alpha)
    A = rho / N
    inner = A ** (1.0 / (alpha - 1.0)) * rho
    expected = fbp_radius(k, alpha, N)
    assert abs(inner - expected) <= 1e-12 * expected
    return A, A, inner, inner


def multiplier_rescale(mu, alpha):
    """Homothety factor t = (-2 mu)^(1/(2(alpha-1))) restoring |grad u| = g."""
    if alpha == 1:
        raise AlphaOne("alpha = 1 admits no rescaling")
    if mu >= 0:
        raise ValueError("multiplier must be negative")
    return (-2.0 * mu) ** (1.0 / (2.0 * (alpha - 1.0)))


def oracle_report(k, alpha, N=2, eps=None):
    """All closed-form quantities for (k, alpha, N[, eps]) as one dict."""
    R = fbp_radius(k, alpha, N)
    J, phi = ball_energy_phi(R, k, alpha, N)
    out = {
        "k": k, "alpha": alpha, "N": N,
        "radius": R,
        "boundary_gradient": R / N,
        "J": J,
        "phi": phi,
        "sandwich": dict(zip(("A", "B", "inner", "outer"),
                             sandwich_radial(k, alpha, N)))
        if alpha > 1 else None,
    }
    if eps is not None:
        r_sup, R_sup = stability_radii(k, alpha, N, eps, "sup")
        out["eps"] = eps
        out["r_eps"] = r_sup
        out["R_eps"] = R_sup
        if eps < k:
            r_hom, R_hom = stability_radii(k, alpha, N, eps, "hom")
            out["r_eps_hom"] = r_hom
            out["R_eps_hom"] = R_hom
        out["width_slope"] = width_slope(k, alpha, N)
    return out
