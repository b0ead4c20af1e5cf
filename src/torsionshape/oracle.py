"""Closed forms: ball solutions, stability radii, sandwich bounds, objective."""

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
    """Bracketing radii (r, R) for near-radial weights, as fbp_radius of a bound.

    mode "sup": relative band g in [h(1-eps), h(1+eps)] with h = k r^alpha:
    r = fbp_radius(k/(1-eps)), R = fbp_radius(k/(1+eps)).
    mode "hom": additive band |g - h| <= eps r^alpha:
    r = fbp_radius(k+eps), R = fbp_radius(k-eps).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if mode == "sup":
        if eps >= 1:
            raise EpsTooLarge("sup mode needs eps < 1")
        return (fbp_radius(k / (1.0 - eps), alpha, N),
                fbp_radius(k / (1.0 + eps), alpha, N))
    if mode == "hom":
        if eps >= k:
            raise EpsTooLarge("hom mode needs eps < k")
        return fbp_radius(k + eps, alpha, N), fbp_radius(k - eps, alpha, N)
    raise ValueError(f"unknown mode {mode!r}")


def width_slope(k, alpha, N=2):
    """Leading-order d(R_eps - r_eps)/d eps of the sup-mode bracket."""
    return 2.0 * fbp_radius(k, alpha, N) / (alpha - 1.0)


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
    return A, A, inner, inner


def scale_invariant_objective(J, phi, alpha):
    """phi^(-(N+2)/phi_degree) J, N = 2: invariant under x -> t x.

    J scales by t^(N+2) and phi by t^phi_degree(alpha).
    """
    return float(phi ** (-4.0 / phi_degree(alpha)) * J)


def multiplier_rescale(mu, alpha):
    """Homothety factor t = (-2 mu)^(1/(2(alpha-1))) restoring |grad u| = g."""
    if alpha == 1:
        raise AlphaOne("alpha = 1 admits no rescaling")
    if mu >= 0:
        raise ValueError("multiplier must be negative")
    return (-2.0 * mu) ** (1.0 / (2.0 * (alpha - 1.0)))


def pohozaev_multiplier(J, phi, alpha, N=2):
    """The multiplier (N + 2) J / ((2 alpha + N) phi) of a torsion domain.

    The Pohozaev identity for -lap u = 1, u = 0 on the boundary (Pohozaev,
    Soviet Math. Dokl. 6, 1965) gives int |grad u|^2 (x.n) ds = -2 (N + 2) J;
    with |grad u|^2 = -2 mu g^2 on the boundary and int g^2 (x.n) ds =
    phi_degree(alpha, N) phi (divergence theorem and homogeneity), this is
    mu.  It needs only J and phi, which the cut-cell quadrature gets to
    second order, where a fit of the boundary gradient is first order.
    """
    if phi <= 0:
        raise ValueError("phi must be positive")
    return (N + 2) * J / (phi_degree(alpha, N) * phi)


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
