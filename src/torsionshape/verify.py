"""Executable geometric checks applied to domains (typically optimizer output)."""

from dataclasses import dataclass, asdict

import numpy as np
from scipy.spatial import ConvexHull

from .domain import (Sublevel, _hausdorff_points, build_domain,
                     connected_components, interp_bilinear, scale_domain)
from .errors import AlphaOne
from .oracle import phi_degree
from .torsion import energy_J, phi_constraint, solve_torsion
from .weight import sublevel_radius


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    measured: float
    tol: float
    witness: dict

    def to_json(self):
        d = asdict(self)
        d["pass"] = d.pop("passed")
        return d


def _sample_angles_radii(d):
    s = d.samples
    r = np.hypot(s.points[:, 0], s.points[:, 1])
    theta = np.mod(np.arctan2(s.points[:, 1], s.points[:, 0]), 2 * np.pi)
    return theta, r, s


def check_basic(d):
    """Origin strictly inside and a single connected component."""
    h = d.grid.h
    ls0 = float(interp_bilinear(d.ls, d.grid, np.array([[0.0, 0.0]]))[0])
    ncomp = connected_components(d)
    ok = (ls0 < -h) and ncomp == 1
    return CheckReport("basic", ok, measured=float(max(ls0 + h, ncomp - 1)),
                       tol=0.0, witness={"ls_origin": ls0, "components": ncomp})


def check_starshaped(d):
    """Along 360 rays from the origin, the set must be left of a single crossing.

    ``measured`` is the deepest re-entry of ``ls`` after a ray's first exit.
    A redistanced ``ls`` is clamped to ``REINIT_BAND_CELLS * h`` (8h), and a
    homothety by t scales that cap to 8h*t, so the measure saturates there
    and tied rays report the first as witness.  The witness's ``saturated``
    marks a depth that reached the field's own deepest value, ``-min(ls)``:
    a lower bound.  Pass/fail is unaffected.
    """
    h = d.grid.h
    tol = 2 * h
    ls0 = float(interp_bilinear(d.ls, d.grid, np.array([[0.0, 0.0]]))[0])
    if ls0 >= 0.0:
        return CheckReport("starshaped", False, measured=float(ls0), tol=tol,
                           witness={"reason": "origin not inside"})
    x0, y0, x1, y1 = d.grid.box
    rmax = min(x1, y1, -x0, -y0)
    nstep = int(2 * rmax / h) * 2
    rr = np.linspace(0.0, rmax, nstep)
    angles = np.linspace(0.0, 2 * np.pi, 360, endpoint=False)
    dip = []
    # blocks of 10 rays: all 360 at once would hold ~18 MB of interpolation
    # temporaries at 256^2, one block about 0.6 MB
    for blk in np.array_split(angles, 36):
        pts = np.stack([np.outer(np.cos(blk), rr),
                        np.outer(np.sin(blk), rr)], axis=-1)
        vals = interp_bilinear(d.ls, d.grid, pts)      # (ray, step)
        # how far ls re-enters after the first exit; -inf if it never exits
        after_exit = np.cumsum(vals > 0.0, axis=1) > 0
        dip.append(-np.min(np.where(after_exit, vals, np.inf), axis=1))
    dip = np.concatenate(dip)
    k = int(np.argmax(dip))
    worst = max(float(dip[k]), 0.0)
    # the resampling of a homothety leaves the clamped plateau ulps off flat
    saturated = worst >= (1.0 - 1e-9) * -float(np.min(d.ls))
    return CheckReport("starshaped", bool(worst <= tol), measured=worst,
                       tol=tol, witness={"theta": float(angles[k]),
                                         "saturated": saturated})


def check_convex(d):
    """Max distance from boundary samples to their convex hull, within 2h."""
    tol = 2 * d.grid.h
    _, _, s = _sample_angles_radii(d)
    pts = s.points
    hull = ConvexHull(pts)
    # hull.equations: a.x + b <= 0 inside; distance to hull boundary from inside
    a = hull.equations[:, :2]
    b = hull.equations[:, 2]
    dists = -(pts @ a.T + b)           # (n_pts, n_facets), >= 0 inside
    depth = np.min(dists, axis=1)      # distance to the hull surface
    worst = int(np.argmax(depth))
    return CheckReport("convex", bool(depth[worst] <= tol),
                       measured=float(depth[worst]), tol=tol,
                       witness={"point": pts[worst].tolist()})


def check_sandwich(d, w, g1=None):
    """Inclusions scaled-G1 <= Omega <= scaled-G1 from the torsion solve on G1.

    The inclusions must hold up to a slack of 2h + 2e-2.  ``g1`` is the
    domain ``build_domain(d.grid, Sublevel(w, 1.0))`` when the caller
    already has it; otherwise it is built here.
    """
    if w.alpha <= 1:
        raise AlphaOne("sandwich bounds need alpha > 1")
    slack = 2 * d.grid.h + 2e-2
    if g1 is None:
        g1 = build_domain(d.grid, Sublevel(w, 1.0))
    u1 = solve_torsion(g1)
    grad, valid = u1.gradient
    A = float(np.min(grad[valid]))
    B = float(np.max(grad[valid]))
    e = 1.0 / (w.alpha - 1.0)
    t_in = A ** e
    t_out = B ** e
    theta, r, _ = _sample_angles_radii(d)
    rho = sublevel_radius(w, 1.0, theta)
    inner_violation = float(np.max(t_in * rho - r))
    outer_violation = float(np.max(r - t_out * rho))
    measured = max(inner_violation, outer_violation)
    return CheckReport("sandwich", bool(measured <= slack), measured=measured,
                       tol=slack, witness={"A": A, "B": B,
                                           "inner_scale": t_in,
                                           "outer_scale": t_out})


def check_symmetry(d, axis):
    """Hausdorff distance between the boundary samples and their mirror
    image about the hyperplane x_axis = 0, within 2h.

    The front is mirrored, not the grid, so the check runs on any box.
    """
    tol = 2 * d.grid.h
    pts = d.samples.points
    mirror = pts.copy()
    mirror[:, axis] = -mirror[:, axis]
    dist = _hausdorff_points(pts, mirror)
    return CheckReport(f"symmetry_{'xy'[axis]}", bool(dist <= tol),
                       measured=dist, tol=tol, witness={"axis": axis})


def check_radial_ball(d):
    """Spread of the per-sample boundary radius, within 3h."""
    tol = 3 * d.grid.h
    theta, r, _ = _sample_angles_radii(d)
    spread = float(np.max(r) - np.min(r))
    return CheckReport("radial_ball", bool(spread <= tol), measured=spread,
                       tol=tol, witness={"r_min": float(np.min(r)),
                                         "r_max": float(np.max(r))})


def check_scaling_laws(d, w, t, u=None):
    """J(tO) = t^4 J(O) and phi(tO) = t^(2 alpha + 2) phi(O) within 2e-2.

    ``u`` is the torsion solution on ``d`` when the caller already has it;
    otherwise it is solved here.
    """
    rtol = 2e-2
    if u is None:
        u = solve_torsion(d)
    elif u.domain is not d:
        raise ValueError("u must be the torsion solution on d")
    J = energy_J(u)
    phi = phi_constraint(w, d)
    d2 = scale_domain(d, t)
    u2 = solve_torsion(d2)
    J2 = energy_J(u2)
    phi2 = phi_constraint(w, d2)
    errJ = abs(J2 - t ** 4 * J) / abs(t ** 4 * J)
    phi_t = t ** phi_degree(w.alpha) * phi
    errP = abs(phi2 - phi_t) / phi_t
    measured = float(max(errJ, errP))
    return CheckReport("scaling", bool(measured <= rtol), measured=measured,
                       tol=rtol, witness={"t": t, "errJ": float(errJ),
                                          "errPhi": float(errP)})
