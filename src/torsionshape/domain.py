"""Level-set representation of bounded planar domains on a Cartesian grid."""

import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from . import kernels
from .errors import (DegenerateBoundary, EmptyDomain, GridMismatch, OutOfBox)
from .weight import sublevel_radius

MARGIN_CELLS = 4
REINIT_BAND_CELLS = 8  # half-width of the redistanced tube, in cells


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Uniform node grid with nx x ny cells on an axis-aligned box."""

    nx: int
    ny: int
    box: tuple  # (x0, y0, x1, y1)

    def __post_init__(self):
        x0, y0, x1, y1 = self.box
        if self.nx < 16 or self.ny < 16:
            raise ValueError("need at least 16 cells per direction")
        if not (x0 < 0.0 < x1 and y0 < 0.0 < y1):
            raise ValueError("box must contain the origin strictly inside")
        hx = (x1 - x0) / self.nx
        hy = (y1 - y0) / self.ny
        if abs(hx - hy) > 1e-12 * max(hx, hy):
            raise ValueError("grid spacing must be uniform (hx == hy)")

    @property
    def h(self):
        x0, _, x1, _ = self.box
        return (x1 - x0) / self.nx

    @property
    def xs(self):
        x0, _, x1, _ = self.box
        return np.linspace(x0, x1, self.nx + 1)

    @property
    def ys(self):
        _, y0, _, y1 = self.box
        return np.linspace(y0, y1, self.ny + 1)

    @property
    def shape(self):
        return (self.nx + 1, self.ny + 1)

    def nodes(self):
        """Node coordinates, shape (nx+1, ny+1, 2)."""
        X, Y = np.meshgrid(self.xs, self.ys, indexing="ij")
        return np.stack([X, Y], axis=-1)


@dataclass(frozen=True, eq=False)
class Domain:
    """Bounded open set {ls < 0}; ls is nodal, negative inside.

    ``ls`` is read-only, so the geometry cached from it never goes stale.
    """

    grid: GridSpec
    ls: np.ndarray
    is_signed_distance: bool = False

    def __post_init__(self):
        self.ls.setflags(write=False)

    @cached_property
    def quadrature(self):
        """(weights, points): areas and centroids of the cells with area > 0."""
        areas, cxs, cys = cell_quadrature(self)
        mask = areas > 0.0
        weights = areas[mask]
        points = np.stack([cxs[mask], cys[mask]], axis=-1)
        weights.setflags(write=False)
        points.setflags(write=False)
        return weights, points

    @cached_property
    def samples(self):
        """Marching-squares boundary samples, see ``boundary_samples``."""
        return boundary_samples(self)


@dataclass(frozen=True, eq=False)
class BoundarySamples:
    """Marching-squares interface samples: midpoints, outward normals, lengths."""

    points: np.ndarray   # (n, 2)
    normals: np.ndarray  # (n, 2) outward unit
    ds: np.ndarray       # (n,) segment lengths

    def __post_init__(self):
        for a in (self.points, self.normals, self.ds):
            a.setflags(write=False)

    def __len__(self):
        return len(self.ds)

    @property
    def perimeter(self):
        return float(np.sum(self.ds))


# --- seeds -----------------------------------------------------------------

@dataclass(frozen=True)
class Ball:
    center: tuple = (0.0, 0.0)
    radius: float = 1.0


@dataclass(frozen=True)
class Ellipse:
    a: float
    b: float
    center: tuple = (0.0, 0.0)


@dataclass(frozen=True, eq=False)
class Sublevel:
    weight: object
    level: float = 1.0


@dataclass(frozen=True, eq=False)
class Field:
    values: np.ndarray


def _validate(grid, ls):
    if not np.any(ls < 0.0):
        raise EmptyDomain("level set has no interior nodes")
    m = MARGIN_CELLS
    frame = np.ones(grid.shape, dtype=bool)
    frame[m:-m, m:-m] = False
    if np.min(ls[frame]) <= 0.0:
        raise OutOfBox("zero level set violates the bounding-box margin")


def build_domain(grid, seed):
    """Create a Domain from an analytic seed or an explicit nodal field."""
    pts = grid.nodes()
    if isinstance(seed, Ball):
        c = np.asarray(seed.center)
        ls = np.hypot(pts[..., 0] - c[0], pts[..., 1] - c[1]) - seed.radius
        d = Domain(grid, ls, is_signed_distance=True)
        _validate(grid, ls)
        return d
    if isinstance(seed, Ellipse):
        c = np.asarray(seed.center)
        ls = np.hypot((pts[..., 0] - c[0]) / seed.a,
                      (pts[..., 1] - c[1]) / seed.b) - 1.0
    elif isinstance(seed, Sublevel):
        r = np.hypot(pts[..., 0], pts[..., 1])
        theta = np.arctan2(pts[..., 1], pts[..., 0])
        rb = sublevel_radius(seed.weight, seed.level, theta)
        ls = r - rb
    elif isinstance(seed, Field):
        ls = np.array(seed.values, dtype=float)
        if ls.shape != grid.shape:
            raise GridMismatch("explicit field shape does not match grid")
    else:
        raise TypeError(f"unknown seed {seed!r}")
    _validate(grid, ls)
    return reinitialize(Domain(grid, ls))


# --- geometric primitives ---------------------------------------------------

def cell_quadrature(d):
    """Per-cell inside areas and centroids (global coordinates)."""
    areas, cxs, cys = kernels.cell_geometry(d.ls, d.grid.h)
    x0, y0, _, _ = d.grid.box
    return areas, cxs + x0, cys + y0


def volume(d):
    areas, _, _ = kernels.cell_geometry(d.ls, d.grid.h)
    return float(np.sum(areas))


def interp_bilinear(field, grid, pts):
    """Bilinear interpolation of a nodal field at points (n, 2), edge-clamped."""
    pts = np.asarray(pts, dtype=float)
    x0, y0, _, _ = grid.box
    h = grid.h
    fx = np.clip((pts[..., 0] - x0) / h, 0.0, grid.nx - 1e-12)
    fy = np.clip((pts[..., 1] - y0) / h, 0.0, grid.ny - 1e-12)
    i = fx.astype(int)
    j = fy.astype(int)
    tx = fx - i
    ty = fy - j
    f = field
    return ((1 - tx) * (1 - ty) * f[i, j] + tx * (1 - ty) * f[i + 1, j]
            + (1 - tx) * ty * f[i, j + 1] + tx * ty * f[i + 1, j + 1])


def _node_gradient(ls, h):
    gx = np.gradient(ls, h, axis=0)
    gy = np.gradient(ls, h, axis=1)
    return gx, gy


def boundary_samples(d):
    """Marching-squares extraction of the zero level set.

    Segment midpoints with outward unit normals (from interpolated grad ls)
    and segment lengths; the chords are consistent with cell_quadrature.
    """
    ls = d.ls
    grid = d.grid
    h = grid.h
    i, j, v, cross, t = kernels.mixed_cells(ls)
    # walking each cell CCW, an exit crossing (inside -> outside) is joined
    # to the next crossing of the cell, the entry that closes the chord
    c, k0 = np.nonzero(cross & (v < 0.0))
    if len(c) == 0:
        raise DegenerateBoundary("no zero crossing in level-set field")
    k1 = k0
    for off in (3, 2, 1):
        k = (k0 + off) % 4
        k1 = np.where(cross[c, k], k, k1)
    xs, ys = grid.xs, grid.ys

    def crossing(k):
        ca, cb = kernels.CORNERS[k], kernels.CORNERS[(k + 1) % 4]
        tk = t[c, k]
        return np.stack([xs[i[c] + ca[:, 0]] + tk * (cb[:, 0] - ca[:, 0]) * h,
                         ys[j[c] + ca[:, 1]] + tk * (cb[:, 1] - ca[:, 1]) * h],
                        axis=-1)

    p0 = crossing(k0)
    p1 = crossing(k1)
    mid = 0.5 * (p0 + p1)
    seg = p1 - p0
    ds = np.hypot(seg[:, 0], seg[:, 1])
    keep = ds > 1e-12 * h
    mid, seg, ds = mid[keep], seg[keep], ds[keep]
    gx, gy = _node_gradient(ls, h)
    nx = interp_bilinear(gx, grid, mid)
    ny = interp_bilinear(gy, grid, mid)
    nrm = np.hypot(nx, ny)
    # fall back to the segment perpendicular where grad ls degenerates
    bad = nrm < 1e-10
    if np.any(bad):
        px, py = seg[bad, 1], -seg[bad, 0]
        nx[bad], ny[bad] = px, py
        nrm = np.hypot(nx, ny)
    normals = np.stack([nx / nrm, ny / nrm], axis=-1)
    # orient outward: walk order makes (p1-p0) rotated by -90deg point outward
    out_dir = np.stack([seg[:, 1], -seg[:, 0]], axis=-1)
    flip = np.sum(normals * out_dir, axis=1) < 0.0
    normals[flip] *= -1.0
    return BoundarySamples(points=mid, normals=normals, ds=ds)


def reinitialize(d):
    """Rebuild ls as a signed distance in a tube of ``REINIT_BAND_CELLS`` cells.

    The narrow-band Jacobi eikonal solve makes ``|ls|`` the exact distance
    to the front where it is below ``REINIT_BAND_CELLS * h`` and clamps it
    to that value beyond, keeping every node's sign.  Every consumer reads
    ``ls`` near the front or only its sign.
    """
    grid = d.grid
    h = grid.h
    ls = d.ls
    inside = ls < 0.0
    flip = np.zeros_like(inside)
    flip[:-1, :] |= inside[:-1, :] != inside[1:, :]
    flip[1:, :] |= inside[:-1, :] != inside[1:, :]
    flip[:, :-1] |= inside[:, :-1] != inside[:, 1:]
    flip[:, 1:] |= inside[:, :-1] != inside[:, 1:]
    if not np.any(flip):
        raise DegenerateBoundary("no zero crossing in level-set field")
    gx, gy = _node_gradient(ls, h)
    gn = np.clip(np.hypot(gx, gy), 0.2, 5.0)
    dist = np.full(grid.shape, np.inf)
    dist[flip] = np.abs(ls[flip]) / gn[flip]
    kernels.eikonal_solve(dist, flip, h, band=REINIT_BAND_CELLS)
    out = np.where(inside, -dist, dist)
    return Domain(grid, out, is_signed_distance=True)


def scale_domain(d, t):
    """Homothety t*Omega, resampling the level set at x/t."""
    if t <= 0:
        raise ValueError("scale factor must be > 0")
    grid = d.grid
    pts = grid.nodes() / t
    ls = interp_bilinear(d.ls, grid, pts.reshape(-1, 2)).reshape(grid.shape)
    if d.is_signed_distance:
        ls = t * ls
    _validate(grid, ls)
    return Domain(grid, ls, is_signed_distance=d.is_signed_distance)


def steiner_symmetrize(d, axis):
    """Recenter, per grid column, the inside length about the hyperplane x_axis=0.

    Column lengths come from the same cut-cell areas as ``volume`` (cell-column
    area / h, averaged onto node lines), so the rearrangement preserves the
    measured volume up to round-off.
    """
    grid = d.grid
    h = grid.h
    areas, _, _ = kernels.cell_geometry(d.ls, h)
    col = np.sum(areas, axis=1 if axis == 1 else 0) / h
    coords = grid.ys if axis == 1 else grid.xs
    lengths = np.zeros(len(col) + 1)
    lengths[1:-1] = 0.5 * (col[:-1] + col[1:])
    lengths[0] = 0.5 * col[0]
    lengths[-1] = 0.5 * col[-1]
    new = np.abs(coords)[None, :] - 0.5 * lengths[:, None]
    new = np.where(lengths[:, None] > 0.0, new, np.abs(coords)[None, :] + h)
    out = new if axis == 1 else new.T
    # the tent field |coord| - L/2 is itself a valid level set; skipping a
    # reinitialization keeps the per-column volume exact
    return Domain(grid, out)


def schwarz_symmetrize(d):
    """Origin-centered ball of the same volume, exact signed distance."""
    r = np.sqrt(volume(d) / np.pi)
    pts = d.grid.nodes()
    ls = np.hypot(pts[..., 0], pts[..., 1]) - r
    _validate(d.grid, ls)
    return Domain(d.grid, ls, is_signed_distance=True)


def reflect(d, axis):
    """Mirror image about the hyperplane x_axis = 0 (box must be symmetric)."""
    x0, y0, x1, y1 = d.grid.box
    lo, hi = (y0, y1) if axis == 1 else (x0, x1)
    if abs(lo + hi) > 1e-9 * (hi - lo):
        raise GridMismatch("reflection needs a box symmetric about the axis")
    ls = d.ls[:, ::-1] if axis == 1 else d.ls[::-1, :]
    return Domain(d.grid, np.ascontiguousarray(ls),
                  is_signed_distance=d.is_signed_distance)


def hausdorff_distance(d1, d2):
    """Symmetric Hausdorff distance between the two boundary sample sets."""
    if d1.grid.shape != d2.grid.shape or d1.grid.box != d2.grid.box:
        raise GridMismatch("domains must share a grid")
    b1 = d1.samples.points
    b2 = d2.samples.points
    t1 = cKDTree(b1)
    t2 = cKDTree(b2)
    d12 = np.max(t2.query(b1)[0])
    d21 = np.max(t1.query(b2)[0])
    return float(max(d12, d21))


def connected_components(d):
    """Number of 4-connected components of the inside node set."""
    labels, n = ndimage.label(d.ls < 0.0)
    return int(n)


def random_starshaped_blob(grid, rng, r0=1.0, amp=0.25, n_modes=4):
    """Random smooth starshaped domain r(theta) = r0 (1 + sum of Fourier bumps)."""
    coef = rng.uniform(-amp, amp, size=(2, n_modes)) / np.arange(1, n_modes + 1)
    pts = grid.nodes()
    r = np.hypot(pts[..., 0], pts[..., 1])
    theta = np.arctan2(pts[..., 1], pts[..., 0])
    rb = np.ones_like(theta)
    for m in range(1, n_modes + 1):
        rb += coef[0, m - 1] * np.cos(m * theta) + coef[1, m - 1] * np.sin(m * theta)
    ls = r - r0 * np.maximum(rb, 0.2)
    _validate(grid, ls)
    return reinitialize(Domain(grid, ls))


# --- serialization ----------------------------------------------------------

@contextmanager
def atomic_open(path):
    """Text handle on a temp file beside ``path``, renamed onto it on success.

    On any error the temp file is removed and ``path`` keeps its contents.
    The temp file is created like ``open(path, "w")`` would create ``path``,
    so the umask sets its permissions.
    """
    dirname = os.path.dirname(os.path.abspath(path))
    os.makedirs(dirname, exist_ok=True)
    tmp = os.path.join(dirname, f".tmp-{os.urandom(8).hex()}")
    fh = open(tmp, "x")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_domain(d, path):
    x0, y0, x1, y1 = d.grid.box
    header = f"{d.grid.nx},{d.grid.ny},{x0},{y0},{x1},{y1}"
    with atomic_open(path) as fh:
        fh.write(header + "\n")
        np.savetxt(fh, d.ls, delimiter=",")


def load_domain(path):
    with open(path) as fh:
        head = fh.readline().strip().split(",")
        nx, ny = int(head[0]), int(head[1])
        box = tuple(float(v) for v in head[2:6])
        ls = np.loadtxt(fh, delimiter=",")
    grid = GridSpec(nx, ny, box)
    if ls.shape != grid.shape:
        raise GridMismatch(f"field shape {ls.shape} does not match header")
    return Domain(grid, ls)


def save_boundary(samples, path):
    rows = np.column_stack([samples.points, samples.normals, samples.ds])
    with atomic_open(path) as fh:
        fh.write("x,y,nx,ny,ds\n")
        np.savetxt(fh, rows, delimiter=",")
