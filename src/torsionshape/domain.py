"""Level-set representation of bounded planar domains on a Cartesian grid."""

import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from . import kernels
from .errors import EmptyDomain, GridMismatch, NonFinite, OutOfBox
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

    def cell(self, pts):
        """(i, j, tx, ty): the cell of each point (..., 2), clamped to the
        grid, and the point's fractions across it, in [0, 1)."""
        i, tx = self.split(pts[..., 0], 0)
        j, ty = self.split(pts[..., 1], 1)
        return i, j, tx, ty

    def split(self, x, axis):
        """(i, t): the cell index along ``axis`` of each coordinate ``x``,
        clamped to the grid, and its fraction across the cell, in [0, 1)."""
        f = np.clip((x - self.box[axis]) / self.h, 0.0,
                    self.shape[axis] - 1 - 1e-12)
        i = f.astype(int)
        return i, f - i


@dataclass(frozen=True, eq=False)
class Domain:
    """Bounded open set {ls < 0}; ls is nodal, negative inside.

    Every Domain is valid: ``ls`` has the grid's shape, finite values, at
    least one node inside and ``ls > 0`` on the ``MARGIN_CELLS`` frame of the
    box, so every interior node has four grid neighbours and the front
    crosses some cell.
    ``ls`` is read-only, so the geometry cached from it never goes stale.
    """

    grid: GridSpec
    ls: np.ndarray
    is_signed_distance: bool = False

    def __post_init__(self):
        ls, m = self.ls, MARGIN_CELLS
        if ls.shape != self.grid.shape:
            raise GridMismatch(f"level-set shape {ls.shape} does not match "
                               f"grid {self.grid.shape}")
        bad = ls.size - np.count_nonzero(np.isfinite(ls))
        if bad:
            raise NonFinite(f"level set holds {bad} non-finite values")
        if np.min(ls) >= 0.0:
            raise EmptyDomain(f"level set has no interior nodes on grid "
                              f"{self.grid.nx}x{self.grid.ny}")
        frame = (ls[:m], ls[-m:], ls[:, :m], ls[:, -m:])
        if min(np.min(f) for f in frame) <= 0.0:
            # the message is built here only: the ladder catches this error
            touched = [side for side, f in zip(("x0", "x1", "y0", "y1"), frame)
                       if np.min(f) <= 0.0]
            raise OutOfBox(
                f"zero level set violates the {m}-cell bounding-box margin "
                f"on side(s) {', '.join(touched)} of grid "
                f"{self.grid.nx}x{self.grid.ny}, box {list(self.grid.box)}")
        ls.setflags(write=False)

    @cached_property
    def cells(self):
        """``kernels.mixed_cells(ls)``, the cut cells that the quadrature,
        the volume and the boundary samples all read."""
        cells = kernels.mixed_cells(self.ls)
        for a in cells:
            a.setflags(write=False)
        return cells

    @cached_property
    def quadrature(self):
        """(weights, points): areas and centroids of the cells with area > 0."""
        weights, points = cell_quadrature(self)
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


def build_domain(grid, seed):
    """Create a Domain from an analytic seed or an explicit nodal field."""
    pts = grid.nodes()
    if isinstance(seed, Ball):
        c = np.asarray(seed.center)
        ls = np.hypot(pts[..., 0] - c[0], pts[..., 1] - c[1]) - seed.radius
        return Domain(grid, ls, is_signed_distance=True)
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
    else:
        raise TypeError(f"unknown seed {seed!r}")
    return reinitialize(Domain(grid, ls))


# --- geometric primitives ---------------------------------------------------

def cell_quadrature(d):
    """(weights, points): the inside areas of the cells with area > 0, in C
    order, and their centroids in global coordinates.

    A full cell's centroid is its centre, ``(i + 0.5) h + x0``; a cut
    cell's is ``i h + gx + x0``, with ``gx`` its offset in the cell.
    """
    h = d.grid.h
    x0, y0, _, _ = d.grid.box
    areas, cx, cy = kernels.cell_geometry(d.ls, h, d.cells)
    mask = areas > 0.0
    ci, cj = kernels.nonzero_2d(mask)
    xs = (ci + 0.5) * h + x0
    ys = (cj + 0.5) * h + y0
    i, j = d.cells[:2]
    cut = areas[i, j] > 0.0
    n1 = areas.shape[1]
    at = np.searchsorted(ci * n1 + cj, i[cut] * n1 + j[cut])
    xs[at] = cx[cut] + x0
    ys[at] = cy[cut] + y0
    return areas[mask], np.stack([xs, ys], axis=-1)


def volume(d):
    areas, _, _ = kernels.cell_geometry(d.ls, d.grid.h, d.cells)
    return float(np.sum(areas))


def _lerp2(f00, f10, f01, f11, tx, ty):
    """Bilinear blend of a cell's corner values, as nested linear steps
    ``a + t (b - a)``: four equal nonzero corners give exactly their value
    (four ``-0.0`` corners give ``+0.0``)."""
    lo = f00 + tx * (f10 - f00)
    hi = f01 + tx * (f11 - f01)
    return lo + ty * (hi - lo)


def interp_bilinear(field, grid, pts):
    """Bilinear interpolation of a nodal field at points (..., 2), edge-clamped.

    The nested form keeps the clamped plateau of a redistanced ``ls`` flat
    under resampling.
    """
    i, j, tx, ty = grid.cell(np.asarray(pts, dtype=float))
    f = field
    return _lerp2(f[i, j], f[i + 1, j], f[i, j + 1], f[i + 1, j + 1], tx, ty)


def _central_gradient(ls, h, i, j):
    """``np.gradient(ls, h)`` at the nodes (i, j), bit for bit, from its
    interior formula: a ``Domain``'s margin keeps the nodes near the front
    off the grid's edge."""
    gx = (ls[i + 1, j] - ls[i - 1, j]) / (2.0 * h)
    gy = (ls[i, j + 1] - ls[i, j - 1]) / (2.0 * h)
    return gx, gy


def boundary_samples(d):
    """Marching-squares extraction of the zero level set.

    Segment midpoints with outward unit normals and segment lengths.  The
    chords join the same edge crossings as cell_quadrature's polygons, but
    a node where ``ls`` is exactly 0 counts as outside here, while
    cell_quadrature keeps it inside when both its neighbours in the cell
    are <= 0: there the chord cuts the corner diagonally.  For the
    grid-aligned square max(|x|, |y|) < 1 at 32² on [-2, 2]², the area is
    exactly 4 but the chords add up to 8 - 8h + 4 sqrt(2) h.  A normal is
    ``grad ls`` interpolated bilinearly at the midpoint from the central
    differences at its cell's four corners.
    """
    ls = d.ls
    grid = d.grid
    h = grid.h
    i, j, v, cross, t = d.cells
    # walking each cell CCW, an exit crossing (inside -> outside) is joined
    # to the next crossing of the cell, the entry that closes the chord
    c, k0 = np.nonzero(cross & (v < 0.0))
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
    ci, cj, tx, ty = grid.cell(mid)
    gx, gy = _central_gradient(ls, h, ci[:, None] + [0, 1, 0, 1],
                               cj[:, None] + [0, 0, 1, 1])
    nx = _lerp2(*gx.T, tx, ty)
    ny = _lerp2(*gy.T, tx, ty)
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

    The flip nodes, those with a neighbour across the front, seed the
    narrow-band Jacobi eikonal solve with ``|ls| / |grad ls|``, the gradient
    taken at those nodes alone; ``kernels.eikonal_solve`` takes their
    indices and values and freezes them.  It makes ``|ls|`` the first-order
    upwind (Godunov) eikonal solution seeded at the flip nodes below
    ``REINIT_BAND_CELLS * h``, clamped to that value beyond, and every node
    keeps its sign.  It is not the exact distance: on the geometry
    benchmark's reference curve at 384², it is up to 0.024 h off the exact
    signed distance on the nodes within 3h of the front.  Every consumer
    reads ``ls`` near the front or only its sign.
    """
    grid = d.grid
    h = grid.h
    ls = d.ls
    inside = ls < 0.0
    fi, fj = kernels.nonzero_2d(kernels.neighbour_differs(inside))
    gn = np.clip(np.hypot(*_central_gradient(ls, h, fi, fj)), 0.2, 5.0)
    dist = kernels.eikonal_solve(grid.shape, (fi, fj), np.abs(ls[fi, fj]) / gn,
                                 h, REINIT_BAND_CELLS)
    np.negative(dist, out=dist, where=inside)
    return Domain(grid, dist, is_signed_distance=True)


def scale_domain(d, t):
    """Homothety t*Omega, resampling the level set at x/t.

    The same values as ``interp_bilinear`` at ``grid.nodes() / t``: a node's
    ``x/t`` depends on its row alone and ``y/t`` on its column alone, so each
    axis is split into cells once.  A source cell whose four corners hold
    one nonzero value resamples exactly to it (see ``_lerp2``), as every
    cell on a redistanced ``ls``'s plateau does, so only the nodes in the
    other cells are blended.  A cell with a zero corner is blended too: a
    flat ``-0.0`` cell resamples to ``+0.0``, as ``-0.0 + 0.0`` is ``+0.0``.
    """
    if t <= 0:
        raise ValueError("scale factor must be > 0")
    grid = d.grid
    f = d.ls
    i, tx = grid.split(grid.xs / t, 0)
    j, ty = grid.split(grid.ys / t, 1)
    ls = f[i][:, j]
    f00 = f[:-1, :-1]
    varies = ((f00 != f[1:, :-1]) | (f00 != f[:-1, 1:]) | (f00 != f[1:, 1:])
              | (f00 == 0.0))
    a, b = kernels.nonzero_2d(varies[i][:, j])
    ia, jb = i[a], j[b]
    ls[a, b] = _lerp2(f[ia, jb], f[ia + 1, jb], f[ia, jb + 1],
                      f[ia + 1, jb + 1], tx[a], ty[b])
    if d.is_signed_distance:
        ls *= t
    return Domain(grid, ls, is_signed_distance=d.is_signed_distance)


def hausdorff_distance(d1, d2):
    """Symmetric Hausdorff distance between the two boundary sample sets."""
    if d1.grid.shape != d2.grid.shape or d1.grid.box != d2.grid.box:
        raise GridMismatch("domains must share a grid")
    return _hausdorff_points(d1.samples.points, d2.samples.points)


def _hausdorff_points(b1, b2):
    """Symmetric Hausdorff distance between the point sets b1 and b2, (n, 2)."""
    t1 = cKDTree(b1)
    t2 = cKDTree(b2)
    d12 = np.max(t2.query(b1)[0])
    d21 = np.max(t1.query(b2)[0])
    return float(max(d12, d21))


def connected_components(d):
    """Number of 4-connected components of the inside node set."""
    labels, n = ndimage.label(d.ls < 0.0)
    return int(n)


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


def write_csv(fh, a):
    """Write the 2-D float array ``a`` to the text handle ``fh``, byte for
    byte as NumPy's text writer does with ``delimiter=","`` and its default
    format: ``%.18e`` values, ``,`` between them and ``\\n`` after each row.

    Each distinct bit pattern is formatted once (bits, not values, so that
    ``0.0`` and ``-0.0`` keep their own text), and the rows go out one at a
    time, so the file's text is never held whole. The gain comes from
    repeated values: a solve's level set sits on its ±cap and its ``u`` is 0
    at most nodes, which takes a 256² ``domain.csv`` or ``field.csv`` from
    15–18 ms to 5 ms. On an all-distinct random 257² array it is 22% slower
    than NumPy's writer (39 vs 32 ms); no ``solve`` artifact looks like that.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    bits, inverse = np.unique(a.view(np.uint64), return_inverse=True)
    text = np.array(["%.18e" % v for v in bits.view(np.float64).tolist()],
                    dtype=object)
    fh.writelines(",".join(row) + "\n"
                  for row in text[inverse.reshape(a.shape)].tolist())


def save_domain(d, fh):
    """Write ``d`` to the text handle ``fh``: the header line
    ``nx,ny,x0,y0,x1,y1``, then one row of ``ls`` per x."""
    x0, y0, x1, y1 = d.grid.box
    fh.write(f"{d.grid.nx},{d.grid.ny},{x0},{y0},{x1},{y1}\n")
    write_csv(fh, d.ls)


def load_domain(path):
    with open(path) as fh:
        head = fh.readline().strip().split(",")
        nx, ny = int(head[0]), int(head[1])
        box = tuple(float(v) for v in head[2:6])
        ls = np.loadtxt(fh, delimiter=",")
    return Domain(GridSpec(nx, ny, box), ls)


def save_boundary(samples, fh):
    """Write ``samples`` to the text handle ``fh``, one ``x,y,nx,ny,ds`` row
    per sample under that header."""
    fh.write("x,y,nx,ny,ds\n")
    write_csv(fh, np.column_stack([samples.points, samples.normals,
                                   samples.ds]))
