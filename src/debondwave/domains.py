"""Reference domains and their boundary parametrizations.

Each kind knows its Lebesgue measure in closed form, an interior sample
grid, and a boundary quadrature organized per face.  Normals are sampled
per face only, never at edges or corners, where they are undefined.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np


def _unit_ball_volume(n):
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@functools.cache
def _gauss_rule(n):
    """np.polynomial.legendre.leggauss(n), nodes and weights on (-1, 1),
    formed once per n in the process (an eigenvalue solve) and read-only.
    The only code that loads numpy.polynomial (about 0.7 MiB a process), on
    first call: runs of scenario files never reach it."""
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


@dataclass(frozen=True)
class BoundaryFace:
    """Quadrature points, weights and outward reference normals on one face."""

    name: str
    points: np.ndarray   # (Q, N)
    weights: np.ndarray  # (Q,) surface-measure weights
    normals: np.ndarray  # (Q, N) outward unit normals of the reference domain


class ReferenceDomain:
    """Base class; subclasses are immutable value objects."""

    dim = None

    def measure(self):
        raise NotImplementedError

    def interior_grid(self, k):
        """Roughly k points covering the closure, shaped (P, dim)."""
        raise NotImplementedError

    def boundary_faces(self, resolution=64):
        raise NotImplementedError


@dataclass(frozen=True)
class Interval(ReferenceDomain):
    """(0, length) in 1d.  Boundary measure is the counting measure."""

    length: float
    dim = 1

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("interval length must be positive")

    def measure(self):
        return self.length

    def interior_grid(self, k):
        return np.linspace(0.0, self.length, k).reshape(-1, 1)

    def boundary_faces(self, resolution=64):
        left = BoundaryFace(
            "left",
            np.array([[0.0]]),
            np.array([1.0]),
            np.array([[-1.0]]),
        )
        right = BoundaryFace(
            "right",
            np.array([[self.length]]),
            np.array([1.0]),
            np.array([[1.0]]),
        )
        return [left, right]


@dataclass(frozen=True)
class Ball(ReferenceDomain):
    """Ball of given radius centered at the origin."""

    radius: float
    dim_: int = 2

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")
        if self.dim_ < 2:
            raise ValueError("use Interval for one-dimensional domains")

    @property
    def dim(self):
        return self.dim_

    def measure(self):
        return _unit_ball_volume(self.dim_) * self.radius ** self.dim_

    def interior_grid(self, k):
        n = self.dim_
        side = max(2, int(round(k ** (1.0 / n))))
        axes = [np.linspace(-self.radius, self.radius, side)] * n
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        keep = np.linalg.norm(pts, axis=1) <= self.radius
        pts = pts[keep]
        if len(pts) == 0:
            pts = np.zeros((1, n))
        return pts

    def boundary_faces(self, resolution=64):
        return [_sphere_face("sphere", self.radius, self.dim_, resolution, outward=+1.0)]


@dataclass(frozen=True)
class Annulus(ReferenceDomain):
    """{ inner < |x| < outer } in the plane (or higher dimension)."""

    inner: float
    outer: float
    dim_: int = 2

    def __post_init__(self):
        if not (0 < self.inner < self.outer):
            raise ValueError("annulus needs 0 < inner < outer")
        if self.dim_ < 2:
            raise ValueError("use Interval for one-dimensional domains")

    @property
    def dim(self):
        return self.dim_

    def measure(self):
        v = _unit_ball_volume(self.dim_)
        return v * (self.outer ** self.dim_ - self.inner ** self.dim_)

    def interior_grid(self, k):
        n = self.dim_
        side = max(3, int(round(k ** (1.0 / n))))
        axes = [np.linspace(-self.outer, self.outer, 2 * side)] * n
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        r = np.linalg.norm(pts, axis=1)
        keep = (r >= self.inner) & (r <= self.outer)
        pts = pts[keep]
        if len(pts) < k // 2:
            # radial fallback: rays times radii, always well populated
            radii = np.linspace(self.inner, self.outer, max(4, side))
            angles = np.linspace(0.0, 2 * np.pi, max(8, side), endpoint=False)
            if n != 2:
                raise ValueError("annulus grids implemented for dim 2")
            rr, aa = np.meshgrid(radii, angles, indexing="ij")
            pts = np.stack([rr * np.cos(aa), rr * np.sin(aa)], axis=-1).reshape(-1, 2)
        return pts

    def boundary_faces(self, resolution=64):
        outer = _sphere_face("outer", self.outer, self.dim_, resolution, outward=+1.0)
        inner = _sphere_face("inner", self.inner, self.dim_, resolution, outward=-1.0)
        return [inner, outer]


def _sphere_face(name, radius, dim, resolution, outward):
    """Quadrature on a sphere |x| = radius; outward=+1 points away from 0."""
    if dim == 2:
        theta = (np.arange(resolution) + 0.5) * (2 * np.pi / resolution)
        pts = radius * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        w = np.full(resolution, 2 * np.pi * radius / resolution)
        nrm = outward * pts / radius
    elif dim == 3:
        # Gauss in cos(polar) times uniform azimuth: exact for zonal polynomials
        nt = max(4, resolution // 8)
        np_az = max(8, resolution // 2)
        mu, gw = _gauss_rule(nt)
        phi = (np.arange(np_az) + 0.5) * (2 * np.pi / np_az)
        MU, PHI = np.meshgrid(mu, phi, indexing="ij")
        s = np.sqrt(1.0 - MU ** 2)
        dirs = np.stack([s * np.cos(PHI), s * np.sin(PHI), MU], axis=-1).reshape(-1, 3)
        pts = radius * dirs
        W = (np.repeat(gw, np_az) * (2 * np.pi / np_az)) * radius ** 2
        w = W
        nrm = outward * dirs
    else:
        raise ValueError(f"sphere quadrature not implemented for dim {dim}")
    return BoundaryFace(name, pts, w, nrm)


@dataclass(frozen=True)
class Box(ReferenceDomain):
    """(0, e_1) x ... x (0, e_N); star shaped about the origin corner."""

    extents: tuple

    def __post_init__(self):
        if any(e <= 0 for e in self.extents):
            raise ValueError("box extents must be positive")

    @property
    def dim(self):
        return len(self.extents)

    def measure(self):
        return float(np.prod(self.extents))

    def interior_grid(self, k):
        n = self.dim
        side = max(2, int(round(k ** (1.0 / n))))
        axes = [np.linspace(0.0, e, side) for e in self.extents]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)

    def boundary_faces(self, resolution=64):
        n = self.dim
        if n > 3:
            raise ValueError("box boundary quadrature implemented for dim <= 3")
        faces = []
        per_axis = max(2, int(round(resolution ** (1.0 / max(1, n - 1)))))
        if n > 1:  # one rule for every face and every axis along it
            x, w = _gauss_rule(per_axis)
        for i in range(n):
            others = [j for j in range(n) if j != i]
            if others:
                grids, weights = [], []
                for j in others:
                    grids.append(0.5 * self.extents[j] * (x + 1.0))
                    weights.append(0.5 * self.extents[j] * w)
                mesh = np.meshgrid(*grids, indexing="ij")
                wmesh = np.meshgrid(*weights, indexing="ij")
                q = len(mesh[0].ravel())
                wq = np.ones(q)
                for wm in wmesh:
                    wq = wq * wm.ravel()
            else:
                mesh, wq, q = [], np.array([1.0]), 1
            for side_val, sign in ((0.0, -1.0), (self.extents[i], +1.0)):
                pts = np.zeros((q, n))
                pts[:, i] = side_val
                for j, other in enumerate(others):
                    pts[:, other] = mesh[j].ravel()
                nrm = np.zeros((q, n))
                nrm[:, i] = sign
                name = f"x{i}={'0' if sign < 0 else 'e'}"
                faces.append(BoundaryFace(name, pts, wq.copy(), nrm))
        return faces


@dataclass(frozen=True)
class Tetrahedron(ReferenceDomain):
    """{ y.n < level, y_i > 0 } with n a unit vector with positive components."""

    normal: tuple
    level: float = 1.0

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise ValueError("tetrahedron normal must have unit length")
        if np.any(n <= 0):
            raise ValueError("tetrahedron normal must have positive components")
        if self.level <= 0:
            raise ValueError("tetrahedron level must be positive")

    @property
    def dim(self):
        return len(self.normal)

    def measure(self):
        n = np.asarray(self.normal, dtype=float)
        d = self.dim
        # simplex with legs level/n_i along the axes
        return self.level ** d / (math.factorial(d) * float(np.prod(n)))

    def interior_grid(self, k):
        n = np.asarray(self.normal, dtype=float)
        d = self.dim
        side = max(3, int(round((2 * k) ** (1.0 / d))))
        axes = [np.linspace(0.0, self.level / n[i], side) for i in range(d)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        keep = pts @ n <= self.level
        return pts[keep]

    def boundary_faces(self, resolution=64):
        if self.dim != 2:
            raise ValueError("tetrahedron boundary quadrature implemented for dim 2")
        n = np.asarray(self.normal, dtype=float)
        lv = self.level
        q = max(4, resolution // 4)
        x, w = _gauss_rule(q)
        faces = []
        # coordinate edges: y2 = 0 up to lv/n1, and y1 = 0 up to lv/n2
        for i in range(2):
            other = 1 - i
            length = lv / n[other]
            s = 0.5 * length * (x + 1.0)
            ws = 0.5 * length * w
            pts = np.zeros((q, 2))
            pts[:, other] = s
            nrm = np.zeros((q, 2))
            nrm[:, i] = -1.0
            faces.append(BoundaryFace(f"y{i + 1}=0", pts, ws, nrm))
        # slanted edge from (lv/n1, 0) to (0, lv/n2)
        a = np.array([lv / n[0], 0.0])
        b = np.array([0.0, lv / n[1]])
        s = 0.5 * (x + 1.0)
        pts = a[None, :] + s[:, None] * (b - a)[None, :]
        ws = 0.5 * np.linalg.norm(b - a) * w
        nrm = np.tile(n, (q, 1))
        faces.append(BoundaryFace("slant", pts, ws, nrm))
        return faces
