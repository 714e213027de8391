"""Analytic boundary shapes with exact distance oracles, and the shape surface.

The shapes here have closed-form distance functions, so their fields are
exact and the leaf index only matters when stopped walks are binned into
atoms.  Fractal repellers in :mod:`cantorlab.geometry` inherit the same
:class:`Shape` base, with a tree-based field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .errors import ResourceLimitError

TWO_PI = 2.0 * np.pi

#: most pieces of one generation under any table (atoms, a product axis's words,
#: the sampler's tallies); atoms and close_pairs over 2^22 pieces take about 2 GB
PIECE_CAP = 4**10


class DistanceField(Protocol):
    """Certified distance bounds from the leaf pieces of one generation.

    query(z) returns lower and upper bounds on dist(z, J), with gap at most
    twice the resolution the field was built for; when the leaf pieces share
    one radius it needs no leaf index.  Non-finite points get non-finite
    bounds (on cylinder fields NaN where a part is NaN, else inf), no error.
    leaf(z) returns the index of the nearest of the leaf_count leaf pieces;
    the sampler asks for it only at the points where walks stop.
    """

    depth: int
    leaf_count: int

    def query(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]: ...
    def leaf(self, z: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class CylinderSet:
    """All pieces of one generation, in lexicographic code order.

    codes is a (fan**k, k) uint8 array; centers and radii give the disc of
    each piece, which holds its part of J.
    """

    codes: np.ndarray
    centers: np.ndarray
    radii: np.ndarray

    def __len__(self) -> int:
        return len(self.centers)


def piece_count(fan: int, depth: int) -> int:
    """fan**depth, checked before any table over generation depth is built:
    ValueError below depth 0, ResourceLimitError above PIECE_CAP."""
    if depth < 0:
        raise ValueError("generation must be >= 0")
    n = fan**depth
    if n > PIECE_CAP:
        raise ResourceLimitError(f"generation {depth} has {fan}^{depth} pieces, cap {PIECE_CAP}")
    return n


def words(fan: int, depth: int) -> np.ndarray:
    """All words of depth letters from fan, lexicographic, as a (fan**depth, depth)
    uint8 array, refused by piece_count before it is allocated."""
    n = piece_count(fan, depth)
    codes = np.empty((n, depth), dtype=np.uint8)
    letters = np.arange(fan, dtype=np.uint8)[:, None]
    for j in range(depth):
        # letter j runs through 0..fan-1 in blocks of fan**(depth - 1 - j) rows
        codes.reshape(fan**j, fan, -1, depth)[..., j] = letters
    return codes


def require_digit_codes(fan: int) -> None:
    """Refuse more than 10 letters: code columns write one digit per letter."""
    if fan > 10:
        raise ValueError(f"code columns write one digit per letter, so at most 10 branches, "
                         f"got {fan}")


def code_rows(codes: np.ndarray, points: np.ndarray, values: np.ndarray) -> list[str]:
    """One "code,x,y,value" row per piece, its code written a digit per letter."""
    if codes.size:
        require_digit_codes(int(codes.max()) + 1)
    return [f"{''.join(map(str, code.tolist()))},{float(z.real)!r},{float(z.imag)!r},{float(v)!r}"
            for code, z, v in zip(codes, points, values)]


class Shape:
    """What the sampling and quadrature code uses of a compact set J: the base
    class of every boundary, exact shapes and repellers alike.

    name labels file headers; the disc of bounding_center and
    bounding_radius contains J, and so does the one of enclosing_radius about
    the same center, a certified radius no larger (bounding_radius unless the
    shape knows a tighter one), given without building a generation;
    diameter is that of J itself.
    field(resolution) certifies distances to within 2 * resolution.  The
    pieces of generation k number fan**k, each piece split into fan
    contiguous ones at the next generation, and have radius at most
    piece_radius(k); atoms(depth), the one accessor for a generation, gives
    the CylinderSet of its pieces, built on each call and refused above
    PIECE_CAP pieces (piece_count); capacity_ratios(radii) gives each
    piece's capacity over that of J, the self-term of the equilibrium solve.
    in_outer_domain(z) marks points of the unbounded complementary component.
    """

    name: str
    fan: int

    def in_outer_domain(self, z: np.ndarray) -> np.ndarray:
        # a set with no holes: the complement is one connected piece
        return np.ones(np.asarray(z).shape, dtype=bool)

    def atom_depth(self, target_radius: float) -> int:
        """Smallest generation whose pieces all have radius <= target_radius."""
        if target_radius <= 0:
            raise ValueError("target radius must be positive")
        k = 0
        while self.piece_radius(k) > target_radius:
            k += 1
        return k

    @property
    def enclosing_radius(self) -> float:
        return self.bounding_radius

    def capacity_ratios(self, radii: np.ndarray) -> np.ndarray:
        """cap(piece) / cap(J) for pieces of these radii: radius over bounding
        radius, as a piece is J scaled (a repeller's cylinders, a segment's)."""
        return radii / self.bounding_radius


class _ExactField:
    """Distance field backed by a closed-form distance function."""

    def __init__(self, shape, depth: int):
        self.shape = shape
        self.depth = depth
        self.leaf_count = shape.fan**depth

    def query(self, z: np.ndarray):
        d = self.shape.distance(z)
        return d, d

    def leaf(self, z: np.ndarray) -> np.ndarray:
        return self.shape.leaf_index(z, self.depth)


class _ExactShape(Shape):
    """Closed-form shape whose generation-k pieces have radius piece_radius(k).

    The pieces of generation k split a parameter t in [0, 1] into fan^k equal
    intervals: _param(z) is the parameter of z's nearest point on the shape,
    and _center(m, n) the point at parameter m / n.
    """

    fan = 2  # each piece halves

    def field(self, resolution: float) -> _ExactField:
        return _ExactField(self, self.atom_depth(resolution))

    def leaf_index(self, z: np.ndarray, depth: int) -> np.ndarray:
        n = self.fan**depth
        if n > 1 << 62:  # past 2^62 leaves, param * n may overflow int64
            raise ResourceLimitError(f"generation {depth} has {self.fan}^{depth} leaves, "
                                     f"over the int64 index limit 2^62")
        return np.minimum((self._param(z) * n).astype(np.int64), n - 1)

    def atoms(self, depth: int) -> CylinderSet:
        codes = words(self.fan, depth)
        n = len(codes)
        centers = self._center(np.arange(n) + 0.5, n)
        return CylinderSet(codes, centers, np.full(n, self.piece_radius(depth)))


@dataclass(frozen=True)
class Circle(_ExactShape):
    """The circle |z - center| = radius, as a harmonic-measure test boundary.

    Harmonic measure from far away is the uniform arc measure, the Robin
    constant is -log(radius) and G(z) = log(|z - center| / radius), which
    makes this the primary oracle for the sampling and potential code.
    """

    center: complex = 0j
    radius: float = 1.0

    name = "circle"

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("circle radius must be positive")

    @property
    def bounding_center(self) -> complex:
        return self.center

    @property
    def bounding_radius(self) -> float:
        return self.radius

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def distance(self, z: np.ndarray) -> np.ndarray:
        return np.abs(np.abs(np.asarray(z) - self.center) - self.radius)

    def in_outer_domain(self, z: np.ndarray) -> np.ndarray:
        # the circle bounds a hole; probes must avoid the enclosed disc
        return np.abs(np.asarray(z) - self.center) > self.radius

    def _param(self, z: np.ndarray) -> np.ndarray:
        return (np.angle(np.asarray(z) - self.center) / TWO_PI) % 1.0

    def _center(self, m: np.ndarray, n: int) -> np.ndarray:
        return self.center + self.radius * np.exp(1j * (TWO_PI * m / n))

    def piece_radius(self, depth: int) -> float:
        # half arc length bounds the distance from arc midpoint to any arc point;
        # ldexp is the division by 2^depth, and stays finite past depth 1023
        return float(np.ldexp(np.pi * self.radius, -depth))

    def capacity_ratios(self, radii: np.ndarray) -> np.ndarray:
        # an arc of half length r on a circle of radius R has capacity R sin(r / 2R)
        return np.sin(radii / (2.0 * self.radius))


@dataclass(frozen=True)
class Segment(_ExactShape):
    """A straight segment between two endpoints (default [-1, 1]).

    For the unit segment the equilibrium measure is the arcsine law and the
    logarithmic capacity is |b - a| / 4.
    """

    a: complex = -1.0 + 0j
    b: complex = 1.0 + 0j

    name = "segment"

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("segment endpoints coincide")

    @property
    def bounding_center(self) -> complex:
        return 0.5 * (self.a + self.b)

    @property
    def bounding_radius(self) -> float:
        return 0.5 * abs(self.b - self.a)

    @property
    def diameter(self) -> float:
        return abs(self.b - self.a)

    def _param(self, z: np.ndarray) -> np.ndarray:
        u = self.b - self.a
        t = ((np.asarray(z) - self.a) * np.conj(u)).real / abs(u) ** 2
        return np.clip(t, 0.0, 1.0)

    def distance(self, z: np.ndarray) -> np.ndarray:
        t = self._param(z)
        return np.abs(np.asarray(z) - (self.a + t * (self.b - self.a)))

    def _center(self, m: np.ndarray, n: int) -> np.ndarray:
        return self.a + m / n * (self.b - self.a)

    def piece_radius(self, depth: int) -> float:
        return float(np.ldexp(abs(self.b - self.a), -depth - 1))


@dataclass(frozen=True)
class SinglePoint(_ExactShape):
    """Degenerate one-point set.

    Not a valid repeller; it exists so the shell-sum quadrature can be checked
    against the closed-form integral of |z|^(-p) over a disc.  Its one piece
    of each generation is the point itself, of radius 0.
    """

    point: complex = 0j
    extent: float = 1.0

    name = "point"
    fan = 1

    @property
    def bounding_center(self) -> complex:
        return self.point

    @property
    def bounding_radius(self) -> float:
        return self.extent

    @property
    def enclosing_radius(self) -> float:
        return 0.0

    @property
    def diameter(self) -> float:
        return 0.0

    def distance(self, z: np.ndarray) -> np.ndarray:
        return np.abs(np.asarray(z) - self.point)

    def _param(self, z: np.ndarray) -> np.ndarray:
        return np.zeros(np.shape(z))

    def _center(self, m: np.ndarray, n: int) -> np.ndarray:
        return np.full(np.shape(m), self.point, dtype=complex)

    def piece_radius(self, depth: int) -> float:
        return 0.0
