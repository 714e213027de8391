"""Analytic boundary shapes with exact distance oracles, and the shape surface.

The shapes here have closed-form distance functions, so their fields are
exact and the leaf index only matters when stopped walks are binned into
atoms.  Fractal repellers implement the same :class:`Shape` surface in
:mod:`cantorlab.geometry` with a tree-based field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

TWO_PI = 2.0 * np.pi


class DistanceField(Protocol):
    """Certified distance bounds from the leaf pieces of one generation.

    query(z) returns lower and upper bounds on dist(z, J), with gap at most
    twice the resolution the field was built for.  leaf(z) returns the index
    of the nearest of the leaf_count leaf pieces; the sampler asks for it
    only at the points where walks stop.
    """

    depth: int
    leaf_count: int

    def query(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]: ...
    def leaf(self, z: np.ndarray) -> np.ndarray: ...


class Shape(Protocol):
    """What the sampling and quadrature code uses of a compact set J.

    name labels file headers; the disc of bounding_center and
    bounding_radius contains J, and diameter is that of J itself.
    field(resolution) certifies distances to within 2 * resolution;
    atom_depth(target_radius) is the piece generation whose radius first
    drops to target_radius, and atoms(depth) gives the codes, centers and
    radii of all pieces at a generation.  in_outer_domain(z) marks points
    of the unbounded complementary component.
    """

    name: str

    @property
    def bounding_center(self) -> complex: ...
    @property
    def bounding_radius(self) -> float: ...
    @property
    def diameter(self) -> float: ...
    def field(self, resolution: float) -> DistanceField: ...
    def atom_depth(self, target_radius: float) -> int: ...
    def atoms(self, depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]: ...
    def in_outer_domain(self, z: np.ndarray) -> np.ndarray: ...


def binary_codes(depth: int) -> np.ndarray:
    """All binary words of a given length, lexicographic, as a (2^depth, depth) array."""
    idx = np.arange(1 << depth, dtype=np.int64)
    # column by column, so no int64 array of the full table is ever built
    codes = np.empty((1 << depth, depth), dtype=np.uint8)
    for j in range(depth):
        codes[:, j] = (idx >> (depth - 1 - j)) & 1
    return codes


class _ExactField:
    """Distance field backed by a closed-form distance function."""

    def __init__(self, shape, depth: int):
        self.shape = shape
        self.depth = depth
        self.leaf_count = 1 << depth

    def query(self, z: np.ndarray):
        d = self.shape.distance(z)
        return d, d

    def leaf(self, z: np.ndarray) -> np.ndarray:
        return self.shape.leaf_index(z, self.depth)


class _ExactShape:
    """Closed-form shape whose generation-k pieces have radius piece_radius(k)."""

    def in_outer_domain(self, z: np.ndarray) -> np.ndarray:
        return np.ones(np.asarray(z).shape, dtype=bool)

    def atom_depth(self, target_radius: float) -> int:
        k = 0
        while self.piece_radius(k) > target_radius:
            k += 1
            if k > 60:
                raise ValueError("target radius too small")
        return k

    def field(self, resolution: float) -> _ExactField:
        return _ExactField(self, self.atom_depth(resolution))


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

    def leaf_index(self, z: np.ndarray, depth: int) -> np.ndarray:
        rel = np.asarray(z) - self.center
        frac = (np.arctan2(rel.imag, rel.real) / TWO_PI) % 1.0
        return np.minimum((frac * (1 << depth)).astype(np.int64), (1 << depth) - 1)

    def piece_radius(self, depth: int) -> float:
        # half arc length bounds the distance from arc midpoint to any arc point
        return np.pi * self.radius / (1 << depth)

    def atoms(self, depth: int):
        n = 1 << depth
        ang = TWO_PI * (np.arange(n) + 0.5) / n
        centers = self.center + self.radius * np.exp(1j * ang)
        radii = np.full(n, self.piece_radius(depth))
        return binary_codes(depth), centers, radii


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

    def leaf_index(self, z: np.ndarray, depth: int) -> np.ndarray:
        t = self._param(z)
        return np.minimum((t * (1 << depth)).astype(np.int64), (1 << depth) - 1)

    def piece_radius(self, depth: int) -> float:
        return abs(self.b - self.a) / (2 << depth)

    def atoms(self, depth: int):
        n = 1 << depth
        t = (np.arange(n) + 0.5) / n
        centers = self.a + t * (self.b - self.a)
        radii = np.full(n, self.piece_radius(depth))
        return binary_codes(depth), centers, radii


@dataclass(frozen=True)
class SinglePoint(_ExactShape):
    """Degenerate one-point set.

    Not a valid repeller; it exists so the shell-sum quadrature can be checked
    against the closed-form integral of |z|^(-p) over a disc.
    """

    point: complex = 0j
    extent: float = 1.0

    name = "point"

    @property
    def bounding_center(self) -> complex:
        return self.point

    @property
    def bounding_radius(self) -> float:
        return self.extent

    @property
    def diameter(self) -> float:
        return 0.0

    def distance(self, z: np.ndarray) -> np.ndarray:
        return np.abs(np.asarray(z) - self.point)

    def leaf_index(self, z: np.ndarray, depth: int) -> np.ndarray:
        return np.zeros(np.shape(z), dtype=np.int64)

    def piece_radius(self, depth: int) -> float:
        return 0.0

    def atoms(self, depth: int):
        return (
            np.zeros((1, 0), dtype=np.uint8),
            np.array([self.point]),
            np.array([0.0]),
        )
