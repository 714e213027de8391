"""Self-similar Cantor sets as iterated function systems of similarities.

A repeller here is a finite family of contracting similarities of the plane
whose images of a common root disc are pairwise disjoint and strictly inside
that disc.  The attractor J is the nested intersection of the cylinder discs;
every operation below (certified distance, covering counts, shell integrals)
works from the cylinder hierarchy alone and never needs points of J itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import (
    ConfigError,
    EscapeError,
    OverlapError,
    ResourceLimitError,
    QuadratureError,
)
from .shapes import DistanceField, Shape

#: hard cap on the number of cylinders any operation may instantiate
CYLINDER_CAP = 4**10

#: required clearance between branch images, relative to the root radius
SEPARATION_MARGIN = 1e-9


@dataclass(frozen=True)
class SimilarityMap:
    """The contraction z -> scale * exp(i*rotation) * z + translation."""

    scale: float
    rotation: float = 0.0
    translation: complex = 0j

    def __post_init__(self):
        if not 0.0 < self.scale < 1.0:
            raise ValueError(f"scale must lie in (0, 1), got {self.scale}")

    @property
    def factor(self) -> complex:
        """Complex multiplier of the map."""
        return self.scale * complex(math.cos(self.rotation), math.sin(self.rotation))

    def __call__(self, z: complex) -> complex:
        return self.factor * z + self.translation


@dataclass(frozen=True)
class CylinderSet:
    """All cylinders of one generation, in lexicographic code order.

    codes is a (d^k, k) uint8 array; centers and radii give the disc image of
    the root disc under each length-k composition.  The complex coefficients
    of those compositions are kept so deeper generations can be derived.
    """

    generation: int
    codes: np.ndarray
    centers: np.ndarray
    radii: np.ndarray
    coeffs: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.centers)

    def code(self, i: int) -> tuple[int, ...]:
        return tuple(int(c) for c in self.codes[i])


class _LeafField:
    """Vectorized certified distance bounds from one cylinder generation.

    For any z, min_i |z - c_i| - max_r is a lower bound for dist(z, J) and
    |z - c_n| + r_n (n the nearest center) an upper bound, since every
    cylinder disc contains points of J.  The bound gap is at most 2 * max_r.
    """

    def __init__(self, rep: "Repeller", depth: int):
        cs = rep.cylinders(depth)
        self.depth = depth
        self.fan = len(rep.branches)
        self.leaf_count = len(cs)
        self.radii = cs.radii
        self.rmax = float(cs.radii.max())
        self._tree = cKDTree(np.column_stack([cs.centers.real, cs.centers.imag]))

    def query(self, z: np.ndarray):
        z = np.asarray(z)
        pts = np.column_stack([z.real, z.imag])
        d, idx = self._tree.query(pts)
        lo = np.maximum(d - self.rmax, 0.0)
        hi = d + self.radii[idx]
        return lo, hi, idx


class Repeller:
    """A separated similarity IFS together with its root disc.

    Raises OverlapError if two branch images of the root disc come closer
    than SEPARATION_MARGIN * root_radius, and EscapeError if any image is
    not strictly inside the root disc.
    """

    def __init__(
        self,
        branches: list[SimilarityMap],
        root_center: complex = 0j,
        root_radius: float = 1.0,
        name: str = "custom",
    ):
        if len(branches) < 2:
            raise ValueError("a repeller needs at least 2 branches")
        if root_radius <= 0:
            raise ValueError("root radius must be positive")
        self.branches = list(branches)
        self.root_center = complex(root_center)
        self.root_radius = float(root_radius)
        self.name = name
        self._validate()
        self._cyl_cache: dict[int, CylinderSet] = {}
        self._field_cache: dict[int, _LeafField] = {}

    def _validate(self):
        margin = SEPARATION_MARGIN * self.root_radius
        centers = [b(self.root_center) for b in self.branches]
        radii = [b.scale * self.root_radius for b in self.branches]
        n = len(centers)
        for i in range(n):
            for j in range(i + 1, n):
                gap = abs(centers[i] - centers[j]) - (radii[i] + radii[j])
                if gap < margin:
                    raise OverlapError(
                        f"branch images {i} and {j} overlap or nearly touch "
                        f"(gap {gap:.3e}, required {margin:.3e})"
                    )
        for i in range(n):
            reach = abs(centers[i] - self.root_center) + radii[i]
            if reach >= self.root_radius - margin:
                raise EscapeError(
                    f"branch image {i} is not strictly inside the root disc "
                    f"(reach {reach:.6g} vs radius {self.root_radius:.6g})"
                )

    # -- cylinder hierarchy ------------------------------------------------

    @property
    def fan(self) -> int:
        return len(self.branches)

    @property
    def max_scale(self) -> float:
        return max(b.scale for b in self.branches)

    @property
    def bounding_center(self) -> complex:
        return self.root_center

    @property
    def bounding_radius(self) -> float:
        return self.root_radius

    @property
    def diameter(self) -> float:
        # conservative: J sits inside the union of first-generation discs
        cs = self.cylinders(1)
        span = 0.0
        for i in range(len(cs)):
            for j in range(len(cs)):
                span = max(
                    span,
                    abs(cs.centers[i] - cs.centers[j]) + cs.radii[i] + cs.radii[j],
                )
        return min(span, 2.0 * self.root_radius)

    def max_cylinder_radius(self, k: int) -> float:
        return self.root_radius * self.max_scale**k

    def atom_depth(self, target_radius: float) -> int:
        """Smallest generation whose largest cylinder radius is <= target."""
        if target_radius <= 0:
            raise ValueError("target radius must be positive")
        k = 0
        while self.max_cylinder_radius(k) > target_radius:
            k += 1
            if self.fan**k > CYLINDER_CAP:
                raise ResourceLimitError(
                    f"atom depth {k} needs more than {CYLINDER_CAP} cylinders"
                )
        return k

    def cylinders(self, k: int) -> CylinderSet:
        """All generation-k cylinders in lexicographic code order."""
        if k < 0:
            raise ValueError("generation must be >= 0")
        if self.fan**k > CYLINDER_CAP:
            raise ResourceLimitError(
                f"generation {k} has {self.fan ** k} cylinders, cap {CYLINDER_CAP}"
            )
        if k in self._cyl_cache:
            return self._cyl_cache[k]
        bf = np.array([b.factor for b in self.branches])
        bt = np.array([b.translation for b in self.branches])
        coeffs = np.array([1.0 + 0j])
        offsets = np.array([0j])
        codes = np.zeros((1, 0), dtype=np.uint8)
        for _ in range(k):
            new_coeffs = (coeffs[:, None] * bf[None, :]).ravel()
            new_offsets = (coeffs[:, None] * bt[None, :] + offsets[:, None]).ravel()
            letter = np.tile(np.arange(self.fan, dtype=np.uint8), len(coeffs))
            codes = np.column_stack([np.repeat(codes, self.fan, axis=0), letter])
            coeffs, offsets = new_coeffs, new_offsets
        cs = CylinderSet(
            generation=k,
            codes=codes,
            centers=coeffs * self.root_center + offsets,
            radii=np.abs(coeffs) * self.root_radius,
            coeffs=coeffs,
            offsets=offsets,
        )
        if k <= 12:
            self._cyl_cache[k] = cs
        return cs

    def atoms(self, depth: int):
        cs = self.cylinders(depth)
        return cs.codes, cs.centers, cs.radii

    def in_outer_domain(self, z: np.ndarray) -> np.ndarray:
        # totally disconnected set: the complement is one connected piece
        return np.ones(np.asarray(z).shape, dtype=bool)

    # -- certified distance ------------------------------------------------

    def field(self, resolution: float) -> _LeafField:
        """Distance field with bound gap at most 2 * resolution."""
        depth = self.atom_depth(resolution)
        if depth not in self._field_cache:
            self._field_cache[depth] = _LeafField(self, depth)
        return self._field_cache[depth]


# -- presets and config parsing ---------------------------------------------


def _middle_alpha(alpha: float, name: str) -> Repeller:
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"middle-alpha ratio must lie in (0, 1), got {alpha}")
    branches = [
        SimilarityMap(alpha, 0.0, 0j),
        SimilarityMap(alpha, 0.0, complex(1.0 - alpha)),
    ]
    # root radius must exceed 1/2 for the images to stay inside and stay
    # below (1 - alpha) / (2 alpha) for them to separate; 0.75 works for
    # every alpha below 3/8 and the midpoint rule covers the rest
    upper = (1.0 - alpha) / (2.0 * alpha)
    radius = min(0.75, 0.5 * (0.5 + upper))
    return Repeller(branches, 0.5 + 0j, radius, name=name)


def preset(name: str) -> Repeller:
    """Built-in repellers by name.

    corner4            four maps of ratio 1/4 fixing the corners of the unit
                       square (a set of finite positive length)
    middle-thirds      the classical ternary Cantor set on [0, 1]
    middle-alpha:<a>   two maps of ratio a on [0, 1] with a gap in the middle
    """
    if name == "corner4":
        branches = [
            SimilarityMap(0.25, 0.0, 0j),
            SimilarityMap(0.25, 0.0, 0.75 + 0j),
            SimilarityMap(0.25, 0.0, 0.75j),
            SimilarityMap(0.25, 0.0, 0.75 + 0.75j),
        ]
        return Repeller(branches, 0.5 + 0.5j, 1.0, name="corner4")
    if name == "middle-thirds":
        return _middle_alpha(1.0 / 3.0, "middle-thirds")
    if name.startswith("middle-alpha:"):
        try:
            alpha = float(name.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad middle-alpha ratio in {name!r}") from exc
        return _middle_alpha(alpha, name)
    raise ConfigError(f"unknown repeller preset {name!r}")


def parse_repeller_spec(text: str, name: str = "custom") -> Repeller:
    """Build a repeller from flat key-value lines.

    Each branch is one line ``branch = scale,rotation,tx,ty`` and the root
    disc is ``root = cx,cy,r``.  Lines starting with ``#`` are comments.
    """
    branches = []
    root = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        parts = [p.strip() for p in value.split(",")]
        try:
            nums = [float(p) for p in parts]
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: field {key!r} is not numeric") from exc
        if key == "branch":
            if len(nums) != 4:
                raise ConfigError(
                    f"line {lineno}: branch needs scale,rotation,tx,ty"
                )
            branches.append(SimilarityMap(nums[0], nums[1], complex(nums[2], nums[3])))
        elif key == "root":
            if len(nums) != 3:
                raise ConfigError(f"line {lineno}: root needs cx,cy,r")
            root = (complex(nums[0], nums[1]), nums[2])
        else:
            raise ConfigError(f"line {lineno}: unknown field {key!r}")
    if root is None:
        raise ConfigError("missing field 'root'")
    if len(branches) < 2:
        raise ConfigError("need at least 2 'branch' lines")
    return Repeller(branches, root[0], root[1], name=name)


# -- similarity dimension -----------------------------------------------------


def similarity_dimension(rep: Repeller, tol: float = 1e-12) -> float:
    """The exponent s with sum(scale_i^s) = 1, found by bisection.

    Disjointness of the branch images forces sum(scale_i^2) < 1, so the root
    lies in (0, 2) and bisection applies.
    """
    scales = np.array([b.scale for b in rep.branches])

    def f(s: float) -> float:
        return float(np.sum(scales**s)) - 1.0

    lo, hi = 0.0, 2.0
    if f(hi) > 0:
        raise ValueError("scale list admits no dimension below 2")
    steps = max(60, int(math.ceil(math.log2(2.0 / tol))) + 2)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- covering counts and the regularity exponent ------------------------------


@dataclass(frozen=True)
class CoveringReport:
    """Component counts of distance neighborhoods and the fitted growth rate.

    counts[k] is the number of connected components of {z : dist(z, J) < a^-k};
    delta_reg the least-squares slope of log counts against k log a; c_count
    and c_diam the largest observed ratios count / a^(delta_reg k) and
    diameter * a^k.
    """

    a: float
    counts: tuple[int, ...]
    diameters: tuple[float, ...]
    delta_reg: float
    intercept: float
    c_count: float
    c_diam: float

    @property
    def kmax(self) -> int:
        return len(self.counts) - 1


def _covering_generation(rep: Repeller, eps: float, k: int) -> int:
    """Coarsest generation whose cylinders all have radius below eps / 4."""
    g = 0
    while rep.max_cylinder_radius(g) >= eps / 4.0:
        g += 1
        if rep.fan**g > CYLINDER_CAP:
            raise ResourceLimitError(
                f"covering at k={k} needs generation {g}, over the cylinder cap"
            )
    return g


def covering_counts(rep: Repeller, a: float, kmax: int) -> CoveringReport:
    """Count components of shrinking neighborhoods of J and fit their growth.

    For each scale eps = a^-k the cylinders of the coarsest generation with
    radius below eps / 4 are clustered: two are linked when their eps
    neighborhoods of the enclosing discs meet.  The margin eps / 4 keeps
    clusters from bridging gaps wider than 3 eps, so counts match the true
    component counts for sets whose gaps shrink geometrically.
    """
    if a <= 1:
        raise ValueError("scale base a must exceed 1")
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    # k = kmax needs the deepest generation: check the cap before building any
    _covering_generation(rep, float(a) ** (-kmax), kmax)
    counts = []
    diams = []
    for k in range(kmax + 1):
        eps = float(a) ** (-k)
        cs = rep.cylinders(_covering_generation(rep, eps, k))
        centers, radii = cs.centers, cs.radii
        tree = cKDTree(np.column_stack([centers.real, centers.imag]))
        reach = 2.0 * eps + 2.0 * float(radii.max())
        i, j = tree.query_pairs(reach, output_type="ndarray").T
        near = np.abs(centers[i] - centers[j]) <= radii[i] + radii[j] + 2.0 * eps
        links = coo_matrix((np.ones(near.sum()), (i[near], j[near])), shape=(len(cs),) * 2)
        n, labels = connected_components(links, directed=False)
        counts.append(n)
        spans = []
        for part in (centers.real, centers.imag):
            lo, hi = np.full(n, np.inf), np.full(n, -np.inf)
            np.minimum.at(lo, labels, part)
            np.maximum.at(hi, labels, part)
            spans.append(hi - lo)
        pad = 2.0 * (float(radii.max()) + eps)
        diams.append(max(math.hypot(w, h) + pad for w, h in zip(*spans)))
    ks = np.arange(kmax + 1)
    x = ks * math.log(a)
    y = np.log(counts)
    slope, intercept = np.polyfit(x, y, 1)
    c_count = float(np.max(np.array(counts) / np.exp(slope * x)))
    c_diam = float(np.max(np.array(diams) * np.asarray(a, dtype=float) ** ks))
    return CoveringReport(
        a=float(a),
        counts=tuple(int(c) for c in counts),
        diameters=tuple(float(d) for d in diams),
        delta_reg=float(slope),
        intercept=float(intercept),
        c_count=c_count,
        c_diam=c_diam,
    )


# -- shell integrals of a power of the distance function ----------------------


@dataclass(frozen=True)
class ShellSumReport:
    """Midpoint-quadrature integrals of dist^(-(1-delta)(2+delta)) over shells.

    Shell k is {z : a^-(k+1) <= dist(z, J) < a^-k}.  Geometric decay of the
    sums with ratio about a^(-delta^2) is the integrability signature used by
    the covering-based capacity estimates.
    """

    delta: float
    a: float
    sums: tuple[float, ...]

    @property
    def ratios(self) -> tuple[float, ...]:
        return tuple(
            self.sums[k + 1] / self.sums[k]
            for k in range(len(self.sums) - 1)
            if self.sums[k] > 0
        )

    @property
    def total(self) -> float:
        return float(sum(self.sums))


def _shell_quadrature(
    shape: Shape, fld: DistanceField, power: float, r_in: float, r_out: float, cells: int
) -> float:
    """Midpoint rule over an adaptively refined grid clipped to one shell."""
    half = shape.bounding_radius + r_out
    target = r_in / cells
    centers = np.array([shape.bounding_center])
    h = half
    sq2 = math.sqrt(2.0)
    while h > target:
        h *= 0.5
        off = np.array([h + 1j * h, h - 1j * h, -h + 1j * h, -h - 1j * h])
        centers = (centers[:, None] + off[None, :]).ravel()
        lo, hi, _ = fld.query(centers)
        pad = h * sq2
        keep = (hi + pad >= r_in) & (lo - pad < r_out)
        centers = centers[keep]
        if len(centers) == 0:
            return 0.0
    lo, hi, _ = fld.query(centers)
    mid = 0.5 * (lo + hi)
    inside = (mid >= r_in) & (mid < r_out)
    if not np.any(inside):
        return 0.0
    area = (2.0 * h) ** 2
    return float(np.sum(mid[inside] ** (-power)) * area)


def shell_integral_sums(
    shape: Shape,
    delta: float,
    a: float,
    kmax: int,
    rtol: float = 0.02,
    base_cells: int = 8,
    max_refine: int = 3,
) -> ShellSumReport:
    """Integrate dist(z, J)^(-(1-delta)(2+delta)) over geometric shells.

    Each shell integral is computed on successively halved midpoint grids
    until two refinements agree to rtol; failure to converge within
    max_refine doublings raises QuadratureError.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if a <= 1:
        raise ValueError("scale base a must exceed 1")
    power = (1.0 - delta) * (2.0 + delta)
    fld = shape.field(float(a) ** (-(kmax + 1)) / 8.0)
    sums = []
    for k in range(kmax + 1):
        r_out = float(a) ** (-k)
        r_in = float(a) ** (-(k + 1))
        cells = base_cells
        prev = _shell_quadrature(shape, fld, power, r_in, r_out, cells)
        for _ in range(max_refine):
            cells *= 2
            cur = _shell_quadrature(shape, fld, power, r_in, r_out, cells)
            if abs(cur - prev) <= rtol * max(abs(cur), 1e-300):
                prev = cur
                break
            prev = cur
        else:
            raise QuadratureError(
                f"shell {k} quadrature did not stabilize to rtol={rtol}"
            )
        sums.append(prev)
    return ShellSumReport(delta=float(delta), a=float(a), sums=tuple(sums))
