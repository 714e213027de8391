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

from .errors import (
    ConfigError,
    EscapeError,
    OverlapError,
    ResourceLimitError,
    QuadratureError,
)
from .shapes import CylinderSet, DistanceField, Shape, piece_count, words

#: required clearance between branch images, relative to the root radius
SEPARATION_MARGIN = 1e-9

#: shell quadrature starts from grids of SHELL_BASE_CELLS cells per inner
#: radius and doubles that at most SHELL_MAX_REFINE times until two agree
SHELL_BASE_CELLS = 8
SHELL_MAX_REFINE = 3

#: hard cap on the cells of one shell quadrature grid, checked before it is built
SHELL_CELL_CAP = 2**25

#: a shell grid level is expanded, queried and pruned SHELL_BLOCK parent
#: cells at a time, so no field query takes more than 4 * SHELL_BLOCK points
SHELL_BLOCK = 1024

#: a grid axis is searched through at most AXIS_BUCKET_CAP buckets of one
#: smallest gap each; finer axes share buckets and take more in-bucket steps
AXIS_BUCKET_CAP = 1 << 16


@dataclass(frozen=True)
class SimilarityMap:
    """The contraction z -> scale * exp(i*rotation) * z + translation."""

    scale: float
    rotation: float = 0.0
    translation: complex = 0j

    def __post_init__(self):
        if not 0.0 < self.scale < 1.0:
            raise ValueError(f"scale must lie in (0, 1), got {self.scale}")
        if not (math.isfinite(self.rotation) and np.isfinite(self.translation)):
            raise ValueError(f"rotation {self.rotation} and translation {self.translation} "
                             "must be finite")

    @property
    def factor(self) -> complex:
        """Complex multiplier of the map."""
        return self.scale * complex(math.cos(self.rotation), math.sin(self.rotation))

    def __call__(self, z: complex) -> complex:
        return self.factor * z + self.translation


class _Axis:
    """The sorted distinct values u of one grid axis, with a bucket table.

    The bucket b(x) = clip(floor((x - u[0]) * scale), 0, nb - 1) is monotone
    in x, so the values in earlier buckets lie below x and those in later
    buckets above it.  first[b] counts the values in buckets before b; adding
    the values of bucket b below x, found by a branch-free binary search of
    bit_length(max occupancy) steps, gives np.searchsorted(u, x) exactly.
    Buckets are one smallest gap wide, and there are at most AXIS_BUCKET_CAP
    of them.
    """

    def __init__(self, u: np.ndarray):
        n = len(u)
        self.origin, self.last = float(u[0]), n - 1
        self.scale, nb = 1.0, 1
        if n > 1:
            span = float(u[-1] - u[0])
            self.scale = min(1.0 / float(np.diff(u).min()), AXIS_BUCKET_CAP / span)
            nb = min(int(span * self.scale) + 1, AXIS_BUCKET_CAP)
        self.top = float(nb - 1)
        counts = np.bincount(self._bucket(u), minlength=nb)
        # intp, not int32: with int32 counts the search's index temporaries come
        # in a second size, and walks then peak about 1 MB higher in RSS
        self.first = np.zeros(nb, dtype=np.intp)
        np.cumsum(counts[:-1], out=self.first[1:])
        self.steps = [1 << s for s in reversed(range(int(counts.max()).bit_length()))]
        # padded[k + 1] = u[k]; the -inf and +inf ends stand in for missing
        # neighbours, and no search step reaches past index n + steps[0]
        self.padded = np.concatenate([[-np.inf], u, np.full(self.steps[0], np.inf)])

    def _bucket(self, x: np.ndarray) -> np.ndarray:
        t = x - self.origin
        t *= self.scale
        # fmax/fmin, not clip: a NaN goes to bucket 0, not to a wild index
        np.fmax(t, 0.0, out=t)
        return np.fmin(t, self.top, out=t).astype(np.intp)

    def count_below(self, x: np.ndarray) -> np.ndarray:
        """np.searchsorted(u, x), the number of axis values below each x."""
        i = self.first.take(self._bucket(x))
        for step in self.steps:
            below = self.padded[step:].take(i) < x
            i += below if step == 1 else below * step
        return i

    def _neighbours(self, x: np.ndarray):
        """count_below(x), and the gaps from x to the values either side of it."""
        i = self.count_below(x)
        left = self.padded.take(i)
        np.subtract(x, left, out=left)
        right = self.padded[1:].take(i)
        right -= x
        return i, left, right

    def distance(self, x: np.ndarray) -> np.ndarray:
        """Distance from each x to the nearest axis value."""
        _, left, right = self._neighbours(x)
        # an infinite x makes left or right inf - inf = NaN (and numpy warns);
        # fmin skips that NaN
        return np.fmin(left, right, out=left)

    def nearest(self, x: np.ndarray):
        """Index of the axis value nearest each x, and its distance to x.

        Exact ties go to the smaller value.
        """
        i, left, right = self._neighbours(x)
        j = i - (right >= left)
        # at x = +inf the NaN right gap sends j to n, so clamp it
        np.minimum(j, self.last, out=j)
        return j, np.fmin(left, right, out=left)


def _compose(factor: np.ndarray, shift: np.ndarray, depth: int):
    """Per word of depth letters, in lexicographic order, the coeff and off of
    its map z -> coeff * z + off, where letter a is z -> factor[a] * z + shift[a]
    and a word's first letter is applied last."""
    coeff = np.ones(1, dtype=np.result_type(factor, shift))
    off = np.zeros_like(coeff)
    for _ in range(depth):
        off = (coeff[:, None] * shift[None, :] + off[:, None]).ravel()
        coeff = (coeff[:, None] * factor[None, :]).ravel()
    return coeff, off


def _product_axes(rep: "Repeller", depth: int):
    """The sorted x and y center coordinates of generation depth, each with its
    axis word's base-fan offset, and the leaf coefficients, when J is a product
    set; else None.

    J is a product when no map rotates, the letters biject onto the pairs
    (a, b) of distinct translation parts (x_a, y_b) as letter = a w_x + b w_y,
    and either all ratios are equal or J lies on a coordinate axis through the
    root center (a line set with unequal ratios).  The leaf index of the word
    (a_1 b_1 .. a_k b_k) is then the sum of its two axis words' offsets.  Each
    axis is built as atoms builds centers, so its values have the bits of
    np.unique over the generation's center coordinates.  The coefficients are
    one shared value when all ratios are equal, else one per leaf.  Generation
    0, the root disc alone, is a grid of one cell whatever the maps.
    """
    f = np.array([m.factor for m in rep.branches])
    equal = bool(np.all(f == f[0]))
    axes, on_axis = [], False
    for part in ("real", "imag"):
        t = [getattr(m.translation, part) for m in rep.branches]
        values = list(dict.fromkeys(t))
        index = [values.index(v) for v in t]
        on_axis |= values == [0.0] and getattr(rep.root_center, part) == 0.0
        # if the map is additive, the first letter with axis letter 1 has 0 on the other
        axes.append((np.array(values), index, index.index(1) if len(values) > 1 else 0))
    (xs, a, wx), (ys, b, wy) = axes
    if depth and not (
        (equal or on_axis)
        and np.all(f.imag == 0.0)
        and len(xs) * len(ys) == rep.fan
        and all(letter == i * wx + j * wy for letter, (i, j) in enumerate(zip(a, b)))
    ):
        return None
    built = []
    for (values, _, w), root in zip(axes, (rep.root_center.real, rep.root_center.imag)):
        # a line set's one axis has every letter, and any coefficient keeps its
        # other axis at 0
        n = len(values)
        scale = f.real if n == rep.fan else np.full(n, f.real[0] if equal else 1.0)
        # einsum, not @: matmul first casts the whole uint8 word table to int64
        place = w * rep.fan ** np.arange(depth)[::-1]
        word = np.einsum("ij,j->i", words(n, depth), place)
        coeff, off = _compose(scale, values, depth)
        u = coeff * root + off
        order = np.argsort(u, kind="stable")
        u = u[order]
        if not np.all(u[1:] > u[:-1]):
            return None  # two centers round to one coordinate: no grid
        built.append((u, word[order], coeff))
    (ux, xoff, cx), (uy, yoff, cy) = built
    if equal:
        return (ux, xoff), (uy, yoff), cx[:1]
    # a line set: one axis is a single word, and the other's words are the leaves
    return (ux, xoff), (uy, yoff), cx if len(cy) == 1 else cy


class _LeafField:
    """Vectorized certified distance bounds from one cylinder generation.

    For any z, min_i |z - c_i| - max_r is a lower bound for dist(z, J) and
    |z - c_n| + r_n (n the nearest center) an upper bound, since every
    cylinder disc contains points of J.  The bound gap is at most 2 * max_r.

    Two searches find the nearest center and feed the same bounds.  When J is
    a product set (_product_axes; every preset: corner4 is C x C, the middle
    sets C x {0}), the centers fill a grid with one center per cell, and the
    nearest center pairs the nearest value on each axis, found through the
    axis's bucket table (_Axis, built once per field, and fields are cached
    per depth).  Its distance has the same bits as a KD-tree's, exact ties go
    to the smaller coordinate, and its leaf index is the sum of the two axis
    words' offsets; no generation of cylinders is built.  Any other IFS, say
    one with rotated maps, builds the generation and searches its centers
    with a scipy cKDTree, imported only then: no preset loads scipy.

    When every radius equals max_r (every preset), radii is that one value
    broadcast over the leaves, and the upper bound is d + max_r, so query
    needs only the distance d and builds no leaf index; leaf, and query on
    fields with unequal radii, look the nearest leaf up.
    """

    def __init__(self, rep: "Repeller", depth: int):
        self.depth = depth
        self.leaf_count = rep.fan**depth
        self._tree = None
        product = _product_axes(rep, depth)
        if product is None:
            from scipy.spatial import cKDTree

            cs = rep.atoms(depth)
            radii = cs.radii
            self._tree = cKDTree(np.column_stack([cs.centers.real, cs.centers.imag]))
        else:
            (ux, xoff), (uy, yoff), coeff = product
            radii = coeff * rep.root_radius
            self._axes = (_Axis(ux), _Axis(uy))
            self._offsets = (xoff, yoff)
        self.radii = np.broadcast_to(radii, (self.leaf_count,))
        self.rmax = float(radii.max())
        self._equal_radii = bool(np.all(radii == self.rmax))

    def _nearest(self, z: np.ndarray, leaves: bool = True):
        """Distance to the nearest center, and its index when leaves is set."""
        z = np.asarray(z)
        if self._tree is not None:
            # the tree refuses non-finite points: as on a grid, NaN where a part is NaN, else inf
            ok = np.isfinite(z)
            d, idx = np.abs(z.real) + np.abs(z.imag), np.zeros(z.shape, dtype=np.intp)
            d[ok], idx[ok] = self._tree.query(np.column_stack([z.real[ok], z.imag[ok]]))
            return d, idx
        (ax, ay), (xoff, yoff) = self._axes, self._offsets
        # contiguous copies: an axis search reads its coordinates four times
        x, y = z.real.copy(), z.imag.copy()
        idx = None
        if leaves:
            jx, dx = ax.nearest(x)
            jy, dy = ay.nearest(y)
            idx = xoff.take(jx) + yoff.take(jy)
        else:
            dx, dy = ax.distance(x), ay.distance(y)
        # not hypot: the tree also takes the root of the sum of squares
        dx *= dx
        dy *= dy
        dx += dy
        return np.sqrt(dx, out=dx), idx

    def query(self, z: np.ndarray):
        d, idx = self._nearest(z, leaves=not self._equal_radii)
        # maximum, not fmax: a NaN point keeps NaN bounds
        lo = d - self.rmax
        np.maximum(lo, 0.0, out=lo)
        d += self.rmax if self._equal_radii else self.radii[idx]
        return lo, d

    def leaf(self, z: np.ndarray) -> np.ndarray:
        return self._nearest(z)[1]


class Repeller(Shape):
    """A separated similarity IFS together with its root disc.

    Raises OverlapError if two branch images of the root disc come closer
    than SEPARATION_MARGIN * root_radius, and EscapeError if any image is
    not strictly inside the root disc.  first_level_gap is the smallest gap
    between two first-level discs: below it covering counts and shell sums
    renew.
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
        if not (0 < root_radius < math.inf and np.isfinite(root_center)):
            raise ValueError(f"root radius must be positive and finite and the root center "
                             f"finite, got {root_radius} and {root_center}")
        self.branches = list(branches)
        self.root_center = complex(root_center)
        self.root_radius = float(root_radius)
        self.name = name
        self._validate()
        self._field_cache: dict[int, _LeafField] = {}

    def _validate(self):
        """Check generation 1 for overlap and escape, and keep its smallest gap."""
        margin = SEPARATION_MARGIN * self.root_radius
        first = self.atoms(1)
        c, r = first.centers, first.radii
        i, j = np.triu_indices(len(first), 1)
        gaps = np.abs(c[i] - c[j]) - r[i] - r[j]
        overlaps = np.flatnonzero(gaps < margin)
        if len(overlaps):
            k = overlaps[0]
            raise OverlapError(
                f"branch images {i[k]} and {j[k]} overlap or nearly touch "
                f"(gap {gaps[k]:.3e}, required {margin:.3e})"
            )
        reach = np.abs(c - self.root_center) + r
        escapes = np.flatnonzero(reach >= self.root_radius - margin)
        if len(escapes):
            k = escapes[0]
            raise EscapeError(
                f"branch image {k} is not strictly inside the root disc "
                f"(reach {reach[k]:.6g} vs radius {self.root_radius:.6g})"
            )
        self.first_level_gap = float(gaps.min())

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
        cs = self.atoms(1)
        c, r = cs.centers, cs.radii
        d = c[:, None] - c[None, :]
        # hypot, not np.abs: it rounds like abs(complex), np.abs can differ by an ulp
        span = np.hypot(d.real, d.imag) + r[:, None] + r[None, :]
        return min(float(span.max()), 2.0 * self.root_radius)

    def piece_radius(self, k: int) -> float:
        return self.root_radius * self.max_scale**k

    def atoms(self, depth: int) -> CylinderSet:
        """All generation-depth cylinders in lexicographic code order."""
        codes = words(self.fan, depth)
        bf = np.array([b.factor for b in self.branches])
        bt = np.array([b.translation for b in self.branches])
        coeffs, offsets = _compose(bf, bt, depth)
        centers = coeffs * self.root_center + offsets
        return CylinderSet(codes, centers, np.abs(coeffs) * self.root_radius)

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


def key_value_lines(text: str):
    """(line number, key, value) of each ``key = value`` line, stripped, with
    ``#`` comments and blank lines skipped; any other line is a ConfigError."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        yield lineno, key.strip(), value.strip()


def parse_repeller_spec(text: str, name: str = "custom") -> Repeller:
    """Build a repeller from flat key-value lines (key_value_lines).

    Each branch is one line ``branch = scale,rotation,tx,ty`` and the root
    disc is ``root = cx,cy,r``.
    """
    branches = []
    root = None
    for lineno, key, value in key_value_lines(text):
        try:
            nums = [float(p) for p in value.split(",")]
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


def similarity_dimension(rep: Repeller) -> float:
    """The exponent s with sum(scale_i^s) = 1, found by 60 bisection steps.

    Disjointness of the branch images forces sum(scale_i^2) < 1, so the root
    lies in (0, 2) and bisection applies.
    """
    scales = np.array([b.scale for b in rep.branches])

    def f(s: float) -> float:
        return float(np.sum(scales**s)) - 1.0

    lo, hi = 0.0, 2.0
    if f(hi) > 0:
        raise ValueError("scale list admits no dimension below 2")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- close pairs and connected components -------------------------------------


def close_pairs(z: np.ndarray, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays i, j of candidate pairs that hold every pair within reach.

    Each unordered pair i != j appears at most once.  The points go in square
    cells a little wider than reach (and wider still when the extent passes
    2^30 reaches, so cell keys fit in int64), so rounding never puts a pair
    within reach in cells that are not neighbours; each cell is paired with
    itself and its four forward neighbours.  Callers apply their own exact test.
    """
    if not (math.isfinite(reach) and reach > 0):
        raise ValueError(f"reach must be positive and finite, got {reach}")
    z = np.asarray(z, dtype=complex)
    x, y = z.real - z.real.min(), z.imag - z.imag.min()
    width = max(reach * (1.0 + 1e-6), max(x.max(), y.max()) * 2.0**-30)
    cx, cy = (x / width).astype(np.int64), (y / width).astype(np.int64)
    # a spare row, so the cells one row down and up never wrap into a neighbouring column
    rows = int(cy.max()) + 2
    key = cx * rows + cy
    order = np.argsort(key, kind="stable")
    cells, start, count = np.unique(key[order], return_index=True, return_counts=True)
    cell = np.repeat(np.arange(len(cells)), count)  # of each point in sorted order
    pos = np.arange(len(z))
    # each point pairs with the later points of its own cell, each pair once,
    # and with every point of each of its cell's forward neighbours
    firsts, sizes = [pos + 1], [(start + count)[cell] - pos - 1]
    for step in (1, rows - 1, rows, rows + 1):
        at = np.minimum(np.searchsorted(cells, cells + step), len(cells) - 1)
        firsts.append(start[at][cell])
        sizes.append(np.where(cells[at] == cells + step, count[at], 0)[cell])
    first, n = np.concatenate(firsts), np.concatenate(sizes)
    i = np.repeat(np.tile(pos, 5), n)
    j = np.arange(n.sum()) + np.repeat(first - (np.cumsum(n) - n), n)
    return order[i], order[j]


def _components(n: int, i: np.ndarray, j: np.ndarray) -> tuple[int, np.ndarray]:
    """Component count and labels 0..count-1 of the graph on n nodes with edges (i, j).

    Each round hooks every root an edge joins to another root onto the smaller
    of the roots it is offered, then jumps pointers until each node points at
    its root.  Parents only decrease, so a root is its tree's smallest node.
    """
    parent = np.arange(n)
    while len(i):
        ri, rj = parent[i], parent[j]
        live = ri != rj
        i, j, ri, rj = i[live], j[live], ri[live], rj[live]
        np.minimum.at(parent, np.maximum(ri, rj), np.minimum(ri, rj))
        while not np.array_equal(up := parent[parent], parent):
            parent = up
    roots, labels = np.unique(parent, return_inverse=True)
    return len(roots), labels


# -- covering counts and the regularity exponent ------------------------------


@dataclass(frozen=True)
class CoveringReport:
    """Component counts of distance neighborhoods and the fitted growth rate.

    counts[k] is the number of connected components of {z : dist(z, J) < a^-k};
    diameters[k] an upper bound on the widest component's diameter (see
    covering_counts); delta_reg the least-squares slope of log counts against
    k log a; c_count and c_diam the largest observed ratios
    count / a^(delta_reg k) and diameter * a^k.
    """

    a: float
    counts: tuple[int, ...]
    diameters: tuple[float, ...]
    delta_reg: float
    c_count: float
    c_diam: float

    @property
    def kmax(self) -> int:
        return len(self.counts) - 1


def _covering_generation(rep: Repeller, eps: float) -> int:
    """Coarsest generation whose cylinders all have radius below eps / 4."""
    # the largest float below eps / 4 turns atom_depth's <= into the strict <
    return rep.atom_depth(np.nextafter(eps / 4.0, 0.0))


def _lattice_steps(rep: Repeller, a: float) -> list:
    """Per branch, the m with scale * a^m == 1.0 in floats, else None.

    Such a branch rescales the lattice radius a^-k to a^-(k-m), so renewal
    steps take that radius as the lattice computes it and land on the same
    memo keys as the shallower levels; the other branches divide by the scale.
    """
    steps = []
    for b in rep.branches:
        m = round(math.log(b.scale) / -math.log(a))
        steps.append(m if b.scale * a**m == 1.0 else None)
    return steps


def _scale_base(a, kmax: int) -> float:
    """a as a float; refused unless finite and above 1, with a^-(kmax+1) above 0."""
    a = float(a)
    if not (math.isfinite(a) and a > 1.0 and a ** -(kmax + 1) > 0.0):
        raise ValueError(f"scale base a must exceed 1, be finite and keep a^-(kmax+1) "
                         f"above 0, got a={a:g} with kmax={kmax}")
    return a


def _renewal(shape: Shape, a: float, levels, direct, combine) -> list:
    """Values at levels (k, radii, g), renewed past the separation scale.

    A node is (radii, g): radii are (a^-k, a^-(k+1), ...) or their rescalings,
    g a generation or None.  Once twice its outer radius radii[0] is below the
    smallest gap between first-level discs (never on an exact shape), branch
    i's child has the radii over s_i, or a^-(k-m+j) for a lattice step m (see
    _lattice_steps), and generation g - 1, and the node's value is
    combine(child values in branch order).  The other nodes are found depth
    first and memoised on (radii, g); direct(nodes) gives their values in
    that order.
    """
    gap = shape.first_level_gap if isinstance(shape, Repeller) else 0.0
    steps = _lattice_steps(shape, a) if gap > 0 else []
    children: dict = {}  # node -> its children, or None if computed directly

    def plan(node, k):
        if node in children:
            return
        radii, g = node
        if not 2.0 * radii[0] < gap:
            children[node] = None
            return
        kids = []
        for b, m in zip(shape.branches, steps):
            lattice = k is not None and m is not None
            kid = (tuple(a ** -(k - m + j) for j in range(len(radii))) if lattice
                   else tuple(r / b.scale for r in radii), None if g is None else g - 1)
            plan(kid, k - m if lattice else None)
            kids.append(kid)
        children[node] = kids  # after its children: insertion order is bottom-up

    for k, radii, g in levels:
        plan((radii, g), k)
    nodes = [node for node, kids in children.items() if kids is None]
    values = dict(zip(nodes, direct(nodes)))
    for node, kids in children.items():
        if kids is not None:
            values[node] = combine([values[kid] for kid in kids])
    return [values[radii, g] for _, radii, g in levels]


def covering_counts(rep: Repeller, a: float, kmax: int) -> CoveringReport:
    """Count components of shrinking neighborhoods of J and fit their growth.

    For each scale eps = a^-k the cylinders of the coarsest generation with
    radius below eps / 4 are clustered: two are linked when their eps
    neighborhoods of the enclosing discs meet.  The margin eps / 4 keeps
    clusters from bridging gaps wider than 3 eps, so counts match the true
    component counts for sets whose gaps shrink geometrically.

    Past the separation scale, once 2 eps is below the smallest gap between
    first-level discs, no link joins two first-level branches, and branch i's
    links at eps are those of the whole set at eps / s_i, one generation up
    (renewal: m(eps) = sum_i m(eps / s_i), planned by _renewal).  So only
    scales above the separation scale are clustered, from the close_pairs
    candidates that pass the link test, and no deeper generation is built.

    A level's diameter is its widest component's diagonal plus the pad
    2 (r_max + eps), r_max the generation's largest cylinder radius.  Above
    the separation scale the diagonal is that of the bounding box of the
    component's centers; below it, the largest s_i times its tail's diagonal
    at eps / s_i.  With rotations by multiples of pi/2 the two agree up to
    rounding (exactly when the scales are powers of two).  Other rotations
    turn the bounding box, and the renewal value is then a different upper
    bound on the center spread, since diam(S_i K) = s_i diam(K).
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    a = _scale_base(a, kmax)
    levels = [(k, (a**-k,), _covering_generation(rep, a**-k)) for k in range(kmax + 1)]

    def clusters(node):
        """Component count and widest bounding-box diagonal of generation g's centers at eps."""
        (eps,), g = node
        cs = rep.atoms(g)
        centers, radii = cs.centers, cs.radii
        i, j = close_pairs(centers, 2.0 * eps + 2.0 * float(radii.max()))
        near = np.abs(centers[i] - centers[j]) <= radii[i] + radii[j] + 2.0 * eps
        n, labels = _components(len(cs), i[near], j[near])
        xy = np.column_stack([centers.real, centers.imag])
        lo, hi = np.full((n, 2), np.inf), np.full((n, 2), -np.inf)
        np.minimum.at(lo, labels, xy)
        np.maximum.at(hi, labels, xy)
        return n, max(math.hypot(w, h) for w, h in hi - lo)

    def combine(parts):
        ns, diags = zip(*parts)
        return sum(ns), max(b.scale * d for b, d in zip(rep.branches, diags))

    def direct(nodes):
        piece_count(rep.fan, max(g for _, g in nodes))  # the deepest, before any is clustered
        return map(clusters, nodes)

    tops = _renewal(rep, a, levels, direct, combine)
    counts = [n for n, _ in tops]
    diams = [d + 2.0 * (rep.piece_radius(g) + eps) for (_, d), (_, (eps,), g) in zip(tops, levels)]
    ks = np.arange(kmax + 1)
    x = ks * math.log(a)
    slope = np.polyfit(x, np.log(counts), 1)[0]
    c_count = float(np.max(np.array(counts) / np.exp(slope * x)))
    c_diam = float(np.max(np.array(diams) * a**ks))
    return CoveringReport(
        a=a,
        counts=tuple(int(c) for c in counts),
        diameters=tuple(float(d) for d in diams),
        delta_reg=float(slope),
        c_count=c_count,
        c_diam=c_diam,
    )


# -- shell integrals of a power of the distance function ----------------------


@dataclass(frozen=True)
class ShellSumReport:
    """Integrals of dist^(-(1-delta)(2+delta)) over shells.

    Shell k is {z : a^-(k+1) <= dist(z, J) < a^-k}.  Shells above a repeller's
    separation scale are midpoint quadratures; deeper ones are exact renewal
    sums of those.  Geometric decay of the sums with ratio about a^(-delta^2)
    is the integrability signature used by the covering-based capacity
    estimates.
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


def _midpoint_sum(mid: np.ndarray, power: float, r_in: float, r_out: float, area: float):
    inside = (mid >= r_in) & (mid < r_out)
    if not np.any(inside):
        return 0.0
    return float(np.sum(mid[inside] ** (-power)) * area)


def _shell_quadratures(
    shape: Shape, fld: DistanceField, power: float, r_in: float, r_out: float
):
    """Midpoint rules over grids clipped to one shell, each twice as fine as the last.

    The n-th value uses cells of side at most r_in / (SHELL_BASE_CELLS * 2^n).
    Halving the target adds exactly one halving to the grid, and pruning at a
    level does not depend on the target, so each grid continues from the kept
    centres of the one before; the midpoint values are those of the last
    level's query.  A level is checked against SHELL_CELL_CAP whole, then
    expanded, queried and pruned SHELL_BLOCK parents at a time, and only the
    kept centres and their midpoint values are joined, once per level.
    """
    h = shape.bounding_radius + r_out
    target = r_in / SHELL_BASE_CELLS
    centers = np.array([shape.bounding_center])
    mid = np.empty(0)
    sq2 = math.sqrt(2.0)
    while True:
        while h > target and len(centers):
            if 4 * len(centers) > SHELL_CELL_CAP:
                raise ResourceLimitError(
                    f"shell grid needs {4 * len(centers)} cells, cap {SHELL_CELL_CAP}"
                )
            mid = None  # free the last grid's values before the next level's
            h *= 0.5
            off = np.array([h + 1j * h, h - 1j * h, -h + 1j * h, -h - 1j * h])
            pad = h * sq2
            kept, mids = [], []
            for start in range(0, len(centers), SHELL_BLOCK):
                block = (centers[start : start + SHELL_BLOCK, None] + off).ravel()
                lo, hi = fld.query(block)
                keep = (hi + pad >= r_in) & (lo - pad < r_out)
                kept.append(block[keep])
                mids.append(0.5 * (lo[keep] + hi[keep]))
            centers = np.concatenate(kept)  # frees the parents
            del kept
            mid = np.concatenate(mids)
            del mids
        yield _midpoint_sum(mid, power, r_in, r_out, (2.0 * h) ** 2)
        target *= 0.5


def shell_integral_sums(
    shape: Shape,
    delta: float,
    a: float,
    kmax: int,
    rtol: float = 0.02,
) -> ShellSumReport:
    """Integrate dist(z, J)^(-(1-delta)(2+delta)) over geometric shells.

    On a repeller, an annulus with r_out below half the smallest gap between
    first-level discs lies in the disjoint neighborhoods of the first-level
    images, so with p = (1-delta)(2+delta)
    S(r_in, r_out) = sum_i s_i^(2-p) S(r_in / s_i, r_out / s_i) (renewal,
    planned by _renewal).  Only the annuli above that scale, and every
    shell of an exact shape, are integrated, on a field built for the deepest
    of them: each on successively halved midpoint grids until two refinements
    agree to rtol; failure to converge within SHELL_MAX_REFINE doublings
    raises QuadratureError.  They run from the deepest, whose grids are
    largest, so a grid above SHELL_CELL_CAP cells raises ResourceLimitError
    in the first one.  Each grid level is queried and pruned SHELL_BLOCK
    parent cells at a time, and only its kept cells are held.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    a = _scale_base(a, kmax)
    power = (1.0 - delta) * (2.0 + delta)

    def quadratures(nodes):
        annuli = sorted(radii[::-1] for radii, _ in nodes)  # (r_in, r_out), deepest first
        fld = shape.field(annuli[0][0] / 8.0)
        sums: dict = {}
        for r_in, r_out in annuli:
            refinements = _shell_quadratures(shape, fld, power, r_in, r_out)
            cur = next(refinements)
            for _ in range(SHELL_MAX_REFINE):
                prev, cur = cur, next(refinements)
                if abs(cur - prev) <= rtol * max(abs(cur), 1e-300):
                    break
            else:
                raise QuadratureError(f"shell [{r_in:.6g}, {r_out:.6g}) quadrature "
                                      f"did not stabilize to rtol={rtol}")
            sums[r_out, r_in] = cur
        return [sums[radii] for radii, _ in nodes]

    def combine(parts):
        return sum(b.scale ** (2.0 - power) * s for b, s in zip(shape.branches, parts))

    levels = [(k, (a**-k, a ** -(k + 1)), None) for k in range(kmax + 1)]
    sums = _renewal(shape, a, levels, quadratures, combine)
    return ShellSumReport(delta=float(delta), a=a, sums=tuple(sums))
