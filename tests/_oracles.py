"""Independent reference computations used only by the tests.

These deliberately use different enumeration orders, different accumulation
strategies, and plain-Python arithmetic where feasible, so that agreement
with the package code is evidence rather than tautology.
"""

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from cantorlab.curvature import cauchy_truncations
from cantorlab.errors import SingularityError
from cantorlab.geometry import _Axis
from cantorlab.potential import (
    LAUNCH_FACTOR,
    MAX_STEPS,
    EmpiricalMeasure,
    WalkConfig,
    _turn,
    rng_stream,
)


def curvature_squared(u: complex, v: complex, w: complex) -> float:
    """Squared inverse circumradius via (4 * area / (a * b * c))^2."""
    a = abs(u - v)
    b = abs(v - w)
    c = abs(w - u)
    twice_area = abs(
        (v.real - u.real) * (w.imag - u.imag)
        - (v.imag - u.imag) * (w.real - u.real)
    )
    den = a * b * c
    return (2.0 * twice_area / den) ** 2


def menger_curvature(z1, z2, z3):
    """Inverse circumradius of the triangle (z1, z2, z3).

    Computed as 2 |cross(z2 - z1, z3 - z1)| / (|z1 - z2| |z2 - z3| |z3 - z1|),
    which vanishes exactly for collinear triples.  Accepts scalars or
    broadcastable arrays; coincident points raise SingularityError.  The
    package sums the squared kernel over atom pairs through Melnikov's
    identity and never evaluates it on one triangle.
    """
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    z3 = np.asarray(z3, dtype=complex)
    a = z2 - z1
    b = z3 - z1
    c = z3 - z2
    den = np.abs(a) * np.abs(b) * np.abs(c)
    if np.any(den == 0.0):
        raise SingularityError("coincident points have no Menger curvature")
    cross = np.abs(a.real * b.imag - a.imag * b.real)
    out = 2.0 * cross / den
    return float(out) if out.ndim == 0 else out


def energy_python_loop(points, weights) -> float:
    """Ordered-convention curvature energy by brute itertools enumeration."""
    pts = [complex(p) for p in points]
    ws = [float(x) for x in weights]
    terms = []
    for i, j, k in itertools.combinations(range(len(pts)), 3):
        terms.append(ws[i] * ws[j] * ws[k] * curvature_squared(pts[i], pts[j], pts[k]))
    return 6.0 * math.fsum(terms)


def energy_numpy_loop(points, weights) -> float:
    """Same quantity via a first-index loop with pairwise numpy reductions.

    For each first index i the contribution of all triples i < j < k is a
    masked upper-triangular sum over the remaining points; per-i totals are
    combined with compensated summation.
    """
    z = np.asarray(points, dtype=complex)
    w = np.asarray(weights, dtype=float)
    n = len(z)
    totals = []
    for i in range(n - 2):
        rest = z[i + 1 :]
        wr = w[i + 1 :]
        d = rest - z[i]
        cross = d.real[:, None] * d.imag[None, :] - d.imag[:, None] * d.real[None, :]
        la = np.abs(d)
        lb = np.abs(rest[:, None] - rest[None, :])
        den = (la[:, None] * la[None, :] * lb) ** 2
        num = 4.0 * cross**2 * (wr[:, None] * wr[None, :])
        np.fill_diagonal(den, np.inf)
        # the (j, k) and (k, j) off-diagonal terms coincide, so the full sum
        # is twice the sum over unordered pairs beyond index i
        totals.append(float(w[i] * np.sum(num / den) / 2.0))
    return 6.0 * math.fsum(totals)


def _middle_slice_sum(z: np.ndarray, w: np.ndarray, j: int, bufs) -> float:
    """Weighted sum of c^2 over triples (i, j, k) with i < j < k.

    The (j, n - j - 1) kernel is written into the leading part of the three
    flat buffers bufs, one op at a time in the order of
    4 cross^2 / (|a|^2 |b|^2 |a - b|^2), so no array is allocated per j.
    """
    if j == 0 or j == len(z) - 1:
        return 0.0
    a = z[:j] - z[j]
    b = z[j + 1 :] - z[j]
    na = a.real**2 + a.imag**2
    nb = b.real**2 + b.imag**2
    ar, ai = a.real[:, None], a.imag[:, None]
    cross, dot, nab = (buf[: j * len(b)].reshape(j, len(b)) for buf in bufs)
    np.multiply(ar, b.imag, out=cross)
    np.multiply(ai, b.real, out=dot)
    np.subtract(cross, dot, out=cross)
    np.multiply(ar, b.real, out=dot)
    np.multiply(ai, b.imag, out=nab)
    np.add(dot, nab, out=dot)
    np.multiply(2.0, dot, out=dot)
    np.add(na[:, None], nb, out=nab)
    np.subtract(nab, dot, out=nab)
    den = dot
    np.multiply(na[:, None], nb, out=den)
    np.multiply(den, nab, out=den)
    if not den.all():
        raise SingularityError("measure has coincident atoms")
    c2 = cross
    np.square(c2, out=c2)
    np.multiply(4.0, c2, out=c2)
    np.divide(c2, den, out=c2)
    return float(w[j] * (w[:j] @ c2 @ w[j + 1 :]))


def triple_slice_energy(z, w) -> float:
    """Ordered-convention energy by the O(n^3) middle-index triple sum.

    Each middle index j reduces its triples (i, j, k), i < j < k, with the
    cross-product kernel; the slices are combined by compensated summation.
    This is the exact-mode sum the package used before the pair form.  The
    kernels share three buffers sized for the widest slice, so the sum's
    speed does not hang on how malloc maps a fresh array per slice.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=float)
    n = len(z)
    bufs = [np.empty(((n - 1) // 2) * (n // 2)) for _ in range(3)]
    parts = [_middle_slice_sum(z, w, j, bufs) for j in range(n)]
    return 6.0 * math.fsum(parts)


#: atom pairs per row block of ordered_pair_energy
PAIR_BLOCK = 1 << 18


def ordered_pair_energy(z: np.ndarray, w: np.ndarray) -> float:
    """Ordered energy 12 sum_c w_c (G_c^2 - Q_c) of Melnikov's identity.

    The package's pair sum before it took each unordered pair once: every
    ordered pair (c, a), a != c, in row blocks of PAIR_BLOCK pairs.
    """
    if np.ptp(z.imag) > np.ptp(z.real):
        z = z * 1j
    n = len(z)
    rows = max(1, PAIR_BLOCK // n)
    w2 = w * w
    parts = []
    for lo in range(0, n, rows):
        c = np.arange(lo, min(lo + rows, n))
        u = z[None, :] - z[c, None]
        nu = u.real**2 + u.imag**2
        nu[np.arange(len(c)), c] = np.inf
        if not nu.all():
            raise SingularityError("measure has coincident atoms")
        g = u.imag / nu
        gw = g @ w
        parts.append(w[c] * (gw * gw - (g * g) @ w2))
    return 12.0 * math.fsum(np.concatenate(parts))


def arcsine_cdf(x: np.ndarray) -> np.ndarray:
    """Equilibrium distribution of [-1, 1]: F(x) = 1/2 + arcsin(x) / pi."""
    return 0.5 + np.arcsin(np.clip(x, -1.0, 1.0)) / np.pi


def weighted_ks_distance(positions, weights, cdf) -> float:
    """sup |F_empirical - F| for an atomic distribution on the line."""
    order = np.argsort(positions)
    x = np.asarray(positions)[order]
    cum = np.cumsum(np.asarray(weights)[order])
    target = cdf(x)
    below = np.abs(np.concatenate([[0.0], cum[:-1]]) - target)
    above = np.abs(cum - target)
    return float(max(below.max(), above.max()))


def maximal_cauchy(em: EmpiricalMeasure, z, r_grid=None):
    """Largest modulus of the truncated Cauchy transform over the grid.

    A float for a scalar z, an array of one maximum per point for an array.
    The modulus sits outside the truncated sum; the variant with the modulus
    inside the sum grows without bound as the truncation shrinks whenever
    ball masses scale linearly, so it is not a useful statistic here.
    """
    _, vals = cauchy_truncations(em, z, r_grid)
    out = np.abs(vals).max(axis=-1)
    return float(out) if np.ndim(z) == 0 else out


def sorted_truncations(em: EmpiricalMeasure, z: complex, r_grid) -> np.ndarray:
    """Truncated Cauchy transforms at one point from suffix sums over sorted atoms.

    Sorts the atoms by distance from z, sums their terms from the farthest
    in, and reads each truncation off the suffix sums at searchsorted of its
    radius: the package's path before it binned the terms by radius.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    dist = np.abs(em.points - z)
    order = np.argsort(dist, kind="stable")
    sep = z - em.points[order]
    contrib = np.zeros(len(sep), dtype=complex)
    np.divide(em.weights[order], sep, out=contrib, where=sep != 0)
    suffix = np.concatenate([np.cumsum(contrib[::-1])[::-1], [0.0 + 0j]])
    return suffix[np.searchsorted(dist[order], r_grid, side="right")]


def wide_block_sum(em: EmpiricalMeasure, zs: np.ndarray, kernel, dtype) -> np.ndarray:
    """Sum of w * kernel(z - atom, |z - atom|) over the atoms in 2e6-pair blocks.

    The blocking the package's atom sums used before they took cache-sized
    blocks; each point's sum must not depend on it.
    """
    zs = np.asarray(zs, dtype=complex)
    out = np.empty(len(zs), dtype=dtype)
    block = max(1, int(2e6) // em.atom_count)
    for start in range(0, len(zs), block):
        diff = zs[start : start + block, None] - em.points[None, :]
        kern = kernel(diff, np.abs(diff))
        out[start : start + block] = np.einsum("ij,j->i", kern, em.weights)
    return out


def dense_ball_masses(em: EmpiricalMeasure, centers: np.ndarray, radii) -> np.ndarray:
    """Measure of each ball B(center, r), a row per center and a column per
    radius: the product of the dense centers x atoms inside-mask with the
    weights, as the package formed it before it took the centers in blocks,
    here one center's row at a time."""
    masses = np.empty((len(centers), len(radii)))
    for i, c in enumerate(np.asarray(centers, dtype=complex)):
        dist = np.abs(c - em.points)
        masses[i] = [(dist <= r) @ em.weights for r in radii]
    return masses


def segment_green_exact(z: complex) -> float:
    """Green's function of the complement of [-1, 1] with pole at infinity."""
    val = z + np.sqrt(z - 1) * np.sqrt(z + 1)
    return float(np.log(np.abs(val)))


def circle_green(z, p: complex):
    """Green's function of the outside of the unit circle with pole p:
    log(|1 - z conj(p)| / |z - p|)."""
    return np.log(np.abs(1.0 - z * np.conj(p)) / np.abs(z - p))


def circle_poisson_masses(n: int, p: complex) -> np.ndarray:
    """Harmonic measure from p outside the unit circle of its n equal arcs,
    the arc of center angle 2 pi (m + 1/2) / n given by the Poisson kernel
    (|p|^2 - 1) / |p - e^(i theta)|^2 / 2 pi at the arc center times its
    length 2 pi / n."""
    theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    return (abs(p) ** 2 - 1.0) / np.abs(p - np.exp(1j * theta)) ** 2 / n


def arcsine_masses(n: int) -> np.ndarray:
    """Equilibrium masses of the n equal pieces of [-1, 1], from arcsine_cdf."""
    return np.diff(arcsine_cdf(np.linspace(-1.0, 1.0, n + 1)))


@dataclass(frozen=True)
class DistanceInterval:
    """Certified enclosure lo <= dist(z, J) <= hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi):
            raise ValueError(f"invalid distance interval [{self.lo}, {self.hi}]")

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)


def distance_interval(rep, z: complex, tol: float) -> DistanceInterval:
    """Certified distance enclosure by best-first descent of the cylinder tree.

    Keeps a priority queue of cylinder discs ordered by their lower bound
    |z - c| - r, prunes branches that cannot beat the best upper bound, and
    stops once the enclosure width drops to tol.  Independent of the
    nearest-center field over one flat cylinder generation that the package
    uses.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    z = complex(z)
    bf = [b.factor for b in rep.branches]
    bt = [b.translation for b in rep.branches]
    rc, rr = rep.root_center, rep.root_radius
    ub = abs(z - rc) + rr
    heap = [(abs(z - rc) - rr, 0, 1.0 + 0j, 0j)]
    counter = 1
    lo_open = heap[0][0]
    while heap:
        lo_open = heap[0][0]
        if ub - max(lo_open, 0.0) <= tol:
            break
        lb, _, coeff, off = heapq.heappop(heap)
        if lb > ub:
            continue
        for f, t in zip(bf, bt):
            c2 = coeff * f
            o2 = coeff * t + off
            center = c2 * rc + o2
            radius = abs(c2) * rr
            d = abs(z - center)
            ub = min(ub, d + radius)
            child_lb = d - radius
            if child_lb < ub:
                heapq.heappush(heap, (child_lb, counter, c2, o2))
                counter += 1
    else:
        lo_open = ub
    return DistanceInterval(max(lo_open, 0.0), ub)


def covering_components(rep, eps: float) -> tuple[int, float]:
    """Cluster count and largest cluster diameter at one covering scale eps.

    Takes the generation covering_counts uses (cylinder radii below eps / 4),
    links every pair of cylinders whose eps neighborhoods meet by plain
    pairwise comparison, and merges links with a Python union-find.
    """
    g = 0
    while rep.piece_radius(g) >= eps / 4.0:
        g += 1
    cs = rep.atoms(g)
    centers, radii = cs.centers, cs.radii
    parent = list(range(len(cs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(cs)), 2):
        if abs(centers[i] - centers[j]) <= radii[i] + radii[j] + 2.0 * eps:
            parent[find(i)] = find(j)
    clusters = {}
    for i in range(len(cs)):
        clusters.setdefault(find(i), []).append(centers[i])
    pad = 2.0 * (float(radii.max()) + eps)
    diam = max(
        math.hypot(max(z.real for z in zs) - min(z.real for z in zs),
                   max(z.imag for z in zs) - min(z.imag for z in zs)) + pad
        for zs in clusters.values()
    )
    return len(clusters), diam


def explicit_covering(rep, a: float, kmax: int) -> tuple[tuple, tuple]:
    """Covering counts and diameters with every level clustered on its own.

    At each k, the generation covering_counts uses is linked by a KD-tree pair
    search and split by connected_components, with no renewal step, as every
    level was computed before the renewal identity.
    """
    counts, diams = [], []
    for k in range(kmax + 1):
        eps = float(a) ** (-k)
        g = 0
        while rep.piece_radius(g) >= eps / 4.0:
            g += 1
        cs = rep.atoms(g)
        centers, radii = cs.centers, cs.radii
        tree = cKDTree(np.column_stack([centers.real, centers.imag]))
        i, j = tree.query_pairs(2.0 * eps + 2.0 * float(radii.max()), output_type="ndarray").T
        near = np.abs(centers[i] - centers[j]) <= radii[i] + radii[j] + 2.0 * eps
        links = coo_matrix((np.ones(near.sum()), (i[near], j[near])), shape=(len(cs),) * 2)
        n, labels = connected_components(links, directed=False)
        spans = []
        for part in (centers.real, centers.imag):
            lo, hi = np.full(n, np.inf), np.full(n, -np.inf)
            np.minimum.at(lo, labels, part)
            np.maximum.at(hi, labels, part)
            spans.append(hi - lo)
        pad = 2.0 * (float(radii.max()) + eps)
        counts.append(n)
        diams.append(max(math.hypot(w, h) + pad for w, h in zip(*spans)))
    return tuple(counts), tuple(diams)


def pairs_within(z, reach: float) -> set:
    """Every unordered index pair of points at most reach apart, by brute force."""
    z = np.asarray(z, dtype=complex)
    i, j = np.triu_indices(len(z), 1)
    near = np.abs(z[i] - z[j]) <= reach
    return set(zip(i[near].tolist(), j[near].tolist()))


def tree_spacing(points) -> float:
    """The closest-pair distance default_r_grid starts from, by a KD-tree
    query for each atom's second-nearest atom, floored at 1e-300."""
    pts = np.column_stack([points.real, points.imag])
    d, _ = cKDTree(pts).query(pts, k=2)
    return max(float(d[:, 1].min()), 1e-300)


def csgraph_components(n: int, i, j) -> tuple[int, np.ndarray]:
    """Component count and labels from scipy's connected_components."""
    links = coo_matrix((np.ones(len(i)), (i, j)), shape=(n, n))
    return connected_components(links, directed=False)


def measure_from_csv(text: str) -> EmpiricalMeasure:
    """Read back the text EmpiricalMeasure.csv_text writes."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValueError("missing measure header")
    meta = dict(tok.split("=", 1) for tok in lines[0][1:].split())
    rows = [ln.split(",") for ln in lines[2:] if ln]
    codes = [tuple(int(c) for c in r[0]) for r in rows]
    depth = max((len(c) for c in codes), default=0)
    if any(len(c) != depth for c in codes):
        raise ValueError("ragged atom codes")
    code_arr = np.array(codes, dtype=np.uint8).reshape(len(rows), depth)
    pts = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    w = np.array([float(r[3]) for r in rows])
    seed = meta.get("seed")
    samples = meta.get("samples")
    stop = meta.get("stop_tol")
    return EmpiricalMeasure(
        codes=code_arr,
        points=pts,
        weights=w,
        shape_name=meta.get("shape", "custom"),
        seed=None if seed in (None, "none") else int(seed),
        stop_tol=None if stop in (None, "none") else float(stop),
        samples=None if samples in (None, "none") else int(samples),
    )


# The walk loop below is the sampler chunk as it was written before it
# became a call of one loop, potential._walk.  That loop keeps one array of live walks full: it launches
# each chunk, with its own random stream, at the end of the array once the
# walks of earlier chunks have stopped and left room, and counts each chunk's
# step limit from its launch.  The reference walks one chunk alone from step
# zero, bin and count stopped walks inside the loop, step by step, and draw
# from one stream, so equal results pin the merged loop to the same draws
# and stops.  They map each random() draw u to the direction _turn(u), where
# they once took exp(1j * uniform(0, 2 pi)) of the same draw;
# test_turn_matches_the_complex_exp pins _turn to that.


def _reenter(z: np.ndarray, center: complex, radius: float, rng) -> np.ndarray:
    """Resample walks outside |z - center| = radius onto that circle.

    A plane Brownian path from outside re-enters the circle almost surely,
    and its first hit follows the harmonic measure of the circle seen from
    the inverted point; sampling that law exactly (a Moebius image of a
    uniform angle) caps outward excursions without biasing the walk.
    """
    w = (z - center) / radius
    far = np.abs(w) > 1.0
    if far.any():
        a = 1.0 / np.conj(w[far])
        u = _turn(rng.random(int(far.sum())))
        w[far] = (u + a) / (1.0 + np.conj(a) * u)
        z = z.copy()
        z[far] = center + radius * w[far]
    return z


def walk_chunk(shape, fld, cfg: WalkConfig, chunk_index: int, n: int):
    rng = rng_stream(cfg.seed, 0, chunk_index)
    center = shape.bounding_center
    launch = LAUNCH_FACTOR * shape.bounding_radius
    z = center + launch * _turn(rng.random(n))
    counts = np.zeros(fld.leaf_count, dtype=np.int64)
    for _ in range(MAX_STEPS):
        lo, hi = fld.query(z)
        done = hi < cfg.stop_tol
        if done.any():
            counts += np.bincount(fld.leaf(z[done]), minlength=fld.leaf_count)
            keep = ~done
            z = z[keep]
            lo = lo[keep]
        if z.size == 0:
            break
        z = z + lo * _turn(rng.random(z.size))
        z = _reenter(z, center, launch, rng)
    return counts, z.size


def atom_counts(shape, cfg: WalkConfig, leaf_counts):
    """Fold per-leaf counts into counts of the sampler's atoms.

    The atoms are the pieces of generation atom_depth(stop_tol), built here
    to count them; each is a contiguous run of equally many leaves.
    """
    n_atoms = len(shape.atoms(shape.atom_depth(cfg.stop_tol)))
    return leaf_counts.reshape(n_atoms, -1).sum(axis=1)


# -- piece generations ------------------------------------------------------------
#
# The references below are the cylinder and exact-shape piece generations as they
# were written before every shape read one lexicographic word table: cylinder
# codes stacked a column per generation with np.repeat and np.tile, binary
# codes from the bits of the row index, and each exact shape's own formulas.


def binary_codes(depth: int) -> np.ndarray:
    """All binary words of a given length, lexicographic: row i holds the bits of i."""
    idx = np.arange(1 << depth, dtype=np.int64)
    codes = np.empty((1 << depth, depth), dtype=np.uint8)
    for j in range(depth):
        codes[:, j] = (idx >> (depth - 1 - j)) & 1
    return codes


def stacked_cylinders(rep, k: int):
    """Codes, centers and radii of generation k, one generation at a time."""
    bf = np.array([b.factor for b in rep.branches])
    bt = np.array([b.translation for b in rep.branches])
    coeffs = np.array([1.0 + 0j])
    offsets = np.array([0j])
    codes = np.zeros((1, 0), dtype=np.uint8)
    for _ in range(k):
        new_coeffs = (coeffs[:, None] * bf[None, :]).ravel()
        new_offsets = (coeffs[:, None] * bt[None, :] + offsets[:, None]).ravel()
        letter = np.tile(np.arange(rep.fan, dtype=np.uint8), len(coeffs))
        codes = np.column_stack([np.repeat(codes, rep.fan, axis=0), letter])
        coeffs, offsets = new_coeffs, new_offsets
    return codes, coeffs * rep.root_center + offsets, np.abs(coeffs) * rep.root_radius


def first_level_gap(rep) -> float:
    """Smallest gap between two first-level cylinder discs, as the renewal
    computed it from generation 1 before the repeller kept one."""
    _, centers, radii = stacked_cylinders(rep, 1)
    i, j = np.triu_indices(len(centers), 1)
    return float(np.min(np.abs(centers[i] - centers[j]) - radii[i] - radii[j]))


def exact_pieces(shape, depth: int):
    """Codes, centers and radii of a circle's arcs or a segment's intervals."""
    codes = binary_codes(depth)
    n = len(codes)
    if hasattr(shape, "radius"):
        ang = 2.0 * np.pi * (np.arange(n) + 0.5) / n
        centers = shape.center + shape.radius * np.exp(1j * ang)
    else:
        t = (np.arange(n) + 0.5) / n
        centers = shape.a + t * (shape.b - shape.a)
    return codes, centers, np.full(n, shape.piece_radius(depth))


def exact_leaf_index(shape, z: np.ndarray, depth: int) -> np.ndarray:
    """Index of the arc or interval of a generation holding each point's nearest point."""
    if hasattr(shape, "radius"):
        rel = z - shape.center
        t = (np.arctan2(rel.imag, rel.real) / (2.0 * np.pi)) % 1.0
    else:
        u = shape.b - shape.a
        t = np.clip(((z - shape.a) * np.conj(u)).real / abs(u) ** 2, 0.0, 1.0)
    return np.minimum((t * (1 << depth)).astype(np.int64), (1 << depth) - 1)


# -- cylinder partitions and the dimension bootstrap ---------------------------
#
# The references below are the cylinder grouping and the bootstrap replicate
# as they were written before the profile grouped integer-coded words and the
# bootstrap drew cell counts: rows grouped by np.unique(axis=0), atom-level
# reweighting, and a polyfit slope per replicate.


def row_prefixes(codes: np.ndarray, k: int):
    """Occupied length-k code words in lexicographic order, and each row's word."""
    words, inverse = np.unique(codes[:, :k], axis=0, return_inverse=True)
    return words, inverse.ravel()


def atom_replicate_dimension(rep, em: EmpiricalMeasure, fit_ks, counts) -> float:
    """Slope dimension of the measure reweighted to the atom walk counts.

    Entropies (with the Miller-Madow term) and stretchings of the fit
    generations are sums over the atoms; each growth slope is a polyfit.
    """
    w = counts / em.samples
    log_inv = np.array([-math.log(b.scale) for b in rep.branches])
    codes = em.codes.astype(np.int64)
    hs, ls = [], []
    for k in fit_ks:
        _, inverse = row_prefixes(em.codes, k)
        m = np.bincount(inverse, weights=w)
        occupied = m[m > 0]
        h = float(-np.sum(occupied * np.log(occupied)))
        hs.append(h + (np.count_nonzero(m) - 1) / (2.0 * em.samples))
        ls.append(float(np.dot(w, log_inv[codes[:, :k]].sum(axis=1))))
    ks = np.asarray(fit_ks, dtype=float)
    return float(np.polyfit(ks, hs, 1)[0] / np.polyfit(ks, ls, 1)[0])


# -- certified distance ---------------------------------------------------------


class GridField:
    """Nearest-center search over a whole generation through np.unique axes.

    The construction product fields replaced: the distinct real and imaginary
    parts of every cylinder center (np.unique with return_inverse), one _Axis
    bucket table each, and a 2-D table of leaf indices by cell.  Only for
    center sets that fill a grid with one center per cell.  Its bounds are
    leaf_bounds.
    """

    def __init__(self, rep, depth: int):
        cs = rep.atoms(depth)
        self.depth, self.leaf_count, self.radii = depth, len(cs), cs.radii
        self.rmax = float(cs.radii.max())
        ux, ix = np.unique(cs.centers.real, return_inverse=True)
        uy, iy = np.unique(cs.centers.imag, return_inverse=True)
        assert len(ux) * len(uy) == len(cs), "the centers fill no grid"
        self.values = (ux, uy)
        self.axes = (_Axis(ux), _Axis(uy))
        self.table = np.empty((len(ux), len(uy)), dtype=np.intp)
        self.table[ix, iy] = np.arange(len(cs))

    def _nearest(self, z):
        z = np.asarray(z)
        jx, dx = self.axes[0].nearest(z.real.copy())
        jy, dy = self.axes[1].nearest(z.imag.copy())
        return np.sqrt(dx * dx + dy * dy), self.table[jx, jy]

    def query(self, z):
        return leaf_bounds(self, z)

    def leaf(self, z):
        return self._nearest(z)[1]


def leaf_bounds(fld, z):
    """Distance bounds built from the nearest leaf, as every field once built them.

    The lower bound is max(d - rmax, 0) and the upper one d plus the nearest
    leaf's own radius, looked up through its index.
    """
    d, idx = fld._nearest(z)
    return np.maximum(d - fld.rmax, 0.0), d + fld.radii[idx]


# -- shell quadrature -----------------------------------------------------------


def shell_quadrature(shape, fld, power: float, r_in: float, r_out: float, cells: int) -> float:
    """Midpoint rule over a grid built from the root cell for this cell count.

    Each call refines from the one root cell and queries the final centres a
    second time, so it shares no grid with the calls for other cell counts.
    """
    half = shape.bounding_radius + r_out
    target = r_in / cells
    centers = np.array([shape.bounding_center])
    h = half
    sq2 = math.sqrt(2.0)
    while h > target:
        h *= 0.5
        off = np.array([h + 1j * h, h - 1j * h, -h + 1j * h, -h - 1j * h])
        centers = (centers[:, None] + off[None, :]).ravel()
        lo, hi = fld.query(centers)
        pad = h * sq2
        keep = (hi + pad >= r_in) & (lo - pad < r_out)
        centers = centers[keep]
        if len(centers) == 0:
            return 0.0
    lo, hi = fld.query(centers)
    mid = 0.5 * (lo + hi)
    inside = (mid >= r_in) & (mid < r_out)
    if not np.any(inside):
        return 0.0
    area = (2.0 * h) ** 2
    return float(np.sum(mid[inside] ** (-power)) * area)
