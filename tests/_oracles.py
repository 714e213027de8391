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

from cantorlab.curvature import cauchy_truncations
from cantorlab.errors import ExcessiveDiscardError, SingularityError
from cantorlab.potential import (
    LAUNCH_FACTOR,
    MAX_STEPS,
    TWO_PI,
    EmpiricalMeasure,
    WalkConfig,
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


def _middle_slice_sum(z: np.ndarray, w: np.ndarray, j: int) -> float:
    """Weighted sum of c^2 over triples (i, j, k) with i < j < k."""
    if j == 0 or j == len(z) - 1:
        return 0.0
    a = z[:j] - z[j]
    b = z[j + 1 :] - z[j]
    na = a.real**2 + a.imag**2
    nb = b.real**2 + b.imag**2
    cross = a.real[:, None] * b.imag[None, :] - a.imag[:, None] * b.real[None, :]
    dot = a.real[:, None] * b.real[None, :] + a.imag[:, None] * b.imag[None, :]
    nab = na[:, None] + nb[None, :] - 2.0 * dot
    den = na[:, None] * nb[None, :] * nab
    if np.any(den == 0.0):
        raise SingularityError("measure has coincident atoms")
    c2 = 4.0 * cross**2 / den
    return float(w[j] * (w[:j] @ c2 @ w[j + 1 :]))


def triple_slice_energy(z, w) -> float:
    """Ordered-convention energy by the O(n^3) middle-index triple sum.

    Each middle index j reduces its triples (i, j, k), i < j < k, with the
    cross-product kernel; the slices are combined by compensated summation.
    This is the exact-mode sum the package used before the pair form.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=float)
    parts = [_middle_slice_sum(z, w, j) for j in range(len(z))]
    return 6.0 * math.fsum(parts)


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


def maximal_cauchy(em: EmpiricalMeasure, z: complex, r_grid=None) -> float:
    """Largest modulus of the truncated Cauchy transform over the grid.

    The modulus sits outside the truncated sum; the variant with the modulus
    inside the sum grows without bound as the truncation shrinks whenever
    ball masses scale linearly, so it is not a useful statistic here.
    """
    _, vals = cauchy_truncations(em, z, r_grid)
    return float(np.max(np.abs(vals)))


def segment_green_exact(z: complex) -> float:
    """Green's function of the complement of [-1, 1] with pole at infinity."""
    val = z + np.sqrt(z - 1) * np.sqrt(z + 1)
    return float(np.log(np.abs(val)))


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
    while rep.max_cylinder_radius(g) >= eps / 4.0:
        g += 1
    cs = rep.cylinders(g)
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


# The two walk loops below are the sampler chunk and the pole-absorption
# estimate as they were written before both became calls of one loop,
# potential._walk, which also walks several chunks, each with its own random
# stream, as one array.  They bin and count stopped walks inside the loop,
# step by step, and draw from one stream, so equal results pin the merged
# loop to the same draws and stops.


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
        u = np.exp(1j * rng.uniform(0.0, TWO_PI, int(far.sum())))
        w[far] = (u + a) / (1.0 + np.conj(a) * u)
        z = z.copy()
        z[far] = center + radius * w[far]
    return z


def walk_chunk(shape, fld, cfg: WalkConfig, chunk_index: int, n: int):
    rng = rng_stream(cfg.seed, 0, chunk_index)
    center = shape.bounding_center
    launch = LAUNCH_FACTOR * shape.bounding_radius
    theta = rng.uniform(0.0, TWO_PI, n)
    z = center + launch * np.exp(1j * theta)
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
        ang = rng.uniform(0.0, TWO_PI, z.size)
        z = z + cfg.shrink * lo * np.exp(1j * ang)
        z = _reenter(z, center, launch, rng)
    return counts, z.size


def absorbed_fraction(shape, fld, z0, pole, pole_radius, cfg, rng, n):
    """Fraction of walks from z0 hitting the pole disc before J."""
    z = np.full(n, complex(z0))
    center = shape.bounding_center
    enclose = 2.0 * max(
        shape.bounding_radius, abs(pole - center) + pole_radius, abs(z0 - center)
    )
    hits = 0
    finished = 0
    for _ in range(MAX_STEPS):
        lo, hi = fld.query(z)
        dp = np.abs(z - pole) - pole_radius
        stop = np.minimum(hi, dp) < cfg.stop_tol
        if stop.any():
            hits += int(np.sum(dp[stop] < hi[stop]))
            finished += int(stop.sum())
            keep = ~stop
            z, lo, dp = z[keep], lo[keep], dp[keep]
        if z.size == 0:
            break
        ang = rng.uniform(0.0, TWO_PI, z.size)
        z = z + cfg.shrink * np.minimum(lo, dp) * np.exp(1j * ang)
        z = _reenter(z, center, enclose, rng)
    if finished < 0.99 * n:
        raise ExcessiveDiscardError("over 1% of pole walks hit the step limit")
    return hits / finished, finished
