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
    KD-tree field over one flat cylinder generation that the package uses.
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
