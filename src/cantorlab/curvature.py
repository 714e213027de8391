"""Menger curvature energies and truncated Cauchy transforms of atomic measures.

The Menger curvature of three points is the inverse circumradius of their
triangle.  The curvature energy of a measure is the triple integral of the
squared kernel; for atomic measures, a weighted sum over ordered triples of
distinct atoms, summed exactly over atom pairs.  Melnikov's identity
c^2(z1, z2, z3) = sum over permutations s of 1 / ((z_s1 - z_s3) conj(z_s2 - z_s3)),
minus its holomorphic twin (which sums to 0), gives
c^2 = 2 sum_s g(z_s1 - z_s3) g(z_s2 - z_s3) with g(u) = Im u / |u|^2, so the
energy is 12 sum_c w_c (G_c^2 - Q_c) with G_c = sum_{a != c} w_a g(z_a - z_c)
and Q_c = sum_{a != c} w_a^2 g(z_a - z_c)^2.  g is odd and g^2 is even, so
each unordered atom pair is evaluated once and feeds both of its atoms.
Every g vanishes on a horizontal line, and atoms spread further vertically
than horizontally are first multiplied by 1j (exact in floating point), so
atoms on a horizontal or vertical line give exactly 0.0.  Per-atom terms are
combined in one fixed order by compensated summation, with no thread
partitioning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, SingularityError
from .geometry import close_pairs
from .potential import ATOM_BLOCK, EmpiricalMeasure, _atom_sum, _pair_blocks, natural_measure

#: largest atom count the energy accepts: 4**7, corner4 at generation 7, is
#: 1.3e8 unordered pairs and 0.7-0.9 s of process CPU (all threads) on a
#: 2-core x86-64 VM; memory stays bounded by ATOM_BLOCK
EXACT_CAP = 4**7


@dataclass(frozen=True)
class CurvatureEstimate:
    """One curvature energy and the number of unordered atom pairs it sums."""

    value: float
    pairs: int

    @property
    def triples(self) -> int:
        """pairs under its old name, which perfbench's tracer still reads."""
        return self.pairs


def _exact_energy(z: np.ndarray, w: np.ndarray) -> float:
    """Ordered energy 12 sum_c w_c (G_c^2 - Q_c) of Melnikov's identity.

    Each unordered pair {a, c}, a > c, is evaluated once, in row blocks of
    atoms c against the columns a >= the block's first row, of at most
    ATOM_BLOCK pairs; entries with a <= c in the diagonal square are masked.
    Since g is odd, one block of g gives the row terms G_c and, negated, the
    column terms G_a; since g^2 is even, one block of g^2 gives Q both ways.
    The per-atom terms are combined by math.fsum in atom order.
    """
    if np.ptp(z.imag) > np.ptp(z.real):
        z = z * 1j
    x, y = z.real.copy(), z.imag.copy()
    n = len(z)
    w2 = w * w
    G, Q = np.zeros(n), np.zeros(n)
    lo = 0
    while lo < n:
        hi = min(n, lo + max(1, ATOM_BLOCK // (n - lo)))
        nu = x[lo:] - x[lo:hi, None]
        g = y[lo:] - y[lo:hi, None]
        nu *= nu
        nu += g * g
        nu[:, : hi - lo][np.tri(hi - lo, dtype=bool)] = np.inf  # a <= c
        if not nu.all():
            raise SingularityError("measure has coincident atoms")
        g /= nu
        # @, not einsum: blocks have at least ATOM_BLOCK / EXACT_CAP = 4 rows,
        # and these products kept OpenBLAS on one thread (CPU at wall time)
        G[lo:hi] += g @ w[lo:]
        G[lo:] -= w[lo:hi] @ g
        g *= g
        Q[lo:hi] += g @ w2[lo:]
        Q[lo:] += w2[lo:hi] @ g
        lo = hi
    return 12.0 * math.fsum(w * (G * G - Q))


def curvature_energy(em: EmpiricalMeasure) -> CurvatureEstimate:
    """Triple integral of squared Menger curvature against the measure.

    Sums every ordered triple of distinct atoms exactly, through the O(n^2)
    pair form of the module docstring.  Raises ResourceLimitError above
    EXACT_CAP atoms.
    """
    z, w = em.points, em.weights
    n = len(z)
    if n < 3:
        raise ValueError("curvature energy needs at least 3 atoms")
    if n > EXACT_CAP:
        raise ResourceLimitError(f"{n} atoms exceed the curvature-energy cap {EXACT_CAP}")
    return CurvatureEstimate(value=_exact_energy(z, w), pairs=n * (n - 1) // 2)


@dataclass(frozen=True)
class CurvatureProfile:
    """Curvature energies of the generation-k self-similar measures."""

    ks: tuple[int, ...]
    estimates: tuple[CurvatureEstimate, ...]

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(e.value for e in self.estimates)


def curvature_profile(rep, kmax: int) -> CurvatureProfile:
    """Exact energies of the natural measures at generations up to kmax.

    Generations with fewer than 3 atoms are skipped.  Raises
    ResourceLimitError before any measure is built when generation kmax
    would exceed EXACT_CAP atoms.  Steadily growing values are the
    finite-scale signature of a measure with infinite curvature energy.
    """
    if rep.fan**kmax > EXACT_CAP:
        raise ResourceLimitError(
            f"generation {kmax} has {rep.fan**kmax} atoms, over the "
            f"curvature-energy cap {EXACT_CAP}"
        )
    ks = [k for k in range(1, kmax + 1) if rep.fan**k >= 3]
    ests = [curvature_energy(natural_measure(rep, k)) for k in ks]
    return CurvatureProfile(ks=tuple(ks), estimates=tuple(ests))


# -- Cauchy transform ------------------------------------------------------------


def cauchy_transform(em: EmpiricalMeasure, z):
    """Sum of w / (z - atom) over all atoms."""
    return _atom_sum(em, z, lambda diff, dist: np.divide(1.0, diff, out=diff), complex)


def default_r_grid(em: EmpiricalMeasure) -> np.ndarray:
    """Geometric truncation grid, ratio 2, from atom spacing to diameter.

    The spacing is the closest atom pair's distance, floored at 1e-300.  Any
    pair's distance bounds it, so close_pairs at d0, the smallest distance
    between atoms adjacent in lexicographic order, holds the closest pair;
    its distance is taken as sqrt(dx*dx + dy*dy), the bits a KD-tree returns.
    """
    z = em.points
    if len(z) < 2:
        return np.array([em.stop_tol or 1.0])
    d0 = float(np.abs(np.diff(z[np.lexsort((z.imag, z.real))])).min())
    r = 1e-300
    if d0 > 0:  # coincident atoms are adjacent and give d0 = 0
        i, j = close_pairs(z, d0)
        dx, dy = z.real[i] - z.real[j], z.imag[i] - z.imag[j]
        r = max(float(np.sqrt(dx * dx + dy * dy).min()), r)
    top = max(em.diameter, r * 2.0)
    grid = [r]
    while grid[-1] < top:
        grid.append(grid[-1] * 2.0)
    return np.array(grid)


def cauchy_truncations(em: EmpiricalMeasure, z, r_grid=None):
    """Truncated transforms sum_{|atom - z| > r} w / (z - atom) for each r.

    Returns (r_grid, complex values), a row of values per point for an array
    z.  Each atom's term goes to bin searchsorted(r_grid, |atom - z|), the
    count of radii below its distance; bincount sums the bins and the value
    at r_j is the sum of the bins past j, with no sort.  Points go in
    _pair_blocks, whose terms overwrite their separations, and a point's
    values have the same bits alone or in any array.  An atom at z itself
    lies beyond no radius.
    """
    if r_grid is None:
        r_grid = default_r_grid(em)
    r_grid = np.asarray(r_grid, dtype=float)
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    m = len(r_grid) + 1
    out = np.empty((len(zs), len(r_grid)), dtype=complex)
    for rows, sep in _pair_blocks(em, zs):
        keys = np.searchsorted(r_grid, np.abs(sep), side="left")
        keys += m * np.arange(len(sep))[:, None]  # one run of m bins per point
        keys = keys.ravel()
        # each term w / sep in place of its separation; a zero one stays 0
        np.divide(em.weights, sep, out=sep, where=sep != 0)
        bins = np.empty((len(sep), m), dtype=complex)
        bins.real = np.bincount(keys, sep.real.ravel(), bins.size).reshape(-1, m)
        bins.imag = np.bincount(keys, sep.imag.ravel(), bins.size).reshape(-1, m)
        out[rows] = np.cumsum(bins[:, :0:-1], axis=1)[:, ::-1]
        del sep, keys  # before the next block's separations
    return r_grid, out[0] if np.ndim(z) == 0 else out
