"""Menger curvature energies and truncated Cauchy transforms of atomic measures.

The Menger curvature of three points is the inverse circumradius of their
triangle, computed from the cross product so collinear triples give exactly
zero.  The curvature energy of a measure is the triple integral of the
squared kernel; for atomic measures that is a weighted sum over unordered
triples of distinct atoms, reported in the ordered convention (six times the
unordered sum).  Summation is organized so the result is independent of how
work is partitioned across threads: each middle-index slice is reduced
separately and the slices are combined with exact compensated summation.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import ResourceLimitError, SingularityError
from .potential import EmpiricalMeasure, _atom_sum, natural_measure, rng_stream

#: largest atom count accepted in exact mode (about 1.3e9 triples)
EXACT_CAP = 2000


def menger_curvature(z1, z2, z3):
    """Inverse circumradius of the triangle (z1, z2, z3).

    Computed as 2 |cross(z2 - z1, z3 - z1)| / (|z1 - z2| |z2 - z3| |z3 - z1|),
    which vanishes exactly for collinear triples.  Accepts scalars or
    broadcastable arrays; coincident points raise SingularityError.
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


@dataclass(frozen=True)
class CurvatureEstimate:
    """One curvature-energy value with its provenance."""

    value: float
    stderr: float
    mode: str
    triples: int


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


def curvature_energy(
    em: EmpiricalMeasure,
    mode: str = "exact",
    n_triples: int = 200_000,
    seed: int = 0,
    threads: int = 1,
) -> CurvatureEstimate:
    """Triple integral of squared Menger curvature against the measure.

    exact mode enumerates all unordered triples of distinct atoms (capped at
    EXACT_CAP atoms) and returns six times their weighted sum; sampled mode
    averages uniformly drawn distinct ordered triples and is unbiased for the
    same quantity, with a standard-error estimate.
    """
    z, w = em.points, em.weights
    n = len(z)
    if n < 3:
        raise ValueError("curvature energy needs at least 3 atoms")
    if mode == "exact":
        if n > EXACT_CAP:
            raise ResourceLimitError(
                f"{n} atoms exceed the exact-mode cap {EXACT_CAP}; use sampled mode"
            )
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda j: _middle_slice_sum(z, w, j), range(n)))
        total = 6.0 * math.fsum(parts)
        return CurvatureEstimate(
            value=total, stderr=0.0, mode="exact", triples=n * (n - 1) * (n - 2) // 6
        )
    if mode == "sampled":
        rng = rng_stream(seed, 2)
        idx = rng.integers(0, n, size=(n_triples, 3))
        while True:
            i, j, k = idx.T
            bad = (i == j) | (j == k) | (i == k)
            if not bad.any():
                break
            idx[bad] = rng.integers(0, n, size=(int(bad.sum()), 3))
        c = menger_curvature(z[idx[:, 0]], z[idx[:, 1]], z[idx[:, 2]])
        vals = w[idx[:, 0]] * w[idx[:, 1]] * w[idx[:, 2]] * c**2
        scale = float(n) * (n - 1) * (n - 2)
        value = scale * float(vals.mean())
        stderr = scale * float(vals.std(ddof=1)) / math.sqrt(n_triples)
        return CurvatureEstimate(
            value=value, stderr=stderr, mode="sampled", triples=n_triples
        )
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class CurvatureProfile:
    """Curvature energies of the generation-k self-similar measures."""

    ks: tuple[int, ...]
    estimates: tuple[CurvatureEstimate, ...]

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(e.value for e in self.estimates)


def curvature_profile(
    rep,
    kmax: int,
    n_triples: int = 200_000,
    seed: int = 0,
    threads: int = 1,
) -> CurvatureProfile:
    """Energies of the natural measures at generations up to kmax.

    Generations small enough for exact enumeration are done exactly; beyond
    the cap the sampled estimator takes over.  Steadily growing values are
    the finite-scale signature of a measure with infinite curvature energy.
    """
    ks, ests = [], []
    for k in range(1, kmax + 1):
        if rep.fan**k < 3:
            continue
        em = natural_measure(rep, k)
        mode = "exact" if em.atom_count <= EXACT_CAP else "sampled"
        ests.append(
            curvature_energy(
                em, mode=mode, n_triples=n_triples, seed=seed + k, threads=threads
            )
        )
        ks.append(k)
    return CurvatureProfile(ks=tuple(ks), estimates=tuple(ests))


# -- Cauchy transform ------------------------------------------------------------


def cauchy_transform(em: EmpiricalMeasure, z):
    """Sum of w / (z - atom) over all atoms."""
    return _atom_sum(em, z, lambda diff, dist: np.divide(1.0, diff, out=diff), complex)


def default_r_grid(em: EmpiricalMeasure) -> np.ndarray:
    """Geometric truncation grid, ratio 2, from atom spacing to diameter."""
    pts = np.column_stack([em.points.real, em.points.imag])
    if len(pts) < 2:
        return np.array([em.stop_tol or 1.0])
    d, _ = cKDTree(pts).query(pts, k=2)
    r = max(float(d[:, 1].min()), 1e-300)
    top = max(em.diameter, r * 2.0)
    grid = [r]
    while grid[-1] < top:
        grid.append(grid[-1] * 2.0)
    return np.array(grid)


def cauchy_truncations(em: EmpiricalMeasure, z: complex, r_grid=None):
    """Truncated transforms sum_{|atom - z| > r} w / (z - atom) for each r.

    Returns (r_grid, complex values).  Suffix sums over atoms sorted by
    distance from z make this O(n log n) for the whole grid.
    """
    if r_grid is None:
        r_grid = default_r_grid(em)
    r_grid = np.asarray(r_grid, dtype=float)
    z = complex(z)
    dist = np.abs(em.points - z)
    order = np.argsort(dist, kind="stable")
    dist = dist[order]
    sep = z - em.points[order]
    # an atom at z itself can never satisfy |atom - z| > r, so its (infinite)
    # term is excluded from every truncation; zero it instead of dividing
    contrib = np.zeros(len(sep), dtype=complex)
    np.divide(em.weights[order], sep, out=contrib, where=sep != 0)
    suffix = np.concatenate([np.cumsum(contrib[::-1])[::-1], [0.0 + 0j]])
    idx = np.searchsorted(dist, r_grid, side="right")
    return r_grid, suffix[idx]

