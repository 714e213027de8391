"""Symbolic dynamics of sampled measures: entropy, Lyapunov exponent, dimension.

Atom codes are finite words in the branch alphabet, so any empirical measure
induces mass tables on the cylinder partitions of every coarser generation.
Shannon entropies of those tables and the exactly computable Lyapunov
exponent (mean of log 1/scale along words) combine into the dimension
estimate dim = h / lambda, extrapolated over generations and bootstrapped
over walk resamples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BootstrapError, DepthError, FitDegeneracyError
from .geometry import Repeller
from .potential import EmpiricalMeasure, rng_stream

#: a generation enters the extrapolation fit only while its occupied
#: cylinder count stays below samples / OCCUPANCY_FACTOR
OCCUPANCY_FACTOR = 50

#: walk count below which bootstrap intervals are refused
MIN_BOOTSTRAP_SAMPLES = 10_000


def _plugin_entropy(masses: np.ndarray) -> float:
    m = masses[masses > 0]
    return float(-np.sum(m * np.log(m)))


class CylinderProfile:
    """Cylinder partitions of one coded measure at generations k = 1..kmax.

    prefixes[k-1] lists the occupied length-k code words in lexicographic
    order and masses[k-1] their masses.  entropy[k-1] is the Shannon entropy
    H_k of that mass table in nats, plus the Miller-Madow bias term
    (occupied - 1) / (2 * samples) when the measure was sampled (samples is
    not None); stretching[k-1] is the total stretching L_k, the
    measure-weighted sum of log(1/scale) along length-k words (exact for
    similarity systems, so any probability measure on an equal-scale system
    gives the same L_k / k).  H_k / k and L_k / k are the per-letter entropy
    and Lyapunov exponent.  kmax outside 1..code_depth raises DepthError.
    """

    def __init__(self, rep: Repeller, em: EmpiricalMeasure, kmax: int | None = None):
        if kmax is None:
            kmax = em.code_depth
        if not 1 <= kmax <= em.code_depth:
            raise DepthError(
                f"generation {kmax} outside the coded depth 1..{em.code_depth}"
            )
        self.ks = tuple(range(1, kmax + 1))
        prefixes, self._inverses = [], []
        for k in self.ks:
            words, inverse = np.unique(em.codes[:, :k], axis=0, return_inverse=True)
            prefixes.append(words)
            self._inverses.append(inverse.ravel())
        self.prefixes = tuple(prefixes)
        log_inv = np.array([-math.log(b.scale) for b in rep.branches])
        codes = em.codes.astype(np.int64)
        self._word_sums = [log_inv[codes[:, :k]].sum(axis=1) for k in self.ks]
        self._samples = em.samples
        self.masses, self.entropy, self.stretching = self._evaluate(em.weights)

    def _evaluate(self, weights: np.ndarray):
        """Masses, entropies H_k and stretchings L_k with the atoms reweighted."""
        masses, hs, ls = [], [], []
        for inverse, word_sum in zip(self._inverses, self._word_sums):
            m = np.bincount(inverse, weights=weights)
            h = _plugin_entropy(m)
            if self._samples:
                h += (np.count_nonzero(m) - 1) / (2.0 * self._samples)
            masses.append(m)
            hs.append(h)
            ls.append(float(np.dot(weights, word_sum)))
        return tuple(masses), np.array(hs), np.array(ls)


@dataclass(frozen=True)
class DimensionEstimate:
    """Entropy-over-Lyapunov dimension with bootstrap uncertainty.

    dim is the ratio of the fitted growth slopes of total entropy k * h_k
    and total stretching k * lambda_k over the usable generations; ci is a
    bootstrap 95% interval (degenerate for exact measures).
    """

    ks: tuple[int, ...]
    h: tuple[float, ...]
    lam: tuple[float, ...]
    dim_k: tuple[float, ...]
    fit_ks: tuple[int, ...]
    dim: float
    ci: tuple[float, float]


def _slope_dimension(ks, H_tot, L_tot):
    ks = np.asarray(ks, dtype=float)
    hs = np.polyfit(ks, np.asarray(H_tot), 1)[0]
    ls = np.polyfit(ks, np.asarray(L_tot), 1)[0]
    return float(hs / ls)


def manning_dimension(
    rep: Repeller,
    em: EmpiricalMeasure,
    n_boot: int = 200,
    seed: int = 0,
) -> DimensionEstimate:
    """Dimension of a measure as entropy rate over Lyapunov exponent.

    Fits total entropy and total stretching linearly in k over the coded
    generations k >= 2 whose occupied-cylinder count stays below samples / 50
    (all generations for exact measures), and takes the slope ratio.  Sampled
    measures get a 95% bootstrap interval (point estimate +- 1.96 times the
    spread of multinomial walk resamples); fewer than 10^4 walks raise
    BootstrapError.
    """
    if em.code_depth < 2:
        raise FitDegeneracyError("need codes of depth >= 2 to fit growth slopes")
    prof = CylinderProfile(rep, em)
    ks, H_tot, L_tot = prof.ks, prof.entropy, prof.stretching
    usable = [
        k
        for k, words in zip(ks, prof.prefixes)
        if k >= 2
        and (em.samples is None or len(words) < em.samples / OCCUPANCY_FACTOR)
    ]
    if len(usable) < 2:
        raise FitDegeneracyError(
            "fewer than 2 generations usable for the slope fit; "
            "raise samples or lower kmax"
        )
    sel = [k - 1 for k in usable]
    dim = _slope_dimension(usable, H_tot[sel], L_tot[sel])
    h_k = tuple(float(H_tot[k - 1] / k) for k in ks)
    lam_k = tuple(float(L_tot[k - 1] / k) for k in ks)
    dim_k = tuple(
        float(H_tot[k - 1] / L_tot[k - 1]) if L_tot[k - 1] > 0 else float("nan")
        for k in ks
    )
    if em.samples is None:
        ci = (dim, dim)
    else:
        if em.samples < MIN_BOOTSTRAP_SAMPLES:
            raise BootstrapError(
                f"{em.samples} walks are too few to bootstrap "
                f"(need {MIN_BOOTSTRAP_SAMPLES})"
            )
        rng = rng_stream(seed, 1)
        dims = np.empty(n_boot)
        for b in range(n_boot):
            counts = rng.multinomial(em.samples, em.weights)
            wb = counts / em.samples
            _, Hb, Lb = prof._evaluate(wb)
            dims[b] = _slope_dimension(usable, Hb[sel], Lb[sel])
        # normal-approximation interval: resampling adds a second layer of
        # plug-in entropy bias, so the replicate spread is trustworthy but
        # the replicate location is not; center on the point estimate
        half = 1.96 * float(dims.std(ddof=1))
        ci = (dim - half, dim + half)
    return DimensionEstimate(
        ks=tuple(ks),
        h=h_k,
        lam=lam_k,
        dim_k=dim_k,
        fit_ks=tuple(usable),
        dim=dim,
        ci=ci,
    )
