"""Symbolic dynamics of sampled measures: entropy, Lyapunov exponent, dimension.

Atom codes are finite words in the branch alphabet, so any empirical measure
induces mass tables on the cylinder partitions of every coarser generation.
Shannon entropies of those tables and the exactly computable Lyapunov
exponent (mean of log 1/scale along words) combine into the dimension
estimate dim = h / lambda, extrapolated over generations and bootstrapped
over walk resamples.  The bootstrap resamples the walks on the cells of the
deepest fit generation rather than on the atoms: the replicates have the
same law as atom-level resamples, drawn from a different random stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BootstrapError,
    DepthError,
    FitDegeneracyError,
    ResourceLimitError,
)
from .geometry import Repeller
from .potential import EmpiricalMeasure, rng_stream

#: a generation enters the extrapolation fit only while its occupied
#: cylinder count stays below samples / OCCUPANCY_FACTOR
OCCUPANCY_FACTOR = 50

#: walk count below which bootstrap intervals are refused
MIN_BOOTSTRAP_SAMPLES = 10_000

#: the bootstrap draws its replicates in blocks of at most BOOT_BLOCK cell
#: counts (cells x replicates, and at least one replicate), so its
#: temporaries stay near 128 kB however large n_boot is
BOOT_BLOCK = 1 << 14


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
    and Lyapunov exponent.  kmax outside 1..code_depth raises DepthError,
    and words that do not fit int64 codes (fan ** kmax > 2 ** 63) raise
    ResourceLimitError before any grouping.
    """

    def __init__(self, rep: Repeller, em: EmpiricalMeasure, kmax: int | None = None):
        if kmax is None:
            kmax = em.code_depth
        if not 1 <= kmax <= em.code_depth:
            raise DepthError(
                f"generation {kmax} outside the coded depth 1..{em.code_depth}"
            )
        # a length-k word is the base-fan integer of its letters, so words
        # of length kmax are the integers below fan ** kmax
        if rep.fan**kmax > 2**63:
            raise ResourceLimitError(
                f"{rep.fan}-letter words of length {kmax} overflow int64 codes"
            )
        self.ks = tuple(range(1, kmax + 1))
        log_inv = np.array([-math.log(b.scale) for b in rep.branches])
        enc = np.zeros(em.atom_count, dtype=np.int64)
        prefixes, self._inverses, self._word_sums = [], [], []
        for k in self.ks:
            enc = enc * rep.fan + em.codes[:, k - 1]
            # integer order of equal-length words is their lexicographic order
            _, first, inverse = np.unique(enc, return_index=True, return_inverse=True)
            words = em.codes[first, :k]
            prefixes.append(words)
            self._inverses.append(inverse)
            # log(1/scale) summed along each occupied word
            self._word_sums.append(log_inv[words].sum(axis=1))
        self.prefixes = tuple(prefixes)
        self._samples = em.samples
        self.masses, self.entropy, self.stretching = self._evaluate(em.weights)

    def _evaluate(self, weights: np.ndarray):
        """Masses, entropies H_k and stretchings L_k with the atoms reweighted."""
        masses, hs, ls = [], [], []
        for inverse, word_sums in zip(self._inverses, self._word_sums):
            m = np.bincount(inverse, weights=weights)
            h = _plugin_entropy(m)
            if self._samples:
                h += (np.count_nonzero(m) - 1) / (2.0 * self._samples)
            masses.append(m)
            hs.append(h)
            ls.append(float(np.dot(weights, word_sums[inverse])))
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


def _bootstrap_dims(prof: CylinderProfile, fit_ks, samples: int, n_boot: int, rng):
    """Slope dimensions of n_boot multinomial resamples of the samples walks.

    Every replicate quantity depends on the walks only through the masses of
    the cells of the deepest fit generation, and walk counts summed over a
    partition are multinomial with the summed probabilities, so the draws are
    made on those cells instead of on the atoms: the same law, in fewer
    categories.  Coarser generations sum runs of lexicographically adjacent
    cells.  The draws, hence the result, do not depend on BOOT_BLOCK.
    """
    kfit = fit_ks[-1]
    words, p = prof.prefixes[kfit - 1], prof.masses[kfit - 1]
    groups = []
    for k in fit_ks:
        # the cells of generation kfit that start a new length-k prefix
        new = np.ones(len(words), dtype=bool)
        new[1:] = np.any(words[1:, :k] != words[:-1, :k], axis=1)
        groups.append((np.flatnonzero(new), prof._word_sums[k - 1]))
    x = np.asarray(fit_ks, dtype=float)
    xc = (x - x.mean())[:, None]
    block = max(1, BOOT_BLOCK // len(words))
    dims = np.empty(n_boot)
    for start in range(0, n_boot, block):
        counts = rng.multinomial(samples, p, size=min(block, n_boot - start))
        H = np.empty((len(fit_ks), len(counts)))
        L = np.empty_like(H)
        for j, (starts, word_sums) in enumerate(groups):
            c = np.add.reduceat(counts, starts, axis=1)
            m = c / samples
            occupied = np.count_nonzero(c, axis=1)
            H[j] = -np.sum(m * np.log(np.where(c > 0, m, 1.0)), axis=1)
            H[j] += (occupied - 1) / (2.0 * samples)
            L[j] = np.sum(m * word_sums, axis=1)
        # the ratio of the centred least-squares slopes of H and L in k
        dims[start : start + len(counts)] = (xc * H).sum(axis=0) / (xc * L).sum(axis=0)
    return dims


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
    BootstrapError.  The walks are resampled on the cells of the deepest fit
    generation, which gives the law of atom-level resamples from a different
    random stream, so seed fixes the interval but the interval does not
    repeat one drawn atom by atom.
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
        dims = _bootstrap_dims(prof, usable, em.samples, n_boot, rng_stream(seed, 1))
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
