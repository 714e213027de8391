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


class CylinderProfile:
    """Cylinder partitions of one coded measure at generations k = 1..code_depth.

    prefixes[k-1] lists the occupied length-k code words in lexicographic
    order and masses[k-1] their masses.  entropy[k-1] is the Shannon entropy
    H_k of that mass table in nats, plus the Miller-Madow bias term
    (occupied - 1) / (2 * samples) when the measure was sampled (samples is
    not None); stretching[k-1] is the total stretching L_k, the
    measure-weighted sum of log(1/scale) along length-k words (exact for
    similarity systems, so any probability measure on an equal-scale system
    gives the same L_k / k).  H_k / k and L_k / k are the per-letter entropy
    and Lyapunov exponent.  Words that do not fit int64 codes
    (fan ** code_depth > 2 ** 63) raise ResourceLimitError before any
    grouping.
    """

    def __init__(self, rep: Repeller, em: EmpiricalMeasure):
        depth = em.code_depth
        # a length-k word is the base-fan integer of its letters, so words
        # of length depth are the integers below fan ** depth
        if rep.fan**depth > 2**63:
            raise ResourceLimitError(
                f"{rep.fan}-letter words of length {depth} overflow int64 codes"
            )
        self.ks = tuple(range(1, depth + 1))
        log_inv = np.array([-math.log(b.scale) for b in rep.branches])
        enc = np.zeros(em.atom_count, dtype=np.int64)
        for letters in em.codes.T:
            enc = enc * rep.fan + letters
        # integer order of equal-length words is their lexicographic order,
        # so the occupied length-k words are runs of the sorted deepest cells
        cells, first, inverse = np.unique(enc, return_index=True, return_inverse=True)
        prefixes, masses, self._starts, self._word_sums = [], [], [], []
        for k in self.ks:
            new = np.diff(cells // rep.fan ** (depth - k), prepend=-1) != 0
            starts = np.flatnonzero(new)
            words = em.codes[first[starts], :k]
            prefixes.append(words)
            # summed over the atoms, not over finer cells, at every generation
            masses.append(np.bincount((np.cumsum(new) - 1)[inverse], weights=em.weights))
            self._starts.append(starts)
            # log(1/scale) summed along each occupied word
            self._word_sums.append(log_inv[words].sum(axis=1))
        self.prefixes, self.masses = tuple(prefixes), tuple(masses)
        hl = [_entropy_stretching(m, s, em.samples) for m, s in zip(masses, self._word_sums)]
        self.entropy, self.stretching = np.array(hl).reshape(-1, 2).T


def _entropy_stretching(m: np.ndarray, word_sums: np.ndarray, samples: int | None):
    """Entropy H and stretching L of the mass tables m (cells on the last axis).

    H carries the Miller-Madow term when samples is set.  m is one
    generation's table, or a block of replicate tables of it, one per row.
    """
    h = -np.sum(m * np.log(np.where(m > 0, m, 1.0)), axis=-1)
    if samples:
        h += (np.count_nonzero(m, axis=-1) - 1) / (2.0 * samples)
    return h, np.sum(m * word_sums, axis=-1)


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


def _slope_ratio(ks, H: np.ndarray, L: np.ndarray):
    """Ratio of the least-squares slopes in k of H and L.

    Generations run along the first axis of H and L; replicate tables, when
    there are any, along the second.
    """
    x = np.asarray(ks, dtype=float)
    xc = (x - x.mean()).reshape((-1,) + (1,) * (H.ndim - 1))
    return (xc * H).sum(axis=0) / (xc * L).sum(axis=0)


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
    p = prof.masses[kfit - 1]
    # where each fit generation's cells start among the generation-kfit cells
    runs = [np.searchsorted(prof._starts[kfit - 1], prof._starts[k - 1]) for k in fit_ks]
    block = max(1, BOOT_BLOCK // len(p))
    dims = np.empty(n_boot)
    for start in range(0, n_boot, block):
        counts = rng.multinomial(samples, p, size=min(block, n_boot - start))
        H = np.empty((len(fit_ks), len(counts)))
        L = np.empty_like(H)
        for j, k in enumerate(fit_ks):
            m = np.add.reduceat(counts, runs[j], axis=1) / samples
            H[j], L[j] = _entropy_stretching(m, prof._word_sums[k - 1], samples)
        dims[start : start + len(counts)] = _slope_ratio(fit_ks, H, L)
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
    spread of multinomial walk resamples); fewer than 10^4 walks or fewer
    than 2 replicates raise BootstrapError.  The walks are resampled on the cells of the deepest fit
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
    dim = float(_slope_ratio(usable, H_tot[sel], L_tot[sel]))
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
        if n_boot < 2:
            raise BootstrapError(f"n_boot={n_boot} replicates have no spread (need 2)")
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
