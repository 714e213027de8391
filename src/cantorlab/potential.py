"""Harmonic measure sampling and logarithmic potential theory.

Every walk-on-spheres estimate goes through one loop, _walk: each live walk
repeatedly jumps to a uniform point on a circle of radius shrink * (certified
distance lower bound) and stops once the certified distance upper bound drops
below stop_tol.  A walk that leaves its enclosing circle re-enters it by the
exact exterior Poisson kernel, so that circle sets the cost, not the law.

The sampler realizes the pole at infinity as a launch circle of
LAUNCH_FACTOR times the root radius: walks start uniformly on it, and the
stopped walks are binned into the cylinder piece of radius about stop_tol
that contains them, which makes the result an atomic measure with exact
integer provenance: reductions are integer counts per piece, so results are
independent of chunk scheduling and thread count.  Each chunk of CHUNK walks
draws from its own random stream; a pool task walks a batch of up to BATCH
chunks as one array, each walk tagged with the chunk that owns it, and every
stream draws for its own walks in walk order, so each chunk sees the draws it
would see alone.  Pole absorption runs the same loop with one stream and the
pole disc folded into the distance bounds, so a walk stops at J or at the
disc, whichever it reaches first.

From the sampled measure the module builds logarithmic potentials, a Robin
constant (hence capacity), a Green's function model, and regression-based
diagnostics: the dist^delta comparability fit, ball mass scaling, and a
Holder envelope for ratios of positive harmonic functions near J.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DispersionError,
    ExcessiveDiscardError,
    FitDegeneracyError,
    InsufficientMassError,
    SingularityError,
    VarianceError,
)
from .geometry import Repeller
from .shapes import Shape

TWO_PI = 2.0 * np.pi

#: walks are processed in fixed-size chunks, each with its own random
#: stream, so no draw depends on batching or thread count
CHUNK = 4096

#: a pool task walks up to this many chunks as one array, so each step's
#: numpy calls cover enough walks to amortize their per-call cost
BATCH = 8

#: fraction of walks allowed to hit the step limit
DISCARD_LIMIT = 0.01

#: step limit of every walk, sampling and pole absorption alike
MAX_STEPS = 10_000

#: walks launch on, and re-enter onto, the circle of this many bounding
#: radii; exterior Poisson re-entry makes every circle outside the root disc
#: sample the same law, and a wider one only adds wandering in the annulus
LAUNCH_FACTOR = 1.1

#: Robin fits use this many probes at certified distance [2, 10] * stop_tol
ROBIN_PROBES = 256

#: fraction of probe potentials trimmed from each end of the Robin mean
ROBIN_TRIM = 0.1

#: largest 10%-90% quantile spread of probe potentials a Robin fit accepts
DISPERSION_LIMIT = 0.5

#: boundary Harnack points sit at distance DEPTH_BAND * R from an anchor
#: piece (R the bounding radius) and pairs are SEP_BAND * R apart
DEPTH_BAND = (0.05, 0.25)
SEP_BAND = (0.05, 0.5)

#: the Holder envelope fits this quantile of log deviation in each of
#: ENVELOPE_BINS log-separation buckets
ENVELOPE_QUANTILE = 0.9
ENVELOPE_BINS = 6


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent deterministic generator for one labeled substream."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


# -- configuration -------------------------------------------------------------


@dataclass(frozen=True)
class WalkConfig:
    """Parameters of one sampling run.

    stop_tol may be left as None and is then resolved against the shape as
    1e-4 * bounding radius.  Walks start on, and re-enter onto, the circle of
    LAUNCH_FACTOR * bounding radius, and each runs at most MAX_STEPS steps.
    """

    samples: int = 10_000
    seed: int = 0
    shrink: float = 0.9
    stop_tol: float | None = None
    threads: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink must lie in (0, 1)")
        if self.stop_tol is not None and self.stop_tol <= 0:
            raise ValueError("stop_tol must be positive")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")

    def resolve(self, shape: Shape) -> "WalkConfig":
        stop = self.stop_tol if self.stop_tol is not None else 1e-4 * shape.bounding_radius
        return replace(self, stop_tol=stop)


# -- empirical measures ---------------------------------------------------------


@dataclass
class EmpiricalMeasure:
    """Atomic probability measure with per-atom cylinder codes.

    codes is (n, k) with one row per atom; points are the coded piece
    centers; weights are positive and sum to one.
    """

    codes: np.ndarray
    points: np.ndarray
    weights: np.ndarray
    shape_name: str = "custom"
    seed: int | None = None
    stop_tol: float | None = None
    samples: int | None = None
    discarded: int = 0

    def __post_init__(self):
        self.codes = np.asarray(self.codes, dtype=np.uint8)
        if self.codes.ndim != 2:
            raise ValueError("codes must be a 2-d array")
        self.points = np.asarray(self.points, dtype=complex)
        self.weights = np.asarray(self.weights, dtype=float)
        if not (len(self.codes) == len(self.points) == len(self.weights)):
            raise ValueError("codes, points and weights must have equal length")
        if len(self.weights) == 0:
            raise ValueError("measure needs at least one atom")
        if np.any(self.weights <= 0) or not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be positive and finite")
        total = self.weights.sum()
        if abs(total - 1.0) > 1e-12:
            self.weights = self.weights / total

    @property
    def atom_count(self) -> int:
        return len(self.weights)

    @property
    def code_depth(self) -> int:
        return self.codes.shape[1]

    @property
    def diameter(self) -> float:
        pts = self.points
        return float(
            math.hypot(
                pts.real.max() - pts.real.min(), pts.imag.max() - pts.imag.min()
            )
        )

    def csv_text(self) -> str:
        if self.codes.size and self.codes.max() > 9:
            raise ValueError("code serialization supports at most 10 branches")
        meta = (
            f"# shape={self.shape_name} seed={_fmt_meta(self.seed)} "
            f"stop_tol={_fmt_meta(self.stop_tol)} samples={_fmt_meta(self.samples)}"
        )
        lines = [meta, "code,x,y,weight"]
        for i in range(self.atom_count):
            code = "".join(str(int(c)) for c in self.codes[i])
            lines.append(
                f"{code},{float(self.points[i].real)!r},"
                f"{float(self.points[i].imag)!r},{float(self.weights[i])!r}"
            )
        return "\n".join(lines) + "\n"


def _fmt_meta(v):
    if v is None:
        return "none"
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def natural_measure(rep: Repeller, k: int) -> EmpiricalMeasure:
    """Self-similar measure at generation k, one atom per cylinder.

    Weights follow the Moran rule (product of scale^dimension along the
    word), which for equal scales is the uniform distribution on cylinders.
    """
    from .geometry import similarity_dimension

    cs = rep.cylinders(k)
    delta = similarity_dimension(rep)
    w = (cs.radii / rep.root_radius) ** delta
    return EmpiricalMeasure(
        codes=cs.codes,
        points=cs.centers,
        weights=w / w.sum(),
        shape_name=rep.name,
        stop_tol=float(cs.radii.max()) if k > 0 else rep.root_radius,
    )


# -- walk-on-spheres sampling ---------------------------------------------------


def _angles(rngs, owner: np.ndarray) -> np.ndarray:
    """Uniform angles, drawn from rngs[owner[i]] for walk i.

    owner is non-decreasing, so each stream draws for its own walks in walk
    order; a stream that owns no walk draws nothing.
    """
    if len(rngs) == 1:
        return rngs[0].uniform(0.0, TWO_PI, owner.size)
    ends = owner.searchsorted(np.arange(len(rngs) + 1)).tolist()
    spans = zip(rngs, ends, ends[1:])
    return np.concatenate([rng.uniform(0.0, TWO_PI, b - a) for rng, a, b in spans if b > a])


def _reenter(z, owner, rngs, center: complex, radius: float) -> np.ndarray:
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
        u = np.exp(1j * _angles(rngs, owner[far]))
        w[far] = (u + a) / (1.0 + np.conj(a) * u)
        z = z.copy()
        z[far] = center + radius * w[far]
    return z


def _walk(query, z, owner, rngs, cfg: WalkConfig, center: complex, radius: float):
    """Run walk-on-spheres from the points z until each one stops.

    query(z) returns certified lower and upper bounds on the distance to
    the absorbing set; a walk stops where the upper bound drops below
    stop_tol and otherwise jumps shrink * (lower bound) in a uniform
    direction, re-entering the circle |z - center| = radius when it leaves
    it.  Walk i draws from rngs[owner[i]], and owner must be non-decreasing.
    Returns the stopped positions, in the order the walks stopped, and the
    number of walks still live after MAX_STEPS steps.
    """
    stopped = [z[:0]]
    for _ in range(MAX_STEPS):
        lo, hi = query(z)
        done = hi < cfg.stop_tol
        if done.any():
            stopped.append(z[done])
            keep = ~done
            z, lo, owner = z[keep], lo[keep], owner[keep]
        if z.size == 0:
            break
        z = z + cfg.shrink * lo * np.exp(1j * _angles(rngs, owner))
        z = _reenter(z, owner, rngs, center, radius)
    return np.concatenate(stopped), z.size


def _walk_chunks(shape, fld, cfg: WalkConfig, jobs):
    """Walk the chunks jobs = [(chunk_index, n), ...] as one array.

    Returns the leaf counts of all their stopped walks and the number of
    walks still live after MAX_STEPS steps.
    """
    rngs = [rng_stream(cfg.seed, 0, chunk_index) for chunk_index, _ in jobs]
    owner = np.repeat(np.arange(len(jobs)), [n for _, n in jobs])
    center = shape.bounding_center
    launch = LAUNCH_FACTOR * shape.bounding_radius
    z = center + launch * np.exp(1j * _angles(rngs, owner))
    stopped, live = _walk(fld.query, z, owner, rngs, cfg, center, launch)
    return np.bincount(fld.leaf(stopped), minlength=fld.leaf_count), live


def sample_harmonic_measure(shape: Shape, cfg: WalkConfig) -> EmpiricalMeasure:
    """Sample harmonic measure of the complement of J seen from far away.

    Returns an EmpiricalMeasure whose atoms sit at the centers of the pieces
    of radius about stop_tol, weighted by stopped-walk counts.  Raises
    ExcessiveDiscardError when over 1% of walks exhaust MAX_STEPS.
    """
    cfg = cfg.resolve(shape)
    fld = shape.field(cfg.stop_tol / 4.0)
    sizes = [CHUNK] * (cfg.samples // CHUNK)
    if cfg.samples % CHUNK:
        sizes.append(cfg.samples % CHUNK)
    jobs = list(enumerate(sizes))
    # near-equal batches of at most BATCH chunks, at least one per thread
    n_batches = max(-(-len(jobs) // BATCH), min(cfg.threads, len(jobs)))
    batches = [
        jobs[len(jobs) * b // n_batches : len(jobs) * (b + 1) // n_batches]
        for b in range(n_batches)
    ]
    counts = np.zeros(fld.leaf_count, dtype=np.int64)
    discarded = 0
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        walked = pool.map(lambda jobs: _walk_chunks(shape, fld, cfg, jobs), batches)
        for c, d in walked:
            counts += c
            discarded += d
    if discarded > DISCARD_LIMIT * cfg.samples:
        raise ExcessiveDiscardError(
            f"{discarded} of {cfg.samples} walks hit the step limit "
            f"{MAX_STEPS} (allowed {DISCARD_LIMIT:.0%})"
        )
    atom_k = shape.atom_depth(cfg.stop_tol)
    codes, centers, _ = shape.atoms(atom_k)
    group = fld.leaf_count // len(centers)
    atom_counts = counts.reshape(len(centers), group).sum(axis=1)
    occupied = atom_counts > 0
    weights = atom_counts[occupied].astype(float)
    return EmpiricalMeasure(
        codes=codes[occupied],
        points=centers[occupied],
        weights=weights / weights.sum(),
        shape_name=shape.name,
        seed=cfg.seed,
        stop_tol=cfg.stop_tol,
        samples=cfg.samples,
        discarded=discarded,
    )


# -- logarithmic potential and the Green model ----------------------------------


def _atom_sum(em: EmpiricalMeasure, z, kernel, dtype):
    """Sum of w * kernel(z - atom, |z - atom|) over the atoms, at each z.

    Points are taken in blocks of about 2e6 point-atom pairs; a point within
    1e-14 of an atom raises SingularityError.  The kernel may overwrite its
    arguments, so a block holds at most one complex and one real array.  A
    scalar z gives a scalar of type dtype, an array z an array of that dtype.
    """
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty(len(zs), dtype=dtype)
    block = max(1, int(2e6) // max(em.atom_count, 1))
    for start in range(0, len(zs), block):
        diff = zs[start : start + block, None] - em.points[None, :]
        dist = np.abs(diff)
        if dist.min() < 1e-14:
            raise SingularityError("evaluation point coincides with an atom")
        out[start : start + block] = kernel(diff, dist) @ em.weights
        del diff, dist  # free this block before the next one is built
    return dtype(out[0]) if np.ndim(z) == 0 else out


def log_potential(em: EmpiricalMeasure, z) -> float | np.ndarray:
    """Integral of log|z - w| against the measure, atom by atom."""
    return _atom_sum(em, z, lambda diff, dist: np.log(dist, out=dist), float)


def boundary_probes(
    shape: Shape, n: int, band: tuple[float, float], seed: int = 0
) -> np.ndarray:
    """Points at certified distance to J inside [band[0], band[1]].

    Probes are thrown from random boundary pieces in random directions and
    kept only when the certified distance enclosure lies inside the band.
    """
    lo_b, hi_b = band
    if not 0 < lo_b < hi_b:
        raise ValueError("band must satisfy 0 < lo < hi")
    fld = shape.field(lo_b / 16.0)
    anchor_k = shape.atom_depth(lo_b)
    _, anchors, _ = shape.atoms(anchor_k)
    rng = rng_stream(seed, 3)
    out = []
    have = 0
    for _ in range(200):
        m = max(4 * n, 64)
        pick = anchors[rng.integers(0, len(anchors), m)]
        dist = np.exp(rng.uniform(math.log(lo_b), math.log(hi_b), m))
        ang = rng.uniform(0.0, TWO_PI, m)
        z = pick + dist * np.exp(1j * ang)
        qlo, qhi = fld.query(z)
        ok = (qlo >= lo_b) & (qhi <= hi_b) & shape.in_outer_domain(z)
        out.append(z[ok])
        have += int(ok.sum())
        if have >= n:
            break
    else:
        raise FitDegeneracyError(
            f"could not place {n} certified probes in band [{lo_b}, {hi_b}]"
        )
    return np.concatenate(out)[:n]


def robin_constant(em: EmpiricalMeasure, probes: np.ndarray) -> float:
    """Robin constant as minus the trimmed mean of near-boundary potentials.

    The potential of the equilibrium measure is constant (= -Robin) on the
    set itself, so its values just outside estimate the constant; a trimmed
    mean guards stray probes and DispersionError flags badly spread values.
    """
    probes = np.asarray(probes, dtype=complex)
    if len(probes) < 8:
        raise ValueError("need at least 8 probes")
    vals = np.sort(log_potential(em, probes))
    spread = float(np.quantile(vals, 0.9) - np.quantile(vals, 0.1))
    if spread > DISPERSION_LIMIT:
        raise DispersionError(
            f"probe potential spread {spread:.3g} exceeds {DISPERSION_LIMIT}"
        )
    t = int(len(vals) * ROBIN_TRIM)
    core = vals[t : len(vals) - t] if t > 0 else vals
    return -float(core.mean())


@dataclass(frozen=True)
class GreenModel:
    """Green's function with pole at infinity: G = log-potential + Robin."""

    measure: EmpiricalMeasure
    robin: float

    @property
    def capacity(self) -> float:
        return math.exp(-self.robin)

    def green(self, z) -> float | np.ndarray:
        return log_potential(self.measure, z) + self.robin


def green_model(em: EmpiricalMeasure, shape: Shape, seed: int = 0) -> GreenModel:
    """Fit the Robin constant from certified near-boundary probes.

    Probes sit just above the walk resolution, at certified distance in
    [2, 10] * stop_tol.  Deeper would confuse atom granularity with the
    potential; shallower would fold a visible chunk of G itself into the
    Robin constant and bias every downstream Green value.
    """
    if em.stop_tol is None:
        raise ValueError("measure lacks stop_tol metadata")
    probes = boundary_probes(
        shape, ROBIN_PROBES, (2.0 * em.stop_tol, 10.0 * em.stop_tol), seed=seed
    )
    return GreenModel(measure=em, robin=robin_constant(em, probes))


# -- comparability of G with dist^delta ------------------------------------------


@dataclass(frozen=True)
class ComparabilityReport:
    """Power-law fit G ~ dist^delta over a stratified depth range.

    c1 and c2 are the extreme observed ratios G / dist^delta_hat, so
    c1 * dist^delta_hat <= G <= c2 * dist^delta_hat over the probe set.
    """

    delta_hat: float
    c1: float
    c2: float
    r_squared: float
    n_points: int
    dropped: int = 0
    dists: tuple[float, ...] = ()
    greens: tuple[float, ...] = ()


def comparability_fit(
    model,
    shape: Shape,
    n_points: int,
    depth_range: tuple[float, float],
    seed: int = 0,
) -> ComparabilityReport:
    """Regress log G on log dist over points stratified per depth decade."""
    lo_d, hi_d = depth_range
    if not 0 < lo_d < hi_d:
        raise ValueError("depth_range must satisfy 0 < lo < hi")
    if math.log10(hi_d / lo_d) < 1.0 - 1e-9:
        raise FitDegeneracyError(
            f"depth range [{lo_d}, {hi_d}] spans under one decade"
        )
    n_dec = max(1, int(round(math.log10(hi_d / lo_d))))
    per = max(8, n_points // n_dec)
    fld = shape.field(lo_d / 16.0)
    pts = []
    for j in range(n_dec):
        b_lo = lo_d * 10.0**j
        b_hi = min(hi_d, b_lo * 10.0)
        pts.append(boundary_probes(shape, per, (b_lo, b_hi), seed=seed + j))
    z = np.concatenate(pts)
    qlo, qhi = fld.query(z)
    dist = 0.5 * (qlo + qhi)
    g = np.atleast_1d(model.green(z))
    good = g > 0
    dropped = int(len(g) - good.sum())
    g, dist = g[good], dist[good]
    if len(g) < 16:
        raise FitDegeneracyError("too few positive Green values to fit")
    x, y = np.log(dist), np.log(g)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    ratios = g / dist**slope
    return ComparabilityReport(
        delta_hat=float(slope),
        c1=float(ratios.min()),
        c2=float(ratios.max()),
        r_squared=r2,
        n_points=int(len(g)),
        dropped=dropped,
        dists=tuple(float(d) for d in dist),
        greens=tuple(float(v) for v in g),
    )


# -- ball mass scaling ------------------------------------------------------------


@dataclass(frozen=True)
class ScalingReport:
    """Per-center fits of log mass(B(z, r)) against log r."""

    exponents: tuple[float, ...]
    radii: tuple[float, ...]
    c_min: float
    c_max: float

    @property
    def exponent_median(self) -> float:
        return float(np.median(self.exponents))


def ball_mass_scaling(
    em: EmpiricalMeasure, centers: np.ndarray, radii: np.ndarray
) -> ScalingReport:
    """Fit the growth exponent of ball masses at each center.

    Raises InsufficientMassError when any queried ball holds fewer than 50
    atoms, which would make its mass estimate unstable.
    """
    centers = np.asarray(centers, dtype=complex)
    radii = np.sort(np.asarray(radii, dtype=float))
    if len(radii) < 3:
        raise ValueError("need at least 3 radii")
    dist = np.abs(centers[:, None] - em.points[None, :])
    masses = np.empty((len(centers), len(radii)))
    for j, r in enumerate(radii):
        inside = dist <= r
        held = inside.sum(axis=1)
        if held.min() < 50:
            raise InsufficientMassError(
                f"a ball of radius {r:.3g} holds only {int(held.min())} atoms"
            )
        masses[:, j] = inside @ em.weights
    logr = np.log(radii)
    slopes = [float(np.polyfit(logr, np.log(m), 1)[0]) for m in masses]
    med = float(np.median(slopes))
    consts = masses / radii[None, :] ** med
    return ScalingReport(
        exponents=tuple(slopes),
        radii=tuple(float(r) for r in radii),
        c_min=float(consts.min()),
        c_max=float(consts.max()),
    )


# -- Holder envelope for ratios of positive harmonic functions --------------------


@dataclass(frozen=True)
class HolderFit:
    """Envelope |log(u/v)(z1) - log(u/v)(z2)| <= c * |z1 - z2|^epsilon."""

    epsilon: float
    c: float
    n_pairs: int
    separations: tuple[float, ...] = ()
    deviations: tuple[float, ...] = ()


def fit_holder_envelope(
    separations: np.ndarray, deviations: np.ndarray
) -> tuple[float, float]:
    """Fit a quantile power-law envelope deviation <= c * separation^eps.

    Pairs are bucketed by log separation, the ENVELOPE_QUANTILE quantile of
    log deviation is taken per bucket, and a least-squares line through the
    bucket quantiles gives the exponent and constant.
    """
    seps = np.asarray(separations, dtype=float)
    devs = np.asarray(deviations, dtype=float)
    if len(seps) != len(devs) or len(seps) < 4:
        raise ValueError("need matching separation/deviation arrays, >= 4 pairs")
    if np.max(devs) == 0.0:
        return 1.0, 0.0
    pos = devs > 0
    lx, ly = np.log(seps[pos]), np.log(devs[pos])
    edges = np.linspace(lx.min(), lx.max() + 1e-12, ENVELOPE_BINS + 1)
    xs, ys = [], []
    for b in range(ENVELOPE_BINS):
        in_bin = (lx >= edges[b]) & (lx < edges[b + 1])
        if in_bin.sum() >= 3:
            xs.append(0.5 * (edges[b] + edges[b + 1]))
            ys.append(float(np.quantile(ly[in_bin], ENVELOPE_QUANTILE)))
    if len(xs) < 3:
        raise FitDegeneracyError("fewer than 3 populated separation buckets")
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(math.exp(intercept))


def _absorbed_fraction(shape, fld, z0, pole, pole_radius, cfg, rng, n):
    """Fraction of walks from z0 hitting the pole disc before J."""
    center = shape.bounding_center
    enclose = 2.0 * max(
        shape.bounding_radius, abs(pole - center) + pole_radius, abs(z0 - center)
    )

    def query(z):
        # the pole disc joins J as a second absorbing set
        lo, hi = fld.query(z)
        dp = np.abs(z - pole) - pole_radius
        return np.minimum(lo, dp), np.minimum(hi, dp)

    z, owner = np.full(n, complex(z0)), np.zeros(n, dtype=np.intp)
    stopped, _ = _walk(query, z, owner, [rng], cfg, center, enclose)
    finished = stopped.size
    if finished < 0.99 * n:
        raise ExcessiveDiscardError("over 1% of pole walks hit the step limit")
    hits = int(np.sum(np.abs(stopped - pole) - pole_radius < fld.query(stopped)[1]))
    return hits / finished, finished


def bhp_holder_fit(
    shape: Shape,
    p: complex,
    q: complex,
    cfg: WalkConfig,
    n_pairs: int = 32,
    walks_per_point: int = 50_000,
) -> HolderFit:
    """Holder fit for log(u/v) near J, with u, v vanishing on J.

    u(z) and v(z) are the probabilities that a walk from z reaches a small
    absorption disc around p (resp. q) before J; both are positive harmonic
    away from the poles and vanish on J.  The absorption radius is a quarter
    of the pole's distance to J, which keeps hit probabilities large
    enough that the 10% relative-error gate is reachable at desk-scale walk
    counts.  VarianceError is raised when any estimate misses that gate.
    """
    cfg = cfg.resolve(shape)
    fld = shape.field(cfg.stop_tol / 4.0)
    R = shape.bounding_radius

    def pole_disc(pole):
        plo, _ = fld.query(np.array([pole]))
        if plo[0] < 10.0 * cfg.stop_tol:
            raise ValueError(f"pole {pole} sits too close to J")
        return plo[0] / 4.0

    prad = {p: pole_disc(p), q: pole_disc(q)}
    rng = rng_stream(cfg.seed, 5)
    anchor_k = shape.atom_depth(DEPTH_BAND[0] * R)
    _, anchors, _ = shape.atoms(anchor_k)
    pairs = []
    guard = 0
    while len(pairs) < n_pairs:
        guard += 1
        if guard > 100 * n_pairs:
            raise FitDegeneracyError("could not place valid point pairs near J")
        z1 = anchors[rng.integers(0, len(anchors))] + np.exp(
            rng.uniform(math.log(DEPTH_BAND[0] * R), math.log(DEPTH_BAND[1] * R))
        ) * np.exp(1j * rng.uniform(0.0, TWO_PI))
        sep = math.exp(
            rng.uniform(math.log(SEP_BAND[0] * R), math.log(SEP_BAND[1] * R))
        )
        z2 = z1 + sep * np.exp(1j * rng.uniform(0.0, TWO_PI))
        both = np.array([z1, z2])
        qlo, qhi = fld.query(both)
        band = (DEPTH_BAND[0] * R, DEPTH_BAND[1] * R * 2.0)
        if (
            qlo.min() >= band[0]
            and qhi.max() <= band[1]
            and shape.in_outer_domain(both).all()
        ):
            pairs.append((complex(z1), complex(z2)))

    cache: dict[tuple[complex, complex], float] = {}

    def estimate(z, pole, stream):
        key = (z, pole)
        if key not in cache:
            u, n_eff = _absorbed_fraction(
                shape, fld, z, pole, prad[pole], cfg,
                rng_stream(cfg.seed, 5, stream), walks_per_point,
            )
            if u <= 0 or math.sqrt(u * (1 - u) / n_eff) > 0.1 * u:
                raise VarianceError(
                    f"hit probability at {z:.4g} for pole {pole:.4g} has over "
                    "10% relative error; raise walks_per_point"
                )
            cache[key] = u
        return cache[key]

    seps, devs = [], []
    for i, (z1, z2) in enumerate(pairs):
        u1 = estimate(z1, p, 4 * i)
        u2 = estimate(z2, p, 4 * i + 1)
        v1 = estimate(z1, q, 4 * i + 2)
        v2 = estimate(z2, q, 4 * i + 3)
        seps.append(abs(z1 - z2))
        devs.append(abs(math.log(u1 / v1) - math.log(u2 / v2)))
    eps, c = fit_holder_envelope(np.array(seps), np.array(devs))
    return HolderFit(
        epsilon=eps,
        c=c,
        n_pairs=n_pairs,
        separations=tuple(seps),
        deviations=tuple(devs),
    )
