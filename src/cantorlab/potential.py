"""Harmonic measure sampling and logarithmic potential theory.

The sampler runs walk-on-spheres in the complement of a compact set J with
the pole at infinity realized as a large launch circle: each walk starts
uniformly on that circle, repeatedly jumps to a uniform point on a circle of
radius shrink * (certified distance lower bound), and stops once the
certified distance upper bound drops below stop_tol.  Stopped walks are
binned into the cylinder piece of radius about stop_tol that contains them,
which makes the result an atomic measure with exact integer provenance:
reductions are integer counts per piece, so results are independent of chunk
scheduling and thread count.

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
    LaunchDomainError,
    SingularityError,
    VarianceError,
)
from .geometry import Repeller
from .shapes import Shape

TWO_PI = 2.0 * np.pi

#: walks are processed in fixed-size chunks so the random stream of each
#: chunk never depends on thread count
CHUNK = 4096

#: fraction of walks allowed to hit the step limit
DISCARD_LIMIT = 0.01


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent deterministic generator for one labeled substream."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


# -- configuration -------------------------------------------------------------


@dataclass(frozen=True)
class WalkConfig:
    """Parameters of one sampling run.

    stop_tol and launch_radius may be left as None and are then resolved
    against the shape: stop_tol = 1e-4 * bounding radius and launch_radius =
    5 * bounding radius.
    """

    samples: int = 10_000
    seed: int = 0
    shrink: float = 0.9
    stop_tol: float | None = None
    max_steps: int = 10_000
    launch_radius: float | None = None
    threads: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink must lie in (0, 1)")
        if self.stop_tol is not None and self.stop_tol <= 0:
            raise ValueError("stop_tol must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.launch_radius is not None and self.launch_radius <= 0:
            raise ValueError("launch_radius must be positive")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")

    def resolve(self, shape: Shape) -> "WalkConfig":
        stop = self.stop_tol if self.stop_tol is not None else 1e-4 * shape.bounding_radius
        launch = (
            self.launch_radius
            if self.launch_radius is not None
            else 5.0 * shape.bounding_radius
        )
        return replace(self, stop_tol=stop, launch_radius=launch)


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
    def total(self) -> float:
        return float(self.weights.sum())

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

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.csv_text())

    @classmethod
    def from_csv(cls, path) -> "EmpiricalMeasure":
        with open(path) as fh:
            lines = fh.read().splitlines()
        if not lines or not lines[0].startswith("#"):
            raise ValueError(f"{path}: missing measure header")
        meta = dict(tok.split("=", 1) for tok in lines[0][1:].split())
        rows = [ln.split(",") for ln in lines[2:] if ln]
        codes = [tuple(int(c) for c in r[0]) for r in rows]
        depth = max((len(c) for c in codes), default=0)
        if any(len(c) != depth for c in codes):
            raise ValueError(f"{path}: ragged atom codes")
        code_arr = np.array(codes, dtype=np.uint8).reshape(len(rows), depth)
        pts = np.array([complex(float(r[1]), float(r[2])) for r in rows])
        w = np.array([float(r[3]) for r in rows])
        seed = meta.get("seed")
        samples = meta.get("samples")
        stop = meta.get("stop_tol")
        return cls(
            codes=code_arr,
            points=pts,
            weights=w,
            shape_name=meta.get("shape", "custom"),
            seed=None if seed in (None, "none") else int(seed),
            stop_tol=None if stop in (None, "none") else float(stop),
            samples=None if samples in (None, "none") else int(samples),
        )


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


def _walk_chunk(shape, fld, cfg: WalkConfig, chunk_index: int, n: int):
    rng = rng_stream(cfg.seed, 0, chunk_index)
    center = shape.bounding_center
    theta = rng.uniform(0.0, TWO_PI, n)
    z = center + cfg.launch_radius * np.exp(1j * theta)
    counts = np.zeros(fld.leaf_count, dtype=np.int64)
    for _ in range(cfg.max_steps):
        lo, hi, leaf = fld.query(z)
        done = hi < cfg.stop_tol
        if done.any():
            counts += np.bincount(leaf[done], minlength=fld.leaf_count)
            keep = ~done
            z = z[keep]
            lo = lo[keep]
        if z.size == 0:
            break
        ang = rng.uniform(0.0, TWO_PI, z.size)
        z = z + cfg.shrink * lo * np.exp(1j * ang)
        z = _reenter(z, center, cfg.launch_radius, rng)
    return counts, z.size


def sample_harmonic_measure(shape: Shape, cfg: WalkConfig) -> EmpiricalMeasure:
    """Sample harmonic measure of the complement of J seen from far away.

    Returns an EmpiricalMeasure whose atoms sit at the centers of the pieces
    of radius about stop_tol, weighted by stopped-walk counts.  Raises
    LaunchDomainError when the launch circle does not enclose the root disc
    and ExcessiveDiscardError when over 1% of walks exhaust max_steps.
    """
    cfg = cfg.resolve(shape)
    if cfg.launch_radius <= shape.bounding_radius:
        raise LaunchDomainError(
            f"launch radius {cfg.launch_radius} does not clear the root disc "
            f"(radius {shape.bounding_radius})"
        )
    fld = shape.field(cfg.stop_tol / 4.0)
    sizes = [CHUNK] * (cfg.samples // CHUNK)
    if cfg.samples % CHUNK:
        sizes.append(cfg.samples % CHUNK)
    jobs = list(enumerate(sizes))
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(
                pool.map(lambda job: _walk_chunk(shape, fld, cfg, *job), jobs)
            )
    else:
        results = [_walk_chunk(shape, fld, cfg, ci, n) for ci, n in jobs]
    counts = np.zeros(fld.leaf_count, dtype=np.int64)
    discarded = 0
    for c, d in results:
        counts += c
        discarded += d
    if discarded > DISCARD_LIMIT * cfg.samples:
        raise ExcessiveDiscardError(
            f"{discarded} of {cfg.samples} walks hit the step limit "
            f"{cfg.max_steps} (allowed {DISCARD_LIMIT:.0%})"
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


def log_potential(em: EmpiricalMeasure, z) -> float | np.ndarray:
    """Integral of log|z - w| against the measure, atom by atom."""
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty(len(zs))
    block = max(1, int(2e6) // max(em.atom_count, 1))
    for start in range(0, len(zs), block):
        diff = np.abs(zs[start : start + block, None] - em.points[None, :])
        if diff.min() < 1e-14:
            raise SingularityError("evaluation point coincides with an atom")
        out[start : start + block] = np.log(diff) @ em.weights
    return float(out[0]) if np.isscalar(z) or np.ndim(z) == 0 else out


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
        qlo, qhi, _ = fld.query(z)
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


def robin_constant(
    em: EmpiricalMeasure,
    shape: Shape,
    probes: np.ndarray,
    trim: float = 0.1,
    dispersion_tol: float = 0.5,
) -> float:
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
    if spread > dispersion_tol:
        raise DispersionError(
            f"probe potential spread {spread:.3g} exceeds {dispersion_tol}"
        )
    t = int(len(vals) * trim)
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


def green_model(
    em: EmpiricalMeasure, shape: Shape, n_probes: int = 256, seed: int = 0
) -> GreenModel:
    """Fit the Robin constant from certified near-boundary probes.

    Probes sit just above the walk resolution, at certified distance in
    [2, 10] * stop_tol.  Deeper would confuse atom granularity with the
    potential; shallower would fold a visible chunk of G itself into the
    Robin constant and bias every downstream Green value.
    """
    if em.stop_tol is None:
        raise ValueError("measure lacks stop_tol metadata")
    probes = boundary_probes(
        shape, n_probes, (2.0 * em.stop_tol, 10.0 * em.stop_tol), seed=seed
    )
    return GreenModel(measure=em, robin=robin_constant(em, shape, probes))


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
    qlo, qhi, _ = fld.query(z)
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
    quantile: float
    separations: tuple[float, ...] = ()
    deviations: tuple[float, ...] = ()


def fit_holder_envelope(
    separations: np.ndarray,
    deviations: np.ndarray,
    quantile: float = 0.9,
    bins: int = 6,
) -> tuple[float, float]:
    """Fit a quantile power-law envelope deviation <= c * separation^eps.

    Pairs are bucketed by log separation, the requested quantile of log
    deviation is taken per bucket, and a least-squares line through the
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
    edges = np.linspace(lx.min(), lx.max() + 1e-12, bins + 1)
    xs, ys = [], []
    for b in range(bins):
        in_bin = (lx >= edges[b]) & (lx < edges[b + 1])
        if in_bin.sum() >= 3:
            xs.append(0.5 * (edges[b] + edges[b + 1]))
            ys.append(float(np.quantile(ly[in_bin], quantile)))
    if len(xs) < 3:
        raise FitDegeneracyError("fewer than 3 populated separation buckets")
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(math.exp(intercept))


def _absorbed_fraction(shape, fld, z0, pole, pole_radius, cfg, rng, n):
    """Fraction of walks from z0 hitting the pole disc before J."""
    z = np.full(n, complex(z0))
    center = shape.bounding_center
    enclose = 2.0 * max(
        shape.bounding_radius, abs(pole - center) + pole_radius, abs(z0 - center)
    )
    hits = 0
    finished = 0
    for _ in range(cfg.max_steps):
        lo, hi, _ = fld.query(z)
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


def bhp_holder_fit(
    shape: Shape,
    p: complex,
    q: complex,
    cfg: WalkConfig,
    n_pairs: int = 32,
    pole_radius: float | None = None,
    walks_per_point: int = 50_000,
    depth_band: tuple[float, float] = (0.05, 0.25),
    sep_band: tuple[float, float] = (0.05, 0.5),
    quantile: float = 0.9,
) -> HolderFit:
    """Holder fit for log(u/v) near J, with u, v vanishing on J.

    u(z) and v(z) are the probabilities that a walk from z reaches a small
    absorption disc around p (resp. q) before J; both are positive harmonic
    away from the poles and vanish on J.  The default absorption radius is a
    quarter of the pole's distance to J, which keeps hit probabilities large
    enough that the 10% relative-error gate is reachable at desk-scale walk
    counts.  VarianceError is raised when any estimate misses that gate.
    """
    cfg = cfg.resolve(shape)
    fld = shape.field(cfg.stop_tol / 4.0)
    R = shape.bounding_radius

    def pole_disc(pole):
        plo, _, _ = fld.query(np.array([pole]))
        if plo[0] < 10.0 * cfg.stop_tol:
            raise ValueError(f"pole {pole} sits too close to J")
        return pole_radius if pole_radius is not None else plo[0] / 4.0

    prad = {p: pole_disc(p), q: pole_disc(q)}
    rng = rng_stream(cfg.seed, 5)
    anchor_k = shape.atom_depth(depth_band[0] * R)
    _, anchors, _ = shape.atoms(anchor_k)
    pairs = []
    guard = 0
    while len(pairs) < n_pairs:
        guard += 1
        if guard > 100 * n_pairs:
            raise FitDegeneracyError("could not place valid point pairs near J")
        z1 = anchors[rng.integers(0, len(anchors))] + np.exp(
            rng.uniform(math.log(depth_band[0] * R), math.log(depth_band[1] * R))
        ) * np.exp(1j * rng.uniform(0.0, TWO_PI))
        sep = math.exp(
            rng.uniform(math.log(sep_band[0] * R), math.log(sep_band[1] * R))
        )
        z2 = z1 + sep * np.exp(1j * rng.uniform(0.0, TWO_PI))
        both = np.array([z1, z2])
        qlo, qhi, _ = fld.query(both)
        band = (depth_band[0] * R, depth_band[1] * R * 2.0)
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
    eps, c = fit_holder_envelope(
        np.array(seps), np.array(devs), quantile=quantile
    )
    return HolderFit(
        epsilon=eps,
        c=c,
        n_pairs=n_pairs,
        quantile=quantile,
        separations=tuple(seps),
        deviations=tuple(devs),
    )
