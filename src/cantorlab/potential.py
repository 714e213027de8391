"""Harmonic measure sampling and logarithmic potential theory.

Every walk-on-spheres estimate goes through one loop, _walk: each live walk
repeatedly jumps to a uniform point on the circle of radius its certified
distance lower bound, which is at least stop_tol / 2, and stops once the
certified upper bound drops below stop_tol.  A walk that leaves its
enclosing circle re-enters it by the exact exterior Poisson kernel, so that
circle sets the cost, not the law.

The sampler realizes the pole at infinity as a launch circle of
LAUNCH_FACTOR times the root radius: walks start uniformly on it, and the
stopped walks are binned into the cylinder piece of radius about stop_tol
that contains them, which makes the result an atomic measure with exact
integer provenance: reductions are integer counts per piece, so results are
independent of chunk scheduling and thread count.  Each chunk of CHUNK walks
draws from its own random stream.  The chunks are cut into contiguous
shares of at least BATCH chunks (_shares: at most one share per thread); the
calling thread walks the first share and one helper thread walks each other
share.  A share is walked in one array of at most BATCH chunks' worth of
walks, launching the next chunk at its end whenever stopped walks leave
room; a chunk holds a contiguous slice, its stream draws for its own walks
in walk order and its step limit counts from its launch, so it sees the
draws it would see alone.  A direction is one
random() draw u per walk, turned into e^(2 pi i u) by a table of ROOTS roots
of unity and a two-term series for the remaining angle (_turn), without a
complex exp.

From the sampled measure the module builds logarithmic potentials, a Robin
constant (hence capacity), a Green's function model, and regression-based
diagnostics: the dist^delta comparability fit and ball mass scaling.  One
equilibrium solve gives harmonic measure from infinity and from poles with no
walks, and bhp's Holder envelope of the ratio of two poles' Green functions.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DispersionError,
    ExcessiveDiscardError,
    FitDegeneracyError,
    InsufficientMassError,
    ResourceLimitError,
    SingularityError,
)
from .geometry import Repeller, similarity_dimension
from .shapes import Shape, code_rows, piece_count

TWO_PI = 2.0 * np.pi

#: walks are processed in fixed-size chunks, each with its own random
#: stream, so no draw depends on batching or thread count
CHUNK = 4096

#: each thread keeps up to this many chunks of walks live in one refilled
#: array, so each step's numpy calls cover enough walks to amortize their cost
BATCH = 8

#: pairs per block of every pair sum (1 MB complex): point-atom pairs of the
#: log potential, the Cauchy transform and its truncations and the ball
#: masses, and atom pairs of the Menger energy
ATOM_BLOCK = 1 << 16

#: fraction of walks allowed to hit the step limit
DISCARD_LIMIT = 0.01

#: step limit of every walk from its chunk's launch
MAX_STEPS = 10_000

#: walk directions are roots of unity from a table of this many, each turned
#: by at most pi / ROOTS through a two-term series (see _turn)
ROOTS = 1024

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

#: equilibrium_measure refuses more than SOLVE_CAP pieces (4,096 unknowns take
#: about 5 s); bhp solves on the deepest generation of at most BHP_PIECES (0.2 s)
SOLVE_CAP = 4096
BHP_PIECES = 1024


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
    threads is a maximum: a run takes one per BATCH * CHUNK walks, the
    calling thread walking the first share and one helper thread each other.
    """

    samples: int = 10_000
    seed: int = 0
    stop_tol: float | None = None
    threads: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.stop_tol is not None and not (0 < self.stop_tol < math.inf):
            raise ValueError("stop_tol must be positive and finite")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

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
        rows = code_rows(self.codes, self.points, self.weights)
        meta = (
            f"# shape={self.shape_name} seed={_fmt_meta(self.seed)} "
            f"stop_tol={_fmt_meta(self.stop_tol)} samples={_fmt_meta(self.samples)}"
        )
        return "\n".join([meta, "code,x,y,weight", *rows]) + "\n"


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
    cs = rep.atoms(k)
    delta = similarity_dimension(rep)
    w = (cs.radii / rep.root_radius) ** delta
    return EmpiricalMeasure(
        codes=cs.codes,
        points=cs.centers,
        weights=w / w.sum(),
        shape_name=rep.name,
        stop_tol=float(cs.radii.max()),
    )


# -- walk-on-spheres sampling ---------------------------------------------------


def _half_step_roots(n: int) -> np.ndarray:
    """e^(2 pi i (k + 1/2) / n) for k < n, each part rounded once from long double."""
    theta = (np.arange(n, dtype=np.longdouble) + 0.5) * (8 * np.arctan(np.longdouble(1)) / n)
    roots = np.empty(n, dtype=complex)
    roots.real = np.cos(theta)
    roots.imag = np.sin(theta)
    return roots


_ROOT_TABLE = _half_step_roots(ROOTS)


def _turn(u: np.ndarray) -> np.ndarray:
    """e^(2 pi i u) for each u in [0, 1), to within 1e-15; overwrites u.

    With k = floor(ROOTS * u), the direction is the table root
    e^(2 pi i (k + 1/2) / ROOTS) turned by phi = 2 pi (ROOTS * u - k - 1/2)
    / ROOTS, |phi| <= pi / ROOTS, whose cosine and sine are two-term series
    (truncation error below 2e-18).  ROOTS * u and ROOTS * u - k - 1/2 are
    exact, so phi carries one rounding.  Passed as a temporary, u is freed
    before the root gather, so at most 40 bytes per walk are live at once.
    """
    u *= ROOTS
    k = u.astype(np.intp)
    u -= k
    u -= 0.5
    u *= TWO_PI / ROOTS
    p2 = u * u
    d = np.empty(u.size, dtype=complex)
    c, s = d.real, d.imag
    np.multiply(p2, 1.0 / 24.0, out=c)
    c -= 0.5
    c *= p2
    c += 1.0
    np.multiply(p2, 1.0 / 120.0, out=s)
    s -= 1.0 / 6.0
    s *= p2
    s += 1.0
    s *= u
    del p2, u
    d *= _ROOT_TABLE[k]
    return d


def _draws(rngs, bounds) -> np.ndarray:
    """Uniform draws in [0, 1), walks bounds[i]:bounds[i + 1] from rngs[i].

    Each stream fills its own slice of one buffer with random() draws, for
    its own walks in walk order; a stream with an empty slice draws nothing.
    These are the draws, and the stream use, of uniform(0, 2 pi) angles;
    _turn maps them to directions.
    """
    u = np.empty(bounds[-1])
    for rng, a, b in zip(rngs, bounds, bounds[1:]):
        if b > a:
            rng.random(out=u[a:b])
    return u


def _reenter(z, bounds, rngs, center: complex, radius: float) -> None:
    """Move walks outside |z - center| = radius onto that circle, in place.

    A plane Brownian path from outside re-enters the circle almost surely,
    and its first hit follows the harmonic measure of the circle seen from
    the inverted point; sampling that law exactly (a Moebius image of a
    uniform direction) caps outward excursions without biasing the walk.
    """
    w = z - center
    w /= radius
    far = np.flatnonzero(np.abs(w) > 1.0)
    if far.size:
        a = 1.0 / np.conj(w[far])
        u = _turn(_draws(rngs, far.searchsorted(bounds).tolist()))
        z[far] = center + radius * ((u + a) / (1.0 + np.conj(a) * u))


def _walk(query, jobs, start, absorb, stop_tol: float, center: complex, radius: float):
    """Run walk-on-spheres for the chunks jobs = [(rng, n), ...] in one array kept full.

    A chunk's n walks launch at start(rng, n), at the end of the array, once
    it is empty or they fit in BATCH * CHUNK; live chunk i holds the slice
    bounds[i]:bounds[i + 1].  query(z) returns certified lower and upper bounds
    on the distance to the absorbing set, at most stop_tol / 2 apart; a walk
    stops where the upper bound drops below stop_tol and otherwise jumps the
    whole lower bound, so at least stop_tol / 2, in a direction _turn maps
    from one random() draw of its chunk's rng, which draws for its chunk's
    walks in walk order, and re-enters the circle |z - center| = radius when
    it leaves it.  Walks still live MAX_STEPS steps after their chunk
    launched are discarded.  Stopped positions go to absorb in blocks of
    about one array.  Returns the sum of what absorb returned and the number
    of walks discarded.
    """
    z = np.empty(0, dtype=complex)
    bounds, chunks = [0], []  # chunks[i] = (rng, launch step), walks bounds[i]:bounds[i + 1]
    stopped, held, tally, discarded, todo = [z], 0, 0, 0, 0
    for t in itertools.count():
        old = sum(s + MAX_STEPS <= t for _, s in chunks)  # the oldest come first
        discarded += bounds[old]
        z, chunks = z[bounds[old] :], chunks[old:]
        bounds = [b - bounds[old] for b in bounds[old:]]
        while todo < len(jobs) and (z.size == 0 or z.size + jobs[todo][1] <= BATCH * CHUNK):
            rng, n = jobs[todo]
            z = np.concatenate([z, start(rng, n)])
            chunks.append((rng, t))
            bounds.append(z.size)
            todo += 1
        if held >= BATCH * CHUNK or z.size == 0:
            tally += absorb(np.concatenate(stopped))
            stopped, held = [z[:0]], 0
        if z.size == 0:
            return tally, discarded
        lo, hi = query(z)
        done = hi < stop_tol
        live = np.flatnonzero(~done)
        if live.size < z.size:
            stopped.append(z[done])
            held += stopped[-1].size
            z, lo = z[live], lo[live]
            ends = live.searchsorted(bounds).tolist()
            chunks = [c for c, a, b in zip(chunks, ends, ends[1:]) if b > a]
            bounds = [0] + [b for a, b in zip(ends, ends[1:]) if b > a]
        del hi, done, live  # freed before the step allocates its temporaries
        if z.size:
            rngs = [rng for rng, _ in chunks]
            step = _turn(_draws(rngs, bounds))
            step *= lo
            z += step
            del lo, step
            _reenter(z, bounds, rngs, center, radius)


def _walk_chunks(shape, fld, cfg: WalkConfig, jobs, stream: int = 0):
    """Walk the chunks jobs = [(chunk_index, n), ...] in one refilled array.

    Chunk c launches n walks on the launch circle and draws from the
    substream (seed, stream, c).  Returns the atom counts of all their
    stopped walks and the number of walks discarded at the step limit.  The
    atoms, generation atom_depth(stop_tol), are contiguous runs of group
    field leaves, so a stopped walk's atom is its leaf // group.
    """
    center = shape.bounding_center
    launch = LAUNCH_FACTOR * shape.bounding_radius
    n_atoms = shape.fan ** shape.atom_depth(cfg.stop_tol)
    group = fld.leaf_count // n_atoms

    def start(rng, n):
        return center + launch * _turn(rng.random(n))

    def absorb(stopped):
        atom = fld.leaf(stopped)
        atom //= group
        return np.bincount(atom, minlength=n_atoms)

    jobs = [(rng_stream(cfg.seed, stream, c), n) for c, n in jobs]
    return _walk(fld.query, jobs, start, absorb, cfg.stop_tol, center, launch)


def _shares(jobs, threads: int):
    """At most threads contiguous, near-equal shares of jobs, each of at least
    BATCH chunks unless it is the only one, so each fills a walk array."""
    k = min(threads, max(1, len(jobs) // BATCH))
    return [jobs[len(jobs) * b // k : len(jobs) * (b + 1) // k] for b in range(k)]


def sample_harmonic_measure(shape: Shape, cfg: WalkConfig, stream: int = 0) -> EmpiricalMeasure:
    """Sample harmonic measure of the complement of J seen from far away.

    Returns an EmpiricalMeasure whose atoms sit at the centers of the pieces
    of radius about stop_tol, weighted by stopped-walk counts, which each
    share tallies per atom: no array spans the leaves of the stop_tol / 4
    field the walks run on.  Raises ResourceLimitError (piece_count) when the
    atoms are too many, before the field, any helper thread or any walk, and
    ExcessiveDiscardError when over 1% of walks exhaust MAX_STEPS.  Chunk c
    walks on the substream (seed, stream, c); two runs at one seed are
    independent when their stream keys differ, and otherwise the smaller
    run's walks are the first walks of the larger.  A share that raises
    fails the run once every helper thread has ended, with the error of the
    first failing share.
    """
    cfg = cfg.resolve(shape)
    depth = shape.atom_depth(cfg.stop_tol)
    piece_count(shape.fan, depth)
    fld = shape.field(cfg.stop_tol / 4.0)
    sizes = [CHUNK] * (cfg.samples // CHUNK)
    if cfg.samples % CHUNK:
        sizes.append(cfg.samples % CHUNK)
    shares = _shares(list(enumerate(sizes)), cfg.threads)
    walked = [None] * len(shares)

    def walk(b):
        try:
            walked[b] = _walk_chunks(shape, fld, cfg, shares[b], stream)
        except BaseException as exc:
            walked[b] = exc

    # share 0 reuses the calling thread's warm heap instead of idling on a join
    helpers = [threading.Thread(target=walk, args=(b,)) for b in range(1, len(shares))]
    for t in helpers:
        t.start()
    walk(0)
    for t in helpers:
        t.join()
    atom_counts, discarded = 0, 0
    for out in walked:
        if isinstance(out, BaseException):
            raise out
        atom_counts += out[0]
        discarded += out[1]
    if discarded > DISCARD_LIMIT * cfg.samples:
        raise ExcessiveDiscardError(
            f"{discarded} of {cfg.samples} walks hit the step limit "
            f"{MAX_STEPS} (allowed {DISCARD_LIMIT:.0%})"
        )
    atoms = shape.atoms(depth)
    occupied = atom_counts > 0
    weights = atom_counts[occupied].astype(float)
    return EmpiricalMeasure(
        codes=atoms.codes[occupied],
        points=atoms.centers[occupied],
        weights=weights / weights.sum(),
        shape_name=shape.name,
        seed=cfg.seed,
        stop_tol=cfg.stop_tol,
        samples=cfg.samples,
        discarded=discarded,
    )


# -- logarithmic potential and the Green model ----------------------------------


def _pair_blocks(em: EmpiricalMeasure, zs: np.ndarray):
    """(rows, zs[rows, None] - atoms) for consecutive cache-sized row slices
    of at most ATOM_BLOCK point-atom pairs (or one point), which bound every
    point-atom pair sum.  No block is held here: one the caller frees before
    asking for the next is gone when the next is built."""
    block = max(1, ATOM_BLOCK // em.atom_count)
    for start in range(0, len(zs), block):
        rows = slice(start, start + block)
        yield rows, zs[rows, None] - em.points[None, :]


def _atom_sum(em: EmpiricalMeasure, z, kernel, dtype):
    """Sum of w * kernel(z - atom, |z - atom|) over the atoms, at each z.

    Points are taken in _pair_blocks; a point's sum has the same bits in any
    block.  A point within 1e-14 of an atom raises SingularityError.  The
    kernel may overwrite its arguments, so a block holds at most one complex
    and one real array.  A scalar z gives a scalar of type dtype, an array z
    an array of that dtype.
    """
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty(len(zs), dtype=dtype)
    for rows, diff in _pair_blocks(em, zs):
        dist = np.abs(diff)
        if dist.min() < 1e-14:
            raise SingularityError("evaluation point coincides with an atom")
        # einsum, not a BLAS gemv: that wakes a second OpenBLAS thread for no gain
        out[rows] = np.einsum("ij,j->i", kernel(diff, dist), em.weights)
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
    anchors = shape.atoms(anchor_k).centers
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


def quantile(values, q: float | None = None) -> float:
    """np.quantile(values, q) by numpy's default linear rule, or np.median
    (values) when q is None, to the same bits.

    Sorts a copy: at x = (n - 1) q between sorted neighbours a and b, the
    value is a + (b - a) t, or b - (b - a)(1 - t) when t = x - floor(x) is at
    least 0.5, and the last value once x >= n - 1; a median is the middle
    value or (a + b) / 2.  values must hold no NaN, and at least one value
    (ValueError).  numpy's own first call imports numpy.ma (np.unique calls
    np.ma.is_masked), which costs tens of milliseconds of CPU and over a megabyte.
    """
    v = np.sort(np.asarray(values, dtype=float).ravel())
    n = len(v)
    if n == 0:
        raise ValueError("quantile of no values")
    if q is None:
        return float(v[n // 2] if n % 2 else (v[n // 2 - 1] + v[n // 2]) / 2)
    x = (n - 1) * q
    if x >= n - 1:
        return float(v[-1])
    i = math.floor(x)
    a, b, t = v[i], v[i + 1], x - i
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


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
    spread = quantile(vals, 0.9) - quantile(vals, 0.1)
    if spread > DISPERSION_LIMIT:
        raise DispersionError(
            f"probe potential spread {spread:.3g} exceeds {DISPERSION_LIMIT}"
        )
    t = int(len(vals) * ROBIN_TRIM)
    core = vals[t : len(vals) - t] if t > 0 else vals
    return -float(core.mean())


@dataclass(frozen=True)
class GreenModel:
    """Green's function G(., pole): log-potential + robin with the pole at
    infinity (pole None), log-potential - log|z - pole| + robin for a finite
    pole, where measure is the pole's harmonic measure and robin is g(pole)."""

    measure: EmpiricalMeasure
    robin: float
    pole: complex | None = None

    @property
    def capacity(self) -> float:
        return math.exp(-self.robin)

    def green(self, z) -> float | np.ndarray:
        if self.pole is None:
            return log_potential(self.measure, z) + self.robin
        return log_potential(self.measure, z) - np.log(np.abs(z - self.pole)) + self.robin


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


def equilibrium_measure(shape: Shape, depth: int, poles=()) -> list[GreenModel]:
    """Harmonic measure from infinity and from each pole, by one dense solve.

    Piece i of generation depth carries a charge w_i spread as its own
    equilibrium measure: potential log|c_i - c_j| on piece j, log t_i + V on
    itself (t_i from capacity_ratios, V = log cap J).  One factorisation of
    [[A, 1], [1^T, 0]] [w; g] = [rhs; 1] takes rhs = 0, giving the
    equilibrium measure and g = -V, and rhs_i = log|c_i - p| per pole p,
    giving omega^p and g(p) with G(z, p) = U^omega^p(z) - log|z - p| + g(p).
    V is iterated to V = -g, which contracts by sum w_i^2 (a Newton step on
    V alone meets a singular A near cap J = 1).  Returns the GreenModels of
    infinity (robin = -V) and then of each pole in turn (robin = g(p)).
    Refuses depth < 1, over SOLVE_CAP pieces (ResourceLimitError) and
    capacity 0 before any work, and a pole in a piece disc or off the outer
    domain before any matrix.
    """
    if depth < 1:
        raise ValueError("the solve needs generation >= 1")
    if shape.fan**depth > SOLVE_CAP:
        raise ResourceLimitError(f"generation {depth} has {shape.fan**depth} pieces, "
                                 f"solve cap {SOLVE_CAP}")
    if shape.diameter == 0:
        raise ValueError(f"{shape.name} has capacity 0, so no Green function")
    atoms = shape.atoms(depth)
    c, n = atoms.centers, len(atoms)
    rhs = np.zeros((n + 1, 1 + len(poles)))
    rhs[n] = 1.0
    for k, p in enumerate(poles, start=1):
        if not shape.in_outer_domain(p) or np.any(np.abs(c - p) <= atoms.radii):
            raise ValueError(f"pole {p} is not outside the generation-{depth} piece discs")
        rhs[:n, k] = np.log(np.abs(c - p))
    a = np.ones((n + 1, n + 1))
    a[n, n] = 0.0
    pair = a[:n, :n]
    np.abs(c[:, None] - c[None, :], out=pair)
    np.fill_diagonal(pair, 1.0)  # the self-terms are set in the loop below
    np.log(pair, out=pair)
    log_t = np.log(shape.capacity_ratios(atoms.radii))
    v = 0.0
    for _ in range(100):
        a[np.arange(n), np.arange(n)] = log_t + v
        x = np.linalg.solve(a, rhs)
        v, last = float(-x[n, 0]), v
        if abs(v - last) <= 1e-13:
            break
    else:
        raise ValueError(f"log capacity of {shape.name} did not settle in 100 solves")
    return [GreenModel(EmpiricalMeasure(atoms.codes, c, x[:n, k], shape.name,
                                        stop_tol=float(atoms.radii.max())), float(x[n, k]), pole)
            for k, pole in enumerate([None, *poles])]


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
    """Per-center fits of log mass(B(z, r)) against log r, and their median."""

    exponents: tuple[float, ...]
    exponent_median: float
    radii: tuple[float, ...]
    c_min: float
    c_max: float


def ball_mass_scaling(
    em: EmpiricalMeasure, centers: np.ndarray, radii: np.ndarray
) -> ScalingReport:
    """Fit the growth exponent of ball masses at each center.

    Centers are taken in _pair_blocks.  Raises InsufficientMassError when any
    queried ball holds fewer than 50 atoms, which would make its mass
    estimate unstable; radii ascend, so a smallest ball holds the fewest.
    """
    centers = np.asarray(centers, dtype=complex)
    radii = np.sort(np.asarray(radii, dtype=float))
    if len(radii) < 3:
        raise ValueError("need at least 3 radii")
    held = np.empty(len(centers), dtype=np.intp)
    masses = np.empty((len(centers), len(radii)))
    for rows, diff in _pair_blocks(em, centers):
        dist = np.abs(diff)
        del diff
        held[rows] = np.count_nonzero(dist <= radii[0], axis=1)
        for j, r in enumerate(radii):
            masses[rows, j] = (dist <= r) @ em.weights
        del dist  # free this block before the next one is built
    if held.min() < 50:
        raise InsufficientMassError(
            f"a ball of radius {radii[0]:.3g} holds only {int(held.min())} atoms"
        )
    logr = np.log(radii)
    slopes = [float(np.polyfit(logr, np.log(m), 1)[0]) for m in masses]
    med = quantile(slopes)
    consts = masses / radii[None, :] ** med
    return ScalingReport(
        exponents=tuple(slopes),
        exponent_median=med,
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
            ys.append(quantile(ly[in_bin], ENVELOPE_QUANTILE))
    if len(xs) < 3:
        raise FitDegeneracyError("fewer than 3 populated separation buckets")
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(math.exp(intercept))


def bhp_holder_fit(
    shape: Shape, p: complex, q: complex, n_pairs: int = 64, seed: int = 0
) -> HolderFit:
    """Holder fit for log(u/v) near J, with u = G(., p) and v = G(., q), the
    Green functions of one equilibrium solve on the deepest generation of at
    most BHP_PIECES pieces.  Pair points sit at certified distance DEPTH_BAND
    * R from J (R the bounding radius), SEP_BAND * R apart, drawn from the
    (seed, 5) stream.  At fan 1 the solve refuses capacity 0 before any work."""
    depth = 1
    while 1 < shape.fan ** (depth + 1) <= BHP_PIECES:
        depth += 1
    _, green_p, green_q = equilibrium_measure(shape, depth, (p, q))
    R = shape.bounding_radius
    depth_lo, depth_hi = (math.log(b * R) for b in DEPTH_BAND)
    sep_lo, sep_hi = (math.log(b * R) for b in SEP_BAND)
    band = (DEPTH_BAND[0] * R, DEPTH_BAND[1] * R * 2.0)
    fld = shape.field(band[0] / 16.0)
    anchors = shape.atoms(shape.atom_depth(band[0])).centers
    rng = rng_stream(seed, 5)
    pairs = []
    for _ in range(100 * n_pairs):
        z1 = anchors[rng.integers(0, len(anchors))] + np.exp(
            rng.uniform(depth_lo, depth_hi)) * np.exp(1j * rng.uniform(0.0, TWO_PI))
        z2 = z1 + math.exp(rng.uniform(sep_lo, sep_hi)) * np.exp(1j * rng.uniform(0.0, TWO_PI))
        both = np.array([z1, z2])
        lo, hi = fld.query(both)
        if lo.min() >= band[0] and hi.max() <= band[1] and shape.in_outer_domain(both).all():
            pairs.append((complex(z1), complex(z2)))
            if len(pairs) == n_pairs:
                break
    else:
        raise FitDegeneracyError("could not place valid point pairs near J")

    z = np.array(pairs).ravel()  # z1, z2 of each pair in turn
    u = green_p.green(z)
    v = u if q == p else green_q.green(z)  # one pole twice is one function: v is u, bit for bit
    h = np.log(u / v)
    seps = [abs(z1 - z2) for z1, z2 in pairs]
    devs = np.abs(h[0::2] - h[1::2])
    eps, c = fit_holder_envelope(np.array(seps), devs)
    return HolderFit(epsilon=eps, c=c, n_pairs=n_pairs, separations=tuple(seps),
                     deviations=tuple(float(d) for d in devs))
