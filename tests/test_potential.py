"""Walk-on-spheres sampling, the equilibrium solve, potentials, Robin constants,
regression fits."""

import itertools
import math
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cantorlab import (
    Circle,
    DispersionError,
    EmpiricalMeasure,
    ExcessiveDiscardError,
    FitDegeneracyError,
    InsufficientMassError,
    Repeller,
    ResourceLimitError,
    Segment,
    SingularityError,
    SinglePoint,
    WalkConfig,
    ball_mass_scaling,
    boundary_ladder,
    boundary_probes,
    cauchy_transform,
    comparability_fit,
    equilibrium_measure,
    green_model,
    log_potential,
    natural_measure,
    parse_repeller_spec,
    preset,
    robin_constant,
    sample_harmonic_measure,
)
from cantorlab import potential
from cantorlab.potential import quantile, rng_stream
from cantorlab.shapes import PIECE_CAP

import _oracles
from _oracles import arcsine_cdf, measure_from_csv, weighted_ks_distance


def uniform_circle_measure(depth: int, radius: float = 1.0) -> EmpiricalMeasure:
    shape = Circle(radius=radius)
    atoms = shape.atoms(depth)
    n = len(atoms)
    return EmpiricalMeasure(
        codes=atoms.codes,
        points=atoms.centers,
        weights=np.full(n, 1.0 / n),
        shape_name="circle",
        stop_tol=shape.piece_radius(depth),
    )


# -- configuration -------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"samples": 0},
        {"stop_tol": -1.0},
        {"stop_tol": 0.0},
        {"threads": 0},
        {"seed": -1},
        {"stop_tol": math.nan},
        {"stop_tol": math.inf},
    ],
)
def test_walk_config_validation(kwargs):
    with pytest.raises(ValueError):
        WalkConfig(**kwargs)


def test_walk_config_resolve_defaults():
    cfg = WalkConfig().resolve(Circle(radius=2.0))
    assert cfg.stop_tol == pytest.approx(2e-4)
    explicit = WalkConfig(stop_tol=0.01).resolve(Circle(radius=2.0))
    assert explicit.stop_tol == 0.01


def test_rng_stream_is_keyed():
    a = rng_stream(3, 0, 1).uniform(size=4)
    b = rng_stream(3, 0, 1).uniform(size=4)
    c = rng_stream(3, 0, 2).uniform(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# -- sampling ---------------------------------------------------------------------


def test_turn_matches_the_complex_exp():
    """Directions within 1e-15 of e^(2 pi i u), of unit length, same stream use."""
    u = np.concatenate([
        rng_stream(13, 0).random(10**6),
        [0.0, 0.5, 1.0 - 2.0**-53],
        [k / potential.ROOTS + s * math.ulp(k / potential.ROOTS)
         for k in range(1, potential.ROOTS) for s in (-1, 0, 1)],
    ])
    d = potential._turn(u.copy())
    pi_l = 4 * np.arctan(np.longdouble(1))
    ref = np.cos(2 * pi_l * u.astype(np.longdouble)), np.sin(2 * pi_l * u.astype(np.longdouble))
    err = np.hypot((d.real - ref[0]).astype(float), (d.imag - ref[1]).astype(float))
    assert err.max() <= 1e-15
    norm = np.hypot(d.real.astype(np.longdouble), d.imag.astype(np.longdouble))
    assert float(np.abs(norm - 1).max()) <= 5e-16

    # drawn as the walk draws: the stream moves as far as uniform angles move it
    for m in (1, 1000, 4096):
        rng, twin = rng_stream(13, 1, m), rng_stream(13, 1, m)
        drawn = potential._turn(potential._draws([rng], [0, m]))
        assert np.abs(drawn - np.exp(1j * twin.uniform(0.0, 2.0 * np.pi, m))).max() <= 2e-15
        assert rng.random() == twin.random()


def test_sampling_deterministic_across_threads_and_reruns(monkeypatch, share_counts):
    shape = Circle()
    # one chunk per array, so 4 threads walk 4 shares of the 5 chunks
    monkeypatch.setattr(potential, "BATCH", 1)
    runs = [
        sample_harmonic_measure(shape, WalkConfig(samples=20_000, seed=5, threads=t))
        for t in (1, 4, 1)
    ]
    assert share_counts == [1, 4, 1]
    for other in runs[1:]:
        assert np.array_equal(runs[0].codes, other.codes)
        assert np.array_equal(runs[0].points, other.points)
        assert np.array_equal(runs[0].weights, other.weights)
    different = sample_harmonic_measure(shape, WalkConfig(samples=20_000, seed=6))
    assert not np.array_equal(runs[0].weights, different.weights)


def test_sampled_measure_is_normalized(circle_em):
    assert circle_em.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert (circle_em.weights > 0).all()
    assert circle_em.samples == 100_000
    assert circle_em.shape_name == "circle"
    assert circle_em.codes.shape == (circle_em.atom_count, circle_em.code_depth)
    assert circle_em.discarded == 0


def test_segment_arcsine_law():
    # walks launch 2 stop_tol outside the enclosing disc, so only exact
    # re-entry through the exterior Poisson kernel keeps the law; 2^15 walks
    # put criterion 2's KS bound of 0.01 at the 99.7th percentile of the KS
    # null distribution
    em = sample_harmonic_measure(Segment(), WalkConfig(samples=1 << 15, seed=12))
    assert em.discarded == 0
    assert weighted_ks_distance(em.points.real, em.weights, arcsine_cdf) < 0.01


def test_circle_uniform_law():
    # the twin of the segment test: harmonic measure of the circle from far
    # away is the uniform arc measure, which the full jump must keep
    em = sample_harmonic_measure(Circle(), WalkConfig(samples=1 << 15, seed=12))
    assert em.discarded == 0
    turns = (np.angle(em.points) / (2.0 * np.pi)) % 1.0
    assert weighted_ks_distance(turns, em.weights, lambda t: t) < 0.01


ROTATED_IFS = """
# two maps turned by pi/3: no axis grid, so the field takes the KD-tree
root = 0, 0, 1
branch = 0.3, 1.0471975511965976, -0.5, 0
branch = 0.3, 1.0471975511965976, 0.5, 0
"""

ENCLOSING = {"corner4": 1.0 / math.sqrt(2.0), "middle-thirds": 0.5, "middle-alpha:0.45": 0.5,
             "rotated": None, "circle": 1.0, "segment": 1.0}


def _enclosed_shape(name):
    if name == "rotated":
        return parse_repeller_spec(ROTATED_IFS, name="rotated")
    return {"circle": Circle(), "segment": Segment()}.get(name) or preset(name)


def _word_fixed_points(rep, depth):
    """The fixed point b / (1 - a) of each word map z -> a z + b of the given
    length, composed in plain Python: each is a point of J."""
    out = []
    for word in itertools.product(rep.branches, repeat=depth):
        a, b = 1.0 + 0j, 0j
        for m in word:  # f_w = f_w1 o ... o f_wk: compose on the right
            a, b = a * m.factor, a * m.translation + b
        out.append(b / (1.0 - a))
    return np.array(out)


@pytest.mark.parametrize("name", list(ENCLOSING))
def test_enclosing_radius_is_certified(name, monkeypatch):
    """The launch radius encloses J and the stopping set: generation-6 piece
    discs of radius scale * R about f_w(c) and points of J lie within R, the
    presets' R is exact, and no walk starts stopped."""
    shape = _enclosed_shape(name)
    c, big_r = shape.bounding_center, shape.enclosing_radius
    assert 0.0 < big_r <= shape.bounding_radius
    if isinstance(shape, Repeller):
        # the word maps send the disc (c, R) to the discs (f_w(c), scale_w * R)
        cs = shape.atoms(6)
        reach = np.abs(cs.centers - c) + cs.radii * (big_r / shape.root_radius)
        assert reach.max() <= big_r * (1.0 + 1e-12)
        points = _word_fixed_points(shape, 6)
    else:
        points = shape._center(np.arange(65), 64)  # generation-6 piece ends, on J
    dist = np.abs(points - c)
    assert dist.max() <= big_r * (1.0 + 1e-12)
    if ENCLOSING[name] is not None:
        assert abs(big_r - ENCLOSING[name]) <= 1e-15
        assert dist.max() >= big_r * (1.0 - 1e-12)  # tight: J reaches the circle

    cfg = WalkConfig(samples=potential.CHUNK, seed=1).resolve(shape)
    fld = shape.field(cfg.stop_tol / 4.0)
    if name == "rotated":
        assert fld._tree is not None
    launch = big_r + 2.0 * cfg.stop_tol
    ring = c + launch * np.exp(2j * np.pi * np.arange(1 << 16) / (1 << 16))
    assert fld.query(ring)[1].min() > cfg.stop_tol
    field_type, first = type(fld), []
    query = field_type.query

    def recorded(f, z):
        lo, hi = query(f, z)
        if not first:
            first.append((z.copy(), hi))
        return lo, hi

    monkeypatch.setattr(field_type, "query", recorded)
    sample_harmonic_measure(shape, cfg)
    z, hi = first[0]
    assert z.size == potential.CHUNK
    assert np.abs(np.abs(z - c) - launch).max() <= 1e-12 * launch
    assert hi.min() > cfg.stop_tol


def _cylinder_masses(em, k):
    """Mass of each generation-k cylinder, in lexicographic code order."""
    index = np.zeros(em.atom_count, dtype=np.int64)
    for j in range(k):
        index = index * 4 + em.codes[:, j]
    return np.bincount(index, weights=em.weights, minlength=4**k)


def test_corner4_walks_sample_the_equilibrium_law(corner, corner_em_100k):
    """Level-2 cylinder masses of 100k corner4 walks lie within 4 standard
    errors sqrt(p (1 - p) / n) of the K = 5 equilibrium solve's, at seeds
    1-3: a law check that holds for any launch circle enclosing J."""
    p = _cylinder_masses(equilibrium_measure(corner, 5)[0].measure, 2)
    for seed in (1, 2, 3):
        em = (corner_em_100k if seed == 3 else
              sample_harmonic_measure(corner, WalkConfig(samples=100_000, seed=seed, threads=2)))
        assert (em.seed, em.samples, em.discarded) == (seed, 100_000, 0)
        se = np.sqrt(p * (1.0 - p) / em.samples)
        assert (np.abs(_cylinder_masses(em, 2) - p) <= 4.0 * se).all(), seed


@pytest.mark.parametrize("name, bound", [("circle", 4.1), ("segment", 16.2), ("corner4", 25.5)])
def test_walks_jump_the_whole_lower_bound(name, bound, corner, monkeypatch):
    """Field query points per walk over two chunks at seed 1, a fixed count.

    Jumping 0.9 of the lower bound took 21.8, 30.2 and 44.7 per walk from the
    circle of 1.1 bounding radii, and the whole bound 13.0, 18.0 and 30.0.
    From the circle of enclosing radius + 2 stop_tol the whole bound takes
    3.9, 15.4 and 24.3; the bounds are 1.05 of these.
    """
    shape = {"circle": Circle(), "segment": Segment(), "corner4": corner}[name]
    cfg = WalkConfig(samples=2 * potential.CHUNK, seed=1).resolve(shape)
    field_type = type(shape.field(cfg.stop_tol / 4.0))
    query, points = field_type.query, []

    def counted(fld, z):
        points.append(z.size)
        return query(fld, z)

    monkeypatch.setattr(field_type, "query", counted)
    em = sample_harmonic_measure(shape, cfg)
    assert em.discarded == 0
    assert sum(points) / cfg.samples < bound


def test_step_limit_discards_are_capped(monkeypatch):
    monkeypatch.setattr(potential, "MAX_STEPS", 2)
    with pytest.raises(ExcessiveDiscardError):
        sample_harmonic_measure(Circle(), WalkConfig(samples=4096))


# -- empirical measures --------------------------------------------------------------


def test_measure_validation_errors():
    codes = np.zeros((2, 1), dtype=np.uint8)
    pts = np.array([0j, 1j])
    with pytest.raises(ValueError):
        EmpiricalMeasure(codes=codes, points=pts, weights=np.array([0.5]))
    with pytest.raises(ValueError):
        EmpiricalMeasure(codes=codes, points=pts, weights=np.array([0.5, -0.5]))
    with pytest.raises(ValueError):
        EmpiricalMeasure(codes=np.zeros(2, dtype=np.uint8), points=pts,
                         weights=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        EmpiricalMeasure(codes=np.zeros((0, 1), dtype=np.uint8),
                         points=np.array([], dtype=complex),
                         weights=np.array([]))


def test_measure_csv_round_trip(corner):
    em = natural_measure(corner, 3)
    back = measure_from_csv(em.csv_text())
    assert np.array_equal(back.codes, em.codes)
    assert np.array_equal(back.points, em.points)
    assert np.array_equal(back.weights, em.weights)
    assert back.shape_name == em.shape_name
    assert back.stop_tol == em.stop_tol
    assert back.seed is None and em.seed is None


def test_natural_measure_weights(corner, thirds):
    em = natural_measure(thirds, 3)
    assert em.atom_count == 8
    assert np.allclose(em.weights, 1.0 / 8.0)
    em4 = natural_measure(corner, 2)
    assert em4.atom_count == 16
    assert np.allclose(em4.weights, 1.0 / 16.0)


def test_natural_measure_moran_weights_unequal_scales():
    from cantorlab import Repeller, SimilarityMap

    rep = Repeller(
        [SimilarityMap(0.5, 0.0, -0.5 + 0j), SimilarityMap(0.25, 0.0, 0.75 + 0j)],
        root_center=0j,
        root_radius=1.3,
    )
    em = natural_measure(rep, 1)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    assert em.weights[0] == pytest.approx(golden, abs=1e-9)
    assert em.weights[1] == pytest.approx(golden**2, abs=1e-9)


# -- potentials ------------------------------------------------------------------------


def test_log_potential_matches_root_of_unity_product():
    em = uniform_circle_measure(6)
    n = em.atom_count
    for z in (2.0 + 0j, 1.5 + 0.5j, -3.0 + 0.2j):
        expected = math.log(abs(z**n + 1.0)) / n
        assert log_potential(em, z) == pytest.approx(expected, rel=1e-12)


def test_log_potential_rejects_atom_hit():
    em = uniform_circle_measure(4)
    with pytest.raises(SingularityError):
        log_potential(em, complex(em.points[0]))


def test_boundary_probes_certified_band():
    shape = Circle()
    z = boundary_probes(shape, 64, (0.05, 0.2), seed=4)
    d = shape.distance(z)
    assert len(z) == 64
    assert (d >= 0.05).all() and (d <= 0.2).all()
    assert (np.abs(z) > 1.0).all()


def test_robin_constant_recovers_circle_capacity():
    em = uniform_circle_measure(10, radius=3.0)
    shape = Circle(radius=3.0)
    model = green_model(em, shape, seed=1)
    assert model.capacity == pytest.approx(3.0, rel=0.02)
    assert model.robin == pytest.approx(-math.log(3.0), abs=0.02)
    outside = 3.0 * math.e
    assert model.green(outside) == pytest.approx(1.0, abs=0.02)


def test_robin_constant_input_validation():
    em = uniform_circle_measure(8)
    with pytest.raises(ValueError):
        robin_constant(em, np.array([1.2 + 0j] * 4))
    spread = np.concatenate(
        [1.001 * np.exp(1j * np.arange(7) / 2.0), [4.0 + 0j, 4.0j, -4.0 + 0j]]
    )
    with pytest.raises(DispersionError):
        robin_constant(em, spread)


def test_quantile_matches_numpy_bit_for_bit():
    """quantile gives np.quantile's linear rule and np.median to the bit, ties
    included; only a zero's sign may differ, where sort and partition order
    -0.0 and 0.0 differently."""
    rng = np.random.default_rng(5)
    ours, numpys = [], []
    for _ in range(500):
        v = rng.normal(size=int(rng.integers(1, 60))) * 10.0 ** int(rng.integers(-3, 4))
        if rng.random() < 0.5:
            v = np.round(v, 1)
        for q in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, float(rng.random())):
            ours.append(quantile(v, q))
            numpys.append(np.quantile(v, q))
        ours.append(quantile(v))
        numpys.append(np.median(v))
    assert ours == [float(x) for x in numpys]


def test_quantile_of_no_values_is_a_value_error():
    for q in (None, 0.5):
        with pytest.raises(ValueError, match="no values"):
            quantile([], q)


# -- comparability fit -------------------------------------------------------------------


class PowerLawModel:
    """Synthetic Green model G = amp * dist^exponent for fit validation."""

    def __init__(self, shape, amp, exponent):
        self.shape = shape
        self.amp = amp
        self.exponent = exponent

    def green(self, z):
        return self.amp * self.shape.distance(z) ** self.exponent


def test_comparability_fit_recovers_synthetic_power_law():
    shape = Circle()
    model = PowerLawModel(shape, amp=2.0, exponent=0.7)
    fit = comparability_fit(model, shape, n_points=120, depth_range=(0.01, 0.1), seed=0)
    assert fit.delta_hat == pytest.approx(0.7, abs=1e-9)
    assert fit.c1 == pytest.approx(2.0, rel=1e-9)
    assert fit.c2 == pytest.approx(2.0, rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.dropped == 0
    assert len(fit.dists) == fit.n_points


def test_comparability_fit_needs_a_decade():
    model = PowerLawModel(Circle(), 1.0, 1.0)
    with pytest.raises(FitDegeneracyError):
        comparability_fit(model, Circle(), n_points=50, depth_range=(0.02, 0.1))


# -- ball mass scaling ----------------------------------------------------------------------


def test_ball_mass_scaling_linear_on_circle():
    em = uniform_circle_measure(12)
    centers = em.points[::512][:8]
    report = ball_mass_scaling(em, centers, np.geomspace(0.05, 0.3, 6))
    assert abs(report.exponent_median - 1.0) < 0.05
    assert report.c_min > 0 and report.c_max < 1.0


def test_ball_mass_scaling_takes_the_centers_in_atom_blocks(corner_em_100k):
    """2,000 centers on the 12,407 atoms of the 100k-walk corner4 measure: a
    dense centers x atoms distance matrix alone is 198 MB, and the blocked
    masses peak at 1.6 MB traced.  The exponents and constants are those of
    the dense masses to 1e-13 relative."""
    em = corner_em_100k
    centers = em.points[np.sort(rng_stream(3, 9).choice(em.atom_count, 2000, replace=False))]
    radii = np.geomspace(0.02, 0.25, 6) * em.diameter
    tracemalloc.start()
    try:
        report = ball_mass_scaling(em, centers, radii)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000
    masses = _oracles.dense_ball_masses(em, centers, radii)
    slopes = [np.polyfit(np.log(radii), np.log(m), 1)[0] for m in masses]
    consts = masses / radii ** report.exponent_median
    assert np.allclose(report.exponents, slopes, rtol=1e-13, atol=0)
    assert np.allclose([report.c_min, report.c_max], [consts.min(), consts.max()],
                       rtol=1e-13, atol=0)


def test_ball_mass_scaling_requires_mass():
    em = uniform_circle_measure(8)
    with pytest.raises(InsufficientMassError):
        ball_mass_scaling(em, em.points[:4], np.array([1e-4, 2e-4, 4e-4]))


@pytest.mark.parametrize("name", ["circle", "segment", "corner4"])
def test_walk_loop_matches_the_loops_it_replaced(name, corner, monkeypatch):
    """The one walk loop gives the old loop's counts and live walks.

    The reference walks one chunk on one stream and bins and counts stopped
    walks inside the loop, step by step; the merged loop walks the chunks in
    one refilled array and bins stopped walks into atoms in blocks.
    """
    shape = {"circle": Circle(), "segment": Segment(), "corner4": corner}[name]
    cfg = WalkConfig(samples=1, seed=11).resolve(shape)
    fld = shape.field(cfg.stop_tol / 4.0)
    jobs = [(0, potential.CHUNK), (1, 1000), (2, potential.CHUNK)]

    def live_per_chunk():
        counts, live = potential._walk_chunks(shape, fld, cfg, jobs)
        refs = [_oracles.walk_chunk(shape, fld, cfg, i, n) for i, n in jobs]
        assert np.array_equal(counts, _oracles.atom_counts(shape, cfg, sum(c for c, _ in refs)))
        assert live == sum(lv for _, lv in refs)
        assert counts.sum() + live == sum(n for _, n in jobs)
        return [lv for _, lv in refs]

    assert live_per_chunk() == [0, 0, 0]

    # a step limit that leaves walks of every stream live
    monkeypatch.setattr(potential, "MAX_STEPS", 12)
    monkeypatch.setattr(_oracles, "MAX_STEPS", 12)
    assert all(lv > 0 for lv in live_per_chunk())


@pytest.mark.parametrize("max_steps", [None, 12])
@pytest.mark.parametrize("name", ["circle", "segment", "corner4"])
def test_refilled_array_matches_chunks_walked_alone(name, max_steps, corner, monkeypatch):
    """Chunks launched into a refilled array walk as they would alone.

    At BATCH = 2 the first two chunks fill the array; the partial chunk of
    1,000 walks launches mid-walk, once 1,000 walks have stopped, and the
    last two as room frees up (a partial chunk of 20 walks on the circle
    all stop within 12 steps of a launch 2 stop_tol out).  Every prefix of
    the jobs must give the summed counts and live walks of its chunks
    walked one by one, so each chunk's own live walks agree too, also when
    MAX_STEPS, counted from each chunk's launch, leaves walks of every
    chunk live.
    """
    shape = {"circle": Circle(), "segment": Segment(), "corner4": corner}[name]
    cfg = WalkConfig(samples=1, seed=17).resolve(shape)
    fld = shape.field(cfg.stop_tol / 4.0)
    monkeypatch.setattr(potential, "BATCH", 2)
    if max_steps is not None:
        monkeypatch.setattr(potential, "MAX_STEPS", max_steps)
        monkeypatch.setattr(_oracles, "MAX_STEPS", max_steps)
    jobs = [(0, potential.CHUNK), (1, potential.CHUNK), (2, 1000),
            (3, potential.CHUNK), (4, potential.CHUNK)]
    refs = [_oracles.walk_chunk(shape, fld, cfg, i, n) for i, n in jobs]
    seen = []  # (walks queried, walks stopped) per step
    query = fld.query

    def counted(z):
        lo, hi = query(z)
        seen.append((z.size, int((hi < cfg.stop_tol).sum())))
        return lo, hi

    monkeypatch.setattr(fld, "query", counted)
    for k in range(1, len(jobs) + 1):
        seen.clear()
        counts, live = potential._walk_chunks(shape, fld, cfg, jobs[:k])
        assert np.array_equal(counts, _oracles.atom_counts(shape, cfg, sum(c for c, _ in refs[:k])))
        assert live == sum(lv for _, lv in refs[:k])
        assert max(a for a, _ in seen) <= 2 * potential.CHUNK
    # some step queried more walks than the last one left live: a refill
    assert any(0 < a - s < b for (a, s), (b, _) in zip(seen, seen[1:]))
    live = [lv for _, lv in refs]
    assert all(lv > 0 for lv in live) if max_steps else live == [0] * len(jobs)


@pytest.mark.parametrize("name", ["circle", "corner4"])
def test_sampling_ignores_batching_and_threads(name, corner, monkeypatch, share_counts):
    # ten chunks, the last one partial: at BATCH = 1, 2 and 3 the arrays
    # refill, and at BATCH = 2 two and three threads walk as many shares
    shape = Circle() if name == "circle" else corner
    cfg = WalkConfig(samples=9 * potential.CHUNK + 1000, seed=8)
    ref = sample_harmonic_measure(shape, cfg)
    monkeypatch.setattr(potential, "BATCH", 2)
    runs = [sample_harmonic_measure(shape, replace(cfg, threads=t)) for t in (2, 3)]
    for batch in (1, 3):
        monkeypatch.setattr(potential, "BATCH", batch)
        runs.append(sample_harmonic_measure(shape, replace(cfg, threads=2)))
    assert share_counts == [1, 2, 3, 2, 2]
    for em in runs:
        assert np.array_equal(em.codes, ref.codes)
        assert np.array_equal(em.points, ref.points)
        assert np.array_equal(em.weights, ref.weights)
        assert em.discarded == ref.discarded


def test_shares_fill_a_walk_array():
    """Contiguous shares of at least BATCH chunks, at most one per thread."""
    for threads, chunks, k in [(2, 7, 1), (2, 13, 1), (2, 25, 2), (2, 98, 2), (8, 25, 3)]:
        jobs = list(range(chunks))
        shares = potential._shares(jobs, threads)
        assert len(shares) == k
        assert sum(shares, []) == jobs
        assert min(map(len, shares)) >= min(potential.BATCH, chunks)


def test_the_calling_thread_walks_the_first_share(monkeypatch, share_counts):
    """A one-share run starts no thread and a two-share run starts one: share
    0 is walked on the calling thread, and every helper is joined."""
    started, walkers = [], {}
    start, walk = threading.Thread.start, potential._walk_chunks

    def counted_start(thread):
        started.append(thread)
        start(thread)

    def recorded_walk(shape, fld, cfg, jobs, stream=0):
        walkers[jobs[0][0]] = threading.get_ident()
        return walk(shape, fld, cfg, jobs, stream)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    monkeypatch.setattr(potential, "_walk_chunks", recorded_walk)
    monkeypatch.setattr(potential, "BATCH", 1)
    before = threading.active_count()
    for threads, samples in ((1, 2 * potential.CHUNK), (2, 1000)):
        sample_harmonic_measure(Circle(), WalkConfig(samples=samples, seed=2, threads=threads))
    assert started == []
    assert walkers == {0: threading.get_ident()}
    sample_harmonic_measure(Circle(), WalkConfig(samples=2 * potential.CHUNK, seed=2, threads=2))
    assert share_counts == [1, 1, 2]
    assert len(started) == 1 and not started[0].is_alive()
    assert walkers[0] == threading.get_ident() != walkers[1]
    assert threading.active_count() == before


@pytest.mark.parametrize("failing", [(0,), (1,), (0, 1)])
def test_a_failing_share_raises_after_every_helper_joins(failing, monkeypatch):
    """The first failing share's error, in share order, propagates from the
    sampler once every helper thread has ended, share 0 failing included."""
    walk = potential._walk_chunks
    walkers = {}

    def failing_walk(shape, fld, cfg, jobs, stream=0):
        share = jobs[0][0]
        walkers[share] = threading.get_ident()
        if share in failing:
            raise RuntimeError(f"share {share} failed")
        return walk(shape, fld, cfg, jobs, stream)

    monkeypatch.setattr(potential, "_walk_chunks", failing_walk)
    monkeypatch.setattr(potential, "BATCH", 1)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"share {failing[0]} failed"):
        sample_harmonic_measure(Circle(), WalkConfig(samples=2 * potential.CHUNK, seed=2, threads=2))
    assert threading.active_count() == before
    assert walkers[0] == threading.get_ident() != walkers[1]


def test_sampler_over_the_piece_cap_refuses_before_any_walk(monkeypatch):
    """stop_tol 2e-6 on the unit circle asks for 2^21 atoms, over PIECE_CAP:
    refused on the calling thread before the field is built, any helper
    thread starts or any chunk is walked."""
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the cap was checked")

    monkeypatch.setattr(Circle, "field", forbidden)
    monkeypatch.setattr(threading.Thread, "start", forbidden)
    monkeypatch.setattr(potential, "_walk_chunks", forbidden)
    with pytest.raises(ResourceLimitError, match=f"has 2\\^21 pieces, cap {PIECE_CAP}"):
        sample_harmonic_measure(Circle(), WalkConfig(samples=100_000, stop_tol=2e-6, threads=2))


@pytest.mark.parametrize("shape", [Circle(), Circle(radius=3.0), Segment()],
                         ids=["circle", "circle-3", "segment"])
def test_exact_sampler_boundary_is_the_deepest_generation_under_the_cap(shape):
    """stop_tol = piece_radius(20), 2^20 = PIECE_CAP atoms, is accepted and
    the next float below it refused, as when the cap bounded the field."""
    deepest = next(d for d in itertools.count() if 2 ** (d + 1) > PIECE_CAP)
    tol = shape.piece_radius(deepest)
    em = sample_harmonic_measure(shape, WalkConfig(samples=64, seed=1, stop_tol=tol))
    assert em.codes.shape[1] == deepest
    with pytest.raises(ResourceLimitError, match=f"cap {PIECE_CAP}"):
        sample_harmonic_measure(shape, WalkConfig(samples=64, stop_tol=np.nextafter(tol, 0.0)))


def test_corner4_sample_at_stop_tol_1e6_bins_into_generation_10(corner):
    """The walks run on the depth-11 field, over PIECE_CAP leaves, and stop in
    the 4^10 atoms of generation 10."""
    em = sample_harmonic_measure(corner, WalkConfig(samples=20_000, seed=1, stop_tol=1e-6))
    assert em.codes.shape[1] == 10 and em.discarded == 0
    assert abs(em.weights.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("name", ["circle", "corner4"])
def test_atom_sums_match_the_wide_blocks(name, circle_em, corner_em_100k):
    """Cache-sized blocks give every point the bits the 2e6-pair blocks gave."""
    em = circle_em if name == "circle" else corner_em_100k
    rng = rng_stream(6, 0)
    near = em.points[rng.choice(em.atom_count, 300)] + 1e-3 * np.exp(2j * np.pi * rng.random(300))
    far = 3.0 * em.diameter * np.exp(2j * np.pi * rng.random(100))
    zs = np.concatenate([near, far])
    logs = _oracles.wide_block_sum(em, zs, lambda diff, dist: np.log(dist, out=dist), float)
    assert np.array_equal(log_potential(em, zs), logs)
    inverses = _oracles.wide_block_sum(em, zs, lambda diff, dist: np.divide(1.0, diff, out=diff), complex)
    assert np.array_equal(cauchy_transform(em, zs), inverses)


def test_log_potential_holds_one_cache_sized_block():
    # 49,152 atoms: one point per block, where a 2e6-pair block took 40
    # points and 47 MB of temporaries
    n = 49_152
    rng = rng_stream(7, 0)
    em = EmpiricalMeasure(codes=np.zeros((n, 1)), points=rng.random(n) + 1j * rng.random(n),
                          weights=np.full(n, 1.0 / n))
    zs = 3.0 + 1j * rng.random(256)
    tracemalloc.start()
    try:
        log_potential(em, zs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * 24


def test_sampler_holds_no_count_array_per_chunk():
    # forty chunks: holding a count array per chunk alone takes 40 * leaves * 8
    # bytes; one thread, so no second share's arrays are live at the peak
    shape = Circle()
    cfg = WalkConfig(samples=40 * potential.CHUNK, seed=4, threads=1)
    leaves = shape.field(cfg.resolve(shape).stop_tol / 4.0).leaf_count
    tracemalloc.start()
    try:
        sample_harmonic_measure(shape, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * leaves * 8


def test_sampler_counts_atoms_not_leaves(monkeypatch):
    """At stop_tol 1e-5 corner4 walks on the depth-10 field, 4^10 leaves, and
    bins into the 4^9 depth-9 atoms.  Stopped walks are counted per atom, so
    no array over the leaves is built: counted per leaf, two chunks on one
    thread peaked at 19.5 MB traced with the atoms and the field built first."""
    rep = preset("corner4")
    cfg = WalkConfig(samples=2 * potential.CHUNK, seed=5, stop_tol=1e-5, threads=1)
    atoms = rep.atoms(9)
    n_atoms = len(atoms)
    # the sampler reads these atoms, built before the trace starts
    monkeypatch.setattr(rep, "atoms", lambda depth: atoms if depth == 9 else None)
    fld = rep.field(cfg.stop_tol / 4.0)
    assert (fld.leaf_count, n_atoms) == (4**10, 4**9)
    tracemalloc.start()
    try:
        em = sample_harmonic_measure(rep, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000
    assert em.code_depth == 9
    counts, discarded = potential._walk_chunks(rep, fld, cfg, [(0, potential.CHUNK)])
    assert len(counts) == n_atoms
    assert counts.sum() + discarded == potential.CHUNK


# -- the equilibrium solve --------------------------------------------------------


def test_pole_solve_matches_the_circle_poisson_kernel_and_green_function():
    """Circle, K = 10: each pole's masses are the Poisson kernel's arc masses
    to 1e-3, relative, and G(z, p) is the closed form to 1e-3, at the points
    and poles the retired absorption-walk test read."""
    poles = [3.0 + 0j, 2.0 + 2.0j]
    model, *solved = equilibrium_measure(Circle(), 10, poles)
    assert model.capacity == pytest.approx(1.0, abs=1e-3)
    for p, green in zip(poles, solved):
        ref = _oracles.circle_poisson_masses(1024, p)
        assert np.max(np.abs(green.measure.weights - ref) / ref) < 1e-3
    for z, k in [(2.0 + 0j, 0), (1.5 + 0j, 1), (0.5 + 2.5j, 0)]:
        got = solved[k].green(z)
        assert got == pytest.approx(_oracles.circle_green(z, poles[k]), abs=1e-3)


def test_segment_solve_gives_capacity_one_half_and_the_arcsine_masses():
    # the end pieces carry the largest error, 5.3e-4 of mass each
    [model] = equilibrium_measure(Segment(), 10)
    assert model.capacity == pytest.approx(0.5, abs=1e-3)
    ref = _oracles.arcsine_masses(1024)
    assert np.max(np.abs(model.measure.weights - ref)) < 1e-3


def test_segment_solve_matches_the_closed_form_green_function():
    """G of [-1, 1] from the K = 10 solve is within 1e-3 of
    log|z + sqrt(z - 1) sqrt(z + 1)| off the segment and near its ends
    (8.0e-4 at worst), and nearer it than the K = 8 solve at each point."""
    points = [0.5j, 0.3 + 0.2j, -0.7 + 0.1j, 1.05 + 0j, -1.02 + 0.03j, 2.0 + 0j, -0.9 - 0.2j]
    exact = np.array([_oracles.segment_green_exact(z) for z in points])
    err = {k: np.abs(equilibrium_measure(Segment(), k)[0].green(np.array(points)) - exact)
           for k in (8, 10)}
    assert err[10].max() < 1e-3
    assert (err[10] < err[8]).all()


@pytest.mark.parametrize("name,depth,capacity",
                         [("corner4", 5, 0.5558927870), ("middle-thirds", 10, 0.2209530068)])
def test_repeller_solve_capacities(name, depth, capacity):
    [model] = equilibrium_measure(preset(name), depth)
    assert model.capacity == pytest.approx(capacity, abs=1e-9)


@pytest.mark.parametrize("name", ["circle", "segment", "corner4", "middle-thirds"])
def test_solve_weights_are_probabilities_and_green_is_symmetric(name):
    shape = {"circle": Circle(), "segment": Segment()}.get(name) or preset(name)
    c, diam = shape.bounding_center, shape.diameter
    p, q = c + 1.4 * diam, c + 1.4j * diam
    models = equilibrium_measure(shape, 10 if shape.fan == 2 else 5, [p, q])
    assert [m.pole for m in models] == [None, p, q]
    for model in models:
        assert model.measure.weights.min() > 0
        assert abs(model.measure.weights.sum() - 1.0) < 1e-12
    assert abs(models[1].green(q) - models[2].green(p)) < 1e-10


def test_corner4_solve_is_invariant_under_the_square_symmetries(corner):
    """The 8 isometries of the square act on corner4's letters x + 2y by
    flipping x, flipping y and swapping the two bits; each maps a piece to a
    piece of the same mass."""
    [model] = equilibrium_measure(corner, 5)
    codes, w = model.measure.codes, model.measure.weights
    places = 4 ** np.arange(4, -1, -1)
    for flip_x, flip_y, swap in itertools.product((0, 1), repeat=3):
        x, y = codes & 1 ^ flip_x, codes >> 1 ^ flip_y
        letters = y + 2 * x if swap else x + 2 * y
        assert np.allclose(w[letters @ places], w, rtol=1e-9, atol=0)


def test_corner4_mirror_poles_have_mirror_measures(corner):
    """bhp's default poles on corner4 are mirror images under sigma(z) = i
    conj(z), which maps J to itself by swapping each letter's two bits, so
    omega^q(w) = omega^p(sigma w) (1.7e-11 relative measured) and g(q) = g(p)."""
    c, diam = corner.bounding_center, corner.diameter
    p, q = c + 1.4 * diam, c + 1.4j * diam
    assert q == 1j * np.conj(p)
    _, green_p, green_q = equilibrium_measure(corner, 5, [p, q])
    codes = green_q.measure.codes
    mirror = ((codes >> 1) + 2 * (codes & 1)) @ 4 ** np.arange(4, -1, -1)
    assert np.allclose(green_q.measure.weights, green_p.measure.weights[mirror],
                       rtol=1e-9, atol=0)
    assert green_q.robin == pytest.approx(green_p.robin, abs=1e-12)


def test_ladder_matches_the_circle_poisson_kernel():
    """Circle, K = 10, bhp's default poles: osc_k at k = 1..9 is the largest
    spread of log(w^p / w^q) over the two halves of a level-k arc, with the
    closed-form Poisson masses (block sums of 2^14 arcs) as truth, to 2e-3
    relative (1.25e-3 measured)."""
    p, q = 2.8 + 0j, 2.8j
    osc = boundary_ladder(Circle(), 10, p, q)
    mp, mq = (_oracles.circle_poisson_masses(1 << 14, z) for z in (p, q))
    ref = []
    for k in range(1, 10):
        h = np.log(mp.reshape(2 ** (k + 1), -1).sum(1) / mq.reshape(2 ** (k + 1), -1).sum(1))
        ref.append(np.ptp(h.reshape(-1, 2), axis=1).max())
    assert np.max(np.abs(osc / np.array(ref) - 1.0)) < 2e-3


def test_ladder_of_one_pole_twice_is_exactly_zero():
    # v is u bit for bit, so every log ratio is 0.0
    osc = boundary_ladder(Circle(), 10, 3.0 + 0j, 3.0 + 0j)
    assert len(osc) == 9 and (osc == 0.0).all()


def test_solve_refuses_before_building_anything(corner, monkeypatch):
    built = []
    monkeypatch.setattr(corner, "atoms", lambda depth: built.append(depth))
    monkeypatch.setattr(SinglePoint, "atoms", lambda self, depth: built.append(depth))
    monkeypatch.setattr(SinglePoint, "field", lambda self, res: built.append(res))
    with pytest.raises(ResourceLimitError, match="solve cap 4096"):
        equilibrium_measure(corner, 7)
    with pytest.raises(ValueError, match="generation >= 1"):
        equilibrium_measure(corner, 0)
    with pytest.raises(ValueError, match="capacity 0"):
        boundary_ladder(SinglePoint(), 1, 1.0 + 0j, 1j)
    assert built == []
    with pytest.raises(ValueError, match="not outside"):
        equilibrium_measure(Circle(), 4, [0.5 + 0j])
    with pytest.raises(ValueError, match="not outside"):
        equilibrium_measure(Circle(), 4, [1.001 + 0j])


def test_segment_capacity_quarter_length(segment_em):
    model = green_model(segment_em, Segment(), seed=0)
    assert model.capacity == pytest.approx(0.5, abs=0.02)
