"""Walk-on-spheres sampling, potentials, Robin constants, regression fits."""

import math
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
    Segment,
    SingularityError,
    VarianceError,
    WalkConfig,
    ball_mass_scaling,
    bhp_holder_fit,
    boundary_probes,
    comparability_fit,
    fit_holder_envelope,
    green_model,
    log_potential,
    natural_measure,
    robin_constant,
    sample_harmonic_measure,
)
from cantorlab import potential
from cantorlab.potential import _absorbed_fraction, rng_stream

import _oracles
from _oracles import arcsine_cdf, measure_from_csv, weighted_ks_distance


def uniform_circle_measure(depth: int, radius: float = 1.0) -> EmpiricalMeasure:
    shape = Circle(radius=radius)
    codes, centers, _ = shape.atoms(depth)
    n = len(centers)
    return EmpiricalMeasure(
        codes=codes,
        points=centers,
        weights=np.full(n, 1.0 / n),
        shape_name="circle",
        stop_tol=shape.piece_radius(depth),
    )


# -- configuration -------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"samples": 0},
        {"shrink": 0.0},
        {"shrink": 1.0},
        {"stop_tol": -1.0},
        {"stop_tol": 0.0},
        {"shrink": 1.5},
        {"threads": 0},
        {"seed": -1},
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


def test_sampling_deterministic_across_threads_and_reruns():
    shape = Circle()
    runs = [
        sample_harmonic_measure(shape, WalkConfig(samples=20_000, seed=5, threads=t))
        for t in (1, 4, 1)
    ]
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
    # walks launch just outside the root disc, so only exact re-entry through
    # the exterior Poisson kernel keeps the law; 2^15 walks put criterion 2's
    # KS bound of 0.01 at the 99.7th percentile of the KS null distribution
    em = sample_harmonic_measure(Segment(), WalkConfig(samples=1 << 15, seed=12))
    assert em.discarded == 0
    assert weighted_ks_distance(em.points.real, em.weights, arcsine_cdf) < 0.01


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


def test_ball_mass_scaling_requires_mass():
    em = uniform_circle_measure(8)
    with pytest.raises(InsufficientMassError):
        ball_mass_scaling(em, em.points[:4], np.array([1e-4, 2e-4, 4e-4]))


# -- harnack ratio envelope --------------------------------------------------------------------


def test_holder_envelope_zero_deviations():
    eps, c = fit_holder_envelope(np.linspace(0.1, 1.0, 10), np.zeros(10))
    assert (eps, c) == (1.0, 0.0)


def test_holder_envelope_recovers_power_law():
    rng = rng_stream(12, 0)
    seps = np.exp(rng.uniform(math.log(0.01), math.log(1.0), 400))
    devs = 3.0 * seps**0.6
    eps, c = fit_holder_envelope(seps, devs)
    assert eps == pytest.approx(0.6, abs=0.05)
    assert c >= 2.7


def test_holder_envelope_validation():
    with pytest.raises(ValueError):
        fit_holder_envelope(np.array([0.1, 0.2]), np.array([0.1, 0.2]))
    same = np.full(30, 0.25)
    with pytest.raises(FitDegeneracyError):
        fit_holder_envelope(same, same.copy())


def test_absorbed_fraction_matches_exterior_green_ratio():
    """Hit probability of a small disc before the circle, against closed form.

    For the unit-circle complement, u(z) ~ G(z, p) / (log(1/rho) +
    log(|p|^2 - 1)) with G the exterior Green's function of the pole pair.
    """
    shape = Circle()
    cfg = WalkConfig(samples=1, seed=0).resolve(shape)
    fld = shape.field(cfg.stop_tol / 4.0)
    for z0, pole, rho in [(2.0 + 0j, 3.0 + 0j, 0.1), (1.5 + 0j, 2.0 + 2.0j, 0.2)]:
        u, n_eff = _absorbed_fraction(
            shape, fld, z0, pole, rho, cfg, rng_stream(9, 0), 40_000
        )
        g = math.log(abs(z0 * np.conj(pole) - 1.0) / abs(z0 - pole))
        w = math.log(1.0 / rho) + math.log(abs(pole) ** 2 - 1.0)
        assert n_eff == 40_000
        assert u == pytest.approx(g / w, rel=0.03)


@pytest.mark.parametrize("name", ["circle", "segment", "corner4"])
def test_walk_loop_matches_the_loops_it_replaced(name, corner, monkeypatch):
    """The one walk loop gives the old loops' counts, live walks and hits.

    The references walk one chunk on one stream and bin and count stopped
    walks inside the loop, step by step; the merged loop walks a batch of
    chunks as one array and bins them once.
    """
    shape = {"circle": Circle(), "segment": Segment(), "corner4": corner}[name]
    cfg = WalkConfig(samples=1, seed=11).resolve(shape)
    fld = shape.field(cfg.stop_tol / 4.0)
    jobs = [(0, potential.CHUNK), (1, 1000), (2, potential.CHUNK)]

    def live_per_chunk():
        counts, live = potential._walk_chunks(shape, fld, cfg, jobs)
        refs = [_oracles.walk_chunk(shape, fld, cfg, i, n) for i, n in jobs]
        assert np.array_equal(counts, sum(c for c, _ in refs))
        assert live == sum(lv for _, lv in refs)
        assert counts.sum() + live == sum(n for _, n in jobs)
        return [lv for _, lv in refs]

    assert live_per_chunk() == [0, 0, 0]
    if name == "circle":
        cases = [(2.0 + 0j, 3.0 + 0j, 0.1, 40_000), (1.5 + 0j, 2.0 + 2.0j, 0.2, 40_000)]
    elif name == "corner4":
        cases = [(0.5 + 0.5j, 2.5 + 0.5j, 0.25, 5_000)]
    else:
        cases = []
    for z0, pole, rho, n in cases:
        got = _absorbed_fraction(shape, fld, z0, pole, rho, cfg, rng_stream(9, 0), n)
        ref = _oracles.absorbed_fraction(
            shape, fld, z0, pole, rho, cfg, rng_stream(9, 0), n
        )
        assert got == ref
        assert 0.0 < got[0] < 1.0

    # a step limit that leaves walks of every stream live
    monkeypatch.setattr(potential, "MAX_STEPS", 12)
    monkeypatch.setattr(_oracles, "MAX_STEPS", 12)
    assert all(lv > 0 for lv in live_per_chunk())


@pytest.mark.parametrize("name", ["circle", "corner4"])
def test_sampling_ignores_batching_and_threads(name, corner, monkeypatch):
    # ten chunks, the last one partial: four batches at BATCH = 3
    shape = Circle() if name == "circle" else corner
    cfg = WalkConfig(samples=9 * potential.CHUNK + 1000, seed=8)
    ref = sample_harmonic_measure(shape, cfg)
    runs = [sample_harmonic_measure(shape, replace(cfg, threads=t)) for t in (2, 3)]
    for batch in (1, 3):
        monkeypatch.setattr(potential, "BATCH", batch)
        runs.append(sample_harmonic_measure(shape, replace(cfg, threads=2)))
    for em in runs:
        assert np.array_equal(em.codes, ref.codes)
        assert np.array_equal(em.points, ref.points)
        assert np.array_equal(em.weights, ref.weights)
        assert em.discarded == ref.discarded


def test_sampler_holds_no_count_array_per_chunk():
    # forty chunks: holding a count array per chunk alone takes 40 * leaves * 8
    # bytes; one thread, so no second batch's arrays are live at the peak
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


def test_bhp_fit_identical_poles_has_zero_envelope():
    fit = bhp_holder_fit(
        Circle(),
        3.0 + 0j,
        3.0 + 0j,
        WalkConfig(samples=1, seed=3),
        n_pairs=6,
        walks_per_point=20_000,
    )
    assert fit.epsilon == 1.0
    assert fit.c == 0.0
    assert all(d == 0.0 for d in fit.deviations)


def test_bhp_fit_variance_gate():
    with pytest.raises(VarianceError):
        bhp_holder_fit(
            Circle(),
            3.0 + 0j,
            2.0 + 2.0j,
            WalkConfig(samples=1, seed=3),
            n_pairs=4,
            walks_per_point=400,
        )


def test_segment_capacity_quarter_length(segment_em):
    model = green_model(segment_em, Segment(), seed=0)
    assert model.capacity == pytest.approx(0.5, abs=0.02)
