"""Cylinder profiles (masses, entropies, Lyapunov exponents), dimension estimates."""

import dataclasses
import math

import numpy as np
import pytest

from cantorlab import (
    BootstrapError,
    CylinderProfile,
    DepthError,
    EmpiricalMeasure,
    FitDegeneracyError,
    WalkConfig,
    manning_dimension,
    natural_measure,
    sample_harmonic_measure,
)

from test_curvature import golden_repeller

LOG2_OVER_LOG3 = math.log(2.0) / math.log(3.0)


def bernoulli_measure(rep, depth: int, p) -> EmpiricalMeasure:
    """Product measure with letter distribution p on the depth-k cylinders."""
    cs = rep.cylinders(depth)
    p = np.asarray(p, dtype=float)
    w = np.prod(p[cs.codes.astype(int)], axis=1)
    return EmpiricalMeasure(codes=cs.codes, points=cs.centers, weights=w,
                            shape_name=rep.name)


def mass_table(rep, em, k: int) -> dict:
    """Generation-k cylinder masses keyed by code prefix."""
    prof = CylinderProfile(rep, em, k)
    return {tuple(int(c) for c in word): float(m)
            for word, m in zip(prof.prefixes[k - 1], prof.masses[k - 1])}


def entropy_rates(rep, em, kmax: int, correction: bool = True) -> list:
    """Per-letter entropies H_k / k for k = 1..kmax."""
    prof = CylinderProfile(rep, em, kmax, correction)
    return list(prof.entropy / np.array(prof.ks))


def lyapunov_rates(rep, em, kmax: int) -> list:
    """Per-letter stretching rates L_k / k for k = 1..kmax."""
    prof = CylinderProfile(rep, em, kmax)
    return list(prof.stretching / np.array(prof.ks))


# -- cylinder masses ---------------------------------------------------------


def test_cylinder_masses_uniform(corner):
    prof = CylinderProfile(corner, natural_measure(corner, 3), 2)
    assert prof.ks[-1] == 2
    assert len(prof.prefixes[1]) == len(prof.masses[1]) == 16
    assert prof.masses[1].sum() == pytest.approx(1.0, abs=1e-12)
    assert all(v == pytest.approx(1.0 / 16.0, abs=1e-15) for v in prof.masses[1])


def test_cylinder_masses_match_direct_grouping(corner, corner_em_100k):
    table = mass_table(corner, corner_em_100k, 3)
    expected = {}
    for code, w in zip(corner_em_100k.codes[:, :3], corner_em_100k.weights):
        key = tuple(int(c) for c in code)
        expected[key] = expected.get(key, 0.0) + float(w)
    assert set(table) == set(expected)
    for key, mass in expected.items():
        assert table[key] == pytest.approx(mass, abs=1e-14)


def test_cylinder_masses_are_consistent_across_generations(corner, corner_em_100k):
    coarse = mass_table(corner, corner_em_100k, 2)
    fine = mass_table(corner, corner_em_100k, 3)
    regrouped = {}
    for code, mass in fine.items():
        regrouped[code[:2]] = regrouped.get(code[:2], 0.0) + mass
    for key, mass in coarse.items():
        assert regrouped[key] == pytest.approx(mass, abs=1e-12)


def test_cylinder_masses_depth_gate(corner):
    em = natural_measure(corner, 3)
    with pytest.raises(DepthError):
        CylinderProfile(corner, em, 0)
    with pytest.raises(DepthError):
        CylinderProfile(corner, em, 4)


# -- entropy ---------------------------------------------------------------------


def test_entropy_of_uniform_measure_is_log_fan(corner, thirds):
    for rep, fan in ((corner, 4), (thirds, 2)):
        em = natural_measure(rep, 4)
        hs = entropy_rates(rep, em, 4)
        assert hs == pytest.approx([math.log(fan)] * 4, abs=1e-12)


def test_entropy_of_concentrated_measure_is_zero(corner):
    em = EmpiricalMeasure(
        codes=np.zeros((4, 3), dtype=np.uint8),
        points=np.zeros(4, dtype=complex) + np.arange(4) * 1e-3,
        weights=np.full(4, 0.25),
    )
    assert entropy_rates(corner, em, 3) == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)


def test_entropy_of_bernoulli_product_measure(thirds):
    h1 = 0.5623351446188083
    em = bernoulli_measure(thirds, 4, (0.25, 0.75))
    hs = entropy_rates(thirds, em, 4)
    assert hs == pytest.approx([h1] * 4, abs=1e-12)


def test_entropy_bounds_on_sampled_measure(corner, corner_em_100k):
    hs = entropy_rates(corner, corner_em_100k, 5)
    for k, h in enumerate(hs, start=1):
        assert 0.0 <= h <= math.log(4.0) + 1.0 / k


def test_miller_madow_correction_term(corner):
    em = natural_measure(corner, 2)
    counted = dataclasses.replace(em, samples=1000)
    plain = entropy_rates(corner, em, 2)
    corrected = entropy_rates(corner, counted, 2)
    uncorrected = entropy_rates(corner, counted, 2, correction=False)
    assert plain == pytest.approx([math.log(4.0)] * 2, abs=1e-12)
    assert uncorrected == pytest.approx(plain, abs=1e-15)
    assert corrected[0] == pytest.approx(math.log(4.0) + 3.0 / 2000.0, abs=1e-12)
    assert corrected[1] == pytest.approx(math.log(4.0) + 15.0 / 4000.0, abs=1e-12)


# -- Lyapunov exponent -----------------------------------------------------------------


def test_lyapunov_equal_scales_is_constant(corner, thirds):
    em = natural_measure(thirds, 5)
    assert lyapunov_rates(thirds, em, 5) == pytest.approx(
        [math.log(3.0)] * 5, abs=1e-12
    )
    em4 = natural_measure(corner, 3)
    assert lyapunov_rates(corner, em4, 3) == pytest.approx(
        [math.log(4.0)] * 3, abs=1e-12
    )


def test_lyapunov_weights_unequal_scales():
    rep = golden_repeller()
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    em = natural_measure(rep, 4)
    lam = lyapunov_rates(rep, em, 4)
    expected = (2.0 - golden) * math.log(2.0)
    assert lam == pytest.approx([expected] * 4, abs=1e-12)
    uniform = EmpiricalMeasure(
        codes=em.codes, points=em.points,
        weights=np.full(em.atom_count, 1.0 / em.atom_count),
    )
    lam1 = lyapunov_rates(rep, uniform, 1)[0]
    assert lam1 == pytest.approx(1.5 * math.log(2.0), abs=1e-12)


def test_lyapunov_depth_gate(corner):
    em = natural_measure(corner, 3)
    with pytest.raises(DepthError):
        lyapunov_rates(corner, em, 4)
    with pytest.raises(DepthError):
        lyapunov_rates(corner, em, 0)


# -- dimension ---------------------------------------------------------------------------


def test_dimension_of_exact_natural_measures(corner, thirds):
    est = manning_dimension(thirds, natural_measure(thirds, 6))
    assert est.dim == pytest.approx(LOG2_OVER_LOG3, abs=1e-12)
    assert est.ci == (est.dim, est.dim)
    assert est.fit_ks == (2, 3, 4, 5, 6)
    assert est.dim_k == pytest.approx([LOG2_OVER_LOG3] * 6, abs=1e-12)
    est4 = manning_dimension(corner, natural_measure(corner, 5))
    assert est4.dim == pytest.approx(1.0, abs=1e-12)


def test_dimension_of_golden_natural_measure():
    rep = golden_repeller()
    est = manning_dimension(rep, natural_measure(rep, 6))
    assert est.dim == pytest.approx(0.6942419136306174, abs=1e-12)


def test_dimension_of_bernoulli_measure(thirds):
    h1 = 0.5623351446188083
    em = bernoulli_measure(thirds, 5, (0.25, 0.75))
    est = manning_dimension(thirds, em)
    assert est.dim == pytest.approx(h1 / math.log(3.0), abs=1e-12)
    assert est.dim < LOG2_OVER_LOG3


def test_dimension_of_sampled_corner_measure(corner, corner_em_100k):
    est = manning_dimension(corner, corner_em_100k, seed=0)
    assert 0.85 < est.dim < 0.92
    assert est.ci[0] < est.dim < est.ci[1]
    assert est.ci[1] - est.ci[0] < 0.02
    assert est.ci[1] < 1.0
    assert all(k >= 2 for k in est.fit_ks)
    assert len(est.ks) == corner_em_100k.code_depth


def test_dimension_bootstrap_needs_enough_walks(corner):
    em = sample_harmonic_measure(corner, WalkConfig(samples=5000, seed=1))
    with pytest.raises(BootstrapError):
        manning_dimension(corner, em)


def test_dimension_fit_needs_two_usable_generations(corner, thirds):
    with pytest.raises(FitDegeneracyError):
        manning_dimension(corner, natural_measure(corner, 3), kmax=1)
    em = sample_harmonic_measure(thirds, WalkConfig(samples=300, seed=1))
    with pytest.raises(FitDegeneracyError):
        manning_dimension(thirds, em)
