"""End-to-end acceptance checks against independent closed-form oracles.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(run with -s to see the lines for passing tests).
"""

import math

import numpy as np
import pytest
from scipy import stats

from cantorlab import (
    Circle,
    Segment,
    SinglePoint,
    comparability_fit,
    covering_counts,
    curvature_energy,
    default_r_grid,
    green_model,
    manning_dimension,
    maximal_cauchy,
    menger_curvature,
    natural_measure,
    cauchy_transform,
    shell_integral_sums,
)
from cantorlab.lab import ExperimentConfig, run_experiment
from cantorlab.potential import rng_stream

from _oracles import arcsine_cdf, energy_numpy_loop, weighted_ks_distance

LOG2_OVER_LOG3 = math.log(2.0) / math.log(3.0)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_circle_oracle_suite(circle_em):
    """Uniform angles, unit capacity, G(e) = 1, comparability exponent 1."""
    shape = Circle()
    edges = np.linspace(-math.pi, math.pi, 37)
    obs, _ = np.histogram(
        np.angle(circle_em.points), bins=edges,
        weights=circle_em.weights * circle_em.samples,
    )
    _, centers, _ = shape.atoms(circle_em.code_depth)
    per_bin, _ = np.histogram(np.angle(centers), bins=edges)
    exp = per_bin / len(centers) * circle_em.samples
    chi2 = float(np.sum((obs - exp) ** 2 / exp))
    threshold = float(stats.chi2.ppf(0.999, len(edges) - 2))

    model = green_model(circle_em, shape, seed=1)
    g_e = model.green(math.e)
    fit = comparability_fit(model, shape, n_points=200, depth_range=(0.01, 0.1),
                            seed=1)
    ok = (
        chi2 < threshold
        and abs(model.capacity - 1.0) <= 0.02
        and abs(g_e - 1.0) <= 0.02
        and abs(fit.delta_hat - 1.0) <= 0.05
    )
    report(
        1, ok,
        f"chi2={chi2:.2f}<{threshold:.2f}, capacity={model.capacity:.4f}, "
        f"G(e)={g_e:.4f}, delta_hat={fit.delta_hat:.4f}",
    )


def test_criterion_2_segment_oracle_suite(segment_em):
    """Arcsine hitting law, capacity 1/2, G(2) = log(2 + sqrt 3)."""
    ks = weighted_ks_distance(segment_em.points.real, segment_em.weights,
                              arcsine_cdf)
    model = green_model(segment_em, Segment(), seed=2)
    g2 = model.green(2.0)
    g2_exact = math.log(2.0 + math.sqrt(3.0))
    ok = (
        ks < 0.01
        and abs(model.capacity - 0.5) <= 0.02
        and abs(g2 - g2_exact) <= 0.03
    )
    report(
        2, ok,
        f"KS={ks:.5f}, capacity={model.capacity:.4f}, "
        f"G(2)={g2:.4f} vs {g2_exact:.4f}",
    )


def test_criterion_3_menger_kernel_unit_suite():
    """Kernel values on known triangles plus permutation and scaling laws."""
    third = complex(0.5, math.sqrt(3.0) / 2.0)
    collinear_ok = menger_curvature(0j, 0.25 + 0j, 1.0 + 0j) == 0.0
    equilateral_ok = abs(menger_curvature(0j, 1.0 + 0j, third) - math.sqrt(3.0)) < 1e-12
    isoceles_ok = abs(menger_curvature(0j, 1.0 + 0j, 1j) - math.sqrt(2.0)) < 1e-12

    rng = rng_stream(21, 0)
    pts = rng.normal(size=(10_000, 3)) + 1j * rng.normal(size=(10_000, 3))
    base = menger_curvature(pts[:, 0], pts[:, 1], pts[:, 2])
    perm = menger_curvature(pts[:, 1], pts[:, 2], pts[:, 0])
    lam = 1.5 - 2.0j
    scaled = menger_curvature(lam * pts[:, 0], lam * pts[:, 1], lam * pts[:, 2])
    perm_err = float(np.max(np.abs(perm - base)))
    scale_err = float(np.max(np.abs(scaled * abs(lam) - base)))
    ok = (
        collinear_ok and equilateral_ok and isoceles_ok
        and perm_err < 1e-10 and scale_err < 1e-10
    )
    report(
        3, ok,
        f"collinear=0 {collinear_ok}, sqrt3/sqrt2 exact, "
        f"perm_err={perm_err:.2e}, scale_err={scale_err:.2e}",
    )


def test_criterion_4_curvature_divergence(corner):
    """Exact energies at generations 2..5 via two routes; growing increments."""
    values, max_rel = [], 0.0
    for k in range(2, 6):
        em = natural_measure(corner, k)
        main = curvature_energy(em, threads=4).value
        check = energy_numpy_loop(em.points, em.weights)
        max_rel = max(max_rel, abs(main - check) / check)
        values.append(main)
    increments = [values[i + 1] - values[i] for i in range(3)]
    floor = 0.5 * increments[1]
    ok = (
        max_rel <= 1e-10
        and all(d > 0 for d in increments)
        and all(d >= floor for d in increments)
    )
    report(
        4, ok,
        f"route_gap={max_rel:.2e}, energies={[round(v, 4) for v in values]}, "
        f"increments={[round(d, 4) for d in increments]} all >= {floor:.4f}",
    )


def test_criterion_5_dimension_gap(corner, corner_em_1m):
    """Harmonic-measure dimension interval strictly below 1; control at 1."""
    est = manning_dimension(corner, corner_em_1m, seed=0)
    control = manning_dimension(corner, natural_measure(corner, 5))
    ok = est.ci[1] < 1.0 and abs(control.dim - 1.0) <= 0.01
    report(
        5, ok,
        f"dim={est.dim:.5f}, ci=({est.ci[0]:.5f}, {est.ci[1]:.5f}) < 1, "
        f"control={control.dim:.5f}",
    )


def test_criterion_6_regularity_and_shell_sums(thirds):
    """Covering growth exponent, shell-sum decay ratio, point-fixture integral."""
    rep_fit = covering_counts(thirds, a=3.0, kmax=8)
    delta_err = abs(rep_fit.delta_reg - LOG2_OVER_LOG3)

    shells = shell_integral_sums(thirds, delta=LOG2_OVER_LOG3, a=3.0, kmax=8)
    ratio_bound = 3.0 ** (-LOG2_OVER_LOG3**2 + 0.1)
    worst_ratio = max(shells.ratios)

    point = shell_integral_sums(SinglePoint(), delta=0.5, a=2.0, kmax=12)
    exact = 2.0 * math.pi / 0.75
    point_err = abs(point.total - exact) / exact

    ok = delta_err <= 0.05 and worst_ratio <= ratio_bound and point_err < 0.01
    report(
        6, ok,
        f"delta_reg_err={delta_err:.4f}, decay={worst_ratio:.4f}<="
        f"{ratio_bound:.4f}, point_integral_err={point_err:.5f}",
    )


def test_criterion_7_determinism_across_threads(tmp_path):
    """Identical config and seed give byte-identical files at 1, 4, 8 threads."""
    manifests = {}
    for threads in (1, 4, 8):
        out = tmp_path / f"t{threads}"
        cfg = ExperimentConfig(
            experiment="dimension-gap", shape="corner4", seed=1,
            samples=20_000, threads=threads, out=str(out),
        )
        manifests[threads] = run_experiment(cfg)
    rerun = run_experiment(
        ExperimentConfig(
            experiment="dimension-gap", shape="corner4", seed=1,
            samples=20_000, threads=4, out=str(tmp_path / "t4"),
        ),
        force=True,
    )
    hashes = {t: m.config_hash for t, m in manifests.items()}
    files_equal = (
        manifests[1].files == manifests[4].files == manifests[8].files
        == rerun.files
    )
    ok = files_equal and len(set(hashes.values())) == 1
    report(
        7, ok,
        f"checksums identical over threads 1/4/8 and re-run: {files_equal}, "
        f"config_hash={manifests[1].config_hash[:12]}",
    )


def test_criterion_8_maximal_cauchy_stability(corner, corner_em_100k,
                                              corner_em_200k):
    """Truncated-transform maxima stable under walk doubling; far-field law."""
    centers = corner.cylinders(4).centers
    pts = centers[:: len(centers) // 100][:100]
    rel = np.array([
        abs(
            maximal_cauchy(corner_em_200k, complex(z))
            - maximal_cauchy(corner_em_100k, complex(z))
        ) / maximal_cauchy(corner_em_100k, complex(z))
        for z in pts
    ])

    rng = rng_stream(11, 1)
    far = rng.uniform(10.0, 100.0, 1000) * np.exp(
        2j * math.pi * rng.uniform(0.0, 1.0, 1000)
    )
    vals = cauchy_transform(corner_em_100k, far)
    err = np.abs(far * vals - 1.0)
    bound = 2.0 * corner_em_100k.diameter / np.abs(far)
    far_ok = bool((err < bound).all())

    ok = len(pts) == 100 and float(rel.max()) < 0.10 and far_ok
    report(
        8, ok,
        f"max_change={rel.max():.4f}<0.10 over {len(pts)} atoms, "
        f"far_field_margin={(err / bound).max():.3f}",
    )
