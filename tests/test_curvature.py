"""Menger curvature kernel, triple-integral energies, Cauchy transforms."""

import math
import tracemalloc
from math import comb

import numpy as np
import pytest

from cantorlab import (
    ExperimentConfig,
    Repeller,
    ResourceLimitError,
    SingularityError,
    SimilarityMap,
    cauchy_transform,
    cauchy_truncations,
    curvature_energy,
    curvature_profile,
    default_r_grid,
    natural_measure,
    run_experiment,
)
from cantorlab import curvature
from cantorlab.potential import EmpiricalMeasure, WalkConfig, rng_stream, sample_harmonic_measure

import _oracles
from _oracles import (
    curvature_squared,
    energy_numpy_loop,
    energy_python_loop,
    maximal_cauchy,
    menger_curvature,
    tree_spacing,
    triple_slice_energy,
)
from test_potential import uniform_circle_measure


def golden_repeller():
    return Repeller(
        [SimilarityMap(0.5, 0.0, -0.5 + 0j), SimilarityMap(0.25, 0.0, 0.75 + 0j)],
        root_center=0j,
        root_radius=1.3,
    )


def rotated_repeller():
    """Three maps with unequal scales and rotations: no line and no symmetry."""
    return Repeller(
        [
            SimilarityMap(0.3, 0.4, 0.6 + 0j),
            SimilarityMap(0.3, -0.2, -0.3 + 0.5j),
            SimilarityMap(0.25, 1.0, -0.3 - 0.5j),
        ],
        root_center=0j,
        root_radius=1.0,
    )


def atoms(points, weights):
    return EmpiricalMeasure(
        codes=np.zeros((len(points), 1), dtype=np.uint8),
        points=np.asarray(points, dtype=complex),
        weights=np.asarray(weights, dtype=float),
        shape_name="atoms",
    )


# -- kernel -------------------------------------------------------------------


def test_collinear_points_have_zero_curvature():
    assert menger_curvature(0j, 0.5 + 0j, 1.0 + 0j) == 0.0
    assert menger_curvature(1j, 2j, 5j) == 0.0


def test_equilateral_triangle_curvature():
    third = complex(0.5, math.sqrt(3.0) / 2.0)
    assert menger_curvature(0j, 1.0 + 0j, third) == pytest.approx(
        math.sqrt(3.0), rel=1e-12
    )


def test_right_isoceles_curvature_is_inverse_circumradius():
    assert menger_curvature(0j, 1.0 + 0j, 1j) == pytest.approx(
        math.sqrt(2.0), rel=1e-12
    )


def test_coincident_points_raise():
    with pytest.raises(SingularityError):
        menger_curvature(1j, 1j, 2j)


def test_kernel_matches_area_formula_and_symmetries():
    rng = rng_stream(21, 0)
    pts = rng.normal(size=(10_000, 3)) + 1j * rng.normal(size=(10_000, 3))
    c = menger_curvature(pts[:, 0], pts[:, 1], pts[:, 2])
    expected = np.array(
        [curvature_squared(u, v, w) for u, v, w in pts]
    )
    assert np.allclose(c**2, expected, rtol=1e-10, atol=1e-12)
    permuted = menger_curvature(pts[:, 2], pts[:, 0], pts[:, 1])
    assert np.allclose(c, permuted, rtol=1e-12)
    scaled = menger_curvature(2.5 * pts[:, 0], 2.5 * pts[:, 1], 2.5 * pts[:, 2])
    assert np.allclose(scaled, c / 2.5, rtol=1e-12)


# -- exact energy ----------------------------------------------------------------


def test_four_corner_generation_one_energy(corner):
    est = curvature_energy(natural_measure(corner, 1))
    assert est.triples == 4
    assert est.value == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_collinear_measure_has_zero_energy(thirds):
    est = curvature_energy(natural_measure(thirds, 3))
    assert est.value == 0.0


def test_uniform_circle_energy_counts_triples():
    em = uniform_circle_measure(0)
    em50 = em.__class__(
        codes=np.zeros((50, 1), dtype=np.uint8),
        points=np.exp(2j * np.pi * np.arange(50) / 50.0),
        weights=np.full(50, 0.02),
        shape_name="circle",
    )
    est = curvature_energy(em50)
    expected = 6.0 * comb(50, 3) / 50.0**3
    assert est.value == pytest.approx(expected, rel=1e-12)


def test_exact_energy_agrees_with_independent_loops(corner):
    em = natural_measure(corner, 2)
    est = curvature_energy(em)
    assert est.value == pytest.approx(energy_python_loop(em.points, em.weights),
                                      rel=1e-12)
    # rotated maps put the atoms off any line, so the energy is not zero
    em_uneven = natural_measure(rotated_repeller(), 3)
    assert len(set(np.round(em_uneven.weights, 12))) > 1
    est2 = curvature_energy(em_uneven)
    assert est2.value > 0.0
    assert est2.value == pytest.approx(
        energy_python_loop(em_uneven.points, em_uneven.weights), rel=1e-12
    )
    assert est2.value == pytest.approx(
        energy_numpy_loop(em_uneven.points, em_uneven.weights), rel=1e-12
    )


def test_exact_energy_matches_the_triple_sum_it_replaced(corner, thirds):
    cases = [natural_measure(corner, k) for k in range(1, 6)]
    cases += [natural_measure(golden_repeller(), k) for k in range(2, 9)]
    cases += [natural_measure(rotated_repeller(), k) for k in range(1, 7)]
    rng = rng_stream(31, 0)
    for n in (50, 300):
        w = rng.uniform(0.1, 1.0, size=n)
        cases.append(atoms(rng.normal(size=n) + 1j * rng.normal(size=n), w / w.sum()))
    for em in cases:
        value = curvature_energy(em).value
        oracle = triple_slice_energy(em.points, em.weights)
        assert abs(value - oracle) <= 1e-12 * oracle
    for k in range(2, 11):
        assert curvature_energy(natural_measure(thirds, k)).value == 0.0
    vertical = 0.3 + 1j * np.linspace(-1.0, 1.0, 200)
    assert curvature_energy(atoms(vertical, np.full(200, 1 / 200))).value == 0.0


@pytest.mark.parametrize("name", ["corner4", "rotated"])
def test_branch_energy_is_the_parent_energy_over_the_squared_ratio(name, corner):
    rep, kmax = (corner, 7) if name == "corner4" else (rotated_repeller(), 5)
    for k in range(2, kmax + 1):
        parent = curvature_energy(natural_measure(rep, k - 1)).value
        em = natural_measure(rep, k)
        for i, branch in enumerate(rep.branches):
            keep = em.codes[:, 0] == i
            w = em.weights[keep]
            part = curvature_energy(atoms(em.points[keep], w / w.sum())).value
            assert part == pytest.approx(parent / branch.scale**2, rel=1e-12)


def test_exact_energy_rejects_coincident_atoms(corner):
    em = natural_measure(corner, 2)
    w = np.append(em.weights, em.weights[5])
    with pytest.raises(SingularityError):
        curvature_energy(atoms(np.append(em.points, em.points[5]), w / w.sum()))


def uneven_clouds():
    rng = rng_stream(31, 0)
    for n in (50, 300, 1001):
        w = rng.uniform(0.1, 1.0, size=n)
        yield atoms(rng.normal(size=n) + 1j * rng.normal(size=n), w / w.sum())


def last_block_rows(n, block):
    """Rows of the last row block, and the rows the pair cap would allow it."""
    lo = 0
    while True:
        rows = max(1, block // (n - lo))
        if lo + rows >= n:
            return n - lo, rows
        lo += rows


def test_half_pair_energy_matches_the_ordered_pair_sum(corner, monkeypatch):
    cases = [natural_measure(corner, k) for k in range(1, 7)]
    cases += [natural_measure(golden_repeller(), k) for k in range(2, 9)]
    cases += [natural_measure(rotated_repeller(), k) for k in range(1, 7)]
    cases += list(uneven_clouds())
    # 1,001 atoms end on a partial row block: 212 rows where 309 would fit
    rows, cap = last_block_rows(1001, curvature.ATOM_BLOCK)
    assert rows < cap
    for em in cases:
        oracle = _oracles.ordered_pair_energy(em.points, em.weights)
        assert abs(curvature_energy(em).value - oracle) <= 1e-13 * abs(oracle)
    # many blocks, each with a masked diagonal square
    monkeypatch.setattr(curvature, "ATOM_BLOCK", 256)
    for em in [natural_measure(rotated_repeller(), 4), *uneven_clouds()]:
        oracle = _oracles.ordered_pair_energy(em.points, em.weights)
        assert abs(curvature_energy(em).value - oracle) <= 1e-13 * abs(oracle)


def test_half_pair_energy_is_zero_on_lines_and_rejects_coincident_atoms(monkeypatch):
    monkeypatch.setattr(curvature, "ATOM_BLOCK", 256)
    t = np.linspace(-1.0, 1.0, 40)
    w = np.full(40, 1 / 40)
    assert curvature_energy(atoms(t + 0.25j, w)).value == 0.0
    assert curvature_energy(atoms(0.3 + 1j * t, w)).value == 0.0
    # 40 atoms at 256 pairs: the first row block holds rows 0..5
    z = np.exp(1j * t)
    for i, j in [(1, 4), (2, 30)]:  # inside the first diagonal square; rows apart
        hit = z.copy()
        hit[j] = hit[i]
        with pytest.raises(SingularityError):
            curvature_energy(atoms(hit, w))


def test_exact_energy_holds_cache_sized_blocks(corner):
    em = natural_measure(corner, 6)
    tracemalloc.start()
    try:
        curvature_energy(em)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * curvature.ATOM_BLOCK * 8


def test_exact_energy_thread_count_is_invisible(tmp_path):
    files = {}
    for threads in (1, 4):
        out = tmp_path / f"t{threads}"
        manifest = run_experiment(ExperimentConfig(
            experiment="curvature-profile", shape="corner4", seed=1,
            threads=threads, out=str(out), params={"kmax": 4},
        ))
        files[threads] = {name: (out / name).read_bytes() for name in manifest.files}
    assert "curvature.csv" in files[1]
    assert files[1] == files[4]


def test_exact_mode_atom_cap(corner, monkeypatch):
    # the profile refuses generation 8 (65,536 atoms) before any sum starts
    calls = []
    monkeypatch.setattr(curvature, "_exact_energy", lambda *a: calls.append(a))
    with pytest.raises(ResourceLimitError):
        curvature_profile(corner, 8)
    assert calls == []
    with pytest.raises(ResourceLimitError):
        curvature_energy(natural_measure(corner, 8))
    assert calls == []


def test_energy_needs_three_atoms(corner):
    with pytest.raises(ValueError):
        curvature_energy(natural_measure(corner, 0))


# -- generation profile ---------------------------------------------------------------


def test_profile_grows_on_plane_filling_corners(corner):
    prof = curvature_profile(corner, 3)
    assert prof.ks == (1, 2, 3)
    assert prof.values[0] == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert all(d > 0 for d in np.diff(prof.values))


def test_profile_stays_zero_on_a_line(thirds):
    prof = curvature_profile(thirds, 4)
    assert prof.ks == (2, 3, 4)
    assert prof.values == (0.0, 0.0, 0.0)


def test_profile_skips_generations_with_too_few_atoms():
    prof = curvature_profile(golden_repeller(), 3)
    assert prof.ks == (2, 3)


# -- Cauchy transform -------------------------------------------------------------------


def test_cauchy_transform_closed_form_on_circle():
    em = uniform_circle_measure(6)
    n = em.atom_count
    for z in (2.0 + 0j, 1.2 + 0.7j, -0.2 + 0.1j):
        expected = z ** (n - 1) / (z**n + 1.0)
        assert cauchy_transform(em, z) == pytest.approx(expected, rel=1e-12)
    zs = np.array([2.0 + 0j, 3.0 + 1j])
    vals = cauchy_transform(em, zs)
    assert vals.shape == (2,)
    assert vals[0] == pytest.approx(cauchy_transform(em, zs[0]), rel=1e-14)


def test_cauchy_transform_rejects_atom_hit():
    em = uniform_circle_measure(4)
    with pytest.raises(SingularityError):
        cauchy_transform(em, complex(em.points[0]))


def test_truncation_grid_spans_spacing_to_diameter(corner):
    em = natural_measure(corner, 3)
    grid = default_r_grid(em)
    assert np.allclose(grid[1:] / grid[:-1], 2.0)
    assert grid[-1] >= em.diameter
    pts = em.points
    gaps = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(gaps, np.inf)
    assert grid[0] == pytest.approx(gaps.min(), rel=1e-12)


@pytest.mark.parametrize("name", ["corner_em_100k", "corner_em_200k", "circle_em", "segment_em", "natural"])
def test_truncation_grid_starts_at_the_kd_tree_spacing(name, request, corner):
    em = natural_measure(corner, 5) if name == "natural" else request.getfixturevalue(name)
    grid = default_r_grid(em)
    assert grid[0] == tree_spacing(em.points)
    assert grid[0] > 1e-300


def test_truncation_grid_floors_coincident_atoms_without_cells(monkeypatch):
    def no_cells(z, reach):
        raise AssertionError("close_pairs called for coincident atoms")

    monkeypatch.setattr(curvature, "close_pairs", no_cells)
    em = EmpiricalMeasure(codes=np.zeros((3, 1)), points=[0.5j, 1.0, 0.5j], weights=np.ones(3))
    grid = default_r_grid(em)
    assert grid[0] == tree_spacing(em.points) == 1e-300
    assert grid[-1] >= em.diameter


def test_truncations_interpolate_full_and_empty_sums(corner):
    em = natural_measure(corner, 3)
    z = 2.0 + 0.5j
    r_grid = np.array([1e-9, 10.0])
    _, vals = cauchy_truncations(em, z, r_grid)
    assert vals[0] == pytest.approx(cauchy_transform(em, z), rel=1e-12)
    assert vals[1] == 0.0


def test_truncations_match_direct_masked_sums(corner):
    em = natural_measure(corner, 3)
    z = complex(em.points[5]) + 0.01 + 0.003j
    r_grid = default_r_grid(em)
    _, vals = cauchy_truncations(em, z, r_grid)
    for r, v in zip(r_grid, vals):
        keep = np.abs(em.points - z) > r
        direct = np.sum(em.weights[keep] / (z - em.points[keep]))
        assert v == pytest.approx(direct, abs=1e-12)


def test_truncations_tolerate_atom_hit(corner):
    em = natural_measure(corner, 2)
    z = complex(em.points[3])
    r_grid, vals = cauchy_truncations(em, z)
    assert np.isfinite(vals).all()
    keep = np.abs(em.points - z) > r_grid[0]
    direct = np.sum(em.weights[keep] / (z - em.points[keep]))
    assert vals[0] == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("name", ["walks", "natural"])
def test_truncations_match_the_sorted_suffix_sums(name, corner):
    """Binned truncations are the sorted suffix sums, at atoms too, and an
    array of points gives each point the bits it gets alone."""
    if name == "walks":
        em = sample_harmonic_measure(corner, WalkConfig(samples=25_000, seed=1))
    else:
        em = natural_measure(corner, 3)
    rng = rng_stream(5, 0)
    atoms = em.points[rng.choice(em.atom_count, 20, replace=False)]
    zs = np.concatenate([atoms, atoms[:10] + 0.003 + 0.001j, [2.0 + 0.5j]])
    r_grid = default_r_grid(em)
    tracemalloc.start()
    try:
        _, vals = cauchy_truncations(em, zs, r_grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if name == "walks":
        # 8 points a block on 7,948 atoms: the separations, their moduli and
        # the bin keys (2.0 MB), not a second complex array of terms (3.7 MB)
        assert em.atom_count == 7948
        assert peak < 2.5e6
    assert vals.shape == (len(zs), len(r_grid))
    for z, row in zip(zs, vals):
        assert np.array_equal(cauchy_truncations(em, z, r_grid)[1], row)
        ref = _oracles.sorted_truncations(em, z, r_grid)
        assert np.abs(row - ref).max() <= 1e-12 * np.abs(ref).max()
    # radii equal to atom distances: an atom counts only strictly beyond one
    z = atoms[0]
    exact = np.unique(np.abs(em.points - z))[:6]
    _, vals = cauchy_truncations(em, z, exact)
    ref = _oracles.sorted_truncations(em, z, exact)
    assert np.abs(vals - ref).max() <= 1e-12 * np.abs(ref).max()


def test_maximal_cauchy_is_grid_maximum(corner):
    em = natural_measure(corner, 3)
    z = 0.31 + 0.17j
    r_grid = default_r_grid(em)
    _, vals = cauchy_truncations(em, z, r_grid)
    assert maximal_cauchy(em, z, r_grid) == pytest.approx(
        np.max(np.abs(vals)), rel=1e-14
    )
