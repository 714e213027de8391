"""Cylinder hierarchy, certified distances, covering counts, shell sums."""

import itertools
import math

import numpy as np
import pytest
from scipy import ndimage

from cantorlab import (
    Circle,
    ConfigError,
    EscapeError,
    OverlapError,
    QuadratureError,
    Repeller,
    ResourceLimitError,
    Segment,
    SimilarityMap,
    SinglePoint,
    covering_counts,
    parse_repeller_spec,
    preset,
    shell_integral_sums,
    similarity_dimension,
)
from cantorlab.geometry import CYLINDER_CAP
from cantorlab.potential import rng_stream

from _oracles import covering_components, distance_interval

LOG2_OVER_LOG3 = math.log(2.0) / math.log(3.0)


# -- maps and construction ----------------------------------------------------


def test_similarity_map_applies_scale_rotation_translation():
    m = SimilarityMap(0.5, math.pi / 2.0, 1.0 + 2.0j)
    assert m(1.0 + 0j) == pytest.approx(1.0 + 2.5j)
    assert abs(m.factor) == pytest.approx(0.5)


@pytest.mark.parametrize("scale", [0.0, 1.0, -0.3, 1.7])
def test_similarity_map_rejects_bad_scale(scale):
    with pytest.raises(ValueError):
        SimilarityMap(scale)


def test_repeller_needs_two_branches():
    with pytest.raises(ValueError):
        Repeller([SimilarityMap(0.3)], 0j, 1.0)


def test_overlapping_branch_images_rejected():
    branches = [SimilarityMap(0.5, 0.0, 0j), SimilarityMap(0.5, 0.0, 0.5 + 0j)]
    with pytest.raises(OverlapError):
        Repeller(branches, 0.5 + 0j, 0.75)


def test_escaping_branch_image_rejected():
    branches = [SimilarityMap(0.3, 0.0, -0.5 + 0j), SimilarityMap(0.3, 0.0, 5.0 + 0j)]
    with pytest.raises(EscapeError):
        Repeller(branches, 0j, 1.0)


def test_repeller_keyword_constructor():
    rep = Repeller(
        [SimilarityMap(0.25, 0.0, 0j), SimilarityMap(0.25, 0.0, 0.75 + 0j)],
        root_center=0.5 + 0j,
        root_radius=1.0,
        name="pair",
    )
    assert rep.fan == 2
    assert rep.name == "pair"


# -- presets -------------------------------------------------------------------


def test_corner_preset_geometry(corner):
    assert corner.fan == 4
    assert similarity_dimension(corner) == pytest.approx(1.0, abs=1e-12)


def test_middle_thirds_preset(thirds):
    assert thirds.fan == 2
    assert similarity_dimension(thirds) == pytest.approx(LOG2_OVER_LOG3, abs=1e-12)


def test_middle_alpha_preset_dimension():
    rep = preset("middle-alpha:0.25")
    assert similarity_dimension(rep) == pytest.approx(0.5, abs=1e-12)


def test_two_scale_dimension_golden_ratio():
    rep = Repeller(
        [SimilarityMap(0.5, 0.0, -0.5 + 0j), SimilarityMap(0.25, 0.0, 0.75 + 0j)],
        root_center=0j,
        root_radius=1.3,
    )
    expected = math.log((1.0 + math.sqrt(5.0)) / 2.0) / math.log(2.0)
    assert similarity_dimension(rep) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.6942419136306174, abs=1e-15)


def test_unknown_preset_raises():
    with pytest.raises(ConfigError):
        preset("sierpinski")


def test_bad_middle_alpha_ratio_raises():
    with pytest.raises(OverlapError):
        preset("middle-alpha:0.8")
    with pytest.raises(ConfigError):
        preset("middle-alpha:1.2")
    with pytest.raises(ConfigError):
        preset("middle-alpha:xyz")


# -- cylinders -------------------------------------------------------------------


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_cylinder_cardinality(corner, k):
    assert len(corner.cylinders(k)) == 4**k


def test_cylinder_codes_lexicographic(thirds):
    cs = thirds.cylinders(3)
    expected = list(itertools.product(range(2), repeat=3))
    assert [cs.code(i) for i in range(len(cs))] == expected


def test_cylinder_radii_exact(corner):
    cs = corner.cylinders(3)
    assert np.allclose(cs.radii, corner.root_radius * 0.25**3, rtol=0, atol=0)


def test_cylinder_nesting(thirds):
    for k in range(6):
        parents = thirds.cylinders(k)
        children = thirds.cylinders(k + 1)
        fan = thirds.fan
        for i in range(len(parents)):
            pc, pr = parents.centers[i], parents.radii[i]
            for j in range(i * fan, (i + 1) * fan):
                cc, cr = children.centers[j], children.radii[j]
                assert abs(cc - pc) + cr <= pr + 1e-12
                assert tuple(children.codes[j][:k]) == parents.code(i)


def test_cylinder_cap_enforced(corner):
    with pytest.raises(ResourceLimitError):
        corner.cylinders(11)
    with pytest.raises(ResourceLimitError):
        corner.atom_depth(1e-12)
    assert corner.fan**10 == CYLINDER_CAP


def test_atom_depth_monotone(thirds):
    assert thirds.atom_depth(0.75) == 0
    k = thirds.atom_depth(1e-3)
    assert thirds.max_cylinder_radius(k) <= 1e-3 < thirds.max_cylinder_radius(k - 1)


# -- certified distance -----------------------------------------------------------


def test_distance_interval_sound_against_brute_force(thirds):
    cs = thirds.cylinders(10)
    slack = float(cs.radii.max())
    rng = rng_stream(7, 100)
    z = rng.uniform(-1.0, 2.0, 1000) + 1j * rng.uniform(-1.5, 1.5, 1000)
    for zi in z:
        iv = distance_interval(thirds, complex(zi), tol=1e-6)
        brute = float(np.abs(zi - cs.centers).min())
        assert iv.lo <= iv.hi
        assert iv.hi - iv.lo <= 1e-6 + 1e-12
        assert iv.lo <= brute + slack
        assert iv.hi >= brute - slack


def test_leaf_field_brackets_distance(thirds):
    fld = thirds.field(1e-3)
    rng = rng_stream(8, 0)
    z = rng.uniform(-0.5, 1.5, 200) + 1j * rng.uniform(-1.0, 1.0, 200)
    lo, hi, leaf = fld.query(z)
    assert (lo <= hi).all()
    assert (hi - lo <= 2.0 * thirds.max_cylinder_radius(fld.depth) + 1e-12).all()
    assert leaf.min() >= 0 and leaf.max() < fld.leaf_count
    for zi, l, h in zip(z[:50], lo[:50], hi[:50]):
        iv = distance_interval(thirds, complex(zi), tol=1e-9)
        assert l <= iv.mid + 1e-9
        assert h >= iv.mid - 1e-9


def test_scaling_equivariance(thirds):
    lam = 2.5
    scaled = Repeller(
        [
            SimilarityMap(b.scale, b.rotation, lam * b.translation)
            for b in thirds.branches
        ],
        root_center=lam * thirds.root_center,
        root_radius=lam * thirds.root_radius,
    )
    base = thirds.cylinders(5)
    big = scaled.cylinders(5)
    assert np.allclose(big.radii, lam * base.radii, rtol=1e-12)
    assert np.allclose(big.centers, lam * base.centers, rtol=1e-12, atol=1e-12)
    for z in [0.3 + 0.4j, -1.0 + 0.1j, 2.0 - 0.5j]:
        iv = distance_interval(thirds, z, tol=1e-9)
        siv = distance_interval(scaled, lam * z, tol=lam * 1e-9)
        assert siv.lo == pytest.approx(lam * iv.lo, rel=1e-9, abs=1e-12)
        assert siv.hi == pytest.approx(lam * iv.hi, rel=1e-9, abs=1e-12)


# -- covering counts ---------------------------------------------------------------


@pytest.mark.parametrize(
    "name,a,counts,diam",
    [
        pytest.param("middle-thirds", 3.0, (1, 1, 2, 4, 8, 16, 32), 6.0, id="middle-thirds"),
        # the 2-d case: parent discs of diameter 8 a^-k plus the 2 eps halo
        pytest.param("corner4", 4.0, (1, 1, 4, 16, 64, 256, 1024), 10.0, id="corner4"),
    ],
)
def test_covering_counts_middle_thirds_sequence(name, a, counts, diam):
    rep = preset(name)
    cov = covering_counts(rep, a=a, kmax=6)
    assert cov.counts[0] == 1
    assert cov.counts[2] == rep.fan
    assert cov.counts == counts
    # a component is a parent cylinder of the previous scale plus the eps halo
    assert all(d <= diam * a ** (-k) for k, d in enumerate(cov.diameters) if k >= 1)
    assert cov.diameters[0] <= 3.5


@pytest.mark.parametrize(
    "name,a,kmax",
    [("corner4", 2.0, 4), ("middle-alpha:0.2", 5.0, 4), ("middle-thirds", 3.0, 5)],
)
def test_covering_counts_match_pairwise_union_find(name, a, kmax):
    rep = preset(name)
    cov = covering_counts(rep, a=a, kmax=kmax)
    for k in range(kmax + 1):
        assert (cov.counts[k], cov.diameters[k]) == covering_components(rep, a ** (-k))


def test_covering_component_count_matches_flood_fill(thirds):
    """Rasterized neighborhood components agree with the cylinder clustering."""
    eps = 3.0**-2
    h = 3.0**-5
    xs = np.arange(-0.2, 1.2, h)
    ys = np.arange(-0.2, 0.2, h)
    grid = xs[None, :] + 1j * ys[:, None]
    fld = thirds.field(3.0**-7)
    lo, hi, _ = fld.query(grid.ravel())
    mask = (0.5 * (lo + hi) < eps).reshape(grid.shape)
    _, n_components = ndimage.label(mask)
    cov = covering_counts(thirds, a=3.0, kmax=2)
    assert cov.counts[2] == n_components == 2


def test_covering_fit_matches_similarity_dimension(thirds):
    cov = covering_counts(thirds, a=3.0, kmax=8)
    assert abs(cov.delta_reg - LOG2_OVER_LOG3) < 0.05
    assert cov.c_count >= 1.0
    assert cov.kmax == 8


def test_covering_counts_validation(thirds, corner):
    with pytest.raises(ValueError):
        covering_counts(thirds, a=1.0, kmax=3)
    with pytest.raises(ValueError):
        covering_counts(thirds, a=3.0, kmax=0)
    with pytest.raises(ResourceLimitError):
        covering_counts(corner, a=4.0, kmax=9)


# -- config parsing -----------------------------------------------------------------


IFS_TEXT = """
# two maps on the unit interval
root = 0.5, 0.0, 0.75
branch = 0.3333333333333333, 0.0, 0.0, 0.0
branch = 0.3333333333333333, 0.0, 0.6666666666666666, 0.0
"""


def test_parse_repeller_spec_round_trip():
    rep = parse_repeller_spec(IFS_TEXT, name="thirds-file")
    assert rep.fan == 2
    assert rep.name == "thirds-file"
    assert similarity_dimension(rep) == pytest.approx(LOG2_OVER_LOG3, abs=1e-9)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("root = 0.5, 0.0, abc\nbranch = 0.3,0,0,0\nbranch = 0.3,0,0.7,0", "numeric"),
        ("root = 0.5, 0.0\nbranch = 0.3,0,0,0\nbranch = 0.3,0,0.7,0", "root"),
        ("root = 0.5,0,0.75\nbranch = 0.3,0,0\nbranch = 0.3,0,0.7,0", "branch"),
        ("root = 0.5,0,0.75\nwidget = 1\nbranch = 0.3,0,0,0", "unknown field"),
        ("branch = 0.3,0,0,0\nbranch = 0.3,0,0.7,0", "missing field 'root'"),
        ("root = 0.5,0,0.75\nbranch = 0.3,0,0,0", "at least 2"),
        ("just words\n", "key = value"),
    ],
)
def test_parse_repeller_spec_errors(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_repeller_spec(text)


# -- shell integral sums --------------------------------------------------------------


def test_shell_sums_validation(thirds):
    with pytest.raises(ValueError):
        shell_integral_sums(thirds, delta=1.0, a=3.0, kmax=2)
    with pytest.raises(ValueError):
        shell_integral_sums(thirds, delta=0.5, a=0.9, kmax=2)


def test_shell_sums_point_fixture_closed_form():
    report = shell_integral_sums(SinglePoint(), delta=0.5, a=2.0, kmax=8)
    # integrand |z|^(-5/4) over the unit disc: each shell contributes a
    # (1 - 2^(-3/4)) * 2^(-3k/4) share of the total 2*pi/(3/4)
    total_exact = 2.0 * math.pi / 0.75
    share = 1.0 - 2.0 ** (-0.75)
    for k, s in enumerate(report.sums):
        expected = total_exact * share * 2.0 ** (-0.75 * k)
        assert s == pytest.approx(expected, rel=0.02)
    assert max(report.ratios) < 1.0


def test_shell_sums_near_one_delta_still_summable(thirds):
    report = shell_integral_sums(thirds, delta=0.99, a=3.0, kmax=4)
    assert all(s > 0 for s in report.sums)
    assert max(report.ratios) < 1.0


# -- reference shapes -----------------------------------------------------------------


def test_circle_distance_and_domain():
    c = Circle(1.0 + 1.0j, 2.0)
    z = np.array([1.0 + 1.0j, 1.0 + 3.5j, 4.0 + 1.0j])
    assert np.allclose(c.distance(z), [2.0, 0.5, 1.0])
    assert list(c.in_outer_domain(z)) == [False, True, True]
    assert c.diameter == 4.0
    with pytest.raises(ValueError):
        Circle(0j, -1.0)


def test_segment_distance_and_atoms():
    s = Segment()
    z = np.array([0.0 + 1.0j, 2.0 + 0j, -3.0 + 0j])
    assert np.allclose(s.distance(z), [1.0, 1.0, 2.0])
    codes, centers, radii = s.atoms(3)
    assert len(centers) == 8
    assert np.allclose(centers.imag, 0.0)
    assert np.all(radii == s.piece_radius(3))
    assert s.in_outer_domain(z).all()
    with pytest.raises(ValueError):
        Segment(1j, 1j)


def test_single_point_shape():
    p = SinglePoint(0.5 + 0j, extent=2.0)
    assert p.diameter == 0.0
    assert p.bounding_radius == 2.0
    assert p.distance(np.array([2.5 + 0j]))[0] == pytest.approx(2.0)
    codes, centers, radii = p.atoms(5)
    assert len(centers) == 1 and radii[0] == 0.0


def test_repeller_diameter_bounded(corner, thirds):
    assert corner.diameter <= 2.0 * corner.root_radius
    assert thirds.diameter <= 2.0 * thirds.root_radius
    assert corner.diameter > 1.0
