"""Cylinder hierarchy, certified distances, covering counts, shell sums."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import ndimage
from scipy.spatial import cKDTree

from cantorlab import (
    Circle,
    ConfigError,
    CylinderSet,
    EscapeError,
    OverlapError,
    QuadratureError,
    Repeller,
    ResourceLimitError,
    Segment,
    SimilarityMap,
    SinglePoint,
    WalkConfig,
    covering_counts,
    parse_repeller_spec,
    potential,
    preset,
    resolve_shape,
    sample_harmonic_measure,
    shell_integral_sums,
    similarity_dimension,
)
from cantorlab.geometry import (
    SHELL_BASE_CELLS,
    SHELL_MAX_REFINE,
    _components,
    _covering_generation,
    _shell_quadratures,
    close_pairs,
)
from cantorlab.potential import rng_stream
from cantorlab.shapes import PIECE_CAP, words

from _oracles import (
    binary_codes,
    covering_components,
    csgraph_components,
    distance_interval,
    exact_leaf_index,
    exact_pieces,
    explicit_covering,
    first_level_gap,
    GridField,
    leaf_bounds,
    pairs_within,
    shell_quadrature,
    stacked_cylinders,
)
from test_curvature import golden_repeller, rotated_repeller

LOG2_OVER_LOG3 = math.log(2.0) / math.log(3.0)


def rotated_pair():
    """Two maps turned by pi/3: their cylinder centers fill no axis grid, so
    its distance fields keep the KD-tree search."""
    return Repeller(
        [
            SimilarityMap(0.3, math.pi / 3.0, -0.5 + 0j),
            SimilarityMap(0.3, math.pi / 3.0, 0.5 + 0j),
        ],
        root_center=0j,
        root_radius=1.0,
        name="rotated",
    )


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


def test_separation_check_names_the_first_offending_pair():
    # images 1 and 2 overlap and no other pair does
    maps = [SimilarityMap(0.2, 0.0, complex(t)) for t in (0.0, 1.0, 1.1)]
    message = r"images 1 and 2 overlap .* \(gap -5\.000e-01, required 1\.500e-09\)"
    with pytest.raises(OverlapError, match=message):
        Repeller(maps, 0.5, 1.5)
    # images 2 and 3 both leave the root disc, and 2 is named
    maps = [SimilarityMap(0.2, 0.0, complex(t)) for t in (0.0, 1.0, 3.0, -3.0)]
    message = r"image 2 is not strictly inside .* \(reach 2\.9 vs radius 1\.5\)"
    with pytest.raises(EscapeError, match=message):
        Repeller(maps, 0.5, 1.5)


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
    assert len(corner.atoms(k)) == 4**k


def test_cylinder_codes_lexicographic(thirds):
    cs = thirds.atoms(3)
    expected = list(itertools.product(range(2), repeat=3))
    assert [tuple(cs.codes[i]) for i in range(len(cs))] == expected


def test_cylinder_radii_exact(corner):
    cs = corner.atoms(3)
    assert np.allclose(cs.radii, corner.root_radius * 0.25**3, rtol=0, atol=0)


def test_cylinder_nesting(thirds):
    for k in range(6):
        parents = thirds.atoms(k)
        children = thirds.atoms(k + 1)
        fan = thirds.fan
        for i in range(len(parents)):
            pc, pr = parents.centers[i], parents.radii[i]
            for j in range(i * fan, (i + 1) * fan):
                cc, cr = children.centers[j], children.radii[j]
                assert abs(cc - pc) + cr <= pr + 1e-12
                assert tuple(children.codes[j][:k]) == tuple(parents.codes[i])


def test_cylinder_cap_enforced(corner):
    """The cap bounds tables, not depths: corner4's first generation over
    PIECE_CAP has no atoms, while its depth is plain geometry."""
    first_over = next(d for d in itertools.count() if corner.fan**d > PIECE_CAP)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=f"cap {PIECE_CAP}"):
            corner.atoms(first_over)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # 4^-20 < 1e-12 < 4^-19
    assert corner.atom_depth(1e-12) == 20


def test_exact_shape_piece_cap_enforced():
    """Exact fields build no table, so they take any depth; their atoms stop
    at PIECE_CAP pieces, refused before anything is allocated."""
    # stop_tol = 1e-5 bounding radii asks for fields at a quarter of it
    assert Circle().atom_depth(1e-5 / 4) == 21
    assert Segment().atom_depth(1e-5 / 4) == 19
    first_over = next(d for d in itertools.count() if 2**d > PIECE_CAP)
    rng = rng_stream(32, 0)
    for shape in (Circle(), Segment()):
        z = shape.bounding_center + 2.0 * shape.bounding_radius * (rng.random(64) - 0.5j)
        for radius in (shape.piece_radius(first_over), 1e-7 / 4):
            fld = shape.field(radius)
            assert fld.depth == shape.atom_depth(radius) >= first_over
            assert fld.leaf_count == 2**fld.depth
            assert np.array_equal(fld.query(z)[1], shape.distance(z))
            assert np.array_equal(fld.leaf(z), exact_leaf_index(shape, z, fld.depth))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=f"cap {PIECE_CAP}"):
                shape.atoms(first_over)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_atom_depth_monotone(thirds):
    assert thirds.atom_depth(0.75) == 0
    k = thirds.atom_depth(1e-3)
    assert thirds.piece_radius(k) <= 1e-3 < thirds.piece_radius(k - 1)


@pytest.mark.parametrize(
    "name, kmax", [("corner4", 9), ("middle-thirds", 15), ("golden", 13), ("rotated", 13)]
)
def test_cylinders_keep_the_bits_of_the_stacked_reference(name, kmax):
    rep = {"golden": golden_repeller, "rotated": rotated_pair}.get(name, lambda: preset(name))()
    for k in range(kmax + 1):
        cs = rep.atoms(k)
        codes, centers, radii = stacked_cylinders(rep, k)
        assert cs.codes.dtype == codes.dtype and np.array_equal(cs.codes, codes)
        assert cs.centers.tobytes() == centers.tobytes()
        assert cs.radii.tobytes() == radii.tobytes()


@pytest.mark.parametrize(
    "name",
    ["corner4", "middle-thirds", "middle-alpha:0.05", "middle-alpha:0.2", "middle-alpha:0.45",
     "golden", "rotated", "rotated-three"],
)
def test_kept_gap_is_the_first_level_gap(name):
    named = {"golden": golden_repeller, "rotated": rotated_pair, "rotated-three": rotated_repeller}
    rep = named.get(name, lambda: preset(name))()
    assert rep.first_level_gap.hex() == first_level_gap(rep).hex()


@pytest.mark.parametrize("name", ["circle", "segment", "point", "corner4", "golden"])
def test_atoms_are_one_cylinder_set_over_the_word_table(name):
    shape = golden_repeller() if name == "golden" else resolve_shape(name)
    for depth in range(7):
        cs = shape.atoms(depth)
        assert isinstance(cs, CylinderSet)
        assert len(cs) == len(cs.radii) == len(cs.codes) == shape.fan**depth
        assert np.array_equal(cs.codes, words(shape.fan, depth))


@pytest.mark.parametrize("name", ["circle", "segment", "point", "corner4", "golden"])
def test_field_leaves_group_into_atoms(name):
    """The sampler walks on field(r / 4) and bins its stopped walks into the
    atoms of generation atom_depth(r), leaf_count / fan**depth leaves each."""
    shape = golden_repeller() if name == "golden" else resolve_shape(name)
    for r in shape.bounding_radius * np.array([2.0, 0.3, 1e-2, 1e-3, 1e-4]):
        assert shape.field(r / 4.0).leaf_count % shape.fan ** shape.atom_depth(r) == 0


@pytest.mark.parametrize("shape", [Circle(), Circle(0.5 - 1j, 2.0), Segment(), Segment(-1 + 0.5j, 2 + 1j)])
def test_exact_pieces_keep_the_bits_of_their_formulas(shape):
    rng = rng_stream(12, 0)
    r = 2.0 * shape.bounding_radius
    z = shape.bounding_center + rng.uniform(-r, r, 2000) + 1j * rng.uniform(-r, r, 2000)
    # and the ends of every piece down to depth 15, and the bounding center
    ends = shape._center(np.arange((1 << 15) + 1), 1 << 15)
    z = np.concatenate([z, ends, [shape.bounding_center]])
    for depth in (0, 5, 15):
        cs = shape.atoms(depth)
        old_codes, old_centers, old_radii = exact_pieces(shape, depth)
        assert cs.codes.dtype == old_codes.dtype and np.array_equal(cs.codes, old_codes)
        assert cs.centers.tobytes() == old_centers.tobytes()
        assert cs.radii.tobytes() == old_radii.tobytes()
        assert np.array_equal(shape.leaf_index(z, depth), exact_leaf_index(shape, z, depth))


@pytest.mark.parametrize("shape", [Circle(), Segment()])
def test_exact_leaf_indices_past_int64_are_refused(shape):
    """At depth 62 the leaf index fits int64 and matches the oracle, the
    pieces' ends among the points; from depth 63 it is refused, where it
    wrapped to -2^63 with a RuntimeWarning and from depth 64 overflowed."""
    z = np.concatenate([shape._center(np.arange(9), 8), [shape.bounding_center + 0.3j]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(shape.leaf_index(z, 62), exact_leaf_index(shape, z, 62))
        for depth in (63, 69):
            with pytest.raises(ResourceLimitError, match=f"generation {depth}"):
                shape.leaf_index(z, depth)
        fld = shape.field(1e-20)
        assert fld.depth > 63
        with pytest.raises(ResourceLimitError, match="int64"):
            fld.leaf(z)


@pytest.mark.parametrize("fan", [2, 3, 4])
def test_word_table_is_the_lexicographic_product(fan):
    shape = {2: Circle(), 3: rotated_repeller(), 4: preset("corner4")}[fan]
    assert shape.fan == fan
    for depth in range(6):
        table = words(fan, depth)
        assert table.dtype == np.uint8 and table.shape == (fan**depth, depth)
        assert [tuple(w) for w in table] == list(itertools.product(range(fan), repeat=depth))
    assert np.array_equal(words(2, 12), binary_codes(12))


@pytest.mark.parametrize("name", ["circle", "segment", "corner4", "middle-thirds"])
def test_word_table_over_the_cap_is_refused_before_allocating(name):
    shape = resolve_shape(name)
    first_over = next(d for d in itertools.count() if shape.fan**d > PIECE_CAP)
    tracemalloc.start()
    try:
        for depth in (first_over, 64):
            for build in (lambda d: words(shape.fan, d), shape.atoms):
                with pytest.raises(ResourceLimitError, match=f"cap {PIECE_CAP}"):
                    build(depth)
        # a depth is geometry alone: atom_depth builds nothing, at any radius
        assert shape.piece_radius(shape.atom_depth(1e-300)) <= 1e-300
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("name", ["circle", "segment", "point", "corner4"])
def test_atom_depth_refuses_a_radius_that_is_not_positive(name):
    shape = resolve_shape(name)
    for radius in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            shape.atom_depth(radius)
    # and nothing else: the smallest positive float has a depth, past 2^1023 pieces
    tiny = 5e-324
    assert shape.piece_radius(shape.atom_depth(tiny)) <= tiny


# -- certified distance -----------------------------------------------------------


def test_distance_interval_sound_against_brute_force(thirds):
    cs = thirds.atoms(10)
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
    # middle-thirds takes the grid search, the rotated pair the KD-tree
    for rep in (thirds, rotated_pair()):
        fld = rep.field(1e-3)
        rng = rng_stream(8, 0)
        z = rep.root_center + rng.uniform(-1.0, 1.0, 200) + 1j * rng.uniform(-1.0, 1.0, 200)
        lo, hi = fld.query(z)
        leaf = fld.leaf(z)
        assert (lo <= hi).all()
        assert (hi - lo <= 2.0 * rep.piece_radius(fld.depth) + 1e-12).all()
        assert leaf.min() >= 0 and leaf.max() < fld.leaf_count
        for zi, l, h in zip(z[:50], lo[:50], hi[:50]):
            iv = distance_interval(rep, complex(zi), tol=1e-9)
            assert l <= iv.mid + 1e-9
            assert h >= iv.mid - 1e-9


@pytest.mark.parametrize("name", ["circle", "segment", "corner4", "middle-thirds", "rotated"])
def test_field_leaf_matches_nearest_piece(name):
    shape = rotated_pair() if name == "rotated" else resolve_shape(name)
    fld = shape.field(1e-2)
    if name == "rotated":
        assert fld._tree is not None
    rng = rng_stream(9, 0)
    r = 1.5 * shape.bounding_radius
    z = shape.bounding_center + rng.uniform(-r, r, 500) + 1j * rng.uniform(-r, r, 500)
    leaf = fld.leaf(z)
    assert leaf.shape == z.shape
    if hasattr(shape, "leaf_index"):
        assert np.array_equal(leaf, shape.leaf_index(z, fld.depth))
    # the leaf is the piece whose center lies nearest, by brute force
    centers = shape.atoms(fld.depth).centers
    assert len(centers) == fld.leaf_count
    assert np.array_equal(leaf, np.abs(z[:, None] - centers[None, :]).argmin(axis=1))


class _RecordingField:
    """Passes queries to a field and keeps every point asked about."""

    def __init__(self, fld):
        self.fld = fld
        self.points = []

    def query(self, z):
        self.points.append(z)
        return self.fld.query(z)


def _shell_points(rep, fld):
    """Every point shell quadrature asks fld about for the three outer shells."""
    rec = _RecordingField(fld)
    a = 1.0 / rep.max_scale
    for k in range(3):
        shell_quadrature(rep, rec, 1.0, a ** -(k + 1), a**-k, 8)
    return np.concatenate(rec.points)


def _same_bits(a, b):
    return a.dtype == b.dtype == np.float64 and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("name", ["corner4", "middle-thirds", "middle-alpha:0.2"])
@pytest.mark.parametrize("resolution", [1e-3, 2.5e-5, 1e-6, 10.0])
def test_axis_bucket_count_is_searchsorted(name, resolution):
    rep = preset(name)
    fld = rep.field(resolution)
    centers = rep.atoms(fld.depth).centers
    rng = rng_stream(11, 0)
    for axis, part in zip(fld._axes, (centers.real, centers.imag)):
        u = np.unique(part)
        # a scatter reaching past both ends, every value, its float neighbours
        # on both sides and every midpoint between neighbouring values
        pad = 0.5 * (u[-1] - u[0]) + 1.0
        x = np.concatenate(
            [
                rng.uniform(u[0] - pad, u[-1] + pad, 50_000),
                u,
                np.nextafter(u, -np.inf),
                np.nextafter(u, np.inf),
                0.5 * (u[:-1] + u[1:]),
                [-np.inf, np.inf],
            ]
        )
        i = np.searchsorted(u, x)
        assert np.array_equal(axis.count_below(x), i)
        # the pick of the binary search the buckets replaced
        lo, hi = np.maximum(i - 1, 0), np.minimum(i, len(u) - 1)
        expected = np.where(u[hi] - x < x - u[lo], hi, lo)
        with np.errstate(invalid="ignore"):  # inf - inf at the infinite x
            j, dist = axis.nearest(x)
            dist_only = axis.distance(x)
        assert np.array_equal(j, expected)
        assert np.array_equal(dist, np.abs(x - u[j]))
        # the distance-only search gives the same bits, the infinite x included
        assert _same_bits(dist_only, dist)
        assert np.isposinf(dist_only[-2:]).all()
    # the finest fields put several values in one bucket
    assert (len(fld._axes[0].steps) > 1) == (resolution == 1e-6)
    if fld.depth == 0:
        assert len(fld._axes[0].first) == len(fld._axes[1].first) == 1
    # a NaN point gets NaN bounds, as from the binary search
    assert np.isnan(fld.query(np.array([complex(np.nan, 0.5)]))).all()


@pytest.mark.parametrize("name", ["corner4", "middle-thirds"])
def test_grid_field_matches_kd_tree(name):
    rep = preset(name)
    # 2.5e-5 bounding radii is the field sample_harmonic_measure builds for the
    # default stop_tol: corner4 at depth 8, middle-thirds at depth 10
    for resolution in (1e-3, 2.5e-5):
        fld = rep.field(resolution * rep.bounding_radius)
        assert fld._tree is None
        centers = rep.atoms(fld.depth).centers
        tree = cKDTree(np.column_stack([centers.real, centers.imag]))
        rng = rng_stream(10, 0)
        # three bounding radii out: points beyond the bounding square on every side
        r = 3.0 * rep.root_radius
        scattered = rep.root_center + rng.uniform(-r, r, 20_000) + 1j * rng.uniform(-r, r, 20_000)
        # the dyadic midpoints of shell quadrature, where exact distance ties occur
        z = np.concatenate([scattered, _shell_points(rep, fld)])
        d, idx = fld._nearest(z)
        xy = np.column_stack([z.real, z.imag])
        d_tree, idx_tree = tree.query(xy)
        assert np.array_equal(d, d_tree)
        unique = tree.query(xy, k=2)[0][:, 1] > d_tree
        assert np.array_equal(idx[unique], idx_tree[unique])
        # at an exact tie the tree keeps whichever center its traversal meets
        # first; the grid's center must lie at the same distance, to the bit
        dx, dy = z.real - centers.real[idx], z.imag - centers.imag[idx]
        assert np.array_equal(np.sqrt(dx * dx + dy * dy), d)
        if name == "corner4":
            assert not unique.all()


@pytest.mark.parametrize("name", ["corner4", "middle-thirds", "middle-alpha:0.2", "golden", "rotated"])
def test_query_matches_the_leaf_bounds(name):
    """query gives the bits of the bounds built from the nearest leaf's index.

    The presets and rotated (a KD-tree field) have equal radii, so their
    query looks no leaf up; golden's radii differ, so it keeps the lookup.
    Grid and KD-tree fields alike give NaN bounds at NaN points and inf at
    infinite ones.
    """
    rep = {"golden": golden_repeller, "rotated": rotated_pair}.get(name, lambda: preset(name))()
    # 1e-6 puts several axis values in one bucket and 10.0 is depth 0; golden
    # would need 2^21 pieces for 1e-6, and rotated's tree has no buckets
    resolutions = [1e-3, 2e-3, 2.5e-5, 4e-5, 10.0]
    if name not in ("golden", "rotated"):
        resolutions += [1e-6, 1.5e-6]
    rng = rng_stream(12, 0)
    r = 3.0 * rep.root_radius
    scattered = rep.root_center + rng.uniform(-r, r, 20_000) + 1j * rng.uniform(-r, r, 20_000)
    inf, nan = np.inf, np.nan
    odd = np.array([complex(x, y) for x in (-inf, inf, nan, 0.1) for y in (-inf, inf, nan, 0.2)])
    for resolution in resolutions:
        fld = rep.field(resolution)
        # depth 0 has one leaf, which fills a grid of one cell
        assert (fld.depth == 0) == (resolution == 10.0)
        assert fld._equal_radii == (name != "golden" or fld.depth == 0)
        grid = fld._tree is None
        assert grid == (name != "rotated" or fld.depth == 0)
        if resolution < 2e-6:
            assert len(fld._axes[0].steps) > 1
        z = np.concatenate([scattered, _shell_points(rep, fld), odd])
        with np.errstate(invalid="ignore"):  # inf - inf at the infinite points
            lo, hi = fld.query(z)
            lo_ref, hi_ref = leaf_bounds(fld, z)
            d = fld._nearest(z)[0]
        assert _same_bits(lo, lo_ref)
        assert _same_bits(hi, hi_ref)
        assert np.array_equal(np.isnan(hi), np.isnan(z))
        infinite = np.isinf(z) & ~np.isnan(z)
        assert (lo[infinite] == np.inf).all() and (hi[infinite] == np.inf).all()
        if name == "golden" and fld.depth > 0:
            # unequal radii: d + rmax is not the nearest leaf's bound everywhere
            assert (hi < d + fld.rmax)[np.isfinite(z)].any()


def _near_j(fld, centers, rng):
    """Leaf centers and points within a few leaf radii of them."""
    pick = centers[:: max(1, len(centers) // 2000)]
    r = 3.0 * fld.rmax
    jitter = rng.uniform(-r, r, (4, len(pick))) + 1j * rng.uniform(-r, r, (4, len(pick)))
    return np.concatenate([pick, (pick + jitter).ravel()])


@pytest.mark.parametrize("name", ["corner4", "middle-thirds", "middle-alpha:0.2", "golden"])
def test_product_field_matches_the_unique_grid_oracle(name):
    """The axes built from the maps give the bits of the np.unique grid over the
    whole generation: axis values, query bounds, leaf indices, rmax and
    leaf_count.  2.5e-6 is corner4's depth-10 field; golden would need 2^21
    pieces for 1e-6."""
    rep = golden_repeller() if name == "golden" else preset(name)
    resolutions = [10.0, 1e-3, 2.5e-5, 2.5e-6] + ([] if name == "golden" else [1e-6])
    rng = rng_stream(13, 0)
    r = 3.0 * rep.root_radius
    scattered = rep.root_center + rng.uniform(-r, r, 20_000) + 1j * rng.uniform(-r, r, 20_000)
    inf, nan = np.inf, np.nan
    odd = np.array([complex(x, y) for x in (-inf, inf, nan, 0.1) for y in (-inf, inf, nan, 0.2)])
    for resolution in resolutions:
        fld = rep.field(resolution)
        ref = GridField(rep, fld.depth)
        assert fld._tree is None
        assert fld.leaf_count == ref.leaf_count
        assert fld.rmax == ref.rmax
        for axis, u in zip(fld._axes, ref.values):
            assert _same_bits(axis.padded[1 : axis.last + 2], u)
        centers = rep.atoms(fld.depth).centers
        near = _near_j(fld, centers, rng)
        z = np.concatenate([scattered, _shell_points(rep, fld), near, odd])
        with np.errstate(invalid="ignore"):  # inf - inf at the infinite points
            lo, hi = fld.query(z)
            lo_ref, hi_ref = ref.query(z)
            leaf, leaf_ref = fld.leaf(z), ref.leaf(z)
        assert _same_bits(lo, lo_ref)
        assert _same_bits(hi, hi_ref)
        assert leaf.dtype == leaf_ref.dtype and np.array_equal(leaf, leaf_ref)
        # each leaf center is its own nearest center
        assert np.array_equal(fld.leaf(centers), np.arange(len(centers)))
    assert fld.depth == {"corner4": 10, "middle-thirds": 13, "middle-alpha:0.2": 9}.get(name, 19)


def corner_in_order(*corners):
    """corner4's four maps, listed in the letter order of the given corners."""
    maps = [SimilarityMap(0.25, 0.0, complex(0.75 * x, 0.75 * y)) for x, y in corners]
    return Repeller(maps, 0.5 + 0.5j, 1.0, name="corner4-reordered")


@pytest.mark.parametrize(
    "name, product",
    [("rotated", False), ("non-additive", False), ("additive", True), ("golden", True),
     ("rounded", False)],
)
def test_product_detection_keeps_the_nearest_leaf(name, product):
    """Only maps without rotation whose letters are a w_x + b w_y take the axes.

    corner4 listed as (0,0), (1,1), (0,1), (1,0) fills the same grid, but no
    w_x, w_y give its letters, so it takes the KD-tree; listed as (0,0),
    (0,1), (1,0), (1,1) its letters are 2a + b.  golden is a line set with
    unequal ratios.  middle-alpha:0.001 at depth 7 has centers near 1 closer
    than an ulp, which round to one value: no grid.  Either way leaf is a
    brute-force nearest center.
    """
    rep = {
        "rotated": rotated_pair,
        "non-additive": lambda: corner_in_order((0, 0), (1, 1), (0, 1), (1, 0)),
        "additive": lambda: corner_in_order((0, 0), (0, 1), (1, 0), (1, 1)),
        "golden": golden_repeller,
        "rounded": lambda: preset("middle-alpha:0.001"),
    }[name]()
    fld = rep.field(1e-21 if name == "rounded" else 1e-2)
    assert (fld._tree is None) == product
    assert fld._equal_radii == (name != "golden")
    if name == "additive":
        # letters 2a + b: every x word offset is twice a y word offset
        assert np.array_equal(np.sort(fld._offsets[0]), 2 * np.sort(fld._offsets[1]))
    rng = rng_stream(9, 1)
    r = 1.5 * rep.bounding_radius
    z = rep.bounding_center + rng.uniform(-r, r, 500) + 1j * rng.uniform(-r, r, 500)
    centers = rep.atoms(fld.depth).centers
    assert len(centers) == fld.leaf_count
    if name == "rounded":
        assert len(np.unique(centers.real)) < len(centers)
    # at the least distance to the bit, as centers that round together tie;
    # the root of the sum of squares, as both searches take it
    dx, dy = z.real[:, None] - centers.real, z.imag[:, None] - centers.imag
    d = np.sqrt(dx * dx + dy * dy)
    assert np.array_equal(d[np.arange(len(z)), fld.leaf(z)], d.min(axis=1))


def test_product_field_builds_no_generation(atom_builds):
    """corner4's depth-10 field comes from two axes of 1,024 values: the
    generation and the np.unique grid it replaced peaked at 83 MB traced."""
    rep = preset("corner4")
    assert atom_builds == [1]  # the construction's separation check
    tracemalloc.start()
    try:
        fld = rep.field(2.5e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fld.depth == 10 and fld.leaf_count == 4**10
    assert peak < 4_000_000
    assert atom_builds == [1]


def test_line_set_axis_words_take_no_wide_table():
    """A line set's one axis has a word per leaf: middle-thirds at depth 16
    has 65,536 words of 16 letters.  Their offsets trace 3.2 MB through
    einsum; a matmul, which first casts the uint8 word table to int64,
    traced 10 MB (197 MB at depth 20)."""
    rep = preset("middle-thirds")
    tracemalloc.start()
    try:
        fld = rep.field(rep.piece_radius(16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fld.depth == 16 and fld._tree is None
    assert peak < 5_000_000


def test_sampler_builds_no_generation_below_its_atoms(atom_builds):
    """At the default stop_tol the corner4 sampler walks on a depth-8 field and
    bins into depth-7 atoms; generation 8 is never built."""
    rep = preset("corner4")
    cfg = WalkConfig(samples=4096, seed=1).resolve(rep)
    sample_harmonic_measure(rep, cfg)
    assert rep.field(cfg.stop_tol / 4.0).depth == 8
    assert rep.atom_depth(cfg.stop_tol) == 7
    assert max(atom_builds) == 7


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
    base = thirds.atoms(5)
    big = scaled.atoms(5)
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
    """Counts are exact.  Renewal diameters are s_i times the tail's, which
    moves them by rounding only: exact on corner4, whose scales are powers of
    two, within 1e-13 relative on the interval sets (2.0e-15 measured)."""
    rep = preset(name)
    cov = covering_counts(rep, a=a, kmax=kmax)
    for k in range(kmax + 1):
        n, diam = covering_components(rep, a ** (-k))
        assert cov.counts[k] == n
        if name == "corner4":
            assert cov.diameters[k] == diam
        else:
            assert cov.diameters[k] == pytest.approx(diam, rel=1e-13, abs=0)


@pytest.mark.parametrize(
    "name,a,kmax",
    [
        ("corner4", 4.0, 6),
        ("corner4", 2.0, 6),
        ("middle-thirds", 3.0, 8),
        ("middle-alpha:0.2", 5.0, 5),
        ("golden", 2.0, 10),
        ("golden", 3.0, 6),
    ],
)
def test_covering_counts_equal_the_explicit_clustering(name, a, kmax):
    """Renewal levels give the counts and diameters of clustering every level.

    corner4 at a = 2 renews by two levels per branch step, golden's two
    scales by one and two at a = 2 and by no lattice step at a = 3.  Counts
    are exact; diameters too where the scales are powers of two (corner4,
    golden), and within 1e-13 relative on the interval sets, where s_i times
    the tail's diagonal rounds differently (3.4e-14 measured).
    """
    rep = golden_repeller() if name == "golden" else preset(name)
    cov = covering_counts(rep, a=a, kmax=kmax)
    counts, diams = explicit_covering(rep, a, kmax)
    assert cov.counts == counts
    if name in ("corner4", "golden"):
        assert cov.diameters == diams
    else:
        assert cov.diameters == pytest.approx(diams, rel=1e-13, abs=0)


def test_covering_counts_build_no_generation_below_the_clustered_ones(atom_builds):
    """corner4 at a = 4 to kmax 8 clusters generations 2 and 3 and renews the
    rest from them, counts and diameters alike: it asks for no deeper
    generation (its level 8 would be generation 10, 4^10 cylinders) and
    traces under 1 MB."""
    corner = preset("corner4")
    tracemalloc.start()
    try:
        covering_counts(corner, a=4.0, kmax=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(atom_builds) <= 3
    assert peak < 2**20


def test_rotated_covering_diameters_bound_every_component():
    """Under rotations that are no multiple of pi/2 renewal keeps the counts,
    and s_i times the tail's diagonal still bounds each component: no
    diameter is below the widest center distance within a component plus
    the pad 2 (r_max + eps)."""
    rep = rotated_repeller()
    a, kmax = 3.0, 5
    cov = covering_counts(rep, a=a, kmax=kmax)
    assert cov.counts == explicit_covering(rep, a, kmax)[0]
    for k in range(kmax + 1):
        eps = a ** (-k)
        cs = rep.atoms(_covering_generation(rep, eps))
        dist = np.abs(cs.centers[:, None] - cs.centers[None, :])
        i, j = np.nonzero(dist <= cs.radii[:, None] + cs.radii[None, :] + 2.0 * eps)
        n, labels = csgraph_components(len(cs), i, j)
        widest = max(dist[np.ix_(labels == c, labels == c)].max() for c in range(n))
        assert cov.diameters[k] >= widest + 2.0 * (float(cs.radii.max()) + eps)


def test_covering_generations_need_not_step_by_one(thirds, corner):
    # 0.75 * 3^-(k+1) = 3^-k / 4 exactly, so rounding decides both levels
    assert _covering_generation(thirds, 3.0**-1) == _covering_generation(thirds, 3.0**-2) == 3
    # corner4 at a = 4: piece_radius(k + 1) = 4^-(k+1) is eps / 4 itself, so the
    # strict rule radius < eps / 4 takes one generation more than atom_depth(eps / 4)
    for k in range(8):
        eps = 4.0**-k
        assert corner.piece_radius(k + 1) == eps / 4
        assert _covering_generation(corner, eps) == k + 2
        assert corner.atom_depth(eps / 4) == k + 1


def test_covering_component_count_matches_flood_fill(thirds):
    """Rasterized neighborhood components agree with the cylinder clustering."""
    eps = 3.0**-2
    h = 3.0**-5
    xs = np.arange(-0.2, 1.2, h)
    ys = np.arange(-0.2, 0.2, h)
    grid = xs[None, :] + 1j * ys[:, None]
    fld = thirds.field(3.0**-7)
    lo, hi = fld.query(grid.ravel())
    mask = (0.5 * (lo + hi) < eps).reshape(grid.shape)
    _, n_components = ndimage.label(mask)
    cov = covering_counts(thirds, a=3.0, kmax=2)
    assert cov.counts[2] == n_components == 2


def test_covering_fit_matches_similarity_dimension(thirds):
    cov = covering_counts(thirds, a=3.0, kmax=8)
    assert abs(cov.delta_reg - LOG2_OVER_LOG3) < 0.05
    assert cov.c_count >= 1.0
    assert cov.kmax == 8


def test_covering_counts_validation(thirds, atom_builds):
    with pytest.raises(ValueError):
        covering_counts(thirds, a=1.0, kmax=3)
    with pytest.raises(ValueError):
        covering_counts(thirds, a=3.0, kmax=0)
    near = preset("middle-alpha:0.4999999")
    atom_builds.clear()  # the construction check's generation 1
    with pytest.raises(ResourceLimitError, match=f"cap {PIECE_CAP}"):
        covering_counts(near, a=2.0, kmax=22)
    assert atom_builds == []


def test_covering_cap_refuses_before_any_cylinder_or_pair(monkeypatch, atom_builds):
    """middle-alpha:0.4999999 has first-level gap 1e-7, so no level down to
    a = 2, kmax = 22 renews, and level 22 clusters generation 23, 2^23
    cylinders: it is refused before any generation is built or any pair is
    sought, not after the shallower levels are clustered."""
    rep = preset("middle-alpha:0.4999999")
    assert 1e-7 < rep.first_level_gap < 1.01e-7
    assert _covering_generation(rep, 2.0**-22) == 23 and 2**23 > PIECE_CAP
    atom_builds.clear()
    calls = []

    def pairs(z, reach):
        calls.append(len(z))
        return close_pairs(z, reach)

    monkeypatch.setattr("cantorlab.geometry.close_pairs", pairs)
    with pytest.raises(ResourceLimitError, match=f"generation 23 has 2\\^23 pieces, cap {PIECE_CAP}"):
        covering_counts(rep, a=2.0, kmax=22)
    assert atom_builds == [] and calls == []


def test_corner4_field_past_the_piece_cap_builds_no_generation(atom_builds):
    """corner4's field at 2.5e-7 has depth 11 and 4^11 leaves, over PIECE_CAP,
    and is served by two product axes of 2^11 values: no generation is built,
    and its bounds hold the certified distance near J."""
    rep = preset("corner4")
    tracemalloc.start()
    try:
        fld = rep.field(2.5e-7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (fld.depth, fld.leaf_count) == (11, 4**11) and fld.leaf_count > PIECE_CAP
    assert atom_builds == [1]  # the construction check's generation 1
    # the codes alone of generation 11 would take 46 MB
    assert peak < 3 << 20
    rng = rng_stream(32, 1)
    anchors = rep.atoms(8).centers
    n = 300
    z = anchors[rng.integers(0, len(anchors), n)] + 10.0 ** rng.uniform(-7.0, -4.5, n) * np.exp(
        2j * np.pi * rng.random(n))
    lo, hi = fld.query(z)
    assert (hi - lo <= 2.0 * rep.piece_radius(11) + 1e-15).all()
    for zi, l, h in zip(z, lo, hi):
        iv = distance_interval(rep, complex(zi), tol=1e-10)
        assert l <= iv.hi and h >= iv.lo


@pytest.mark.parametrize("a", [math.nan, math.inf, 1e300, 1.0, 0.5])
def test_scale_base_must_be_finite_above_one_and_not_underflow(thirds, corner, a):
    # 1e300^-3 underflows to 0: the deepest radius of kmax = 2 would be 0
    with pytest.raises(ValueError, match="scale base a must exceed 1"):
        covering_counts(corner, a=a, kmax=2)
    with pytest.raises(ValueError, match="scale base a must exceed 1"):
        shell_integral_sums(thirds, delta=0.5, a=a, kmax=2)


def test_shell_sums_refuse_a_negative_kmax(thirds):
    with pytest.raises(ValueError, match="kmax must be >= 0"):
        shell_integral_sums(thirds, delta=0.5, a=3.0, kmax=-1)


# -- close pairs and components ---------------------------------------------------


def _pair_set(i, j) -> set:
    """The pairs as sorted tuples, checking that each comes once and i != j."""
    pairs = [tuple(sorted(p)) for p in zip(i.tolist(), j.tolist())]
    assert all(a != b for a, b in pairs)
    assert len(set(pairs)) == len(pairs)
    return set(pairs)


def _close_pair_cases():
    rng = rng_stream(20, 0)
    scatter = rng.uniform(-1.0, 1.0, 600) + 1j * rng.uniform(-1.0, 1.0, 600)
    yield "random", scatter, 0.05
    yield "random-wide", scatter * 1e3 + 7.0, 20.0
    yield "column", 0.5 + 1j * rng.uniform(0.0, 1.0, 300), 0.01
    yield "duplicates", np.repeat(scatter[:40], 3), 0.1
    # a lattice of step exactly reach: every horizontal and vertical neighbour is
    # exactly reach apart
    yield "lattice", (np.arange(12)[:, None] * 0.25 + 1j * np.arange(12)[None, :] * 0.25).ravel(), 0.25
    yield "single", np.array([0.3 + 0.1j]), 1.0


@pytest.mark.parametrize("case", list(_close_pair_cases()), ids=lambda c: c[0])
def test_close_pairs_hold_every_pair_within_reach(case):
    _, z, reach = case
    got = _pair_set(*close_pairs(z, reach))
    assert pairs_within(z, reach) <= got
    if len(z) == 1:
        assert got == set()


@pytest.mark.parametrize("reach,base", [(0.1, 0.05), (0.3, -7.3), (1.0 / 3.0, 1.0)])
def test_close_pairs_keep_rounded_neighbours_reach_apart(reach, base):
    """Points a rounded reach apart along a row: each neighbour pair whose
    computed distance is within reach must survive the rounding of the cells."""
    z = base + np.arange(100_000) * reach + 0j
    want = {(k, k + 1) for k in np.flatnonzero(np.abs(np.diff(z)) <= reach).tolist()}
    assert want <= _pair_set(*close_pairs(z, reach))


def test_close_pairs_keys_fit_when_the_extent_dwarfs_the_reach():
    # extent/reach of 1e12 would need 1e24 cells on a reach-wide grid, past
    # int64 keys: the cells widen to 2^-30 of the extent instead
    corners = np.array([0.0, 1.0, 1j, 1.0 + 1j])
    z = np.concatenate([corners, corners + 1e-12 * (1 + 1j) / math.sqrt(2.0), [0.5 + 0.5j, 0.5 + 0.5j + 1e-11]])
    reach = 1.5e-12
    got = _pair_set(*close_pairs(z, reach))
    assert pairs_within(z, reach) == {(0, 4), (1, 5), (2, 6), (3, 7)}
    assert pairs_within(z, reach) <= got
    assert (8, 9) in got


@pytest.mark.parametrize("reach", [0.0, -1.0, math.nan, math.inf])
def test_close_pairs_reject_a_bad_reach(reach):
    with pytest.raises(ValueError):
        close_pairs(np.array([0j, 1.0 + 0j]), reach)


def _same_partition(a, b) -> bool:
    joint = len(set(zip(np.asarray(a).tolist(), np.asarray(b).tolist())))
    return joint == len(set(np.asarray(a).tolist())) == len(set(np.asarray(b).tolist()))


@pytest.mark.parametrize("n,edges", [(1, 0), (50, 0), (400, 150), (400, 400), (400, 1200), (3000, 2900)])
def test_components_match_csgraph_on_random_graphs(n, edges):
    rng = rng_stream(21, n + edges)
    i, j = rng.integers(0, n, edges), rng.integers(0, n, edges)
    count, labels = _components(n, i, j)
    ref_count, ref_labels = csgraph_components(n, i, j)
    assert count == ref_count
    assert sorted(set(labels.tolist())) == list(range(count))
    assert _same_partition(labels, ref_labels)


def test_components_join_a_permuted_path():
    n = 100_000
    perm = rng_stream(22, 0).permutation(n)
    for i, j in ((perm[:-1], perm[1:]), (perm[:n // 2 - 1], perm[1:n // 2])):
        count, labels = _components(n, i, j)
        ref_count, ref_labels = csgraph_components(n, i, j)
        assert count == ref_count
        assert _same_partition(labels, ref_labels)
    assert _components(n, perm[:-1], perm[1:])[0] == 1


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


def test_shell_sums_refuse_a_tolerance_no_refinement_reaches(thirds):
    # SHELL_MAX_REFINE doublings cannot bring two midpoint grids within 1e-12
    with pytest.raises(QuadratureError, match="did not stabilize to rtol=1e-12"):
        shell_integral_sums(thirds, delta=math.log(2) / math.log(3), a=3.0, kmax=2, rtol=1e-12)


#: first-level gaps of the presets: 2 corners 0.75 apart with radius 0.25 each,
#: middle-thirds discs 2/3 apart with radius 1/4
FIRST_GAP = {"corner4": 0.25, "middle-thirds": 1.0 / 6.0}


@pytest.mark.parametrize(
    "name, delta, a, kmax",
    [("middle-thirds", math.log(2.0) / math.log(3.0), 3.0, 7), ("corner4", 0.5, 4.0, 3)],
)
def test_shell_refinements_equal_the_grids_built_from_the_root(name, delta, a, kmax):
    # the shells with r_out at least half the first-level gap use quadrature,
    # on the field built for the deepest of them; the renewal shells below
    # are checked against quadrature by their own test
    n_quad = sum(a**-k >= FIRST_GAP[name] / 2 for k in range(kmax + 1))
    assert n_quad == {"middle-thirds": 3, "corner4": 2}[name]
    rep = preset(name)
    report = shell_integral_sums(rep, delta=delta, a=a, kmax=kmax)
    power = (1.0 - delta) * (2.0 + delta)
    fld = rep.field(a**-n_quad / 8.0)
    for k, total in enumerate(report.sums[:n_quad]):
        r_in, r_out = a ** -(k + 1), a**-k
        refined = _shell_quadratures(rep, fld, power, r_in, r_out)
        # the refinements the sum used: up to the first that agrees with the last
        got = [next(refined), next(refined)]
        while abs(got[-1] - got[-2]) > 0.02 * abs(got[-1]):
            got.append(next(refined))
        ref = [
            shell_quadrature(rep, fld, power, r_in, r_out, SHELL_BASE_CELLS * 2**j)
            for j in range(len(got))
        ]
        assert got == ref
        assert total == got[-1]


RENEWAL_CASES = [
    ("middle-thirds", math.log(2.0) / math.log(3.0), 3.0),
    ("corner4", 0.5, 4.0),
]


@pytest.mark.parametrize("name, delta, a", RENEWAL_CASES)
def test_shell_sums_past_the_separation_scale_renew_exactly(name, delta, a):
    rep = preset(name)
    report = shell_integral_sums(rep, delta=delta, a=a, kmax=7)
    power = (1.0 - delta) * (2.0 + delta)
    renewal = rep.fan * rep.max_scale ** (2.0 - power)
    past = [k for k in range(1, 8) if a**-k < FIRST_GAP[name] / 2]
    assert past == list(range(3 if name == "middle-thirds" else 2, 8))
    for k in past:
        assert report.sums[k] / report.sums[k - 1] == pytest.approx(renewal, rel=1e-12)


@pytest.mark.parametrize("name, delta, a, kmax", [(*RENEWAL_CASES[0], 6), (*RENEWAL_CASES[1], 3)])
def test_renewal_shells_match_their_own_quadrature(name, delta, a, kmax):
    """Each renewal shell lies within the quadrature's rtol of a plain midpoint rule.

    The reference integrates the shell itself, on a field built for it, and
    refines until two grids agree to 0.02 as the sums do.
    """
    rep = preset(name)
    report = shell_integral_sums(rep, delta=delta, a=a, kmax=kmax)
    power = (1.0 - delta) * (2.0 + delta)
    for k in range(kmax + 1):
        r_in, r_out = a ** -(k + 1), a**-k
        if r_out >= FIRST_GAP[name] / 2:
            continue
        fld = rep.field(r_in / 8.0)
        grids = [shell_quadrature(rep, fld, power, r_in, r_out, SHELL_BASE_CELLS)]
        for j in range(1, SHELL_MAX_REFINE + 1):
            grids.append(shell_quadrature(rep, fld, power, r_in, r_out, SHELL_BASE_CELLS * 2**j))
            if abs(grids[-1] - grids[-2]) <= 0.02 * grids[-1]:
                break
        assert report.sums[k] == pytest.approx(grids[-1], rel=0.02)


def test_shell_cap_refuses_in_the_deepest_shell_before_querying(monkeypatch):
    # corner4 at a = 4, kmax = 2: shell 2 renews from shell 1, the deepest
    # shell that uses quadrature, whose grids reach 72,624 cells; shell 0's
    # stay below 7,400, so a 2^16 cap trips only in shell 1 and only the
    # shell order decides what ran before; with blocks of cap / 4 parents,
    # every level within the cap is one query
    cap = 2**16
    monkeypatch.setattr("cantorlab.geometry.SHELL_CELL_CAP", cap)
    monkeypatch.setattr("cantorlab.geometry.SHELL_BLOCK", cap // 4)
    log = []

    def shells(shape, fld, power, r_in, r_out):
        log.append(("shell", r_in))
        return _shell_quadratures(shape, fld, power, r_in, r_out)

    monkeypatch.setattr("cantorlab.geometry._shell_quadratures", shells)
    rep = preset("corner4")
    build = rep.field

    def field(resolution):
        fld = build(resolution)
        query = fld.query

        def counted(z):
            log.append(("query", len(z)))
            return query(z)

        fld.query = counted
        return fld

    object.__setattr__(rep, "field", field)
    with pytest.raises(ResourceLimitError, match=f"cap {cap}"):
        shell_integral_sums(rep, delta=0.5, a=4.0, kmax=2)
    assert [r for kind, r in log if kind == "shell"] == [4.0**-2]
    sizes = [n for kind, n in log if kind == "query"]
    assert sizes and max(sizes) <= cap < 4 * max(sizes)


def test_shell_grids_are_queried_a_block_at_a_time():
    """middle-thirds at a = 3, kmax = 7 expands each grid level 1,024 parents
    at a time: its finest level, 70,400 points in one query when levels were
    queried whole, takes queries of at most 4,096."""
    rep, sizes = preset("middle-thirds"), []
    build = rep.field

    def field(resolution):
        fld = build(resolution)
        query = fld.query

        def counted(z):
            sizes.append(len(z))
            return query(z)

        fld.query = counted
        return fld

    object.__setattr__(rep, "field", field)
    shell_integral_sums(rep, delta=LOG2_OVER_LOG3, a=3.0, kmax=7)
    assert max(sizes) <= 4 * 1024
    assert sum(sizes) > 70_400


def test_shell_sums_hold_no_whole_level_of_queries():
    """The same sums peak below 4 MB traced (4.8 MB when a level was expanded,
    queried and pruned whole), field build included."""
    rep = preset("middle-thirds")
    tracemalloc.start()
    try:
        shell_integral_sums(rep, delta=LOG2_OVER_LOG3, a=3.0, kmax=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_renewal_levels_run_no_clustering_and_no_quadrature(monkeypatch):
    """Past the separation scale no level is clustered and no shell grid is built.

    corner4 at a = 4 separates from k = 2 (2 * 4^-2 < 0.25): covering clusters
    only levels 0 and 1, on generations 2 and 3, and every shell sum below
    r_out = 0.125 comes from the shells above it.
    """
    clustered, annuli = [], []

    def pairs(z, reach):
        clustered.append(len(z))
        return close_pairs(z, reach)

    def shells(shape, fld, power, r_in, r_out):
        annuli.append((shape.name, r_in, r_out))
        return _shell_quadratures(shape, fld, power, r_in, r_out)

    monkeypatch.setattr("cantorlab.geometry.close_pairs", pairs)
    monkeypatch.setattr("cantorlab.geometry._shell_quadratures", shells)
    corner = preset("corner4")
    cov = covering_counts(corner, a=4.0, kmax=8)
    assert cov.counts == (1, 1) + tuple(4 ** (k - 1) for k in range(2, 9))
    assert clustered == [4**2, 4**3]
    shell_integral_sums(corner, delta=0.5, a=4.0, kmax=6)
    shell_integral_sums(preset("middle-thirds"), delta=LOG2_OVER_LOG3, a=3.0, kmax=7)
    assert annuli == [
        ("corner4", 4.0**-2, 4.0**-1), ("corner4", 4.0**-1, 1.0),
        ("middle-thirds", 3.0**-3, 3.0**-2), ("middle-thirds", 3.0**-2, 3.0**-1),
        ("middle-thirds", 3.0**-1, 1.0),
    ]


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
    cs = s.atoms(3)
    assert len(cs) == 8
    assert np.allclose(cs.centers.imag, 0.0)
    assert np.all(cs.radii == s.piece_radius(3))
    assert s.in_outer_domain(z).all()
    with pytest.raises(ValueError):
        Segment(1j, 1j)


def test_single_point_shape():
    p = SinglePoint(0.5 + 0j, extent=2.0)
    assert p.diameter == 0.0
    assert p.bounding_radius == 2.0
    assert p.distance(np.array([2.5 + 0j]))[0] == pytest.approx(2.0)
    cs = p.atoms(5)
    assert len(cs) == 1 and cs.radii[0] == 0.0


def _points_near_pieces(shape, fld, rng):
    """Points of the pieces themselves and points inside the leaf discs."""
    if isinstance(shape, Repeller):
        # fixed points of the branches and their images, all in J
        on = np.array([b.translation / (1.0 - b.factor) for b in shape.branches])
        for _ in range(6):
            on = np.concatenate([b(on) for b in shape.branches])
    else:
        on = shape.atoms(fld.depth + 3).centers
    cs = shape.atoms(fld.depth)
    centers, radii = cs.centers, cs.radii
    pick = rng.integers(0, len(centers), 20_000)
    inside = centers[pick] + radii[pick] * rng.random(20_000) * np.exp(2j * np.pi * rng.random(20_000))
    return np.concatenate([on, centers, inside])


@pytest.mark.parametrize(
    "name", ["circle", "segment", "point", "corner4", "middle-thirds", "rotated", "golden"]
)
def test_zero_lower_bound_means_stopped(name, monkeypatch):
    """Bounds at most 2r apart, so lo = 0 forces hi < 4r, the sampler's stop_tol.

    A walk at lo = 0 would never move; the full jump relies on such a walk
    having stopped.  Checked on grid, KD-tree, unequal-radius and exact
    fields at random points, on the pieces and inside the leaf discs, and
    on every walk one sampler run leaves live.
    """
    shape = {
        "circle": Circle, "segment": Segment, "point": SinglePoint,
        "rotated": rotated_pair, "golden": golden_repeller,
    }.get(name, lambda: preset(name))()
    rng = rng_stream(14, 0)
    zeros = 0
    for r in (1e-3 * shape.bounding_radius, 2.5e-5 * shape.bounding_radius):
        fld = shape.field(r)
        w = 3.0 * shape.bounding_radius
        scattered = shape.bounding_center + rng.uniform(-w, w, 20_000) + 1j * rng.uniform(-w, w, 20_000)
        z = np.concatenate([scattered, _points_near_pieces(shape, fld, rng)])
        lo, hi = fld.query(z)
        assert (0.0 <= lo).all() and (lo <= hi).all()
        # each bound and their difference round once, each by at most half a spacing of hi
        assert (hi - lo <= 2.0 * r + 2.0 * np.spacing(hi)).all()
        assert (hi[lo == 0.0] < 4.0 * r).all()
        zeros += int((lo == 0.0).sum())
    assert zeros > 0

    if name == "point":
        return  # walks never reach a point, so it has no sampler run
    # every walk a sampler run leaves live moves at least stop_tol / 2
    cfg = WalkConfig(samples=potential.CHUNK, seed=14).resolve(shape)
    fld = shape.field(cfg.stop_tol / 4.0)
    field_type, live = type(fld), []
    query = field_type.query

    def recorded(f, z):
        lo, hi = query(f, z)
        live.append(lo[hi >= cfg.stop_tol])
        return lo, hi

    monkeypatch.setattr(field_type, "query", recorded)
    sample_harmonic_measure(shape, cfg)
    live = np.concatenate(live)
    assert live.size > potential.CHUNK
    assert live.min() >= cfg.stop_tol / 2.0


@pytest.mark.parametrize("shape", [Circle(), Segment(), SinglePoint()], ids=["circle", "segment", "point"])
def test_exact_fields_give_non_finite_bounds_at_non_finite_points(shape):
    # the DistanceField promise: non-finite bounds, no error (which of NaN
    # and inf is left open; the cylinder fields' choice is tested above)
    inf, nan = np.inf, np.nan
    odd = np.array([complex(x, y) for x in (-inf, inf, nan, 0.1) for y in (-inf, inf, nan, 0.2)])
    with np.errstate(all="ignore"):
        lo, hi = shape.field(1e-3).query(odd)
    bad = ~np.isfinite(odd)
    assert bad.sum() == 15
    assert not np.isfinite(lo[bad]).any() and not np.isfinite(hi[bad]).any()
    assert np.isfinite(lo[~bad]).all() and (lo <= hi)[~bad].all()


def test_repeller_diameter_bounded(corner, thirds):
    assert corner.diameter <= 2.0 * corner.root_radius
    assert thirds.diameter <= 2.0 * thirds.root_radius
    assert corner.diameter > 1.0
