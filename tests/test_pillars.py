import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import augment_points, build_pillars_oracle, vfe_oracle

from bevkit.pillars import (
    PillarGridConfig,
    PillarTensor,
    RadarPointCloud,
    VfeWeights,
    build_pillars,
    gather_from_pseudo_image,
    read_cloud_csv,
    read_pc4d,
    scatter_to_pseudo_image,
    vfe_forward,
    write_pc4d,
)
from bevkit.voxelpool import BEVGridConfig


def small_cfg(t=3, max_pillars=4096):
    return PillarGridConfig((-8.0, 8.0), (-8.0, 8.0), (8, 8), t, max_pillars)


def cloud_of(xy, rng):
    """A cloud at the given (x, y) with random height and reflectivity."""
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    return RadarPointCloud(np.column_stack([xy, rng.normal(0, 1, len(xy)),
                                            rng.uniform(0, 1, len(xy))]))


def assert_matches_oracle(cloud, cfg, seed):
    got = build_pillars(cloud, cfg, seed)
    want = build_pillars_oracle(cloud, cfg, seed)
    for name in ("features", "points", "pillar_coords", "point_counts", "centers",
                 "occupied_cells"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.truncated_pillars == want.truncated_pillars
    assert got.points_in_range == want.points_in_range
    return got


class TestAugmentPoints:
    def test_singleton_cluster(self):
        out = augment_points(np.array([[1.0, 2.0, 0.5, 0.7]]), np.array([1.2, 2.2]))
        np.testing.assert_allclose(
            out[0], [1.0, 2.0, 0.5, 0.7, 0.0, 0.0, 0.0, -0.2, -0.2], atol=1e-15)

    def test_symmetric_pair(self):
        pts = np.array([[0.0, 0.0, 0.0, 1.0], [2.0, 2.0, 2.0, 1.0]])
        out = augment_points(pts, np.array([1.0, 1.0]))
        np.testing.assert_allclose(out[0, 4:7], [-1.0, -1.0, -1.0])
        np.testing.assert_allclose(out[1, 4:7], [1.0, 1.0, 1.0])

    def test_mean_offset_identity(self):
        rng = np.random.default_rng(31)
        pts = rng.normal(0, 3, (50, 4))
        pts[:, 3] = np.abs(pts[:, 3])
        out = augment_points(pts, rng.normal(0, 1, 2))
        assert np.abs(out[:, 4:7].sum(axis=0)).max() < 1e-12

    def test_empty_pillar_rejected(self):
        with pytest.raises(ValueError):
            augment_points(np.zeros((0, 4)), np.zeros(2))


class TestBuildPillars:
    def test_empty_cloud(self):
        out = build_pillars(RadarPointCloud(np.zeros((0, 4))), small_cfg(), seed=0)
        assert out.features.shape == (0, 3, 9)
        assert out.point_counts.size == 0

    def test_underflow_padding(self):
        pts = np.array([[0.1, 0.1, 0.0, 1.0], [0.2, 0.2, 0.0, 1.0]])
        out = build_pillars(RadarPointCloud(pts), small_cfg(t=3), seed=0)
        assert out.point_counts[0] == 2
        assert np.all(out.features[0, 2] == 0.0)

    def test_overflow_sampling_deterministic_subset(self):
        rng = np.random.default_rng(32)
        pts = np.column_stack([rng.uniform(0.0, 1.9, 5), rng.uniform(0.0, 1.9, 5),
                               rng.normal(0, 1, 5), rng.uniform(0, 1, 5)])
        cloud = RadarPointCloud(pts)
        cfg = small_cfg(t=2)
        a = build_pillars(cloud, cfg, seed=9)
        b = build_pillars(cloud, cfg, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        assert a.point_counts[0] == 2
        # survivors are a subset of the inputs (match original rows)
        raw = a.features[0, :2, :4]
        for row in raw:
            assert any(np.allclose(row, p) for p in pts)

    def test_seed_changes_survivors_only_in_overflow(self):
        pts = np.array([[0.1, 0.1, 0.0, 1.0],  # alone in its pillar
                        [4.1, 4.1, 0.0, 0.1], [4.2, 4.2, 0.0, 0.2],
                        [4.3, 4.3, 0.0, 0.3], [4.4, 4.4, 0.0, 0.4]])
        cfg = small_cfg(t=2)
        seeds = [build_pillars(RadarPointCloud(pts), cfg, seed=s) for s in range(6)]
        for out in seeds:
            np.testing.assert_array_equal(out.features[0, 0, :4], pts[0])

    def test_out_of_range_dropped(self):
        pts = np.array([[100.0, 0.0, 0.0, 1.0], [8.0, 0.0, 0.0, 1.0]])  # max edge excluded
        out = build_pillars(RadarPointCloud(pts), small_cfg(), seed=0)
        assert out.point_counts.size == 0

    def test_first_occurrence_order(self):
        pts = np.array([[4.1, 4.1, 0.0, 1.0], [-4.0, -4.0, 0.0, 1.0],
                        [4.2, 4.2, 0.0, 1.0]])
        out = build_pillars(RadarPointCloud(pts), small_cfg(), seed=0)
        assert out.pillar_coords[0].tolist() == [6, 6]
        assert out.pillar_coords[1].tolist() == [2, 2]

    def test_max_pillars_keeps_most_populated(self):
        pts = np.array([[0.1, 0.1, 0.0, 1.0],
                        [2.1, 2.1, 0.0, 1.0], [2.2, 2.2, 0.0, 1.0],
                        [6.1, 6.1, 0.0, 1.0], [6.2, 6.2, 0.0, 1.0], [6.3, 6.3, 0.0, 1.0]])
        out = build_pillars(RadarPointCloud(pts), small_cfg(t=4, max_pillars=2), seed=0)
        assert out.truncated_pillars == 1
        assert sorted(out.point_counts.tolist()) == [2, 3]


class TestBuildPillarsOracle:
    """build_pillars is exactly the per-point, per-pillar loop of the oracle."""

    def test_seeded_clouds(self):
        rng = np.random.default_rng(38)
        truncated = overflowed = 0
        for case in range(60):
            n = int(rng.integers(1, 600))
            cfg = PillarGridConfig((-8.0, 8.0), (-6.0, 10.0),
                                   (int(rng.integers(1, 12)), int(rng.integers(1, 12))),
                                   int(rng.integers(1, 8)), int(rng.integers(1, 80)))
            out = assert_matches_oracle(cloud_of(rng.uniform(-9, 11, (n, 2)), rng), cfg, case)
            truncated += out.truncated_pillars > 0
            overflowed += bool((out.point_counts == cfg.max_points).any())
        assert truncated > 10 and overflowed > 10

    def test_overflowing_pillars(self):
        rng = np.random.default_rng(39)
        xy = np.vstack([rng.uniform(0.0, 1.9, (40, 2)), rng.uniform(-5.9, -4.1, (7, 2)),
                        [[6.5, 6.5]]])
        for seed in range(5):
            out = assert_matches_oracle(cloud_of(rng.permutation(xy), rng), small_cfg(t=5), seed)
            assert sorted(out.point_counts.tolist()) == [1, 5, 5]

    def test_truncation_with_tied_counts(self):
        rng = np.random.default_rng(40)
        # six cells of two points, two of three, in interleaved order
        cells = rng.permutation(np.repeat(np.arange(8), [2, 2, 3, 2, 2, 3, 2, 2]))
        xy = np.column_stack([-7.0 + 2.0 * cells + 0.5, np.full(len(cells), 0.5)])
        for max_pillars in range(1, 9):
            out = assert_matches_oracle(cloud_of(xy, rng), small_cfg(t=2, max_pillars=max_pillars),
                                        seed=3)
            assert out.truncated_pillars == 8 - max_pillars

    def test_single_point(self):
        out = assert_matches_oracle(RadarPointCloud(np.array([[1.5, -2.5, 0.3, 0.9]])),
                                    small_cfg(t=1, max_pillars=1), seed=0)
        assert out.point_counts.tolist() == [1]
        assert out.pillar_coords.tolist() == [[4, 2]]

    def test_nothing_in_range(self):
        rng = np.random.default_rng(41)
        out = assert_matches_oracle(cloud_of(rng.uniform(8.0, 20.0, (30, 2)), rng),
                                    small_cfg(), seed=0)
        assert out.features.shape == (0, 3, 9) and out.pillar_coords.shape == (0, 2)

    def test_points_on_edges(self):
        rng = np.random.default_rng(42)
        # the max edge of each range is outside the grid, the min edge inside
        xy = [[8.0, 0.0], [0.0, 8.0], [8.0, 8.0], [-8.0, -8.0], [-8.0, 7.999], [6.0, 6.0],
              [2.0, -2.0]]
        out = assert_matches_oracle(cloud_of(xy, rng), small_cfg(), seed=0)
        assert out.pillar_coords.tolist() == [[0, 0], [0, 7], [7, 7], [5, 3]]

    def test_duplicate_points(self):
        pts = np.tile([[0.5, 0.5, 0.1, 0.2], [-3.0, 4.0, 0.0, 0.0]], (9, 1))
        for seed in range(4):
            out = assert_matches_oracle(RadarPointCloud(pts), small_cfg(t=4), seed)
            assert out.point_counts.tolist() == [4, 4]
            assert np.all(out.features[:, :, 4:7] == 0.0)

    # lattice coordinates put points on cell edges, on each other and in
    # crowded cells; off-lattice values cover the rest
    _coord = st.one_of(st.integers(-12, 12).map(lambda k: k * 0.75),
                       st.floats(-9.5, 9.5, allow_nan=False))
    _point = st.tuples(_coord, _coord, st.floats(-3.0, 3.0), st.floats(0.0, 2.0))

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(st.lists(_point, max_size=60), st.integers(1, 5), st.integers(1, 12),
           st.integers(0, 2**32 - 1))
    def test_property_matches_oracle(self, points, t, max_pillars, seed):
        cloud = RadarPointCloud(np.array(points, dtype=np.float64).reshape(-1, 4))
        cfg = PillarGridConfig((-6.0, 6.0), (-6.0, 6.0), (4, 8), t, max_pillars)
        out = assert_matches_oracle(cloud, cfg, seed)
        weights = VfeWeights.random(np.random.default_rng(seed), 3)
        got = vfe_forward(out, weights)
        for p, n in enumerate(out.point_counts):
            mapped = np.maximum(0.0, out.features[p, :n] @ weights.weight.T + weights.bias)
            np.testing.assert_allclose(got[p], mapped.max(axis=0), rtol=0, atol=1e-12)


class TestVfeForward:
    def test_single_point_passthrough(self):
        # pick out column 0 (x) on one channel with zero bias
        w = np.zeros((1, 9))
        w[0, 0] = 1.0
        pillars = build_pillars(
            RadarPointCloud(np.array([[1.5, 0.5, 0.0, 1.0]])), small_cfg(), seed=0)
        out = vfe_forward(pillars, VfeWeights(w, np.zeros(1)))
        assert abs(out[0, 0] - 1.5) < 1e-15

    def test_duplicate_point_idempotent(self):
        rng = np.random.default_rng(33)
        weights = VfeWeights.random(rng, 6)
        single = build_pillars(
            RadarPointCloud(np.array([[1.0, 1.0, 0.3, 0.5]])), small_cfg(), seed=0)
        double = build_pillars(
            RadarPointCloud(np.array([[1.0, 1.0, 0.3, 0.5], [1.0, 1.0, 0.3, 0.5]])),
            small_cfg(), seed=0)
        np.testing.assert_allclose(vfe_forward(single, weights),
                                   vfe_forward(double, weights), atol=1e-15)

    def test_matches_masked_max_oracle(self):
        rng = np.random.default_rng(34)
        pts = np.column_stack([rng.uniform(-7.9, 7.9, 40), rng.uniform(-7.9, 7.9, 40),
                               rng.normal(0, 1, 40), rng.uniform(0, 1, 40)])
        pillars = build_pillars(RadarPointCloud(pts), small_cfg(t=5), seed=1)
        weights = VfeWeights.random(rng, 7)
        got = vfe_forward(pillars, weights)
        for p in range(pillars.features.shape[0]):
            n = pillars.point_counts[p]
            expect = np.full(7, -np.inf)
            for t in range(n):
                mapped = np.maximum(0.0, weights.weight @ pillars.features[p, t] + weights.bias)
                expect = np.maximum(expect, mapped)
            assert np.abs(got[p] - expect).max() < 1e-12

    def test_padding_excluded_from_max(self):
        # a negative-weight channel would be dominated by the zero pad row
        # if padding were included
        w = np.zeros((1, 9))
        w[0, 2] = 1.0
        bias = np.array([1.0])
        pts = np.array([[0.5, 0.5, -3.0, 1.0]])  # relu(1 - 3) = 0, pad row relu(1) = 1
        pillars = build_pillars(RadarPointCloud(pts), small_cfg(t=4), seed=0)
        out = vfe_forward(pillars, VfeWeights(w, bias))
        assert out[0, 0] == 0.0

    def test_permutation_invariance_of_real_points(self):
        rng = np.random.default_rng(35)
        # all four points land in one pillar, so reversing the cloud permutes
        # rows within that single pillar
        pts = np.column_stack([rng.uniform(0.0, 1.9, 4), rng.uniform(0.0, 1.9, 4),
                               rng.normal(0, 1, 4), rng.uniform(0, 1, 4)])
        weights = VfeWeights.random(rng, 5)
        a = vfe_forward(build_pillars(RadarPointCloud(pts), small_cfg(t=4), seed=0), weights)
        b = vfe_forward(build_pillars(RadarPointCloud(pts[::-1]), small_cfg(t=4), seed=0),
                        weights)
        assert a.shape == b.shape == (1, 5)
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_channel_count_validated(self):
        with pytest.raises(ValueError):
            VfeWeights(np.zeros((0, 9)), np.zeros(0))

    def test_no_pillars(self):
        tensor = PillarTensor(np.zeros((0, 4)), np.zeros(0, dtype=np.int64),
                              np.zeros((0, 2), dtype=np.int64), np.zeros((0, 2)), 4, 0, 0,
                              np.zeros(0, dtype=np.int64))
        assert tensor.features.shape == (0, 4, 9)
        out = vfe_forward(tensor, VfeWeights.random(np.random.default_rng(43), 6))
        assert out.shape == (0, 6)

    # features are the tensor's point rows, the encoder's input; the pillar
    # cells are fixed at two
    @pytest.mark.parametrize("features, counts, says", [
        (np.zeros((2, 4, 9)), [1, 1], r"\(N, 4\)"),
        (np.zeros((2, 3)), [1, 1], r"\(N, 4\)"),
        (np.zeros((2, 4)), [1, 1, 1], "point counts"),
        (np.zeros((2, 4)), [[1, 1]], "point counts"),
        (np.zeros((1, 4)), [1, 0], r"\[1, 4\]"),
        (np.zeros((6, 4)), [5, 1], r"\[1, 4\]"),
        (np.zeros((1, 4)), [-1, 2], r"\[1, 4\]"),
        (np.zeros((3, 4)), [1, 1], "sum to the 3 points"),
    ])
    def test_malformed_tensor_rejected(self, features, counts, says):
        # a zero count would otherwise read the next pillar's row
        with pytest.raises(ValueError, match=says):
            PillarTensor(features, np.array(counts), np.zeros((2, 2), dtype=np.int64),
                         np.zeros((2, 2)), 4, 0, len(features), np.zeros(1, dtype=np.int64))

    # BEV-range clouds: raw coordinates up to 50 m, where the folded product
    # and the per-pillar constant cancel most. Lattice values crowd cells
    # past T; few max_pillars truncate.
    _coord = st.one_of(st.integers(-8, 8).map(lambda k: k * 6.25),
                       st.floats(-50.0, 50.0, allow_nan=False))
    _point = st.tuples(_coord, _coord, st.floats(-5.0, 5.0), st.floats(0.0, 2.0))

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(st.lists(_point, max_size=80), st.integers(1, 4), st.integers(1, 4),
           st.integers(1, 5), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_factored_matches_nine_term_oracle(self, points, h, w, t, max_pillars, seed):
        cloud = RadarPointCloud(np.array(points, dtype=np.float64).reshape(-1, 4))
        cfg = PillarGridConfig((-50.0, 50.0), (-50.0, 50.0), (h, w), t, max_pillars)
        tensor = build_pillars(cloud, cfg, seed)
        weights = VfeWeights.random(np.random.default_rng(seed), 4)
        np.testing.assert_allclose(vfe_forward(tensor, weights), vfe_oracle(tensor, weights),
                                   rtol=0, atol=1e-12)


class TestScatter:
    def test_scatter_gather_roundtrip(self):
        rng = np.random.default_rng(36)
        pts = np.column_stack([rng.uniform(-7.9, 7.9, 60), rng.uniform(-7.9, 7.9, 60),
                               rng.normal(0, 1, 60), rng.uniform(0, 1, 60)])
        cfg = small_cfg(t=6)
        pillars = build_pillars(RadarPointCloud(pts), cfg, seed=2)
        feats = vfe_forward(pillars, VfeWeights.random(rng, 4))
        image = scatter_to_pseudo_image(feats, pillars.pillar_coords, cfg)
        np.testing.assert_array_equal(gather_from_pseudo_image(image, pillars.pillar_coords),
                                      feats)
        # untouched cells are exactly zero
        mask = np.ones((8, 8), dtype=bool)
        mask[pillars.pillar_coords[:, 1], pillars.pillar_coords[:, 0]] = False
        assert image.shape == (4, 8, 8) and np.all(image[:, mask] == 0.0)

    def test_out_of_grid_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            scatter_to_pseudo_image(np.ones((1, 2)), np.array([[9, 0]]), small_cfg())


class TestCloudIO:
    def test_pc4d_roundtrip(self, tmp_path):
        rng = np.random.default_rng(37)
        pts = np.column_stack([rng.normal(0, 10, (25, 3)), rng.uniform(0, 1, (25, 1))])
        path = tmp_path / "cloud.pc4d"
        write_pc4d(path, pts)
        back = read_pc4d(path)
        # f32 storage quantizes
        assert np.abs(back.points - pts).max() < 1e-6
        assert path.stat().st_size == 16 + 25 * 16

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.pc4d"
        p.write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(ValueError, match="header"):
            read_pc4d(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "short.pc4d"
        p.write_bytes(b"PC4D" + (5).to_bytes(4, "little") + b"\x00" * 8 + b"\x00" * 10)
        with pytest.raises(ValueError, match="truncated"):
            read_pc4d(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "long.pc4d"
        write_pc4d(p, np.zeros((2, 4)))
        p.write_bytes(p.read_bytes() + b"\x00" * 16)
        with pytest.raises(ValueError, match="16 trailing bytes.*long.pc4d"):
            read_pc4d(p)

    def test_oversized_count_rejected_before_allocating(self, tmp_path):
        p = tmp_path / "huge.pc4d"
        p.write_bytes(b"PC4D" + (1 << 22).to_bytes(4, "little") + b"\x00" * 8)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncated"):
                read_pc4d(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.tuples(*[st.floats(width=32, allow_nan=False, allow_infinity=False)] * 3,
                              st.floats(0.0, width=32, allow_infinity=False)), max_size=40))
    def test_pc4d_roundtrip_exact_at_f32(self, rows):
        pts = np.array(rows, dtype=np.float64).reshape(-1, 4)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cloud.pc4d")
            write_pc4d(path, pts)
            back = read_pc4d(path).points
        assert back.dtype == np.float64 and back.shape == pts.shape
        np.testing.assert_array_equal(back, pts)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_corrupted_pc4d_raises_only_value_or_os_error(self, data):
        rng = np.random.default_rng(45)
        pts = np.column_stack([rng.normal(0, 10, (6, 3)), rng.uniform(0, 1, 6)])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cloud.pc4d")
            write_pc4d(path, pts)
            with open(path, "rb") as fh:
                original = fh.read()
            blob = bytearray(original)
            if data.draw(st.booleans(), label="truncate"):
                blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
                must_fail = True
            else:
                for _ in range(data.draw(st.integers(1, 4), label="flips")):
                    # the count field (bytes 4-7) is drawn as often as the rest
                    at = data.draw(st.one_of(st.integers(4, 7), st.integers(0, len(blob) - 1)),
                                   label="at")
                    blob[at] ^= data.draw(st.integers(1, 255), label="mask")
                # a changed count no longer matches the file size
                must_fail = blob[4:8] != original[4:8]
            with open(path, "wb") as fh:
                fh.write(blob)
            try:
                cloud = read_pc4d(path)
            except (ValueError, OSError):
                return
        assert not must_fail, "a truncated cloud or a changed count was read"
        assert np.all(np.isfinite(cloud.points)) and np.all(cloud.points[:, 3] >= 0)

    def test_csv_import(self, tmp_path):
        p = tmp_path / "cloud.csv"
        p.write_text("x,y,z,r\n1.0,2.0,3.0,0.5\n-1.0,0.0,0.25,0.0\n")
        cloud = read_cloud_csv(p)
        np.testing.assert_allclose(cloud.points,
                                   [[1.0, 2.0, 3.0, 0.5], [-1.0, 0.0, 0.25, 0.0]])

    @pytest.mark.filterwarnings("error")
    def test_header_only_csv_is_a_silent_empty_cloud(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("x,y,z,r\n")
        assert read_cloud_csv(p).points.shape == (0, 4)

    def test_csv_header_required(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c,d\n1,2,3,4\n")
        with pytest.raises(ValueError, match="header"):
            read_cloud_csv(p)


class TestTypes:
    def test_negative_reflectivity_rejected(self):
        with pytest.raises(ValueError, match="reflectivity"):
            RadarPointCloud(np.array([[0.0, 0.0, 0.0, -0.1]]))

    def test_grid_config_validation(self):
        with pytest.raises(ValueError):
            PillarGridConfig((3.0, -3.0), (-3.0, 3.0), (4, 4), 5)
        with pytest.raises(ValueError):
            PillarGridConfig((-3.0, 3.0), (-3.0, 3.0), (4, 4), 0)

    def test_bev_view_is_the_same_grid(self):
        cfg = PillarGridConfig((-8.0, 8.0), (-6.0, 10.0), (4, 8), 5)
        assert cfg.bev == BEVGridConfig((-8.0, 8.0), (-6.0, 10.0), nx=8, ny=4)
        for bad in [((-3.0, 3.0), (2.0, 2.0), (4, 4)), ((-3.0, 3.0), (-3.0, 3.0), (0, 4))]:
            with pytest.raises(ValueError):
                PillarGridConfig(*bad, 5)
