import tracemalloc

import numpy as np
import pytest

from bevkit.pillars import (
    PillarGridConfig,
    RadarPointCloud,
    VfeWeights,
    augment_points,
    build_pillars,
    gather_from_pseudo_image,
    read_cloud_csv,
    read_pc4d,
    scatter_to_pseudo_image,
    vfe_forward,
    write_pc4d,
)


def small_cfg(t=3, max_pillars=4096):
    return PillarGridConfig((-8.0, 8.0), (-8.0, 8.0), (8, 8), t, max_pillars)


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
        assert np.all(image.data[:, mask] == 0.0)

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

    def test_csv_import(self, tmp_path):
        p = tmp_path / "cloud.csv"
        p.write_text("x,y,z,r\n1.0,2.0,3.0,0.5\n-1.0,0.0,0.25,0.0\n")
        cloud = read_cloud_csv(p)
        np.testing.assert_allclose(cloud.points,
                                   [[1.0, 2.0, 3.0, 0.5], [-1.0, 0.0, 0.25, 0.0]])

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
