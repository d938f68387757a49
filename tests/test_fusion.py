import tracemalloc

import numpy as np
import pytest
from oracles import brute_force_match, cell_box, iou_bev, sigmoid_oracle

from bevkit.fusion import (
    BCE_CLAMP,
    BoxSet,
    DetectionBox,
    _bce,
    depth_bce_loss,
    detection_loss,
    fuse_bev_features,
    match_radar_to_heatmap,
)
from bevkit.geometry import DepthMap
from bevkit.nnprims import DepthBinSpec
from bevkit.voxelpool import BEVGridConfig


def box(cx, cy, w=2.0, l=2.0, score=0.5, vx=0.0, vy=0.0, cls=0):
    return DetectionBox(center=(cx, cy, 0.5), size=(w, l, 1.0), yaw=0.0,
                        velocity=(vx, vy), class_id=cls, score=score)


class TestFuseBevFeatures:
    def test_zero_radar(self):
        rng = np.random.default_rng(72)
        f = rng.normal(0, 1, (3, 4, 4))
        out = fuse_bev_features(f, np.zeros_like(f))
        np.testing.assert_array_equal(out, f)

    def test_two_equal_grids(self):
        g = np.full((2, 3, 3), 1.5)
        np.testing.assert_array_equal(fuse_bev_features(g, g), 2.0 * g)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(73)
        a, b = rng.normal(0, 1, (2, 4, 2, 5))
        got = fuse_bev_features(a, b)
        for i in np.ndindex(a.shape):
            assert abs(got[i] - (a[i] + b[i])) < 1e-15

    def test_commutative(self):
        rng = np.random.default_rng(74)
        a, b = rng.normal(0, 1, (2, 2, 3, 3))
        assert np.array_equal(fuse_bev_features(a, b), fuse_bev_features(b, a))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fuse_bev_features(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))


class TestIouBev:
    def test_identical_boxes(self):
        b = box(1.0, 1.0)
        assert iou_bev(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iou_bev(box(0.0, 0.0), box(10.0, 10.0)) == 0.0

    def test_offset_squares_one_seventh(self):
        a, b = box(0.0, 0.0, 2.0, 2.0), box(1.0, 1.0, 2.0, 2.0)
        assert abs(iou_bev(a, b) - 1.0 / 7.0) < 1e-12

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(75)
        for _ in range(1000):
            a = box(*rng.uniform(-5, 5, 2), *rng.uniform(0.5, 4, 2))
            b = box(*rng.uniform(-5, 5, 2), *rng.uniform(0.5, 4, 2))
            ab, ba = iou_bev(a, b), iou_bev(b, a)
            assert abs(ab - ba) < 1e-12
            assert 0.0 <= ab <= 1.0
            assert iou_bev(a, a) == 1.0


class TestMatchRadarToHeatmap:
    """The gate takes (n_classes, cells) flat logits and scores only the proposals."""

    def test_cold_heatmap_no_matches(self):
        got = match_radar_to_heatmap(np.arange(64), np.full((2, 64), -50.0), 0.5)
        assert got.dtype == np.int64 and got.size == 0

    def test_exact_cell_cover(self):
        logits = np.full((2, 64), -50.0)
        logits[1, 36] = 2.5  # cell (iy=4, ix=4) of an 8x8 grid, score 0.924
        # its four edge neighbours and the cell itself are proposed
        got = match_radar_to_heatmap(np.array([28, 35, 36, 37, 44]), logits, 0.5)
        np.testing.assert_array_equal(got, [36])
        np.testing.assert_array_equal(match_radar_to_heatmap([36], logits, 0.9), [36])
        assert match_radar_to_heatmap([36], logits, 0.95).size == 0

    def test_every_match_clears_threshold(self):
        rng = np.random.default_rng(77)
        logits = rng.normal(0.0, 2.0, (2, 64))
        cells = np.arange(64)
        got = match_radar_to_heatmap(cells, logits, 0.4)
        best = sigmoid_oracle(logits).max(axis=0)
        assert np.all(best[got] >= 0.4)
        assert np.all(best[np.setdiff1d(cells, got)] < 0.4)

    def test_keeps_proposal_order(self):
        rng = np.random.default_rng(82)
        logits = rng.normal(0.0, 2.0, (2, 64))
        cells = rng.permutation(64)
        got = match_radar_to_heatmap(cells, logits, 0.5)
        confident = sigmoid_oracle(logits).max(axis=0) >= 0.5
        assert got.tolist() == [c for c in cells.tolist() if confident[c]]

    def test_deterministic(self):
        rng = np.random.default_rng(78)
        logits = rng.normal(0.0, 2.0, (2, 64))
        cells = np.unique(rng.integers(0, 64, 20))
        a = match_radar_to_heatmap(cells, logits, 0.5)
        b = match_radar_to_heatmap(cells, logits, 0.5)
        np.testing.assert_array_equal(a, b)

    def test_thresholds_validated(self):
        logits = np.zeros((1, 64))
        for thresh in (1.5, -0.1):
            with pytest.raises(ValueError, match="score_thresh"):
                match_radar_to_heatmap([], logits, thresh)
        for cells in ([64], [-1]):
            with pytest.raises(ValueError, match="flat ids"):
                match_radar_to_heatmap(cells, logits, 0.5)

    def test_matches_brute_force_oracle(self):
        """One-cell boxes at proposal cells, matched by IOU argmax: the same cells."""
        rng = np.random.default_rng(76)
        for _ in range(30):
            nx, ny = (int(n) for n in rng.integers(1, 10, 2))
            x0, y0 = rng.uniform(-60.0, 60.0, 2)
            cfg = BEVGridConfig((x0, x0 + rng.uniform(0.5, 40.0)),
                                (y0, y0 + rng.uniform(0.5, 40.0)), nx, ny)
            logits = rng.normal(0.0, 2.0, (3, ny * nx))
            score_thresh = float(rng.uniform(0.05, 0.95))
            iou_thresh = float(10.0 ** rng.uniform(-12.0, np.log10(0.99)))
            cells = np.unique(rng.integers(0, nx * ny, int(rng.integers(1, nx * ny + 1))))
            boxes = [cell_box(cfg, *divmod(int(c), nx)) for c in cells]
            scores = sigmoid_oracle(logits).reshape(3, ny, nx)
            expect = [iy * nx + ix for (iy, ix), _ in
                      filter(None, brute_force_match(boxes, scores, cfg, score_thresh,
                                                     iou_thresh))]
            assert match_radar_to_heatmap(cells, logits, score_thresh).tolist() == expect


class TestDetectionLoss:
    def test_perfect_prediction_near_zero(self):
        gt = np.zeros((2, 4, 4))
        gt[0, 1, 1] = 1.0
        b = box(0.0, 0.0)
        l_det, l_hm, l_bbox = detection_loss(gt, gt, BoxSet.from_boxes([b]),
                                             BoxSet.from_boxes([b]))
        assert l_det <= 1e-6
        assert l_hm <= 1e-6
        assert l_bbox == 0.0

    def test_half_confidence_ln2(self):
        l_det, l_hm, l_bbox = detection_loss(np.array([[[0.5]]]), np.array([[[1.0]]]), [], [])
        assert abs(l_hm - np.log(2.0)) < 1e-12
        assert l_bbox == 0.0

    def test_matches_hand_oracle(self):
        rng = np.random.default_rng(79)
        pred = rng.uniform(0.01, 0.99, (2, 3, 3))
        gt = (rng.uniform(0, 1, (2, 3, 3)) > 0.7).astype(float)
        boxes_p = [box(*rng.uniform(-3, 3, 2), vx=1.0) for _ in range(4)]
        boxes_g = [box(*rng.uniform(-3, 3, 2)) for _ in range(4)]
        l_det, l_hm, l_bbox = detection_loss(pred, gt, BoxSet.from_boxes(boxes_p),
                                             BoxSet.from_boxes(boxes_g))
        bce = 0.0
        for i in np.ndindex(pred.shape):
            p = min(max(pred[i], 1e-7), 1 - 1e-7)
            bce += -(gt[i] * np.log(p) + (1 - gt[i]) * np.log(1 - p))
        bce /= pred.size
        def params(b):
            return np.array([*b.center, *b.size, b.yaw, *b.velocity])

        l1 = np.mean([np.abs(params(p) - params(g)).mean() for p, g in zip(boxes_p, boxes_g)])
        assert abs(l_hm - bce) < 1e-10
        assert abs(l_bbox - l1) < 1e-10
        assert abs(l_det - (bce + l1)) < 1e-10

    def test_bce_is_the_two_term_expression_bit_for_bit(self):
        # _bce takes log(p) only where the target is not 0
        rng = np.random.default_rng(82)
        pred = np.r_[rng.uniform(0, 1, 395), 0.0, 1.0, 1e-9, 1 - 1e-9, 0.5].reshape(4, 10, 10)
        one_hot = np.zeros_like(pred)
        one_hot[rng.integers(0, 4, 20), rng.integers(0, 10, 20), rng.integers(0, 10, 20)] = 1.0
        for target in (np.zeros_like(pred), one_hot, rng.uniform(0, 1, pred.shape)):
            p = np.clip(pred, BCE_CLAMP, 1.0 - BCE_CLAMP)
            full = -(target * np.log(p) + (1.0 - target) * np.log1p(-p))
            assert _bce(pred, target).tobytes() == full.tobytes()

    def test_bce_leaves_its_inputs_unchanged(self):
        rng = np.random.default_rng(83)
        inside = rng.uniform(BCE_CLAMP, 1.0 - BCE_CLAMP, (3, 6, 6))  # clip changes nothing
        wide = np.r_[rng.uniform(0, 1, 105), 0.0, 1.0, 1e-9].reshape(3, 6, 6)
        hot = (rng.uniform(0, 1, wide.shape) > 0.8).astype(float)
        for pred in (inside, wide):
            for target in (np.zeros_like(pred), hot):
                pred_before, target_before = pred.copy(), target.copy()
                out = _bce(pred, target)
                assert pred.tobytes() == pred_before.tobytes()
                assert target.tobytes() == target_before.tobytes()
                assert not np.shares_memory(out, pred)

    def test_bce_allocation_budget(self):
        # the clipped copy that becomes the result, plus the hot mask and cells
        rng = np.random.default_rng(84)
        pred = rng.uniform(0, 1, (10, 128, 128))
        target = np.zeros_like(pred)
        target[rng.integers(0, 10, 24), rng.integers(0, 128, 24), rng.integers(0, 128, 24)] = 1.0
        tracemalloc.start()
        try:
            _bce(pred, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * pred.nbytes

    def test_nonnegative_and_zero_only_when_perfect(self):
        rng = np.random.default_rng(80)
        for _ in range(20):
            pred = rng.uniform(0, 1, (1, 2, 2))
            gt = (rng.uniform(0, 1, (1, 2, 2)) > 0.5).astype(float)
            l_det, _, _ = detection_loss(pred, gt, [], [])
            assert l_det >= 0.0
            if not np.allclose(pred, gt, atol=1e-7):
                assert l_det > 1e-6


class TestDepthBceLoss:
    def bins(self):
        return DepthBinSpec(2.0, 10.0, 4)

    def test_one_hot_perfect(self):
        bins = self.bins()
        p = np.zeros((4, 1, 2))
        p[0, 0, 0] = 1.0
        p[3, 0, 1] = 1.0
        dm = DepthMap(np.array([[2.5, 9.5]]))
        assert depth_bce_loss(p, dm, bins) <= 1e-5

    def test_uniform_closed_form(self):
        p = np.full((4, 1, 1), 0.25)
        dm = DepthMap(np.array([[3.0]]))
        expect = (-np.log(0.25) - 3.0 * np.log(0.75)) / 4.0
        assert abs(depth_bce_loss(p, dm, self.bins()) - expect) < 1e-12

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(81)
        bins = self.bins()
        p = rng.uniform(0.01, 0.99, (4, 3, 5))
        vals = rng.uniform(2.0, 10.0, (3, 5))
        vals[0, 0] = -1.0  # sentinel excluded
        dm = DepthMap(vals)
        got = depth_bce_loss(p, dm, bins)
        total, count = 0.0, 0
        for j in range(3):
            for k in range(5):
                if vals[j, k] <= 0:
                    continue
                idx = int(np.floor((vals[j, k] - bins.d_min) / bins.bin_width))
                idx = min(max(idx, 0), 3)
                pixel = 0.0
                for l in range(4):
                    y = 1.0 if l == idx else 0.0
                    q = min(max(p[l, j, k], 1e-7), 1 - 1e-7)
                    pixel += -(y * np.log(q) + (1 - y) * np.log(1 - q))
                total += pixel / 4.0
                count += 1
        assert abs(got - total / count) < 1e-10

    def test_no_supervision_rejected(self):
        dm = DepthMap(np.full((2, 2), -1.0))
        with pytest.raises(ValueError, match="supervised"):
            depth_bce_loss(np.full((4, 2, 2), 0.25), dm, self.bins())


class TestDetectionBoxType:
    def test_size_positive(self):
        with pytest.raises(ValueError):
            DetectionBox((0, 0, 0), (0.0, 1.0, 1.0), 0.0, (0, 0), 0)

    def test_score_range(self):
        with pytest.raises(ValueError):
            DetectionBox((0, 0, 0), (1, 1, 1), 0.0, (0, 0), 0, score=1.5)
