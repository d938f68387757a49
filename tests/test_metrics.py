import dataclasses
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    ap_oracle, ase_exact, evaluate_oracle, greedy_match_oracle, load_boxes_oracle,
    tp_errors_oracle,
)

from bevkit.fusion import BoxSet, DetectionBox
from bevkit.metrics import (
    AP_THRESHOLDS,
    ATTRIBUTES,
    DETECTION_CLASSES,
    MatchResult,
    aggregate_summary,
    average_precision,
    box_to_json,
    class_mean_ap,
    compose_nds,
    evaluate_detections,
    load_boxes,
    match_center_distance,
    render_summary_table,
    save_boxes,
    tp_errors,
)


def sets(boxes_by_token):
    """Each token's list of DetectionBox as a BoxSet, the type evaluation takes."""
    return {token: BoxSet.from_boxes(boxes) for token, boxes in boxes_by_token.items()}


def box(cx, cy, score=0.5, yaw=0.0, vx=0.0, vy=0.0, size=(2.0, 4.0, 1.5),
        cls=0, attr=0):
    return DetectionBox(center=(cx, cy, 0.75), size=size, yaw=yaw,
                        velocity=(vx, vy), class_id=cls, score=score,
                        attribute_id=attr)


class TestMatchCenterDistance:
    def test_perfect_predictions_all_matched(self):
        gts = [box(0, 0), box(5, 5), box(-3, 2)]
        preds = [box(g.center[0], g.center[1], score=0.9) for g in gts]
        m = match_center_distance(preds, gts, 2.0)
        assert m.n_matched == 3

    def test_empty_predictions(self):
        m = match_center_distance([], [box(0, 0)], 2.0)
        assert m.n_matched == 0
        assert m.n_gt == 1

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(91)
        for case in range(100):
            n_p, n_g = rng.integers(0, 16, 2)
            preds = [box(*rng.uniform(-10, 10, 2), score=float(rng.uniform()))
                     for _ in range(n_p)]
            gts = [box(*rng.uniform(-10, 10, 2)) for _ in range(n_g)]
            thr = float(rng.choice(AP_THRESHOLDS))
            m = match_center_distance(preds, gts, thr)
            order, assign = greedy_match_oracle(preds, gts, thr)
            assert m.ranked_pred.tolist() == order
            for rank, pi in enumerate(order):
                expected = assign.get(pi, -1)
                assert m.ranked_gt[rank] == expected

    def test_matched_count_bounded(self):
        rng = np.random.default_rng(92)
        for _ in range(50):
            preds = [box(*rng.uniform(-5, 5, 2), score=float(rng.uniform()))
                     for _ in range(int(rng.integers(0, 10)))]
            gts = [box(*rng.uniform(-5, 5, 2)) for _ in range(int(rng.integers(0, 10)))]
            m = match_center_distance(preds, gts, 4.0)
            assert m.n_matched <= min(len(preds), len(gts))

    def test_tie_prefers_lower_gt_index(self):
        gts = [box(1.0, 0.0), box(-1.0, 0.0)]  # equidistant from origin
        preds = [box(0.0, 0.0, score=0.9)]
        m = match_center_distance(preds, gts, 2.0)
        assert m.ranked_gt[0] == 0


class TestAveragePrecision:
    def test_perfect_cover(self):
        gts = [box(i, 0) for i in range(4)]
        preds = [box(i, 0, score=0.9 - 0.1 * i) for i in range(4)]
        ap = average_precision(match_center_distance(preds, gts, 1.0))
        assert abs(ap - 1.0) < 1e-12

    def test_unmatchable_is_not_evaluable(self):
        preds = [box(50, 50, score=0.9)]
        gts = [box(0, 0)]
        assert average_precision(match_center_distance(preds, gts, 1.0)) is None

    def test_no_ground_truth_not_evaluable(self):
        assert average_precision(match_center_distance([box(0, 0, score=0.5)], [], 1.0)) is None

    def test_matches_all_ranks_oracle(self):
        rng = np.random.default_rng(93)
        for case in range(100):
            n_p, n_g = int(rng.integers(1, 15)), int(rng.integers(1, 15))
            preds = [box(*rng.uniform(-8, 8, 2), score=float(rng.uniform()))
                     for _ in range(n_p)]
            gts = [box(*rng.uniform(-8, 8, 2)) for _ in range(n_g)]
            m = match_center_distance(preds, gts, 2.0)
            got = average_precision(m)
            expect = ap_oracle(m.tp_flags.tolist(), m.n_gt)
            if expect is None:
                assert got is None
            else:
                assert abs(got - expect) < 1e-12

    def test_adding_correct_top_prediction_never_decreases(self):
        def ap_from_flags(flags, n_gt):
            ranked_gt = np.where(np.asarray(flags, dtype=bool), 0, -1)
            return average_precision(MatchResult(np.arange(len(flags)), ranked_gt, n_gt))

        rng = np.random.default_rng(94)
        for _ in range(50):
            flags = (rng.uniform(0, 1, int(rng.integers(1, 12))) > 0.5).tolist()
            n_gt = int(sum(flags) + rng.integers(1, 5))
            base = ap_from_flags(flags, n_gt)
            grown = ap_from_flags([True] + flags, n_gt)
            if base is not None:
                assert grown >= base - 1e-12


# Lattice centers make equidistant ground truths common, few score values make ties.
_lattice_box = st.builds(
    lambda x, y, s: box(x, y, score=s),
    st.integers(-3, 3), st.integers(-3, 3), st.sampled_from([0.25, 0.5, 0.75, 1.0]))


class TestProperties:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.lists(_lattice_box, max_size=12), st.lists(_lattice_box, max_size=12),
           st.sampled_from(AP_THRESHOLDS))
    def test_match_equals_greedy_oracle(self, preds, gts, thr):
        m = match_center_distance(preds, gts, thr)
        order, assign = greedy_match_oracle(preds, gts, thr)
        assert m.ranked_pred.tolist() == order
        assert m.ranked_gt.tolist() == [assign.get(pi, -1) for pi in order]

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.booleans(), max_size=40), st.integers(0, 45))
    @example([True] * 7 + [False, True], 2)  # recall 7/10 lies just below the 0.70 point
    def test_ap_equals_oracle(self, flags, extra_gt):
        n_gt = sum(flags) + extra_gt
        ranked_gt = np.where(np.array(flags, dtype=bool), 0, -1)
        got = average_precision(MatchResult(np.arange(len(flags)), ranked_gt, n_gt))
        expect = ap_oracle(flags, n_gt)
        assert got == expect if expect is None else abs(got - expect) < 1e-12


class TestClassMeanAp:
    def test_nan_counts_as_zero_trailer(self):
        # published fusion-model trailer row
        got = class_mean_ap((None, 0.063, 0.316, 0.444))
        assert abs(got - 0.206) <= 5e-4

    def test_full_row_car(self):
        got = class_mean_ap((0.320, 0.622, 0.761, 0.809))
        assert abs(got - 0.628) <= 5e-4

    def test_constant_row(self):
        assert class_mean_ap((0.4, 0.4, 0.4, 0.4)) == pytest.approx(0.4)

    def test_all_absent(self):
        assert class_mean_ap((None, None, None, None)) is None


class TestTpErrors:
    def test_identical_pairs_zero(self):
        b = box(1, 2, yaw=0.3, vx=1.0, vy=-2.0)
        out = tp_errors([(b, b)])
        for m in ("ate", "ase", "aoe", "ave", "aae"):
            assert out[m] == 0.0

    def test_quarter_turn_orientation(self):
        a = box(0, 0, yaw=0.0)
        b = box(0, 0, yaw=np.pi / 2)
        assert abs(tp_errors([(a, b)])["aoe"] - np.pi / 2) < 1e-12

    def test_yaw_wraps_to_pi(self):
        a = box(0, 0, yaw=-np.pi + 0.1)
        b = box(0, 0, yaw=np.pi - 0.1)
        assert abs(tp_errors([(a, b)])["aoe"] - 0.2) < 1e-12

    def test_matches_definitional_oracle(self):
        rng = np.random.default_rng(95)
        pairs = []
        for _ in range(12):
            p = box(*rng.uniform(-5, 5, 2), yaw=float(rng.uniform(-np.pi, np.pi)),
                    vx=float(rng.normal()), vy=float(rng.normal()),
                    size=tuple(rng.uniform(0.5, 4, 3)), attr=int(rng.integers(0, 3)))
            g = box(*rng.uniform(-5, 5, 2), yaw=float(rng.uniform(-np.pi, np.pi)),
                    vx=float(rng.normal()), vy=float(rng.normal()),
                    size=tuple(rng.uniform(0.5, 4, 3)), attr=int(rng.integers(0, 3)))
            pairs.append((p, g))
        got = tp_errors(pairs)
        expect = tp_errors_oracle(pairs)
        for name in expect:
            assert abs(got[name] - expect[name]) < 1e-10

    _side = st.floats(1e-100, 1e300)
    _sizes = st.tuples(_side, _side, _side)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.tuples(_sizes, _sizes), min_size=1, max_size=3))
    @example([((1e308, 1e308, 1e308), (1e308, 1e308, 1e308))])  # identical huge boxes
    @example([((1e-100, 1e300, 1e300), (1e300, 1e-100, 1e300))])  # ratios of 1e400
    @example([((1e-200, 1e-200, 1e-200), (2e-200, 1e-200, 1e-200))])  # volumes below 1e-308
    def test_ase_matches_exact_iou_at_any_scale(self, sizes):
        """ASE of finite sides, tiny to huge, against exact rational IOU (no NaN, no warning)."""
        pairs = [(box(0, 0, size=p), box(0, 0, size=g)) for p, g in sizes]
        want = sum(ase_exact(p, g) for p, g in sizes) / len(sizes)
        got = tp_errors(pairs)["ase"]
        assert abs(got - float(want)) <= 1e-12
        if all(p == g for p, g in sizes):
            assert got == 0.0

    def test_class_applicability(self):
        b = box(0, 0)
        cone = tp_errors([(b, b)], "traffic_cone")
        assert cone["aoe"] is None and cone["ave"] is None and cone["aae"] is None
        assert cone["ate"] == 0.0
        barrier = tp_errors([(b, b)], "barrier")
        assert barrier["aoe"] == 0.0 and barrier["ave"] is None

    def test_no_matches_all_absent(self):
        assert all(v is None for v in tp_errors([]).values())


class TestAggregation:
    def test_published_column_means(self):
        # fusion-model TP columns: translation over all ten classes, velocity
        # over the eight classes that carry it
        from bevkit.tables import FUSION_TP
        from bevkit.metrics import ClassEval, TP_METRICS

        evals = [ClassEval(n, [0.5, 0.5, 0.5, 0.5], dict(zip(TP_METRICS, FUSION_TP[n])))
                 for n in DETECTION_CLASSES]
        agg = aggregate_summary(evals)
        assert abs(agg.mtp["ate"] - 0.6044) <= 5e-4
        assert abs(agg.mtp["ave"] - 0.4244) <= 5e-4

    def test_single_class_passthrough(self):
        ce = evaluate_detections(sets({"s": [box(0, 0, score=0.9)]}),
                                 sets({"s": [box(0, 0)]})).per_class[0]
        agg = aggregate_summary([ce])
        assert agg.mean_ap == pytest.approx(ce.mean_ap)
        assert agg.mtp["ate"] == pytest.approx(ce.tp["ate"])
        agg.check()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_summary([])


class TestComposeNds:
    def test_published_fusion_row(self):
        nds = compose_nds(0.3891, [0.6044, 0.2780, 0.5830, 0.4244, 0.2129])
        assert abs(nds - 0.4845) <= 5e-4

    def test_published_baseline_row(self):
        nds = compose_nds(0.3160, [0.7014, 0.2855, 0.6310, 0.5919, 0.2199])
        assert abs(nds - 0.4150) <= 5e-4

    def test_perfect_score(self):
        assert compose_nds(1.0, [0.0] * 5) == 1.0

    def test_monotone_properties(self):
        rng = np.random.default_rng(96)
        for _ in range(1000):
            m = float(rng.uniform(0, 0.99))
            tps = rng.uniform(0, 2, 5).tolist()
            base = compose_nds(m, tps)
            assert compose_nds(m + 0.01, tps) > base
            i = int(rng.integers(0, 5))
            bumped = list(tps)
            if tps[i] < 0.95:
                bumped[i] = tps[i] + 0.05
                assert compose_nds(m, bumped) < base
            elif tps[i] > 1.0:
                bumped[i] = tps[i] + 0.5
                assert compose_nds(m, bumped) == pytest.approx(base)

    def test_validation(self):
        with pytest.raises(ValueError):
            compose_nds(1.2, [0.0] * 5)
        with pytest.raises(ValueError):
            compose_nds(0.5, [0.0] * 4)


class TestEvaluateDetections:
    def test_perfect_predictions_score_one(self):
        gts = {
            "s0": [box(0, 0, cls=0, attr=1), box(5, 5, cls=1, attr=2)],
            "s1": [box(-4, 2, cls=0, attr=1)],
        }
        preds = {tok: [DetectionBox(b.center, b.size, b.yaw, b.velocity,
                                    b.class_id, 0.9, b.attribute_id)
                       for b in boxes]
                 for tok, boxes in gts.items()}
        summary = evaluate_detections(sets(preds), sets(gts))
        assert summary.mean_ap == pytest.approx(1.0)
        assert summary.nds == pytest.approx(1.0)
        summary.check()

    def test_empty_predictions_zero_map(self):
        gts = {"s0": [box(0, 0, cls=0)]}
        preds = {"s0": []}
        summary = evaluate_detections(sets(preds), sets(gts))
        assert summary.mean_ap == 0.0

    def test_centers_too_far_apart_to_subtract_never_match(self):
        # 1e308 - (-1e308) overflows to an inf distance, without a RuntimeWarning
        preds, gts = [box(1e308, 0.0, score=0.9)], [box(-1e308, 0.0)]
        assert match_center_distance(preds, gts, 4.0).n_matched == 0
        assert evaluate_detections(sets({"s0": preds}), sets({"s0": gts})).mean_ap == 0.0

    @staticmethod
    def random_samples(rng, n_tokens):
        """Boxes by token: class 8 never in the ground truth, class 9 never predicted.

        Scores come from five values, so ties occur within and across tokens.
        """
        def rand_box(cls, xy, score):
            return box(*xy, score=score, yaw=float(rng.uniform(-np.pi, np.pi)),
                       vx=float(rng.normal()), vy=float(rng.normal()),
                       size=tuple(rng.uniform(0.5, 4.0, 3)), cls=cls,
                       attr=int(rng.integers(0, 3)))

        preds, gts = {}, {}
        for t in range(n_tokens):
            gt = [rand_box(int(rng.choice([c for c in range(10) if c != 8])),
                           rng.uniform(-10, 10, 2), 0.0)
                  for _ in range(int(rng.integers(0, 25)))]
            pr = []
            for _ in range(int(rng.integers(0, 60))):
                score = float(rng.choice([0.2, 0.4, 0.5, 0.7, 0.9]))
                if gt and rng.uniform() < 0.6:
                    g = gt[int(rng.integers(len(gt)))]
                    cls = g.class_id if g.class_id != 9 else int(rng.integers(0, 9))
                    xy = np.array(g.center[:2]) + rng.normal(0.0, 1.5, 2)
                else:
                    cls, xy = int(rng.integers(0, 9)), rng.uniform(-10, 10, 2)
                pr.append(rand_box(cls, xy, score))
            preds[f"tok{t}"], gts[f"tok{t}"] = pr, gt
        return preds, gts

    def test_matches_multi_token_oracle(self):
        def close(a, b):
            if isinstance(a, dict):
                return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
            if isinstance(a, list):
                return len(a) == len(b) and all(map(close, a, b))
            if a is None or b is None:
                return a is None and b is None
            return abs(a - b) <= 1e-12

        rng = np.random.default_rng(97)
        for case in range(12):
            preds, gts = self.random_samples(rng, int(rng.integers(0, 5)))
            got = evaluate_detections(sets(preds), sets(gts)).to_dict()
            got.pop("eval_time")
            expect = evaluate_oracle(preds, gts)
            assert close(got, expect), case
            if not gts:
                assert got["mean_ap"] == 0.0
                continue
            assert got["per_class"]["traffic_cone"]["ap_per_threshold"] == [None] * 4
            assert got["per_class"]["barrier"]["ap_per_threshold"] == [None] * 4

    def test_token_mismatch_rejected(self):
        with pytest.raises(ValueError, match="token"):
            evaluate_detections(sets({"a": []}), sets({"b": []}))


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_valid_box = st.builds(
    DetectionBox, center=st.tuples(_finite, _finite, _finite),
    size=st.tuples(_positive, _positive, _positive), yaw=_finite,
    velocity=st.tuples(_finite, _finite), class_id=st.integers(0, len(DETECTION_CLASSES) - 1),
    score=st.floats(0.0, 1.0), attribute_id=st.integers(0, len(ATTRIBUTES) - 1))


def _box_bits(b):
    """A box's numbers as float64 bytes (signed zeros count), class and attribute."""
    numbers = np.array([*b.center, *b.size, b.yaw, *b.velocity, b.score])
    return numbers.tobytes(), b.class_id, b.attribute_id


def _set_bits(boxes):
    """Each column's dtype and bytes."""
    return [(col.dtype, col.tobytes()) for col in
            (boxes.center, boxes.size, boxes.yaw, boxes.velocity, boxes.class_id,
             boxes.score, boxes.attribute_id)]


class TestBoxSet:
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(st.lists(_valid_box, max_size=6).map(BoxSet.from_boxes), st.booleans())
    def test_json_roundtrip_bit_exact(self, boxes, with_score):
        """BoxSet -> save_boxes -> load_boxes, and its list view."""
        with tempfile.TemporaryDirectory() as tmp:
            path, via_list = os.path.join(tmp, "set.json"), os.path.join(tmp, "list.json")
            save_boxes(path, {"s": boxes}, with_score)
            save_boxes(via_list, {"s": list(boxes)}, with_score)
            with open(path, "rb") as a, open(via_list, "rb") as b:
                assert a.read() == b.read()
            back = load_boxes(path)["s"]
        if not with_score:  # a file without scores loads them as 0
            boxes = BoxSet(boxes.center, boxes.size, boxes.yaw, boxes.velocity,
                           boxes.class_id, np.zeros(len(boxes)), boxes.attribute_id)
        assert _set_bits(back) == _set_bits(boxes)
        assert list(map(_box_bits, back)) == list(map(_box_bits, boxes))

    def test_take_concat_and_views(self):
        rng = np.random.default_rng(41)
        boxes = [box(*rng.uniform(-5, 5, 2), score=float(rng.uniform()), yaw=float(rng.normal()),
                     cls=int(rng.integers(10)), attr=int(rng.integers(9))) for _ in range(7)]
        bs = BoxSet.from_boxes(boxes)
        assert len(bs) == 7 and list(bs) == boxes
        idx = np.array([5, 0, 3])
        assert list(bs.take(idx)) == [boxes[i] for i in idx]
        parts = BoxSet.concat([bs.take(slice(0, 2)), bs.take(slice(2, 2)), bs.take(slice(2, 7))])
        assert _set_bits(parts) == _set_bits(bs)
        assert len(BoxSet.concat([])) == 0 and list(BoxSet.from_boxes([])) == []

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.lists(_valid_box, max_size=5).map(BoxSet.from_boxes), min_size=1,
                    max_size=4), st.data())
    def test_unchecked_take_and_concat_equal_checked_sets(self, parts, data):
        """take and concat skip the row check; their columns are those of BoxSet(*cols)."""
        fields = [f.name for f in dataclasses.fields(BoxSet)]
        joined = BoxSet.concat(parts)
        want = BoxSet(*(np.concatenate([getattr(p, f) for p in parts]) for f in fields))
        assert _set_bits(joined) == _set_bits(want)
        n = len(joined)
        idx = data.draw(st.one_of(
            st.lists(st.integers(0, max(n - 1, 0)), max_size=6 * (n > 0)).map(np.array),
            st.lists(st.booleans(), min_size=n, max_size=n).map(np.array),
            st.builds(slice, st.integers(-n - 1, n + 1), st.integers(-n - 1, n + 1))))
        if isinstance(idx, np.ndarray) and idx.dtype != bool:
            idx = idx.astype(np.int64)
        taken = joined.take(idx)
        assert _set_bits(taken) == _set_bits(BoxSet(*(getattr(joined, f)[idx] for f in fields)))

    @staticmethod
    def columns():
        rng = np.random.default_rng(42)
        return {"center": rng.uniform(-5, 5, (3, 3)), "size": rng.uniform(0.5, 3, (3, 3)),
                "yaw": rng.uniform(-3, 3, 3), "velocity": rng.normal(0, 1, (3, 2)),
                "class_id": np.array([0, 4, 9]), "score": np.array([0.0, 0.5, 1.0]),
                "attribute_id": np.array([0, 3, 8])}

    @pytest.mark.parametrize("column, at, value, says", [
        ("size", (1, 0), 0.0, "positive"), ("size", (2, 2), -1.0, "positive"),
        ("score", 0, -1e-9, r"\[0, 1\]"), ("score", 2, 1.5, r"\[0, 1\]"),
        ("center", (0, 1), np.nan, "finite"), ("size", (0, 2), np.inf, "finite"),
        ("yaw", 1, -np.inf, "finite"), ("velocity", (2, 0), np.nan, "finite"),
        ("score", 1, np.nan, "finite"), ("class_id", 1, 10, "lie in"),
        ("class_id", 0, -1, "lie in"), ("attribute_id", 2, 9, "lie in")])
    def test_rejects_bad_values_naming_the_column(self, column, at, value, says):
        cols = self.columns()
        cols[column][at] = value
        with pytest.raises(ValueError, match=rf"BoxSet\.{column} .*{says}"):
            BoxSet(**cols)

    @pytest.mark.parametrize("column, value", [
        ("yaw", np.zeros(2)), ("velocity", np.zeros((4, 2))), ("center", np.zeros((3, 2))),
        ("class_id", np.zeros((3, 1), dtype=int)), ("attribute_id", np.array([0.0, 1.0, 2.0]))])
    def test_rejects_ragged_or_misshapen_columns(self, column, value):
        cols = self.columns()
        cols[column] = value
        with pytest.raises(ValueError, match=rf"BoxSet\.{column} "):
            BoxSet(**cols)

    def test_valid_columns_build(self):
        bs = BoxSet(**self.columns())
        assert len(bs) == 3 and bs.class_id.dtype == np.int64


class TestBoxJson:
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(st.dictionaries(st.text(max_size=6), st.lists(_valid_box, max_size=4), max_size=3),
           st.booleans())
    def test_roundtrip_bit_exact(self, boxes, with_score):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "boxes.json")
            save_boxes(path, boxes, with_score)
            back = load_boxes(path)
        if not with_score:  # a file without scores loads them as 0
            boxes = {t: [dataclasses.replace(b, score=0.0) for b in bs]
                     for t, bs in boxes.items()}
        assert back.keys() == boxes.keys()
        for token, want in boxes.items():
            assert list(map(_box_bits, back[token])) == list(map(_box_bits, want))

    # values a box key may be set to, "drop" deleting the key
    _ODD_VALUES = st.sampled_from([
        "drop", None, True, 0, -1.0, 0.5, 2.0, 10 ** 400, 1e300, "0.5", " 1.5 ", "1_0", "nan",
        "car", "lorry", "", "vehicle.moving", [], [1.0], [0.0, 1.0], [1.0, 2.0, 3.0],
        [1.0, "2", 3.0], [1.0, None, 3.0], [1.0, 2.0, -3.0], [[1.0], 2.0, 3.0], {}, {"x": 1}])

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(st.dictionaries(st.text(max_size=4), st.lists(_valid_box, max_size=4), min_size=1,
                           max_size=3), st.booleans(), st.data())
    def test_matches_box_by_box_oracle(self, boxes, with_score, data):
        """load_boxes and the per-box oracle accept the same files, with the same columns.

        Files are valid, have one box key set to an odd value (or dropped),
        one box or token value replaced, or a few bytes flipped. A rejected
        box or token is named in the message, with the key.
        """
        payload = json.loads(json.dumps({t: [box_to_json(b, with_score) for b in bs]
                                         for t, bs in boxes.items()}))
        how = data.draw(st.sampled_from(["valid", "key", "key", "box", "token", "bytes"]),
                        label="how")
        boxed = [(t, i) for t, bs in payload.items() for i in range(len(bs))]
        says = None  # what a rejection must name
        if how == "key" and boxed:
            t, i = data.draw(st.sampled_from(boxed), label="box")
            key = data.draw(st.sampled_from(sorted(payload[t][i])), label="key")
            value = data.draw(self._ODD_VALUES, label="value")
            if value == "drop":
                del payload[t][i][key]
            else:
                payload[t][i][key] = value
            says = f"sample {t!r}, box {i}: {key} must be"
        elif how == "box" and boxed:
            t, i = data.draw(st.sampled_from(boxed), label="box")
            payload[t][i] = data.draw(self._ODD_VALUES, label="value")
            says = f"sample {t!r}, box {i}: "
        elif how == "token":
            t = data.draw(st.sampled_from(sorted(payload)), label="token")
            payload[t] = data.draw(self._ODD_VALUES, label="value")
            says = f"sample {t!r}"
        blob = bytearray(json.dumps(payload, indent=2).encode())
        if how == "bytes" and blob:
            for _ in range(data.draw(st.integers(1, 3), label="flips")):
                at = data.draw(st.integers(0, len(blob) - 1), label="at")
                blob[at] ^= data.draw(st.integers(1, 255), label="mask")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "boxes.json")
            with open(path, "wb") as fh:
                fh.write(blob)
            results, message = [], ""
            for read in (load_boxes, load_boxes_oracle):
                try:
                    results.append(read(path))
                except ValueError as err:
                    results.append(None)
                    message = message or str(err)
        got, want = results
        assert (got is None) == (want is None)
        if got is None and says:
            assert says in message
        if got is not None:
            assert got.keys() == want.keys()
            for token, boxes_ in want.items():
                assert _set_bits(got[token]) == _set_bits(BoxSet.from_boxes(boxes_))

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_corrupted_boxes_raise_only_value_or_os_error(self, data):
        boxes = {"s0": [box(1.5, -2.0, score=0.7, yaw=0.3, vx=1.0, cls=3, attr=2),
                        box(-4.0, 9.25, score=0.125, cls=9)], "s1": [box(0.0, 0.0)]}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "boxes.json")
            save_boxes(path, boxes)
            with open(path, "rb") as fh:
                original = fh.read()
            blob = bytearray(original)
            truncated = data.draw(st.booleans(), label="truncate")
            if truncated:
                blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
            else:
                for _ in range(data.draw(st.integers(1, 4), label="flips")):
                    at = data.draw(st.integers(0, len(blob) - 1), label="at")
                    blob[at] ^= data.draw(st.integers(1, 255), label="mask")
            with open(path, "wb") as fh:
                fh.write(blob)
            try:
                back = load_boxes(path)
            except (ValueError, OSError):
                return
        # a cut file loads only if the cut took no more than the trailing newline,
        # and every box that loads is a valid box
        assert not truncated or len(blob) >= len(original.rstrip())
        for b in (b for bs in back.values() for b in bs):
            assert np.all(np.isfinite([*b.center, *b.size, b.yaw, *b.velocity]))
            assert 0.0 <= b.score <= 1.0
            assert min(b.size) > 0

    def test_roundtrip(self, tmp_path):
        boxes = {"s0": [box(1.5, -2.0, score=0.7, yaw=0.3, vx=1.0, cls=3, attr=2)]}
        path = tmp_path / "boxes.json"
        save_boxes(path, boxes)
        (b0,), (b1,) = boxes["s0"], load_boxes(path)["s0"]
        assert b1.center == b0.center
        assert b1.class_id == b0.class_id
        assert b1.score == b0.score
        assert b1.attribute_id == b0.attribute_id

    def test_table_rendering(self):
        summary = evaluate_detections(sets({"s": [box(0, 0, score=0.9)]}),
                                      sets({"s": [box(0, 0)]}))
        text = render_summary_table({"demo": summary})
        assert "demo" in text and "NDS" in text


def test_class_list_is_the_ten_class_benchmark():
    assert len(DETECTION_CLASSES) == 10
    assert "car" in DETECTION_CLASSES and "barrier" in DETECTION_CLASSES
