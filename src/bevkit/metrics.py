"""nuScenes-style detection evaluation.

Predictions are greedily matched to ground truth by BEV center distance at
thresholds of 0.5/1/2/4 meters, per-class AP comes from 101-point recall
interpolation of the rank-accumulated precision-recall curve, and the five
true-positive error metrics are computed on the 2-meter matches.

Boxes files load straight into box columns (fusion.BoxSet), and evaluation
reads only those; the JSON I/O and the number rule they pass are nnprims'.
Per class and sample, one (P, G) distance matrix over the score-ranked
predictions serves all four thresholds, and the greedy loop visits only
predictions with a ground truth within the threshold, stopping once every
ground truth is taken. Samples are merged for the precision-recall sweep by
one stable argsort of the concatenated scores, and AP reads the 101 recall
points off a suffix maximum of precision. Aggregation follows two distinct
missing-value rules, both verified against published reference tables: a
class's mean AP averages over all four thresholds with non-evaluable entries
contributing zero, while the global mean of each TP error skips classes
where the metric is absent.

No range or visibility filtering is applied before evaluation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .fusion import ATTRIBUTES, BOX_COLUMNS, DETECTION_CLASSES, BoxSet, DetectionBox
from .nnprims import finite_floats, json_floats, known_keys, name_index, read_json, write_json

AP_THRESHOLDS = (0.5, 1.0, 2.0, 4.0)
TP_THRESHOLD = 2.0  # TP errors use the 2 m matches
TP_METRICS = ("ate", "ase", "aoe", "ave", "aae")
_BOX_KEYS = {key for key, _, _ in BOX_COLUMNS.values()}  # the keys a box may hold

# Metrics without meaning for a class are reported absent (the NaN cells of
# published result tables): cones carry no orientation/velocity/attribute,
# barriers no velocity/attribute.
CLASS_TP_METRICS = {
    "traffic_cone": ("ate", "ase"),
    "barrier": ("ate", "ase", "aoe"),
}


@dataclass
class MatchResult:
    """Greedy matching output for one class at one distance threshold.

    ranked_* arrays follow descending prediction score; matched gt indices
    are -1 for false positives.
    """

    ranked_pred: np.ndarray
    ranked_gt: np.ndarray
    n_gt: int

    @property
    def tp_flags(self) -> np.ndarray:
        return self.ranked_gt >= 0

    @property
    def n_matched(self) -> int:
        return int(np.count_nonzero(self.tp_flags))


def _ranked_distances(scores: np.ndarray, pred_xy: np.ndarray, gt_xy: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prediction order, ranked scores and (P, G) BEV center distances.

    Predictions are ranked by descending score, input order breaking ties;
    row r of the distance matrix belongs to the prediction of rank r.
    """
    order = np.argsort(-scores, kind="stable")
    (px, py), (gx, gy) = pred_xy.take(order, axis=0).T, gt_xy.T
    with np.errstate(over="ignore"):  # centers too far apart to subtract are inf apart
        dist = np.hypot(gx - px[:, None], gy - py[:, None])
    return order, scores[order], dist


def _greedy_match(dist: np.ndarray, threshold: float) -> np.ndarray:
    """Matched gt index per ranked prediction (-1 when unmatched).

    Rank by rank, each prediction takes the nearest untaken ground truth
    within the threshold, equal distances resolving to the lower gt index.
    Rows with no ground truth in reach are never visited, and the loop ends
    once every ground truth is taken.
    """
    ranked_gt = np.full(dist.shape[0], -1, dtype=np.int64)
    rows = np.flatnonzero((dist <= threshold).any(axis=1))
    free = dist.take(rows, axis=0)  # taken columns are set to inf
    n_free = dist.shape[1]
    for k, rank in enumerate(rows.tolist()):
        gi = int(np.argmin(free[k]))  # first minimum = lowest gt index
        if free[k, gi] <= threshold:
            ranked_gt[rank] = gi
            free[:, gi] = np.inf
            n_free -= 1
            if not n_free:
                break
    return ranked_gt


def match_center_distance(preds: list[DetectionBox], gts: list[DetectionBox],
                          threshold: float) -> MatchResult:
    """Greedy per-class matching by BEV center distance.

    Predictions are visited in descending score (input order breaking
    ties); each takes the nearest unmatched ground truth within the
    threshold, equal distances resolving to the lower gt index.
    """
    pred, gt = BoxSet.from_boxes(preds), BoxSet.from_boxes(gts)
    order, _, dist = _ranked_distances(pred.score, pred.center[:, :2], gt.center[:, :2])
    return MatchResult(order, _greedy_match(dist, threshold), len(gt))


_RECALL_POINTS = np.linspace(0.0, 1.0, 101)


def average_precision(match: MatchResult) -> float | None:
    """Area under the PR curve via 101-point recall interpolation.

    At each recall point the interpolated precision is the best precision
    at any rank reaching that recall: a suffix maximum of precision read at
    the first such rank (recall never falls with rank). Returns None (not
    evaluable) when there is no ground truth or no prediction ever matches,
    mirroring the NaN cells of published tables.
    """
    if match.n_gt == 0 or match.n_matched == 0:
        return None
    tp = np.cumsum(match.tp_flags.astype(np.float64))
    ranks = np.arange(1, len(tp) + 1, dtype=np.float64)
    precision = tp / ranks
    recall = tp / match.n_gt
    best_from = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    ap = 0.0
    for p in best_from[np.searchsorted(recall, _RECALL_POINTS - 1e-12)].tolist():
        ap += p  # one by one: a pairwise or compensated sum changes the last bits
    return ap / 101.0


def class_mean_ap(ap_per_threshold) -> float | None:
    """Mean over all four thresholds, non-evaluable entries counting zero.

    Returns None when no threshold is evaluable; such classes are excluded
    from the global mean.
    """
    vals = [a for a in ap_per_threshold if a is not None]
    if not vals:
        return None
    return float(sum(vals)) / len(ap_per_threshold)


def _tp_errors(pred: BoxSet, gt: BoxSet, class_name: str | None = None
               ) -> dict[str, float | None]:
    """Mean TP errors over the aligned rows of pred and gt (the 2 m matches).

    ate: BEV center distance; ase: 1 - IOU of the sizes with centers and yaw
    aligned; aoe: yaw difference wrapped into [0, pi]; ave: velocity
    difference; aae: 1 - attribute accuracy. Values are None when there are
    no matches or the metric does not apply to the class.
    The IOU divides each axis of a pair by the power of two of its smaller
    side, exactly: the intersection is then in [1/8, 1), so finite sides of
    any scale give no 0/0 or inf - inf, at worst an inf union (IOU 0).
    """
    applicable = CLASS_TP_METRICS.get(class_name, TP_METRICS) if class_name else TP_METRICS
    out: dict[str, float | None] = {m: None for m in TP_METRICS}
    if not len(pred):
        return out
    if "ate" in applicable:
        d = pred.center - gt.center
        out["ate"] = float(np.mean(np.hypot(d[:, 0], d[:, 1])))
    if "ase" in applicable:
        smaller = np.minimum(pred.size, gt.size)
        exp = -np.frexp(smaller)[1]
        inter = np.prod(np.ldexp(smaller, exp), axis=1)
        with np.errstate(over="ignore"):  # an inf union is an IOU below 1e-308
            union = (np.prod(np.ldexp(pred.size, exp), axis=1)
                     + np.prod(np.ldexp(gt.size, exp), axis=1) - inter)
        out["ase"] = float(np.mean(1.0 - inter / union))
    if "aoe" in applicable:
        d = np.abs(pred.yaw - gt.yaw) % (2.0 * np.pi)
        out["aoe"] = float(np.mean(np.minimum(d, 2.0 * np.pi - d)))
    if "ave" in applicable:
        d = pred.velocity - gt.velocity
        out["ave"] = float(np.mean(np.hypot(d[:, 0], d[:, 1])))
    if "aae" in applicable:
        out["aae"] = float(1.0 - np.mean(pred.attribute_id == gt.attribute_id))
    return out


def tp_errors(matched_pairs: list[tuple[DetectionBox, DetectionBox]],
              class_name: str | None = None) -> dict[str, float | None]:
    """_tp_errors over a list of (pred, gt) DetectionBox pairs."""
    return _tp_errors(BoxSet.from_boxes(p for p, _ in matched_pairs),
                      BoxSet.from_boxes(g for _, g in matched_pairs), class_name)


@dataclass
class ClassEval:
    """One class's APs across thresholds, its TP errors and the 2 m (pred, gt)
    pairs they came from, as two row-aligned box sets: samples in token
    order, each in rank order. EvalSummary.to_dict leaves the pairs out."""

    class_name: str
    ap_per_threshold: list[float | None]
    tp: dict[str, float | None] = field(default_factory=dict)
    tp_pairs: tuple[BoxSet, BoxSet] = field(
        default_factory=lambda: (BoxSet.from_boxes([]), BoxSet.from_boxes([])))

    @property
    def mean_ap(self) -> float | None:
        return class_mean_ap(self.ap_per_threshold)


@dataclass
class EvalSummary:
    """Global evaluation result; NDS is recomputed from its own fields."""

    per_class: list[ClassEval]
    mean_ap: float
    mtp: dict[str, float | None]
    nds: float
    eval_time: float = 0.0

    def check(self) -> None:
        expect = compose_nds(self.mean_ap, [self.mtp[m] for m in TP_METRICS])
        if abs(expect - self.nds) > 1e-6:
            raise ValueError(f"inconsistent NDS: stored {self.nds}, recomputed {expect}")

    def to_dict(self) -> dict:
        return {
            "per_class": {
                ce.class_name: {
                    "ap_per_threshold": ce.ap_per_threshold,
                    "mean_ap": ce.mean_ap,
                    "tp_errors": ce.tp,
                }
                for ce in self.per_class
            },
            "mean_ap": self.mean_ap,
            "mtp": self.mtp,
            "nds": self.nds,
            "eval_time": self.eval_time,
        }


def compose_nds(mean_ap: float, mtps) -> float:
    """(5*mAP + sum over the five TP errors of (1 - min(1, err))) / 10.

    An absent error contributes nothing, i.e. counts as saturated at 1.
    """
    if not 0.0 <= mean_ap <= 1.0:
        raise ValueError("mean AP must lie in [0, 1]")
    total = 5.0 * mean_ap
    mtps = list(mtps)
    if len(mtps) != 5:
        raise ValueError("exactly five TP error values expected")
    for err in mtps:
        if err is None:
            continue
        if err < 0:
            raise ValueError("TP errors are non-negative")
        total += 1.0 - min(1.0, err)
    return total / 10.0


def aggregate_summary(per_class: list[ClassEval]) -> EvalSummary:
    """Combine class results under the two documented missing-value rules."""
    if not per_class:
        raise ValueError("need at least one class")
    mean_aps = [ce.mean_ap for ce in per_class if ce.mean_ap is not None]
    global_map = float(np.mean(mean_aps)) if mean_aps else 0.0
    mtp: dict[str, float | None] = {}
    for metric in TP_METRICS:
        present = [ce.tp[metric] for ce in per_class if ce.tp.get(metric) is not None]
        mtp[metric] = float(np.mean(present)) if present else None
    nds = compose_nds(global_map, [mtp[m] for m in TP_METRICS])
    return EvalSummary(per_class, global_map, mtp, nds)


def _stacked(boxes_by_token: dict[str, BoxSet], tokens: list[str]
             ) -> tuple[BoxSet, np.ndarray, np.ndarray]:
    """Every token's boxes as one BoxSet, tokens in order, plus its groups.

    One stable argsort by (class, token) lists the rows of group
    k = class * len(tokens) + token at order[bounds[k]:bounds[k + 1]], in
    input order, for each of the DETECTION_CLASSES.
    """
    sets = [boxes_by_token[t] for t in tokens]
    boxes = BoxSet.concat(sets)
    token = np.repeat(np.arange(len(tokens)), [len(b) for b in sets])
    key = boxes.class_id * len(tokens) + token
    order = np.argsort(key, kind="stable")
    bounds = np.searchsorted(key[order], np.arange(len(DETECTION_CLASSES) * len(tokens) + 1))
    return boxes, order, bounds


def evaluate_detections(preds_by_token: dict[str, BoxSet], gts_by_token: dict[str, BoxSet]
                        ) -> EvalSummary:
    """Full evaluation over samples, timed into eval_time; matches never cross tokens."""
    t0 = time.perf_counter()
    if set(preds_by_token) != set(gts_by_token):
        raise ValueError("prediction and ground-truth sample tokens differ")
    tokens = sorted(gts_by_token)
    preds, p_order, p_bounds = _stacked(preds_by_token, tokens)
    gts, g_order, g_bounds = _stacked(gts_by_token, tokens)
    # contiguous, as take() first copies a strided source whole, on every call
    pred_xy, gt_xy = (np.ascontiguousarray(b.center[:, :2]) for b in (preds, gts))
    per_class = []
    for ci, name in enumerate(DETECTION_CLASSES):
        # Rank accumulation needs one global score ordering per class, so
        # per-token matches are merged before the PR sweep.
        pair_p, pair_g = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        n_gt_total = 0
        scores = [np.zeros(0)]
        matched = [np.zeros((len(AP_THRESHOLDS), 0), dtype=bool)]  # threshold x rank
        for k in range(ci * len(tokens), (ci + 1) * len(tokens)):
            p = p_order[p_bounds[k]:p_bounds[k + 1]]
            g = g_order[g_bounds[k]:g_bounds[k + 1]]
            n_gt_total += len(g)
            order, ranked_scores, dist = _ranked_distances(
                preds.score[p], pred_xy.take(p, axis=0), gt_xy.take(g, axis=0))
            ranked_gts = [_greedy_match(dist, thr) for thr in AP_THRESHOLDS]
            scores.append(ranked_scores)
            matched.append(np.array(ranked_gts) >= 0)
            ranked_gt = ranked_gts[AP_THRESHOLDS.index(TP_THRESHOLD)]
            hit = ranked_gt >= 0
            pair_p.append(p[order[hit]])
            pair_g.append(g[ranked_gt[hit]])
        merged = np.argsort(-np.concatenate(scores), kind="stable")
        flags = np.concatenate(matched, axis=1)[:, merged]
        aps = [average_precision(MatchResult(merged, np.where(f, 0, -1), n_gt_total))
               for f in flags]
        pairs = (preds.take(np.concatenate(pair_p)), gts.take(np.concatenate(pair_g)))
        per_class.append(ClassEval(name, aps, _tp_errors(*pairs, name), pairs))
    summary = aggregate_summary(per_class)
    summary.eval_time = time.perf_counter() - t0
    return summary


def box_to_json(box: DetectionBox, with_score: bool = True) -> dict:
    """One box as a boxes-file object: a key per BOX_COLUMNS entry, ids as names."""
    d = {}
    for column, (key, kind, _) in BOX_COLUMNS.items():
        value = getattr(box, column)
        if isinstance(kind, tuple):
            value = kind[value]
        elif kind:
            value = list(value)
        d[key] = value
    if not with_score:
        del d["detection_score"]
    return d


def save_boxes(path, boxes_by_token: dict[str, BoxSet | list[DetectionBox]],
               with_score: bool = True) -> None:
    """Write boxes by sample token; a list is converted through BoxSet.from_boxes first,
    so a box that load_boxes would reject raises here instead."""
    write_json(path, {token: [box_to_json(b, with_score) for b in
                              (boxes if isinstance(boxes, BoxSet) else BoxSet.from_boxes(boxes))]
                      for token, boxes in boxes_by_token.items()})


def _check_box(d) -> None:
    """ValueError naming the first key of box d that a BoxSet row cannot hold."""
    known_keys(d, _BOX_KEYS, "box")
    for key, kind, default in BOX_COLUMNS.values():
        if default is None and key not in d:
            raise ValueError(f"{key} must be given")
        value = d.get(key, default)
        if isinstance(kind, tuple):
            name_index(kind, value, key)
            continue
        x = finite_floats(value, kind, key)
        if key == "size" and min(x) <= 0:
            raise ValueError(f"size must be positive, got {value!r}")
        if key == "detection_score" and not 0 <= x <= 1:
            raise ValueError(f"detection_score must be in [0, 1], got {value!r}")


def _box_set(token: str, boxes) -> BoxSet:
    """One token's boxes, each key gathered over all boxes and converted at once.

    When that fails, the error names the first box that fails _check_box,
    or else repeats the conversion's own error.
    """
    if not isinstance(boxes, list):
        raise ValueError(f"sample {token!r}: boxes must be a list, got {boxes!r}")
    try:
        if set().union(*boxes) - _BOX_KEYS:
            raise ValueError("a box key outside BOX_COLUMNS")  # _check_box names it
        cols = []
        for key, kind, default in BOX_COLUMNS.values():
            values = [d[key] if default is None else d.get(key, default) for d in boxes]
            if isinstance(kind, tuple):
                index = dict(zip(kind, range(len(kind))))
                cols.append(np.array([index[v] for v in values], dtype=np.int64))
            else:
                cols.append(json_floats(values, key))
        return BoxSet(*cols)
    except (TypeError, KeyError, ValueError) as err:
        for i, d in enumerate(boxes):
            try:
                _check_box(d)
            except ValueError as bad:
                raise ValueError(f"sample {token!r}, box {i}: {bad}") from None
        raise ValueError(f"sample {token!r}: {err}") from err


def load_boxes(path) -> dict[str, BoxSet]:
    """A boxes file as one BoxSet per sample token.

    A ValueError names the file and, for a bad box, its token, index and key.
    """
    payload = read_json(path, "boxes file")
    try:
        if not isinstance(payload, dict):
            raise ValueError("the top level must map sample tokens to box lists, "
                             f"got a {type(payload).__name__}")
        return {token: _box_set(token, boxes) for token, boxes in payload.items()}
    except ValueError as err:
        raise ValueError(f"malformed boxes file {path}: {err}") from err


def render_summary_table(rows: dict[str, EvalSummary]) -> str:
    """Plain-text comparison table: one row per method, aggregate columns."""
    header = (f"{'Method':<18}{'mTE':>8}{'mSE':>8}{'mOE':>8}{'mVE':>8}{'mAE':>8}"
              f"{'mAP':>8}{'NDS':>8}{'Time':>9}")
    lines = [header, "-" * len(header)]
    for name, summary in rows.items():
        cells = [summary.mtp[m] for m in TP_METRICS]
        text = "".join(f"{c:>8.4f}" if c is not None else f"{'-':>8}" for c in cells)
        lines.append(f"{name:<18}{text}{summary.mean_ap:>8.4f}{summary.nds:>8.4f}"
                     f"{summary.eval_time:>8.2f}s")
    return "\n".join(lines)
