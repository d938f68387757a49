"""Independent brute-force oracles shared by the unit and acceptance tests.

Everything here is written the slow, definitional way on purpose: explicit
loops, textbook recursions, no reuse of the library's vectorized paths.
"""

import json
from fractions import Fraction

import numpy as np

from bevkit.fusion import DetectionBox
from bevkit.geometry import FrustumGrid
from bevkit.metrics import (
    AP_THRESHOLDS, ATTRIBUTES, CLASS_TP_METRICS, DETECTION_CLASSES, TP_METRICS, TP_THRESHOLD,
)
from bevkit.nnprims import (conv_pointwise, depth_refine, finite_floats, lift_outer_product,
                            name_index)
from bevkit.pillars import PillarTensor, RadarPointCloud, scatter_to_pseudo_image, vfe_forward
from bevkit.scene import CLASS_ATTRIBUTES, CLASS_SIZES
from bevkit.voxelpool import FeaturedPoints, pool_reference


def rel_err(a, b):
    """Gradcheck-style relative error with a unit floor."""
    return np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def finite_diff_jacobian(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a vector-to-vector function.

    J[i, j] = (f(x + h*e_j) - f(x - h*e_j))[i] / (2h). It is the
    independent oracle for the analytic derivatives.
    """
    x = np.asarray(x, dtype=np.float64)
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e.flat[j] = h
        f_plus = np.asarray(f(x + e), dtype=np.float64)
        f_minus = np.asarray(f(x - e), dtype=np.float64)
        if not np.all(np.isfinite(f_plus)) or not np.all(np.isfinite(f_minus)):
            raise ValueError(f"non-finite function output while perturbing input {j}")
        cols.append((f_plus - f_minus).ravel() / (2.0 * h))
    return np.stack(cols, axis=1)


def naive_cox_de_boor(knots, i, k, x):
    """Textbook recursive B-spline basis function B_{i,k}(x)."""
    if k == 0:
        return 1.0 if knots[i] <= x < knots[i + 1] else 0.0
    left = 0.0
    if knots[i + k] > knots[i]:
        left = (x - knots[i]) / (knots[i + k] - knots[i]) * naive_cox_de_boor(knots, i, k - 1, x)
    right = 0.0
    if knots[i + k + 1] > knots[i + 1]:
        right = ((knots[i + k + 1] - x) / (knots[i + k + 1] - knots[i + 1])
                 * naive_cox_de_boor(knots, i + 1, k - 1, x))
    return left + right


def depthnet_jacobian_oracle(split_kernel, gates, n_pix):
    """d (depth logits, context) / d features of one camera, one block at a time.

    Block (o, c) of the (n_out * n_pix, C * n_pix) matrix is
    kernel[o, c] * gate[c] on the pixel diagonal and zero elsewhere.
    """
    n_out, c_f = split_kernel.shape
    jac = np.zeros((n_out * n_pix, c_f * n_pix))
    idx = np.arange(n_pix)
    for o in range(n_out):
        for c in range(c_f):
            jac[o * n_pix + idx, c * n_pix + idx] = split_kernel[o, c] * gates[c]
    return jac


def brute_force_pool(points, cfg):
    """Per-cell filter-and-sum; no scatter, no sort, no prefix sums."""
    dx, dy = cfg.cell_size
    out = np.zeros((points.features.shape[1], cfg.ny, cfg.nx))
    for iy in range(cfg.ny):
        for ix in range(cfg.nx):
            x0 = cfg.x_range[0] + ix * dx
            y0 = cfg.y_range[0] + iy * dy
            mask = ((points.positions[:, 0] >= x0) & (points.positions[:, 0] < x0 + dx)
                    & (points.positions[:, 1] >= y0) & (points.positions[:, 1] < y0 + dy))
            if mask.any():
                out[:, iy, ix] = points.features[mask].sum(axis=0)
    return out


def _footprint(box):
    """(x_lo, x_hi, y_lo, y_hi) of the axis-aligned BEV footprint."""
    cx, cy, _ = box.center
    w, length, _ = box.size
    return cx - w / 2, cx + w / 2, cy - length / 2, cy + length / 2


def iou_bev(a, b):
    """Axis-aligned BEV IOU over (x, y, w, l) footprints, ignoring yaw."""
    ax0, ax1, ay0, ay1 = _footprint(a)
    bx0, bx1, by0, by1 = _footprint(b)
    ix = max(0.0, min(ax1, bx1) - max(ax0, bx0))
    iy = max(0.0, min(ay1, by1) - max(ay0, by0))
    inter = ix * iy
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return inter / union if union > 0 else 0.0


def cell_box(cfg, iy, ix):
    """The one-cell BEV box of grid cell (iy, ix)."""
    dx, dy = cfg.cell_size
    cx = cfg.x_range[0] + (ix + 0.5) * dx
    cy = cfg.y_range[0] + (iy + 0.5) * dy
    return DetectionBox(center=(cx, cy, 0.5), size=(dx, dy, 1.0), yaw=0.0,
                        velocity=(0.0, 0.0), class_id=0)


def brute_force_match(boxes, scores, cfg, score_thresh, iou_thresh):
    """Per box, the (cell, IOU) of its highest-IOU confident cell of the grid cfg, or None.

    scores are (n_classes, ny, nx); confident cells are those whose best
    class score reaches score_thresh. All pairs are scored, ties go to the
    lower flat index, and a best IOU below iou_thresh is no match.
    """
    results = []
    for b in boxes:
        best_iou, best_cell = -1.0, None
        for iy in range(cfg.ny):
            for ix in range(cfg.nx):
                if scores[:, iy, ix].max() < score_thresh:
                    continue
                iou = iou_bev(b, cell_box(cfg, iy, ix))
                if iou > best_iou + 1e-15:
                    best_iou, best_cell = iou, (iy, ix)
        if best_cell is not None and best_iou >= iou_thresh:
            results.append((best_cell, best_iou))
        else:
            results.append(None)
    return results


def rasterize_min_oracle(u, v, d, image_size):
    """Per-pixel min scan over every point; O(N * H * W) masks."""
    h, w = image_size
    out = np.full((h, w), -1.0)
    px = np.floor(u).astype(int)
    py = np.floor(v).astype(int)
    for iy in range(h):
        for ix in range(w):
            mask = (px == ix) & (py == iy)
            if mask.any():
                out[iy, ix] = d[mask].min()
    return out


def depth_map_oracle(points, rig):
    """(depth values, dropped count) of geometry.depth_map_from_points, row by row: project
    each row alone, keep d > 0, count rows off the image as dropped and min-scan the rest.
    An inf depth leaves no depth, as the map keeps only finite ones."""
    h, w = rig.image_size
    rows = []
    with np.errstate(over="ignore"):  # a huge K entry overflows a depth to inf
        for p in np.asarray(points, dtype=np.float64).reshape(-1, 3):
            x, y, d = rig.intrinsics @ (rig.rotation @ p + rig.translation)
            if d > 0:
                rows.append((x / d, y / d, d))
    u, v, d = np.array(rows).reshape(-1, 3).T
    on = (u >= 0) & (u < w) & (v >= 0) & (v < h)
    out = rasterize_min_oracle(u[on], v[on], d[on], (h, w))
    out[np.isinf(out)] = -1.0
    return out, int(np.count_nonzero(~on))


def greedy_match_oracle(preds, gts, threshold):
    """Definitional greedy matcher: explicit loops, explicit tie rules."""
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].score, i))
    taken = set()
    assignments = {}
    for pi in order:
        best_d, best_g = None, None
        for gi, g in enumerate(gts):
            if gi in taken:
                continue
            d = np.hypot(preds[pi].center[0] - g.center[0],
                         preds[pi].center[1] - g.center[1])
            if d <= threshold and (best_d is None or d < best_d - 1e-15):
                best_d, best_g = d, gi
        if best_g is not None:
            taken.add(best_g)
            assignments[pi] = best_g
    return order, assignments


def ap_oracle(tp_flags, n_gt):
    """All-ranks precision/recall enumeration, 101-point interpolation."""
    if n_gt == 0 or not any(tp_flags):
        return None
    pr = []
    tp = 0
    for k, flag in enumerate(tp_flags, start=1):
        tp += int(flag)
        pr.append((tp / n_gt, tp / k))
    total = 0.0
    for r in [i / 100.0 for i in range(101)]:
        best = 0.0
        for rec, prec in pr:
            if rec >= r - 1e-12 and prec > best:
                best = prec
        total += best
    return total / 101.0


def tp_errors_oracle(pairs):
    """Definitional per-pair loop for the five TP error means."""
    ate = ase = aoe = ave = aae = 0.0
    for p, g in pairs:
        ate += np.hypot(p.center[0] - g.center[0], p.center[1] - g.center[1])
        inter = np.prod(np.minimum(p.size, g.size))
        union = np.prod(p.size) + np.prod(g.size) - inter
        ase += 1.0 - inter / union
        d = abs(p.yaw - g.yaw) % (2 * np.pi)
        aoe += min(d, 2 * np.pi - d)
        ave += np.hypot(p.velocity[0] - g.velocity[0], p.velocity[1] - g.velocity[1])
        aae += 0.0 if p.attribute_id == g.attribute_id else 1.0
    n = len(pairs)
    return {"ate": ate / n, "ase": ase / n, "aoe": aoe / n, "ave": ave / n, "aae": aae / n}


def ase_exact(pred_size, gt_size):
    """1 - IOU of two aligned boxes' sizes, in exact rational arithmetic."""
    inter = vol_p = vol_g = Fraction(1)
    for p, g in zip(map(Fraction, pred_size), map(Fraction, gt_size)):
        inter, vol_p, vol_g = inter * min(p, g), vol_p * p, vol_g * g
    return 1 - inter / (vol_p + vol_g - inter)


BOX_FILE_KEYS = {"translation", "size", "yaw", "velocity", "detection_name", "detection_score",
                 "attribute_name"}


def box_from_json(d: dict) -> DetectionBox:
    """One boxes-file box, field by field."""
    return DetectionBox(
        center=finite_floats(d["translation"], 3, "translation"),
        size=finite_floats(d["size"], 3, "size"),
        yaw=finite_floats(d["yaw"], 0, "yaw"),
        velocity=finite_floats(d["velocity"], 2, "velocity"),
        class_id=name_index(DETECTION_CLASSES, d["detection_name"], "detection_name"),
        score=float(d.get("detection_score", 0.0)),
        attribute_id=name_index(ATTRIBUTES, d.get("attribute_name", ""), "attribute_name"),
    )


def load_boxes_oracle(path):
    """A boxes file box by box: {token: [DetectionBox]}; ValueError when malformed.

    The file must map each token to a list of box objects, every box must
    pass box_from_json and hold no key outside BOX_FILE_KEYS.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("the top level is no object")
    out = {}
    for token, boxes in payload.items():
        if not isinstance(boxes, list) or not all(isinstance(d, dict) and d.keys() <= BOX_FILE_KEYS
                                                  for d in boxes):
            raise ValueError(f"{token!r} holds no list of box objects")
        try:
            out[token] = [box_from_json(d) for d in boxes]
        except (KeyError, TypeError, OverflowError) as err:
            raise ValueError(f"{token!r}: {err!r}") from err
    return out


def evaluate_oracle(preds_by_token, gts_by_token, classes=DETECTION_CLASSES):
    """Evaluation summary from the per-class oracles and the two missing-value rules.

    Per class and threshold, each token's greedy matches are listed in
    rank order, tokens in sorted order, and Python's stable sort by
    descending score merges them. A class's mean AP divides by all four
    thresholds (absent counting zero) and is absent when every AP is; the
    global mean AP skips absent classes and is 0 when all are. TP errors
    come from the 2 m pairs, absent without pairs or where the class has
    no such metric, and their global means skip absent classes.
    """
    per_class = {}
    for ci, name in enumerate(classes):
        ranked = [[] for _ in AP_THRESHOLDS]
        pairs, n_gt = [], 0
        for token in sorted(gts_by_token):
            preds = [b for b in preds_by_token[token] if b.class_id == ci]
            gts = [b for b in gts_by_token[token] if b.class_id == ci]
            n_gt += len(gts)
            for ti, thr in enumerate(AP_THRESHOLDS):
                order, assigned = greedy_match_oracle(preds, gts, thr)
                ranked[ti].extend((preds[i].score, i in assigned) for i in order)
                if thr == TP_THRESHOLD:
                    pairs.extend((preds[i], gts[assigned[i]]) for i in order if i in assigned)
        aps = [ap_oracle([flag for _, flag in sorted(r, key=lambda sf: -sf[0])], n_gt)
               for r in ranked]
        present = [a for a in aps if a is not None]
        errors = tp_errors_oracle(pairs) if pairs else {}
        applicable = CLASS_TP_METRICS.get(name, TP_METRICS)
        per_class[name] = {
            "ap_per_threshold": aps,
            "mean_ap": sum(present) / len(aps) if present else None,
            "tp_errors": {m: errors[m] if errors and m in applicable else None
                          for m in TP_METRICS},
        }
    class_maps = [c["mean_ap"] for c in per_class.values() if c["mean_ap"] is not None]
    mean_ap = sum(class_maps) / len(class_maps) if class_maps else 0.0
    mtp = {}
    for m in TP_METRICS:
        vals = [c["tp_errors"][m] for c in per_class.values() if c["tp_errors"][m] is not None]
        mtp[m] = sum(vals) / len(vals) if vals else None
    nds = (5.0 * mean_ap + sum(1.0 - min(1.0, e) for e in mtp.values() if e is not None)) / 10.0
    return {"per_class": per_class, "mean_ap": mean_ap, "mtp": mtp, "nds": nds}


def gt_heatmap_oracle(boxes, grid):
    """Per-class one-hot GT heatmap, one box at a time.

    Each box sets 1 at its center's half-open cell in its class's channel;
    centers off the grid set nothing. The cell size comes from the ranges here.
    """
    hm = np.zeros((len(DETECTION_CLASSES), grid.ny, grid.nx))
    dx = (grid.x_range[1] - grid.x_range[0]) / grid.nx
    dy = (grid.y_range[1] - grid.y_range[0]) / grid.ny
    for b in boxes:
        ix = int(np.floor((b.center[0] - grid.x_range[0]) / dx))
        iy = int(np.floor((b.center[1] - grid.y_range[0]) / dy))
        if 0 <= ix < grid.nx and 0 <= iy < grid.ny:
            hm[b.class_id, iy, ix] = 1.0
    return hm


def decode_peaks_oracle(heatmap, grid, threshold):
    """Per cell: a peak when no 3x3 neighbour is larger and the score reaches threshold.

    Cells outside the grid count as -inf. Peaks are listed in (class, row,
    column) order and ranked by Python's stable sort on descending score.
    """
    n_classes, ny, nx = heatmap.shape
    dx, dy = grid.cell_size
    boxes = []
    for ci in range(n_classes):
        for iy in range(ny):
            for ix in range(nx):
                score = heatmap[ci, iy, ix]
                neighbours = [heatmap[ci, y, x] if 0 <= y < ny and 0 <= x < nx else -np.inf
                              for y in (iy - 1, iy, iy + 1) for x in (ix - 1, ix, ix + 1)
                              if (y, x) != (iy, ix)]
                if score < threshold or score < max(neighbours):
                    continue
                name = DETECTION_CLASSES[ci]
                w, length, h = CLASS_SIZES[name]
                boxes.append(DetectionBox(
                    center=(grid.x_range[0] + (ix + 0.5) * dx,
                            grid.y_range[0] + (iy + 0.5) * dy, h / 2.0),
                    size=(w, length, h), yaw=0.0, velocity=(0.0, 0.0), class_id=ci,
                    score=float(score),
                    attribute_id=ATTRIBUTES.index(CLASS_ATTRIBUTES[name])))
    return sorted(boxes, key=lambda b: -b.score)


def sigmoid_oracle(x: np.ndarray) -> np.ndarray:
    """The two-branch logistic: 1 / (1 + exp(-x)) where x >= 0, exp(x) / (1 + exp(x))
    elsewhere (NaN included), each branch over its boolean-masked elements."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def unproject_frustum_oracle(rig, samples: np.ndarray) -> np.ndarray:
    """Ego points of (N, 3) (u, v, d) samples, K^-1 applied to every sample.

    The per-sample form of geometry.unproject_frustum, which takes one ray
    K^-1 (u, v, 1) per pixel and scales it to each depth.
    """
    k_inv = np.linalg.inv(rig.intrinsics)
    homog = np.column_stack([samples[:, 0], samples[:, 1], np.ones(len(samples))])
    cam = (homog @ k_inv.T) * samples[:, 2:3]
    return (cam - rig.translation) @ rig.rotation


def lift_refine_pool(positions, contexts, p_depths, kernel, cfg):
    """(f_bev, f_depth) by the materialized lift, one row per frustum point.

    Each camera's (C, D, H, W) lift and its depth_refine are built in full,
    every camera's rows are stacked, and pool_reference sums them: the
    path that bevkit's factorized splat replaces. Unlike the rest of this
    file it composes library functions; each of them is checked against a
    loop oracle in its own tests.
    """
    plain, refined = [], []
    for ctx, p in zip(contexts, p_depths):
        lifted = lift_outer_product(ctx, p)
        plain.append(lifted.reshape(len(ctx), -1).T)
        refined.append(depth_refine(lifted, kernel).reshape(len(ctx), -1).T)
    stacked = np.vstack(positions)
    return (pool_reference(FeaturedPoints(stacked, np.vstack(plain)), cfg).data,
            pool_reference(FeaturedPoints(stacked, np.vstack(refined)), cfg).data)


def wide_path_heatmap(bundle, cfg, weights, contexts, p_depths):
    """Final heatmap by the wide path, where every BEV grid has n_context channels.

    contexts and p_depths are the depth net's outputs for each camera, where
    the wide and the head-first path part. The camera grid is the sum of
    lift_refine_pool's two grids. Under camera+radar the pillars are
    scattered into a pseudo image, projected by a full-grid 1x1 conv and
    added. The head (1x1 conv, then sigmoid) runs over the sum. Each cell
    of a radar point whose best prior score reaches the threshold gets its
    center in the q grid, whose 1x1 conv is added before the head runs
    again.
    """
    grid = cfg.bev_grid
    h, w = bundle.cameras[0].image_size
    fh, fw = contexts[0].shape[1:]
    frustum = FrustumGrid.regular((fh, fw), cfg.depth_bins.centers())
    positions = [unproject_frustum_oracle(rig.scaled(fh / h, fw / w), frustum.samples)
                 for rig in bundle.cameras]
    fused = np.add(*lift_refine_pool(positions, contexts, p_depths, weights.refine_kernel,
                                     grid))

    def head(x):
        logits = conv_pointwise(x, weights.head_kernel, weights.head_bias)
        return 0.5 * (1.0 + np.tanh(0.5 * logits))

    if cfg.modality == "camera":
        return head(fused)
    pillars = build_pillars_oracle(RadarPointCloud(bundle.radar), cfg.pillar_grid,
                                   bundle.manifest["seed"])
    pseudo = scatter_to_pseudo_image(vfe_forward(pillars, weights.vfe), pillars.pillar_coords,
                                     cfg.pillar_grid)
    fused = fused + conv_pointwise(pseudo, weights.radar_proj_kernel,
                                   weights.radar_proj_bias)
    prior = head(fused)
    q = np.zeros((4, grid.ny, grid.nx))
    dx, dy = grid.cell_size
    for x, y in bundle.radar[:, :2].tolist():
        ix = int(np.floor((x - grid.x_range[0]) / dx))
        iy = int(np.floor((y - grid.y_range[0]) / dy))
        if (0 <= ix < grid.nx and 0 <= iy < grid.ny
                and prior[:, iy, ix].max() >= cfg.heatmap_score_thresh):
            q[:2, iy, ix] = (grid.x_range[0] + (ix + 0.5) * dx,
                             grid.y_range[0] + (iy + 0.5) * dy)
    return head(fused + conv_pointwise(q, weights.q_kernel, weights.q_bias))


def pillar_size(cfg):
    """(dx, dy) of a pillar grid, derived so the grid spans the ranges exactly."""
    h, w = cfg.grid
    return (cfg.x_range[1] - cfg.x_range[0]) / w, (cfg.y_range[1] - cfg.y_range[0]) / h


def pillar_center(cfg, ix, iy):
    """(x, y) center of pillar cell (ix, iy)."""
    dx, dy = pillar_size(cfg)
    return np.array([cfg.x_range[0] + (ix + 0.5) * dx, cfg.y_range[0] + (iy + 0.5) * dy])


def augment_points(pillar_points, center):
    """Expand n x 4 pillar points to the 9-D encoding.

    Columns 0-3 copy (x, y, z, r); 4-6 are offsets from the pillar's point
    cluster mean; 7-8 are (x, y) offsets from the pillar cell center.
    """
    pts = np.asarray(pillar_points, dtype=np.float64).reshape(-1, 4)
    if pts.shape[0] == 0:
        raise ValueError("cannot augment an empty pillar")
    out = np.zeros((pts.shape[0], 9))
    out[:, :4] = pts
    out[:, 4:7] = pts[:, :3] - pts[:, :3].mean(axis=0)
    out[:, 7:9] = pts[:, :2] - np.asarray(center, dtype=np.float64).reshape(2)
    return out


def build_pillars_oracle(cloud, cfg, seed):
    """Pillars by a dict of member lists: one Python pass per point and per pillar.

    Same contract as ``bevkit.pillars.build_pillars``: first-occurrence
    pillar order, the most populated max_pillars cells kept (ties to the
    earlier first occurrence), and each pillar over T sampled by
    ``default_rng([seed, flat cell])`` with the survivors in input order.
    The padded (P, T, 9) tensor is built point by point and compacted at
    the end; it stays on the result as its ``features``, so a comparison
    of ``features`` checks the library's padded view against this one.
    """
    pts = cloud.points
    h, w = cfg.grid
    dx, dy = pillar_size(cfg)
    t_cap = cfg.max_points

    ix = np.floor((pts[:, 0] - cfg.x_range[0]) / dx).astype(np.int64)
    iy = np.floor((pts[:, 1] - cfg.y_range[0]) / dy).astype(np.int64)
    inside = (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h)
    pts, ix, iy = pts[inside], ix[inside], iy[inside]
    flat = iy * w + ix

    order, members = [], {}
    for i, cell in enumerate(flat.tolist()):
        if cell not in members:
            members[cell] = []
            order.append(cell)
        members[cell].append(i)

    occupied = np.array(sorted(order), dtype=np.int64)
    truncated = 0
    if len(order) > cfg.max_pillars:
        pos = {cell: i for i, cell in enumerate(order)}
        keep = set(sorted(order, key=lambda c: (-len(members[c]), pos[c]))[: cfg.max_pillars])
        truncated = len(order) - cfg.max_pillars
        order = [c for c in order if c in keep]

    features = np.zeros((len(order), t_cap, 9))
    coords = np.zeros((len(order), 2), dtype=np.int64)
    centers = np.zeros((len(order), 2))
    counts = np.zeros(len(order), dtype=np.int64)
    for p, cell in enumerate(order):
        idx = members[cell]
        if len(idx) > t_cap:
            chosen = np.random.default_rng([seed, cell]).choice(len(idx), size=t_cap,
                                                                replace=False)
            idx = [idx[i] for i in sorted(chosen.tolist())]
        cell_iy, cell_ix = divmod(cell, w)
        centers[p] = pillar_center(cfg, cell_ix, cell_iy)
        features[p, : len(idx)] = augment_points(pts[idx], centers[p])
        coords[p] = (cell_ix, cell_iy)
        counts[p] = len(idx)
    real = features[np.arange(t_cap) < counts[:, None]]  # (N, 9), pillar by pillar
    tensor = PillarTensor(real[:, :4], counts, coords, centers, t_cap, truncated, len(flat),
                          occupied)
    tensor.features = features
    return tensor


def vfe_oracle(tensor, weights):
    """VFE by its definition: relu(W f + b) of each real 9-D row of the padded
    features, the nine products added one by one, and the max over the pillar."""
    out = np.zeros((len(tensor.point_counts), len(weights.bias)))
    for p, n in enumerate(tensor.point_counts.tolist()):
        best = np.full(len(weights.bias), -np.inf)
        for f in tensor.features[p, :n]:
            acc = weights.bias.copy()
            for k in range(9):
                acc = acc + weights.weight[:, k] * f[k]
            best = np.maximum(best, np.maximum(0.0, acc))
        out[p] = best
    return out
