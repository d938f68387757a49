"""Independent brute-force oracles shared by the unit and acceptance tests.

Everything here is written the slow, definitional way on purpose: explicit
loops, textbook recursions, no reuse of the library's vectorized paths.
"""

import numpy as np

from bevkit.nnprims import depth_refine, lift_outer_product
from bevkit.voxelpool import FeaturedPoints, pool_reference


def rel_err(a, b):
    """Gradcheck-style relative error with a unit floor."""
    return np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


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
