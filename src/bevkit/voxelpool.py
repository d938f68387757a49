"""BEV voxel pooling: accumulate featured 3-D points into grid cells.

Three implementations with one contract:

* pool_reference: strictly sequential scatter-add in input order.
* pool_cumsum: stable sort by cell id, one inclusive prefix sum over the
  feature rows, per-segment totals by subtracting boundary prefix values.
* pool_concurrent: points split into contiguous chunks, each worker
  scatter-adds blocks into the shared grid under a mutex (the lossless
  "atomic add" contract); block interleaving may reassociate sums.

BEVGridConfig.cell_ids is the one cell rule: cells are half-open, so a
point exactly on the max edge of either range is dropped. Every kernel sums
the features that land in a cell.

splat pools lift-splat features without building them, on one geometry
plan per camera (as in BEVPoolv2): each sample is paired once with its
(image column, occupied cell) on R in {1, H} image rows, R = 1 (the row rule)
only for a zero-pitch, zero-roll rig, the one kind that gains; cells and
pairs are ranked by np.arange lookups, every tap's depth weights are summed
into that pair's row, and one product per image column applies the context.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BEVGridConfig:
    """Dense ego-frame grid: nx columns across x_range, ny rows across y_range."""

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid must have at least one cell per axis")
        if self.x_range[1] <= self.x_range[0] or self.y_range[1] <= self.y_range[0]:
            raise ValueError("ranges must be increasing")
        if not all(0.0 < d < np.inf for d in self.cell_size):
            raise ValueError(f"cell size must be positive and finite, got {self.cell_size}")

    @property
    def cell_size(self) -> tuple[float, float]:
        return ((self.x_range[1] - self.x_range[0]) / self.nx,
                (self.y_range[1] - self.y_range[0]) / self.ny)

    def cell_ids(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(in-range mask, flat cell id iy*nx+ix of each in-range point).

        Cell (ix, iy) holds floor((x - x0) / dx), floor((y - y0) / dy); only
        the first two columns of positions are read. Indices are compared as
        floats, so a far-off or non-finite position is out of range, never cast.
        """
        dx, dy = self.cell_size
        # out-of-range rows may overflow or meet inf - inf; only in-range ones are kept
        with np.errstate(over="ignore", invalid="ignore"):
            ix = positions[:, 0] - self.x_range[0]
            iy = positions[:, 1] - self.y_range[0]
            np.floor(np.divide(ix, dx, out=ix), out=ix)
            np.floor(np.divide(iy, dy, out=iy), out=iy)
            inside = ix >= 0
            inside &= ix < self.nx
            inside &= iy >= 0
            inside &= iy < self.ny
            iy *= self.nx
            iy += ix
        return inside, iy[inside].astype(np.int64)

    def cell_center(self, ix, iy) -> np.ndarray:
        dx, dy = self.cell_size
        return np.stack([self.x_range[0] + (np.asarray(ix) + 0.5) * dx,
                         self.y_range[0] + (np.asarray(iy) + 0.5) * dy], axis=-1)


@dataclass
class FeaturedPoints:
    """M positions (ego meters) paired with M feature rows."""

    positions: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3)
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] != self.positions.shape[0]:
            raise ValueError("positions and features must have equal row counts")
        if not (np.all(np.isfinite(self.positions)) and np.all(np.isfinite(self.features))):
            raise ValueError("featured points must be finite")

    def __len__(self) -> int:
        return self.positions.shape[0]


@dataclass
class BEVGrid:
    """(C, ny, nx) accumulated features over a BEVGridConfig."""

    data: np.ndarray
    config: BEVGridConfig


def cell_ids(points: FeaturedPoints, cfg: BEVGridConfig) -> tuple[np.ndarray, np.ndarray]:
    """cfg.cell_ids of the points' positions."""
    return cfg.cell_ids(points.positions)


def _pool(points: FeaturedPoints, cfg: BEVGridConfig, id_sum) -> BEVGrid:
    inside, ids = cell_ids(points, cfg)
    # the boolean-mask copy is the single largest cost at a million points; skip
    # it when nothing is dropped
    feats = points.features if inside.all() else points.features[inside]
    flat = id_sum(ids, feats, cfg.nx * cfg.ny)
    return BEVGrid(np.ascontiguousarray(flat.T).reshape(flat.shape[1], cfg.ny, cfg.nx), cfg)


# Each kernel is cell_ids followed by an id-level sum: sum_*(ids, values, n)
# returns an (n, C) array whose row k totals the (M, C) value rows with id k.


def sum_reference(ids: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Unbuffered scatter-add; accumulation follows the row order of ids."""
    flat = np.zeros((n, values.shape[1]))
    np.add.at(flat, ids, values)
    return flat


def sum_cumsum(ids: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Stable sort by id, prefix-sum the rows, difference segment boundaries."""
    flat = np.zeros((n, values.shape[1]))
    if ids.size:
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        prefix = values[order]
        np.cumsum(prefix, axis=0, out=prefix)
        ends = np.append(np.flatnonzero(np.diff(sorted_ids)), ids.size - 1)
        totals = prefix[ends]
        totals[1:] -= prefix[ends[:-1]]
        flat[sorted_ids[ends]] = totals
    return flat


def sum_concurrent(ids: np.ndarray, values: np.ndarray, n: int, workers: int,
                   block: int = 1024) -> np.ndarray:
    """Contiguous chunks per worker, block scatter-adds under one mutex."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    flat = np.zeros((n, values.shape[1]))
    lock = threading.Lock()

    def run_chunk(lo: int, hi: int) -> None:
        for start in range(lo, hi, block):
            stop = min(start + block, hi)
            with lock:
                np.add.at(flat, ids[start:stop], values[start:stop])

    bounds = np.linspace(0, ids.size, workers + 1).astype(int)
    if workers == 1:
        run_chunk(0, ids.size)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_chunk, bounds[i], bounds[i + 1])
                       for i in range(workers)]
            for fut in futures:
                fut.result()
    return flat


def pool_reference(points: FeaturedPoints, cfg: BEVGridConfig) -> BEVGrid:
    """Sequential accumulation in input order; the ground-truth semantics."""
    return _pool(points, cfg, sum_reference)


def pool_cumsum(points: FeaturedPoints, cfg: BEVGridConfig) -> BEVGrid:
    """Sort by cell id, prefix-sum the rows, difference segment boundaries.

    The stable sort keeps within-cell input order, so each segment sums in
    the same order as pool_reference and only the cross-segment prefix
    subtraction can reassociate: a segment's sum carries the rounding of the
    prefix it rides on. For M rows of U[0, s) features over n cells, with
    M >= n, the error stays below 2 eps (M s / 2) sqrt(M / n). Its limit
    under the 1e-9 equivalence bound, on a 128x128 grid with C=1: at s = 1
    it passes at 1e6 rows (5.4e-10) and fails at 4e6 (5.4e-9); at 1e5 rows
    it passes at s = 10 (2e-10) and fails at s = 100 (2.5e-9). At 473,088
    points with C=80 U[0,1) features (the frustum points of six 16x44
    cameras with 112 depth bins) it was 3.5e-10. The sort copies every
    in-range feature row: at that shape on a
    2-core VM (numpy 2.4) a call took a median 0.82 s and a 524 MB traced
    peak, against 0.68 s and 267 MB for pool_reference.
    """
    return _pool(points, cfg, sum_cumsum)


def pool_concurrent(points: FeaturedPoints, cfg: BEVGridConfig, workers: int,
                    block: int = 1024) -> BEVGrid:
    """Parallel accumulation with mutex-guarded scatter-adds.

    Input order is preserved inside each contiguous chunk; chunks interleave
    block-by-block, so contended cells may see reassociated sums (within
    1e-6 of the reference). workers=1 is bit-identical to pool_reference.
    """
    return _pool(points, cfg, lambda ids, values, n: sum_concurrent(ids, values, n,
                                                                    workers, block))


def splat(positions: np.ndarray, context: np.ndarray, taps, cfg: BEVGridConfig,
          out: np.ndarray) -> int:
    """Pool lifted features into a BEV grid without building the lift.

    positions are (D, R, W, 3) frustum samples in depth-major order, of all R = H
    image rows or row 0 alone (R = 1; other R raise ValueError). context is
    (C, H, W); taps, (shift, weights) pairs with (D, H, W) weights, stand for the
    lifted features sum_t weights_t[l, h, w] * context[:, h, w + shift_t] at sample
    (l, h, w); a column shifted off the map adds nothing. That is linear in the
    context, and a cell sees few image columns, so sample (l, h, w) owns slot h of
    the row of its (column w, occupied cell) pair for every tap. Cells, then pairs
    in column-major order, are ranked on the R rows by np.arange lookups. With R = 1
    every row takes row 0's: exact only if all rows unproject to row 0's x and y, as
    at zero pitch and roll (geometry.rows_alike; a real nuScenes rig passes all H
    rows). Slots and weights are gathered through the in-range mask broadcast to
    (D, H, W). Each tap's weights go by np.bincount, in sample order, into its own
    H-wide block of the rows, bit-identical to sum_reference over its slots. Column
    j's rows take one product with the taps' context columns j + shift, stacked into
    (taps*H, C) from a zero-padded context, re-associating the sum across taps
    (1e-9). The (cells, C) sums are added once into out, a C-contiguous (C, ny, nx)
    array. Returns the number of the D*H*W samples outside the grid.
    """
    c, h, w = context.shape
    if positions.shape[1:] not in ((1, w, 3), (h, w, 3)) or not out.flags.c_contiguous:
        raise ValueError("splat needs (D, 1 or H, W, 3) positions and a C-contiguous out")
    if any(np.shape(wt) != (len(positions), h, w) for _, wt in taps):
        raise ValueError(f"splat's taps need (D, H, W) = {(len(positions), h, w)} weights, "
                         f"got {[np.shape(wt) for _, wt in taps]}")
    inside, ids = cfg.cell_ids(positions.reshape(-1, 3))
    dropped = (inside.size - ids.size) * (h // positions.shape[1])  # row 0 stands for H rows
    if not taps:
        return dropped
    present = np.zeros(cfg.ny * cfg.nx, dtype=bool)
    present[ids] = True
    cells = np.flatnonzero(present)
    n = cells.size
    cell_rank = np.empty(present.size, dtype=np.int64)
    cell_rank[cells] = np.arange(n)
    mask = inside.reshape(positions.shape[:3])
    pairs = np.broadcast_to(np.arange(w), mask.shape)[mask] * n + cell_rank[ids]
    reached = np.zeros(w * n, dtype=bool)
    reached[pairs] = True
    keys = np.flatnonzero(reached)  # column-major: column j, then cell
    pair_rank = np.empty(reached.size, dtype=np.int64)
    pair_rank[keys] = np.arange(keys.size)
    rank = np.zeros(mask.shape, dtype=np.int64)
    rank[mask] = pair_rank[pairs] * h
    full = np.ascontiguousarray(np.broadcast_to(mask, (len(mask), h, w)))
    slots = (rank + np.arange(h)[:, None])[full]
    rows = np.empty((keys.size, len(taps) * h))
    for t, (_, weights) in enumerate(taps):
        rows[:, t * h:(t + 1) * h] = np.bincount(slots, weights=weights[full],
                                                 minlength=keys.size * h).reshape(keys.size, h)
    pad = max(abs(shift) for shift, _ in taps)
    padded = np.pad(context, ((0, 0), (0, 0), (pad, pad)))
    # stacked[j] is (taps*H, C): row t*H + r is context[:, r, j + shift_t]
    stacked = np.ascontiguousarray(np.concatenate(
        [padded[:, :, pad + shift:pad + shift + w] for shift, _ in taps], axis=1).T)
    bounds = np.searchsorted(keys, np.arange(w + 1) * n)
    sums = np.zeros((n, c))
    for j in range(w):
        lo, hi = bounds[j], bounds[j + 1]
        sums[keys[lo:hi] - j * n] += rows[lo:hi] @ stacked[j]
    out.reshape(c, -1)[:, cells] += sums.T
    return dropped
