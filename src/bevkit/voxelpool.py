"""BEV voxel pooling: accumulate featured 3-D points into grid cells.

Three implementations with one contract:

* pool_reference: strictly sequential scatter-add in input order.
* pool_cumsum: stable sort by cell id, one inclusive prefix sum over the
  feature rows, per-segment totals by subtracting boundary prefix values.
* pool_concurrent: points split into contiguous chunks, each worker
  scatter-adds blocks into the shared grid under a mutex (the lossless
  "atomic add" contract); block interleaving may reassociate sums.

Cells are half-open: a point exactly on the max edge of either range is
dropped. Every kernel sums the features that land in a cell.

splat pools lift-splat features without materializing them: it sums
depth weights into (cell, pixel) slots with one of the kernels' id-level
sums and multiplies each block of slots by the context.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

# (cell, pixel) slots per dense block of the splat's weight matrix: 8 MB
SPLAT_BLOCK_SLOTS = 1 << 20


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

    @property
    def cell_size(self) -> tuple[float, float]:
        return ((self.x_range[1] - self.x_range[0]) / self.nx,
                (self.y_range[1] - self.y_range[0]) / self.ny)

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
    """(in-range mask, flat cell id iy*nx+ix computed for in-range points)."""
    return _cell_ids_of(points.positions, cfg)


def _cell_ids_of(positions: np.ndarray, cfg: BEVGridConfig) -> tuple[np.ndarray, np.ndarray]:
    dx, dy = cfg.cell_size
    ix = np.floor((positions[:, 0] - cfg.x_range[0]) / dx).astype(np.int64)
    iy = np.floor((positions[:, 1] - cfg.y_range[0]) / dy).astype(np.int64)
    inside = (ix >= 0) & (ix < cfg.nx) & (iy >= 0) & (iy < cfg.ny)
    return inside, iy[inside] * cfg.nx + ix[inside]


def _pool(points: FeaturedPoints, cfg: BEVGridConfig, id_sum) -> BEVGrid:
    inside, ids = cell_ids(points, cfg)
    # the boolean-mask copy is the single largest cost at bench scale; skip
    # it when nothing is dropped
    feats = points.features if inside.all() else points.features[inside]
    flat = id_sum(ids, feats, cfg.nx * cfg.ny)
    return BEVGrid(np.ascontiguousarray(flat.T).reshape(flat.shape[1], cfg.ny, cfg.nx), cfg)


# Each kernel is cell_ids followed by an id-level sum: sum_*(ids, values, n)
# returns an (n, C) array whose row k totals the (M, C) value rows with id k.
# The pipeline's splat sums depth weights into (cell, pixel) slots with them.


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
    subtraction can reassociate; the error grows with the prefix
    magnitude. At 473,088 points with C=80 U[0,1) features (the frustum
    points of six 16x44 cameras with 112 depth bins) that error was
    3.5e-10 against pool_reference, a third of the 1e-9 equivalence
    bound. The sort copies every in-range feature row: at that shape on a
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


def splat(positions: np.ndarray, context: np.ndarray, tap_sets, cfg: BEVGridConfig,
          id_sum, outs: list[np.ndarray]) -> int:
    """Pool lifted features into BEV grids without building the lift.

    positions are the (D*H*W, 3) frustum samples in depth-major order,
    context is (C, H, W). A tap set is a list of (shift, weights) pairs with
    (D, H, W) weights. It stands for the lifted features
    sum_t weights_t[l, h, w] * context[:, h, w + shift_t] at sample
    (l, h, w), where a shifted column off the map contributes nothing.
    These are linear in the context, so a cell pools
    sum_pixel W[cell, pixel] * context[:, pixel]. W is built by summing
    each sample's weights with id_sum (a sum_* function) into its slot,
    occ * H*W + h*W + w + shift, where occ numbers the occupied cells.
    That is done SPLAT_BLOCK_SLOTS slots at a time, and each block takes one
    matrix product with the context. Each tap set's (C, ny, nx) result is
    added into the array at the same position of outs. Returns the number
    of samples outside the grid.
    """
    c, h, w = context.shape
    hw = h * w
    inside, ids = _cell_ids_of(positions, cfg)
    cells, occ = np.unique(ids, return_inverse=True)
    rows, cols = np.divmod(cells, cfg.nx)
    sample = np.flatnonzero(inside)
    col = sample % w
    base = occ * hw + sample % hw
    ctx_t = context.reshape(c, hw).T
    per_block = max(1, SPLAT_BLOCK_SLOTS // hw)
    for taps, out in zip(tap_sets, outs):
        if not taps:
            continue
        slots, values = [], []
        for shift, weights in taps:
            keep = (col + shift >= 0) & (col + shift < w)
            slots.append(base[keep] + shift)
            values.append(weights.reshape(-1)[sample[keep]])
        slots, values = np.concatenate(slots), np.concatenate(values)
        # stable: a slot's weights keep their tap-then-sample order
        order = np.argsort(slots, kind="stable")
        slots, values = slots[order], values[order, None]
        for lo in range(0, cells.size, per_block):
            hi = min(lo + per_block, cells.size)
            a, b = np.searchsorted(slots, (lo * hw, hi * hw))
            block = id_sum(slots[a:b] - lo * hw, values[a:b], (hi - lo) * hw)
            # slots @ context, not context @ slots: with OpenBLAS 0.3 only
            # this order gave the same bits on 1 and 2 threads
            out[:, rows[lo:hi], cols[lo:hi]] += (block.reshape(hi - lo, hw) @ ctx_t).T
    return int(inside.size - ids.size)
