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

splat adds a camera's lifted values at their frustum cells (sample_cells:
the cell rule, with nx*ny for a dropped sample), one np.bincount per
channel. The pipeline hands it a few row groups at a time: each group's
refined class lift summed over its image rows, at the group's (D, W) cells.
A level rig (zero pitch and roll) is one group of all H rows at row 0's
cells (the row rule); any other rig is H groups of one row, splatted 3H/C
at a time, so no (C, D, H, W) array is built.
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

    def sample_cells(self, positions: np.ndarray) -> np.ndarray:
        """The flat cell id of every position by cell_ids, nx*ny where it drops one."""
        inside, ids = self.cell_ids(positions)
        cells = np.full(len(inside), self.nx * self.ny)
        cells[inside] = ids
        return cells

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


def splat(cells: np.ndarray, lifted: np.ndarray, cfg: BEVGridConfig, out: np.ndarray) -> int:
    """Add (C, *S) lifted values at their (*S) cells from cfg.sample_cells into out, a
    C-contiguous (C, ny, nx) grid of cfg's shape; returns the number of samples at cell
    nx*ny, outside the grid, which add nothing. Each channel is one np.bincount in sample
    order, bit-identical to sum_reference over the in-range ids and values.
    """
    c, n = len(lifted), cfg.nx * cfg.ny
    if lifted.shape[1:] != cells.shape or out.shape != (c, cfg.ny, cfg.nx) \
            or not out.flags.c_contiguous:
        raise ValueError(f"splat needs (*S) cells for (C, *S) = {lifted.shape} lifted values "
                         f"and a C-contiguous (C, ny, nx) = {(c, cfg.ny, cfg.nx)} out, got "
                         f"cells {cells.shape} and out {out.shape}")
    ids, flat = cells.ravel(), out.reshape(c, n)
    for k in range(c):
        flat[k] += np.bincount(ids, weights=lifted[k].ravel(), minlength=n + 1)[:n]
    return int(np.count_nonzero(ids == n))
