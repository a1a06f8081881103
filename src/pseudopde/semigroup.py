"""The frozen path cache of the solver and the Chapman-Kolmogorov test.

``build_cache`` simulates an ``EnsembleCache`` holding one path ensemble per
(grid time, grid node), so every fixed-point sweep sees identical noise
(common random numbers) and the iteration is a deterministic map between
fields.  The sweeps read the cache one origin block at a time, in chunks
of whole nodes, through ``mild._block_steps``.  A path of P^{s,x} sits at x
at time s, so the cache stores each path from its first step on; each stored
position's grid bracket is found once, when its block is built, and kept
beside it.

When the path law does not read t and the clock increments dV are uniform
(``rows_per_path_set``), P^{t_i,x} at the grid times t_i, t_{i+1}, ... has
the law of P^{t_h,x} at t_h, t_{h+1}, ...: the paths step in dV alone, and
every step is the same.  Only the head blocks h = 0, R, 2R, ... are then
simulated, R = ``ROWS_PER_PATH_SET``, and the rows h+1..h+R-1 read prefixes
of their head block as views.  R stays small because the cells of one node
that share a path set share its noise: sharing one set across every row let
the rms z-score of u over all cells drift past the benchmark's bound on a
few seeds in 200, and four rows per set did not.  Any other problem gets
R = 1, one simulated block per row.
"""

from __future__ import annotations

import hashlib
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import SpaceTimeGrid, bracket, bracket_dtype, mean_and_stderr, node_chunks
from .errors import ConfigurationError, ResourceError
from .processes import check_dimension, evolve_paths, simulate, _rng


# Origin rows that one simulated path set serves when the path law is
# time-homogeneous; see the module docstring for why it is not larger.
ROWS_PER_PATH_SET = 4

# Clock increments count as uniform when their spread is within this share
# of the largest: the steps of ``np.linspace`` differ in their last bits (up
# to 6e-15 relative at 50 steps).
UNIFORM_RTOL = 1e-12


def derive_cell_seed(master_seed: int, s_index: int, node_index: int) -> int:
    """Deterministic 128-bit Philox key for one cache cell."""
    digest = hashlib.sha256(f"{master_seed}:{s_index}:{node_index}".encode()).digest()
    return int.from_bytes(digest[:16], "little")


def rows_per_path_set(gen, grid: SpaceTimeGrid) -> int:
    """``ROWS_PER_PATH_SET`` when the generator's path law does not depend
    on t (``gen.time_homogeneous``) and the clock increments ``grid.dvs``
    it steps in are uniform within ``UNIFORM_RTOL``; otherwise 1."""
    if gen.time_homogeneous and np.ptp(grid.dvs) <= UNIFORM_RTOL * grid.dvs.max():
        return ROWS_PER_PATH_SET
    return 1


@dataclass
class EnsembleCache:
    """Frozen path ensembles for every (grid time, grid node) cell.

    ``blocks[i]`` has shape (n_times - i - 1, n_nodes*M, d), step-major: the
    ensembles of all spatial nodes started at grid time index i, at the grid
    times i+1..N, with the paths node-major within each step.  The start row
    at time i is not stored, since every path of P^{t_i,x} sits at x there:
    it is ``nodes`` with each row repeated M times, and block N is empty.
    ``index[i]`` has the same shape and holds each position's grid bracket
    per axis, as ``core.bracket`` finds it, in ``core.bracket_dtype`` of the
    grid (one byte per coordinate up to 256 nodes per axis).

    With R = ``rows_per_path_set``, only the head blocks h = 0, R, 2R, ...
    are stored; for 0 < r < R, ``blocks[h + r]`` is the view
    ``blocks[h][:n_times - h - r - 1]``, and ``index`` likewise.  R is 1
    unless the path law is time-homogeneous on the grid.

    ``nodes`` holds the (n_nodes, d) start points, and the clock increments
    are the grid's, ``grid.dvs``; ``generator_fingerprint`` lets a solver check
    that the cache was built for its problem's generator.  The mild sweeps
    read one origin block at a time, in chunks of whole nodes: at each step
    they take the positions of a chunk's paths, with their brackets, as one
    contiguous slice.  A head block's positions are one array, written in
    place chunk by chunk as ``build_cache`` simulates them, and its brackets
    one more; no other copy of either is held.  ``memory_bytes`` counts the
    stored positions and brackets, each once.
    ``out_of_bounds_fraction`` is the share of path points, start points
    included, outside the grid's spatial bounds, over every cell's paths: a
    shared row counts once for each cell that reads it.  Read-only after
    construction.
    """

    grid: SpaceTimeGrid
    generator_fingerprint: str
    M: int
    blocks: dict = field(repr=False)
    index: dict = field(repr=False)
    nodes: np.ndarray = field(repr=False)
    rows_per_path_set: int = 1
    memory_bytes: int = 0
    out_of_bounds_fraction: float = 0.0

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def stored_rows(self) -> int:
        """Position rows (one per step, n_nodes*M paths each) held in memory."""
        return _stored_rows(self.grid.n_times, self.rows_per_path_set)


def _stored_rows(n_t: int, rows_per_set: int) -> int:
    return sum(n_t - h - 1 for h in range(0, n_t, rows_per_set))


def cache_memory_estimate(grid: SpaceTimeGrid, M: int, rows_per_set: int = 1) -> int:
    """Bytes needed for the stored path positions: each coordinate after a
    path's start in a head block as a float, and its kept grid bracket."""
    n_nodes = int(np.prod(grid.space_nodes))
    d = grid.dimension
    rows = _stored_rows(grid.n_times, rows_per_set)
    return rows * n_nodes * M * d * (8 + bracket_dtype(grid.axes).itemsize)


def build_cache(
    gen,
    grid: SpaceTimeGrid,
    M: int,
    master_seed: int,
    memory_budget_mb: float = 4096.0,
    threads: int = 1,
) -> EnsembleCache:
    """One ensemble per (grid time, grid node), seeds derived per cell.

    Each head block h (every row when R = ``rows_per_path_set`` is 1) is
    stored in one array, allocated whole, of its steps after the start row.
    It is filled in chunks of whole nodes (``core.node_chunks``), each
    evolved by one ``evolve_paths`` call over the grid times from t_h: its
    rows are the chunk's nodes repeated M times, node-major, and each node's
    rows draw from that cell's own Philox stream, keyed by (master seed, h,
    node).  Each chunk's steps after its start row are copied into the block
    and its paths freed, so a block is built with one chunk's paths beside
    it.  The filled block is bracketed and its positions outside the grid
    counted, each step weighted by the number of origin rows that read it.
    The rows h+1..h+R-1 are prefixes of block h.  ``threads`` workers share
    the head blocks, and the contents are independent of their number and
    of the chunk size.
    """
    if M < 1:
        raise ConfigurationError("cache path count M must be >= 1")
    check_dimension(gen, grid.dimension)
    per_set = rows_per_path_set(gen, grid)
    need = cache_memory_estimate(grid, M, per_set)
    if need > memory_budget_mb * 2**20:
        raise ResourceError(
            f"path cache needs {need / 2**20:.0f} MiB > budget {memory_budget_mb:.0f} MiB; "
            "lower mild.cache_paths, use a coarser grid, or raise mild.memory_budget_mb"
        )
    nodes = grid.nodes()
    n_nodes, d = nodes.shape
    n_t = grid.n_times
    lo, hi = grid.space_min, grid.space_max
    heads = range(0, n_t, per_set)
    chunks = node_chunks(n_nodes, M)

    def block(h):
        steps = np.empty((n_t - h - 1, n_nodes * M, d))
        for c, paths in chunks:
            rngs = [_rng(derive_cell_seed(master_seed, h, j)) for j in range(c.start, c.stop)]
            starts = np.repeat(nodes[c], M, axis=0)
            steps[:, paths] = evolve_paths(
                gen, grid.times[h:], grid.dvs[h:], starts, rngs).transpose(1, 0, 2)[1:]
        index = bracket(grid.axes, steps.reshape(-1, d)).index.reshape(steps.shape)
        # stored row k is read by the origin rows h..h+R-1 that reach t_{h+k+1}
        readers = np.minimum(per_set, n_t - 1 - h - np.arange(len(steps)))
        # one step at a time, so the comparison masks stay small
        outside = sum(int(n) * int(np.count_nonzero(np.any((row < lo) | (row > hi), axis=1)))
                      for n, row in zip(readers, steps))
        steps.flags.writeable = index.flags.writeable = False
        return steps, index, outside

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            built = dict(zip(heads, pool.map(block, heads)))
    else:
        built = {h: block(h) for h in heads}

    blocks, index = {}, {}
    for i in range(n_t):
        steps, idx, _ = built[i - i % per_set]
        blocks[i], index[i] = steps[: n_t - i - 1], idx[: n_t - i - 1]
    # the start points are grid nodes, inside the bounds, and count as points
    points = n_t * (n_t + 1) // 2 * n_nodes * M
    return EnsembleCache(
        grid=grid,
        generator_fingerprint=gen.fingerprint(),
        M=int(M),
        blocks=blocks,
        index=index,
        nodes=nodes,
        rows_per_path_set=per_set,
        memory_bytes=need,
        out_of_bounds_fraction=sum(outside for *_, outside in built.values()) / points,
    )


def chapman_kolmogorov_test(
    gen,
    s: float,
    t: float,
    u: float,
    x,
    phi: Callable,
    M: int,
    seed: int,
    grid: SpaceTimeGrid,
    inner_gen=None,
) -> float:
    """z-statistic comparing E^{s,x}[phi(X_u)] direct vs composed through time t.

    The composed estimate restarts one fresh path at time t from every
    realized X_t (independent seeds), i.e. it samples the two-stage kernel
    composition.  ``inner_gen`` substitutes a different generator for the
    restarted stage; tests use it as a deliberately broken negative control.

    One ensemble is held at a time: the direct one is dropped once phi is
    read at X_u, and the outer one once X_t is copied, before the restart.
    """
    if not (s < t < u):
        raise ConfigurationError("need s < t < u")
    i_s = grid.time_index(s)
    it, iu = grid.time_index(t) - i_s, grid.time_index(u) - i_s
    inner_gen = inner_gen if inner_gen is not None else gen

    direct = simulate(gen, s, x, grid, M, seed)
    # a copy, so that a phi returning a view of X_u does not keep the ensemble
    vals_d = np.array(phi(direct.paths[:, iu, :]), dtype=float)
    del direct

    outer = simulate(gen, s, x, grid, M, seed + 1)
    times, dvs, x_t = outer.times[it : iu + 1], outer.dvs[it:iu], outer.paths[:, it, :].copy()
    del outer
    inner_paths = evolve_paths(inner_gen, times, dvs, x_t, [_rng(seed + 2)])
    vals_2 = np.asarray(phi(inner_paths[:, -1, :]), dtype=float)

    est_d, se_d = mean_and_stderr(vals_d)
    est_2, se_2 = mean_and_stderr(vals_2)
    denom = np.hypot(se_d, se_2)
    if denom == 0.0:
        return 0.0 if est_d == est_2 else float("inf")
    return float((est_d - est_2) / denom)
