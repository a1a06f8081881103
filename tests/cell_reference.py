"""Per-cell estimators on an ``EnsembleCache``: the tests' reference.

``cell`` gives one cell's paths, start point included.
``terminal_expectation`` (E^{s,x}[phi(X_T)]), ``running_expectation``
(E^{s,x}[ integral_s^T psi(r, X_r) dV_r ] by a left-endpoint
Riemann-Stieltjes sum per path) and ``terminal_plus_running`` estimate one
cell at a time.  The solver's sweeps do not call them: they are the reference
the block kernel of ``pseudopde.mild`` is tested against, bit for bit.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from pseudopde.core import mean_and_stderr
from pseudopde.semigroup import EnsembleCache


def cell(cache: EnsembleCache, s_index: int, node_index: int) -> np.ndarray:
    """Paths (M, n_times - s_index, d) of one cell: the node the cache does
    not store, then the cell's stored positions."""
    paths = slice(node_index * cache.M, (node_index + 1) * cache.M)
    stored = cache.blocks[s_index][:, paths].transpose(1, 0, 2)
    start = np.broadcast_to(cache.nodes[node_index], (cache.M, 1, cache.nodes.shape[1]))
    return np.concatenate([start, stored], axis=1)


def _call_phi(phi, xs, what, cell_id):
    try:
        return np.asarray(phi(xs), dtype=float)
    except Exception:
        # probe path-by-path so the error names the offending path
        for m in range(xs.shape[0]):
            try:
                phi(xs[m : m + 1])
            except Exception as inner:
                raise type(inner)(
                    f"{what} evaluation failed at cell {cell_id}, path {m}: {inner}"
                ) from inner
        raise


def terminal_expectation(cache: EnsembleCache, s_index: int, node_index: int, phi: Callable):
    """Sample mean and stderr of phi(X_T) over one cell's ensemble."""
    paths = cell(cache, s_index, node_index)
    vals = _call_phi(phi, paths[:, -1, :], "terminal function", (s_index, node_index))
    est, se = mean_and_stderr(vals)
    return float(est), float(se)


def running_path_sums(cache: EnsembleCache, s_index: int, node_index: int, psi: Callable):
    """Per-path left-endpoint sums  sum_j psi(t_j, X_{t_j}) dV_j  over [s, T)."""
    paths = cell(cache, s_index, node_index)
    m, n_t = paths.shape[0], paths.shape[1]
    acc = np.zeros(m)
    for j in range(n_t - 1):
        vals = _call_phi(
            lambda xs: psi(s_index + j, xs), paths[:, j, :],
            "running integrand", (s_index, node_index),
        )
        acc += vals * cache.grid.dvs[s_index + j]
    return acc


def running_expectation(cache: EnsembleCache, s_index: int, node_index: int, psi: Callable):
    """Estimate of E[ integral_s^T psi(r, X_r) dV_r ] with its stderr.

    ``psi(time_index, points)`` receives the global grid time index and the
    (M, d) positions at that time.
    """
    est, se = mean_and_stderr(running_path_sums(cache, s_index, node_index, psi))
    return float(est), float(se)


def terminal_plus_running(
    cache: EnsembleCache,
    s_index: int,
    node_index: int,
    phi: Callable,
    psi: Optional[Callable],
    running_sign: float = 1.0,
):
    """Pathwise-combined estimate of E[phi(X_T)] + sign * E[int psi dV].

    Combining per path keeps the stderr honest about the correlation between
    the two terms (both are read off the same trajectories).
    """
    paths = cell(cache, s_index, node_index)
    vals = _call_phi(phi, paths[:, -1, :], "terminal function", (s_index, node_index))
    if psi is not None:
        vals = vals + running_sign * running_path_sums(cache, s_index, node_index, psi)
    est, se = mean_and_stderr(vals)
    return float(est), float(se)
