"""Picard iteration on the coupled semigroup integral system for (u, v).

The unknown pair solves, for every grid cell (s, x),

    u(s,x)   = E[g(X_T)]   + E[ sum_j f(t_j, X_j, u, v) dV_j ]
    u^2(s,x) = E[g(X_T)^2] - E[ sum_j (v^2 - 2 u f)(t_j, X_j) dV_j ]

with all expectations read from one frozen ensemble cache (common random
numbers), so the iteration map is deterministic.

Every path of cell (t_i, x) starts at x, so the j = i term of the first
line is the pointwise f(t_i, x, u, v) dV_i and the terms j > i read only
later rows: given v, the first line is triangular in time.  ``update_u``
therefore sweeps the rows backward, from the last to the first, reading the
rows it has already written and solving each node's one-unknown diagonal
(Gobet, Lemor & Warin's backward programming, on the cached paths).  With a
z-free driver one sweep lands on the fixed point, so the solve is that one
sweep and one v update.  A z-coupled driver reads v from the previous
iterate, so it iterates, and its delta history shows the Picard map's
contraction.

Every sweep runs per origin block, the paths of all nodes started at one
grid time, and walks the block in chunks of whole nodes (``core.node_chunks``,
at most ``core._CHUNK_POINTS`` paths each).  A chunk's working set is all a
sweep holds beside the cache: g(X_T) is evaluated on the chunk's paths, each
step after the block's own time evaluates the driver once over the chunk's
positions, and each path's running sum is accumulated in place in an array
the chunk owns (never in one that ``problem.g`` or the driver returned,
which may be a view of the read-only cache).  The fields interpolated at a
step are dropped before the next, so however many paths the block holds, a
sweep's temporaries are a few chunk-sized arrays, and each node's statistics
are taken on its whole row of M paths.  At the block's own time every path
sits at its start node, and the kernel at zero lag is the identity, so the
origin term is pointwise: each sweep evaluates it at the n_nodes nodes,
and the one path-sum kernel, ``_block_steps``, yields only the later steps
of a chunk.  At each of those the fields it reads (u; u and v; or u, v and
w) are interpolated by one ``core._multilinear`` call, which reads every
field row as it is stored, from the grid bracket the cache keeps beside each
position.
The cached positions never change during a solve, so their brackets are
found once, when the cache is built, and no sweep searches the grid.  Each
path's sum is accumulated in step order, origin term first, so the
estimates equal a per-cell loop exactly, whatever the chunk size; the tests
compare against the per-cell reference ``terminal_plus_running`` in
``tests/cell_reference.py``.

Two v-identification schemes are provided: ``volterra`` solves the second
line backward in time for w = v^2 (left-endpoint quadrature makes the r = s
term explicit); ``variance`` estimates w as the conditional variance rate of
one-step increments of u along the cached paths.  The volterra route divides
by dV per row, which amplifies Monte-Carlo noise by 1/dV; ``variance`` is the
default for that reason.  Neither identifies v on a flat step of the clock
(dV = 0); both fill those rows by the flat-step rule of the README's clock
paragraph (``_finish_v``), the rule ``fbsde.lsmc_solve`` follows for Z.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import ProblemSpec
from .errors import ConfigurationError, NumericalError
from .semigroup import EnsembleCache


@dataclass
class PicardConfig:
    max_iterations: int = 20
    tolerance: float = 1e-4
    v_scheme: str = "variance"

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ConfigurationError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        if self.v_scheme not in ("volterra", "variance"):
            raise ConfigurationError(f"unknown v scheme {self.v_scheme!r}")


@dataclass
class ClampTelemetry:
    """Negative-variance clamping record: v >= 0 is definitional, so negative
    w = v^2 values (Monte-Carlo noise, quadrature bias) clamp to zero and are
    accounted for here."""

    count: int = 0
    total_mass: float = 0.0
    max_magnitude: float = 0.0


@dataclass
class ResidualReport:
    residual_1: float
    residual_2: float
    stderr_floor_1: float
    stderr_floor_2: float


@dataclass
class MildSolution:
    """The solved pair (u, v) with per-cell stderrs and the solve's record.

    ``u``, ``v``, ``u_stderr`` and ``v_stderr`` share one layout, an
    (n_times, n_nodes) array: row i is grid time t_i and column k is node k
    of ``grid.nodes()``.
    """

    u: np.ndarray
    v: np.ndarray
    u_stderr: np.ndarray
    v_stderr: np.ndarray
    iterations: int
    deltas: list
    converged: bool
    residuals: ResidualReport
    clamp: ClampTelemetry
    out_of_bounds_fraction: float = 0.0


def _block_positions(cache: EnsembleCache, i: int, j: int, paths: slice) -> core.Bracketed:
    """Positions at grid time j > i of the ``paths`` started at grid time i,
    as an (n, d) array, node-major, with their kept brackets; zero-copy."""
    return core.Bracketed(cache.blocks[i][j - i - 1][paths], cache.index[i][j - i - 1][paths])


def _block_steps(cache: EnsembleCache, i: int, paths: slice, rows):
    """The path-sum kernel: the steps j = i+1..N-1 of one chunk of origin block i.

    Yields (j, xs, vals): the (n, d) positions of the chunk's ``paths`` at
    t_j and, as a (len(rows), n) array, row j of each field in ``rows`` read
    at them by one ``core._multilinear`` call from the brackets the cache
    keeps, so no step searches the grid.  The origin step j = i, where every
    path sits at its node, is not yielded: callers evaluate it at the nodes.
    Steps with dV_j = 0 are skipped; they add nothing to a left-endpoint sum.
    """
    grid = cache.grid
    for j in range(i + 1, grid.n_times - 1):
        if grid.dvs[j] == 0.0:
            continue
        fields = np.stack([r[j] for r in rows])
        xs = _block_positions(cache, i, j, paths)
        yield j, xs.points, core._multilinear(grid.axes, fields, xs)


def _terminal_values(
    problem: ProblemSpec, cache: EnsembleCache, i: int, nodes: slice, paths: slice
) -> np.ndarray:
    """g(X_T) on one chunk of origin block i, the ``paths`` of its ``nodes``,
    node-major; at i = N-1 every path sits at its node.  ``problem.g`` may
    return a view of the read-only cache, so callers never write into it."""
    if i == cache.grid.n_times - 1:
        return np.repeat(problem.g(cache.nodes[nodes]), cache.M)
    return problem.g(cache.blocks[i][-1][paths])


def _node_stats(vals: np.ndarray, M: int):
    """Per-node sample mean and stderr of node-major values, M paths per node."""
    return core.mean_and_stderr(vals.reshape(-1, M))


def _scalar_square(a: np.ndarray) -> np.ndarray:
    """Elementwise x**2 through libm pow, as Python and numpy scalars square.

    Array ``a**2`` multiplies instead and differs in the last bit for ~0.1%
    of inputs; the 1/dV of the Volterra row solve amplifies that, and the
    v and residual outputs are kept bit-stable across versions.
    """
    return np.array([x**2 for x in a.tolist()])


def _second_line_term(w: np.ndarray, u: np.ndarray, f: np.ndarray, dv: float) -> np.ndarray:
    """(w - 2 u f) dV, built in one new array by the operations of that
    expression in its order, so it equals the expression bit for bit."""
    out = np.multiply(2.0, u)
    out *= f
    np.subtract(w, out, out=out)
    out *= dv
    return out


def update_u(v_k: np.ndarray, problem: ProblemSpec, cache: EnsembleCache):
    """One backward sweep of the first line, rows N-1 down to 0.

    Row i reads the rows j > i this sweep has already written, so the sweep
    lands on the fixed point of the first line for the given v.  Per node,
    B_i is the path mean of g(X_T) + sum_{j>i} f(t_j, X_j, u, v) dV_j, and
    u(t_i, x) solves y = B_i + f(t_i, x, y, v(t_i, x)) dV_i at the node (no
    diagonal term when dV_i = 0).  Returns u and its per-cell stderr (that
    of the path values of B_i), both in the layout of ``MildSolution``.  No
    earlier u is read, and ``v_k`` only when the driver is z-coupled
    (K_Z > 0).
    """
    grid = cache.grid
    n_t, n_nodes = grid.n_times, cache.n_nodes
    steps = core.ImplicitSteps(problem.driver, grid.dvs)
    z_coupled = problem.driver.K_Z > 0
    out = np.empty((n_t, n_nodes))
    se = np.zeros((n_t, n_nodes))
    v_rows = v_k if z_coupled else np.zeros((n_t, 1))  # z-free: z reads 0
    rows = (out, v_rows) if z_coupled else (out,)
    # terminal row is exact: the running integral vanishes at s = T
    out[-1] = problem.g(cache.nodes)
    for i in range(n_t - 2, -1, -1):
        b_i = np.empty(n_nodes)
        for nodes, paths in core.node_chunks(n_nodes, cache.M):
            acc = np.zeros(paths.stop - paths.start)
            for j, xs, vals in _block_steps(cache, i, paths, rows):
                uu, vv = vals if z_coupled else (vals[0], v_rows[j])
                acc += problem.driver(grid.times[j], xs, uu, vv) * grid.dvs[j]
                del vals, uu, vv
            acc += _terminal_values(problem, cache, i, nodes, paths)
            b_i[nodes], se[i, nodes] = _node_stats(acc, cache.M)
        dv = grid.dvs[i]
        out[i] = steps.solve(i, grid.times[i], cache.nodes, b_i, v_rows[i], dv) if dv else b_i
        if not np.all(np.isfinite(out[i])):
            raise NumericalError(f"u update produced non-finite values in row {i}")
    steps.warn("implicit row solve of u", "row")
    return out, se


def _clamp_w(w: np.ndarray, telemetry: ClampTelemetry) -> np.ndarray:
    neg = w < 0
    if np.any(neg):
        telemetry.count += int(np.sum(neg))
        telemetry.total_mass += float(np.sum(-w[neg]))
        telemetry.max_magnitude = max(telemetry.max_magnitude, float(np.max(-w[neg])))
    return np.clip(w, 0.0, None)


def _flat_step_sources(dvs: np.ndarray) -> np.ndarray:
    """The flat-step rule of the README's clock paragraph, as a map from each
    row to the row whose v it takes: row i < N takes that of the first step
    j >= i with dV_j > 0, and the terminal row N that of row N-1.  -1 marks a
    row that no step with dV > 0 follows; its v is 0 with stderr 0."""
    src = np.full(dvs.size + 1, -1)
    for i in range(dvs.size - 1, -1, -1):
        src[i] = i if dvs[i] > 0.0 else src[i + 1]
    src[-1] = src[-2]
    return src


def _finish_v(w, se_w, dvs):
    """Shared end of both v updates: fill the rows of flat steps and the
    terminal row by the flat-step rule (README, clock paragraph;
    ``_flat_step_sources``), warning once with the flat steps, and map
    (w, se_w) to (v, se_v) by the delta method.  On a flat step the density
    v^2 = d<M>/dV is not identified; the rule picks one representative."""
    if np.any(flat := dvs == 0.0):
        warnings.warn(f"dV = 0 on steps {np.flatnonzero(flat).tolist()}: v by the flat-step rule")
    src = _flat_step_sources(dvs)
    known = (src >= 0)[:, None]
    w = np.where(known, w[src], 0.0)
    se_w = np.where(known, se_w[src], 0.0)
    v = np.sqrt(w)
    bad_rows = np.flatnonzero(~np.isfinite(v).all(axis=1))
    if bad_rows.size:
        raise NumericalError(f"v update produced non-finite values in row {bad_rows[0]}")
    se_v = np.where(v > 1e-8, se_w / (2.0 * np.maximum(v, 1e-8)), np.sqrt(se_w))
    return v, se_v


def update_v_variance(
    u_next: np.ndarray, v_prev: np.ndarray, problem: ProblemSpec, cache: EnsembleCache
):
    """v^2 as the conditional variance rate of one-step increments of u.

    Per cell, w = E[(u(t_{i+1}, X_{t_{i+1}}) - u(t_i, x) + f dV_i)^2] / dV_i:
    the squared increment of the compensated part of u along the cached paths.
    """
    grid = cache.grid
    n_t, n_nodes = grid.n_times, cache.n_nodes
    w = np.zeros((n_t, n_nodes))
    se_w = np.zeros((n_t, n_nodes))
    for i in range(n_t - 1):
        dv = grid.dvs[i]
        if dv == 0.0:
            continue
        f_dv = problem.driver(grid.times[i], cache.nodes, u_next[i], v_prev[i]) * dv
        for nodes, paths in core.node_chunks(n_nodes, cache.M):
            at_next = _block_positions(cache, i, i + 1, paths)
            u_then = core._multilinear(grid.axes, u_next[i + 1][None], at_next)[0]
            incr = u_then.reshape(-1, cache.M) - u_next[i][nodes, None] + f_dv[nodes, None]
            mean_sq, se_sq = _node_stats(incr * incr, cache.M)
            w[i, nodes] = mean_sq / dv
            se_w[i, nodes] = se_sq / dv
    # a mean of squares over dV > 0: nothing to clamp
    return (*_finish_v(w, se_w, grid.dvs), ClampTelemetry())


def update_v_volterra(
    u_next: np.ndarray, v_prev: np.ndarray, problem: ProblemSpec, cache: EnsembleCache
):
    """Backward time-stepping solve of the second line for w = v^2.

    With left-endpoint quadrature the r = t_i term of the running integral is
    (w - 2 u f)(t_i, x) dV_i exactly (the kernel at zero lag is the identity),
    so each row solves

      w(t_i,x) dV_i = E[g^2(X_T)] - u^2(t_i,x) + 2 u f(t_i,x) dV_i
                      - E[ sum_{j>i} (w - 2 u f)(t_j, X_j) dV_j ].

    The division by dV_i amplifies Monte-Carlo noise; the reported stderr
    combines the cell's path noise with the interpolated noise of later rows.
    """
    grid = cache.grid
    n_t, n_nodes = grid.n_times, cache.n_nodes
    w = np.zeros((n_t, n_nodes))
    se_w = np.zeros((n_t, n_nodes))
    telemetry = ClampTelemetry()
    row_mean_se = np.zeros(n_t)
    est, se_path = np.empty(n_nodes), np.empty(n_nodes)

    for i in range(n_t - 2, -1, -1):
        dv = grid.dvs[i]
        if dv == 0.0:
            continue
        f_here = problem.driver(grid.times[i], cache.nodes, u_next[i], v_prev[i])
        sys_var = float(np.sum((grid.dvs[i + 1 : n_t - 1] * row_mean_se[i + 1 : n_t - 1]) ** 2))
        for nodes, paths in core.node_chunks(n_nodes, cache.M):
            acc = _terminal_values(problem, cache, i, nodes, paths) ** 2
            for j, xs, vals in _block_steps(cache, i, paths, (u_next, v_prev, w)):
                uu, vv, ww = vals
                ff = problem.driver(grid.times[j], xs, uu, vv)
                acc -= _second_line_term(ww, uu, ff, grid.dvs[j])
                del vals, uu, vv, ww, ff
            est[nodes], se_path[nodes] = _node_stats(acc, cache.M)
        w[i] = (est - _scalar_square(u_next[i])) / dv + 2.0 * u_next[i] * f_here
        se_w[i] = np.sqrt(_scalar_square(se_path) + sys_var) / dv
        # clamp this row before later (earlier-time) rows consume it
        w[i] = _clamp_w(w[i], telemetry)
        row_mean_se[i] = float(np.mean(se_w[i]))
    return (*_finish_v(w, se_w, grid.dvs), telemetry)


def mild_residuals(u: np.ndarray, v: np.ndarray, problem: ProblemSpec, cache: EnsembleCache):
    """Plug-in residuals of both lines, sup over grid cells, with stderr floors.

    Each path's sums start with the origin term r = t_i, evaluated at the
    nodes and repeated over each node's M paths (none at i = N-1, nor where
    dV_i = 0), then add the later steps of ``_block_steps``, one chunk of
    the block at a time.
    """
    grid = cache.grid
    n_t, n_nodes = grid.n_times, cache.n_nodes
    res1 = np.zeros((n_t, n_nodes))
    res2 = np.zeros((n_t, n_nodes))
    floor1 = np.zeros((n_t, n_nodes))
    floor2 = np.zeros((n_t, n_nodes))
    mean1, mean2 = np.empty(n_nodes), np.empty(n_nodes)
    for i in range(n_t):
        origin = i < n_t - 1 and grid.dvs[i] != 0.0
        if origin:
            dv = grid.dvs[i]
            f_i = problem.driver(grid.times[i], cache.nodes, u[i], v[i])
            origin1, origin2 = f_i * dv, (v[i] ** 2 - 2.0 * u[i] * f_i) * dv
        for nodes, paths in core.node_chunks(n_nodes, cache.M):
            acc1 = np.array(_terminal_values(problem, cache, i, nodes, paths))
            acc2 = acc1**2
            if origin:
                acc1 += np.repeat(origin1[nodes], cache.M)
                acc2 -= np.repeat(origin2[nodes], cache.M)
            for j, xs, vals in _block_steps(cache, i, paths, (u, v)):
                uu, vv = vals
                ff = problem.driver(grid.times[j], xs, uu, vv)
                acc1 += ff * grid.dvs[j]
                acc2 -= _second_line_term(vv**2, uu, ff, grid.dvs[j])
                del vals, uu, vv, ff
            mean1[nodes], floor1[i, nodes] = _node_stats(acc1, cache.M)
            mean2[nodes], floor2[i, nodes] = _node_stats(acc2, cache.M)
        res1[i] = np.abs(u[i] - mean1)
        res2[i] = np.abs(_scalar_square(u[i]) - mean2)
    return ResidualReport(
        residual_1=float(res1.max()),
        residual_2=float(res2.max()),
        stderr_floor_1=float(floor1.max()),
        stderr_floor_2=float(floor2.max()),
    )


def picard_solve(
    problem: ProblemSpec, cache: EnsembleCache, cfg: PicardConfig
) -> MildSolution:
    """Iterate the coupled system from u0 = v0 = 0.

    Each iteration is one backward ``update_u`` sweep, then one v update.
    With a z-free driver (K_Z = 0 declares f constant in z) the sweep does
    not read v, so the first iteration lands on the fixed point and ends the
    solve as converged.  A z-coupled driver iterates until the sup-norm
    u-delta falls below ``cfg.tolerance`` or ``cfg.max_iterations`` run out;
    only those drivers read the two settings.  Non-convergence is flagged on
    the result, not raised; K_Y * max dV >= 1 raises ``ConfigurationError``,
    since the sweep's per-node implicit solve needs it below 1.
    """
    grid = cache.grid
    if problem.generator.fingerprint() != cache.generator_fingerprint:
        raise ConfigurationError("cache was built for a different generator")
    u = np.zeros((grid.n_times, cache.n_nodes))
    v = np.zeros((grid.n_times, cache.n_nodes))
    z_coupled = problem.driver.K_Z > 0
    update_v = update_v_volterra if cfg.v_scheme == "volterra" else update_v_variance

    deltas = []
    converged = False
    for iterations in range(1, cfg.max_iterations + 1):
        u_next, u_se = update_u(v, problem, cache)
        deltas.append(float(np.max(np.abs(u_next - u))))
        u = u_next
        v, v_se, telemetry = update_v(u, v, problem, cache)
        if deltas[-1] < cfg.tolerance or not z_coupled:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"fixed-point iteration did not reach tolerance {cfg.tolerance} "
            f"in {cfg.max_iterations} iterations (last delta {deltas[-1]:.3g})"
        )

    residuals = mild_residuals(u, v, problem, cache)
    return MildSolution(
        u=u,
        v=v,
        u_stderr=u_se,
        v_stderr=v_se,
        iterations=iterations,
        deltas=deltas,
        converged=converged,
        residuals=residuals,
        clamp=telemetry,
        out_of_bounds_fraction=cache.out_of_bounds_fraction,
    )
