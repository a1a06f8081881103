"""Grids with their clock V, the piecewise-linear table reader, and the problem data model.

All types are immutable after construction and safe to share across workers.
State space is R^d with d configurable; spatial evaluation off the grid clamps
to the nearest boundary node.

The package's one piecewise-linear table reader lives here, for the grid
fields and the h-transform tables alike: ``Abscissa`` brackets points on an
increasing abscissa in O(1), ``interp_slopes`` forms the slopes, and
``_read`` reads k tables from the brackets in place, so that each read equals
``np.interp`` bit for bit.  ``bracket`` finds the brackets of grid points
(the path cache keeps them), and ``_multilinear`` reads fields from them.  A
field is an (n_times, n_nodes) array of values at the grid times and at the
nodes of ``SpaceTimeGrid.nodes()``; ``_multilinear`` reads its rows as they
are stored, flat, by each node's C-order index.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class ClockV:
    """Non-decreasing continuous clock V with V(0) = 0.

    ``identity`` is V(t) = t.  ``tabulated`` interpolates piecewise-linearly
    between (time, value) samples; the sample range is the clock's domain.
    """

    kind: str = "identity"
    times: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("identity", "tabulated"):
            raise ConfigurationError(f"unknown clock kind {self.kind!r}")
        if self.kind == "tabulated":
            t = np.asarray(self.times, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if t.ndim != 1 or t.shape != v.shape or t.size < 2:
                raise ConfigurationError("tabulated clock needs matching 1-d time/value samples")
            if np.any(np.diff(t) <= 0):
                raise ConfigurationError("clock sample times must be strictly increasing")
            if np.any(np.diff(v) < 0):
                raise ConfigurationError("clock must be non-decreasing")
            if t[0] > 0:
                raise ConfigurationError("clock samples must start at or before t=0")
            if abs(self.value(0.0)) > 1e-12:
                raise ConfigurationError("clock must satisfy V(0) = 0")
            object.__setattr__(self, "times", t)
            object.__setattr__(self, "values", v)

    def covers(self, t_min: float, t_max: float) -> bool:
        if self.kind == "identity":
            return True
        return self.times[0] <= t_min and self.times[-1] >= t_max

    def value(self, t):
        """V(t), vectorized over t."""
        if self.kind == "identity":
            return np.asarray(t, dtype=float)
        return np.interp(t, self.times, self.values)


@dataclass(frozen=True)
class SpaceTimeGrid:
    """The discretization of [t0, T] x a product of intervals, with its clock V
    (V(t) = t by default), whose increments ``dvs`` every layer steps in."""

    times: np.ndarray
    space_min: np.ndarray
    space_max: np.ndarray
    space_nodes: np.ndarray
    clock: ClockV = field(default_factory=ClockV)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        lo = np.atleast_1d(np.asarray(self.space_min, dtype=float))
        hi = np.atleast_1d(np.asarray(self.space_max, dtype=float))
        n = np.atleast_1d(np.asarray(self.space_nodes, dtype=int))
        if t.ndim != 1 or t.size < 2:
            raise ConfigurationError("grid needs at least 2 time points")
        if np.any(np.diff(t) <= 0):
            raise ConfigurationError("grid times must be strictly increasing")
        if not (lo.shape == hi.shape == n.shape):
            raise ConfigurationError("space_min/space_max/space_nodes shapes disagree")
        if np.any(lo >= hi):
            raise ConfigurationError("space_min must be < space_max componentwise")
        if np.any(n < 2):
            raise ConfigurationError("need at least 2 space nodes per dimension")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "space_min", lo)
        object.__setattr__(self, "space_max", hi)
        object.__setattr__(self, "space_nodes", n)
        if not self.clock.covers(t[0], t[-1]):
            raise ConfigurationError(f"clock domain does not cover grid times [{t[0]}, {t[-1]}]")
        dvs = np.diff(self.clock.value(t))
        # interpolation of a non-decreasing table cannot produce negative steps,
        # but guard against float dust
        dust = np.abs(dvs) < 1e-15
        dvs[dust] = np.abs(dvs[dust])
        dvs.flags.writeable = False
        object.__setattr__(self, "_dvs", dvs)
        axes = tuple(np.linspace(lo[k], hi[k], n[k]) for k in range(lo.size))
        for ax in axes:
            ax.flags.writeable = False
        object.__setattr__(self, "_axes", axes)

    @property
    def dimension(self) -> int:
        return self.space_min.size

    @property
    def n_times(self) -> int:
        return self.times.size

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def time_index(self, s: float) -> int:
        """Index of the grid time ``s``, the initial time of a path family P^{s,x}.

        ``s`` is a grid time when it lies within ``1e-9 * max(1, horizon)`` of
        one; any other value (NaN included) raises ``ConfigurationError``.
        """
        i = int(np.argmin(np.abs(self.times - s)))
        if not abs(self.times[i] - s) <= 1e-9 * max(1.0, self.horizon):
            raise ConfigurationError(f"time {s} is not a grid time")
        return i

    @property
    def dvs(self) -> np.ndarray:
        """Clock increments dV_i = V(t_{i+1}) - V(t_i) over the grid steps; read-only."""
        return self._dvs

    @property
    def axes(self) -> tuple[np.ndarray, ...]:
        """Node coordinates per axis, built once; read-only."""
        return self._axes

    def nodes(self) -> np.ndarray:
        """All spatial nodes as an (n_nodes, d) array, C-order over the axes."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    @classmethod
    def regular(cls, horizon, time_steps, space_min, space_max, space_nodes, clock=ClockV()):
        """``time_steps`` uniform steps over [0, horizon]."""
        return cls(
            times=np.linspace(0.0, horizon, time_steps + 1),
            space_min=np.atleast_1d(space_min),
            space_max=np.atleast_1d(space_max),
            space_nodes=np.atleast_1d(space_nodes),
            clock=clock,
        )


def mean_and_stderr(vals: np.ndarray):
    """Sample mean and its stderr (ddof=1; 0 for one sample) over the last axis."""
    m = vals.shape[-1]
    mean = np.mean(vals, axis=-1)
    if m < 2:
        return mean, np.zeros_like(mean)
    return mean, np.std(vals, axis=-1, ddof=1) / np.sqrt(m)


# Points per pass of a bracket or read, so that a pass's few temporaries stay
# in the L2 cache: on a Xeon with 2 MiB of L2 per core, one pass over 126,000
# positions took about twice as long per point.
_BLOCK_POINTS = 16384

# Rows per draw chunk of a simulation whose draws split by rows (diffusion
# and distributional-drift paths): a chunk holds these rows times the step
# count of normals, 2.6 MB at 40 steps.  On a 2-vCPU Xeon (median of 7), a
# 30,000 x 40 distributional-drift simulation took 129 / 115 / 122 / 131 ms
# at 16,384 / 8,192 / 4,096 / 2,048 rows, and a 50,000 x 25 Brownian one
# 38 / 35 / 35 / 42 ms.
_DRAW_ROWS = 8192

# Positions per chunk of a mild sweep or a cache build: a chunk is a run of
# whole grid nodes holding at most this many positions, and always at least
# one node, so each node's statistics are taken on its own whole row of
# paths.  Half this cap cut the stable-z peak by 1 MiB more, but made its mild
# phase about 20% slower.
_CHUNK_POINTS = 32768


def node_chunks(n_nodes: int, M: int) -> list[tuple[slice, slice]]:
    """The chunks of ``n_nodes`` nodes with M paths each, node-major, as
    (nodes, paths): a run of consecutive nodes, at most ``_CHUNK_POINTS``
    paths and at least one node, and the slice of its paths."""
    per = max(1, _CHUNK_POINTS // M)
    return [(slice(a, min(a + per, n_nodes)), slice(a * M, min(a + per, n_nodes) * M))
            for a in range(0, n_nodes, per)]


class Abscissa:
    """An increasing abscissa ``ax`` and the bracket of a point on it in O(1).

    ``bracket(y)`` clamps ``y`` to ``[ax[0], ax[-1]]`` and returns each
    point's index ``i`` with ``ax[i] <= y < ax[i + 1]``, the last node its own
    bracket: ``i == searchsorted(ax, y_clamped, side="right") - 1`` exactly,
    and a NaN point gets the last node.

    A guide (Chen & Asau 1974; Devroye 1986, III.2.4), the fractional node
    index at n uniformly spaced points of the abscissa, n its size, estimates
    a point's index from its uniform position.  One correction step each way
    fixes the estimate, and ``np.searchsorted`` resolves any point still off,
    where the estimate missed by two nodes or more because the abscissa is far
    from uniform within a guide interval.  On the smooth drift tables the
    correction resolves every point; on a strained h table (exp(Sigma)
    spanning e^20) the search is what keeps the reads exact.  On a uniform
    abscissa, such as a grid axis, the guide is the identity and is skipped.
    """

    def __init__(self, ax: np.ndarray):
        n = ax.size
        self.ax = ax
        self._ax_inf = np.append(ax, np.inf)  # lets the last node be its own bracket
        self._scale = (n - 1) / (ax[-1] - ax[0])
        guide = np.interp(np.linspace(ax[0], ax[-1], n), ax, np.arange(n, dtype=float))
        identity = np.array_equal(guide, np.arange(n))
        self._guide = None if identity else (guide, np.append(np.diff(guide), 0.0))

    def _estimate(self, y: np.ndarray) -> np.ndarray:
        """Each clamped point's index from the guide, corrected one step each way."""
        ax_inf = self._ax_inf
        # fmin turns a NaN position into the last node, so the estimate is finite
        q = np.fmin((y - self.ax[0]) * self._scale, self.ax.size - 1)
        i = q.astype(np.intp)
        if self._guide is not None:
            guide, guide_slope = self._guide
            q -= i
            q *= guide_slope.take(i)
            q += guide.take(i)
            i = q.astype(np.intp)
        i -= ax_inf.take(i) > y
        i += ax_inf.take(i + 1) <= y
        return i

    def bracket(self, y: np.ndarray):
        """``(i, y_clamped)``, both of the shape of ``y``."""
        ax, ax_inf = self.ax, self._ax_inf
        y = np.clip(y, ax[0], ax[-1])
        i = self._estimate(y)
        ok = ax_inf.take(i) <= y
        ok &= ax_inf.take(i + 1) > y
        if not ok.all():
            off = ~ok
            i[off] = np.searchsorted(ax, y[off], side="right") - 1
        return i, y

    def read(self, tables: np.ndarray, slopes: np.ndarray, y) -> np.ndarray:
        """The tables (k, n) on this abscissa, with their ``interp_slopes``,
        read at the points ``y`` in passes of ``_BLOCK_POINTS``: shape
        (k, *y.shape)."""
        y = np.asarray(y, dtype=float)
        flat = y.reshape(-1)
        out = np.empty((tables.shape[0], flat.size))
        for start in range(0, flat.size, _BLOCK_POINTS):
            block = slice(start, start + _BLOCK_POINTS)
            i, yb = self.bracket(flat[block])
            _read(out[:, block], tables, slopes, self.ax, i, yb)
        return out.reshape(tables.shape[:1] + y.shape)


def interp_slopes(ax: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """The slope of each table (last axis) on each interval of ``ax``, formed
    as ``np.interp`` forms it, and a zero slope for the last node."""
    slopes = np.zeros(tables.shape)
    np.divide(np.diff(tables), np.diff(ax), out=slopes[..., :-1])
    return slopes


def _read(out, tables, slopes, ax, i, y) -> None:
    """``out[r] = slopes[r, i] * (y - ax[i]) + tables[r, i]`` for every table
    r, at points ``y`` clamped to ``ax`` with brackets ``i``; ``y`` is
    overwritten.  On finite tables each row equals ``np.interp`` bit for bit,
    NaN staying NaN, except that a -0.0 node value read on its node may come
    out +0.0."""
    y -= ax.take(i)
    for row, table, slope in zip(out, tables, slopes):
        np.multiply(slope.take(i), y, out=row)
        row += table.take(i)


def bracket_dtype(axes: tuple[np.ndarray, ...]) -> np.dtype:
    """The smallest unsigned integer type that holds every node index of
    ``axes``: ``uint8`` up to 256 nodes per axis."""
    return np.min_scalar_type(max(ax.size for ax in axes) - 1)


@dataclass(frozen=True)
class Bracketed:
    """Points (n, d) with each point's grid bracket per axis.

    ``index[p, k]`` is ``Abscissa(axes[k]).bracket(points[p, k])[0]``, stored
    as ``bracket_dtype(axes)``; ``shape`` is the shape of ``points``.  The path
    cache keeps the index of every cached position, so the Picard sweeps
    read its fixed positions without searching the grid again.
    """

    points: np.ndarray
    index: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points.shape


def bracket(axes: tuple[np.ndarray, ...], points: np.ndarray) -> Bracketed:
    """Find the bracket of every point (n, d) on ``axes``, in passes of
    ``_BLOCK_POINTS`` points."""
    abscissae = [Abscissa(ax) for ax in axes]
    index = np.empty(points.shape, dtype=bracket_dtype(axes))
    for start in range(0, points.shape[0], _BLOCK_POINTS):
        block = slice(start, start + _BLOCK_POINTS)
        for k, abscissa in enumerate(abscissae):
            index[block, k] = abscissa.bracket(points[block, k])[0]
    return Bracketed(points, index)


def _multilinear(axes: tuple[np.ndarray, ...], tables: np.ndarray, points: Bracketed) -> np.ndarray:
    """Multilinear interpolation of k stacked tables at bracketed points (n, d).

    ``tables`` has shape (k, n_nodes), one field row per table in the order
    of ``SpaceTimeGrid.nodes()``, and the result has shape (k, n): every
    table reads from the bracket ``points`` carries, so no grid search is made
    here.  Points outside the axes are clamped to the boundary.  In one
    dimension each table is read by ``_read``, so it equals ``np.interp`` bit
    for bit on finite tables; in more, each corner of a point's cell is
    gathered by its C-order node index.
    """
    d = len(axes)
    n = points.shape[0]
    if d == 1:
        ax = axes[0]
        slopes = interp_slopes(ax, tables)
        out = np.empty((tables.shape[0], n))
        for start in range(0, n, _BLOCK_POINTS):
            block = slice(start, start + _BLOCK_POINTS)
            i = points.index[block, 0].astype(np.intp)
            y = np.clip(points.points[block, 0], ax[0], ax[-1])
            _read(out[:, block], tables, slopes, ax, i, y)
        return out
    idx = []
    frac = []
    for k, ax in enumerate(axes):
        i = np.minimum(points.index[:, k].astype(np.intp), ax.size - 2)
        idx.append(i)
        frac.append((np.clip(points.points[:, k], ax[0], ax[-1]) - ax[i]) / (ax[i + 1] - ax[i]))
    out = np.zeros((tables.shape[0], n))
    for corner in range(1 << d):
        w = np.ones(n)
        node = 0
        for k in range(d):
            up = corner >> k & 1
            w = w * (frac[k] if up else 1.0 - frac[k])
            node = node * axes[k].size + idx[k] + up
        out += w * tables[:, node]
    return out


@dataclass
class LipschitzDriver:
    """Driver f(t, x, y, z) with declared Lipschitz constants in y and z.

    ``fn`` is vectorized: x is (n, d), y and z are (n,), t is a scalar.
    Constants are user-declared; ``check_lipschitz`` spot-checks them with
    sampled difference quotients and warns (never errors) on violation.
    """

    # points per sampled (t, h) draw of check_lipschitz, and the relative
    # excess over a declared constant that it tolerates
    CHECK_SAMPLES = 512
    CHECK_SLACK = 0.01

    fn: Callable
    K_Y: float = 0.0
    K_Z: float = 0.0

    def __post_init__(self):
        if self.K_Y < 0 or self.K_Z < 0:
            raise ConfigurationError("K_Y, K_Z must be nonnegative")

    def __call__(self, t, x, y, z):
        return np.asarray(self.fn(t, x, y, z), dtype=float)

    def check_lipschitz(self, t_range, space_box):
        """Sample finite-difference quotients in y and z against K_Y, K_Z.

        Returns True on success; warns and returns False when a sampled
        quotient exceeds the declared constant by more than ``CHECK_SLACK``
        (relative).  The samples are drawn from a fixed seed.
        """
        n_samples, slack = self.CHECK_SAMPLES, self.CHECK_SLACK
        rng = np.random.default_rng(0)
        lo, hi = np.atleast_1d(space_box[0]), np.atleast_1d(space_box[1])
        d = lo.size
        ok = True
        for _ in range(8):
            t = rng.uniform(t_range[0], t_range[1])
            x = rng.uniform(lo, hi, size=(n_samples, d))
            y = rng.uniform(-5, 5, n_samples)
            z = rng.uniform(0, 5, n_samples)
            h = 10.0 ** rng.uniform(-4, -1)
            qy = np.abs(self(t, x, y + h, z) - self(t, x, y, z)) / h
            qz = np.abs(self(t, x, y, z + h) - self(t, x, y, z)) / h
            if np.any(qy > self.K_Y * (1 + slack) + 1e-12):
                warnings.warn(
                    f"sampled y-quotient {qy.max():.4g} exceeds declared K_Y={self.K_Y}"
                )
                ok = False
            if np.any(qz > self.K_Z * (1 + slack) + 1e-12):
                warnings.warn(
                    f"sampled z-quotient {qz.max():.4g} exceeds declared K_Z={self.K_Z}"
                )
                ok = False
        return ok


class ImplicitSteps:
    """The implicit one-step solves y = c + f(t, x, y, z) dv of a backward pass.

    Each solve iterates the map from y = c; it contracts because
    K_Y * dv < 1, which the constructor enforces over every step weight in
    ``dvs``.  A solve whose largest change is still at or above
    ``TOLERANCE`` after ``ITERATIONS`` keeps its last iterate and is
    recorded, and ``warn`` names the worst such step in one warning.  A solve
    returns its first non-finite iterate at once, for the caller to reject.
    """

    ITERATIONS = 50
    TOLERANCE = 1e-12

    def __init__(self, driver: LipschitzDriver, dvs):
        max_dv = float(np.max(dvs))
        if driver.K_Y * max_dv >= 1.0:
            raise ConfigurationError(
                f"K_Y * max dV = {driver.K_Y * max_dv:.3g} >= 1: "
                "the implicit one-step solve needs a finer grid"
            )
        self.driver = driver
        self.unconverged = []  # (last change, step) of solves that hit the cap

    def solve(self, step, t, x, c, z, dv):
        """y at the points ``x`` of step ``step``, given c and z there."""
        y = c.copy()
        change = np.inf
        for _ in range(self.ITERATIONS):
            y_try = c + self.driver(t, x, y, z) * dv
            # the change is non-finite whenever y_try is, since y starts at c
            # and c + f dv carries c's non-finite values; y_try is scanned only
            # then, as a change can also overflow between finite iterates
            with np.errstate(invalid="ignore"):  # inf - inf where c is infinite
                change = np.max(np.abs(y_try - y))
            if not np.isfinite(change) and not np.all(np.isfinite(y_try)):
                return y_try
            y = y_try
            if change < self.TOLERANCE:
                return y
        self.unconverged.append((change, step))
        return y

    def warn(self, what: str, unit: str):
        if self.unconverged:
            change, step = max(self.unconverged)
            warnings.warn(
                f"{what} did not converge within {self.ITERATIONS} iterations "
                f"at {len(self.unconverged)} {unit}s; worst at {unit} {step}: "
                f"last change {change:.3g} >= tolerance {self.TOLERANCE:.3g}"
            )


@dataclass
class ProblemSpec:
    """One full problem instance: generator + driver + terminal condition.

    ``terminal_g`` is vectorized over points (n, d) -> (n,).  The horizon
    is the grid's last time.
    """

    generator: object
    driver: LipschitzDriver
    terminal_g: Callable

    def g(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[:, None]
        return np.asarray(self.terminal_g(points), dtype=float)
