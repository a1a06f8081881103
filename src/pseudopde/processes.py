"""Markov path simulators paired with their generator data.

Four generator families are supported:

* ``Diffusion``        dX = mu dt + sigma dW            (Euler-Maruyama)
* ``JumpDiffusion``    diffusion + compound-Poisson jumps, finite activity,
                       jump count per step ~ Poisson(rate * dV)
* ``Stable``           symmetric alpha-stable, symbol c*|xi|^alpha, exact
                       increments via the Chambers-Mallows-Stuck transform
* ``DistributionalDrift``  1-d SDE whose drift is the distributional
                       derivative of a continuous b; simulated through the
                       harmonic transform h (h' = exp(-Sigma)) as the
                       driftless SDE dY = sigma0(Y) dW, mapped back via h^-1
                       at every grid time.

The h-transform's tables are read piecewise-linearly, one O(1) bracket per
point for every table on an abscissa (``h_table`` for x and sigma0,
``x_table`` for h, sigma and Sigma').  A guide of fractional table indices at
uniformly spaced points estimates the bracket; one correction step each way
fixes it, and ``np.searchsorted`` resolves any point still off, so each read
equals ``np.interp`` bit for bit.  On the smooth drift tables the correction
resolves every point; on a strained table (exp(Sigma) spanning e^20) the
search fallback is what keeps the reads exact.

Path generation is deterministic given (seed, path index): each cache cell
(one origin time and node) draws from its own counter-based Philox stream with
a fixed (path, step) layout, so results are independent of scheduling and of
the worker count.  A cache block (one origin time, every node) is evolved in
one call: each cell's rows draw from the cell's own stream, then all rows of
the block step together.

Each generator's ``time_homogeneous`` says whether its path law is free of
t: always for ``Stable`` and ``DistributionalDrift``, and for the other two
when ``mu`` and ``sigma`` both carry ``reads_t = False``, as functions built
from expressions without t do.  The path cache shares path sets across start
times only then (``semigroup.rows_per_path_set``).

``simulate`` samples the family P^{s,x}: M paths from x at the grid time s
(located by ``SpaceTimeGrid.time_index``), returned as a ``PathEnsemble`` of
the grid times from s on, their clock increments dV and the positions.

scipy is imported only inside ``JumpLaw.quadrature``, for the Gauss-Hermite
and Gauss-Laguerre rules of the ``gaussian`` and ``laplace`` jump laws.
Loading it takes most of a run's start-up time, and no other code here
needs it.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import ClockV, SpaceTimeGrid, v_increments
from .errors import ConfigurationError, InputError, InternalError

_QUAD_NODES = 96

# Points per pass of a table read, so that the pass's dozen temporaries stay in
# the L2 cache: on a 2-vCPU Xeon, 30,000 points read 1.3 ms in passes of 8,192
# and 1.8 ms in passes of 16,384 (the pass size of ``core._multilinear``).
_READ_BLOCK = 8192


@dataclass(frozen=True)
class JumpLaw:
    """Jump-size law; a named 1-parameter family or explicit point masses."""

    kind: str
    param: float = 0.0
    atoms: tuple = ()

    def __post_init__(self):
        if self.kind in ("two_point", "gaussian", "laplace"):
            if self.param <= 0:
                raise ConfigurationError(f"{self.kind} jump law needs a positive parameter")
        elif self.kind == "atoms":
            if not self.atoms:
                raise ConfigurationError("atoms jump law needs at least one (value, weight) pair")
            w = sum(p for _, p in self.atoms)
            if abs(w - 1.0) > 1e-12 or any(p < 0 for _, p in self.atoms):
                raise ConfigurationError("atom weights must be nonnegative and sum to 1")
        else:
            raise ConfigurationError(f"unknown jump law {self.kind!r}")

    def quadrature(self):
        """Nodes and weights with sum(w) = 1 integrating the law exactly
        (discrete laws) or to Gauss quadrature accuracy (continuous laws)."""
        if self.kind == "two_point":
            a = self.param
            return np.array([a, -a]), np.array([0.5, 0.5])
        if self.kind == "atoms":
            ys = np.array([y for y, _ in self.atoms])
            ps = np.array([p for _, p in self.atoms])
            return ys, ps
        if self.kind == "gaussian":
            from scipy.special import roots_hermite

            t, w = roots_hermite(_QUAD_NODES)
            return np.sqrt(2.0) * self.param * t, w / np.sqrt(np.pi)
        if self.kind == "laplace":
            from scipy.special import roots_laguerre

            t, w = roots_laguerre(_QUAD_NODES)
            ys = self.param * t
            return np.concatenate([ys, -ys]), np.concatenate([w, w]) * 0.5
        raise ConfigurationError(self.kind)  # pragma: no cover

    def sample_sums(self, rng: np.random.Generator, counts: np.ndarray) -> np.ndarray:
        """Sum of `count` iid jumps per entry, drawn with a fixed layout.

        Closed-form sums keep the draw count per (path, step) constant:
        gaussian sums are N(0, k sigma^2), two-point sums are lattice walks
        via a binomial, laplace sums are gamma differences, atom sums come
        from a multinomial split.
        """
        if self.kind == "gaussian":
            z = rng.standard_normal(counts.shape)
            return self.param * np.sqrt(counts) * z
        if self.kind == "two_point":
            heads = rng.binomial(counts, 0.5)
            return self.param * (2.0 * heads - counts)
        if self.kind == "laplace":
            g1 = rng.gamma(counts, self.param)
            g2 = rng.gamma(counts, self.param)
            return g1 - g2
        if self.kind == "atoms":
            ys = np.array([y for y, _ in self.atoms])
            ps = np.array([p for _, p in self.atoms])
            split = rng.multinomial(counts, ps)
            return split @ ys
        raise ConfigurationError(self.kind)  # pragma: no cover


@dataclass(frozen=True)
class LevyKernel:
    """Finite-activity jump kernel: jumps at rate per unit V with law ``law``."""

    rate: float
    law: JumpLaw

    def __post_init__(self):
        if self.rate < 0:
            raise ConfigurationError("jump rate must be nonnegative")


def _drift_array(mu, t, x, dimension):
    out = np.asarray(mu(t, x), dtype=float)
    n = x.shape[0]
    if out.ndim <= 1:
        out = np.broadcast_to(out.reshape(-1) if out.ndim else out, (n,))
        return np.repeat(out[:, None], dimension, axis=1) if dimension > 1 else out[:, None]
    return np.broadcast_to(out, (n, dimension))


def _vol_matrix(sigma, t, x, dimension):
    out = np.asarray(sigma(t, x), dtype=float)
    n = x.shape[0]
    if out.ndim == 3:
        return np.broadcast_to(out, (n, dimension, dimension))
    # scalar or per-point scalar: isotropic volatility
    flat = np.broadcast_to(out.reshape(-1) if out.ndim else out, (n,))
    eye = np.eye(dimension)
    return flat[:, None, None] * eye[None, :, :]


def _fn_token(fn) -> str:
    """Stable label for a coefficient function; expression-built functions
    carry their source text so fingerprints are identical across runs."""
    return getattr(fn, "fingerprint_token", getattr(fn, "__name__", "fn"))


def _reads_t(fn) -> bool:
    """Whether a coefficient function may depend on t: expression-built
    functions say so in ``reads_t``, and any other callable is assumed to."""
    return getattr(fn, "reads_t", True)


@dataclass(frozen=True)
class Diffusion:
    """dX = mu(t,X) dt + sigma(t,X) dW on R^d."""

    mu: Callable
    sigma: Callable
    dimension: int = 1

    @property
    def time_homogeneous(self) -> bool:
        """True when neither coefficient reads t, so the path law does not."""
        return not (_reads_t(self.mu) or _reads_t(self.sigma))

    def fingerprint(self) -> str:
        return _fingerprint("diffusion", self.dimension, _fn_token(self.mu), _fn_token(self.sigma))


@dataclass(frozen=True)
class JumpDiffusion:
    """Diffusion plus state-independent compound-Poisson jumps."""

    mu: Callable
    sigma: Callable
    levy: LevyKernel
    dimension: int = 1

    def __post_init__(self):
        if self.dimension != 1:
            raise ConfigurationError("jump diffusion simulation is 1-d in this version")

    @property
    def time_homogeneous(self) -> bool:
        """True when neither coefficient reads t; the jump kernel never does."""
        return not (_reads_t(self.mu) or _reads_t(self.sigma))

    def fingerprint(self) -> str:
        return _fingerprint(
            "jump_diffusion", self.dimension, _fn_token(self.mu), _fn_token(self.sigma),
            self.levy.rate, self.levy.law.kind, self.levy.law.param, self.levy.law.atoms,
        )


@dataclass(frozen=True)
class Stable:
    """Symmetric alpha-stable process with symbol c*|xi|^alpha (d = 1)."""

    alpha: float
    scale: float = 1.0
    dimension: int = 1

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ConfigurationError("alpha must lie in (0, 2]")
        if self.scale <= 0:
            raise ConfigurationError("scale must be positive")

    time_homogeneous = True

    def fingerprint(self) -> str:
        return _fingerprint("stable", self.alpha, self.scale)


class _TableRead:
    """Piecewise-linear reads of k tables that share one increasing abscissa.

    Each point's bracket ``i``, with ``ax[i] <= y < ax[i + 1]`` and the last
    node its own bracket, is found once (in O(1) unless the fallback search
    below is needed) and every table is read from it as ``slope[i] * (y -
    ax[i]) + fp[i]``.

    The bracket comes from a guide (Chen & Asau 1974; Devroye 1986, III.2.4):
    the fractional table index at n uniformly spaced points of the abscissa,
    n the table size.  A point's uniform position, interpolated in the guide,
    estimates its index; one correction step each way fixes the estimate as
    ``core._bracket`` does, and any point still off its bracket (the estimate
    missed by two nodes or more, where the table is far from linear within a
    guide interval) is searched with ``np.searchsorted``.  So the index always
    equals ``searchsorted(ax, y, side="right") - 1`` on the clamped ``y``, and
    a NaN point gets the last node.  With slopes formed as ``np.interp`` forms
    them and a zero slope for the last node, each read equals ``np.interp`` bit
    for bit, NaN staying NaN, except that a -0.0 node value read on its node
    may come out +0.0.
    """

    def __init__(self, ax: np.ndarray, tables: tuple):
        n = ax.size
        self.ax = ax
        self._ax_inf = np.append(ax, np.inf)  # lets the last node be its own bracket
        self._scale = (n - 1) / (ax[-1] - ax[0])
        self._guide = np.interp(np.linspace(ax[0], ax[-1], n), ax, np.arange(n, dtype=float))
        self._guide_slope = np.append(np.diff(self._guide), 0.0)
        self.tables = tables
        dx = np.diff(ax)
        self.slopes = tuple(np.append(np.diff(fp) / dx, 0.0) for fp in tables)

    def _estimate(self, y: np.ndarray) -> np.ndarray:
        """Each clamped point's index from the guide, corrected one step each way."""
        ax, ax_inf = self.ax, self._ax_inf
        # fmin turns a NaN position into the last guide point, so the estimate is finite
        q = np.fmin((y - ax[0]) * self._scale, ax.size - 1)
        k = q.astype(np.intp)
        q -= k
        q *= self._guide_slope.take(k)
        q += self._guide.take(k)
        i = q.astype(np.intp)
        i -= ax_inf.take(i) > y
        i += ax_inf.take(i + 1) <= y
        return i

    def bracket(self, y: np.ndarray):
        """``(i, y_clamped)`` for 1-d ``y``: ``y`` clamped to the abscissa and
        ``i == searchsorted(ax, y_clamped, side="right") - 1``."""
        ax, ax_inf = self.ax, self._ax_inf
        y = np.minimum(np.maximum(y, ax[0]), ax[-1])
        i = self._estimate(y)
        ok = ax_inf.take(i) <= y
        ok &= ax_inf.take(i + 1) > y
        if not ok.all():
            off = np.flatnonzero(~ok)
            i[off] = np.searchsorted(ax, y[off], side="right") - 1
        return i, y

    def read(self, y, rows) -> np.ndarray:
        """Tables ``rows`` read at the points ``y``: shape (len(rows), *y.shape)."""
        y = np.asarray(y, dtype=float)
        flat = y.reshape(-1)
        out = np.empty((len(rows), flat.size))
        for start in range(0, flat.size, _READ_BLOCK):
            block = slice(start, start + _READ_BLOCK)
            i, yb = self.bracket(flat[block])
            dy = yb - self.ax.take(i)
            for row, r in zip(out[:, block], rows):
                np.multiply(self.slopes[r].take(i), dy, out=row)
                row += self.tables[r].take(i)
        return out.reshape((len(rows),) + y.shape)


@dataclass(frozen=True)
class HTransform:
    """Tables for Sigma, the harmonic map h (h' = exp(-Sigma)) and sigma0.

    Each abscissa has one read (``_TableRead``): ``h_table`` for x (that is
    h^-1) and sigma0, ``x_table`` for h, sigma and Sigma'.  A read finds each
    point's bracket once from a guide, corrects it one step each way and
    falls back to ``np.searchsorted`` for any point still off, so every table
    read from it equals ``np.interp`` on that table bit for bit (clamped to
    the table, NaN staying NaN, up to the sign of a zero node value).  Sigma'
    is ``np.gradient`` of the Sigma table, built once with the reads.
    """

    x_table: np.ndarray
    sigma_table: np.ndarray
    Sigma_table: np.ndarray
    h_table: np.ndarray
    sigma0_table: np.ndarray
    _on_x: _TableRead = field(init=False, compare=False, repr=False)
    _on_h: _TableRead = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        Sigma_prime = np.gradient(self.Sigma_table, self.x_table)
        object.__setattr__(
            self, "_on_x",
            _TableRead(self.x_table, (self.h_table, self.sigma_table, Sigma_prime)),
        )
        object.__setattr__(
            self, "_on_h", _TableRead(self.h_table, (self.x_table, self.sigma0_table))
        )

    def h(self, x):
        return self._on_x.read(x, (0,))[0]

    def sigma(self, x):
        return self._on_x.read(x, (1,))[0]

    def sigma_and_Sigma_prime(self, x):
        """``(sigma(x), Sigma'(x))`` from one bracket per point."""
        return self._on_x.read(x, (1, 2))

    def sigma0(self, y):
        return self._on_h.read(y, (1,))[0]

    def h_inv_and_sigma0(self, y):
        """``(h^-1(y), sigma0(y))`` from one bracket per point."""
        return self._on_h.read(y, (0, 1))


def build_h_transform(b_x, b_values, sigma_fn: Callable, ta_ratio_warn: float = 1e4) -> HTransform:
    """Build (Sigma, h, h^-1, sigma0) from a sampled continuous b and sigma > 0.

    Sigma(x) = 2 * integral_0^x sigma^-2(y) db(y) as a Riemann-Stieltjes sum
    over the table (db as table differences, sigma^-2 at midpoints), h by the
    trapezoid rule on exp(-Sigma), h^-1 by monotone inversion.
    """
    x = np.asarray(b_x, dtype=float)
    b = np.asarray(b_values, dtype=float)
    if x.ndim != 1 or x.shape != b.shape or x.size < 3:
        raise InputError("b table needs matching 1-d arrays with at least 3 nodes")
    if np.any(np.diff(x) <= 0):
        raise InputError("b table abscissae must be strictly increasing")
    if not (x[0] <= 0.0 <= x[-1]):
        raise InputError("b table must bracket 0 (h is normalized at 0)")
    sig = np.asarray(sigma_fn(x), dtype=float)
    if np.any(sig <= 0):
        raise InputError("sigma must be positive everywhere on the table")

    mid = 0.5 * (x[:-1] + x[1:])
    sig_mid = np.asarray(sigma_fn(mid), dtype=float)
    dS = 2.0 * np.diff(b) / sig_mid**2
    S = np.concatenate([[0.0], np.cumsum(dS)])
    S = S - np.interp(0.0, x, S)

    ratio = np.exp(S) / sig
    spread = ratio.max() / ratio.min()
    if spread > ta_ratio_warn:
        warnings.warn(
            f"exp(Sigma)/sigma varies by a factor {spread:.3g} over the table; "
            "the two-sided boundedness assumption is numerically strained"
        )

    hp = np.exp(-S)
    H = np.concatenate([[0.0], np.cumsum(0.5 * (hp[:-1] + hp[1:]) * np.diff(x))])
    H = H - np.interp(0.0, x, H)
    if np.any(np.diff(H) <= 0):
        raise InternalError("computed h is not strictly increasing")

    return HTransform(
        x_table=x, sigma_table=sig, Sigma_table=S, h_table=H, sigma0_table=sig * hp
    )


@dataclass(frozen=True)
class DistributionalDrift:
    """1-d SDE dX = b'(X) dt + sigma(X) dW with b' a distribution.

    ``b`` enters as a dense sample table (its derivative is never needed);
    the transform is built eagerly so any table defect fails fast.
    """

    b_x: np.ndarray
    b_values: np.ndarray
    sigma_fn: Callable
    transform: HTransform = field(init=False, compare=False, repr=False)
    dimension: int = 1

    def __post_init__(self):
        object.__setattr__(
            self, "transform", build_h_transform(self.b_x, self.b_values, self.sigma_fn)
        )

    time_homogeneous = True  # b and sigma are functions of x alone

    def fingerprint(self) -> str:
        t = self.transform
        return _fingerprint(
            "distributional_drift",
            hashlib.sha1(np.ascontiguousarray(t.h_table).tobytes()).hexdigest(),
            hashlib.sha1(np.ascontiguousarray(t.sigma0_table).tobytes()).hexdigest(),
        )


def _fingerprint(*parts) -> str:
    return hashlib.sha1(repr(parts).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class PathEnsemble:
    """M simulated trajectories of P^{s,x} over the grid times from s to T.

    ``times`` are the grid times t_i..t_N with t_i = s, ``dvs`` the clock
    increments V(t_{j+1}) - V(t_j) over those steps, and ``paths`` the
    (M, times.size, d) positions, every path starting at x.
    """

    times: np.ndarray
    dvs: np.ndarray
    paths: np.ndarray


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed & ((1 << 128) - 1)))


def _cms_standard(alpha: float, u: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Standard symmetric alpha-stable variates (cf exp(-|xi|^alpha))."""
    if alpha == 1.0:
        return np.tan(u)
    return (
        np.sin(alpha * u)
        / np.cos(u) ** (1.0 / alpha)
        * (np.cos((1.0 - alpha) * u) / e) ** ((1.0 - alpha) / alpha)
    )


def check_dimension(gen, dimension: int) -> None:
    """Reject a grid dimension the generator family cannot simulate."""
    if isinstance(gen, (Stable, DistributionalDrift)) and dimension != 1:
        raise ConfigurationError(f"{type(gen).__name__} requires dimension 1")


def _draw(gen, rng: np.random.Generator, n: int, dts: np.ndarray, dvs, d: int) -> tuple:
    """All random numbers of ``n`` paths from one stream, in the fixed layout.

    Stable: uniform angles and unit exponentials (n, n_steps); distributional
    drift: normals (n, n_steps); otherwise normals (n, n_steps, d), then, for
    jumps, Poisson counts (n, n_steps) and their jump sums.
    """
    n_steps = dts.size
    if isinstance(gen, Stable):
        u = rng.uniform(-np.pi / 2, np.pi / 2, (n, n_steps))
        e = rng.exponential(1.0, (n, n_steps))
        return u, e
    if isinstance(gen, DistributionalDrift):
        return (rng.standard_normal((n, n_steps)),)
    z = rng.standard_normal((n, n_steps, d))
    if isinstance(gen, JumpDiffusion) and gen.levy.rate > 0:
        counts = rng.poisson(gen.levy.rate * dvs[None, :], (n, n_steps))
        return z, gen.levy.law.sample_sums(rng, counts)
    return (z,)


def evolve_paths(gen, times, dvs, starts: np.ndarray, rng: list) -> np.ndarray:
    """Evolve one path per row of ``starts`` (n, d) over ``times``; returns (n, n_times, d).

    The result is a view of step-major storage: each step's positions
    ``paths[:, k]`` are contiguous, and ``paths.transpose(1, 0, 2)`` is a
    C-contiguous (n_times, n, d) array.

    ``dvs`` are the clock increments over the steps of ``times`` (used by the
    jump intensity). ``rng`` is a list of Generators: the rows split into
    equal consecutive groups, one per Generator, and each group draws exactly
    what a one-Generator call on that group alone would. The random draw
    layout per (path, step) is fixed, so each row is a deterministic function
    of (its Generator's state, its index in its group).
    """
    times = np.asarray(times, dtype=float)
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    n, d = starts.shape
    if not rng or n % len(rng):
        raise InputError(f"{n} paths do not split into {len(rng)} equal groups")
    m = n // len(rng)
    n_steps = times.size - 1
    dts = np.diff(times)
    steps = np.empty((times.size, n, d))
    steps[0] = starts

    if isinstance(gen, Stable):
        # no step loop: each group's draws are transformed as they are drawn
        for g, r in enumerate(rng):
            rows = slice(g * m, (g + 1) * m)
            u, e = _draw(gen, r, m, dts, dvs, d)
            if n_steps:
                incr = (gen.scale * dts) ** (1.0 / gen.alpha) * _cms_standard(gen.alpha, u, e)
                steps[1:, rows, 0] = (starts[rows, 0:1] + np.cumsum(incr, axis=1)).T
    else:
        groups = [_draw(gen, r, m, dts, dvs, d) for r in rng]
        draws = groups[0] if len(groups) == 1 else [np.concatenate(a) for a in zip(*groups)]
        if isinstance(gen, DistributionalDrift):
            tr = gen.transform
            (z,) = draws
            y = np.asarray(tr.h(starts[:, 0]), dtype=float)
            s0 = tr.sigma0(y)
            for k in range(n_steps):
                y = y + s0 * np.sqrt(dts[k]) * z[:, k]
                steps[k + 1, :, 0], s0 = tr.h_inv_and_sigma0(y)
        else:
            z = draws[0]
            jumps = draws[1] if len(draws) > 1 else None
            cur = starts.copy()
            for k in range(n_steps):
                t_k = times[k]
                drift = _drift_array(gen.mu, t_k, cur, d)
                vol = _vol_matrix(gen.sigma, t_k, cur, d)
                step = drift * dts[k] + np.sqrt(dts[k]) * np.einsum("nij,nj->ni", vol, z[:, k, :])
                cur = cur + step
                if jumps is not None:
                    cur = cur + jumps[:, k, None]
                steps[k + 1] = cur

    if not np.all(np.isfinite(steps)):
        raise InternalError("simulation produced non-finite path values")
    return steps.transpose(1, 0, 2)


def simulate(
    gen,
    s: float,
    x,
    grid: SpaceTimeGrid,
    M: int,
    seed: int,
    clock: Optional[ClockV] = None,
) -> PathEnsemble:
    """Simulate M paths of the generator's process from (s, x) on grid times >= s.

    ``s`` must be a grid time (``SpaceTimeGrid.time_index``); ``clock``
    defaults to V(t) = t.  All paths draw from one Philox stream keyed by
    ``seed``, so path j depends only on (seed, j).
    """
    if M < 1:
        raise ConfigurationError("path count M must be >= 1")
    d = grid.dimension
    check_dimension(gen, d)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (d,) or not np.all(np.isfinite(x)):
        raise InputError(f"origin point must be finite with shape ({d},)")
    i0 = grid.time_index(s)

    times = grid.times[i0:]
    dvs = v_increments(grid, clock if clock is not None else ClockV())[i0:]
    starts = np.repeat(x[None, :], M, axis=0)
    return PathEnsemble(times, dvs, evolve_paths(gen, times, dvs, starts, [_rng(seed)]))
