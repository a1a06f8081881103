"""Markov path simulators paired with their generator data.

Three generator families are supported:

* ``Diffusion``        dX = mu dV + sigma dW_V          (Euler-Maruyama),
                       plus, with a ``levy`` kernel, compound-Poisson jumps of
                       finite activity, jump count per step ~ Poisson(rate * dV)
* ``Stable``           symmetric alpha-stable, symbol c*|xi|^alpha, exact
                       increments via the Chambers-Mallows-Stuck transform
* ``DistributionalDrift``  1-d SDE whose drift is the distributional
                       derivative of a continuous b; simulated through the
                       harmonic transform h (h' = exp(-Sigma)) as the
                       driftless SDE dY = sigma0(Y) dW_V, mapped back via
                       h^-1 at every grid time.

Every family steps in the grid's clock increments dV (``SpaceTimeGrid.dvs``),
so a generator acts per unit of V, W_V has variance V(t), and a step with
dV = 0 leaves every path where it is.

The h-transform's tables are read as ``np.interp`` reads them, bit for bit,
through ``core.Abscissa`` (one bracket per point for every table on an
abscissa).

Path generation is deterministic given (seed, path index): each cache cell
(one origin time and node) draws from its own counter-based Philox stream with
a fixed (path, step) layout, so results are independent of scheduling and of
the worker count.  A cache block (one origin time, every node) is evolved by
one call per run of whole nodes (``semigroup.build_cache``), and each call
works in chunks of ``core._DRAW_ROWS`` rows: each cell's rows in a chunk
draw from the cell's own stream in row order, then the chunk steps over all
times.  A Philox stream drawn in row pieces gives the numbers of one draw,
so only one chunk's random numbers are held and the paths do not depend on
the chunk size.  ``Stable`` and jump draws stay whole per cell (or per
ensemble): their layout draws one kind of variate for all of a cell's rows
before the next, so there a chunk is whole cells, and the ``Stable``
transform maps a cell's draws a few rows at a time (``evolve_paths``).

Each generator's ``time_homogeneous`` says whether its path law is free of
t: always for ``Stable`` and ``DistributionalDrift``, and for ``Diffusion``
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

from .core import _BLOCK_POINTS, _DRAW_ROWS, Abscissa, SpaceTimeGrid, interp_slopes
from .errors import ConfigurationError, InputError, InternalError

_QUAD_NODES = 96

# ``build_h_transform`` warns when exp(Sigma)/sigma spreads by more than this
# factor over its table: the h-transform's two-sided bound is then strained.
H_RATIO_WARN = 1e4


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
    """dX = mu(t,X) dV + sigma(t,X) dW_V on R^d, plus, with a ``levy`` kernel,
    state-independent compound-Poisson jumps (1-d only)."""

    mu: Callable
    sigma: Callable
    dimension: int = 1
    levy: Optional[LevyKernel] = None

    def __post_init__(self):
        if self.levy is not None and self.dimension != 1:
            raise ConfigurationError("jump diffusion simulation is 1-d in this version")

    @property
    def jumps(self) -> bool:
        """True when the paths jump: a ``levy`` kernel with a positive rate."""
        return self.levy is not None and self.levy.rate > 0

    @property
    def time_homogeneous(self) -> bool:
        """True when neither coefficient reads t, so the path law does not;
        the jump kernel never does."""
        return not (_reads_t(self.mu) or _reads_t(self.sigma))

    def fingerprint(self) -> str:
        if self.levy is None:
            return _fingerprint(
                "diffusion", self.dimension, _fn_token(self.mu), _fn_token(self.sigma))
        return _fingerprint(
            "jump_diffusion", self.dimension, _fn_token(self.mu), _fn_token(self.sigma),
            self.levy.rate, self.levy.law.kind, self.levy.law.param, self.levy.law.atoms,
        )


@dataclass(frozen=True)
class Stable:
    """Symmetric alpha-stable process with symbol c*|xi|^alpha (d = 1)."""

    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ConfigurationError("alpha must lie in (0, 2]")
        if self.scale <= 0:
            raise ConfigurationError("scale must be positive")

    dimension = 1
    time_homogeneous = True

    def fingerprint(self) -> str:
        return _fingerprint("stable", self.alpha, self.scale)


@dataclass(frozen=True)
class HTransform:
    """Tables for Sigma, the harmonic map h (h' = exp(-Sigma)) and sigma0.

    Each abscissa is built once as a ``core.Abscissa`` with its tables
    stacked and their slopes: ``h_table`` for x (that is h^-1) and sigma0,
    ``x_table`` for h, sigma and Sigma'.  Every read finds each point's
    bracket once for all its tables and equals ``np.interp`` on each table bit
    for bit (clamped to the table, NaN staying NaN, up to the sign of a zero
    node value).  Sigma' is ``np.gradient`` of the Sigma table.
    """

    x_table: np.ndarray
    sigma_table: np.ndarray
    Sigma_table: np.ndarray
    h_table: np.ndarray
    sigma0_table: np.ndarray
    _on_x: tuple = field(init=False, compare=False, repr=False)
    _on_h: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        Sigma_prime = np.gradient(self.Sigma_table, self.x_table)
        for name, ax, tables in (
            ("_on_x", self.x_table, (self.h_table, self.sigma_table, Sigma_prime)),
            ("_on_h", self.h_table, (self.x_table, self.sigma0_table)),
        ):
            tables = np.stack(tables)
            object.__setattr__(self, name, (Abscissa(ax), tables, interp_slopes(ax, tables)))

    @staticmethod
    def _read(on: tuple, rows: slice, points) -> np.ndarray:
        abscissa, tables, slopes = on
        return abscissa.read(tables[rows], slopes[rows], points)

    def h(self, x):
        return self._read(self._on_x, slice(0, 1), x)[0]

    def sigma(self, x):
        return self._read(self._on_x, slice(1, 2), x)[0]

    def sigma_and_Sigma_prime(self, x):
        """``(sigma(x), Sigma'(x))`` from one bracket per point."""
        return self._read(self._on_x, slice(1, 3), x)

    def sigma0(self, y):
        return self._read(self._on_h, slice(1, 2), y)[0]

    def h_inv_and_sigma0(self, y):
        """``(h^-1(y), sigma0(y))`` from one bracket per point."""
        return self._read(self._on_h, slice(0, 2), y)


def build_h_transform(b_x, b_values, sigma_fn: Callable) -> HTransform:
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
    if spread > H_RATIO_WARN:
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
    """1-d SDE dX = b'(X) dV + sigma(X) dW_V with b' a distribution.

    ``b`` enters as a dense sample table (its derivative is never needed);
    the transform is built eagerly so any table defect fails fast.
    """

    b_x: np.ndarray
    b_values: np.ndarray
    sigma_fn: Callable
    transform: HTransform = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "transform", build_h_transform(self.b_x, self.b_values, self.sigma_fn)
        )

    dimension = 1
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


def _draw(gen, rng: np.random.Generator, n: int, dvs: np.ndarray, d: int) -> tuple:
    """The random numbers of the next ``n`` paths of one stream, in the fixed layout.

    Stable: uniform angles, then unit exponentials (n, n_steps); distributional
    drift: normals (n, n_steps); otherwise normals (n, n_steps, d), then, for
    jumps, Poisson counts (n, n_steps) and their jump sums.
    """
    n_steps = dvs.size
    if isinstance(gen, Stable):
        u = rng.uniform(-np.pi / 2, np.pi / 2, (n, n_steps))
        e = rng.exponential(1.0, (n, n_steps))
        return u, e
    if isinstance(gen, DistributionalDrift):
        return (rng.standard_normal((n, n_steps)),)
    z = rng.standard_normal((n, n_steps, d))
    if gen.jumps:
        counts = rng.poisson(gen.levy.rate * dvs[None, :], (n, n_steps))
        return z, gen.levy.law.sample_sums(rng, counts)
    return (z,)


def _draw_rows(gen, rng: list, m: int, a: int, b: int, dvs, d: int) -> tuple:
    """The draws of rows a..b-1, whose groups of ``m`` rows each draw from
    their own Generator in ``rng``, in row order."""
    parts = [_draw(gen, rng[g], min(b, (g + 1) * m) - max(a, g * m), dvs, d)
             for g in range(a // m, (b - 1) // m + 1)]
    return parts[0] if len(parts) == 1 else tuple(np.concatenate(x) for x in zip(*parts))


def _evolve_chunk(gen, times, dvs, draws, starts: np.ndarray, out: np.ndarray) -> None:
    """Step the rows ``starts`` (n, d) over ``times`` by ``dvs`` with their
    ``draws``, writing positions 1.. into ``out`` (n_times - 1, n, d)."""
    if isinstance(gen, Stable):
        u, e = draws
        if dvs.size:
            # the transform's temporaries are a few (rows, n_steps) arrays
            scale = (gen.scale * dvs) ** (1.0 / gen.alpha)
            rows = max(1, _BLOCK_POINTS // dvs.size)
            for a in range(0, starts.shape[0], rows):
                b = a + rows
                incr = scale * _cms_standard(gen.alpha, u[a:b], e[a:b])
                out[:, a:b, 0] = (starts[a:b, 0:1] + np.cumsum(incr, axis=1)).T
    elif isinstance(gen, DistributionalDrift):
        tr = gen.transform
        (z,) = draws
        y = np.asarray(tr.h(starts[:, 0]), dtype=float)
        s0 = tr.sigma0(y)
        for k in range(dvs.size):
            y = y + s0 * np.sqrt(dvs[k]) * z[:, k]
            out[k, :, 0], s0 = tr.h_inv_and_sigma0(y)
    else:
        z = draws[0]
        jumps = draws[1] if len(draws) > 1 else None
        cur = starts.copy()
        d = cur.shape[1]
        for k in range(dvs.size):
            t_k = times[k]
            drift = _drift_array(gen.mu, t_k, cur, d)
            vol = _vol_matrix(gen.sigma, t_k, cur, d)
            step = drift * dvs[k] + np.sqrt(dvs[k]) * np.einsum("nij,nj->ni", vol, z[:, k, :])
            cur = cur + step
            if jumps is not None:
                cur = cur + jumps[:, k, None]
            out[k] = cur


def evolve_paths(gen, times, dvs, starts: np.ndarray, rng: list) -> np.ndarray:
    """Evolve one path per row of ``starts`` (n, d) over ``times``; returns (n, n_times, d).

    The result is a view of step-major storage: each step's positions
    ``paths[:, k]`` are contiguous, and ``paths.transpose(1, 0, 2)`` is a
    C-contiguous (n_times, n, d) array.

    Every family steps in ``dvs``, the clock increments over the steps of
    ``times``. ``rng`` is a list of Generators: the rows split into equal
    consecutive groups, one per Generator, and each group draws exactly what
    a one-Generator call on that group alone would. The random draw layout
    per (path, step) is fixed, so each row is a deterministic function of
    (its Generator's state, its index in its group).

    The rows are drawn and stepped over all times one chunk at a time, so
    only one chunk's random numbers are held: a chunk is ``_DRAW_ROWS``
    (8,192) consecutive rows, each group drawing its rows in the chunk from
    its own Generator in row order, which gives the numbers of one
    whole-group draw.  At 40 steps a chunk's normals take 2.6 MB.
    Stable and jump (rate > 0) draws cannot be split by rows, since their
    layout draws one kind of variate for all of a group's rows before the
    next kind; there a chunk is whole groups: one for ``Stable``, which has
    no step loop to share, and for jumps as many as fit in ``_BLOCK_POINTS``
    rows (at least one).  A ``Stable`` group's draws are held whole, but the
    Chambers-Mallows-Stuck transform maps them to increments and positions
    ``max(1, _BLOCK_POINTS // n_steps)`` rows at a time, so its temporaries
    stay near ``_BLOCK_POINTS`` values; the paths do not depend on that
    row chunk either.
    """
    times = np.asarray(times, dtype=float)
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    n, d = starts.shape
    if not rng or n % len(rng):
        raise InputError(f"{n} paths do not split into {len(rng)} equal groups")
    m = n // len(rng)
    steps = np.empty((times.size, n, d))
    steps[0] = starts

    if isinstance(gen, Stable):
        size = m  # no step loop to share between groups
    elif isinstance(gen, Diffusion) and gen.jumps:
        size = max(1, _BLOCK_POINTS // m) * m
    else:
        size = _DRAW_ROWS
    for a in range(0, n, size):
        b = min(a + size, n)
        chunk = steps[1:, a:b]
        # the draws are bound to no name here, so they are freed before the next chunk's
        _evolve_chunk(gen, times, dvs, _draw_rows(gen, rng, m, a, b, dvs, d), starts[a:b], chunk)
        if not np.all(np.isfinite(chunk)):
            raise InternalError("simulation produced non-finite path values")
    return steps.transpose(1, 0, 2)


def simulate(
    gen,
    s: float,
    x,
    grid: SpaceTimeGrid,
    M: int,
    seed: int,
) -> PathEnsemble:
    """Simulate M paths of the generator's process from (s, x) on grid times >= s.

    ``s`` must be a grid time (``SpaceTimeGrid.time_index``).  All paths draw
    from one Philox stream keyed by ``seed``, so path j depends only on
    (seed, j).
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
    dvs = grid.dvs[i0:]
    starts = np.repeat(x[None, :], M, axis=0)
    return PathEnsemble(times, dvs, evolve_paths(gen, times, dvs, starts, [_rng(seed)]))
