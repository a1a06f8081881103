"""Backward least-squares Monte Carlo for the terminal-value equation

    Y = g(X_T) + int_.^T f(r, X_r, Y_r, Z_r) dV_r - (M_T - M_.),

an independent route to u(s,x) = Y_s used to cross-check the fixed-point
solver.  Z is estimated as the square root of the conditional variance rate
of one-step innovations (the dV-density of the martingale bracket); there is
no driving noise to project on, so no integrand-regression alternative
exists here.

Conditional expectations are polynomial least-squares regressions evaluated
only at the simulated paths that produced them (the in-sample estimator of
Longstaff & Schwartz and of Gobet, Lemor & Warin); the solver keeps each
step's values and residual RMS, not the fitted function.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Optional

import numpy as np

from . import core
from .core import ProblemSpec, SpaceTimeGrid, mean_and_stderr
from .errors import ConfigurationError, InputError, NumericalError
from .mild import MildSolution
from .processes import simulate


@dataclass(frozen=True)
class RegressionBasis:
    """Conditional-expectation basis: global polynomials of total degree
    ``degree`` in the regressor coordinates.

    ``clip`` optionally confines the regressor coordinates to a box before
    building features; heavy-tailed positions otherwise dominate polynomial
    fits.  ``ridge`` regularizes the normal equations.
    """

    degree: int = 3
    ridge: float = 0.0
    clip: Optional[tuple] = None

    def __post_init__(self):
        if self.degree < 0:
            raise ConfigurationError("polynomial degree must be >= 0")
        if self.ridge < 0:
            raise ConfigurationError("ridge must be nonnegative")


def _poly_design(x: np.ndarray, degree: int) -> np.ndarray:
    """Monomials of total degree <= ``degree`` in the columns of ``x`` (n, d),
    as one C-order (n, p) array: each column is the column of its monomial's
    prefix (one factor fewer) times one coordinate."""
    n, d = x.shape
    combos = [c for p in range(degree + 1) for c in combinations_with_replacement(range(d), p)]
    column = {c: j for j, c in enumerate(combos)}
    design = np.empty((n, len(combos)))
    design[:, 0] = 1.0
    for j, c in enumerate(combos[1:], start=1):
        np.multiply(design[:, column[c[:-1]]], x[:, c[-1]], out=design[:, j])
    return design


def regression_design(samples_x: np.ndarray, basis: RegressionBasis) -> np.ndarray:
    """Basis features of the (n, d) samples, one row per sample.

    The coordinates are clipped to ``basis.clip`` and standardized per call:
    the same polynomial space, far better conditioned when the sample spread
    is small or the range is wide.  One design serves every fit on the same
    samples.
    """
    x = np.asarray(samples_x, dtype=float)
    if x.ndim != 2:
        raise InputError("samples must be (n, d)")
    if basis.clip is not None:
        lo, hi = basis.clip
        x = np.clip(x, np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    center = x.mean(axis=0)
    spread = x.std(axis=0)
    spread[spread == 0] = 1.0
    return _poly_design((x - center) / spread, basis.degree)


def _ridge_gram(design: np.ndarray, ridge: float) -> Optional[np.ndarray]:
    """The ridge-regularised Gram matrix of ``design``, which every fit on
    that design can share (``regress``); None when ``ridge`` is 0, where each
    fit solves the least-squares problem itself."""
    if ridge > 0:
        return design.T @ design + ridge * np.eye(design.shape[1])
    return None


def regress(
    design: np.ndarray, targets: np.ndarray, ridge: float, gram: Optional[np.ndarray] = None
) -> tuple[np.ndarray, float]:
    """Least squares of targets on the columns of ``design`` (see
    ``regression_design``), with ``ridge`` regularizing the normal equations.

    With ``ridge`` > 0 the fit solves the normal equations on ``gram``, the
    design's ``_ridge_gram``, formed here when it is not passed, so several
    targets on one design share one Gram matrix.  With ``ridge`` = 0 it
    solves by SVD and raises ``NumericalError`` on a rank-deficient design.

    Returns the fitted values at the samples and their residual RMS; the
    backward solver needs the conditional expectation only along its own
    paths, so no fit is kept for evaluation elsewhere.
    """
    y = np.asarray(targets, dtype=float)
    if design.shape[0] != y.size:
        raise InputError("regression needs one target per sample")
    if design.shape[0] < design.shape[1]:
        raise NumericalError(
            f"{design.shape[0]} samples cannot identify {design.shape[1]} basis functions"
        )
    if ridge > 0:
        if gram is None:
            gram = _ridge_gram(design, ridge)
        beta = np.linalg.solve(gram, design.T @ y)
    else:
        beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        if rank < design.shape[1]:
            raise NumericalError(
                f"design matrix rank {rank} < {design.shape[1]}: "
                "regression is under-determined; add a ridge term"
            )
    fitted = design @ beta
    return fitted, float(np.sqrt(np.mean((y - fitted) ** 2)))


def _step_fits(xs: np.ndarray, y: np.ndarray, basis: RegressionBasis, dv: float, z_prev):
    """C_i, its residual RMS and Z_i along the paths at one backward step
    i > 0, from one design and one Gram matrix (see ``lsmc_solve``).

    The design, its Gram matrix and the squared innovations are local here,
    so they are freed before the next step builds its design.
    """
    design = regression_design(xs, basis)
    gram = _ridge_gram(design, basis.ridge)
    cx, c_rms = regress(design, y, basis.ridge, gram)
    if dv > 0:
        z2x, _ = regress(design, (y - cx) ** 2, basis.ridge, gram)
        return cx, c_rms, np.sqrt(np.clip(z2x, 0.0, None) / dv)
    return cx, c_rms, z_prev


@dataclass
class BsdeSolution:
    """Backward solve output: y0 = Y_s and z0 = Z_s at the origin, y0's
    stderr, the residual RMS of each step's Y regression, and g(X_T)."""

    y0: float
    z0: float
    y0_stderr: float
    regression_residuals: list
    terminal_values: np.ndarray


def lsmc_solve(
    problem: ProblemSpec,
    gen,
    s: float,
    x,
    grid: SpaceTimeGrid,
    M: int,
    basis: RegressionBasis,
    seed: int,
) -> BsdeSolution:
    """One forward ensemble from (s, x), then dynamic programming backward.

    Per step: C_i regresses Y_{i+1} on the basis at X_{t_i}; the bracket rate
    Z_i^2 regresses the squared innovation (Y_{i+1} - C_i)^2 on the same
    design, divided by dV_i and clamped nonnegative; Y_i solves the implicit
    one-step equation Y = C_i + f(t_i, X, Y, Z_i) dV_i by fixed point through
    ``core.ImplicitSteps`` (K_Y * dV_i < 1 is enforced up front); a step
    that does not converge within its iteration cap keeps its last iterate,
    and one warning names the worst such step; a step whose Y turns
    non-finite raises ``NumericalError`` naming it.  A step whose positions
    all coincide (the initial step, and any step that a clock flat from s
    leaves at x) regresses on the single-point support, i.e. a plain sample
    mean, and records a regression residual of 0.0.  On a flat step (dV_i = 0),
    the initial one included, Y_i = C_i and Z follows the flat-step rule of
    the README's clock paragraph, as ``mild``'s v does; one warning names them.

    Each step i > 0 builds one design and, with a ridge, one Gram matrix,
    which both fits share (``_step_fits``).  Beside the ensemble only the
    current step's values along the paths are held: the design, Gram matrix
    and squared innovations of a step are freed before the next step builds
    its own, and no per-step fit is stored.
    """
    steps = core.ImplicitSteps(problem.driver, grid.dvs)
    ens = simulate(gen, s, x, grid, M, seed)

    y = problem.g(ens.paths[:, -1, :])
    terminal = y.copy()
    driver_sums = np.zeros(M)
    rms = []
    z_prev = np.zeros(M)  # a flat last step carries Z = 0
    y0 = float(np.mean(y))
    z0 = 0.0
    if np.any(flat := ens.dvs == 0.0):
        warnings.warn(f"dV = 0 at backward steps {np.flatnonzero(flat).tolist()}: Z carried")

    for i in range(ens.dvs.size - 1, -1, -1):
        dv = float(ens.dvs[i])
        xs = ens.paths[:, i, :]
        t_i = ens.times[i]
        if np.all(xs == xs[0]):
            c_val = float(np.mean(y))
            cx = np.full(M, c_val)
            zx = np.full(M, np.sqrt(float(np.mean((y - c_val) ** 2)) / dv)) if dv > 0 else z_prev
            rms.append(0.0)
        else:
            try:
                cx, c_rms, zx = _step_fits(xs, y, basis, dv, z_prev)
            except NumericalError as err:
                raise NumericalError(f"regression failed at backward step {i}: {err}") from err
            rms.append(c_rms)

        if dv > 0:
            y = steps.solve(i, t_i, xs, cx, zx, dv)
            if not np.all(np.isfinite(y)):
                raise NumericalError(f"Y turned non-finite at backward step {i}")
            driver_sums += problem.driver(t_i, xs, y, zx) * dv
        else:
            y = cx
        z_prev = zx
        if i == 0:
            y0 = float(y[0])
            z0 = float(zx[0])

    steps.warn("LSMC inner fixed point", "backward step")
    rms.reverse()
    # pathwise noise proxy: the chain of regressions averages the per-path
    # functional g(X_T) + sum f dV, whose dispersion sets the sampling error
    _, y0_se = mean_and_stderr(terminal + driver_sums)
    return BsdeSolution(
        y0=y0,
        z0=z0,
        y0_stderr=float(y0_se),
        regression_residuals=rms,
        terminal_values=terminal,
    )


@dataclass
class CrosscheckRow:
    s: float
    x: np.ndarray
    u_value: float
    u_stderr: float
    y0: float
    y0_stderr: float
    v_value: float
    z0: float
    combined_stderr: float

    @property
    def u_gap(self) -> float:
        return abs(self.u_value - self.y0)

    @property
    def v_gap(self) -> float:
        return abs(self.v_value - self.z0)


def lsmc_seed(seed: int, idx: int) -> int:
    """Seed of the backward solve at origin ``idx`` of a run seeded ``seed``."""
    return seed + 104729 + 7919 * idx


def crosscheck(
    mild: MildSolution,
    problem: ProblemSpec,
    gen,
    grid: SpaceTimeGrid,
    origins,
    M: int,
    basis: RegressionBasis,
    seed: int,
) -> list[CrosscheckRow]:
    """Backward solves at each origin against the mild fields, on the seeds
    ``lsmc_seed`` gives the CLI's fbsde phase, which they repeat bit for bit."""
    rows = []
    for idx, (s, x) in enumerate(origins):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        i_s = grid.time_index(s)
        sol = lsmc_solve(problem, gen, s, x_arr, grid, M, basis, lsmc_seed(seed, idx))
        tables = np.stack((mild.u[i_s], mild.v[i_s], mild.u_stderr[i_s]))
        at_x = core.bracket(grid.axes, x_arr[None, :])
        u_val, v_val, u_se = map(float, core._multilinear(grid.axes, tables, at_x)[:, 0])
        rows.append(
            CrosscheckRow(
                s=float(s),
                x=x_arr,
                u_value=u_val,
                u_stderr=u_se,
                y0=sol.y0,
                y0_stderr=sol.y0_stderr,
                v_value=v_val,
                z0=sol.z0,
                combined_stderr=float(np.hypot(u_se, sol.y0_stderr)),
            )
        )
    return rows
