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

from .core import ProblemSpec, SpaceTimeGrid, mean_and_stderr, v_increments
from .errors import ConfigurationError, InputError, NumericalError
from .mild import MildSolution, _interp_row
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

    def size(self, dimension: int) -> int:
        return sum(
            1
            for p in range(self.degree + 1)
            for _ in combinations_with_replacement(range(dimension), p)
        )


def _poly_design(x: np.ndarray, degree: int) -> np.ndarray:
    n, d = x.shape
    cols = []
    for p in range(degree + 1):
        for combo in combinations_with_replacement(range(d), p):
            col = np.ones(n)
            for k in combo:
                col = col * x[:, k]
            cols.append(col)
    return np.stack(cols, axis=1)


def regress(
    samples_x: np.ndarray, targets: np.ndarray, basis: RegressionBasis
) -> tuple[np.ndarray, float]:
    """Least squares of targets on the basis features of the (n, d) samples.

    Returns the fitted values at the samples and their residual RMS; the
    backward solver needs the conditional expectation only along its own
    paths, so no fit is kept for evaluation elsewhere.
    """
    x = np.asarray(samples_x, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.ndim != 2 or x.shape[0] != y.size:
        raise InputError("samples must be (n, d) with one target per sample")
    if basis.clip is not None:
        lo, hi = basis.clip
        x = np.clip(x, np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    if x.shape[0] < basis.size(x.shape[1]):
        raise NumericalError(
            f"{x.shape[0]} samples cannot identify {basis.size(x.shape[1])} basis functions"
        )

    # standardize coordinates per call: the same polynomial space, far better
    # conditioned when the sample spread is small or the range is wide
    center = x.mean(axis=0)
    spread = x.std(axis=0)
    spread[spread == 0] = 1.0
    design = _poly_design((x - center) / spread, basis.degree)
    if basis.ridge > 0:
        gram = design.T @ design + basis.ridge * np.eye(design.shape[1])
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


@dataclass
class BsdeSolution:
    """Backward solve output: y0 = Y_s and z0 = Z_s at the origin with their
    stderrs, the residual RMS of each step's Y regression, and g(X_T)."""

    y0: float
    z0: float
    y0_stderr: float
    z0_stderr: float
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
    inner_iterations: int = 50,
    inner_tolerance: float = 1e-12,
) -> BsdeSolution:
    """One forward ensemble from (s, x), then dynamic programming backward.

    Per step: C_i regresses Y_{i+1} on the basis at X_{t_i}; the bracket rate
    Z_i^2 regresses the squared innovation (Y_{i+1} - C_i)^2 divided by dV_i,
    clamped nonnegative; Y_i solves the implicit one-step equation
    Y = C_i + f(t_i, X, Y, Z_i) dV_i by damped fixed point (contraction is
    guaranteed by K_Y * dV_i < 1, enforced up front); a step still above
    ``inner_tolerance`` after ``inner_iterations`` keeps its last iterate, and
    one warning names the worst such step.  The degenerate initial
    step regresses on the single-point support, i.e. a plain sample mean,
    and records a regression residual of 0.0.  Only the current step's
    values along the paths are held; no per-step fit is stored.
    """
    max_dv = v_increments(grid, problem.clock).max()
    if problem.driver.K_Y * max_dv >= 1.0:
        raise ConfigurationError(
            f"K_Y * max dV = {problem.driver.K_Y * max_dv:.3g} >= 1: "
            "the implicit one-step solve needs a finer grid"
        )
    ens = simulate(gen, s, x, grid, M, seed, problem.clock)

    y = problem.g(ens.paths[:, -1, :])
    terminal = y.copy()
    driver_sums = np.zeros(M)
    rms = []
    z_prev = np.zeros(M)
    y0 = float(np.mean(y))
    z0 = 0.0
    z0_se = 0.0
    unconverged = []  # (last change, step) of inner solves that hit the cap

    for i in range(ens.dvs.size - 1, -1, -1):
        dv = float(ens.dvs[i])
        xs = ens.paths[:, i, :]
        t_i = ens.times[i]
        if i == 0:
            c_val = float(np.mean(y))
            cx = np.full(M, c_val)
            innov = (y - c_val) ** 2
            innov_mean, innov_se = mean_and_stderr(innov)
            z2 = max(float(innov_mean) / dv, 0.0) if dv > 0 else 0.0
            zx = np.full(M, np.sqrt(z2))
            if dv > 0 and z2 > 0:
                z0_se = float(innov_se / dv / (2.0 * np.sqrt(z2)))
            rms.append(0.0)
        else:
            try:
                cx, c_rms = regress(xs, y, basis)
            except NumericalError as err:
                raise NumericalError(f"regression failed at backward step {i}: {err}") from err
            rms.append(c_rms)
            innov = (y - cx) ** 2
            if dv > 0:
                z2x, _ = regress(xs, innov, basis)
                zx = np.sqrt(np.clip(z2x, 0.0, None) / dv)
            else:
                warnings.warn(f"dV = 0 at backward step {i}: carrying Z from the later step")
                zx = z_prev

        y_new = cx.copy()
        if dv > 0:
            change = np.inf
            for _ in range(inner_iterations):
                y_try = cx + problem.driver(t_i, xs, y_new, zx) * dv
                change = np.max(np.abs(y_try - y_new))
                y_new = y_try
                if change < inner_tolerance:
                    break
            else:
                unconverged.append((change, i))
            driver_sums += problem.driver(t_i, xs, y_new, zx) * dv
        y = y_new
        z_prev = zx
        if i == 0:
            y0 = float(y[0])
            z0 = float(zx[0])

    if unconverged:
        change, step = max(unconverged)
        warnings.warn(
            f"LSMC inner fixed point did not converge within {inner_iterations} iterations "
            f"at {len(unconverged)} backward steps; worst at backward step {step}: "
            f"last change {change:.3g} >= tolerance {inner_tolerance:.3g}"
        )
    rms.reverse()
    # pathwise noise proxy: the chain of regressions averages the per-path
    # functional g(X_T) + sum f dV, whose dispersion sets the sampling error
    _, y0_se = mean_and_stderr(terminal + driver_sums)
    return BsdeSolution(
        y0=y0,
        z0=z0,
        y0_stderr=float(y0_se),
        z0_stderr=z0_se,
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
    z0_stderr: float
    combined_stderr: float

    @property
    def u_gap(self) -> float:
        return abs(self.u_value - self.y0)

    @property
    def v_gap(self) -> float:
        return abs(self.v_value - self.z0)


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
    """Backward solves at each origin (seed ``seed + 7919 * idx``) against the mild
    fields; the CLI passes its fbsde phase's seed, so they repeat that phase bit for bit."""
    rows = []
    u_rows = mild.u.values.reshape(grid.n_times, -1)
    v_rows = mild.v.values.reshape(grid.n_times, -1)
    for idx, (s, x) in enumerate(origins):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        i_s = grid.time_index(s)
        sol = lsmc_solve(problem, gen, s, x_arr, grid, M, basis, seed + 7919 * idx)
        pt = x_arr[None, :]
        u_val = float(_interp_row(grid, u_rows[i_s], pt)[0])
        v_val = float(_interp_row(grid, v_rows[i_s], pt)[0])
        u_se = float(_interp_row(grid, mild.u_stderr[i_s], pt)[0])
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
                z0_stderr=sol.z0_stderr,
                combined_stderr=float(np.hypot(u_se, sol.y0_stderr)),
            )
        )
    return rows
