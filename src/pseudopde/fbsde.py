"""Backward least-squares Monte Carlo for the terminal-value equation

    Y = g(X_T) + int_.^T f(r, X_r, Y_r, Z_r) dV_r - (M_T - M_.),

an independent route to u(s,x) = Y_s used to cross-check the fixed-point
solver.  Z is estimated as the square root of the conditional variance rate
of one-step innovations (the dV-density of the martingale bracket); there is
no driving noise to project on, so no integrand-regression alternative
exists here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Callable, Optional

import numpy as np

from .core import ProblemSpec, ScalarField, SpaceTimeGrid, v_increments
from .errors import ConfigurationError, InputError, NumericalError, UnsupportedFeatureError
from .mild import MildSolution, _interp_row
from .processes import simulate


@dataclass(frozen=True)
class RegressionBasis:
    """Conditional-expectation basis: global polynomials of total degree
    ``degree`` or a piecewise-constant partition of ``bins`` equal-width bins.

    ``clip`` optionally confines the regressor coordinates to a box before
    building features; heavy-tailed positions otherwise dominate polynomial
    fits.  ``ridge`` regularizes the normal equations.
    """

    kind: str = "polynomial"
    degree: int = 3
    bins: int = 20
    ridge: float = 0.0
    clip: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in ("polynomial", "piecewise"):
            raise ConfigurationError(f"unknown basis kind {self.kind!r}")
        if self.kind == "polynomial" and self.degree < 0:
            raise ConfigurationError("polynomial degree must be >= 0")
        if self.kind == "piecewise" and self.bins < 1:
            raise ConfigurationError("bin count must be >= 1")
        if self.ridge < 0:
            raise ConfigurationError("ridge must be nonnegative")

    def size(self, dimension: int) -> int:
        if self.kind == "piecewise":
            return self.bins
        return sum(
            1
            for p in range(self.degree + 1)
            for _ in combinations_with_replacement(range(dimension), p)
        )


@dataclass
class RegressionFit:
    coefficients: np.ndarray
    fitted: Callable
    residual_rms: float
    in_sample: np.ndarray = field(repr=False, default=None)


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


def regress(samples_x: np.ndarray, targets: np.ndarray, basis: RegressionBasis) -> RegressionFit:
    """Least squares of targets on the basis features of samples_x."""
    x = np.atleast_2d(np.asarray(samples_x, dtype=float))
    if x.ndim == 2 and x.shape[0] == 1 and np.asarray(targets).size > 1:
        x = x.T
    y = np.asarray(targets, dtype=float)
    if x.shape[0] != y.size:
        raise InputError("sample and target counts differ")
    if basis.clip is not None:
        lo, hi = basis.clip
        x = np.clip(x, np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    if x.shape[0] < basis.size(x.shape[1]):
        raise NumericalError(
            f"{x.shape[0]} samples cannot identify {basis.size(x.shape[1])} basis functions"
        )

    if basis.kind == "piecewise":
        if x.shape[1] != 1:
            raise UnsupportedFeatureError("piecewise-constant basis is 1-d in this version")
        lo = x[:, 0].min()
        hi = x[:, 0].max()
        if basis.clip is not None:
            lo, hi = float(np.asarray(basis.clip[0]).ravel()[0]), float(np.asarray(basis.clip[1]).ravel()[0])
        edges = np.linspace(lo, hi, basis.bins + 1)
        which = np.clip(np.searchsorted(edges, x[:, 0], side="right") - 1, 0, basis.bins - 1)
        overall = float(np.mean(y))
        sums = np.bincount(which, weights=y, minlength=basis.bins)
        counts = np.bincount(which, minlength=basis.bins)
        values = np.where(counts > 0, sums / np.maximum(counts, 1), overall)

        def fitted(q):
            q = np.atleast_2d(np.asarray(q, dtype=float))
            w = np.clip(np.searchsorted(edges, q[:, 0], side="right") - 1, 0, basis.bins - 1)
            return values[w]

        in_sample = values[which]
        rms = float(np.sqrt(np.mean((y - in_sample) ** 2)))
        return RegressionFit(coefficients=values, fitted=fitted, residual_rms=rms, in_sample=in_sample)

    # standardize coordinates per call: the same polynomial space, far better
    # conditioned when the sample spread is small or the range is wide
    center = x.mean(axis=0)
    spread = x.std(axis=0)
    spread[spread == 0] = 1.0
    xs = (x - center) / spread
    design = _poly_design(xs, basis.degree)
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
    clip = basis.clip

    def fitted(q, beta=beta, degree=basis.degree):
        q = np.atleast_2d(np.asarray(q, dtype=float))
        if clip is not None:
            q = np.clip(q, np.asarray(clip[0], dtype=float), np.asarray(clip[1], dtype=float))
        return _poly_design((q - center) / spread, degree) @ beta

    in_sample = design @ beta
    rms = float(np.sqrt(np.mean((y - in_sample) ** 2)))
    return RegressionFit(coefficients=beta, fitted=fitted, residual_rms=rms, in_sample=in_sample)


@dataclass
class BsdeSolution:
    """Backward solve output: y0 = Y_s at the origin plus per-step fits."""

    y0: float
    z0: float
    y0_stderr: float
    z0_stderr: float
    y_fits: list
    z_fits: list
    regression_residuals: list
    terminal_values: np.ndarray
    seed: int


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
    step regresses on the single-point support, i.e. a plain sample mean.
    """
    dvs_all = v_increments(grid, problem.clock)
    if problem.driver.K_Y * dvs_all.max() >= 1.0:
        raise ConfigurationError(
            f"K_Y * max dV = {problem.driver.K_Y * dvs_all.max():.3g} >= 1: "
            "the implicit one-step solve needs a finer grid"
        )
    ens = simulate(gen, s, x, grid, M, seed, problem.clock)
    i0 = grid.n_times - ens.n_times
    dvs = dvs_all[i0:]
    n_t = ens.n_times

    y = problem.g(ens.paths[:, -1, :])
    terminal = y.copy()
    driver_sums = np.zeros(M)
    y_fits, z_fits, rms = [], [], []
    z_prev = np.zeros(M)
    y0 = float(np.mean(y))
    z0 = 0.0
    y0_se = float(np.std(y, ddof=1) / np.sqrt(M)) if M > 1 else 0.0
    z0_se = 0.0
    unconverged = []  # (last change, step) of inner solves that hit the cap

    for i in range(n_t - 2, -1, -1):
        dv = float(dvs[i])
        xs = ens.paths[:, i, :]
        t_i = ens.times[i]
        if i == 0:
            c_val = float(np.mean(y))
            cx = np.full(M, c_val)
            innov = (y - c_val) ** 2
            z2 = max(float(np.mean(innov)) / dv, 0.0) if dv > 0 else 0.0
            zx = np.full(M, np.sqrt(z2))
            if dv > 0 and M > 1 and z2 > 0:
                z0_se = float(np.std(innov, ddof=1) / np.sqrt(M) / dv / (2.0 * np.sqrt(z2)))
            fit_c = RegressionFit(np.array([c_val]), lambda q, c=c_val: np.full(len(np.atleast_2d(q)), c), 0.0)
            fit_z = RegressionFit(np.array([z2]), lambda q, c=z2: np.full(len(np.atleast_2d(q)), c), 0.0)
        else:
            try:
                fit_c = regress(xs, y, basis)
            except NumericalError as err:
                raise NumericalError(f"regression failed at backward step {i}: {err}") from err
            cx = fit_c.in_sample
            innov = (y - cx) ** 2
            if dv > 0:
                fit_z = regress(xs, innov, basis)
                zx = np.sqrt(np.clip(fit_z.in_sample, 0.0, None) / dv)
            else:
                warnings.warn(f"dV = 0 at backward step {i}: carrying Z from the later step")
                fit_z = RegressionFit(np.array([]), lambda q: np.zeros(len(np.atleast_2d(q))), 0.0)
                zx = z_prev
        y_fits.append(fit_c)
        z_fits.append(fit_z)
        rms.append(fit_c.residual_rms)

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
    y_fits.reverse()
    z_fits.reverse()
    rms.reverse()
    # pathwise noise proxy: the chain of regressions averages the per-path
    # functional g(X_T) + sum f dV, whose dispersion sets the sampling error
    pathwise = terminal + driver_sums
    if M > 1:
        y0_se = float(np.std(pathwise, ddof=1) / np.sqrt(M))
    return BsdeSolution(
        y0=y0,
        z0=z0,
        y0_stderr=y0_se,
        z0_stderr=z0_se,
        y_fits=y_fits,
        z_fits=z_fits,
        regression_residuals=rms,
        terminal_values=terminal,
        seed=int(seed),
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
    """Independent-seed backward solves at each origin against the mild fields."""
    rows = []
    u_rows = mild.u.values.reshape(grid.n_times, -1)
    v_rows = mild.v.values.reshape(grid.n_times, -1)
    for idx, (s, x) in enumerate(origins):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        i_s = int(np.argmin(np.abs(grid.times - s)))
        if not np.isclose(grid.times[i_s], s, rtol=0, atol=1e-9):
            raise InputError(f"crosscheck origin time {s} is not a grid time")
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
