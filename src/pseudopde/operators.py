"""Generator actions and the martingale-problem test of the ``operators`` phase.

``generator_action`` maps a ``SmoothTestFunction`` phi to a(phi) = d_t phi +
L phi (for the stable family, L is ``SpectralFractional``); ``martingale_test``
checks it on one path ensemble against the built-in test functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, InputError, UnsupportedFeatureError
from .processes import (
    Diffusion,
    DistributionalDrift,
    PathEnsemble,
    Stable,
    _drift_array,
    _vol_matrix,
)


@dataclass
class SmoothTestFunction:
    """Scalar function of (t, x) with closed-form partials.

    ``value(t, x)``, ``dt``, ``grad`` and ``hess`` are vectorized over points x
    of shape (n, d) and return shapes (n,), (n,), (n, d) and (n, d, d).
    """

    value: Callable
    dt: Callable
    grad: Callable
    hess: Callable

    def __call__(self, t, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.broadcast_to(np.asarray(self.value(t, x), dtype=float), (x.shape[0],)).copy()

    def dt_at(self, t, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.broadcast_to(np.asarray(self.dt(t, x), dtype=float), (x.shape[0],)).copy()

    def grad_at(self, t, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.asarray(self.grad(t, x), dtype=float).reshape(x.shape[0], x.shape[1])

    def hess_at(self, t, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.asarray(self.hess(t, x), dtype=float).reshape(x.shape[0], x.shape[1], x.shape[1])


class SpectralFractional:
    """(-Delta)^{alpha/2} via the Fourier multiplier |xi|^alpha on a
    periodized grid of ``N`` points over [-``HALF_WIDTH``, ``HALF_WIDTH``):
    the stable generator's action in ``generator_action``."""

    HALF_WIDTH = 80.0
    N = 1 << 14

    def __init__(self, alpha: float, scale: float = 1.0):
        if not 0.0 < alpha < 2.0:
            raise InputError("alpha must lie in (0, 2)")
        self.alpha = alpha
        self.scale = scale
        self.grid = np.linspace(-self.HALF_WIDTH, self.HALF_WIDTH, self.N, endpoint=False)
        dx = self.grid[1] - self.grid[0]
        self.multiplier = np.abs(2 * np.pi * np.fft.fftfreq(self.N, dx)) ** alpha

    def frac_laplacian(self, phi: Callable, t: float, xs: np.ndarray) -> np.ndarray:
        """scale * (-Delta)^{alpha/2} phi(t, .), from its grid samples, at the points ``xs``."""
        vals = np.asarray(phi(t, self.grid[:, None]), dtype=float)
        out = self.scale * np.real(np.fft.ifft(self.multiplier * np.fft.fft(vals)))
        return np.interp(np.asarray(xs, dtype=float).reshape(-1), self.grid, out)


def generator_action(gen) -> Callable:
    """Map a SmoothTestFunction to its generator action a(phi)(t, x).

    a(phi) = d_t phi + L phi: the spatial generator L acts per unit of the
    clock V, and d_t phi per unit t (``martingale_test``).  Jump parts use
    the uncompensated finite-activity form rate * E[phi(. + Y) - phi].
    """
    if isinstance(gen, Stable):
        spectral = SpectralFractional(gen.alpha, gen.scale)

        def a_stable(phi: SmoothTestFunction) -> Callable:
            def act(t, x):
                x = np.atleast_2d(np.asarray(x, dtype=float))
                return phi.dt_at(t, x) - spectral.frac_laplacian(phi, t, x[:, 0])
            return act

        return a_stable

    if isinstance(gen, Diffusion):
        def a_local(phi: SmoothTestFunction) -> Callable:
            def act(t, x):
                x = np.atleast_2d(np.asarray(x, dtype=float))
                d = x.shape[1]
                mu = _drift_array(gen.mu, t, x, d)
                sig = _vol_matrix(gen.sigma, t, x, d)
                a_mat = np.einsum("nik,njk->nij", sig, sig)
                out = (
                    phi.dt_at(t, x)
                    + np.einsum("nk,nk->n", mu, phi.grad_at(t, x))
                    + 0.5 * np.einsum("nij,nij->n", a_mat, phi.hess_at(t, x))
                )
                if gen.jumps:
                    ys, ws = gen.levy.law.quadrature()
                    base = phi(t, x)
                    acc = np.zeros(x.shape[0])
                    for y, w in zip(ys, ws):
                        acc += w * (phi(t, x + y) - base)
                    out = out + gen.levy.rate * acc
                return out
            return act

        return a_local

    if isinstance(gen, DistributionalDrift):
        tr = gen.transform

        def a_distri(phi: SmoothTestFunction) -> Callable:
            def act(t, x):
                x = np.atleast_2d(np.asarray(x, dtype=float))
                sig, sp = tr.sigma_and_Sigma_prime(x[:, 0])
                gp = phi.grad_at(t, x)[:, 0]
                hp = phi.hess_at(t, x)[:, 0, 0]
                return phi.dt_at(t, x) + 0.5 * sig**2 * (hp + sp * gp)
            return act

        return a_distri

    raise ConfigurationError(f"no generator action for {type(gen).__name__}")



@dataclass
class MartingaleTestResult:
    z_scores: np.ndarray       # (n_steps, n_coefficients)
    max_abs_z: float


def _bounded_basis(x: np.ndarray) -> np.ndarray:
    """Regression design [1, tanh(x_k/2), tanh(x_k/2)^2]: degree-2 in a bounded
    coordinate map, so heavy-tailed positions cannot dominate the fit.

    Column-major, like a subset ``design[:, keep]`` of its columns, so every
    design the regression solves on has one layout and goes through the
    same BLAS kernels."""
    n, d = x.shape
    design = np.empty((n, 1 + 2 * d), order="F")
    design[:, 0] = 1.0
    np.tanh(x / 2.0, out=design[:, 1 : 1 + d])
    np.square(design[:, 1 : 1 + d], out=design[:, 1 + d :])
    return design


def _robust_z(design: np.ndarray, incr: np.ndarray, out: np.ndarray) -> None:
    """Write into ``out`` the z-scores of the least-squares coefficients of
    ``incr`` on the columns of ``design`` that carry information, and 0 for
    the others.

    The coefficients are beta = (X^T X)^-1 X^T y, from the inverse that the
    White (1980) heteroskedasticity-robust covariance
    (X^T X)^-1 X^T diag(r^2) X (X^T X)^-1 needs anyway.  When only the
    intercept is kept, beta is the mean and its variance sum(r^2) / n^2,
    both summed by numpy: the same (1 x n) products through BLAS change
    their last bits with its thread count.
    """
    # columns with no sample spread (e.g. the deterministic start point)
    # carry no information beyond the intercept; a 1-d reduction per
    # column is several times faster than a reduction over axis 0
    spread = np.array([col.std() for col in design.T[1:]])
    keep = np.concatenate([[True], spread > 1e-10 * (1.0 + np.abs(design[0, 1:]))])
    if not keep[1:].any():
        n = incr.size
        beta = np.sum(incr) / n
        var = np.sum((incr - beta) ** 2) / n**2
        out[0] = beta / np.sqrt(max(var, 1e-300))
        return
    sub = design if keep.all() else design[:, keep]
    xtx_inv = np.linalg.inv(sub.T @ sub)
    beta = xtx_inv @ (sub.T @ incr)
    resid = incr - sub @ beta
    cov = xtx_inv @ (sub.T @ (sub * (resid**2)[:, None])) @ xtx_inv
    out[keep] = beta / np.sqrt(np.clip(np.diag(cov), 1e-300, None))


def martingale_test(
    ens: PathEnsemble, phi: SmoothTestFunction, a_phi: Callable
) -> MartingaleTestResult:
    """Test that phi(t, X_t) - int a(phi)(r, X_r) dV_r, its d_t phi part taken
    against dt, has centered increments: a step subtracts a(phi) dV and
    d_t phi (dt - dV), exactly 0 under V(t) = t.

    ``ens`` is one sample of P^{s,x}; every test function can be run on the
    same ensemble, since the martingale property holds for each of them.
    Per step, the compensated increment is regressed on bounded basis
    functions of X_{t_i}; all coefficient z-scores (heteroskedasticity-robust,
    ``_robust_z``) should be near zero when a_phi is the true generator
    action.  phi is read once per grid time.  Beside the ensemble one step's
    work is held: its design, residuals and increment are freed before the
    next step's increment is formed.  An intercept-only step (every path at
    one point) uses no BLAS reduction, whose last bits vary with the thread
    count (``_robust_z``).
    """
    paths = ens.paths
    z = np.zeros((ens.dvs.size, 1 + 2 * paths.shape[2]))
    phi_now = phi(ens.times[0], paths[:, 0, :])
    for j, dv in enumerate(ens.dvs):
        xs = paths[:, j, :]
        t_j = ens.times[j]
        phi_next = phi(ens.times[j + 1], paths[:, j + 1, :])
        incr = phi_next - phi_now - np.asarray(a_phi(t_j, xs), dtype=float) * dv
        lag = ens.times[j + 1] - t_j - dv
        if lag:
            incr -= phi.dt_at(t_j, xs) * lag
        phi_now = phi_next
        _robust_z(_bounded_basis(xs), incr, z[j])
        del incr
    return MartingaleTestResult(z_scores=z, max_abs_z=float(np.max(np.abs(z))))


def _stf(f, ft, fx, fxx) -> SmoothTestFunction:
    """1-d test function from scalar callables ``(t, v)`` of its value and partials."""
    return SmoothTestFunction(
        value=lambda t, x: f(t, x[:, 0]),
        dt=lambda t, x: ft(t, x[:, 0]),
        grad=lambda t, x: fx(t, x[:, 0])[:, None],
        hess=lambda t, x: fxx(t, x[:, 0])[:, None, None],
    )


def _gaussian() -> SmoothTestFunction:
    """exp(-v^2), shared by both built-in test sets."""
    return _stf(
        lambda t, v: np.exp(-(v**2)),
        lambda t, v: np.zeros_like(v),
        lambda t, v: -2.0 * v * np.exp(-(v**2)),
        lambda t, v: (4.0 * v**2 - 2.0) * np.exp(-(v**2)),
    )


def _lorentzian() -> SmoothTestFunction:
    """1 / (1 + v^2), shared by both built-in test sets."""
    return _stf(
        lambda t, v: 1.0 / (1.0 + v**2),
        lambda t, v: np.zeros_like(v),
        lambda t, v: -2.0 * v / (1.0 + v**2) ** 2,
        lambda t, v: (6.0 * v**2 - 2.0) / (1.0 + v**2) ** 3,
    )


def bounded_test_functions(dimension: int = 1) -> list[SmoothTestFunction]:
    """Five bounded smooth test functions with closed-form partials (d = 1)."""
    if dimension != 1:
        raise UnsupportedFeatureError("the built-in test set is 1-d")

    sech2 = lambda v: 1.0 / np.cosh(v) ** 2
    return [
        _stf(
            lambda t, v: np.tanh(v),
            lambda t, v: np.zeros_like(v),
            lambda t, v: sech2(v),
            lambda t, v: -2.0 * np.tanh(v) * sech2(v),
        ),
        _gaussian(),
        _stf(
            lambda t, v: np.sin(v) * np.exp(-0.3 * t),
            lambda t, v: -0.3 * np.sin(v) * np.exp(-0.3 * t),
            lambda t, v: np.cos(v) * np.exp(-0.3 * t),
            lambda t, v: -np.sin(v) * np.exp(-0.3 * t),
        ),
        _lorentzian(),
        _stf(
            lambda t, v: np.cos(2.0 * v) * (1.0 + 0.5 * t),
            lambda t, v: 0.5 * np.cos(2.0 * v),
            lambda t, v: -2.0 * np.sin(2.0 * v) * (1.0 + 0.5 * t),
            lambda t, v: -4.0 * np.cos(2.0 * v) * (1.0 + 0.5 * t),
        ),
    ]


def decaying_test_functions(dimension: int = 1) -> list[SmoothTestFunction]:
    """Five smooth test functions vanishing at infinity, the natural domain
    for non-local pseudo-differential generators (and safe to periodize in
    the spectral oracle)."""
    if dimension != 1:
        raise UnsupportedFeatureError("the built-in test set is 1-d")

    return [
        _gaussian(),
        _stf(
            lambda t, v: v * np.exp(-(v**2) / 2.0),
            lambda t, v: np.zeros_like(v),
            lambda t, v: (1.0 - v**2) * np.exp(-(v**2) / 2.0),
            lambda t, v: v * (v**2 - 3.0) * np.exp(-(v**2) / 2.0),
        ),
        _lorentzian(),
        _stf(
            lambda t, v: np.exp(-(v**2)) * np.cos(2.0 * v) * np.exp(-0.2 * t),
            lambda t, v: -0.2 * np.exp(-(v**2)) * np.cos(2.0 * v) * np.exp(-0.2 * t),
            lambda t, v: np.exp(-0.2 * t)
            * np.exp(-(v**2))
            * (-2.0 * v * np.cos(2.0 * v) - 2.0 * np.sin(2.0 * v)),
            lambda t, v: np.exp(-0.2 * t)
            * np.exp(-(v**2))
            * ((4.0 * v**2 - 6.0) * np.cos(2.0 * v) + 8.0 * v * np.sin(2.0 * v)),
        ),
        _stf(
            lambda t, v: (1.0 + 0.5 * t) / (1.0 + v**2) ** 2,
            lambda t, v: 0.5 / (1.0 + v**2) ** 2,
            lambda t, v: (1.0 + 0.5 * t) * (-4.0 * v) / (1.0 + v**2) ** 3,
            lambda t, v: (1.0 + 0.5 * t) * (20.0 * v**2 - 4.0) / (1.0 + v**2) ** 4,
        ),
    ]
