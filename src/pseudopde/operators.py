"""Carre-du-champ operators, generator actions, and the martingale-problem test.

Three independent routes to Gamma(phi, psi) are provided:

* ``gamma_local``          closed form for (jump) diffusions:
                           sum_ij alpha_ij d_i phi d_j psi + jump integral
* ``gamma_fractional``     singular-integral quadrature for the symmetric
                           stable family (squared differences, absolutely
                           convergent, split at |y| = 1)
* ``gamma_from_generator`` the defining combination a(phi psi) - phi a(psi)
                           - psi a(phi) for any generator action

plus a spectral evaluation of the stable generator on a periodized grid,
used solely as a cross-check oracle for the quadrature route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import integrate
from scipy.special import gamma as gamma_fn

from .core import ScalarField, SpaceTimeGrid
from .errors import (
    ConfigurationError,
    InputError,
    NumericalError,
    UnsupportedFeatureError,
)
from .processes import (
    Diffusion,
    DistributionalDrift,
    JumpDiffusion,
    LevyKernel,
    PathEnsemble,
    Stable,
    _drift_array,
    _vol_matrix,
)


@dataclass
class SmoothTestFunction:
    """Scalar function of (t, x) with optional closed-form partials.

    ``value(t, x)`` is vectorized over points x of shape (n, d).  Missing
    partials fall back to central finite differences with spatial step
    h_fd * (1 + |x_k|) per axis.
    """

    value: Callable
    dt: Optional[Callable] = None
    grad: Optional[Callable] = None
    hess: Optional[Callable] = None
    h_fd: float = 1e-4

    def __call__(self, t, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.broadcast_to(
            np.asarray(self.value(t, x), dtype=float), (x.shape[0],)
        ).copy()

    def dt_at(self, t, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.dt is not None:
            return np.broadcast_to(np.asarray(self.dt(t, x), dtype=float), (x.shape[0],)).copy()
        h = self.h_fd
        return (self(t + h, x) - self(t - h, x)) / (2 * h)

    def grad_at(self, t, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.grad is not None:
            out = np.asarray(self.grad(t, x), dtype=float)
            return out.reshape(x.shape[0], x.shape[1])
        n, d = x.shape
        out = np.empty((n, d))
        for k in range(d):
            h = self.h_fd * (1.0 + np.abs(x[:, k]))
            xp, xm = x.copy(), x.copy()
            xp[:, k] += h
            xm[:, k] -= h
            out[:, k] = (self(t, xp) - self(t, xm)) / (2 * h)
        return out

    def hess_at(self, t, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.hess is not None:
            out = np.asarray(self.hess(t, x), dtype=float)
            return out.reshape(x.shape[0], x.shape[1], x.shape[1])
        n, d = x.shape
        out = np.empty((n, d, d))
        base = self(t, x)
        hs = [self.h_fd * (1.0 + np.abs(x[:, k])) for k in range(d)]
        for k in range(d):
            xp, xm = x.copy(), x.copy()
            xp[:, k] += hs[k]
            xm[:, k] -= hs[k]
            out[:, k, k] = (self(t, xp) - 2 * base + self(t, xm)) / hs[k] ** 2
        for k in range(d):
            for l in range(k + 1, d):
                xpp, xpm, xmp, xmm = x.copy(), x.copy(), x.copy(), x.copy()
                xpp[:, k] += hs[k]; xpp[:, l] += hs[l]
                xpm[:, k] += hs[k]; xpm[:, l] -= hs[l]
                xmp[:, k] -= hs[k]; xmp[:, l] += hs[l]
                xmm[:, k] -= hs[k]; xmm[:, l] -= hs[l]
                out[:, k, l] = out[:, l, k] = (
                    self(t, xpp) - self(t, xpm) - self(t, xmp) + self(t, xmm)
                ) / (4 * hs[k] * hs[l])
        return out

    def product(self, other: "SmoothTestFunction") -> "SmoothTestFunction":
        """phi * psi with product-rule partials when both factors have them."""
        dt = grad = hess = None
        if self.dt is not None and other.dt is not None:
            dt = lambda t, x: self(t, x) * other.dt(t, x) + other(t, x) * self.dt(t, x)
        if self.grad is not None and other.grad is not None:
            grad = lambda t, x: (
                self(t, x)[:, None] * other.grad_at(t, x)
                + other(t, x)[:, None] * self.grad_at(t, x)
            )
            if self.hess is not None and other.hess is not None:
                def hess(t, x, a=self, b=other):
                    ga, gb = a.grad_at(t, x), b.grad_at(t, x)
                    cross = ga[:, :, None] * gb[:, None, :]
                    return (
                        a(t, x)[:, None, None] * b.hess_at(t, x)
                        + b(t, x)[:, None, None] * a.hess_at(t, x)
                        + cross + np.swapaxes(cross, 1, 2)
                    )
        return SmoothTestFunction(
            value=lambda t, x: self(t, x) * other(t, x),
            dt=dt, grad=grad, hess=hess, h_fd=self.h_fd,
        )


def gamma_local(
    phi: SmoothTestFunction,
    psi: SmoothTestFunction,
    alpha_matrix: Callable,
    levy: Optional[LevyKernel] = None,
) -> Callable:
    """Gamma for local (jump-)diffusion generators.

    ``alpha_matrix(t, x)`` is the diffusion matrix (sigma sigma^T); the jump
    part is the kernel integral of the product of differences, computed by
    exact sums / quadrature over the finite-activity law.
    """
    def gamma(t, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        gp, gq = phi.grad_at(t, x), psi.grad_at(t, x)
        a = _vol_matrix(alpha_matrix, t, x, x.shape[1])
        out = np.einsum("nij,ni,nj->n", a, gp, gq)
        if levy is not None and levy.rate > 0:
            if x.shape[1] != 1:
                raise UnsupportedFeatureError("jump Gamma is 1-d in this version")
            ys, ws = levy.law.quadrature()
            base_p, base_q = phi(t, x), psi(t, x)
            acc = np.zeros(x.shape[0])
            for y, w in zip(ys, ws):
                acc += w * (phi(t, x + y) - base_p) * (psi(t, x + y) - base_q)
            out = out + levy.rate * acc
        return out

    return gamma


def stable_intensity(alpha: float, scale: float = 1.0) -> float:
    """Levy density factor k with nu(dy) = k |y|^{-1-alpha} dy matching the
    symbol scale * |xi|^alpha (d = 1)."""
    return scale * gamma_fn(1.0 + alpha) * np.sin(np.pi * alpha / 2.0) / np.pi


def gamma_fractional(
    phi: SmoothTestFunction,
    alpha: float,
    scale: float = 1.0,
    split: float = 1.0,
    cutoff: float = 50.0,
) -> Callable:
    """Gamma(phi, phi) for the symmetric stable generator by direct quadrature.

    The squared difference removes the principal-value cancellation, so the
    integral converges absolutely: the inner part (|y| < split) uses an
    algebraic-weight quadrature against |y|^(1-alpha), the outer part is
    quadrature up to ``cutoff`` plus the closed-form tail of phi(x)^2 (valid
    when phi decays beyond the cutoff; the neglected cross terms are bounded
    and reported as ``remainder_bound``).
    """
    if not 0.0 < alpha < 2.0:
        raise InputError("alpha must lie in (0, 2) for the fractional Gamma")
    k = stable_intensity(alpha, scale)

    probe = np.linspace(-cutoff - 10, cutoff + 10, 4001)[:, None]
    vals = np.abs(phi(0.0, probe))
    sup_phi = float(np.max(vals))
    far = np.abs(probe[:, 0]) >= cutoff / 2.0
    sup_far = float(np.max(vals[far]))
    remainder = 2.0 * sup_far * 3.0 * max(sup_phi, 1e-300) * k / (alpha * cutoff**alpha)

    def gamma(t, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != 1:
            raise UnsupportedFeatureError("fractional Gamma is 1-d in this version")
        out = np.empty(x.shape[0])
        for m, xv in enumerate(x[:, 0]):
            base = float(phi(t, np.array([[xv]]))[0])

            def diff2(y, s):
                return (float(phi(t, np.array([[xv + s * y]]))[0]) - base) ** 2

            def quotient(y, s):
                # (phi(x+sy) - phi(x))^2 / y^2, extended by its limit at 0
                if y < 1e-9:
                    h = 1e-6
                    return ((diff2(h, s) ** 0.5) / h) ** 2
                return diff2(y, s) / y**2

            # inner: integrand = quotient * y^(1-alpha); the quotient is
            # smooth at 0, the algebraic weight is handled exactly
            inner = 0.0
            for s in (1.0, -1.0):
                val, _ = integrate.quad(
                    lambda y: quotient(y, s),
                    0.0, split, weight="alg", wvar=(1.0 - alpha, 0.0),
                )
                inner += val
            outer = 0.0
            for s in (1.0, -1.0):
                val, _ = integrate.quad(
                    lambda y: diff2(y, s) / y ** (1.0 + alpha),
                    split, cutoff, limit=200,
                )
                outer += val
            tail = 2.0 * base**2 / (alpha * cutoff**alpha)
            out[m] = k * (inner + outer + tail)
        return out

    gamma.remainder_bound = remainder
    return gamma


class SpectralFractional:
    """(-Delta)^{alpha/2} via the Fourier multiplier |xi|^alpha on a
    periodized grid; a test oracle, not a solver path."""

    def __init__(self, alpha: float, scale: float = 1.0, half_width: float = 80.0, n: int = 1 << 14):
        if not 0.0 < alpha < 2.0:
            raise InputError("alpha must lie in (0, 2)")
        self.alpha = alpha
        self.scale = scale
        self.grid = np.linspace(-half_width, half_width, n, endpoint=False)
        dx = self.grid[1] - self.grid[0]
        self.multiplier = np.abs(2 * np.pi * np.fft.fftfreq(n, dx)) ** alpha

    def apply_to_values(self, values: np.ndarray) -> np.ndarray:
        """scale * (-Delta)^{alpha/2} of grid samples."""
        return self.scale * np.real(np.fft.ifft(self.multiplier * np.fft.fft(values)))

    def frac_laplacian(self, phi: Callable, t: float, xs: np.ndarray) -> np.ndarray:
        vals = np.asarray(phi(t, self.grid[:, None]), dtype=float)
        out = self.apply_to_values(vals)
        return np.interp(np.asarray(xs, dtype=float).reshape(-1), self.grid, out)


def generator_action(gen, spectral: Optional[SpectralFractional] = None) -> Callable:
    """Map a SmoothTestFunction to its generator action a(phi)(t, x).

    The action is taken per unit model time (the clock V enters through the
    compensator integral, not here).  Jump parts use the uncompensated
    finite-activity form rate * E[phi(. + Y) - phi].
    """
    if isinstance(gen, Stable):
        spectral = spectral if spectral is not None else SpectralFractional(gen.alpha, gen.scale)

        def a_stable(phi: SmoothTestFunction) -> Callable:
            def act(t, x):
                x = np.atleast_2d(np.asarray(x, dtype=float))
                return phi.dt_at(t, x) - spectral.frac_laplacian(phi, t, x[:, 0])
            return act

        return a_stable

    if isinstance(gen, (Diffusion, JumpDiffusion)):
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
                if isinstance(gen, JumpDiffusion) and gen.levy.rate > 0:
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
        Sigma_prime = np.gradient(tr.Sigma_table, tr.x_table)

        def a_distri(phi: SmoothTestFunction) -> Callable:
            def act(t, x):
                x = np.atleast_2d(np.asarray(x, dtype=float))
                xv = x[:, 0]
                sig = np.interp(xv, tr.x_table, tr.sigma_table)
                sp = np.interp(xv, tr.x_table, Sigma_prime)
                gp = phi.grad_at(t, x)[:, 0]
                hp = phi.hess_at(t, x)[:, 0, 0]
                return phi.dt_at(t, x) + 0.5 * sig**2 * (hp + sp * gp)
            return act

        return a_distri

    raise ConfigurationError(f"no generator action for {type(gen).__name__}")


def gamma_from_generator(a_action: Callable, phi: SmoothTestFunction, psi: SmoothTestFunction) -> Callable:
    """Gamma(phi, psi) = a(phi psi) - phi a(psi) - psi a(phi), pointwise."""
    a_pq = a_action(phi.product(psi))
    a_p = a_action(phi)
    a_q = a_action(psi)

    def gamma(t, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return a_pq(t, x) - phi(t, x) * a_q(t, x) - psi(t, x) * a_p(t, x)

    return gamma


def gamma_for_generator(gen) -> Callable:
    """The natural Gamma(phi, psi) route for each generator family."""
    if isinstance(gen, (Diffusion, JumpDiffusion)):
        def alpha_mat(t, x):
            x = np.atleast_2d(x)
            sig = _vol_matrix(gen.sigma, t, x, x.shape[1])
            return np.einsum("nik,njk->nij", sig, sig)

        levy = gen.levy if isinstance(gen, JumpDiffusion) else None
        return lambda phi, psi: gamma_local(phi, psi, alpha_mat, levy=levy)
    if isinstance(gen, Stable):
        def make(phi, psi):
            if phi is not psi:
                raise UnsupportedFeatureError(
                    "fractional Gamma quadrature supports the diagonal Gamma(phi, phi)"
                )
            return gamma_fractional(phi, gen.alpha, gen.scale)
        return make
    if isinstance(gen, DistributionalDrift):
        tr = gen.transform

        def gamma(phi, psi):
            def val(t, x):
                x = np.atleast_2d(np.asarray(x, dtype=float))
                sig = np.interp(x[:, 0], tr.x_table, tr.sigma_table)
                return sig**2 * phi.grad_at(t, x)[:, 0] * psi.grad_at(t, x)[:, 0]
            return val

        return gamma
    raise ConfigurationError(f"no Gamma for {type(gen).__name__}")


def classical_residual(
    u: SmoothTestFunction,
    problem,
    grid: SpaceTimeGrid,
    gamma_impl: Optional[Callable] = None,
    a_action: Optional[Callable] = None,
    gamma_floor_tol: float = 1e-8,
) -> ScalarField:
    """Pointwise residual field a(u) + f(., ., u, sqrt(Gamma(u,u))) on the grid.

    Gamma values below -tolerance flag a broken Gamma implementation (the
    bracket density is nonnegative); small negative noise is clamped.
    """
    if a_action is None:
        a_action = generator_action(problem.generator)
    if gamma_impl is None:
        gamma_impl = gamma_for_generator(problem.generator)(u, u)
    a_u = a_action(u)
    pts = grid.nodes()
    rows = []
    for t in grid.times:
        g = np.asarray(gamma_impl(t, pts), dtype=float)
        if np.any(g < -gamma_floor_tol):
            raise NumericalError(
                f"Gamma(u,u) reached {g.min():.3g} < -{gamma_floor_tol}; "
                "the gamma implementation is broken (bracket densities are nonnegative)"
            )
        z = np.sqrt(np.clip(g, 0.0, None))
        rows.append(
            (a_u(t, pts) + problem.driver(t, pts, u(t, pts), z)).reshape(grid.space_shape)
        )
    return ScalarField(grid, np.stack(rows, axis=0))


@dataclass
class MartingaleTestResult:
    z_scores: np.ndarray       # (n_steps, n_coefficients)
    max_abs_z: float


def _bounded_basis(x: np.ndarray) -> np.ndarray:
    """Regression design [1, tanh(x_k/2), tanh(x_k/2)^2]: degree-2 in a bounded
    coordinate map, so heavy-tailed positions cannot dominate the fit."""
    w = np.tanh(x / 2.0)
    cols = [np.ones(x.shape[0])]
    for k in range(x.shape[1]):
        cols.append(w[:, k])
    for k in range(x.shape[1]):
        cols.append(w[:, k] ** 2)
    return np.stack(cols, axis=1)


def martingale_test(
    ens: PathEnsemble, phi: SmoothTestFunction, a_phi: Callable
) -> MartingaleTestResult:
    """Test that phi(t, X_t) - int a(phi)(r, X_r) dV_r has centered increments.

    ``ens`` is one sample of P^{s,x}; every test function can be run on the
    same ensemble, since the martingale property holds for each of them.
    Per step, the compensated increment is regressed on bounded basis
    functions of X_{t_i}; all coefficient z-scores (heteroskedasticity-robust)
    should be near zero when a_phi is the true generator action.
    """
    zs = []
    n_coef = 1 + 2 * ens.paths.shape[2]
    phi_now = phi(ens.times[0], ens.paths[:, 0, :])
    for j, dv in enumerate(ens.dvs):
        xs = ens.paths[:, j, :]
        phi_next = phi(ens.times[j + 1], ens.paths[:, j + 1, :])
        incr = phi_next - phi_now - np.asarray(a_phi(ens.times[j], xs), dtype=float) * dv
        phi_now = phi_next
        design = _bounded_basis(xs)
        # columns with no sample spread (e.g. the deterministic start point)
        # carry no information beyond the intercept
        spread = design.std(axis=0)
        keep = np.concatenate([[True], spread[1:] > 1e-10 * (1.0 + np.abs(design[0, 1:]))])
        sub = design[:, keep]
        beta, *_ = np.linalg.lstsq(sub, incr, rcond=None)
        resid = incr - sub @ beta
        xtx_inv = np.linalg.inv(sub.T @ sub)
        meat = sub.T @ (sub * (resid**2)[:, None])
        cov = xtx_inv @ meat @ xtx_inv
        se = np.sqrt(np.clip(np.diag(cov), 1e-300, None))
        row = np.zeros(n_coef)
        row[keep] = beta / se
        zs.append(row)
    z = np.array(zs)
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
