"""Gamma routes, the classical residual and finite-difference partials: the
tests' reference for ``pseudopde.operators``, whose run never evaluates Gamma.

``gamma_local``, ``gamma_fractional`` (quadrature split at |y| = 1) and
``gamma_from_generator`` are three independent routes to Gamma(phi, psi).
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from pseudopde.core import SpaceTimeGrid
from pseudopde.errors import ConfigurationError, InputError, NumericalError, UnsupportedFeatureError
from pseudopde.operators import SmoothTestFunction, generator_action
from pseudopde.processes import Diffusion, DistributionalDrift, LevyKernel, Stable, _vol_matrix


@dataclass
class FiniteDifferenceFunction(SmoothTestFunction):
    """A SmoothTestFunction whose missing partials fall back to central finite
    differences with spatial step h_fd * (1 + |x_k|) per axis."""

    dt: Optional[Callable] = None
    grad: Optional[Callable] = None
    hess: Optional[Callable] = None
    h_fd: float = 1e-4

    def dt_at(self, t, x):
        if self.dt is not None:
            return super().dt_at(t, x)
        h = self.h_fd
        return (self(t + h, x) - self(t - h, x)) / (2 * h)

    def grad_at(self, t, x):
        if self.grad is not None:
            return super().grad_at(t, x)
        x = np.atleast_2d(np.asarray(x, dtype=float))
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
        if self.hess is not None:
            return super().hess_at(t, x)
        x = np.atleast_2d(np.asarray(x, dtype=float))
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


def product(phi: SmoothTestFunction, psi: SmoothTestFunction) -> FiniteDifferenceFunction:
    """phi * psi with product-rule partials when both factors have them."""
    dt = grad = hess = None
    if phi.dt is not None and psi.dt is not None:
        dt = lambda t, x: phi(t, x) * psi.dt(t, x) + psi(t, x) * phi.dt(t, x)
    if phi.grad is not None and psi.grad is not None:
        grad = lambda t, x: (
            phi(t, x)[:, None] * psi.grad_at(t, x)
            + psi(t, x)[:, None] * phi.grad_at(t, x)
        )
        if phi.hess is not None and psi.hess is not None:
            def hess(t, x, a=phi, b=psi):
                ga, gb = a.grad_at(t, x), b.grad_at(t, x)
                cross = ga[:, :, None] * gb[:, None, :]
                return (
                    a(t, x)[:, None, None] * b.hess_at(t, x)
                    + b(t, x)[:, None, None] * a.hess_at(t, x)
                    + cross + np.swapaxes(cross, 1, 2)
                )
    return FiniteDifferenceFunction(
        value=lambda t, x: phi(t, x) * psi(t, x),
        dt=dt, grad=grad, hess=hess, h_fd=getattr(phi, "h_fd", FiniteDifferenceFunction.h_fd),
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
    from scipy.special import gamma as gamma_fn

    return scale * gamma_fn(1.0 + alpha) * np.sin(np.pi * alpha / 2.0) / np.pi


def gamma_fractional(phi: SmoothTestFunction, alpha: float, scale: float = 1.0) -> Callable:
    """Gamma(phi, phi) for the symmetric stable generator by direct quadrature.

    The squared difference removes the principal-value cancellation, so the
    integral converges absolutely: the inner part (|y| < split = 1) uses an
    algebraic-weight quadrature against |y|^(1-alpha), the outer part is
    quadrature up to the cutoff |y| = 50 plus the closed-form tail of
    phi(x)^2 (valid when phi decays beyond the cutoff; the neglected cross
    terms are bounded and reported as ``remainder_bound``).
    """
    from scipy import integrate

    split, cutoff = 1.0, 50.0

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



def gamma_from_generator(a_action: Callable, phi: SmoothTestFunction, psi: SmoothTestFunction) -> Callable:
    """Gamma(phi, psi) = a(phi psi) - phi a(psi) - psi a(phi), pointwise."""
    a_pq = a_action(product(phi, psi))
    a_p = a_action(phi)
    a_q = a_action(psi)

    def gamma(t, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return a_pq(t, x) - phi(t, x) * a_q(t, x) - psi(t, x) * a_p(t, x)

    return gamma


def gamma_for_generator(gen) -> Callable:
    """The natural Gamma(phi, psi) route for each generator family."""
    if isinstance(gen, Diffusion):
        def alpha_mat(t, x):
            x = np.atleast_2d(x)
            sig = _vol_matrix(gen.sigma, t, x, x.shape[1])
            return np.einsum("nik,njk->nij", sig, sig)

        return lambda phi, psi: gamma_local(phi, psi, alpha_mat, levy=gen.levy)
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
                sig = tr.sigma(x[:, 0])
                return sig**2 * phi.grad_at(t, x)[:, 0] * psi.grad_at(t, x)[:, 0]
            return val

        return gamma
    raise ConfigurationError(f"no Gamma for {type(gen).__name__}")


def classical_residual(
    u: SmoothTestFunction,
    problem,
    grid: SpaceTimeGrid,
    gamma_impl: Optional[Callable] = None,
) -> np.ndarray:
    """Pointwise residual a(u) + f(., ., u, sqrt(Gamma(u,u))) at the grid cells,
    as an (n_times, n_nodes) array over the grid times and ``grid.nodes()``.

    Gamma values below -1e-8 flag a broken Gamma implementation (the bracket
    density is nonnegative); smaller negative noise is clamped.
    """
    gamma_floor_tol = 1e-8
    if gamma_impl is None:
        gamma_impl = gamma_for_generator(problem.generator)(u, u)
    a_u = generator_action(problem.generator)(u)
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
        rows.append(a_u(t, pts) + problem.driver(t, pts, u(t, pts), z))
    return np.stack(rows)

