"""Monte-Carlo solvers for semilinear equations driven by Markov generators.

The package computes the pair (u, v) solving the coupled semigroup integral
system

    u(s,x)  = E[g(X_T)]        + E[ integral_s^T f(r, X_r, u, v) dV_r ]
    u2(s,x) = E[g(X_T)^2]      - E[ integral_s^T (v^2 - 2 u f) dV_r ]

for a configurable generator (diffusion, jump diffusion, symmetric stable,
1-d SDE with distributional drift), by Picard iteration over a frozen path
cache, cross-checked against a backward least-squares Monte Carlo solver, with
a martingale-problem test of each generator.
"""

__version__ = "0.1.0"
