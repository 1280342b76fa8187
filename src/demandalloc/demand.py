"""Market demand model and Gaussian sample-path simulation.

Aggregate demand is a stationary Gaussian moving average around a positive
mean: D_t = mu + sum_k psi_k e_{t-k} with unit-variance shocks.  The filter
must be invertible so the market-wide shock history is recoverable from
observed demand; scale lives entirely in the coefficients.  simulate draws
a path as a plain read-only array of demands: the shocks behind it are
dropped, and the caller, which chose the seed, keeps it.
"""
from __future__ import annotations

import warnings

import numpy as np

from .polyalg import DEFAULT_BOUNDARY_TOL, as_poly, is_invertible, variance
from .seller import std_normal_cdf

# Flag scenarios where the Gaussian approximation puts nontrivial mass on
# negative demand.
NEGATIVE_DEMAND_WARN_LEVEL = 0.05


class DemandModel:
    """Invertible MA(q) demand around mean mu, unit-variance shocks."""

    __slots__ = ("mu", "psi")

    def __init__(self, mu: float, psi, boundary_tol: float = DEFAULT_BOUNDARY_TOL) -> None:
        psi = as_poly(psi)
        if not 0 < mu < np.inf:
            raise ValueError(f"mean demand mu must be positive and finite, got {mu!r}")
        if not is_invertible(psi, boundary_tol):
            raise ValueError("psi must be invertible (no roots inside the unit disk)")
        self.mu = float(mu)
        self.psi = psi

    def __repr__(self) -> str:
        return f"DemandModel(mu={self.mu:g}, psi={self.psi!r})"


def simulate(model: DemandModel, horizon: int, seed: int) -> np.ndarray:
    """Draw a stationary demand path D_0..D_{T-1} of the given length, as a
    read-only array.

    Shocks come from numpy's default PCG64 generator, so paths are bit-exact
    reproducible per seed.  q extra shocks are drawn before t=0 so the path
    is stationary from the first reported period; they are not kept.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    p_neg = prob_negative(model)
    if p_neg > NEGATIVE_DEMAND_WARN_LEVEL:
        warnings.warn(
            f"P(D <= 0) = {p_neg:.3f} under the Gaussian model; simulated "
            "paths will contain negative demand",
            stacklevel=2,
        )
    q = model.psi.degree
    rng = np.random.default_rng(seed)
    shocks = rng.standard_normal(horizon + q)
    demands = model.mu + np.convolve(shocks, model.psi.coeffs)[q:q + horizon]
    demands.flags.writeable = False
    return demands


def prob_negative(model: DemandModel) -> float:
    """P(D_t <= 0) under the Gaussian model: cdf(-mu / sd).  In float
    arithmetic, where 1/CV = mu / sd overflows to inf for a subnormal mu."""
    sd = variance(model.psi) ** 0.5
    return std_normal_cdf(-model.mu / sd) if sd > 0 else 0.0
