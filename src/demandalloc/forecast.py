"""Forecast-error machinery beyond the one-step optimal predictor.

Three strands: an innovations-algorithm oracle that recovers the one-step
forecast error of a finite moving average directly from autocovariances
(sharing no code with the root-split route, so the two can cross-check each
other); mean squared errors of suboptimal linear filters such as truncated
exponential smoothing; and lead-time demand uncertainty built from partial
sums of the coefficients of a seller filter's outer factor, which
polyalg.inner_outer_factor computes for any admissible design.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .demand import DemandModel
from .policy import AllocationPolicy, seller_filter, sigma_lower_bound
from .polyalg import TransferPoly, as_poly, inner_outer_factor
from .seller import (FBM, FBP, MarketTable, PlatformCosts, SellerParams,
                     mode_economics)

SES_TAIL_TOL = 1e-12
_CONVERGENCE_RTOL = 1e-10
_WEIGHT_SUM_TOL = 1e-9


class ConvergenceFailure(RuntimeError):
    """Innovations recursion did not settle within the horizon."""

    def __init__(self, horizon: int, last_variance: float, rel_change: float):
        self.horizon = horizon
        self.last_variance = last_variance
        self.rel_change = rel_change
        super().__init__(
            f"innovation variance still moving after {horizon} steps: "
            f"last v = {last_variance:.12g}, relative change {rel_change:.3e}"
        )


@dataclass(frozen=True)
class LeadTimeSpec:
    """Replenishment delays in periods, one per fulfillment mode."""

    L_fbp: int
    L_fbm: int

    def __post_init__(self):
        if self.L_fbp < 0 or self.L_fbm < 0:
            raise ValueError("lead times must be nonnegative integers")


@dataclass(frozen=True)
class FilterForecaster:
    """Linear one-step forecaster: prediction = sum_k w_k X_{t-k}.

    Weights must sum to 1 so the forecast is unbiased for any mean level.
    """

    weights: TransferPoly
    description: str = ""

    def __post_init__(self):
        total = float(np.sum(self.weights.coeffs))
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"forecaster weights sum to {total:.12g}, need 1")


def _ma_autocovariance(coeffs: np.ndarray) -> np.ndarray:
    """gamma(0..q) of the MA process with these coefficients, unit shocks."""
    q = coeffs.size - 1
    return np.array([float(np.dot(coeffs[:coeffs.size - h], coeffs[h:]))
                     for h in range(q + 1)])


def _innovations_rows(coeffs: np.ndarray, steps: int, settle_rtol: float = 0.0):
    """Banded innovations recursion for an MA(q) process.

    Returns (theta, v) where theta[t, j] predicts with the innovation j
    steps back (j = 1..q) at time t, and v[t] is the one-step innovation
    variance.  With settle_rtol > 0 the recursion stops early once v moves
    less than that relative amount, returning the rows computed so far.
    """
    q = coeffs.size - 1
    gamma = _ma_autocovariance(coeffs)
    v = np.empty(steps + 1)
    theta = np.zeros((steps + 1, q + 1))
    v[0] = gamma[0]
    for t in range(1, steps + 1):
        lo = max(0, t - q)
        for k in range(lo, t):
            h = t - k
            acc = gamma[h] if h <= q else 0.0
            for j in range(lo, k):
                acc -= theta[k, k - j] * theta[t, t - j] * v[j]
            theta[t, h] = acc / v[k]
        v[t] = gamma[0] - sum(theta[t, t - j] ** 2 * v[j] for j in range(lo, t))
        if settle_rtol and t > q:
            if abs(v[t] - v[t - 1]) <= settle_rtol * abs(v[t]):
                return theta[:t + 1], v[:t + 1]
    return theta, v


def innovations_msfe(psi_n: TransferPoly, horizon: int) -> float:
    """One-step root MSFE via the innovations recursion on autocovariances.

    Independent of root finding: only the process autocovariances enter.
    Raises ConvergenceFailure (with the last innovation variance) when the
    recursion is still moving after `horizon` steps, which happens when a
    root sits very close to the unit circle.
    """
    psi_n = as_poly(psi_n)
    if psi_n.is_zero():
        raise ValueError("MSFE undefined for the zero polynomial")
    if psi_n.degree == 0:
        return abs(float(psi_n.coeffs[0]))
    if horizon < 10 * psi_n.degree:
        raise ValueError("horizon must be at least 10x the polynomial degree")
    _, v = _innovations_rows(psi_n.coeffs, horizon, settle_rtol=_CONVERGENCE_RTOL)
    rel = abs(v[-1] - v[-2]) / abs(v[-1])
    if v.size == horizon + 1 and rel > _CONVERGENCE_RTOL:
        raise ConvergenceFailure(horizon, float(v[-1]), float(rel))
    return float(math.sqrt(v[-1]))


def innovations_predict(psi_n: TransferPoly, series, mean: float = 0.0) -> np.ndarray:
    """One-step-ahead predictions along a realized series.

    Prediction for index t uses only observations before t, weighting past
    innovations by the recursion's time-t coefficients.  Rows are computed
    until they settle and then reused, so long series stay cheap.
    """
    psi_n = as_poly(psi_n)
    x = np.asarray(series, dtype=float) - mean
    T = x.size
    q = psi_n.degree
    if q == 0:
        return np.full(T, mean)
    theta, _ = _innovations_rows(psi_n.coeffs, min(T, 5000), settle_rtol=1e-14)
    last = theta.shape[0] - 1
    xhat = np.zeros(T)
    for t in range(T):
        row = theta[min(t, last)]
        acc = 0.0
        for j in range(1, min(t, q) + 1):
            acc += row[j] * (x[t - j] - xhat[t - j])
        xhat[t] = acc
    return xhat + mean


def ses_truncated_weights(lam: float, order: int | None = None) -> FilterForecaster:
    """Exponential-smoothing weights lam (1-lam)^k, truncated and renormalized.

    When order is omitted it is chosen so the dropped geometric tail is
    below 1e-12.  lam = 1 is the naive last-value forecast.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError("smoothing constant must lie in (0, 1]")
    if lam == 1.0:
        return FilterForecaster(TransferPoly([1.0]), description="ses(lambda=1)")
    if order is None:
        order = max(1, math.ceil(math.log(SES_TAIL_TOL) / math.log1p(-lam)))
    k = np.arange(order)
    w = lam * (1.0 - lam) ** k
    w /= w.sum()
    w[0] += 1.0 - w.sum()  # absorb the last few ulps so the sum is exactly 1
    return FilterForecaster(TransferPoly(w), description=f"ses(lambda={lam:g})")


def filter_msfe(psi_n: TransferPoly, forecaster: FilterForecaster) -> float:
    """Root MSFE of a linear filter forecaster on the stream psi_n.

    The forecast error passes the shocks through (1 - what(z) z) psi_n(z);
    with unit-variance shocks the MSE is the sum of squared coefficients of
    that error filter.  Never beats the optimal predictor's root MSFE.
    """
    psi_n = as_poly(psi_n)
    w = forecaster.weights.coeffs
    one_minus = np.concatenate(([1.0], -w))
    err = np.convolve(one_minus, psi_n.coeffs)
    return float(np.sqrt(np.dot(err, err)))


def ses_msfe_closed_form(psi0_abs: float, N: int, alpha: float, lam: float) -> float:
    """Perceived root MSFE under untruncated exponential smoothing, for the
    one-lag designs on serially independent market demand.

    alpha carries the seller's sign; lam = 0 recovers the optimal-forecast
    value sqrt(sigma_L^2 + sigma^2).
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError("closed form needs lambda in [0, 1)")
    base = (psi0_abs / N) ** 2
    mse = base * (1.0 + (alpha - lam) ** 2
                  + (lam / (2.0 - lam)) * (1.0 - lam + alpha) ** 2)
    return float(math.sqrt(mse))


def leadtime_msfe(outer_coeffs: TransferPoly, L: int) -> float:
    """Root MSFE of cumulative demand over a replenishment delay of L periods.

    Equals sqrt(sum over lags of squared partial sums of the outer factor's
    coefficients); L = 0 reduces to the one-step root MSFE |theta_0|.
    """
    if L < 0:
        raise ValueError("lead time must be nonnegative")
    theta = as_poly(outer_coeffs).coeffs
    if L == 0:
        return abs(float(theta[0]))
    padded = np.zeros(L + 1)
    padded[:min(theta.size, L + 1)] = theta[:L + 1]
    partial = np.cumsum(padded)
    return float(np.sqrt(np.dot(partial, partial)))


def leadtime_theta(model: DemandModel, policy: AllocationPolicy, n: int,
                   sigma: float, sigma_L: float) -> TransferPoly:
    """Outer factor of seller n's filter psi_n, for any admissible design.

    Defined up to a global sign, which lead-time MSFEs never see.  sigma /
    sigma_L must equal |theta_0| / (|psi(0)| / N) within 1e-9 relative.
    """
    outer = inner_outer_factor(seller_filter(policy, model, n)).outer
    ratio = abs(float(outer.coeffs[0])) / sigma_lower_bound(model, policy.n_sellers)
    alpha_bar = sigma / sigma_L
    if not abs(ratio - alpha_bar) <= 1e-9 * abs(alpha_bar):
        raise ValueError(
            f"sigma/sigma_L = {alpha_bar:g} inconsistent with seller {n}'s "
            f"root MSFE ratio {ratio:g}"
        )
    return outer


@dataclass(frozen=True)
class LeadTimeChoice:
    mode: str
    sigma_bar_fbp: float
    sigma_bar_fbm: float
    utility_fbp: float
    utility_fbm: float


def leadtime_mode_choice(params: SellerParams, costs: PlatformCosts,
                         leads: LeadTimeSpec, model: DemandModel,
                         policy: AllocationPolicy, n: int,
                         mu_share: float) -> LeadTimeChoice:
    """Mode choice when the two modes replenish with different delays.

    Each mode faces the forecast uncertainty of its own lead-time demand;
    utilities compare margin minus K times that sigma-bar.  Ties go to
    platform fulfillment.
    """
    sigma_l = sigma_lower_bound(model, policy.n_sellers)
    sigma = policy.sigma_target if policy.sigma_target is not None else sigma_l
    theta = leadtime_theta(model, policy, n, sigma, sigma_l)
    s_fbp = leadtime_msfe(theta, leads.L_fbp)
    s_fbm = leadtime_msfe(theta, leads.L_fbm)
    u_fbp = (costs.r - costs.rho - costs.F) * mu_share \
        - mode_economics(params, costs, FBP).K * s_fbp
    u_fbm = (costs.r - costs.rho - params.f) * mu_share \
        - mode_economics(params, costs, FBM).K * s_fbm
    scale = max(1.0, abs(u_fbp), abs(u_fbm))
    mode = FBP if u_fbp - u_fbm >= -1e-9 * scale else FBM
    return LeadTimeChoice(mode=mode, sigma_bar_fbp=s_fbp, sigma_bar_fbm=s_fbm,
                          utility_fbp=u_fbp, utility_fbm=u_fbm)


def ses_comparison_rows(table: MarketTable, sigma: float, sigma_tilde: float):
    """Per-seller view of how smoothing-based perception shifts choices.

    Each row: seller, the design sigma, the perceived sigma, the mode chosen
    under each, and the utility evaluated at each perception.
    """
    fbp_opt, u_opt = table.utilities(sigma)
    fbp_ses, u_ses = table.utilities(sigma_tilde)
    rows = zip(np.where(fbp_opt, FBP, FBM).tolist(),
               np.where(fbp_ses, FBP, FBM).tolist(), u_opt.tolist(), u_ses.tolist())
    return [(idx, sigma, sigma_tilde, *row) for idx, row in enumerate(rows, start=1)]


def export_ses_comparison(rows, fileobj) -> None:
    writer = csv.writer(fileobj)
    writer.writerow(["seller", "sigma", "sigma_tilde", "mode_optimal",
                     "mode_ses", "utility_optimal", "utility_ses"])
    for row in rows:
        writer.writerow([row[0], f"{row[1]:.6f}", f"{row[2]:.6f}", row[3],
                         row[4], f"{row[5]:.6f}", f"{row[6]:.6f}"])
