"""Demand-allocation policy design for platform marketplaces.

The toolkit covers the full pipeline: polynomial transfer algebra and
inner-outer factorization (polyalg), the Gaussian market demand model
(demand), neutral allocation-policy construction (policy), seller-side
inventory economics and mode choice (seller), platform payoff optimization
over the design volatility (platform), integer order routing that tracks
the benchmark allocation (routing), and forecast-error analysis for
exponential smoothing and positive lead times (forecast).
"""
from .demand import DemandModel, prob_negative, simulate
from .forecast import leadtime_msfe, ses_msfe
from .platform import (Curve, EmptyFeasibleSet, PayoffResult,
                       PlatformSolution, export_curve, optimize, payoff,
                       payoff_curve, solution_document)
from .policy import (AllocationPolicy, BelowLowerBound, Infeasible,
                     InsufficientHistory, benchmark_offsets,
                     neutral_policy, seller_filters, sigma_lower_bound,
                     uniform_policy)
from .polyalg import (Factorization, NumericalInstability,
                      TransferPoly, ZeroPolynomial, inner_outer_factor,
                      is_invertible, poly_roots, root_msfe, variance)
from .routing import (RoutePathResult, export_assignment_log,
                      integerize_demand, route_orders, route_path)
from .seller import (FBM, FBP, DomainError, MarketTable, PlatformCosts,
                     SellerParams, base_stock, check_cost_assumptions,
                     inventory_coefficient, market_table, std_normal_cdf,
                     std_normal_loss, std_normal_quantile)

__version__ = "0.1.0"

__all__ = [
    "AllocationPolicy", "BelowLowerBound", "Curve",
    "DemandModel", "DomainError", "EmptyFeasibleSet",
    "FBM", "FBP", "Factorization",
    "Infeasible", "InsufficientHistory",
    "MarketTable",
    "NumericalInstability", "PayoffResult", "PlatformCosts",
    "PlatformSolution", "RoutePathResult", "SellerParams",
    "TransferPoly", "ZeroPolynomial",
    "base_stock", "benchmark_offsets",
    "check_cost_assumptions",
    "export_assignment_log", "export_curve",
    "inner_outer_factor", "integerize_demand",
    "inventory_coefficient", "is_invertible",
    "leadtime_msfe", "market_table",
    "neutral_policy", "optimize", "payoff", "payoff_curve",
    "poly_roots", "prob_negative", "root_msfe", "route_orders",
    "route_path", "seller_filters",
    "ses_msfe", "sigma_lower_bound", "simulate",
    "solution_document", "std_normal_cdf", "std_normal_loss",
    "std_normal_quantile", "uniform_policy", "variance",
]
