"""Demand-allocation policy design for platform marketplaces.

The toolkit covers the full pipeline: polynomial transfer algebra and
inner-outer factorization (polyalg), the Gaussian market demand model
(demand), neutral allocation-policy construction (policy), seller-side
inventory economics and mode choice (seller), platform payoff optimization
over the design volatility (platform), integer order routing that tracks
the benchmark allocation (routing), and forecast-error analysis for
suboptimal filters and positive lead times (forecast).
"""
from .demand import DemandModel, DemandPath, prob_negative, seller_cv_bound, simulate
from .forecast import (ConvergenceFailure, FilterForecaster, LeadTimeChoice,
                       LeadTimeSpec, export_ses_comparison, filter_msfe,
                       innovations_msfe, innovations_predict,
                       leadtime_mode_choice, leadtime_msfe, leadtime_theta,
                       ses_comparison_rows, ses_msfe_closed_form,
                       ses_truncated_weights)
from .platform import (CurvePoint, EmptyFeasibleSet, PayoffResult,
                       PlatformSolution, breakpoints, cumulative_utility,
                       export_curve, optimize, payoff, payoff_curve,
                       safety_stock_totals, solution_document)
from .policy import (AllocationPolicy, BelowLowerBound, ExPostAllocation,
                     Infeasible, InsufficientHistory, NeutralityReport,
                     allocate_ex_post, benchmark_offsets, check_neutral,
                     deserialize_policy, lagged_variant, neutral_policy,
                     seller_filter, serialize_policy, sigma_lower_bound,
                     uniform_policy)
from .polyalg import (Factorization, NoRoots, NumericalInstability,
                      TransferPoly, ZeroPolynomial, inner_outer_factor,
                      is_invertible, poly_mul, poly_roots, root_msfe, variance)
from .routing import (InfeasibleTargets, RoutePathResult, RoutingResult,
                      export_assignment_log, integerize_demand, route_orders,
                      route_path)
from .seller import (FBM, FBP, DomainError, MarketTable, ModeEconomics,
                     PlatformCosts, SellerParams, adoption_set, base_stock,
                     check_cost_assumptions, export_k_table,
                     inventory_coefficient, k_table, market_table, mode_choice,
                     mode_economics, seller_utility, sigma_participation_ub,
                     std_normal_cdf, std_normal_loss, std_normal_quantile)

__version__ = "0.1.0"

__all__ = [
    "AllocationPolicy", "BelowLowerBound", "ConvergenceFailure", "CurvePoint",
    "DemandModel", "DemandPath", "DomainError", "EmptyFeasibleSet",
    "ExPostAllocation", "FBM", "FBP", "Factorization", "FilterForecaster",
    "Infeasible", "InfeasibleTargets", "InsufficientHistory", "LeadTimeChoice",
    "LeadTimeSpec", "MarketTable", "ModeEconomics", "NeutralityReport", "NoRoots",
    "NumericalInstability", "PayoffResult", "PlatformCosts",
    "PlatformSolution", "RoutePathResult", "RoutingResult", "SellerParams",
    "TransferPoly", "ZeroPolynomial", "adoption_set",
    "allocate_ex_post", "base_stock", "benchmark_offsets", "breakpoints",
    "check_cost_assumptions",
    "export_assignment_log", "export_curve", "export_k_table",
    "export_ses_comparison", "ses_comparison_rows",
    "check_neutral", "cumulative_utility",
    "deserialize_policy", "filter_msfe", "inner_outer_factor",
    "innovations_msfe", "innovations_predict", "integerize_demand",
    "inventory_coefficient", "is_invertible", "k_table", "lagged_variant",
    "leadtime_mode_choice", "leadtime_msfe", "leadtime_theta", "market_table",
    "mode_choice",
    "mode_economics", "neutral_policy", "optimize", "payoff", "payoff_curve",
    "poly_mul", "poly_roots", "prob_negative", "root_msfe", "route_orders",
    "route_path", "safety_stock_totals", "seller_cv_bound", "seller_filter",
    "seller_utility", "serialize_policy", "ses_msfe_closed_form",
    "ses_truncated_weights", "sigma_lower_bound", "sigma_participation_ub",
    "simulate", "solution_document", "std_normal_cdf", "std_normal_loss",
    "std_normal_quantile", "uniform_policy", "variance",
]
