"""Level-adaptive entropic risk measures on finite-support distributions.

The package computes the classical quantile / tail-average / entropic
value-at-risk family, lifts any of them through a decreasing level function
(the confidence level becomes a function of the loss threshold), verifies the
entropic values against Rényi-entropy dual oracles, and evaluates closed-form
worst cases under Wasserstein and mean-variance ambiguity.
"""

from .classical import (
    EvarSolution,
    conjugate_order,
    evar,
    evar_dual_oracle,
    evar_objective,
    evar_value,
    renyi_entropy,
)
from .distributions import (
    DiscreteDistribution,
    MomentSet,
    ScenarioTable,
    combine,
    icx_leq,
    make_distribution,
    mix,
    point_mass,
    wasserstein_distance,
)
from .errors import PreconditionError
from .levels import Constant, LambdaFunction, PiecewiseLinear, Step, from_spec
from .lifting import (
    BaseMeasureFamily,
    LambdaRiskResult,
    es_family,
    evar_family,
    extended_ru,
    homogeneous_form_value,
    lambda_evar_dual_oracle,
    lambda_lift,
    lambda_lift_inf,
    sandwich_check,
    solve_level_crossing,
    var_family,
)
from .robust import RobustResult, worst_case_mean_variance, worst_case_wasserstein
from .verify import CampaignConfig, CampaignReport, PropertyOutcome, run_campaign

__version__ = "0.1.0"

__all__ = [
    "BaseMeasureFamily",
    "CampaignConfig",
    "CampaignReport",
    "Constant",
    "DiscreteDistribution",
    "EvarSolution",
    "LambdaFunction",
    "LambdaRiskResult",
    "MomentSet",
    "PiecewiseLinear",
    "PreconditionError",
    "PropertyOutcome",
    "RobustResult",
    "ScenarioTable",
    "Step",
    "__version__",
    "combine",
    "conjugate_order",
    "es_family",
    "evar",
    "evar_dual_oracle",
    "evar_family",
    "evar_objective",
    "evar_value",
    "extended_ru",
    "from_spec",
    "homogeneous_form_value",
    "icx_leq",
    "lambda_evar_dual_oracle",
    "lambda_lift",
    "lambda_lift_inf",
    "make_distribution",
    "mix",
    "point_mass",
    "renyi_entropy",
    "run_campaign",
    "sandwich_check",
    "solve_level_crossing",
    "var_family",
    "wasserstein_distance",
    "worst_case_mean_variance",
    "worst_case_wasserstein",
]
