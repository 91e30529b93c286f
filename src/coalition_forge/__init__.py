"""Strictly proper scoring rules, coalition arbitrage constructions, and
wagering-mechanism simulations.

The library answers three questions about forecasting markets scored by
proper rules: what identical report lets a coalition of disagreeing
players beat truthful play in every outcome, how large that guaranteed
surplus is under plain, self-financed, and sequential mechanisms, and
what coalition size maximizes it.
"""

from types import ModuleType as _ModuleType

from .arbitrage import (
    AGREEMENT_TOL,
    ArbitrageResult,
    Coalition,
    DominanceVerdict,
    Player,
    SphericalAux,
    Verdict,
    arbitrage_report,
    binary_equalizer,
    closed_form_surplus,
    grid_search_equalizer,
    ordering_satisfies_alternation,
    spherical_aux,
    verify_dominance_oracle,
)
from .errors import (
    CoalitionForgeError,
    CoalitionIsEveryoneWarning,
    DegenerateBelief,
    DimensionMismatch,
    FractionOutOfRange,
    InvalidCoalition,
    LogOfZero,
    MissingReport,
    NegativeEntry,
    NoConvergence,
    NonMonotoneGenerator,
    NonPositiveWager,
    NumericalError,
    OrderingViolationWarning,
    OutOfDomain,
    PaymentOverflow,
    ScenarioError,
    SinglePlayer,
    SumOutOfTolerance,
    TooFewStates,
    UnboundedRule,
    UnsupportedMechanism,
    UnsupportedRule,
    ValidationError,
)
from .mechanisms import (
    MechanismKind,
    MechanismSpec,
    PaymentTable,
    coalition_surplus_competitive,
    coalition_surplus_market,
    intermediary_profit_by_outcome,
    lambert,
    payment_table,
)
from .rules import (
    ConvexGenerator,
    PropernessReport,
    RuleKind,
    ScoringRule,
    check_strict_properness,
    custom_binary_rule,
    generalized_log_rule,
    linear_rule,
    logarithmic_rule,
    logit_generator,
    normalize_to_unit_interval,
    quadratic_rule,
    savage_binary_score,
    score,
    score_table,
    spherical_rule,
)
from .scenario import (
    Scenario,
    canonical_json,
    load_scenario,
    parse_scenario,
    scenario_digest,
)
from .simplex import (
    Forecast,
    grid_array,
    uniform_prior,
    validate_forecast,
)
from .simulate import (
    BeliefSampler,
    BetaBinary,
    DirichletM,
    FiniteMixture,
    IntermediaryRun,
    MarketSessionResult,
    SweepResult,
    SweepRow,
    expected_surplus_sweep,
    intermediary_run,
    market_session,
    sample_population,
    substream,
)

__version__ = "1.0.0"

# The public API is every name imported above; the submodules those
# imports bind are not part of it.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
