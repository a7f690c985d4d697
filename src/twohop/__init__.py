"""Optimal two-hop forwarding policies for multi-class delay tolerant
networks under a global energy budget."""

from .model import (
    NodeClass,
    Policy,
    PolicyEvaluation,
    Scenario,
    ScenarioError,
    Technology,
    ThresholdPolicy,
    contact_rate,
    delivery_probability,
    energy_spent,
    evaluate,
    expand_threshold,
    expected_holding,
    expected_received,
    holding_laplace,
    threshold_energy,
    threshold_objective,
)
from .gridsearch import (
    BudgetExceededError,
    BudgetUnboundedError,
    SolveReport,
    SolveTimeout,
    boundary_threshold,
    enumerate_saturating,
    feasible_range,
    grid_search,
    ratio_bound,
    saturating_threshold,
)
from .greedy import (
    COMBINED_GUARANTEE,
    GreedyReport,
    GreedyVariant,
    cardinality_cap,
    combined_best,
    greedy_construct,
    min_slots,
)
from .baselines import arrival_rate_greedy, class_independent, uniform_policy
from .mcsim import SimConfig, SimOutcome, ValidationRecord, simulate, validate

__version__ = "0.1.0"
