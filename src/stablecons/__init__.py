"""Stable boolean consequence via many-valued consequence checking.

A library and CLI around one reduction: "does a conclusion survive deleting
a bounded number of formulas from each premise group" is rewritten as a
consequence question between two formulas of infinite-valued logic, decided
exactly on a finite grid of rational points.  Everything is exact-rational;
brute-force oracles double-check every route.
"""

from .decision import (
    CONSEQUENCE,
    COUNTERMODEL,
    DEFAULT_BUDGET,
    INCONCLUSIVE,
    BudgetExceededError,
    ConsequenceVerdict,
    HarnessLimits,
    StableVerdict,
    check_consequence_rho,
    coefficient_bound,
    denominator_bounded_fractions,
    estar,
    find_countermodel,
    harness_trials,
    random_bool_formula,
    random_instance,
    stable_bruteforce,
)
from .formulas import (
    And,
    BoolFormula,
    FormulaLength,
    FormulaSyntaxError,
    Join,
    LukFormula,
    Meet,
    Neg,
    Not,
    Oplus,
    Or,
    Otimes,
    Var,
    bool_to_text,
    connective_count,
    iff,
    implies,
    luk_to_text,
    measure,
    multiple,
    parse_bool,
    parse_luk,
    power,
    variables,
)
from .reduction import (
    FormulaGroup,
    InstanceError,
    ReductionOutput,
    ReductionStats,
    StableInstance,
    constraint_formula,
    consequent,
    ddagger,
    instance_from_json,
    instance_length,
    instance_to_json,
    nnf,
    normalize_variables,
    reduce_instance,
)
from .semantics import (
    ONE,
    ZERO,
    UnboundVariableError,
    eval_bool,
    eval_luk,
    parse_rational01,
    valuation_to_json,
)

__all__ = [name for name in dir() if not name.startswith("_")]
