"""Decision procedures and oracles.

* ``stable_bruteforce`` — exhaustive deletion-and-assignment enumeration for
  the boolean problem; the ground-truth oracle.
* ``check_consequence_rho`` — complete consequence check for reduced pairs by
  scanning the 2^n lifted grid points (exactly the antecedent's models).
* ``find_countermodel`` — bounded-denominator refutation scan for arbitrary
  pairs: sound whenever it answers, inconclusive past its bound.
* ``harness_trials`` — randomized agreement check between the boolean oracle
  and the reduced-pair check.
* ``estar`` — binary search for the largest deletion allowance that keeps a
  conclusion entailed.

Both consequence checks run on the exact lattice scan of ``semantics``,
``_scan``; its first hit is decoded into a ``Fraction`` witness and
re-verified with the scalar ``eval_luk`` before it is reported.

All enumerations honor a hard budget and raise ``BudgetExceededError`` rather
than truncate, and every emitted witness is deterministic: the first hit in
lexicographic enumeration order.  A step count of 2**2048 or more is
reported as "at least 2**k", neither built nor printed (``_check_budget``).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .formulas import (
    And,
    BoolFormula,
    LukFormula,
    Not,
    Or,
    Var,
    connective_count,
    variables,
)
from .reduction import (
    FormulaGroup,
    ReductionOutput,
    StableInstance,
    instance_to_json,
    reduce_instance,
)
from .semantics import (
    ONE,
    _lattice_dtype,
    _scan,
    eval_bool,
    eval_luk,
    valuation_to_json,
)

DEFAULT_BUDGET = 5_000_000

_PRINTED_BITS = 2048  # below 640 digits, the least int printing limit Python takes


class BudgetExceededError(Exception):
    """An enumeration would exceed its budget; no verdict was produced.

    ``needed`` is the step count, or the string "at least 2**k" when the
    count reaches 2**2048.  The message writes a budget that large the same
    way; the ``budget`` attribute stays the int.
    """

    def __init__(self, what: str, needed: int | str, budget: int) -> None:
        bits = budget.bit_length() - 1
        shown = budget if bits < _PRINTED_BITS else f"at least 2**{bits}"
        super().__init__(f"{what} needs {needed} steps, budget is {shown}")
        self.needed = needed
        self.budget = budget


def _check_budget(budget: int, what: str, base: int, exponent: int, factor: int = 1):
    """Raise ``BudgetExceededError`` if factor * base**exponent > budget.

    A negative budget is a ``ValueError``.  With factor and base at least 1,
    the bit lengths alone give a k with count >= 2**k.  The count is built
    only while k is below the budget's bit length (it may fit) or below
    ``_PRINTED_BITS`` (it prints exactly).  Past both it exceeds the budget
    and is reported as "at least 2**k": a declared n of 10**10 would make 2**n
    a 1.25 GB int, and Python prints no int past 4300 digits.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    bits = factor.bit_length() - 1 + exponent * (base.bit_length() - 1)
    if bits < max(budget.bit_length(), _PRINTED_BITS):
        needed = factor * base**exponent
        if needed <= budget:
            return
        bits = needed.bit_length() - 1
    if bits >= _PRINTED_BITS:
        needed = f"at least 2**{bits}"
    raise BudgetExceededError(what, needed, budget)


# ---------------------------------------------------------------------------
# verdicts

CONSEQUENCE = "consequence"
COUNTERMODEL = "countermodel"
INCONCLUSIVE = "inconclusive_at_bound"


@dataclass(frozen=True)
class ConsequenceVerdict:
    """Outcome of a consequence check.

    ``consequence`` with ``certified`` set means the searched point set
    provably contained every model of the antecedent; ``countermodel``
    carries a witness where the antecedent is 1 and the consequent is < 1;
    ``inconclusive_at_bound`` reports a completed scan without refutation.
    """

    kind: str
    certified: bool = False
    witness: dict[int, Fraction] | None = None
    bound: int | None = None

    @classmethod
    def consequence(cls, certified: bool) -> "ConsequenceVerdict":
        return cls(kind=CONSEQUENCE, certified=certified)

    @classmethod
    def countermodel(cls, witness: dict[int, Fraction]) -> "ConsequenceVerdict":
        return cls(kind=COUNTERMODEL, witness=witness)

    @classmethod
    def inconclusive(cls, bound: int) -> "ConsequenceVerdict":
        return cls(kind=INCONCLUSIVE, bound=bound)

    def to_json(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.kind == CONSEQUENCE:
            doc["certified"] = self.certified
        elif self.kind == COUNTERMODEL:
            assert self.witness is not None
            doc["witness"] = valuation_to_json(self.witness)
        else:
            doc["bound"] = self.bound
        return doc


@dataclass(frozen=True)
class StableVerdict:
    """Outcome of the boolean brute-force check.

    When unstable, ``deleted`` lists for each group the indices of the
    formulas removed and ``assignment`` satisfies the surviving conjunction.
    """

    stable: bool
    deleted: tuple[tuple[int, ...], ...] | None = None
    assignment: dict[int, int] | None = None

    def to_json(self) -> dict:
        doc: dict = {"stable": self.stable}
        if not self.stable:
            assert self.deleted is not None and self.assignment is not None
            doc["counterexample"] = {
                "deleted": [list(indices) for indices in self.deleted],
                "assignment": {
                    f"X{i}": self.assignment[i] for i in sorted(self.assignment)
                },
            }
        return doc


@dataclass(frozen=True)
class EStarResult:
    """Largest deletion allowance that keeps the conclusion entailed.

    ``e_star`` is None when the conclusion does not even follow with zero
    deletions.  ``checks_performed`` counts stability checks (logarithmic in
    the size of the dubious set).
    """

    e_star: int | None
    checks_performed: int

    def to_json(self) -> dict:
        return {"e_star": self.e_star, "checks_performed": self.checks_performed}


# ---------------------------------------------------------------------------
# boolean brute force


def stable_bruteforce(
    instance: StableInstance, budget: int = DEFAULT_BUDGET
) -> StableVerdict:
    """Decide stability by enumerating every deletion choice and assignment.

    Stable means: for every way of deleting exactly ``delete_count`` formulas
    from each group, the surviving conjunction is boolean-unsatisfiable.  The
    returned counterexample is the first hit in lexicographic order over
    (deletion choices, assignments).
    """
    combos = math.prod(
        math.comb(len(g.formulas), g.delete_count) for g in instance.groups
    )
    _check_budget(budget, "stability enumeration", 2, instance.n, combos)
    choice_spaces = [
        list(itertools.combinations(range(len(g.formulas)), g.delete_count))
        for g in instance.groups
    ]
    for deletion in itertools.product(*choice_spaces):
        survivors = [
            formula
            for group, removed in zip(instance.groups, deletion)
            for j, formula in enumerate(group.formulas)
            if j not in removed
        ]
        for bits in itertools.product((0, 1), repeat=instance.n):
            assignment = dict(enumerate(bits, start=1))
            if all(eval_bool(f, assignment) == 1 for f in survivors):
                return StableVerdict(False, deleted=deletion, assignment=assignment)
    return StableVerdict(True)


# ---------------------------------------------------------------------------
# consequence checks


def check_consequence_rho(
    output: ReductionOutput, budget: int = DEFAULT_BUDGET
) -> ConsequenceVerdict:
    """Complete consequence check for a reduced pair.

    The antecedent's models are exactly the 2^n points with coordinates in
    {1/(e+1), e/(e+1)}, so evaluating the consequent there decides the
    question outright: certified consequence if it is 1 everywhere, otherwise
    the first grid point (lexicographic, low coordinate first, the last
    variable varying fastest) where it falls short.  The grid is scanned by
    ``_scan`` on the integer numerators {1, e} over L = e+1 without the
    antecedent, since grid forcing makes every grid point one of its models,
    but the witness is re-verified against both formulas with ``eval_luk``.
    So the check reads only n, e and the consequent of ``output``: the
    antecedent is built only when a countermodel is found, and the size
    statistics are never built.
    """
    n = output.n
    _check_budget(budget, "grid enumeration", 2, n)
    var_order = range(1, n + 1)
    L = output.e + 1
    row = _scan(None, output.phi, var_order, (1, output.e), L)
    if row is None:
        return ConsequenceVerdict.consequence(certified=True)
    return _countermodel(output.theta, output.phi, var_order, row, L)


def denominator_bounded_fractions(max_denominator: int) -> list[Fraction]:
    """All rationals p/q in [0, 1] with q <= max_denominator, ascending.

    This is the Farey sequence of that order, generated term by term: after
    a/b and c/d comes (k*c - a)/(k*d - b) with k = (max_denominator + b) // d.
    """
    if max_denominator < 1:
        raise ValueError(f"max_denominator must be >= 1, got {max_denominator}")
    a, b, c, d = 0, 1, 1, max_denominator
    fractions = [Fraction(0)]
    while c <= max_denominator:
        k = (max_denominator + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        fractions.append(Fraction(a, b))
    return fractions


def find_countermodel(
    theta: LukFormula,
    phi: LukFormula,
    max_denominator: int,
    budget: int = DEFAULT_BUDGET,
) -> ConsequenceVerdict:
    """Scan all points with coordinate denominators <= max_denominator.

    Returns the lexicographically first countermodel (antecedent exactly 1,
    consequent < 1) or ``inconclusive_at_bound``.  Sound as a refuter always;
    complete only when the bound covers the pair's true vertex denominators.
    The points are scanned by ``_scan`` on integer numerators over
    L = lcm(1..max_denominator), which must stay below 2**63: L is checked
    first (its running lcm stops past 2**63 - 1), so a bound past 42 raises
    ``ValueError`` whatever the number of variables.  The witness is
    re-verified with ``eval_luk``.
    """
    L = 1  # lcm(1..max_denominator), or the first running lcm past int64
    for q in range(2, max_denominator + 1):
        if L >= 2**63:
            break
        L = math.lcm(L, q)
    _lattice_dtype(L)  # the ValueError past int64
    var_order = sorted(variables(theta) | variables(phi))
    fractions = denominator_bounded_fractions(max_denominator)
    _check_budget(budget, "countermodel scan", len(fractions), len(var_order))
    axis = [f.numerator * (L // f.denominator) for f in fractions]
    row = _scan(theta, phi, var_order, axis, L)
    if row is None:
        return ConsequenceVerdict.inconclusive(max_denominator)
    return _countermodel(theta, phi, var_order, row, L)


def _countermodel(
    theta: LukFormula,
    phi: LukFormula,
    var_order: Sequence[int],
    row: Sequence[int],
    L: int,
) -> ConsequenceVerdict:
    """Decode a scan hit into a witness and re-verify it with ``eval_luk``."""
    witness = {index: Fraction(value, L) for index, value in zip(var_order, row)}
    if eval_luk(theta, witness) != ONE or eval_luk(phi, witness) >= ONE:
        raise RuntimeError("lattice and scalar evaluators disagree on a countermodel")
    return ConsequenceVerdict.countermodel(witness)


def coefficient_bound(theta: LukFormula, phi: LukFormula) -> int:
    """Total connective count of the pair.

    Bounds the coefficient magnitude of the linear pieces of the two induced
    piecewise-linear functions; a heuristic denominator bound for
    ``find_countermodel``.
    """
    return connective_count(theta) + connective_count(phi)


# ---------------------------------------------------------------------------
# random generation and the equivalence harness


@dataclass(frozen=True)
class HarnessLimits:
    """Size caps for random instances; a formula's size is its connective count."""

    max_groups: int = 3
    max_group_size: int = 3
    max_vars: int = 3
    max_formula_size: int = 6

    def __post_init__(self) -> None:
        for name, least in (
            ("max_groups", 1),
            ("max_group_size", 1),
            ("max_vars", 1),
            ("max_formula_size", 0),
        ):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")


def random_bool_formula(
    rng: random.Random, n_vars: int, max_connectives: int
) -> BoolFormula:
    """Random boolean formula; deterministic given the rng state.

    A node with budget c is a variable when c <= 0 or with probability 0.3;
    otherwise a negation with budget c - 1 for its child, or a conjunction
    or disjunction that splits c - 1 between its children.  Nodes are drawn
    in pre-order, left child first, from an explicit stack that holds
    budgets still to draw and connectives waiting for their children.
    """
    todo: list = [max_connectives]
    done: list[BoolFormula] = []
    while todo:
        task = todo.pop()
        if isinstance(task, type):  # a connective whose children are done
            right = done.pop()
            done.append(task(right) if task is Not else task(done.pop(), right))
        elif task <= 0 or rng.random() < 0.3:
            done.append(Var(rng.randint(1, n_vars)))
        else:
            kind = rng.choice(("not", "and", "or"))
            if kind == "not":
                todo += [Not, task - 1]
            else:
                split = rng.randint(0, task - 1)
                todo += [And if kind == "and" else Or, task - 1 - split, split]
    return done[0]


def random_instance(rng: random.Random, limits: HarnessLimits) -> StableInstance:
    """Random instance within the limits; deterministic given the rng state."""
    n = rng.randint(1, limits.max_vars)
    groups = []
    for _ in range(rng.randint(1, limits.max_groups)):
        wanted = rng.randint(1, limits.max_group_size)
        formulas: list[BoolFormula] = []
        attempts = 0
        while len(formulas) < wanted and attempts < 50:
            attempts += 1
            candidate = random_bool_formula(
                rng, n, rng.randint(0, limits.max_formula_size)
            )
            if candidate not in formulas:
                formulas.append(candidate)
        delete = rng.randint(0, len(formulas) - 1)
        groups.append(FormulaGroup(tuple(formulas), delete))
    return StableInstance(n, tuple(groups))


def harness_trials(
    seed: int,
    trials: int,
    limits: HarnessLimits = HarnessLimits(),
    budget: int = DEFAULT_BUDGET,
) -> Iterator[dict]:
    """Generate instances and compare the two decision routes, one record each.

    Each record carries the full instance, both verdicts and their agreement;
    identical seeds yield identical streams.  A negative ``trials`` is a
    ``ValueError`` at the call, before the stream is returned.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    return _trials(random.Random(seed), trials, limits, budget)


def _trials(
    rng: random.Random, trials: int, limits: HarnessLimits, budget: int
) -> Iterator[dict]:
    for trial in range(trials):
        instance = random_instance(rng, limits)
        stable = stable_bruteforce(instance, budget).stable
        verdict = check_consequence_rho(reduce_instance(instance), budget)
        entailed = verdict.kind == CONSEQUENCE
        yield {
            "trial": trial,
            "instance": instance_to_json(instance),
            "stable": stable,
            "consequence": entailed,
            "agree": stable == entailed,
        }


# ---------------------------------------------------------------------------
# robustness threshold


def estar(
    delta: Sequence[BoolFormula],
    nabla: Sequence[BoolFormula],
    omega: BoolFormula,
    budget: int = DEFAULT_BUDGET,
) -> EStarResult:
    """Largest e such that the conclusion survives deleting e dubious formulas.

    For each candidate e the instance (delta + {~omega} with no deletions;
    nabla with e deletions) is reduced and decided on the grid.  Stability is
    downward monotone in e, so binary search over 0..card(nabla)-1 applies;
    None is returned when even e = 0 fails (the conclusion never followed).
    """
    nabla_set = tuple(dict.fromkeys(nabla))
    if not nabla_set:
        raise ValueError("the dubious formula set must be nonempty")
    core = tuple(dict.fromkeys([*delta, Not(omega)]))
    n = max(
        index
        for formula in core + nabla_set
        for index in variables(formula)
    )
    checks = 0

    def stable_at(e: int) -> bool:
        nonlocal checks
        checks += 1
        instance = StableInstance(
            n, (FormulaGroup(core, 0), FormulaGroup(nabla_set, e))
        )
        verdict = check_consequence_rho(reduce_instance(instance), budget)
        return verdict.kind == CONSEQUENCE

    if not stable_at(0):
        return EStarResult(None, checks)
    low, high = 0, len(nabla_set) - 1
    while low < high:
        mid = (low + high + 1) // 2
        if stable_at(mid):
            low = mid
        else:
            high = mid - 1
    return EStarResult(low, checks)
