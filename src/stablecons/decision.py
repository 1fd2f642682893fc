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

Both consequence checks run on one exact lattice scan, ``_scan``.  Their
points have coordinates k/L for a fixed L (e+1 on the grid, the lcm of
1..max_denominator in pair mode), so the scan evaluates the formulas on
integer numerators, in the narrowest integer dtype that holds every value in
[0, L] (int8 on every grid with e <= 126); L must stay below 2**63, which
admits max_denominator <= 42, and pair mode checks that before anything
else.  The scan builds its axis in that dtype once, and compiles each
formula once into a straight-line program that computes each distinct
subterm once; every batch then runs the programs with the runner
``semantics._run``.  The points fall into rows: a row fixes the leading
variables and runs the last few, enough for 64 points, over the whole axis;
a scan of at most ``_WHOLE_SCAN`` points is one row.  Rows are scanned in
order, in batches of 64 points growing four-fold up to ``_SCAN_CHUNK``, each
starting where the previous one ended.  A batch is one broadcast slab, each
trailing variable on a dimension of its own, so a subformula is computed
only on the axes of the variables it mentions.  In pair mode the rows are
first bounded: every connective is monotone in each argument and negation
antitone, so running the programs on the ends of a row's box (its leading
coordinates fixed, the rest spanning the axis) encloses the antecedent and
the consequent on the whole row, in the same exact integers.  A row whose
antecedent cannot reach 1, or whose consequent cannot fall below 1, holds no
countermodel and is dropped before it is scanned.  On the rows that remain,
the antecedent is evaluated on the slab first and the consequent only where
the antecedent is 1.  The first hit in the slab's C order is the first in
the scan order; it is decoded into a ``Fraction`` witness and re-verified
with the scalar ``eval_luk`` before it is reported.

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

import numpy as np

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
    _bound_luk_lattice,
    _lattice_connectives,
    _lattice_dtype,
    _run,
    compile_luk,
    eval_bool,
    eval_luk,
    valuation_to_json,
)

DEFAULT_BUDGET = 5_000_000

_PRINTED_BITS = 2048  # below 640 digits, the least int printing limit Python takes


class BudgetExceededError(Exception):
    """An enumeration would exceed its budget; no verdict was produced.

    ``needed`` is the step count, or the string "at least 2**k" when the
    count reaches 2**2048.
    """

    def __init__(self, what: str, needed: int | str, budget: int) -> None:
        super().__init__(f"{what} needs {needed} steps, budget is {budget}")
        self.needed = needed
        self.budget = budget


def _check_budget(budget: int, what: str, base: int, exponent: int, factor: int = 1):
    """Raise ``BudgetExceededError`` if factor * base**exponent > budget.

    With factor and base at least 1, the bit lengths alone give a k with
    count >= 2**k.  The count is built only while k is below the budget's
    bit length (it may fit) or below ``_PRINTED_BITS`` (it prints exactly).
    Past both it exceeds the budget and is reported as "at least 2**k": a
    declared n of 10**10 would make 2**n a 1.25 GB int, and Python prints no
    int past 4300 digits.
    """
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
    ``_scan`` on the integer numerators {1, e} over L = e+1, row by row in
    batches of up to ``_SCAN_CHUNK`` points; the antecedent is neither
    bounded nor evaluated there, since grid forcing makes every grid point
    one of its models, but the witness is re-verified against both formulas
    with ``eval_luk``.  So the check reads only n, e and the consequent of
    ``output``: the antecedent is built only when a countermodel is found,
    and the size statistics are never built.
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
    ``ValueError`` whatever the number of variables.  Rows whose bounds rule
    out a countermodel are dropped unscanned; each batch evaluates the
    antecedent first and the consequent only at the antecedent's models; the
    witness is re-verified with ``eval_luk``.
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


_WHOLE_SCAN = 1 << 12
_FIRST_CHUNK = 64
_SCAN_CHUNK = 1 << 16


def _scan(
    theta: LukFormula | None,
    phi: LukFormula,
    var_order: Sequence[int],
    axis: Sequence[int],
    L: int,
) -> tuple[int, ...] | None:
    """First point of axis^m where phi < L (and theta = L, if theta is given).

    Every coordinate of a point is an entry of ``axis``, a numerator over L,
    one coordinate per variable of ``var_order``.  Points are scanned in
    lexicographic order of their axis positions, the last variable varying
    fastest.  The axis is converted once to the dtype of L
    (``_lattice_dtype``), the dtype of every slab, and not checked: the
    callers build its numerators in [0, L].  Theta and phi are compiled
    once, and the table of lattice connectives is built once.

    The points fall into rows: a row fixes the first m-k variables and runs
    the last k over the whole axis, with k the smallest value (at least 1,
    at most m) for which a row holds ``_FIRST_CHUNK`` points.  Rows are
    scanned in order, in batches (see ``_scan_rows``) of ``_FIRST_CHUNK``
    points growing four-fold up to ``_SCAN_CHUNK``, at least one row each.
    Each batch starts where the previous one ended, so an early hit stays
    cheap and no point is scanned twice.  A scan of at most ``_WHOLE_SCAN``
    points is one row (k = m) and so one batch, in which every variable has
    a broadcast dimension of its own: a batch of several rows puts all the
    leading variables on one dimension, which on grids of 2**8 to 2**10
    points made the scan about 8% slower.

    With theta given, rows are first bounded in blocks of at most
    ``_SCAN_CHUNK // 2`` rows (see ``_viable_rows``), and a row is dropped
    when theta's upper bound on it is below L or phi's lower bound is L; the
    batches are then filled from the surviving rows, in order, bounding
    further blocks as they run short.  Both tests are sound, since no point
    of a dropped row is a countermodel, so the first hit is still the first
    countermodel in scan order.  The grid check has no antecedent and scans
    every row.  Returns the first hit's numerators, or None.
    """
    values = np.array(axis, dtype=_lattice_dtype(L))
    top = values.dtype.type(L)
    table = _lattice_connectives(top)
    theta_program = None if theta is None else compile_luk(theta)
    phi_program = compile_luk(phi)
    base, m = len(values), len(var_order)
    k = 1
    while k < m and (base**k < _FIRST_CHUNK or base**m <= _WHOLE_SCAN):
        k += 1
    rows, block = base ** (m - k), max(1, _SCAN_CHUNK // 2)
    size = _FIRST_CHUNK
    pending = np.empty((0, m - k), dtype=np.intp)
    taken = 0  # rows decoded so far
    while True:
        wanted = max(1, size // base**k)
        while len(pending) < wanted and taken < rows:
            count = min(rows - taken, wanted - len(pending) if theta is None else block)
            fresh = _row_positions(taken, count, base, m - k)
            if theta is not None:
                fresh = _viable_rows(
                    theta_program, phi_program, var_order, values, top, fresh
                )
            taken += count
            pending = np.concatenate((pending, fresh))
        if not len(pending):
            return None
        hit = _scan_rows(
            theta_program, phi_program, var_order, values, top, table, pending[:wanted]
        )
        if hit is not None:
            return hit
        pending = pending[wanted:]
        size = min(4 * size, _SCAN_CHUNK)


def _row_positions(first: int, count: int, base: int, width: int) -> np.ndarray:
    """Axis positions fixed by rows first..first+count-1, one row per line.

    Row r fixes the ``width`` leading variables to the base-``base`` digits
    of r, most significant first.  ``first`` is a Python int, so rows past
    2**63 decode exactly: the t lowest digits, with base**t >= count, come
    from first's low part plus the offsets within the block, in int64; the
    digits above them are those of first's high part, or of that plus one
    on the rows past a carry.
    """
    t = 0
    while t < width and base**t < count:
        t += 1
    high, low = divmod(first, base**t)
    leading = [[], []]  # the digits of high and of high + 1, least first
    for digits, row in zip(leading, (high, high + 1)):
        for _ in range(width - t):
            row, digit = divmod(row, base)
            digits.append(digit)
    leading = np.array(leading, dtype=np.intp)[:, ::-1]
    if t == 0:  # one row
        return leading[:1]
    offsets = np.arange(low, low + count)
    positions = np.empty((count, width), dtype=np.intp)
    positions[:, : width - t] = leading[(offsets >= base**t).astype(np.intp)]
    positions[:, width - t :] = offsets[:, None] // base ** np.arange(t - 1, -1, -1) % base
    return positions


def _viable_rows(
    theta: tuple[tuple, ...],
    phi: tuple[tuple, ...],
    var_order: Sequence[int],
    values: np.ndarray,
    top: np.integer,
    rows: np.ndarray,
) -> np.ndarray:
    """The rows on which a countermodel is not ruled out by bounds.

    Each row is a box: its leading coordinates are points, and each of the
    last k variables spans [min, max] of the axis.  ``_bound_luk_lattice``
    encloses theta and phi over every box at once, on arrays of at most
    two entries per row.  A row stays when theta's upper bound is L, and
    then phi's lower bound is below L; phi is bounded only on the rows that
    theta keeps.  ``top`` is L in the dtype of ``values``.
    """
    width = rows.shape[1]
    whole = np.array([[values.min()], [values.max()]], dtype=values.dtype)

    def bounds(program: tuple[tuple, ...], rows: np.ndarray) -> np.ndarray:
        binding = {index: whole for index in var_order[width:]}
        for index, column in zip(var_order, rows.T):
            binding[index] = values[column][None]  # a point: lower = upper
        return _bound_luk_lattice(program, binding, top)

    rows = rows[np.broadcast_to(bounds(theta, rows)[-1] == top, len(rows))]
    if len(rows):
        rows = rows[np.broadcast_to(bounds(phi, rows)[0] < top, len(rows))]
    return rows


def _scan_rows(
    theta: tuple[tuple, ...] | None,
    phi: tuple[tuple, ...],
    var_order: Sequence[int],
    values: np.ndarray,
    top: np.integer,
    table: dict,
    rows: np.ndarray,
) -> tuple[int, ...] | None:
    """First hit among the points of some rows, as one broadcast slab.

    ``rows`` holds, one row per line in scan order, the axis positions of
    the leading variables; each of the remaining k variables runs over the
    whole axis on its own broadcast dimension.  One row binds its leading
    coordinates as scalars of the axis dtype; several bind each as an array
    along one first dimension that they share, one entry per row, so the
    slab's C order is the scan order either way.  The programs run on that
    binding with ``table``, the lattice connectives over ``top``, which is L
    in the dtype of ``values``: the axis is already checked.  With theta
    given, theta is evaluated on the slab and phi only on the points where
    theta = L, gathered in C order by ``np.nonzero``.
    """
    base = len(values)
    k = len(var_order) - rows.shape[1]
    axes = [values.reshape((base,) + (1,) * (k - 1 - t)) for t in range(k)]
    shape = (base,) * k
    if len(rows) == 1:
        fixed = [values[position] for position in rows[0]]
    else:
        fixed = []
        axes = [values[column].reshape((-1,) + (1,) * k) for column in rows.T] + axes
        shape = (len(rows),) + shape
    if theta is not None:
        value = _run(theta, dict(zip(var_order, fixed + axes)), table)
        models = np.broadcast_to(value == top, shape)
        if not models.any():  # cheaper than an empty np.nonzero
            return None
        models = np.nonzero(models)
        lead = [values[column[models[0]]] for column in rows.T] if len(rows) > 1 else []
        axes = lead + [values[position] for position in models[-k:]]
        shape = models[0].shape
    value = _run(phi, dict(zip(var_order, fixed + axes)), table)
    misses = np.broadcast_to(value < top, shape)
    first = int(misses.argmax())
    if not misses.flat[first]:
        return None
    index = np.unravel_index(first, shape)
    hit = fixed + [np.broadcast_to(a, shape)[index] for a in axes]
    return tuple(int(value) for value in hit)


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
    """Size caps for random instances; "size" caps the connective count."""

    max_groups: int = 3
    max_group_size: int = 3
    max_vars: int = 3
    max_connectives: int = 6


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
                rng, n, rng.randint(0, limits.max_connectives)
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
    identical seeds yield identical streams.
    """
    rng = random.Random(seed)
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
