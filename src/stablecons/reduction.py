"""Transforms from boolean deletion-tolerant instances to many-valued pairs.

The pipeline: negation normal form, the literal-wise many-valued translation
(``ddagger``), lifted 0/1 points sitting at distance 1/(e+1) inside [0, 1],
the grid-forcing antecedent whose models are exactly those lifted points, and
the full reduction producing an antecedent/consequent pair together with size
statistics.

``nnf`` and ``ddagger`` are one pass each that carries the polarity of every
node down the tree and builds only the image it returns.  The reduction
builds only what a verdict reads: ``reduce_instance`` builds the consequent,
and the antecedent and the size statistics are built the first time they are
read.  The grid check reads the antecedent only to re-verify a countermodel,
and no verdict reads the statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from typing import Any

from .formulas import (
    And,
    BoolFormula,
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
    _rename,
    bool_to_text,
    iff,
    implies,
    measure,
    multiple,
    parse_bool,
    power,
    variables,
)


class InstanceError(ValueError):
    """An instance violates a structural invariant."""


# ---------------------------------------------------------------------------
# formula transforms


def _nnf_image(formula: BoolFormula, positive, negative, conj, disj):
    """The image of the NNF of ``formula``, built in one pass.

    A pre-order walk carries each node's polarity, flipping it under every
    ``Not``; a post-order build then maps a literal to ``positive(x)`` or
    ``negative(x)`` and a conjunction or disjunction to ``conj`` or
    ``disj``, swapped under odd polarity (De Morgan).  Only the returned
    image is built.
    """
    signed: list[tuple[BoolFormula, bool]] = []
    stack = [(formula, True)]
    while stack:
        node, positive_sign = stack.pop()
        kind = type(node)
        if kind is Not:
            stack.append((node.child, not positive_sign))
            continue
        signed.append((node, positive_sign))
        if kind is And or kind is Or:
            stack.append((node.left, positive_sign))
            stack.append((node.right, positive_sign))
        elif kind is not Var:
            raise TypeError(f"unexpected node {kind.__name__}")
    results: list = []
    for node, positive_sign in reversed(signed):  # children first, left first
        kind = type(node)
        if kind is Var:
            results.append(positive(node) if positive_sign else negative(node))
        else:
            right = results.pop()
            combine = conj if (kind is And) == positive_sign else disj
            results[-1] = combine(results[-1], right)
    return results[0]


def nnf(formula: BoolFormula) -> BoolFormula:
    """Negation normal form: push negation onto variables, drop double ones.

    Equivalent over 0/1 and preserves the multiset of variable occurrences.
    """
    return _nnf_image(formula, lambda x: x, Not, And, Or)


def ddagger(formula: BoolFormula) -> LukFormula:
    """Literal-wise many-valued translation of a boolean formula.

    The formula is read in negation normal form: a positive literal X becomes
    ``~X \\/ (X (+) X)`` and a negated literal ~X becomes
    ``X \\/ ~(X (*) X)``; conjunction and disjunction map to ``Meet`` and
    ``Join``.  The NNF is not built on its own: one pass carries each node's
    polarity and builds only the translation.  At a point lifted with
    parameter e the value is exactly 1 when the boolean formula is satisfied
    and exactly e/(e+1) otherwise.
    """
    return _nnf_image(
        formula,
        lambda x: Join(Neg(x), Oplus(x, x)),
        lambda x: Join(x, Neg(Otimes(x, x))),
        Meet,
        Join,
    )


def constraint_formula(n: int, e: int) -> LukFormula:
    """Antecedent whose models assign every X_t a value in {1/(e+1), e/(e+1)}.

    The conjunction over t = 1..n of
    ``(X_t^e <-> ~X_t) \\/ (X_t <-> ~(e.X_t))``: the left disjunct holds
    exactly at e/(e+1), the right one exactly at 1/(e+1).
    """
    if n < 1:
        raise ValueError(f"variable count must be >= 1, got {n}")
    if e < 2:
        raise ValueError(f"grid parameter must be >= 2, got {e}")

    def unit(t: int) -> LukFormula:
        x = Var(t)
        return Join(iff(power(x, e), Neg(x)), iff(x, Neg(multiple(e, x))))

    return reduce(Meet, (unit(t) for t in range(1, n + 1)))


# ---------------------------------------------------------------------------
# instances


@dataclass(frozen=True, slots=True)
class FormulaGroup:
    """A set of distinct boolean formulas with a deletion allowance."""

    formulas: tuple[BoolFormula, ...]
    delete_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "formulas", tuple(self.formulas))
        if not self.formulas:
            raise InstanceError("a group must contain at least one formula")
        if len(set(self.formulas)) != len(self.formulas):
            raise InstanceError("group formulas must be structurally distinct")
        if not 0 <= self.delete_count < len(self.formulas):
            raise InstanceError(
                f"delete count must satisfy 0 <= d < {len(self.formulas)},"
                f" got {self.delete_count}"
            )


@dataclass(frozen=True, slots=True)
class StableInstance:
    """Groups of boolean formulas over X_1..X_n with per-group deletions;
    ``used``, derived by validation, lists the indices that occur, sorted."""

    n: int
    groups: tuple[FormulaGroup, ...]
    used: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(self.groups))
        if self.n < 1:
            raise InstanceError(f"variable count must be >= 1, got {self.n}")
        if not self.groups:
            raise InstanceError("an instance needs at least one group")
        used: set[int] = set()
        for group in self.groups:
            for formula in group.formulas:
                indices = variables(formula)
                high = max(indices)
                if high > self.n:
                    raise InstanceError(
                        f"formula uses X{high} but the instance declares n={self.n}"
                    )
                used |= indices
        object.__setattr__(self, "used", tuple(sorted(used)))


def instance_from_json(doc: Any) -> StableInstance:
    """Read {"n": int, "groups": [{"formulas": [...], "delete": int}, ...]}."""
    if not isinstance(doc, dict):
        raise InstanceError("instance document must be a JSON object")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool):
        raise InstanceError('"n" must be an integer')
    raw_groups = doc.get("groups")
    if not isinstance(raw_groups, list) or not raw_groups:
        raise InstanceError('"groups" must be a nonempty list')
    groups = []
    for gi, raw in enumerate(raw_groups):
        if not isinstance(raw, dict):
            raise InstanceError(f"groups[{gi}] must be an object")
        texts = raw.get("formulas")
        if not isinstance(texts, list) or not texts:
            raise InstanceError(f'groups[{gi}].formulas must be a nonempty list')
        formulas = []
        for fi, text in enumerate(texts):
            if not isinstance(text, str):
                raise InstanceError(f"groups[{gi}].formulas[{fi}] must be a string")
            try:
                formulas.append(parse_bool(text))
            except FormulaSyntaxError as exc:
                raise InstanceError(f"groups[{gi}].formulas[{fi}]: {exc}") from exc
        delete = raw.get("delete")
        if not isinstance(delete, int) or isinstance(delete, bool):
            raise InstanceError(f"groups[{gi}].delete must be an integer")
        groups.append(FormulaGroup(tuple(formulas), delete))
    return StableInstance(n, tuple(groups))


def instance_to_json(instance: StableInstance) -> dict[str, Any]:
    return {
        "n": instance.n,
        "groups": [
            {
                "formulas": [bool_to_text(f) for f in group.formulas],
                "delete": group.delete_count,
            }
            for group in instance.groups
        ],
    }


def instance_length(instance: StableInstance) -> int:
    """Symbol count of an instance in the unary-index alphabet.

    Sums the canonical symbol counts of all formulas plus each deletion count
    written in unary (d+1 symbols, so a zero still occupies one symbol).
    """
    total = sum(
        measure(formula).paper_symbol_count
        for group in instance.groups
        for formula in group.formulas
    )
    total += sum(group.delete_count + 1 for group in instance.groups)
    return total


# ---------------------------------------------------------------------------
# the reduction


@dataclass(frozen=True, slots=True)
class ReductionStats:
    instance_length: int
    output_length: int
    n: int
    ratio: Fraction  # output_length / (n * instance_length)


@dataclass(frozen=True)
class ReductionOutput:
    """Antecedent/consequent pair produced from one instance.

    The consequent ``phi``, the grid parameter ``e``, the variable map, the
    normalized instance and its variable count ``n`` are built by
    ``reduce_instance``.  The grid antecedent ``theta`` and the size
    accounting ``stats`` are built on first read and then cached: the grid
    check scans the grid points directly and reads ``theta`` only to
    re-verify a countermodel, and no verdict reads ``stats``.
    """

    phi: LukFormula
    e: int
    var_map: dict[int, int]  # original index -> normalized index
    instance: StableInstance  # the variable-normalized instance
    n: int

    @cached_property
    def theta(self) -> LukFormula:
        return constraint_formula(self.n, self.e)

    @cached_property
    def stats(self) -> ReductionStats:
        """Lengths in the unary-index alphabet, taken on the normalized
        instance, and the ratio output/(n * instance)."""
        inst_len = instance_length(self.instance)
        out_len = (
            measure(self.theta).paper_symbol_count
            + measure(self.phi).paper_symbol_count
        )
        return ReductionStats(
            instance_length=inst_len,
            output_length=out_len,
            n=self.n,
            ratio=Fraction(out_len, self.n * inst_len),
        )


def normalize_variables(instance: StableInstance) -> tuple[StableInstance, dict[int, int]]:
    """Renumber the variables that actually occur to a gapless 1..m.

    The consequent formula references X_1 and the grid antecedent covers all
    of 1..n, so an instance is renumbered contiguously when ``instance.used``
    (validated to lie inside 1..n) has fewer than n entries; n is never
    enumerated.  Returns the (possibly unchanged) instance and the
    original-to-normalized index map over the used variables.
    """
    used = instance.used
    mapping = {old: new for new, old in enumerate(used, start=1)}
    if len(used) == instance.n:
        return instance, mapping
    groups = [
        FormulaGroup([_rename(f, mapping) for f in group.formulas], group.delete_count)
        for group in instance.groups
    ]
    return StableInstance(len(used), groups), mapping


def consequent(instance: StableInstance) -> LukFormula:
    """Join, over the groups, of "the translated block implies the (d+1)-th
    strong power of X1 \\/ ~X1".

    At a lifted grid point each group implication equals 1 exactly when more
    than ``delete_count`` of the group's formulas are falsified there, so the
    join falls below 1 exactly at (the lift of) an assignment that keeps
    every group within its deletion allowance simultaneously, i.e. at a
    witness against stability.  Combining with the idempotent conjunction
    instead would additionally reject instances whose groups are only
    jointly, not individually, over-determined.  It does not depend on e.
    """
    target_base = Join(Var(1), Neg(Var(1)))

    def group_formula(group: FormulaGroup) -> LukFormula:
        block = reduce(Otimes, (ddagger(f) for f in group.formulas))
        return implies(block, power(target_base, group.delete_count + 1))

    return reduce(Join, (group_formula(g) for g in instance.groups))


def reduce_instance(instance: StableInstance) -> ReductionOutput:
    """The full reduction: consequent now, grid antecedent and size
    accounting on first read (see ``ReductionOutput``).

    The instance is variable-normalized first, and e = max(2, the largest
    deletion count).
    """
    normalized, var_map = normalize_variables(instance)
    e = max(2, max(group.delete_count for group in normalized.groups))
    return ReductionOutput(
        phi=consequent(normalized),
        e=e,
        var_map=var_map,
        instance=normalized,
        n=normalized.n,
    )
