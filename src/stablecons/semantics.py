"""Exact rational semantics for both formula languages.

Every semantic value is a ``fractions.Fraction`` confined to [0, 1] and all
comparisons (in particular "equals 1") are exact; there is no floating point
anywhere.  Valuations are finite maps from variable indices to values over a
declared variable set.

Every Łukasiewicz connective is positively homogeneous: scaling all inputs
and the top value 1 by D > 0 scales the result by D.  Both evaluators use
this and compute on integer numerators.  The scalar reference evaluator
takes D, the lcm of the valuation's denominators, folds Python ints (which
have no size cap) and returns the result as a ``Fraction`` over D.  The
batch evaluator works on the integer lattice {0, 1/L, ..., L/L}: truncated
addition and its dual, min, max and complement all stay on the lattice, so
int64 arithmetic is exact and enumeration-heavy searches can be vectorized.
It takes one broadcastable array per variable, so a search can lay its
points out as a grid of axes and compute each subformula only on the axes
of the variables it mentions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .formulas import (
    And,
    BoolFormula,
    Join,
    LukFormula,
    Meet,
    Neg,
    Not,
    Oplus,
    Or,
    Otimes,
    Var,
    fold,
)

ZERO = Fraction(0)
ONE = Fraction(1)

Valuation = Mapping[int, Fraction]
BoolAssignment = Mapping[int, int]


class UnboundVariableError(LookupError):
    """A formula mentions a variable the valuation does not declare."""

    def __init__(self, index: int) -> None:
        super().__init__(f"X{index} is not bound by the valuation")
        self.index = index


def parse_rational01(text: str) -> Fraction:
    """Parse "p/q", "0" or "1" into an exact value in [0, 1]."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc
    if not ZERO <= value <= ONE:
        raise ValueError(f"value {text.strip()!r} lies outside [0, 1]")
    return value


def valuation_to_json(valuation: Valuation) -> dict[str, str]:
    return {f"X{index}": str(valuation[index]) for index in sorted(valuation)}


def _lookup(binding: Mapping[int, object]):
    """Fold operation reading a variable's value from ``binding``."""

    def value(node: Var):
        try:
            return binding[node.index]
        except KeyError:
            raise UnboundVariableError(node.index) from None

    return value


def _luk_connectives(top, lo, hi) -> dict:
    """Fold operations of the Łukasiewicz connectives on values in [0, top].

    ``lo`` and ``hi`` are the minimum and maximum: the builtins on Python-int
    numerators with top D, ``np.minimum``/``np.maximum`` on lattice
    numerators with top L.
    """
    zero = top - top
    return {
        Neg: lambda node, a: top - a,
        Oplus: lambda node, a, b: lo(top, a + b),
        Otimes: lambda node, a, b: hi(zero, a + b - top),
        Meet: lambda node, a, b: lo(a, b),
        Join: lambda node, a, b: hi(a, b),
    }


_BOOL = {
    Not: lambda node, a: 1 - a,
    And: lambda node, a, b: a & b,
    Or: lambda node, a, b: a | b,
}


def eval_luk(formula: LukFormula, valuation: Valuation) -> Fraction:
    """Value of a many-valued formula at a point, as an exact rational.

    The valuation's values are scaled to integer numerators over D, the lcm
    of their denominators, and the formula is folded over those Python ints
    with top value D, so no intermediate ``Fraction`` is built.  The result
    is that numerator over D, so its denominator divides D.
    """
    D = math.lcm(*(value.denominator for value in valuation.values()))
    scaled = {
        index: value.numerator * (D // value.denominator)
        for index, value in valuation.items()
    }
    table = _luk_connectives(D, min, max)
    table[Var] = _lookup(scaled)
    return Fraction(fold(formula, table), D)


def eval_bool(formula: BoolFormula, assignment: BoolAssignment) -> int:
    """Classical 0/1 truth value of a boolean formula."""
    return fold(formula, {**_BOOL, Var: _lookup(assignment)})


def lattice_axis(values, denominator: int) -> np.ndarray:
    """``values`` as int64 numerators over ``denominator``, checked.

    The denominator must satisfy 1 <= L < 2**62: every intermediate value of
    ``eval_luk_lattice`` lies in [-L, 2L], so this is the bound under which
    int64 arithmetic stays exact.  It is checked before any value is
    converted, so an oversized lattice is a ``ValueError``, never an
    overflow.  Every value must lie in [0, L].
    """
    L = int(denominator)
    if L < 1:
        raise ValueError(f"denominator must be >= 1, got {L}")
    if L >= 2**62:
        raise ValueError(f"denominator {L} too large for int64 lattice arithmetic")
    try:
        arr = np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise ValueError("lattice coordinates must lie in [0, denominator]") from None
    if arr.size and (arr.min() < 0 or arr.max() > L):
        raise ValueError("lattice coordinates must lie in [0, denominator]")
    return arr


def eval_luk_lattice(
    formula: LukFormula,
    var_order: Sequence[int],
    numerators: Sequence | np.ndarray,
    denominator: int,
    *,
    checked: bool = False,
) -> np.ndarray:
    """Evaluate one formula at many lattice points at once, exactly.

    ``numerators`` holds one integer array per variable of ``var_order``: the
    coordinates of that variable scaled by ``denominator``.  A 2-D array is
    read column by column, so an (npoints, len(var_order)) matrix gives one
    coordinate row per point.  The arrays broadcast against each other, and
    each subformula is computed only on the broadcast of the arrays of the
    variables it mentions: one whose variables are all bound to scalars is
    computed once, as a scalar.  Returns the value numerators over the same
    denominator, shaped like that broadcast.  Agrees with ``eval_luk``
    pointwise.

    Each array is checked with ``lattice_axis`` unless ``checked`` says the
    caller already did so for the values it draws the arrays from.
    """
    L = int(denominator)
    if isinstance(numerators, np.ndarray):
        numerators = numerators.T
    if len(numerators) != len(var_order):
        raise ValueError(
            f"numerators must hold {len(var_order)} coordinate arrays, "
            f"got {len(numerators)}"
        )
    if not checked:
        numerators = [lattice_axis(values, L) for values in numerators]
    table = _luk_connectives(L, np.minimum, np.maximum)
    table[Var] = _lookup(dict(zip(var_order, numerators)))
    return fold(formula, table)
