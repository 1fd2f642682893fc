"""Exact rational semantics for both formula languages.

Every semantic value is a ``fractions.Fraction`` confined to [0, 1] and all
comparisons (in particular "equals 1") are exact; there is no floating point
anywhere.  Valuations are finite maps from variable indices to values over a
declared variable set.

Every Łukasiewicz connective is positively homogeneous: scaling all inputs
and the top value 1 by D > 0 scales the result by D.  Both evaluators use
this and compute on integer numerators.  The scalar reference evaluator
takes D, the lcm of the valuation's denominators, folds Python ints (which
have no size cap) over the formula tree and returns the result as a
``Fraction`` over D.  The batch evaluator works on the integer lattice
{0, 1/L, ..., L/L}.  Its connectives are written so that every intermediate
value stays in [0, L], so fixed-width integer arithmetic is exact in the
narrowest signed dtype that holds L (int8 up to L = 127, int16, int32, then
int64 up to L = 2**63 - 1), and enumeration-heavy searches can be
vectorized.  It runs a formula compiled by ``compile_luk`` into a
straight-line program with one instruction per distinct subterm, and takes
one broadcastable array per variable, so a search can lay its points out as
a grid of axes and compute each subformula only on the axes of the variables
it mentions.  Its one caller is the lattice scan of ``decision``, which
builds its axis in the lattice dtype, compiles each formula once per scan
and calls the runner, ``_run``, on every batch.  The same runner, given
stacked (lower, upper) numerators and a negation that swaps the two, bounds
a program over boxes of lattice points (interval evaluation), since every
connective is monotone in each argument and negation is antitone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

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
    _nodes,
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


def _lattice_connectives(top) -> dict:
    """The connectives on arrays of numerators in [0, top], as ufunc calls.

    min(top, a + b) is computed as a + min(b, top - a), and
    max(0, a + b - top) as a - min(a, top - b): NumPy's minimum of an array
    and a scalar is several times slower than that of two arrays, while
    subtraction from a scalar is not.  Every intermediate value of these
    forms lies in [0, top].
    """

    def oplus(a, b):
        total = np.minimum(b, top - a)
        total += a  # in place: the minimum is a new array (or a scalar)
        return total

    return {
        Neg: lambda a: top - a,
        Oplus: oplus,
        Otimes: lambda a, b: a - np.minimum(a, top - b),
        Meet: np.minimum,
        Join: np.maximum,
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
    table = {
        Var: _lookup(scaled),
        Neg: lambda node, a: D - a,
        Oplus: lambda node, a, b: min(D, a + b),
        Otimes: lambda node, a, b: max(0, a + b - D),
        Meet: lambda node, a, b: min(a, b),
        Join: lambda node, a, b: max(a, b),
    }
    return Fraction(fold(formula, table), D)


def eval_bool(formula: BoolFormula, assignment: BoolAssignment) -> int:
    """Classical 0/1 truth value of a boolean formula."""
    return fold(formula, {**_BOOL, Var: _lookup(assignment)})


# each dtype with the largest L it holds
_LATTICE_DTYPES = [
    (np.iinfo(dtype).max, np.dtype(dtype))
    for dtype in (np.int8, np.int16, np.int32, np.int64)
]


def _lattice_dtype(denominator: int) -> np.dtype:
    """The narrowest signed integer dtype holding every value in [0, L].

    Every intermediate value of the connectives over L = ``denominator``
    lies there in the forms of ``_lattice_connectives``, so arithmetic in
    this dtype is exact.  L must satisfy 1 <= L <= 2**63 - 1, the bound for
    int64.
    """
    L = int(denominator)
    if L < 1:
        raise ValueError(f"denominator must be >= 1, got {L}")
    for largest, dtype in _LATTICE_DTYPES:
        if L <= largest:
            return dtype
    raise ValueError(f"denominator {L} too large for int64 lattice arithmetic")


def compile_luk(formula: LukFormula) -> tuple[tuple, ...]:
    """Compile a formula into a hash-consed straight-line program.

    The program is a tuple of instructions, one slot per distinct subterm.
    Instruction i computes slot i and is ``(Var, index, None, dead)`` for a
    variable, ``(kind, a, None, dead)`` for a negation of slot a and
    ``(kind, a, b, dead)`` for a binary connective on slots a and b; the
    last instruction computes the root.  ``dead`` lists the slots whose last
    use is this instruction, so a runner can free them after it.

    One post-order pass numbers the subterms by value: a node's key is
    (``Var``, index) or (type, child slots), so equal subterms share one
    slot and no node is hashed (a node's hash walks its whole subtree).  The
    pass keeps a stack of slots as ``fold`` keeps one of results, without
    its call per node, since it runs on every scan.  Instructions come in
    post-order of first occurrence, left child first.  Each slot dies at
    the last instruction that reads it; the root never dies.
    """
    code: list[tuple] = []
    slots: dict[tuple, int] = {}
    last_read: dict[int, int] = {}
    stack: list[int] = []
    for node in reversed(_nodes(formula)):  # children before parents, left first
        kind = type(node)
        if kind is Var:
            key = (Var, node.index, None)
        elif kind is Neg:
            key = (Neg, stack.pop(), None)
        else:
            right = stack.pop()
            key = (kind, stack.pop(), right)
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = len(code)
            code.append(key)
            if kind is not Var:
                last_read[key[1]] = slot
                if key[2] is not None:
                    last_read[key[2]] = slot
        stack.append(slot)
    dead: list[list[int]] = [[] for _ in code]
    for read, reader in last_read.items():
        dead[reader].append(read)
    # from a list, not a generator: on CPython 3.11, tuple() of a generator
    # left objects that only the cycle collector frees, and a harness run's
    # peak memory grew by about 1.5 MB
    return tuple([(*key, tuple(freed)) for key, freed in zip(code, dead)])


def _bound_luk_lattice(
    program: tuple[tuple, ...], binding: Mapping[int, np.ndarray], top
) -> np.ndarray:
    """Exact enclosure of a program's values over boxes of lattice points.

    ``binding`` maps each variable to its (lower, upper) numerators stacked
    on a leading axis of length 2 (or 1, which broadcasts, where the two are
    equal), in the lattice dtype of ``top``, the scalar L; the remaining
    axes broadcast as in ``_run``, one box per entry.  Returns the stacked
    (lower, upper) of the program over each box.  Every binary connective is
    monotone in both arguments, so applying it to the lower ends and to the
    upper ends bounds it; negation is antitone, so it swaps the ends.
    Interval evaluation ignores that a variable mentioned twice takes one
    value, so the enclosure may be wider than the range, never narrower; on
    a box of one point it is that point's value.
    """
    table = {**_lattice_connectives(top), Neg: lambda a: top - a[::-1]}
    return _run(program, binding, table)


def _run(program: tuple[tuple, ...], binding: Mapping[int, object], table: dict):
    """Run a program of ``compile_luk`` with the connectives of ``table``.

    ``binding`` maps every variable of the program to an array or a scalar,
    not checked here.  The arrays broadcast: each slot is computed on the
    broadcast of the values it reads and dropped after its last use.
    """
    values: list = [None] * len(program)
    for slot, (kind, a, b, dead) in enumerate(program):
        if kind is Var:
            values[slot] = binding[a]
        elif b is None:
            values[slot] = table[kind](values[a])
        else:
            values[slot] = table[kind](values[a], values[b])
        for freed in dead:
            values[freed] = None
    return values[-1]
