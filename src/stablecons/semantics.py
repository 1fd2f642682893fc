"""Exact rational semantics for both formula languages, and the lattice scan.

Every semantic value is a ``fractions.Fraction`` confined to [0, 1] and all
comparisons (in particular "equals 1") are exact; there is no floating point
anywhere.  Valuations are finite maps from variable indices to values over a
declared variable set.

Every Łukasiewicz connective is positively homogeneous: scaling all inputs
and the top value 1 by D > 0 scales the result by D.  Both evaluators use
this and compute on integer numerators.  The scalar reference evaluator,
``eval_luk``, takes D, the lcm of the valuation's denominators, folds Python
ints (which have no size cap) over the formula tree and returns the result
as a ``Fraction`` over D.

The lattice engine is the one exact search behind both consequence checks
of ``decision``.  Its points have coordinates k/L for a fixed L (e+1 on the
grid, the lcm of 1..max_denominator in pair mode), and ``_scan`` finds the
first point, in lexicographic order, where the consequent is below 1 (and
the antecedent, if given, is 1).  Its connectives are written so that
every intermediate value stays in [0, L], so fixed-width integer arithmetic
is exact in the narrowest signed dtype that holds L (int8 up to L = 127,
int16, int32, then int64 up to L = 2**63 - 1).  The scan builds its axis in
that dtype once, and compiles each formula once, by ``compile_luk``, into a
straight-line program with one instruction per distinct subterm.  Every
batch of points is one broadcast slab on which the runner, ``_run``, takes
one array per variable, so a subformula is computed only on the axes of the
variables it mentions.  The same runner, given stacked (lower, upper)
numerators and a negation that swaps the two, bounds a program over boxes
of lattice points (``_bound_luk_lattice``), since every connective is
monotone in each argument and negation is antitone; in pair mode the scan
drops, unscanned, the rows of points on which these bounds rule out a
countermodel.  The rows, batches and bounds are laid out in ``_scan``.
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


_LUK_BINARY = frozenset((Oplus, Otimes, Meet, Join))


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
    the last instruction that reads it; the root never dies.  A node outside
    the Łukasiewicz language is a ``TypeError``.
    """
    code: list[tuple] = []
    slots: dict[tuple, int] = {}
    last_read: dict[int, int] = {}
    stack: list[int] = []
    binary = _LUK_BINARY  # a local, read at every node that is not a variable
    for node in reversed(_nodes(formula)):  # children before parents, left first
        kind = type(node)
        if kind is Var:
            key = (Var, node.index, None)
        elif kind in binary:
            right = stack.pop()
            key = (kind, stack.pop(), right)
        elif kind is Neg:
            key = (Neg, stack.pop(), None)
        else:
            raise TypeError(f"unexpected node {kind.__name__}")
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


_WHOLE_SCAN = 1 << 12
_FIRST_CHUNK = 64
_SCAN_CHUNK = 1 << 16
_LAST_ROW = np.iinfo(np.intp).max  # np.arange may wrap past it, not raise


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
    at most m) for which a row holds ``_FIRST_CHUNK`` points, and is held
    as its m-k leading coordinates (``_row_positions``).  Rows are scanned
    in order, in batches (see ``_scan_rows``) of ``_FIRST_CHUNK`` points
    growing four-fold up to ``_SCAN_CHUNK``, at least one row each.  Each
    batch starts where the previous one ended, so an early hit stays cheap
    and no point is scanned twice.  A scan of at most ``_WHOLE_SCAN`` points
    is one row (k = m) and so one batch, in which every variable has a
    broadcast dimension of its own: a batch of several rows puts all the
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
    pending = np.empty((0, m - k), dtype=values.dtype)
    taken = 0  # rows decoded so far
    while True:
        wanted = max(1, size // base**k)
        while len(pending) < wanted and taken < rows:
            count = min(rows - taken, wanted - len(pending) if theta is None else block)
            fresh = values[_row_positions(taken, count, base, m - k)]
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
    of r, most significant first, decoded in one step from r in ``np.intp``.
    A row past that dtype is an ``OverflowError``; a scan, which decodes its
    rows of at least ``_FIRST_CHUNK`` points in order from 0, never reaches
    one.
    """
    if first + count - 1 > _LAST_ROW:
        raise OverflowError(f"row {first + count - 1} does not fit np.intp")
    t = 0  # every digit above the t lowest is 0
    while t < width and base**t < first + count:
        t += 1
    rows = np.arange(first, first + count, dtype=np.intp)
    positions = np.zeros((count, width), dtype=np.intp)
    positions[:, width - t :] = rows[:, None] // base ** np.arange(t - 1, -1, -1) % base
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

    Each line of ``rows``, leading coordinates in the dtype of ``values``,
    is a box: those coordinates are points, and each of the last k
    variables spans [min, max] of the axis.  ``_bound_luk_lattice``
    encloses theta and phi over every box at once, on arrays of at most
    two entries per row.  A row stays when theta's upper bound is L, and
    then phi's lower bound is below L; phi is bounded only on the rows that
    theta keeps.  ``top`` is L in the dtype of ``values``.
    """
    width = rows.shape[1]
    whole = np.array([[values.min()], [values.max()]], dtype=values.dtype)

    def bounds(program: tuple[tuple, ...], rows: np.ndarray) -> np.ndarray:
        binding = dict(zip(var_order, rows.T[:, None]))  # points: lower = upper
        binding.update((index, whole) for index in var_order[width:])
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

    ``rows`` holds the leading coordinates, one row per line in scan order;
    each of the remaining k variables runs over the whole axis on its own
    broadcast dimension.  One row binds its leading coordinates as scalars;
    several bind each column as an array along one shared first dimension,
    so the slab's C order is the scan order either way.  The programs run on
    that binding with ``table``, the lattice connectives over ``top`` (L);
    ``top`` and ``rows`` are in the dtype of ``values``, already checked.
    With theta given, theta is evaluated on the slab and phi only on the
    points where theta = L, gathered in C order by ``np.nonzero``.

    Both forks pay (3 of 3 timed rounds each): one row bound as arrays, not
    scalars, made ``check_consequence_rho`` on ``grid-early`` about 10%
    slower; phi on the whole slab, not on the gathered theta-models, made
    ``find_countermodel`` on ``pair-scan`` 7-13% slower.
    """
    base = len(values)
    k = len(var_order) - rows.shape[1]
    axes = [values.reshape((base,) + (1,) * (k - 1 - t)) for t in range(k)]
    shape = (base,) * k
    if len(rows) == 1:
        fixed = list(rows[0])
    else:
        fixed = []
        axes = [column.reshape((-1,) + (1,) * k) for column in rows.T] + axes
        shape = (len(rows),) + shape
    if theta is not None:
        value = _run(theta, dict(zip(var_order, fixed + axes)), table)
        models = np.broadcast_to(value == top, shape)
        if not models.any():  # cheaper than an empty np.nonzero
            return None
        models = np.nonzero(models)
        lead = [column[models[0]] for column in rows.T] if len(rows) > 1 else []
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
