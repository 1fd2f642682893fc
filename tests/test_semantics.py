import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

import stablecons.semantics
from stablecons import (
    And,
    HarnessLimits,
    Join,
    Meet,
    Neg,
    Not,
    Oplus,
    Or,
    Otimes,
    UnboundVariableError,
    Var,
    constraint_formula,
    denominator_bounded_fractions,
    eval_bool,
    eval_luk,
    iff,
    multiple,
    parse_bool,
    parse_luk,
    parse_rational01,
    power,
    random_instance,
    reduce_instance,
    variables,
)
from stablecons.formulas import fold
from stablecons.semantics import (
    _bound_luk_lattice,
    _lattice_dtype,
    _row_positions,
    compile_luk,
)
from formula_strategies import (
    bool_formulas,
    eval_lattice,
    luk_formulas,
    random_luk_formula,
    valuations_over,
)

ONE = Fraction(1)
GRID_12 = [Fraction(k, 12) for k in range(13)]


# ---------------------------------------------------------------------------
# an independent oracle: rewrite every formula into negation/truncated-sum
# primitive form using the defining identities, then evaluate with only the
# two primitive clauses.


def _join_primitive(a, b):
    return Oplus(Neg(Oplus(Neg(a), b)), b)


def to_primitive(formula):
    match formula:
        case Var():
            return formula
        case Neg(child):
            return Neg(to_primitive(child))
        case Oplus(left, right):
            return Oplus(to_primitive(left), to_primitive(right))
        case Otimes(left, right):
            return Neg(Oplus(Neg(to_primitive(left)), Neg(to_primitive(right))))
        case Join(left, right):
            return _join_primitive(to_primitive(left), to_primitive(right))
        case Meet(left, right):
            a, b = to_primitive(left), to_primitive(right)
            return Neg(_join_primitive(Neg(a), Neg(b)))
    raise TypeError(formula)


def primitive_value(formula, point):
    match formula:
        case Var(index):
            return point[index]
        case Neg(child):
            return 1 - primitive_value(child, point)
        case Oplus(left, right):
            return min(ONE, primitive_value(left, point) + primitive_value(right, point))
    raise TypeError(formula)


# the reference evaluator: the connectives folded directly over Fractions,
# one normalized Fraction per node
FRACTION_LUK = {
    Neg: lambda node, a: ONE - a,
    Oplus: lambda node, a, b: min(ONE, a + b),
    Otimes: lambda node, a, b: max(Fraction(0), a + b - ONE),
    Meet: lambda node, a, b: min(a, b),
    Join: lambda node, a, b: max(a, b),
}


def fraction_eval(formula, valuation):
    return fold(formula, {**FRACTION_LUK, Var: lambda node: valuation[node.index]})


# the ints 0 and 1, small denominators, and denominators above 2**64
mixed_values = st.one_of(
    st.sampled_from([0, 1]),
    st.fractions(min_value=0, max_value=1, max_denominator=12),
    st.integers(2**64 + 1, 2**72).flatmap(
        lambda q: st.integers(0, q).map(lambda p: Fraction(p, q))
    ),
)


class TestEvalLuk:
    def test_truncated_addition_saturates(self):
        assert eval_luk(parse_luk("X1 (+) X1"), {1: Fraction(2, 3)}) == 1

    def test_square_vanishes_below_half(self):
        assert eval_luk(power(Var(1), 2), {1: Fraction(1, 3)}) == 0

    def test_iff_measures_distance(self):
        point = {1: Fraction(1, 3), 2: Fraction(2, 3)}
        value = eval_luk(iff(Var(1), Var(2)), point)
        assert value == Fraction(2, 3)
        assert value == 1 - abs(point[1] - point[2])
        assert value == primitive_value(to_primitive(iff(Var(1), Var(2))), point)

    def test_unbound_variable_is_named(self):
        with pytest.raises(UnboundVariableError, match="X3"):
            eval_luk(Var(3), {1: ONE})

    @given(luk_formulas(), st.data())
    def test_agrees_with_the_fraction_fold(self, formula, data):
        used = sorted(variables(formula))
        point = data.draw(st.fixed_dictionaries({i: mixed_values for i in used}))
        # values of variables the formula does not use
        point |= data.draw(st.dictionaries(st.integers(5, 9), mixed_values, max_size=3))
        value = eval_luk(formula, point)
        assert type(value) is Fraction
        assert value == fraction_eval(formula, point)
        missing = data.draw(st.sampled_from(used))
        del point[missing]
        with pytest.raises(UnboundVariableError, match=f"X{missing} ") as info:
            eval_luk(formula, point)
        assert info.value.index == missing

    def test_result_denominator_divides_input_lcm(self):
        formula = parse_luk("X1 (*) X2 (+) ~X1")
        value = eval_luk(formula, {1: Fraction(1, 4), 2: Fraction(5, 6)})
        assert 12 % value.denominator == 0

    @given(luk_formulas(), st.data())
    def test_results_are_exact_fractions(self, formula, data):
        point = data.draw(valuations_over(sorted(variables(formula))))
        value = eval_luk(formula, point)
        assert isinstance(value, Fraction)
        assert 0 <= value <= 1

    @given(luk_formulas(), st.data())
    def test_negation_is_an_involution(self, formula, data):
        point = data.draw(valuations_over(sorted(variables(formula))))
        assert eval_luk(Neg(Neg(formula)), point) == eval_luk(formula, point)

    @given(luk_formulas(max_leaves=8), luk_formulas(max_leaves=8), st.data())
    def test_de_morgan_for_meet(self, a, b, data):
        point = data.draw(valuations_over(sorted(variables(a) | variables(b))))
        assert eval_luk(Meet(a, b), point) == eval_luk(
            Neg(Join(Neg(a), Neg(b))), point
        )

    @given(luk_formulas(max_leaves=8), luk_formulas(max_leaves=8), st.data())
    def test_strong_conjunction_duality(self, a, b, data):
        point = data.draw(valuations_over(sorted(variables(a) | variables(b))))
        assert eval_luk(Otimes(a, b), point) == eval_luk(
            Neg(Oplus(Neg(a), Neg(b))), point
        )

    @given(luk_formulas(max_leaves=12), st.data())
    def test_primitive_form_oracle_agrees(self, formula, data):
        point = data.draw(valuations_over(sorted(variables(formula))))
        assert eval_luk(formula, point) == primitive_value(
            to_primitive(formula), point
        )

    def test_iterated_closed_forms_on_grid(self):
        for e in range(1, 7):
            for y in GRID_12:
                point = {1: y}
                assert eval_luk(power(Var(1), e), point) == max(
                    Fraction(0), e * y - e + 1
                )
                assert eval_luk(multiple(e, Var(1)), point) == min(ONE, e * y)


class TestEvalBool:
    def test_contradiction(self):
        formula = parse_bool("X1 /\\ ~X1")
        for bit in (0, 1):
            assert eval_bool(formula, {1: bit}) == 0

    def test_tautology(self):
        formula = parse_bool("X1 \\/ ~X1")
        for bit in (0, 1):
            assert eval_bool(formula, {1: bit}) == 1

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError, match="X2"):
            eval_bool(Var(2), {1: 1})

    @pytest.mark.parametrize(
        "text, name",
        [("X1 (+) X2", "Oplus"), ("~X1", "Neg"), ("X1 /\\ (X1 (*) X2)", "Otimes")],
    )
    def test_a_lukasiewicz_node_is_a_type_error(self, text, name):
        with pytest.raises(TypeError, match=f"unexpected node {name}$"):
            eval_bool(parse_luk(text), {1: 1, 2: 0})

    @given(bool_formulas(max_index=4))
    def test_agreement_with_embedding(self, formula):
        # Not/And/Or become Neg/Meet/Join; on 0/1 inputs the images compute
        # exactly the classical connectives
        def embed(node):
            match node:
                case Var():
                    return node
                case Not(child):
                    return Neg(embed(child))
                case And(left, right):
                    return Meet(embed(left), embed(right))
                case Or(left, right):
                    return Join(embed(left), embed(right))
            raise TypeError(f"not a boolean formula: {node!r}")

        indices = sorted(variables(formula))
        for bits in itertools.product((0, 1), repeat=len(indices)):
            assignment = dict(zip(indices, bits))
            as_fractions = {i: Fraction(b) for i, b in assignment.items()}
            assert eval_bool(formula, assignment) == eval_luk(
                embed(formula), as_fractions
            )


class TestParseRational:
    def test_accepts_fractions_and_integers(self):
        assert parse_rational01("2/3") == Fraction(2, 3)
        assert parse_rational01("0") == 0
        assert parse_rational01("1") == 1
        assert parse_rational01(" 3/6 ") == Fraction(1, 2)
        # decimal strings parse exactly, not through floats
        assert parse_rational01("0.5") == Fraction(1, 2)

    @pytest.mark.parametrize("bad", ["5/3", "-1/2", "x", "1/0"])
    def test_rejects_out_of_range_and_junk(self, bad):
        with pytest.raises(ValueError):
            parse_rational01(bad)


class TestLatticeEvaluator:
    @given(luk_formulas(max_leaves=12), st.data())
    def test_agrees_with_scalar_evaluator(self, formula, data):
        indices = sorted(variables(formula))
        L = 12
        rows = data.draw(
            st.lists(
                st.tuples(*(st.integers(0, L) for _ in indices)),
                min_size=1,
                max_size=8,
            )
        )
        coords = np.array(rows, dtype=np.int64).reshape(len(rows), len(indices))
        values = eval_lattice(formula, indices, coords.T, L)
        for row, value in zip(rows, values):
            point = {i: Fraction(num, L) for i, num in zip(indices, row)}
            assert Fraction(int(value), L) == eval_luk(formula, point)

    def test_random_formula_bulk_agreement(self):
        rng = random.Random(99)
        for _ in range(25):
            formula = random_luk_formula(rng, 3, 6)
            indices = sorted(variables(formula))
            L = 6
            coords = np.array(
                [
                    [rng.randint(0, L) for _ in indices]
                    for _ in range(20)
                ],
                dtype=np.int64,
            ).reshape(20, len(indices))
            values = eval_lattice(formula, indices, coords.T, L)
            for row, value in zip(coords, values):
                point = {i: Fraction(int(v), L) for i, v in zip(indices, row)}
                assert Fraction(int(value), L) == eval_luk(formula, point)


# The lattice dtype holds [0, L], the range of every intermediate value of
# the connectives' forms; each L below sits on one side of a dtype boundary.
DTYPE_BOUNDARIES = [
    (127, np.int8),
    (128, np.int16),
    (32_767, np.int16),
    (32_768, np.int32),
    (2**31 - 1, np.int32),
    (2**31, np.int64),
]

# formulas whose textbook forms would reach 2L ((+) of two values near L) and
# -L ((*) of two values near 0) inside, nested under ~, (+) and (*)
EXTREME_FORMULAS = [
    "X1 (+) X2",
    "X1 (*) X2",
    "~(X1 (+) X1) (+) (X2 (+) X2)",
    "~(~X1 (*) ~X2) (*) (X1 (+) X2 (+) X1)",
    "((X1 (+) X2) (*) (X1 (+) X2)) (+) ~(X2 (*) X1 (*) X2)",
    "~((X1 (*) X1) (+) ~(X2 (+) X2)) \\/ (X1 (*) ~X2)",
]


class TestLatticeDtype:
    @pytest.mark.parametrize("L, dtype", DTYPE_BOUNDARIES)
    def test_the_narrowest_exact_dtype_is_chosen(self, L, dtype):
        assert _lattice_dtype(L) == dtype
        assert eval_lattice(parse_luk("X1 (+) X1"), [1], [[0, L]], L).dtype == dtype

    @pytest.mark.parametrize("L, dtype", DTYPE_BOUNDARIES)
    @pytest.mark.parametrize("text", EXTREME_FORMULAS)
    def test_agrees_with_the_scalar_evaluator_at_the_corners(self, L, dtype, text):
        formula = parse_luk(text)
        corners = [0, 1, L - 1, L]
        rows = list(itertools.product(corners, repeat=2))
        values = eval_lattice(formula, [1, 2], np.array(rows).T, L)
        assert values.dtype == dtype
        for row, value in zip(rows, values):
            point = {i: Fraction(v, L) for i, v in zip((1, 2), row)}
            assert Fraction(int(value), L) == eval_luk(formula, point)

    @pytest.mark.parametrize("L", [0, -1, -(2**70)])
    def test_rejects_a_denominator_below_1(self, L):
        with pytest.raises(ValueError, match=f"denominator must be >= 1, got {L}$"):
            _lattice_dtype(L)
        assert _lattice_dtype(1) == np.int8

    def test_rejects_a_denominator_past_int64(self):
        with pytest.raises(ValueError, match="too large"):
            _lattice_dtype(2**63)
        assert _lattice_dtype(2**63 - 1) == np.int64

    @pytest.mark.parametrize(
        "theta, phi",
        [
            ("X1 (+) X2 (+) X3 (+) X4", "X4 (*) X3 (+) X2 (*) X1"),
            ("(X1 (+) X1) (*) ~X2", "X3 (*) X4 (+) ~X4 (*) X1"),
            ("X2 (+) X4", "(X1 (*) X4) \\/ (X2 (*) X3) \\/ ~X3"),
        ],
    )
    @pytest.mark.parametrize("least", [False, True])
    def test_a_narrow_scan_finds_the_int64_witness(self, theta, phi, least):
        # the same points on an int8 lattice (L = 6) and on an int64 one
        # (L = 6 * 2**40): homogeneity scales every value by 2**40, so the
        # hit must be the same point, its value scaled.  Chunks of at most 16
        # points leave two leading variables fixed to scalars.
        theta, phi = parse_luk(theta), parse_luk(phi)
        scale = 2**40
        axis = [0, 1, 2, 3, 4, 5, 6]
        assert _lattice_dtype(6) == np.int8
        assert _lattice_dtype(6 * scale) == np.int64
        scan = stablecons.semantics._scan
        with mock.patch.multiple(
            stablecons.semantics, _FIRST_CHUNK=2, _SCAN_CHUNK=16, _WHOLE_SCAN=2
        ):
            narrow = scan(theta, phi, [1, 2, 3, 4], axis, 6, least)
            wide = scan(
                theta, phi, [1, 2, 3, 4], [a * scale for a in axis], 6 * scale, least
            )
        assert narrow is not None
        row, value = narrow
        assert wide == (tuple(a * scale for a in row), value * scale)


def scalar_least_scan(theta, phi, var_order, axis, L):
    """Test-local reference for the least-value scan: every point in scan
    order, one ``eval_luk`` at a time; the first point holding the least phi
    below 1 where theta (if given) is 1, with phi's numerator over L."""
    best = None
    for row in itertools.product(axis, repeat=len(var_order)):
        point = {index: Fraction(a, L) for index, a in zip(var_order, row)}
        if theta is not None and eval_luk(theta, point) != 1:
            continue
        value = eval_luk(phi, point) * L  # the point's denominators divide L
        if value < L and (best is None or value < best[1]):
            best = (row, int(value))
    return best


# the default schedule and two small ones that split these scans into
# batches of a few rows, so the least value may lie past the first batch
SCHEDULES = [(64, 1 << 16, 1 << 12), (2, 16, 2), (4, 128, 4)]


class TestLeastScan:
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_matches_the_scalar_sweep_on_random_pairs(self, schedule):
        rng = random.Random(2323)
        values = set()
        for trial in range(120):
            m = rng.randint(1, 3)
            phi = random_luk_formula(rng, m, 4)
            theta = random_luk_formula(rng, m, 4) if trial % 3 else None
            var_order = sorted(variables(phi) | (variables(theta) if theta else set()))
            q = rng.randint(1, 4)
            L = math.lcm(*range(1, q + 1))
            fractions = denominator_bounded_fractions(q)
            axis = [f.numerator * (L // f.denominator) for f in fractions]
            with mock.patch.multiple(
                stablecons.semantics,
                _FIRST_CHUNK=schedule[0],
                _SCAN_CHUNK=schedule[1],
                _WHOLE_SCAN=schedule[2],
            ):
                hit = stablecons.semantics._scan(theta, phi, var_order, axis, L, True)
            expected = scalar_least_scan(theta, phi, var_order, axis, L)
            assert hit == expected
            values.add(None if hit is None else hit[1] > 0)
        assert values == {None, False, True}


# ---------------------------------------------------------------------------
# the compiled program against a tree fold on Python-int numerators


def int_fold(formula, point, L):
    """Test-local reference: the formula folded over its tree on ints."""

    def value(node):
        return point[node.index]  # a KeyError names the unbound variable

    return fold(
        formula,
        {
            Var: value,
            Neg: lambda node, a: L - a,
            Oplus: lambda node, a, b: min(L, a + b),
            Otimes: lambda node, a, b: max(0, a + b - L),
            Meet: lambda node, a, b: min(a, b),
            Join: lambda node, a, b: max(a, b),
        },
    )


def reduced_phi(seed):
    instance = random_instance(random.Random(seed), HarnessLimits(max_vars=4))
    return reduce_instance(instance).phi


def all_four_connectives(a, b):
    # four binary connectives on one pair of children: keys that confused
    # two connective types would share a slot
    return Join(Meet(Oplus(a, b), Otimes(a, b)), Oplus(Meet(a, b), Neg(Join(a, b))))


small = luk_formulas(max_index=3, max_leaves=6)
shared_formulas = st.one_of(
    st.builds(constraint_formula, st.integers(1, 3), st.integers(2, 5)),
    st.builds(power, small, st.integers(1, 6)),
    st.builds(multiple, st.integers(1, 6), small),
    st.builds(iff, small, small),
    st.builds(all_four_connectives, small, small),
    st.builds(reduced_phi, st.integers(0, 2**32)),
)


class TestCompiledProgram:
    @given(st.one_of(luk_formulas(), shared_formulas), st.data())
    def test_agrees_with_a_tree_fold(self, formula, data):
        indices = sorted(variables(formula))
        L = data.draw(st.sampled_from([1, 2, 12, 127, 128, 2520, 2**31, 2**63 - 1]))
        coordinate = st.one_of(st.sampled_from([0, L]), st.integers(0, L))
        rows = data.draw(
            st.lists(st.tuples(*(coordinate for _ in indices)), min_size=1, max_size=6)
        )
        values = eval_lattice(formula, indices, np.array(rows, dtype=np.int64).T, L)
        for row, value in zip(rows, values):
            assert int(value) == int_fold(formula, dict(zip(indices, row)), L)

    @given(st.one_of(luk_formulas(), shared_formulas))
    def test_one_instruction_per_distinct_subterm(self, formula):
        code = compile_luk(formula)
        stack = [formula]
        distinct = set()
        while stack:
            node = stack.pop()
            distinct.add(node)
            for name in ("child", "left", "right"):
                if hasattr(node, name):
                    stack.append(getattr(node, name))
        assert len(code) == len(distinct)

    @pytest.mark.parametrize(
        "formula, name",
        [
            (Not(Var(1)), "Not"),
            (And(Var(1), Var(2)), "And"),
            (Or(Var(1), Var(2)), "Or"),
            (Oplus(Var(1), Not(Var(2))), "Not"),
            (Neg(And(Var(1), Var(1))), "And"),
            (Meet(Join(Var(1), Var(2)), Or(Var(2), Neg(Var(3)))), "Or"),
        ],
    )
    def test_a_node_outside_the_language_is_a_type_error(self, formula, name):
        # checked before the slot stack is popped, so neither an IndexError
        # nor a program that the runner cannot run
        with pytest.raises(TypeError, match=f"unexpected node {name}$"):
            compile_luk(formula)


# ---------------------------------------------------------------------------
# the row decoder of the scan


def python_digits(row, base, width):
    """Test-local reference: the ``width`` base-``base`` digits of ``row``."""
    digits = []
    for _ in range(width):
        row, digit = divmod(row, base)
        digits.append(digit)
    return digits[::-1]


class TestRowPositions:
    @given(st.integers(2, 40), st.integers(0, 70), st.data())
    def test_matches_python_digits(self, base, width, data):
        # rows past 2**63 - 1 do not fit np.intp; widths past 63 bits do
        end = min(base**width, 2**63)
        near_the_end = st.integers(max(0, end - 200), end - 1)
        first = data.draw(st.one_of(st.integers(0, end - 1), near_the_end))
        count = data.draw(st.integers(1, min(end - first, 200)))
        positions = _row_positions(first, count, base, width)
        assert positions.dtype == np.intp
        assert positions.shape == (count, width)
        rows = range(first, first + count)
        assert positions.tolist() == [python_digits(row, base, width) for row in rows]

    @pytest.mark.parametrize(
        "first, count", [(2**63 - 2, 3), (2**63 - 1, 2), (2**63, 1), (2**70, 3)]
    )
    def test_a_row_past_int64_is_an_error(self, first, count):
        # np.arange(2**63 - 2, 2**63 + 1, dtype=np.intp) wraps to -2**63
        # instead of raising
        with pytest.raises(OverflowError, match=f"row {first + count - 1} "):
            _row_positions(first, count, 2, 72)


# ---------------------------------------------------------------------------
# the bound runner: exact enclosures over boxes of lattice points


def farey_axis(q):
    L = math.lcm(*range(1, q + 1))
    fractions = denominator_bounded_fractions(q)
    return [f.numerator * (L // f.denominator) for f in fractions], L


def grid_axis(e):
    return [1, e], e + 1


enclosed_formulas = st.one_of(
    luk_formulas(),
    st.builds(constraint_formula, st.integers(1, 3), st.integers(2, 5)),
    st.builds(reduced_phi, st.integers(0, 2**32)),
)
box_axes = st.one_of(
    st.builds(farey_axis, st.integers(1, 5)), st.builds(grid_axis, st.integers(2, 9))
)


def draw_boxes(data, indices, axis, most=3, widest=2):
    """Up to ``most`` boxes, each a run of at most widest + 1 consecutive
    axis positions per variable."""
    run = st.tuples(st.integers(0, len(axis) - 1), st.integers(0, widest)).map(
        lambda start: (start[0], min(start[0] + start[1], len(axis) - 1))
    )
    return data.draw(
        st.lists(st.tuples(*(run for _ in indices)), min_size=1, max_size=most)
    )


def bind_boxes(indices, axis, boxes, L):
    """Each variable's (lower, upper) numerators stacked over the boxes."""
    return {
        index: np.array(
            [[axis[box[v][0]] for box in boxes], [axis[box[v][1]] for box in boxes]],
            dtype=_lattice_dtype(L),
        )
        for v, index in enumerate(indices)
    }


class TestBoundRunner:
    @given(enclosed_formulas, box_axes, st.data())
    def test_every_point_of_a_box_lies_in_its_enclosure(self, formula, axis_L, data):
        axis, L = axis_L
        indices = sorted(variables(formula))
        boxes = draw_boxes(data, indices, axis)
        top = _lattice_dtype(L).type(L)
        bounds = _bound_luk_lattice(
            compile_luk(formula), bind_boxes(indices, axis, boxes, L), top
        )
        assert bounds.shape == (2, len(boxes))
        for box, (lower, upper) in zip(boxes, bounds.T):
            runs = [axis[low : high + 1] for low, high in box]
            for point in itertools.product(*runs):
                valuation = {i: Fraction(v, L) for i, v in zip(indices, point)}
                assert lower <= eval_luk(formula, valuation) * L <= upper

    @given(enclosed_formulas, box_axes, st.data())
    def test_a_box_of_one_point_encloses_its_value_exactly(self, formula, axis_L, data):
        axis, L = axis_L
        indices = sorted(variables(formula))
        boxes = draw_boxes(data, indices, axis, widest=0)
        top = _lattice_dtype(L).type(L)
        binding = bind_boxes(indices, axis, boxes, L)
        program = compile_luk(formula)
        bounds = _bound_luk_lattice(program, binding, top)
        # a stack of one, as the scan binds a point, broadcasts to the same
        halves = {index: stacked[:1] for index, stacked in binding.items()}
        assert np.array_equal(_bound_luk_lattice(program, halves, top)[0], bounds[0])
        for box, (lower, upper) in zip(boxes, bounds.T):
            valuation = {i: Fraction(axis[low], L) for i, (low, _) in zip(indices, box)}
            assert lower == upper == eval_luk(formula, valuation) * L
