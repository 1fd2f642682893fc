import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from stablecons import (
    And,
    Join,
    Meet,
    Neg,
    Not,
    Oplus,
    Or,
    Otimes,
    UnboundVariableError,
    Var,
    eval_bool,
    eval_luk,
    eval_luk_lattice,
    iff,
    multiple,
    parse_bool,
    parse_luk,
    parse_rational01,
    power,
    variables,
)
from stablecons.formulas import fold
from formula_strategies import bool_formulas, luk_formulas, valuations_over

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
        values = eval_luk_lattice(formula, indices, coords, L)
        for row, value in zip(rows, values):
            point = {i: Fraction(num, L) for i, num in zip(indices, row)}
            assert Fraction(int(value), L) == eval_luk(formula, point)

    def test_rejects_out_of_range_coordinates(self):
        with pytest.raises(ValueError):
            eval_luk_lattice(Var(1), [1], np.array([[13]]), 12)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            eval_luk_lattice(Var(1), [1], np.array([1, 2, 3]), 12)

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            eval_luk_lattice(Var(2), [1], np.array([[3]]), 12)

    def test_random_formula_bulk_agreement(self):
        rng = random.Random(99)
        from stablecons import random_luk_formula

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
            values = eval_luk_lattice(formula, indices, coords, L)
            for row, value in zip(coords, values):
                point = {i: Fraction(int(v), L) for i, v in zip(indices, row)}
                assert Fraction(int(value), L) == eval_luk(formula, point)
