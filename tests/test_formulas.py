import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from stablecons import (
    And,
    FormulaSyntaxError,
    Join,
    Meet,
    Neg,
    Not,
    Oplus,
    Or,
    Otimes,
    Var,
    bool_to_text,
    eval_luk,
    iff,
    implies,
    luk_to_text,
    measure,
    multiple,
    parse_bool,
    parse_luk,
    power,
    variable_occurrences,
    variables,
)
from formula_strategies import bool_formulas, luk_formulas, valuations_over


class TestParseBool:
    def test_single_variable(self):
        assert parse_bool("X1") == Var(1)

    def test_parenthesized_conjunction(self):
        assert parse_bool("(~X1 /\\ X2)") == And(Not(Var(1)), Var(2))

    def test_double_negation_is_kept(self):
        assert parse_bool("~~X3") == Not(Not(Var(3)))

    def test_chains_associate_left(self):
        assert parse_bool("X1 /\\ X2 /\\ X3") == And(And(Var(1), Var(2)), Var(3))

    def test_variable_index_zero_rejected(self):
        with pytest.raises(FormulaSyntaxError) as info:
            parse_bool("X0")
        assert info.value.offset == 0

    def test_leading_zero_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_bool("X01")

    def test_mixed_lattice_operators_rejected(self):
        with pytest.raises(FormulaSyntaxError) as info:
            parse_bool("X1 /\\ X2 \\/ X3")
        assert info.value.offset == 9

    def test_luk_connective_rejected(self):
        with pytest.raises(FormulaSyntaxError) as info:
            parse_bool("X1 (+) X2")
        assert "(+)" in str(info.value)
        assert info.value.offset == 3

    def test_offset_reported_for_stray_character(self):
        with pytest.raises(FormulaSyntaxError) as info:
            parse_bool("X1 @")
        assert info.value.offset == 3

    def test_unclosed_parenthesis(self):
        with pytest.raises(FormulaSyntaxError):
            parse_bool("(X1 /\\ X2")

    def test_empty_input(self):
        with pytest.raises(FormulaSyntaxError):
            parse_bool("")


# Malformed inputs whose message and offset the parser's stack logic must
# keep: where a lattice-operator mix, a second <->, a many-valued connective
# in boolean text and an unclosed parenthesis are reported.  Variable indices
# are ASCII digits only: other Unicode digits are syntax errors.
SYNTAX_ERRORS = [
    pytest.param("luk", "(X1 /\\ X2 \\/ X3)", "mixing '/\\' and '\\/' needs parentheses", 10, id="mix-in-parens-luk"),
    pytest.param("bool", "(X1 /\\ X2 \\/ X3)", "mixing '/\\' and '\\/' needs parentheses", 10, id="mix-in-parens-bool"),
    pytest.param("luk", "X1 -> (X2 \\/ X3 /\\ X1)", "mixing '/\\' and '\\/' needs parentheses", 16, id="mix-after-implies"),
    pytest.param("luk", "X1 <-> X2 <-> X3", "unexpected trailing input", 10, id="iff-chain-top"),
    pytest.param("luk", "(X1 <-> X2 <-> X3)", "expected ')'", 11, id="iff-chain-in-parens"),
    pytest.param("luk", "X1 <-> X2 -> X3", "unexpected trailing input", 10, id="implies-after-iff"),
    pytest.param("luk", "(X1 -> X2 <-> X3 -> X1)", "expected ')'", 17, id="implies-after-nested-iff"),
    pytest.param("bool", "(X1 (+) X2)", "expected ')'", 4, id="oplus-in-bool-parens"),
    pytest.param("bool", "~(X1 -> X2)", "expected ')'", 5, id="implies-in-bool-parens"),
    pytest.param("bool", "X1 (*) X2", "'(*)' is not a boolean connective", 3, id="otimes-in-bool"),
    pytest.param("bool", "X1 /\\ X2 <-> X3", "'<->' is not a boolean connective", 9, id="iff-in-bool"),
    pytest.param("bool", "(((X1", "expected ')'", 5, id="unclosed-depth-3-bool"),
    pytest.param("luk", "(((X1 (*) X2", "expected ')'", 12, id="unclosed-depth-3-luk"),
    pytest.param("luk", "(X1 (+) (X2 /\\ (X3)", "expected ')'", 19, id="unclosed-nested-luk"),
    pytest.param("luk", "X1 (+)", "expected a variable, '~' or '('", 6, id="missing-operand"),
    pytest.param("bool", "X1 X2", "unexpected trailing input", 3, id="two-operands"),
    pytest.param("bool", "X\u00b2", "variable index must be a digit sequence starting 1-9", 0, id="superscript-index"),
    pytest.param("luk", "X\u0663", "variable index must be a digit sequence starting 1-9", 0, id="arabic-indic-index"),
    pytest.param("luk", "X1\u00b2", "unexpected character '\u00b2'", 2, id="superscript-after-index"),
]


@pytest.mark.parametrize("language, text, message, offset", SYNTAX_ERRORS)
def test_syntax_error_message_and_offset(language, text, message, offset):
    parse = parse_bool if language == "bool" else parse_luk
    with pytest.raises(FormulaSyntaxError) as info:
        parse(text)
    assert str(info.value) == f"{message} (at offset {offset})"
    assert info.value.offset == offset


class TestParseLuk:
    def test_negation_binds_tighter_than_oplus(self):
        assert parse_luk("~X1 (+) X2") == Oplus(Neg(Var(1)), Var(2))

    def test_otimes_binds_tighter_than_oplus(self):
        assert parse_luk("X1 (*) X2 (+) X3") == Oplus(Otimes(Var(1), Var(2)), Var(3))

    def test_lattice_operators_bind_least(self):
        assert parse_luk("X1 \\/ X2 (+) X3") == Join(Var(1), Oplus(Var(2), Var(3)))

    def test_implication_sugar_expands(self):
        assert parse_luk("X1 -> X2") == implies(Var(1), Var(2))
        assert parse_luk("X1 -> X2") == Oplus(Var(2), Neg(Var(1)))

    def test_implication_is_right_associative(self):
        assert parse_luk("X1 -> X2 -> X3") == implies(Var(1), implies(Var(2), Var(3)))

    def test_iff_sugar_expands(self):
        assert parse_luk("X1 <-> X2") == iff(Var(1), Var(2))

    def test_iff_does_not_chain(self):
        with pytest.raises(FormulaSyntaxError):
            parse_luk("X1 <-> X2 <-> X3")

    def test_mixed_lattice_operators_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_luk("X1 \\/ X2 /\\ X3")


class TestDerivedConnectives:
    def test_implies_expansion_shape(self):
        assert implies(Var(1), Var(2)) == Oplus(Var(2), Neg(Var(1)))

    def test_self_implication_is_constantly_one(self):
        formula = implies(Var(1), Var(1))
        for value in (Fraction(0), Fraction(1, 3), Fraction(7, 9), Fraction(1)):
            assert eval_luk(formula, {1: value}) == 1

    def test_iff_shape(self):
        a, b = Var(1), Var(2)
        assert iff(a, b) == Otimes(implies(a, b), implies(b, a))

    def test_power_one_is_identity(self):
        assert power(Var(1), 1) == Var(1)

    def test_power_three_nests_left(self):
        x = Var(1)
        assert power(x, 3) == Otimes(Otimes(x, x), x)

    def test_power_length_grows_linearly(self):
        # each step adds one connective node (3 tokens) and one variable copy
        base = measure(Var(1)).token_count
        sizes = [measure(power(Var(1), k)).token_count for k in range(1, 6)]
        assert sizes == [base + 4 * (k - 1) for k in range(1, 6)]

    def test_multiple_one_is_identity(self):
        assert multiple(1, Var(1)) == Var(1)

    def test_multiple_three_nests_left(self):
        x = Var(1)
        assert multiple(3, x) == Oplus(Oplus(x, x), x)

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            power(Var(1), 0)
        with pytest.raises(ValueError):
            multiple(0, Var(1))

    @given(luk_formulas(), st.integers(1, 5))
    def test_iteration_preserves_variables(self, formula, k):
        assert variables(power(formula, k)) == variables(formula)
        assert variables(multiple(k, formula)) == variables(formula)


class TestMeasure:
    def test_variable_cost_is_one_plus_index(self):
        assert measure(Var(2)).paper_symbol_count == 3

    def test_negation_adds_symbol_and_parentheses(self):
        assert measure(Not(Var(1))).paper_symbol_count == 5

    def test_binary_node_token_count(self):
        assert measure(And(Var(1), Var(1))).token_count == 5

    @given(bool_formulas())
    def test_paper_count_dominates_token_count(self, formula):
        length = measure(formula)
        assert length.paper_symbol_count >= length.token_count

    @given(luk_formulas(max_leaves=10))
    def test_strictly_monotone_under_new_connectives(self, formula):
        base = measure(formula)
        for bigger in (Neg(formula), Oplus(formula, Var(1)), Meet(Var(1), formula)):
            grown = measure(bigger)
            assert grown.token_count > base.token_count
            assert grown.paper_symbol_count > base.paper_symbol_count


class TestPrinting:
    def test_minimal_parentheses_examples(self):
        assert luk_to_text(Oplus(Otimes(Var(1), Var(2)), Var(3))) == "X1 (*) X2 (+) X3"
        assert luk_to_text(Otimes(Var(1), Otimes(Var(2), Var(3)))) == "X1 (*) (X2 (*) X3)"
        assert luk_to_text(Join(Var(1), Oplus(Var(2), Var(3)))) == "X1 \\/ X2 (+) X3"
        assert luk_to_text(Meet(Join(Var(1), Var(2)), Var(3))) == "(X1 \\/ X2) /\\ X3"
        assert bool_to_text(And(Not(Var(1)), Var(2))) == "~X1 /\\ X2"
        assert bool_to_text(Not(And(Var(1), Var(2)))) == "~(X1 /\\ X2)"

    @given(bool_formulas())
    def test_bool_round_trip(self, formula):
        assert parse_bool(bool_to_text(formula)) == formula

    @given(luk_formulas())
    def test_luk_round_trip(self, formula):
        assert parse_luk(luk_to_text(formula)) == formula

    @given(luk_formulas(max_leaves=12), st.data())
    def test_printed_text_means_the_same_thing(self, formula, data):
        point = data.draw(valuations_over(sorted(variables(formula))))
        assert eval_luk(parse_luk(luk_to_text(formula)), point) == eval_luk(
            formula, point
        )


class TestNodeEquality:
    def test_equal_and_unequal_formulas(self):
        assert parse_luk("X1 (+) ~X2") == Oplus(Var(1), Neg(Var(2)))
        assert hash(parse_luk("X1 (+) ~X2")) == hash(Oplus(Var(1), Neg(Var(2))))
        assert Oplus(Var(1), Neg(Var(2))) != Oplus(Var(1), Neg(Var(3)))
        assert Oplus(Neg(Var(1)), Var(2)) != Oplus(Var(1), Neg(Var(2)))
        assert And(Var(1), Var(2)) != Meet(Var(1), Var(2))
        assert Var(1) != 1

    def test_deep_formulas_compare_and_hash(self):
        def chain():
            node = Var(1)
            for i in range(2, 5000):
                node = And(node, Not(Var(i)))
            return node

        first, second = chain(), chain()
        assert first is not second and first == second
        assert len({first, second}) == 1
        assert And(first, Var(1)) != And(second, Var(2))


def dataclass_repr(node):
    """The text a recursive dataclass-generated ``__repr__`` gives."""
    fields = ", ".join(
        f"{field.name}={dataclass_repr(value) if dataclasses.is_dataclass(value) else repr(value)}"
        for field in dataclasses.fields(node)
        for value in [getattr(node, field.name)]
    )
    return f"{type(node).__qualname__}({fields})"


class TestNodeProtocols:
    def test_repr_text(self):
        assert repr(parse_luk("X1 (+) ~X2")) == (
            "Oplus(left=Var(index=1), right=Neg(child=Var(index=2)))"
        )

    @given(st.one_of(luk_formulas(), bool_formulas()))
    def test_repr_matches_dataclass_repr(self, formula):
        assert repr(formula) == dataclass_repr(formula)

    @given(st.one_of(luk_formulas(), bool_formulas()))
    def test_pickle_and_copies_round_trip(self, formula):
        restored = pickle.loads(pickle.dumps(formula))
        assert type(restored) is type(formula) and restored == formula
        assert copy.copy(formula) is formula
        assert copy.deepcopy([formula])[0] is formula

    @pytest.mark.parametrize("depth", [3_000, 100_000])
    @pytest.mark.parametrize("parse", [parse_luk, parse_bool])
    def test_deep_formulas(self, parse, depth):
        formula = parse("~" * depth + "X1")
        negation = type(formula).__qualname__
        assert repr(formula) == f"{negation}(child=" * depth + "Var(index=1)" + ")" * depth
        assert pickle.loads(pickle.dumps(formula)) == formula
        assert copy.deepcopy(formula) is formula


class TestWalkers:
    def test_variables(self):
        assert variables(parse_bool("X2 /\\ (X5 \\/ ~X2)")) == {2, 5}

    def test_variable_occurrences(self):
        counts = variable_occurrences(parse_bool("X1 /\\ (X1 \\/ ~X2)"))
        assert counts == {1: 2, 2: 1}
