import itertools
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

import stablecons.reduction
from stablecons import (
    And,
    FormulaGroup,
    HarnessLimits,
    InstanceError,
    Join,
    Meet,
    Neg,
    Not,
    Oplus,
    Or,
    Otimes,
    StableInstance,
    Var,
    constraint_formula,
    consequent,
    ddagger,
    eval_bool,
    eval_luk,
    iff,
    implies,
    instance_from_json,
    instance_length,
    instance_to_json,
    measure,
    multiple,
    nnf,
    normalize_variables,
    parse_bool,
    power,
    random_bool_formula,
    random_instance,
    reduce_instance,
    variables,
)
from formula_strategies import (
    bool_formulas,
    grid_values,
    lift_point,
    variable_occurrences,
)

from stablecons.decision import denominator_bounded_fractions
from stablecons.formulas import _nodes, fold


def assignments_over(indices):
    for bits in itertools.product((0, 1), repeat=len(indices)):
        yield dict(zip(indices, bits))


class TestNnf:
    def test_de_morgan_and(self):
        assert nnf(parse_bool("~(X1 /\\ X2)")) == Or(Not(Var(1)), Not(Var(2)))

    def test_double_negation(self):
        assert nnf(parse_bool("~~X1")) == Var(1)

    def test_de_morgan_with_inner_negation(self):
        assert nnf(parse_bool("~(X1 \\/ ~X2)")) == And(Not(Var(1)), Var(2))

    @given(bool_formulas())
    def test_no_negation_above_compound(self, formula):
        def check(node):
            match node:
                case Var():
                    pass
                case Not(child):
                    assert isinstance(child, Var)
                case _:
                    check(node.left)
                    check(node.right)

        check(nnf(formula))

    @given(bool_formulas())
    def test_truth_table_preserved(self, formula):
        normal = nnf(formula)
        for assignment in assignments_over(sorted(variables(formula))):
            assert eval_bool(formula, assignment) == eval_bool(normal, assignment)

    @given(bool_formulas())
    def test_variable_occurrences_preserved(self, formula):
        assert variable_occurrences(nnf(formula)) == variable_occurrences(formula)

    @given(bool_formulas())
    def test_idempotent(self, formula):
        once = nnf(formula)
        assert nnf(once) == once

    @pytest.mark.parametrize("translate", [nnf, ddagger])
    @pytest.mark.parametrize(
        "formula, name",
        [
            (Oplus(Var(1), Var(2)), "Oplus"),
            (Neg(Var(1)), "Neg"),
            (Not(And(Var(1), Meet(Var(2), Var(3)))), "Meet"),
        ],
    )
    def test_a_lukasiewicz_node_is_a_type_error(self, translate, formula, name):
        with pytest.raises(TypeError, match=f"unexpected node {name}$"):
            translate(formula)


class TestDdagger:
    def test_positive_literal(self):
        assert ddagger(Var(1)) == Join(Neg(Var(1)), Oplus(Var(1), Var(1)))

    def test_negative_literal(self):
        assert ddagger(Not(Var(1))) == Join(Var(1), Neg(Otimes(Var(1), Var(1))))

    def test_homomorphic_on_conjunction(self):
        expected = Meet(ddagger(Var(1)), ddagger(Not(Var(2))))
        assert ddagger(And(Var(1), Not(Var(2)))) == expected

    def test_normalizes_first(self):
        assert ddagger(Not(Not(Var(1)))) == ddagger(Var(1))

    @pytest.mark.parametrize("e", [2, 3, 5])
    def test_dichotomy_on_random_formulas(self, e):
        rng = random.Random(411 + e)
        low_value = Fraction(e, e + 1)
        for _ in range(60):
            n = rng.randint(1, 3)
            formula = random_bool_formula(rng, n, 6)
            lifted_formula = ddagger(formula)
            for assignment in assignments_over(range(1, n + 1)):
                value = eval_luk(lifted_formula, lift_point(assignment, e))
                if eval_bool(formula, assignment):
                    assert value == 1
                else:
                    assert value == low_value


def two_image_fold(formula, positive, negative, conj, disj):
    """Test-local reference: the images of the NNF of ``formula`` and of its
    negation, built side by side in one fold; a negation swaps the pair."""
    return fold(
        formula,
        {
            Var: lambda node: (positive(node), negative(node)),
            Not: lambda node, child: (child[1], child[0]),
            And: lambda node, a, b: (conj(a[0], b[0]), disj(a[1], b[1])),
            Or: lambda node, a, b: (disj(a[0], b[0]), conj(a[1], b[1])),
        },
    )[0]


def reference_nnf(formula):
    return two_image_fold(formula, lambda x: x, Not, And, Or)


def reference_ddagger(formula):
    return two_image_fold(
        formula,
        lambda x: Join(Neg(x), Oplus(x, x)),
        lambda x: Join(x, Neg(Otimes(x, x))),
        Meet,
        Join,
    )


NODE_TYPES = (Var, Not, And, Or, Neg, Oplus, Otimes, Meet, Join)


class TestOnePassTranslation:
    @given(
        st.integers(0, 2**32),
        st.integers(1, 6),
        st.integers(0, 14),
        st.integers(0, 3),
    )
    def test_matches_the_two_image_fold(self, seed, n, size, negations):
        formula = random_bool_formula(random.Random(seed), n, size)
        for _ in range(negations):
            formula = Not(formula)
        assert nnf(formula) == reference_nnf(formula)
        assert ddagger(formula) == reference_ddagger(formula)

    @pytest.mark.parametrize(
        "text",
        [
            "~(X1 /\\ X2)",
            "~(X1 \\/ ~X2)",
            "~~(X1 /\\ ~(X2 \\/ X3))",
            "~(~(X1 /\\ X2) \\/ ~~~(X3 /\\ ~X1))",
            "X1 /\\ ~(~X2 \\/ ~(X3 /\\ X4))",
        ],
    )
    def test_negation_over_connectives(self, text):
        formula = parse_bool(text)
        assert nnf(formula) == reference_nnf(formula)
        assert ddagger(formula) == reference_ddagger(formula)

    @pytest.mark.parametrize("translate", [nnf, ddagger])
    def test_builds_no_node_outside_its_result(self, monkeypatch, translate):
        made = []
        for kind in NODE_TYPES:
            def counting(node, *fields, original=kind.__init__):
                original(node, *fields)
                made.append(node)

            monkeypatch.setattr(kind, "__init__", counting)
        rng = random.Random(8080)
        for size in range(12):
            formula = Not(random_bool_formula(rng, 4, size))
            made.clear()
            image = translate(formula)
            connectives = {id(node) for node in _nodes(image) if type(node) is not Var}
            assert len(made) == len(connectives)
            assert {id(node) for node in made} == connectives

    def test_deep_negations_do_not_recurse(self):
        formula = parse_bool("~" * 100_001 + "(X1 /\\ X2)")
        assert nnf(formula) == Or(Not(Var(1)), Not(Var(2)))
        assert ddagger(formula) == Join(ddagger(Not(Var(1))), ddagger(Not(Var(2))))


class TestLiftPoint:
    def test_bit_one_goes_high(self):
        assert lift_point({1: 1}, 2) == {1: Fraction(2, 3)}

    def test_bit_zero_goes_low(self):
        assert lift_point({1: 0}, 2) == {1: Fraction(1, 3)}

    def test_componentwise(self):
        assert lift_point({1: 0, 2: 1, 3: 1}, 4) == {
            1: Fraction(1, 5),
            2: Fraction(4, 5),
            3: Fraction(4, 5),
        }

    def test_small_spacing_rejected(self):
        with pytest.raises(ValueError):
            lift_point({1: 1}, 1)

    def test_non_bit_rejected(self):
        with pytest.raises(ValueError):
            lift_point({1: 2}, 3)


class TestConstraintFormula:
    def test_built_from_the_documented_pieces(self):
        x = Var(1)
        expected = Join(
            iff(power(x, 2), Neg(x)), iff(x, Neg(multiple(2, x)))
        )
        assert constraint_formula(1, 2) == expected

    def test_conjunction_over_all_variables(self):
        unit = lambda t, e: Join(
            iff(power(Var(t), e), Neg(Var(t))),
            iff(Var(t), Neg(multiple(e, Var(t)))),
        )
        assert constraint_formula(3, 2) == Meet(
            Meet(unit(1, 2), unit(2, 2)), unit(3, 2)
        )

    def test_satisfied_exactly_on_the_grid_points(self):
        formula = constraint_formula(1, 2)
        assert eval_luk(formula, {1: Fraction(2, 3)}) == 1
        assert eval_luk(formula, {1: Fraction(1, 3)}) == 1

    def test_half_scores_one_half(self):
        assert eval_luk(constraint_formula(1, 2), {1: Fraction(1, 2)}) == Fraction(1, 2)

    @pytest.mark.parametrize("e", [2, 3])
    def test_exhaustive_small_grid(self, e):
        # scalar-evaluator route; the full denominator-12 sweep runs in the
        # acceptance suite on the lattice evaluator
        low, high = grid_values(e)
        points = denominator_bounded_fractions(6)
        for n in (1, 2):
            formula = constraint_formula(n, e)
            for coords in itertools.product(points, repeat=n):
                point = dict(enumerate(coords, start=1))
                expected = all(c in (low, high) for c in coords)
                assert (eval_luk(formula, point) == 1) == expected

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            constraint_formula(0, 2)
        with pytest.raises(ValueError):
            constraint_formula(1, 1)


class TestConsequent:
    def test_single_group_shape(self):
        instance = StableInstance(1, (FormulaGroup((Var(1),), 0),))
        expected = implies(ddagger(Var(1)), power(Join(Var(1), Neg(Var(1))), 1))
        assert consequent(instance) == expected

    @pytest.mark.parametrize("e", [2, 3, 4])
    def test_excluded_middle_power_value_on_grid(self, e):
        # at any grid point the base maxes out at e/(e+1), so its (d+1)-th
        # strong power is 1 - (d+1)/(e+1)
        base = Join(Var(1), Neg(Var(1)))
        for d in range(0, e + 1):
            target = power(base, d + 1)
            for bit in (0, 1):
                point = lift_point({1: bit}, e)
                assert eval_luk(target, point) == 1 - Fraction(d + 1, e + 1)

    def test_block_values_are_grid_multiples(self):
        rng = random.Random(7321)
        for _ in range(40):
            n = rng.randint(1, 3)
            e = rng.choice([2, 3, 5])
            formulas = [random_bool_formula(rng, n, 5) for _ in range(3)]
            block = ddagger(formulas[0])
            for extra in formulas[1:]:
                block = Otimes(block, ddagger(extra))
            for assignment in assignments_over(range(1, n + 1)):
                value = eval_luk(block, lift_point(assignment, e))
                assert (e + 1) % value.denominator == 0


class TestInstances:
    def test_duplicate_formulas_rejected(self):
        with pytest.raises(InstanceError):
            FormulaGroup((Var(1), Var(1)), 0)

    def test_delete_count_must_leave_a_formula(self):
        with pytest.raises(InstanceError):
            FormulaGroup((Var(1), Not(Var(1))), 2)

    def test_negative_delete_count_rejected(self):
        with pytest.raises(InstanceError):
            FormulaGroup((Var(1),), -1)

    def test_empty_group_rejected(self):
        with pytest.raises(InstanceError):
            FormulaGroup((), 0)

    def test_variable_beyond_declared_range_rejected(self):
        with pytest.raises(InstanceError):
            StableInstance(1, (FormulaGroup((Var(2),), 0),))

    def test_instance_needs_a_group(self):
        with pytest.raises(InstanceError):
            StableInstance(1, ())

    @pytest.mark.parametrize("n", [0, -3])
    def test_variable_count_must_be_positive(self, n):
        with pytest.raises(InstanceError, match=f"variable count must be >= 1, got {n}"):
            StableInstance(n, (FormulaGroup((Var(1),), 0),))

    def test_json_round_trip(self):
        doc = {
            "n": 2,
            "groups": [
                {"formulas": ["X1", "~X1 \\/ X2"], "delete": 1},
                {"formulas": ["~X2"], "delete": 0},
            ],
        }
        instance = instance_from_json(doc)
        assert instance_to_json(instance) == doc

    def test_json_validation_points_at_the_fault(self):
        doc = {"n": 1, "groups": [{"formulas": ["X1 @"], "delete": 0}]}
        with pytest.raises(InstanceError, match=r"groups\[0\].formulas\[0\]"):
            instance_from_json(doc)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "instance document must be a JSON object"),
            ({"n": "1", "groups": []}, '"n" must be an integer'),
            ({"n": True, "groups": []}, '"n" must be an integer'),
            ({"n": 1, "groups": []}, '"groups" must be a nonempty list'),
            ({"n": 1}, '"groups" must be a nonempty list'),
            ({"n": 1, "groups": ["X1"]}, "groups[0] must be an object"),
            ({"n": 1, "groups": [{"formulas": [], "delete": 0}]},
             "groups[0].formulas must be a nonempty list"),
            ({"n": 1, "groups": [{"formulas": ["X1", 1], "delete": 0}]},
             "groups[0].formulas[1] must be a string"),
            ({"n": 1, "groups": [{"formulas": ["X1"], "delete": False}]},
             "groups[0].delete must be an integer"),
        ],
    )
    def test_json_shape_errors_name_the_field(self, doc, message):
        with pytest.raises(InstanceError) as raised:
            instance_from_json(doc)
        assert str(raised.value) == message

    def test_unary_length_accounting(self):
        instance = instance_from_json(
            {"n": 1, "groups": [{"formulas": ["X1", "~X1"], "delete": 1}]}
        )
        formulas_cost = measure(Var(1)).paper_symbol_count + measure(
            Not(Var(1))
        ).paper_symbol_count
        assert instance_length(instance) == formulas_cost + 2


GAPS = {
    "n": 9,
    "groups": [
        {"formulas": ["X3", "X7 \\/ ~X3", "~X9"], "delete": 1},
        {"formulas": ["X9 /\\ X7"], "delete": 0},
    ],
}

GAPLESS = {
    "n": 3,
    "groups": [
        {"formulas": ["X1", "X2 \\/ ~X1", "~X3"], "delete": 1},
        {"formulas": ["X3 /\\ X2"], "delete": 0},
    ],
}


class TestNormalization:
    def test_gapless_instance_untouched(self):
        instance = instance_from_json(
            {"n": 2, "groups": [{"formulas": ["X1 /\\ X2"], "delete": 0}]}
        )
        normalized, mapping = normalize_variables(instance)
        assert normalized is instance
        assert mapping == {1: 1, 2: 2}

    def test_gaps_are_renumbered(self):
        instance = instance_from_json(
            {"n": 3, "groups": [{"formulas": ["X3 \\/ ~X3"], "delete": 0}]}
        )
        normalized, mapping = normalize_variables(instance)
        assert mapping == {3: 1}
        assert normalized.n == 1
        assert normalized.groups[0].formulas[0] == Or(Var(1), Not(Var(1)))

    def test_used_is_derived_and_ignored_by_equality(self):
        instance = instance_from_json(GAPS)
        assert instance.used == (3, 7, 9)
        assert "used" not in repr(instance)
        assert instance == StableInstance(instance.n, instance.groups)
        assert normalize_variables(instance)[0].used == (1, 2, 3)

    @pytest.mark.parametrize("doc", [GAPS, GAPLESS], ids=["gaps", "gapless"])
    def test_each_formula_is_walked_once(self, monkeypatch, doc):
        # validation collects the used indices and normalization reads them;
        # only a renumbered instance's own validation walks its new formulas
        walked = []

        def spy(formula):
            walked.append(formula)
            return variables(formula)

        monkeypatch.setattr(stablecons.reduction, "variables", spy)
        instance = instance_from_json(doc)
        normalized = reduce_instance(instance).instance
        formulas = [f for group in instance.groups for f in group.formulas]
        if normalized is not instance:
            formulas += [f for group in normalized.groups for f in group.formulas]
        assert list(map(id, walked)) == list(map(id, formulas))
        assert len(walked) == (8 if doc is GAPS else 4)


class TestReduce:
    def test_contradictory_singleton_pair(self):
        instance = instance_from_json(
            {"n": 1, "groups": [{"formulas": ["X1", "~X1"], "delete": 0}]}
        )
        output = reduce_instance(instance)
        assert output.e == 2
        assert output.theta == constraint_formula(1, 2)
        assert output.phi == consequent(instance)

    def test_parameter_is_max_of_two_and_deletions(self):
        instance = instance_from_json(
            {
                "n": 1,
                "groups": [
                    {"formulas": ["X1", "~X1", "~~X1", "~~~X1"], "delete": 3}
                ],
            }
        )
        assert reduce_instance(instance).e == 3

    def test_pair_covers_exactly_the_declared_variables(self):
        rng = random.Random(5150)
        from stablecons import HarnessLimits, random_instance

        for _ in range(30):
            instance = random_instance(rng, HarnessLimits())
            output = reduce_instance(instance)
            full = set(range(1, output.stats.n + 1))
            assert variables(output.theta) == full
            assert variables(output.theta) | variables(output.phi) == full

    def test_stats_are_consistent(self):
        instance = instance_from_json(
            {"n": 1, "groups": [{"formulas": ["X1"], "delete": 0}]}
        )
        output = reduce_instance(instance)
        stats = output.stats
        assert stats.instance_length == instance_length(instance)
        assert stats.output_length == (
            measure(output.theta).paper_symbol_count
            + measure(output.phi).paper_symbol_count
        )
        assert stats.ratio == Fraction(stats.output_length, stats.n * stats.instance_length)

    def test_stats_match_an_eager_reference(self):
        rng = random.Random(6061)
        renumbered = 0
        for _ in range(80):
            instance = random_instance(rng, HarnessLimits(max_vars=6))
            output = reduce_instance(instance)
            normalized, _ = normalize_variables(instance)
            renumbered += normalized is not instance
            theta = constraint_formula(normalized.n, output.e)
            inst_len = instance_length(normalized)
            out_len = (
                measure(theta).paper_symbol_count
                + measure(consequent(normalized)).paper_symbol_count
            )
            stats = output.stats
            assert (stats.instance_length, stats.output_length, stats.n) == (
                inst_len,
                out_len,
                normalized.n,
            )
            assert stats.ratio == Fraction(out_len, normalized.n * inst_len)
            assert (output.n, output.instance) == (normalized.n, normalized)
            assert output.theta == theta
        assert renumbered > 10

    def test_normalized_variables_reported(self):
        instance = instance_from_json(
            {"n": 2, "groups": [{"formulas": ["X2"], "delete": 0}]}
        )
        output = reduce_instance(instance)
        assert output.var_map == {2: 1}
        assert output.stats.n == 1
