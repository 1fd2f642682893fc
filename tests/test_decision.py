import functools
import itertools
import json
import math
import random
from fractions import Fraction
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import stablecons.decision
from stablecons import (
    CONSEQUENCE,
    COUNTERMODEL,
    INCONCLUSIVE,
    And,
    BudgetExceededError,
    FormulaGroup,
    HarnessLimits,
    Not,
    Otimes,
    StableInstance,
    Var,
    check_consequence_rho,
    coefficient_bound,
    denominator_bounded_fractions,
    estar,
    eval_bool,
    eval_luk,
    find_countermodel,
    harness_trials,
    instance_from_json,
    lift_point,
    measure,
    parse_bool,
    parse_luk,
    random_instance,
    random_luk_formula,
    reduce_instance,
    stable_bruteforce,
    variables,
)
from formula_strategies import luk_formulas


def unsatisfiable(formulas, n):
    """Test-local conjunction UNSAT check by full enumeration."""
    for bits in itertools.product((0, 1), repeat=n):
        assignment = dict(enumerate(bits, start=1))
        if all(eval_bool(f, assignment) == 1 for f in formulas):
            return False
    return True


def instance_of(n, *groups):
    return StableInstance(
        n,
        tuple(
            FormulaGroup(tuple(parse_bool(t) for t in texts), delete)
            for texts, delete in groups
        ),
    )


def bits_of(k, n):
    """Assignment number k of ``itertools.product((0, 1), repeat=n)``."""
    return {i: (k >> (n - i)) & 1 for i in range(1, n + 1)}


def holding_only_at(bits):
    """One group {psi}, delete 0, where psi holds only at the assignment."""
    literals = [Var(i) if bit else Not(Var(i)) for i, bit in bits.items()]
    psi = functools.reduce(And, literals)
    return StableInstance(len(bits), (FormulaGroup((psi,), 0),))


def scalar_grid_check(output):
    """Reference for the grid check: one Fraction point at a time."""
    for bits in itertools.product((0, 1), repeat=output.stats.n):
        point = lift_point(dict(enumerate(bits, start=1)), output.e)
        if eval_luk(output.phi, point) != 1:
            return COUNTERMODEL, point
    return CONSEQUENCE, None


def scalar_pair_scan(theta, phi, max_denominator):
    """Reference for the pair scan: one Fraction point at a time."""
    var_order = sorted(variables(theta) | variables(phi))
    axis = denominator_bounded_fractions(max_denominator)
    for values in itertools.product(axis, repeat=len(var_order)):
        point = dict(zip(var_order, values))
        if eval_luk(theta, point) == 1 and eval_luk(phi, point) < 1:
            return COUNTERMODEL, point
    return INCONCLUSIVE, None


class TestStableBruteforce:
    def test_plain_contradiction_is_stable(self):
        verdict = stable_bruteforce(instance_of(1, (("X1", "~X1"), 0)))
        assert verdict.stable
        assert verdict.to_json() == {"stable": True}

    def test_one_deletion_breaks_the_contradiction(self):
        verdict = stable_bruteforce(instance_of(1, (("X1", "~X1"), 1)))
        assert not verdict.stable
        # witness re-verifies: survivors of the deletion are satisfied
        instance = instance_of(1, (("X1", "~X1"), 1))
        survivors = [
            f
            for group, removed in zip(instance.groups, verdict.deleted)
            for j, f in enumerate(group.formulas)
            if j not in removed
        ]
        assert all(eval_bool(f, verdict.assignment) == 1 for f in survivors)

    def test_two_group_stable_example(self):
        verdict = stable_bruteforce(
            instance_of(2, (("~X1",), 0), (("X1", "X1 /\\ X2"), 1))
        )
        assert verdict.stable

    def test_witness_is_lexicographically_first(self):
        verdict = stable_bruteforce(instance_of(1, (("X1", "~X1"), 1)))
        # deleting index 0 (the first formula) leaves ~X1, satisfied by X1=0
        assert verdict.deleted == ((0,),)
        assert verdict.assignment == {1: 0}

    def test_budget_is_a_hard_cap(self):
        with pytest.raises(BudgetExceededError):
            stable_bruteforce(instance_of(2, (("X1", "X2"), 1)), budget=1)

    def test_agrees_with_plain_unsat_when_nothing_is_deleted(self):
        rng = random.Random(321)
        from stablecons import random_bool_formula

        for _ in range(40):
            n = rng.randint(1, 3)
            formula = random_bool_formula(rng, n, 6)
            verdict = stable_bruteforce(
                StableInstance(n, (FormulaGroup((formula,), 0),))
            )
            assert verdict.stable == unsatisfiable([formula], n)

    def test_monotone_in_the_deletion_counts(self):
        rng = random.Random(654)
        limits = HarnessLimits(max_groups=2, max_group_size=3, max_vars=2)
        checked = 0
        while checked < 15:
            instance = random_instance(rng, limits)
            counts = tuple(g.delete_count for g in instance.groups)
            if not stable_bruteforce(instance).stable or not any(counts):
                continue
            checked += 1
            for smaller in itertools.product(*(range(c + 1) for c in counts)):
                shrunk = StableInstance(
                    instance.n,
                    tuple(
                        FormulaGroup(g.formulas, d)
                        for g, d in zip(instance.groups, smaller)
                    ),
                )
                assert stable_bruteforce(shrunk).stable


class TestCheckConsequenceRho:
    def test_stable_instance_reduces_to_consequence(self):
        output = reduce_instance(instance_of(1, (("X1", "~X1"), 0)))
        verdict = check_consequence_rho(output)
        assert verdict.kind == CONSEQUENCE
        assert verdict.certified

    def test_satisfiable_singleton_yields_grid_countermodel(self):
        output = reduce_instance(instance_of(1, (("X1",), 0)))
        verdict = check_consequence_rho(output)
        assert verdict.kind == COUNTERMODEL
        assert verdict.witness == {1: Fraction(2, 3)}
        assert eval_luk(output.theta, verdict.witness) == 1
        assert eval_luk(output.phi, verdict.witness) < 1

    def test_budget_is_a_hard_cap(self):
        output = reduce_instance(instance_of(3, (("X1 /\\ X2 /\\ X3",), 0)))
        with pytest.raises(BudgetExceededError):
            check_consequence_rho(output, budget=7)

    # scan chunks hold 64, 256, 1024, 4096 rows: these straddle each boundary
    @pytest.mark.parametrize("k", [0, 63, 64, 65, 319, 320, 1343, 1344, 4095])
    def test_first_hit_across_chunk_boundaries(self, k):
        bits = bits_of(k, 12)
        output = reduce_instance(holding_only_at(bits))
        verdict = check_consequence_rho(output)
        assert verdict.kind == COUNTERMODEL
        assert verdict.witness == lift_point(bits, output.e)

    def test_matches_the_scalar_reference_scan(self):
        rng = random.Random(4242)
        limits = HarnessLimits(max_vars=6)
        kinds = set()
        for _ in range(200):
            output = reduce_instance(random_instance(rng, limits))
            verdict = check_consequence_rho(output)
            assert (verdict.kind, verdict.witness) == scalar_grid_check(output)
            kinds.add(verdict.kind)
        assert kinds == {CONSEQUENCE, COUNTERMODEL}

    def test_indices_decode_past_63_bits(self, monkeypatch):
        # 2**70 grid points; the hit at index 100 sits in the second chunk
        bits = bits_of(100, 70)
        output = reduce_instance(holding_only_at(bits))
        points = []
        lattice = stablecons.decision.eval_luk_lattice

        def recording(formula, var_order, numerators, denominator, **options):
            shapes = [np.shape(values) for values in numerators]
            points.append(math.prod(np.broadcast_shapes(*shapes)))
            return lattice(formula, var_order, numerators, denominator, **options)

        monkeypatch.setattr(stablecons.decision, "eval_luk_lattice", recording)
        verdict = check_consequence_rho(output, budget=2**70)
        assert verdict.witness == lift_point(bits, output.e)
        assert points == [64, 256]


class TestFindCountermodel:
    def test_finds_the_halfway_countermodel(self):
        verdict = find_countermodel(parse_luk("X1 (+) X1"), parse_luk("X1"), 2)
        assert verdict.kind == COUNTERMODEL
        assert verdict.witness == {1: Fraction(1, 2)}

    def test_tautological_antecedent(self):
        verdict = find_countermodel(parse_luk("X1 -> X1"), parse_luk("X1"), 1)
        assert verdict.kind == COUNTERMODEL
        assert verdict.witness == {1: Fraction(0)}

    def test_inconclusive_when_the_pair_is_a_consequence(self):
        verdict = find_countermodel(parse_luk("X1"), parse_luk("X1 (+) X1"), 8)
        assert verdict.kind == INCONCLUSIVE
        assert verdict.bound == 8

    def test_budget_is_a_hard_cap(self):
        theta = parse_luk("X1 (*) X2 (*) X3")
        with pytest.raises(BudgetExceededError):
            find_countermodel(theta, parse_luk("X1"), 12, budget=100)

    def test_witness_is_lexicographically_first(self):
        # antecedent is 1 on [1/2, 1] x anything; scan order is ascending in
        # X1 first, then X2, so the first hit is (1/2, 0)
        theta = parse_luk("X1 (+) X1")
        phi = parse_luk("X1 (*) X2")
        verdict = find_countermodel(theta, phi, 2)
        assert verdict.witness == {1: Fraction(1, 2), 2: Fraction(0)}

    def test_every_emitted_witness_reverifies(self):
        rng = random.Random(2024)
        for _ in range(80):
            n = rng.randint(1, 3)
            theta = random_luk_formula(rng, n, 5)
            phi = random_luk_formula(rng, n, 5)
            verdict = find_countermodel(theta, phi, rng.randint(1, 6))
            if verdict.kind == COUNTERMODEL:
                assert eval_luk(theta, verdict.witness) == 1
                assert eval_luk(phi, verdict.witness) < 1

    def test_first_hit_matches_the_scalar_reference_scan(self):
        rng = random.Random(5150)
        kinds = set()
        for trial in range(90):
            m = rng.randint(1, 3)
            phi = random_luk_formula(rng, m, 4)
            theta = random_luk_formula(rng, m, 4)
            if trial % 3 == 1:  # theta (*) phi = 1 forces phi = 1
                theta = Otimes(theta, phi)
            elif trial % 3 == 2:  # forces X1 = 1: hits lie in the last slab
                theta = Otimes(theta, Var(1))
            q = rng.randint(1, 5)
            verdict = find_countermodel(theta, phi, q)
            kind, witness = scalar_pair_scan(theta, phi, q)
            assert (verdict.kind, verdict.witness) == (kind, witness)
            if kind == INCONCLUSIVE:
                assert verdict.bound == q
            kinds.add(kind)
        assert kinds == {COUNTERMODEL, INCONCLUSIVE}


class TestWitnessReverification:
    """A scan hit that is not a countermodel is an error, never a verdict."""

    # numerators over L = e + 1 = 3: a grid point where phi = 1 (the instance
    # is stable), and (2/3, 0), off the grid, where phi < 1 but theta = 0
    @pytest.mark.parametrize(
        "n, formulas, hit", [(1, ("X1", "~X1"), (1,)), (2, ("X1 /\\ X2",), (2, 0))]
    )
    def test_grid_check(self, monkeypatch, n, formulas, hit):
        output = reduce_instance(instance_of(n, (formulas, 0)))
        monkeypatch.setattr(stablecons.decision, "_scan", lambda *args: hit)
        with pytest.raises(RuntimeError, match="evaluators disagree"):
            check_consequence_rho(output)

    # numerators over L = lcm(1, 2, 3) = 6: X1 = 1 makes theta and phi 1;
    # X1 = 0 makes phi < 1 but theta 0
    @pytest.mark.parametrize("phi, hit", [("X1", (6,)), ("X1 (*) X1", (0,))])
    def test_pair_scan(self, monkeypatch, phi, hit):
        monkeypatch.setattr(stablecons.decision, "_scan", lambda *args: hit)
        with pytest.raises(RuntimeError, match="evaluators disagree"):
            find_countermodel(parse_luk("X1"), parse_luk(phi), 3)


def scan_schedule(first, largest):
    """Run the scan with other chunk sizes: small ones put leading
    (scalar-bound) variables and aligned slabs into small lattices."""
    return mock.patch.multiple(
        stablecons.decision, _FIRST_CHUNK=first, _SCAN_CHUNK=largest
    )


# the default schedule and two small ones; with q = 3 (5 axis entries) and
# four variables, (2, 16) scans [0, 2) and [0, 5) and then aligned slabs of
# 15 and 10 points, with two leading variables fixed
SCHEDULES = [(64, 1 << 16), (2, 16), (4, 128)]


class TestScanShapes:
    @settings(max_examples=60)
    @given(
        luk_formulas(max_index=4, max_leaves=5),
        luk_formulas(max_index=4, max_leaves=5),
        st.integers(1, 6),
        st.sampled_from(["plain", "theta and phi", "forces X1"]),
        st.sampled_from(SCHEDULES),
    )
    def test_pair_scan_matches_the_scalar_reference(
        self, theta, phi, q, shape, schedule
    ):
        if shape == "theta and phi":
            theta = Otimes(theta, phi)
        elif shape == "forces X1":
            theta = Otimes(theta, Var(1))
        with scan_schedule(*schedule):
            verdict = find_countermodel(theta, phi, q)
        assert (verdict.kind, verdict.witness) == scalar_pair_scan(theta, phi, q)

    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize(
        "theta, phi",
        [
            # variables with gaps: var_order is (2, 5, 7)
            ("X2 (+) X5 (+) X7", "X7 (*) X2 (+) X5"),
            ("~X5 (*) X7 (+) X2", "X2 /\\ X5"),
            # theta mentions only X1, a leading variable under small chunks
            ("X1 (+) X1", "X1 (*) X2 (*) X3 (*) X4"),
            # phi mentions only X1
            ("X2 (+) X3 (+) X4 (+) X1", "X1 (+) X1 (+) X1"),
            # neither mentions X2 or X3, the slab variable of some chunks
            ("X1 (+) X4 (+) X4", "X4 (*) X1 (+) X1 (*) X4"),
            ("X1 (+) X4", "(X1 (*) X4) \\/ (X2 (*) X3)"),
            # the first model has X1 < X2, so the leading digits' order shows
            ("X1 (+) X2", "X3 (*) X4"),
            # a consequence: the scan runs to the end
            ("X1 (*) X2 (*) X3 (*) X4", "X4 (+) X3"),
        ],
    )
    def test_formulas_off_the_slab_axes(self, theta, phi, schedule):
        theta, phi = parse_luk(theta), parse_luk(phi)
        for q in (1, 2, 3):
            with scan_schedule(*schedule):
                verdict = find_countermodel(theta, phi, q)
            assert (verdict.kind, verdict.witness) == scalar_pair_scan(theta, phi, q)

    # with n = 17 the scan covers [0, 64), [0, 256), ..., [0, 16384) while
    # chunks grow, then the aligned slabs [0, 65536) and [65536, 131072)
    @pytest.mark.parametrize(
        "k, chunks",
        [
            (16383, [64, 256, 1024, 4096, 16384]),
            (16384, [64, 256, 1024, 4096, 16384, 65536]),
            (65535, [64, 256, 1024, 4096, 16384, 65536]),
            (65536, [64, 256, 1024, 4096, 16384, 65536, 65536]),
            (2**17 - 1, [64, 256, 1024, 4096, 16384, 65536, 65536]),
        ],
    )
    def test_first_hit_at_the_schedule_boundaries(self, monkeypatch, k, chunks):
        bits = bits_of(k, 17)
        output = reduce_instance(holding_only_at(bits))
        points = []
        lattice = stablecons.decision.eval_luk_lattice

        def recording(formula, var_order, numerators, denominator, **options):
            shapes = [np.shape(values) for values in numerators]
            points.append(math.prod(np.broadcast_shapes(*shapes)))
            return lattice(formula, var_order, numerators, denominator, **options)

        monkeypatch.setattr(stablecons.decision, "eval_luk_lattice", recording)
        verdict = check_consequence_rho(output)
        assert verdict.witness == lift_point(bits, output.e)
        assert points == chunks

    @pytest.mark.parametrize("q", [23, 42])
    def test_denominators_past_2_to_the_31(self, q):
        # lcm(1..23) > 2**32 and lcm(1..42) ~ 2.2e17; both still scan exactly
        pairs = [
            (" (+) ".join(["X1"] * 41), "X1"),  # theta = 1 from X1 = 1/41 on
            ("X1", "X1 (+) X1"),
            ("X1 (+) X1", "X1 (*) X1 (+) X1 (*) X1"),
        ]
        witnesses = []
        for theta, phi in pairs:
            theta, phi = parse_luk(theta), parse_luk(phi)
            verdict = find_countermodel(theta, phi, q)
            assert (verdict.kind, verdict.witness) == scalar_pair_scan(theta, phi, q)
            witnesses.append(verdict.witness)
        assert witnesses[0] == {1: Fraction(1, min(q, 41))}
        assert witnesses[1] is None

    def test_denominator_past_int64_is_rejected_before_scanning(self):
        with pytest.raises(ValueError, match="too large"):
            find_countermodel(parse_luk("X1"), parse_luk("X1"), 43)


class TestCoefficientBound:
    def test_no_connectives(self):
        assert coefficient_bound(Var(1), Var(1)) == 0

    def test_counts_both_sides(self):
        assert coefficient_bound(parse_luk("~X1"), parse_luk("X1 (+) X1")) == 2

    def test_below_token_lengths(self):
        rng = random.Random(88)
        for _ in range(40):
            theta = random_luk_formula(rng, 3, 6)
            phi = random_luk_formula(rng, 3, 6)
            assert coefficient_bound(theta, phi) < (
                measure(theta).token_count + measure(phi).token_count
            )


class TestHarness:
    def test_streams_are_deterministic(self):
        first = list(harness_trials(seed=3, trials=10))
        second = list(harness_trials(seed=3, trials=10))
        assert json.dumps(first) == json.dumps(second)

    def test_small_run_has_no_disagreements(self):
        records = list(harness_trials(seed=11, trials=30))
        assert [record for record in records if not record["agree"]] == []
        assert len(records) == 30

    def test_records_embed_the_instance(self):
        (record,) = list(harness_trials(seed=5, trials=1))
        rebuilt = instance_from_json(record["instance"])
        assert stable_bruteforce(rebuilt).stable == record["stable"]

    def test_zero_trials(self):
        assert list(harness_trials(seed=1, trials=0)) == []


class TestEstar:
    def test_fully_redundant_dubious_set(self):
        nabla = [parse_bool("X1"), parse_bool("X1 \\/ X1"), parse_bool("X1 /\\ X1")]
        result = estar([], nabla, parse_bool("X1"))
        assert result.e_star == 2

    def test_both_members_needed(self):
        result = estar([], [parse_bool("X1"), parse_bool("X2")], parse_bool("X1 /\\ X2"))
        assert result.e_star == 0

    def test_no_entailment(self):
        result = estar([], [parse_bool("X2")], parse_bool("X1"))
        assert result.e_star is None

    def test_empty_dubious_set_rejected(self):
        with pytest.raises(ValueError):
            estar([], [], parse_bool("X1"))

    def test_delta_contributes(self):
        # with the support of delta = {X1}, the conclusion X1 /\ X2 survives
        # deleting either redundant copy of X2
        delta = [parse_bool("X1")]
        nabla = [parse_bool("X2"), parse_bool("X2 /\\ X2")]
        result = estar(delta, nabla, parse_bool("X1 /\\ X2"))
        assert result.e_star == 1

    def test_logarithmic_check_count(self):
        nabla = [parse_bool("X1")] + [
            parse_bool("X1" + " \\/ X1" * k) for k in range(1, 5)
        ]
        result = estar([], nabla, parse_bool("X1"))
        assert result.e_star == 4
        assert result.checks_performed <= 2 + math.ceil(math.log2(len(nabla)))

    def test_matches_linear_scan_on_random_inputs(self):
        rng = random.Random(9090)
        from stablecons import random_bool_formula

        for _ in range(20):
            n = rng.randint(1, 2)
            omega = random_bool_formula(rng, n, 3)
            delta = []
            nabla = []
            while len(nabla) < rng.randint(1, 4):
                candidate = random_bool_formula(rng, n, 3)
                if candidate not in nabla:
                    nabla.append(candidate)
            result = estar(delta, nabla, omega)

            # independent route: brute-force stability of each instance
            from stablecons import Not

            core = []
            for f in delta + [Not(omega)]:
                if f not in core:
                    core.append(f)
            scan = None
            for e in range(len(nabla)):
                instance = StableInstance(
                    n, (FormulaGroup(tuple(core), 0), FormulaGroup(tuple(nabla), e))
                )
                if stable_bruteforce(instance).stable:
                    scan = e
                else:
                    break
            assert result.e_star == scan
