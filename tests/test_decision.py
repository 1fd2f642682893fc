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
import stablecons.reduction
import stablecons.semantics
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
    measure,
    parse_bool,
    parse_luk,
    random_bool_formula,
    random_instance,
    reduce_instance,
    stable_bruteforce,
    variables,
)
from stablecons.semantics import compile_luk
from formula_strategies import (
    bool_formulas,
    lift_point,
    luk_formulas,
    random_luk_formula,
)


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
    for bits in itertools.product((0, 1), repeat=output.n):
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


def spy_on_scan(monkeypatch):
    """Spy on the runner the scan calls: (program, points bound) per call."""
    calls = []
    run = stablecons.semantics._run

    def recording(program, binding, table):
        shape = np.broadcast_shapes(*(np.shape(value) for value in binding.values()))
        calls.append((program, math.prod(shape)))
        return run(program, binding, table)

    monkeypatch.setattr(stablecons.semantics, "_run", recording)
    return calls


def points_of(calls, formula):
    """Points at which the spied scan evaluated ``formula``."""
    program = compile_luk(formula)
    return sum(points for code, points in calls if code == program)


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

    @pytest.mark.parametrize(
        "n, needed",
        [
            (2045, 6 * 2**2045),  # below 2**2048: built and printed exactly
            (2046, "at least 2**2048"),
            (10**10, f"at least 2**{10**10 + 2}"),  # 2**n would take 1.25 GB
        ],
        ids=["2045", "2046", "10**10"],
    )
    def test_a_count_too_large_to_print_is_not_built(self, n, needed):
        # (3 choose 1) * (2 choose 1) = 6 deletion choices
        instance = instance_of(n, (("X1", "X2", "X3"), 1), (("X1", "~X1"), 1))
        with pytest.raises(BudgetExceededError) as raised:
            stable_bruteforce(instance)
        assert raised.value.needed == needed
        assert str(raised.value) == (
            f"stability enumeration needs {needed} steps, budget is 5000000"
        )

    def test_a_budget_past_2_to_the_2048_is_compared_exactly(self):
        # 3 * 2**3000 steps: built, since the budget has 3002 bits
        instance = instance_of(3000, (("~X1", "~X2", "~X3"), 1))
        with pytest.raises(BudgetExceededError) as raised:
            stable_bruteforce(instance, budget=3 * 2**3000 - 1)
        assert raised.value.needed == "at least 2**3001"
        # at the count itself the enumeration runs: ~X2 and ~X3 hold at once
        assert not stable_bruteforce(instance, budget=3 * 2**3000).stable

    @pytest.mark.parametrize(
        "budget, shown",
        [
            (2**2048 - 1, str(2**2048 - 1)),
            (2**2048, "at least 2**2048"),
            (2**15000, "at least 2**15000"),  # str() of it is a ValueError
        ],
        ids=["2**2048-1", "2**2048", "2**15000"],
    )
    def test_a_budget_too_large_to_print_is_shown_as_a_power(self, budget, shown):
        instance = StableInstance(20000, (FormulaGroup((Var(20000),), 0),))
        with pytest.raises(BudgetExceededError) as raised:
            stable_bruteforce(instance, budget=budget)
        assert raised.value.budget == budget
        assert str(raised.value) == (
            f"stability enumeration needs at least 2**20000 steps, budget is {shown}"
        )

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

    # 2**13 points exceed what one call scans whole, so chunks hold 64, 256,
    # 1024, 4096 rows: these straddle each boundary
    @pytest.mark.parametrize("k", [0, 63, 64, 65, 319, 320, 1343, 1344, 4095])
    def test_first_hit_across_chunk_boundaries(self, k):
        bits = bits_of(k, 13)
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
        calls = spy_on_scan(monkeypatch)
        verdict = check_consequence_rho(output, budget=2**70)
        assert verdict.witness == lift_point(bits, output.e)
        assert [points for _, points in calls] == [64, 256]

    def test_a_small_grid_is_one_lattice_call(self, monkeypatch):
        # 2**10 points fit one call: the stable grid is scanned once, not
        # as 64, 256 and then 1024 points
        every = " /\\ ".join(f"X{i}" for i in range(1, 11))
        output = reduce_instance(instance_of(10, ((every, "~X10"), 0)))
        calls = spy_on_scan(monkeypatch)
        verdict = check_consequence_rho(output)
        assert verdict.kind == CONSEQUENCE and verdict.certified
        assert [points for _, points in calls] == [2**10]

    def test_the_axis_is_checked_once_per_scan(self, monkeypatch):
        # 2**13 points take several batches; none of them sizes the axis again
        every = " /\\ ".join(f"X{i}" for i in range(1, 14))
        output = reduce_instance(instance_of(13, ((every, "~X13"), 0)))
        checks = []

        def counting(*args, original=stablecons.semantics._lattice_dtype):
            checks.append(args)
            return original(*args)

        monkeypatch.setattr(stablecons.semantics, "_lattice_dtype", counting)
        calls = spy_on_scan(monkeypatch)
        verdict = check_consequence_rho(output)
        assert verdict.kind == CONSEQUENCE and verdict.certified
        assert len(calls) > 1
        assert len(checks) == 1


def spy_on_reduction(monkeypatch, *names):
    """Record each call of the named ``stablecons.reduction`` functions."""
    calls = []
    for name in names:
        def spying(*args, name=name, original=getattr(stablecons.reduction, name)):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(stablecons.reduction, name, spying)
    return calls


class TestGridCheckReadsOnlyWhatItNeeds:
    def test_a_stable_instance_builds_no_antecedent_and_no_stats(self, monkeypatch):
        instance = instance_of(
            3, (("X2", "X2 /\\ (X1 \\/ X3)"), 1), (("~X2",), 0)
        )
        calls = spy_on_reduction(
            monkeypatch, "constraint_formula", "measure", "instance_length"
        )
        verdict = check_consequence_rho(reduce_instance(instance))
        assert verdict.kind == CONSEQUENCE and verdict.certified
        assert calls == []

    def test_a_countermodel_builds_the_antecedent_once(self, monkeypatch):
        bits = bits_of(5, 4)
        output = reduce_instance(holding_only_at(bits))
        calls = spy_on_reduction(
            monkeypatch, "constraint_formula", "measure", "instance_length"
        )
        verdict = check_consequence_rho(output)
        assert verdict.witness == lift_point(bits, output.e)
        assert calls == ["constraint_formula"]
        theta = output.theta
        assert output.theta is theta
        assert calls == ["constraint_formula"]
        assert eval_luk(theta, verdict.witness) == 1


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

    @pytest.mark.parametrize(
        "theta, phi, name",
        [
            # the kind is checked before compile_luk pops its slot stack, so
            # neither an IndexError there nor a KeyError in the runner
            (parse_bool("~X1"), parse_luk("X1"), "Not"),
            (parse_bool("X1 /\\ X2"), parse_luk("X1"), "And"),
            (parse_luk("X1"), parse_bool("X1 \\/ X2"), "Or"),
            (parse_luk("X1"), Otimes(Var(1), Not(Var(2))), "Not"),
        ],
    )
    def test_a_boolean_node_is_a_type_error(self, theta, phi, name):
        with pytest.raises(TypeError, match=f"unexpected node {name}$"):
            find_countermodel(theta, phi, 2)

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

    def test_bounds_drop_rows_of_a_consequence_pair(self, monkeypatch):
        # theta = phi (*) psi forces phi = 1, so the scan runs to the end; with
        # X1 and X2 fixed, theta's upper bound rules out most rows
        phi = parse_luk("(X1 (+) ~X2) (*) (X3 \\/ X4)")
        theta = Otimes(phi, parse_luk("X2 (+) X4 (*) X1"))
        calls = spy_on_scan(monkeypatch)
        verdict = find_countermodel(theta, phi, 8)
        assert verdict.kind == INCONCLUSIVE
        assert 0 < points_of(calls, theta)
        assert sum(points for _, points in calls) < 23**4  # 23 axis entries at q = 8


class TestWitnessReverification:
    """A scan hit that is not a countermodel is an error, never a verdict."""

    # numerators over L = e + 1 = 3: a grid point where phi = 1, not 2/3 (the
    # instance is stable), and (2/3, 0), off the grid, where phi is 2/3 but
    # theta = 0
    @pytest.mark.parametrize(
        "n, formulas, hit",
        [(1, ("X1", "~X1"), ((1,), 2)), (2, ("X1 /\\ X2",), ((2, 0), 2))],
    )
    def test_grid_check(self, monkeypatch, n, formulas, hit):
        output = reduce_instance(instance_of(n, (formulas, 0)))
        monkeypatch.setattr(stablecons.decision, "_scan", lambda *args: hit)
        with pytest.raises(RuntimeError, match="evaluators disagree"):
            check_consequence_rho(output)

    # numerators over L = lcm(1, 2, 3) = 6: X1 = 1 makes theta and phi 1, not
    # 5/6; X1 = 0 makes phi 0 but theta 0
    @pytest.mark.parametrize("phi, hit", [("X1", ((6,), 5)), ("X1 (*) X1", ((0,), 0))])
    def test_pair_scan(self, monkeypatch, phi, hit):
        monkeypatch.setattr(stablecons.decision, "_scan", lambda *args: hit)
        with pytest.raises(RuntimeError, match="evaluators disagree"):
            find_countermodel(parse_luk("X1"), parse_luk(phi), 3)

    # each route's real hit, reported with phi's value 1/L too low: the
    # witness is a countermodel, but phi does not take that value there
    @pytest.mark.parametrize(
        "check",
        [
            lambda: check_consequence_rho(reduce_instance(instance_of(1, (("X1",), 0)))),
            lambda: find_countermodel(parse_luk("X1 (+) X1"), parse_luk("X1"), 2),
            lambda: estar([], [parse_bool("X2")], parse_bool("X1")),
        ],
        ids=["grid check", "pair scan", "estar"],
    )
    def test_a_wrong_value_is_an_error(self, monkeypatch, check):
        def shifted(*args, scan=stablecons.decision._scan, **kwargs):
            row, value = scan(*args, **kwargs)
            return row, value - 1

        monkeypatch.setattr(stablecons.decision, "_scan", shifted)
        with pytest.raises(RuntimeError, match="evaluators disagree"):
            check()


def scan_schedule(first, largest, whole):
    """Run the scan with other chunk sizes: small ones put leading
    (scalar-bound) variables and aligned slabs into small lattices."""
    return mock.patch.multiple(
        stablecons.semantics, _FIRST_CHUNK=first, _SCAN_CHUNK=largest, _WHOLE_SCAN=whole
    )


# the default schedule and two small ones; with q = 3 (5 axis entries) and
# four variables, both small ones make rows of 5 points with three leading
# variables fixed: (2, 16, 2) scans batches of 1, 1 and then 3 rows and, in
# pair mode, bounds blocks of 8 rows, so batches draw on several blocks;
# (4, 128, 4) scans batches of 1, 3, 12 and then 25 rows from blocks of 64.
# The small ones take one call only for scans no larger than their first
# chunk, so their batches grow on all but the smallest scans.
SCHEDULES = [(64, 1 << 16, 1 << 12), (2, 16, 2), (4, 128, 4)]


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

    # a consequence, so the scan runs to the end; theta = 1 only where every
    # variable is 1, and with q = 5 (11 axis entries, 11**4 points: more than
    # one row even under the default schedule) X1 is fixed on every row, so
    # the bounds drop the rows with X1 < 1; phi mentions only X4, which no
    # schedule fixes, so the row of ones survives and theta is evaluated there
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_rows_are_dropped_under_every_schedule(self, monkeypatch, schedule):
        theta, phi = parse_luk("X1 (*) X2 (*) X3 (*) X4"), parse_luk("X4 (+) X4")
        calls = spy_on_scan(monkeypatch)
        with scan_schedule(*schedule):
            verdict = find_countermodel(theta, phi, 5)
        assert (verdict.kind, verdict.witness) == scalar_pair_scan(theta, phi, 5)
        assert 0 < points_of(calls, theta) < 11**4

    # with n = 17 a row is 64 points; batches of 64, 256, ..., 16384 points
    # cover [0, 21824), then come 65536 and the last 43712
    @pytest.mark.parametrize(
        "k, chunks",
        [
            (5439, [64, 256, 1024, 4096]),
            (5440, [64, 256, 1024, 4096, 16384]),
            (21823, [64, 256, 1024, 4096, 16384]),
            (21824, [64, 256, 1024, 4096, 16384, 65536]),
            (87359, [64, 256, 1024, 4096, 16384, 65536]),
            (87360, [64, 256, 1024, 4096, 16384, 65536, 43712]),
            (2**17 - 1, [64, 256, 1024, 4096, 16384, 65536, 43712]),
        ],
    )
    def test_first_hit_at_the_schedule_boundaries(self, monkeypatch, k, chunks):
        bits = bits_of(k, 17)
        output = reduce_instance(holding_only_at(bits))
        calls = spy_on_scan(monkeypatch)
        verdict = check_consequence_rho(output)
        assert verdict.witness == lift_point(bits, output.e)
        assert [points for _, points in calls] == chunks

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

    @pytest.mark.parametrize("phi", ["X1", "X1 (*) X2", "X1 (*) X2 (*) X3"])
    @pytest.mark.parametrize("bound", [44, 500, 10**6, 10**12])
    def test_every_bound_past_42_is_the_same_value_error(self, phi, bound):
        # L is checked before the points are listed or counted, so the
        # number of variables cannot turn this into a budget error, and the
        # running lcm stops at lcm(1..43), the first value past int64
        with pytest.raises(ValueError) as raised:
            find_countermodel(parse_luk("X1"), parse_luk(phi), bound, budget=1)
        assert str(raised.value) == (
            f"denominator {math.lcm(*range(1, 44))} too large for int64 lattice "
            "arithmetic"
        )


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

    def test_negative_trials_are_a_value_error(self):
        with pytest.raises(ValueError, match="^trials must be >= 0, got -1$"):
            list(harness_trials(seed=1, trials=-1))

    def test_negative_trials_fail_at_the_call(self):
        with pytest.raises(ValueError, match="^trials must be >= 0, got -1$"):
            harness_trials(seed=1, trials=-1)

    @pytest.mark.parametrize(
        "field, least",
        [
            ("max_groups", 1),
            ("max_group_size", 1),
            ("max_vars", 1),
            ("max_formula_size", 0),
        ],
    )
    def test_limits_below_their_least_value_are_value_errors(self, field, least):
        for value in (least - 1, -(2**70)):
            message = f"^{field} must be >= {least}, got {value}$"
            with pytest.raises(ValueError, match=message):
                HarnessLimits(**{field: value})

    def test_the_least_limits_draw_instances(self):
        limits = HarnessLimits(
            max_groups=1, max_group_size=1, max_vars=1, max_formula_size=0
        )
        records = list(harness_trials(seed=2, trials=10, limits=limits))
        assert all(record["agree"] for record in records)
        assert {record["instance"]["n"] for record in records} == {1}


# every enumeration, run on a one-variable input with the given budget
BUDGETED = {
    "stable_bruteforce": lambda budget: stable_bruteforce(
        instance_of(1, (("X1",), 0)), budget
    ),
    "check_consequence_rho": lambda budget: check_consequence_rho(
        reduce_instance(instance_of(1, (("X1",), 0))), budget
    ),
    "find_countermodel": lambda budget: find_countermodel(
        parse_luk("X1"), parse_luk("X1"), 2, budget
    ),
    "estar": lambda budget: estar([], [parse_bool("X1")], parse_bool("X1"), budget),
    "harness_trials": lambda budget: list(harness_trials(1, 1, budget=budget)),
}


@pytest.mark.parametrize("name", sorted(BUDGETED))
class TestBudgetBounds:
    def test_a_negative_budget_is_a_value_error(self, name):
        # not reported as an exceeded budget
        for budget in (-1, -(2**70)):
            message = f"^budget must be >= 0, got {budget}$"
            with pytest.raises(ValueError, match=message):
                BUDGETED[name](budget)

    def test_a_budget_of_zero_is_exceeded(self, name):
        with pytest.raises(BudgetExceededError) as raised:
            BUDGETED[name](0)
        assert raised.value.budget == 0


def linear_estar(delta, nabla, omega):
    """Test-local reference for e*: the brute-force oracle on the instance of
    each deletion count e = 0, 1, ... in turn, up to the first unstable one."""
    core = tuple(dict.fromkeys([*delta, Not(omega)]))
    nabla = tuple(dict.fromkeys(nabla))
    n = max(max(variables(formula)) for formula in core + nabla)
    found = None
    for e in range(len(nabla)):
        instance = StableInstance(n, (FormulaGroup(core, 0), FormulaGroup(nabla, e)))
        if not stable_bruteforce(instance).stable:
            break
        found = e
    return found


class TestEstar:
    def test_fully_redundant_dubious_set(self):
        nabla = [parse_bool("X1"), parse_bool("X1 \\/ X1"), parse_bool("X1 /\\ X1")]
        assert estar([], nabla, parse_bool("X1")) == 2

    def test_both_members_needed(self):
        nabla = [parse_bool("X1"), parse_bool("X2")]
        assert estar([], nabla, parse_bool("X1 /\\ X2")) == 0

    def test_no_entailment(self):
        assert estar([], [parse_bool("X2")], parse_bool("X1")) is None

    def test_empty_dubious_set_rejected(self):
        with pytest.raises(ValueError):
            estar([], [], parse_bool("X1"))

    def test_delta_contributes(self):
        # with the support of delta = {X1}, the conclusion X1 /\ X2 survives
        # deleting either redundant copy of X2
        delta = [parse_bool("X1")]
        nabla = [parse_bool("X2"), parse_bool("X2 /\\ X2")]
        assert estar(delta, nabla, parse_bool("X1 /\\ X2")) == 1

    def test_a_core_without_models_keeps_every_deletion_count(self):
        # delta contradicts itself, so every e below card(nabla) is stable
        delta = [parse_bool("X1"), parse_bool("~X1")]
        nabla = [parse_bool("X2"), parse_bool("~X2"), parse_bool("X3")]
        assert estar(delta, nabla, parse_bool("X2")) == 2

    def test_one_scan_decides_every_deletion_count(self, monkeypatch):
        calls = []

        def counting(*args, scan=stablecons.decision._scan, **kwargs):
            calls.append(args)
            return scan(*args, **kwargs)

        monkeypatch.setattr(stablecons.decision, "_scan", counting)
        nabla = [parse_bool("X1")] + [
            parse_bool("X1" + " \\/ X1" * k) for k in range(1, 5)
        ]
        assert estar([], nabla, parse_bool("X1")) == 4
        assert len(calls) == 1

    def test_matches_the_linear_scan_on_random_inputs(self):
        rng = random.Random(9090)
        values = set()
        for _ in range(1000):
            n = rng.randint(1, 4)
            omega = random_bool_formula(rng, n, 4)
            delta = [random_bool_formula(rng, n, 4) for _ in range(rng.randint(0, 2))]
            nabla = [random_bool_formula(rng, n, 4) for _ in range(rng.randint(1, 6))]
            expected = linear_estar(delta, nabla, omega)
            assert estar(delta, nabla, omega) == expected
            values.add(expected)
        assert values == {None, 0, 1, 2, 3, 4, 5}

    @settings(max_examples=150)
    @given(
        st.lists(bool_formulas(max_index=3, max_leaves=4), max_size=2),
        st.lists(bool_formulas(max_index=3, max_leaves=4), min_size=1, max_size=5),
        bool_formulas(max_index=3, max_leaves=4),
    )
    def test_matches_the_linear_scan_on_drawn_inputs(self, delta, nabla, omega):
        assert estar(delta, nabla, omega) == linear_estar(delta, nabla, omega)
