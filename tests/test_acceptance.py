"""Acceptance suite: one test per criterion, each printing a PASS line.

Every check is exact (rational/integer arithmetic, zero tolerance); the
randomized ones run on fixed seeds so the whole suite is reproducible.
"""

import contextlib
import io
import itertools
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from stablecons import (
    And,
    FormulaGroup,
    HarnessLimits,
    Not,
    Oplus,
    Or,
    StableInstance,
    Var,
    Otimes,
    Join,
    Neg,
    bool_to_text,
    connective_count,
    constraint_formula,
    ddagger,
    denominator_bounded_fractions,
    estar,
    eval_bool,
    eval_luk,
    find_countermodel,
    harness_trials,
    implies,
    instance_to_json,
    luk_to_text,
    nnf,
    parse_bool,
    parse_luk,
    power,
    random_bool_formula,
    random_instance,
    reduce_instance,
    stable_bruteforce,
    variables,
)
from stablecons.cli import run
from formula_strategies import (
    eval_lattice,
    lift_point,
    random_luk_formula,
    variable_occurrences,
)

COUNTERMODEL = "countermodel"
CONSEQUENCE = "consequence"


def report(number: int, name: str, detail: str = "") -> None:
    line = f"[acceptance {number}] {name}: PASS"
    if detail:
        line += f" ({detail})"
    print(line)


def full_lattice(axis_numerators: np.ndarray, n: int) -> np.ndarray:
    """All |axis|^n coordinate rows, last variable varying fastest."""
    per = len(axis_numerators)
    index = np.arange(per**n, dtype=np.int64)
    coords = np.empty((per**n, n), dtype=np.int64)
    for column in range(n - 1, -1, -1):
        coords[:, column] = axis_numerators[index % per]
        index //= per
    return coords


def all_assignments(n: int):
    for bits in itertools.product((0, 1), repeat=n):
        yield dict(enumerate(bits, start=1))


def test_criterion_1_grid_forcing():
    """constraint_formula is 1 exactly on the two-valued grid.

    n <= 3, e in {2, 3, 4}, all points with coordinate denominators <= 12,
    checked on the integer lattice with a scalar-evaluator cross-check.
    """
    started = time.monotonic()
    fractions = denominator_bounded_fractions(12)
    L = math.lcm(*range(1, 13))
    axis = np.array(
        [f.numerator * (L // f.denominator) for f in fractions], dtype=np.int64
    )
    rng = random.Random(101)
    points_checked = 0
    for e in (2, 3, 4):
        low_num, high_num = L // (e + 1), e * L // (e + 1)
        for n in (1, 2, 3):
            theta = constraint_formula(n, e)
            coords = full_lattice(axis, n)
            values = eval_lattice(theta, range(1, n + 1), coords.T, L)
            on_grid = np.logical_and.reduce(
                (coords == low_num) | (coords == high_num), axis=1
            )
            assert np.array_equal(values == L, on_grid)
            points_checked += len(coords)
            # scalar reference cross-check on a random sample
            for _ in range(200):
                row = rng.randrange(len(coords))
                point = {
                    i + 1: Fraction(int(coords[row, i]), L) for i in range(n)
                }
                assert eval_luk(theta, point) == Fraction(int(values[row]), L)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report(1, "grid forcing", f"{points_checked} points, {elapsed:.2f}s")


def test_criterion_2_translation_dichotomy():
    """ddagger value at a lifted point is 1 when satisfied, e/(e+1) otherwise.

    500 random boolean formulas (n <= 4, <= 8 connectives), all assignments,
    e in {2, 3, 5}.
    """
    started = time.monotonic()
    rng = random.Random(202)
    checked = 0
    for _ in range(500):
        n = rng.randint(1, 4)
        formula = random_bool_formula(rng, n, 8)
        translated = ddagger(formula)
        for e in (2, 3, 5):
            off_value = Fraction(e, e + 1)
            for assignment in all_assignments(n):
                value = eval_luk(translated, lift_point(assignment, e))
                if eval_bool(formula, assignment):
                    assert value == 1
                else:
                    assert value == off_value
                checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report(2, "translation dichotomy", f"{checked} evaluations, {elapsed:.2f}s")


def test_criterion_3_main_equivalence():
    """Brute-force stability agrees with the reduced-pair grid check, 200/200.

    Seed 7; k <= 3 groups, group size <= 3, n <= 3, formula size <= 6.
    """
    started = time.monotonic()
    records = list(harness_trials(seed=7, trials=200, limits=HarnessLimits()))
    assert len(records) == 200
    assert [record for record in records if not record["agree"]] == []
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    report(3, "main equivalence", f"200/200 agreements, {elapsed:.2f}s")


def test_criterion_4_deletion_count_equivalence():
    """Exact-d, up-to-d and the grid implication agree on single groups.

    100 random (formula set, d, e) triples with e >= max(2, d), all three
    conditions decided by full enumeration.
    """
    rng = random.Random(404)
    triples = 0
    while triples < 100:
        n = rng.randint(1, 3)
        wanted = rng.randint(1, 4)
        formulas = []
        attempts = 0
        while len(formulas) < wanted and attempts < 40:
            attempts += 1
            candidate = random_bool_formula(rng, n, 4)
            if candidate not in formulas:
                formulas.append(candidate)
        u = len(formulas)
        if u < 1:
            continue
        d = rng.randint(0, u - 1)
        e = max(2, d) + rng.randint(0, 2)
        triples += 1

        def survivors_unsat(removed):
            kept = [f for j, f in enumerate(formulas) if j not in removed]
            return not any(
                all(eval_bool(f, w) == 1 for f in kept) for w in all_assignments(n)
            )

        exact = all(
            survivors_unsat(set(removed))
            for removed in itertools.combinations(range(u), d)
        )
        up_to = all(
            survivors_unsat(set(removed))
            for size in range(d + 1)
            for removed in itertools.combinations(range(u), size)
        )
        block = ddagger(formulas[0])
        for extra in formulas[1:]:
            block = Otimes(block, ddagger(extra))
        implication = implies(block, power(Join(Var(1), Neg(Var(1))), d + 1))
        grid = all(
            eval_luk(implication, lift_point(w, e)) == 1 for w in all_assignments(n)
        )
        assert exact == up_to == grid
    report(4, "deletion-count equivalence", "100 triples, 0 failures")


def test_criterion_5_size_bound():
    """Reduced-pair length stays below 64 * n * instance length on a corpus.

    500 random instances; the measured worst ratio is printed as the
    empirical constant.
    """
    rng = random.Random(2025)
    worst = Fraction(0)
    total = Fraction(0)
    for _ in range(500):
        output = reduce_instance(random_instance(rng, HarnessLimits()))
        worst = max(worst, output.stats.ratio)
        total += output.stats.ratio
    assert worst < 64
    report(
        5,
        "size bound",
        f"max ratio {float(worst):.2f} (= {worst}), mean {float(total / 500):.2f}, cap 64",
    )


def test_criterion_6_monotonicity_and_threshold():
    """Binary-search e* equals a linear scan and stability is downward monotone.

    50 random (support, dubious set, conclusion) triples, dubious set size
    <= 5; the linear scan runs on the boolean brute-force route while estar
    runs on the reduced-pair route, so both directions of the main
    equivalence are exercised again.
    """
    rng = random.Random(606)
    for _ in range(50):
        n = rng.randint(1, 3)
        omega = random_bool_formula(rng, n, 4)
        delta = []
        for _ in range(rng.randint(0, 2)):
            candidate = random_bool_formula(rng, n, 4)
            if candidate not in delta:
                delta.append(candidate)
        nabla = []
        wanted = rng.randint(1, 5)
        attempts = 0
        while len(nabla) < wanted and attempts < 40:
            attempts += 1
            candidate = random_bool_formula(rng, n, 4)
            if candidate not in nabla:
                nabla.append(candidate)

        core = []
        for f in delta + [Not(omega)]:
            if f not in core:
                core.append(f)
        trajectory = []
        for e in range(len(nabla)):
            instance = StableInstance(
                n, (FormulaGroup(tuple(core), 0), FormulaGroup(tuple(nabla), e))
            )
            trajectory.append(stable_bruteforce(instance).stable)
        # downward monotone: a True prefix followed by a False suffix
        assert all(
            earlier or not later
            for earlier, later in zip(trajectory, trajectory[1:])
        )
        linear = None
        for e, stable in enumerate(trajectory):
            if stable:
                linear = e
            else:
                break
        result = estar(delta, nabla, omega)
        assert result.e_star == linear
    report(6, "monotonicity and threshold", "50 triples, binary = linear scan")


def test_criterion_7_countermodel_soundness():
    """Every countermodel emitted by the bounded scan re-verifies exactly.

    500 random many-valued pairs, denominator bound <= 6; each witness must
    give the antecedent exactly 1 and the consequent strictly less.
    """
    rng = random.Random(707)
    found = 0
    for _ in range(500):
        n = rng.randint(1, 3)
        theta = random_luk_formula(rng, n, 6)
        phi = random_luk_formula(rng, n, 6)
        verdict = find_countermodel(theta, phi, rng.randint(1, 6))
        if verdict.kind == COUNTERMODEL:
            found += 1
            assert eval_luk(theta, verdict.witness) == 1
            assert eval_luk(phi, verdict.witness) < 1
    assert found > 0  # the fuzz corpus is not degenerate
    report(7, "countermodel soundness", f"{found}/500 countermodels re-verified")


def test_criterion_8_nnf_contract():
    """nnf preserves truth tables and occurrence counts, and negations sit
    only on variables; 1000 random boolean formulas."""
    rng = random.Random(808)

    def negations_only_on_variables(node):
        match node:
            case Var():
                return True
            case Not(child):
                return isinstance(child, Var)
            case _:
                return negations_only_on_variables(
                    node.left
                ) and negations_only_on_variables(node.right)

    for _ in range(1000):
        n = rng.randint(1, 4)
        formula = random_bool_formula(rng, n, 8)
        normal = nnf(formula)
        assert negations_only_on_variables(normal)
        assert variable_occurrences(normal) == variable_occurrences(formula)
        for assignment in all_assignments(n):
            assert eval_bool(normal, assignment) == eval_bool(formula, assignment)
    report(8, "nnf contract", "1000 formulas, 0 failures")


def test_criterion_9_deep_reduction(tmp_path):
    """Reduce, print and evaluate at one point an instance with n = 5 000.

    theta is a Meet chain of depth n and the group's block an Otimes chain
    of depth n; nothing may recurse on them.  The complete grid check on the
    same instance is a budget error (exit 3), not a value error.
    """
    n = 5000
    formulas = tuple(Or(Var(i), Not(Var(i))) for i in range(1, n + 1))
    instance = StableInstance(n, (FormulaGroup(formulas, 1),))
    output = reduce_instance(instance)
    theta_text = luk_to_text(output.theta)
    phi_text = luk_to_text(output.phi)
    assert theta_text.count(" /\\ ") == n - 1  # one per link of the Meet chain
    point = lift_point({i: i % 2 for i in range(1, n + 1)}, output.e)
    assert eval_luk(output.theta, point) == 1
    # every formula is a tautology, so deleting one leaves a satisfiable set
    assert eval_luk(output.phi, point) < 1

    path = tmp_path / "deep.json"
    path.write_text(json.dumps(instance_to_json(instance)), encoding="utf-8")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = run(["check-consequence", str(path)])
    assert code == 3
    assert json.loads(stdout.getvalue())["error"]["kind"] == "budget_exceeded"
    report(
        9,
        "deep reduction",
        f"n = {n}, theta {len(theta_text)} chars, phi {len(phi_text)} chars",
    )


def test_criterion_10_deep_parsing():
    """Parsing at nesting depth 10^5: negation chains and nested parentheses
    in both languages, and an implication chain in the many-valued one."""
    depth = 10**5
    for parse, negation in ((parse_bool, Not), (parse_luk, Neg)):
        chain = parse("~" * depth + "X1")
        assert type(chain) is negation and connective_count(chain) == depth
        assert parse("(" * depth + "X1" + ")" * depth) == Var(1)
    assert eval_bool(parse_bool("~" * depth + "X1"), {1: 0}) == 0
    arrows = parse_luk(" -> ".join(["X1"] * (depth + 1)))
    assert connective_count(arrows) == 2 * depth  # b (+) ~a per arrow
    assert eval_luk(arrows, {1: Fraction(1, 2)}) == 1
    report(10, "deep parsing", f"depth {depth} for ~, ( ) and ->")


def test_criterion_11_deep_round_trip():
    """parse(print(f)) == f for right-nested chains of depth 10^4, which
    print with one parenthesis pair per level."""
    depth = 10**4
    oplus, conjunction = Var(depth + 1), Var(depth + 1)
    for i in range(depth, 0, -1):
        oplus = Oplus(Var(i), oplus)
        conjunction = And(Var(i), conjunction)
    oplus_text = luk_to_text(oplus)
    assert oplus_text.count("(X") == depth - 1
    assert parse_luk(oplus_text) == oplus
    assert parse_bool(bool_to_text(conjunction)) == conjunction
    report(11, "deep round trip", f"depth {depth}, Oplus and And chains")
