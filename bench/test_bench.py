"""Tests of the benchmark's own code: generators, references and tracing.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import stablecons  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from stablecons import cli, decision, formulas, reduction, semantics  # noqa: E402


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: workloads.grid_stable_inputs(seed, blocks=1),
        lambda seed: [item.doc() for item in workloads.grid_early_inputs(seed, blocks=1)],
        lambda seed: [(p.q, p.theta, p.phi) for p in workloads.pair_inputs(seed, blocks=2)],
    ],
    ids=["grid-stable", "grid-early", "pair-scan"],
)
def test_generators_are_deterministic_per_seed(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_blocks_hold_the_same_shapes_on_every_seed():
    def shapes(seed):
        return sorted((doc["n"], max(g["delete"] for g in doc["groups"]))
                      for doc in workloads.grid_stable_inputs(seed, blocks=1))

    assert shapes(1) == shapes(2)
    hits = sorted(item.hit // 4 for item in workloads.grid_early_inputs(3, blocks=1))
    assert hits == list(range(16))

    def deletes(seed):
        return sorted(d for item in workloads.grid_early_inputs(seed, blocks=1)
                      for d in item.deletes)

    assert deletes(3) == deletes(4)


@pytest.mark.parametrize("n,d", [(5, 1), (5, 2), (5, 4), (6, 3)])
def test_grid_stable_family_is_stable_per_oracle(n, d):
    rng = random.Random(n * 10 + d)
    for _ in range(3):
        instance = reduction.instance_from_json(workloads.stable_doc(rng, n, d))
        assert decision.stable_bruteforce(instance).stable
        verdict = decision.check_consequence_rho(reduction.reduce_instance(instance))
        assert verdict.kind == decision.CONSEQUENCE


def test_grid_early_reference_matches_the_program(tmp_path):
    items = workloads.grid_early_inputs(5, blocks=1, n_range=(8, 9), low_bits=4)
    workloads.write_instance_files(items, tmp_path)
    for item in items:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(["check-consequence", item.path])
        assert code == 1
        assert json.loads(out.getvalue()) == {
            "kind": "countermodel", "witness": item.witness, "e": item.e
        }


def test_grid_points_needed_matches_the_grid_check():
    for record in decision.harness_trials(11, 60):
        stable, points = workloads.grid_points_needed(record["instance"])
        assert stable == record["stable"]
        output = reduction.reduce_instance(reduction.instance_from_json(record["instance"]))
        counted = []
        original = decision.eval_luk

        def counting(formula, point):
            if formula is output.phi:
                counted.append(point)
            return original(formula, point)

        decision.eval_luk = counting
        try:
            decision.check_consequence_rho(output)
        finally:
            decision.eval_luk = original
        assert points == len(counted)


def test_pair_generator_and_references():
    pairs = workloads.pair_inputs(2, blocks=1)
    assert {p.consequence for p in pairs} == {True, False}
    for pair in pairs:
        for formula in (pair.theta, pair.phi):
            program = workloads.to_program(formula, formulas)
            assert formulas.variables(program) == set(range(1, pair.m + 1))
        theta = workloads.to_program(pair.theta, formulas)
        point = {v: Fraction(v, pair.m + 1) for v in range(1, pair.m + 1)}
        columns = [np.array([v]) for v in range(1, pair.m + 1)]
        (value,) = workloads.luk_lattice(pair.theta, columns, pair.m + 1)
        assert Fraction(int(value), pair.m + 1) == semantics.eval_luk(theta, point)
    assert workloads.farey(3) == decision.denominator_bounded_fractions(3)


def pair_scan_checker(pairs):
    """The pair-scan workload's check over ``pairs``, with its own cache."""
    cache = {}
    for pair in pairs:
        pair.program = (
            workloads.to_program(pair.theta, formulas),
            workloads.to_program(pair.phi, formulas),
        )
    return lambda i, raw: workloads.PairScan().check(stablecons, pairs, i, raw, cache)


def test_pair_reference_finds_the_programs_first_countermodel():
    # small q keeps the scans short; both kinds of verdict occur
    pairs = [dataclasses.replace(p, q=3) for p in workloads.pair_inputs(4, blocks=1)]
    check = pair_scan_checker(pairs)
    kinds = set()
    for i, pair in enumerate(pairs):
        verdict = decision.find_countermodel(*pair.program, pair.q)
        kinds.add(verdict.kind)
        expected = workloads.first_pair_countermodel(pair)
        assert (verdict.kind == decision.INCONCLUSIVE) == (expected is None)
        size = len(workloads.farey(pair.q)) ** pair.m
        assert check(i, verdict) == (size if expected is None else expected + 1)
    assert kinds == {decision.INCONCLUSIVE, decision.COUNTERMODEL}


def test_pair_check_rejects_a_later_or_a_missed_countermodel():
    pairs = [dataclasses.replace(p, q=3) for p in workloads.pair_inputs(4, blocks=1)]
    check = pair_scan_checker(pairs)
    axis = workloads.farey(3)
    refuted = [i for i, p in enumerate(pairs) if not p.consequence
               and workloads.first_pair_countermodel(p) is not None]
    assert refuted
    rejected = 0
    for i in refuted:
        pair = pairs[i]
        with pytest.raises(workloads.Mismatch):  # the scan skipped every point
            check(i, decision.ConsequenceVerdict.inconclusive(pair.q))
        first = workloads.first_pair_countermodel(pair)
        points = (witness_at(j, pair.m, axis) for j in range(first + 1, len(axis) ** pair.m))
        theta, phi = pair.program
        later = next(
            (w for w in points
             if semantics.eval_luk(theta, w) == 1 and semantics.eval_luk(phi, w) < 1),
            None,
        )
        if later is not None:  # a true countermodel, but not the first
            rejected += 1
            with pytest.raises(workloads.Mismatch):
                check(i, decision.ConsequenceVerdict.countermodel(later))
    assert rejected


def witness_at(index, m, axis):
    """The point of a pair scan with this index, X1 most significant."""
    return {v: axis[index // len(axis) ** (m - v) % len(axis)] for v in range(1, m + 1)}


def test_a_check_that_raises_counts_as_a_failed_decision():
    import run

    phase = run.Phase()
    run.check_once(phase, lambda i, raw: raw["missing"], 0, {}, None, lambda m: None)
    assert phase.failed == 1 and phase.points == [0]


def test_tracer_wraps_cross_module_names_and_restores_them():
    sites = tracing.cross_module_sites(stablecons)
    names = {(module.__name__.rsplit(".", 1)[-1], attr) for module, attr in sites}
    assert ("decision", "eval_luk") in names
    assert ("cli", "reduce_instance") in names
    assert ("semantics", "eval_luk") not in names  # a module's own global
    originals = [getattr(module, attr) for module, attr in sites]

    tracer = tracing.Tracer(sites)
    tracer.install()
    try:
        assert "decision.eval_luk" in tracing.wrapped_names(stablecons)
        doc = workloads.stable_doc(random.Random(1), 3, 1)
        cli_out = io.StringIO()
        instance = reduction.instance_from_json(doc)
        output = reduction.reduce_instance(instance)
        verdict = decision.check_consequence_rho(output)
        with contextlib.redirect_stdout(cli_out):
            cli.run(["parse", "--luk", "X1 (+) X2"])
    finally:
        tracer.uninstall()

    assert tracing.wrapped_names(stablecons) == []
    assert [getattr(module, attr) for module, attr in sites] == originals
    assert verdict.kind == decision.CONSEQUENCE
    # one span per grid point: the recursion inside eval_luk records nothing
    assert tracer.call_count("semantics.eval_luk") == 2**3
    assert tracer.call_count("decision.check_consequence_rho") == 1
    assert tracer.call_count("formulas.parse_luk") == 1


def test_self_time_excludes_child_spans():
    namespace = type("Namespace", (), {})()

    def child():
        return sum(range(20000))

    def parent():
        return namespace.child() + namespace.child()

    child.__module__ = parent.__module__ = "stablecons.decision"
    namespace.child, namespace.parent = child, parent
    tracer = tracing.Tracer([(namespace, "child"), (namespace, "parent")])
    tracer.install()
    try:
        namespace.parent()
    finally:
        tracer.uninstall()
    rows = tracer.rows.tolist()
    width = len(tracing.SPAN_COLUMNS)
    spans = [rows[i : i + width] for i in range(0, len(rows), width)]
    by_name = {tracer.names[s[3]]: s for s in spans}
    parent_span = by_name["decision.parent"]
    children = [s for s in spans if tracer.names[s[3]] == "decision.child"]
    assert [s[1] for s in children] == [parent_span[0]] * 2
    inclusive = tracer.inclusive_ns["decision.parent"]
    children_ns = tracer.inclusive_ns["decision.child"]
    assert tracer.self_ns["decision.parent"] == inclusive - children_ns


def test_latency_tail_leaves_ten_samples_beyond_it():
    import run

    value, percentile = run.latency_tail([float(x) for x in range(24)])
    assert value == 13.0 and sum(x > value for x in range(24)) == 10
    assert percentile == pytest.approx(100 * 14 / 24)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_carries_every_declared_metric(
    trace, key, monkeypatch, capsys, tmp_path
):
    import run

    monkeypatch.setattr(run, "OUT", tmp_path)
    code = run.main(["--workload", "harness", "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())[key]
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert tracing.wrapped_names(stablecons) == []
