#!/usr/bin/env python3
"""stablecons benchmark: one workload, one closed-loop client, exact verdicts.

    python3 bench/run.py --workload grid-stable --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The seed decides every input.  One client issues each decision
only after the previous one returned, until the decisions have taken
``--seconds`` in total (and at least one timing window); each output is
checked, untimed, against a reference that does not come from the route
under test.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes every
decision twice, untraced and traced, prints the per-layer metrics (per
verdict) and the tracing overhead, and writes every span to ``.bench_out/``.
The last line of stdout is the JSON result; the lines before it start with
``#`` and state the run context, the timing windows and the error rate.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5

sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402


IMPORTS = ["numpy", "stablecons"] + [f"stablecons.{layer}" for layer in tracing.LAYERS]


def import_package() -> types.ModuleType:
    """Import stablecons from this checkout's ``src/``."""
    if not (SRC / "stablecons" / "__init__.py").is_file():
        raise SystemExit(f"error: no stablecons sources under {SRC}")
    sys.path.insert(0, str(SRC))
    for name in IMPORTS:
        importlib.import_module(name)
    package = sys.modules["stablecons"]
    if Path(package.__file__).resolve().parent != (SRC / "stablecons").resolve():
        raise SystemExit(f"error: stablecons was imported from {package.__file__}")
    return package


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import numpy and every layer.

    An import is cached once made, so each set-up repeat times it in a new
    process, which the call waits for."""
    probe = (
        "import importlib, time\n"
        "start = time.perf_counter()\n"
        f"for name in {IMPORTS!r}: importlib.import_module(name)\n"
        "print(time.perf_counter() - start)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=60, check=True,
    )
    return float(done.stdout)


def make_api(package: types.ModuleType) -> types.SimpleNamespace:
    """The entry points the benchmark calls; the traced run wraps these too."""
    return types.SimpleNamespace(
        instance_from_json=package.reduction.instance_from_json,
        reduce_instance=package.reduction.reduce_instance,
        check_consequence_rho=package.decision.check_consequence_rho,
        find_countermodel=package.decision.find_countermodel,
        harness_trials=package.decision.harness_trials,
        run=package.cli.run,
    )


def run_context(args, package) -> dict:
    import numpy

    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted(SRC.rglob("*.py"))
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
        "clients": 1,
        "loop": "closed",
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Phase:
    """Outcome of one closed-loop phase, one entry per decision."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.points: list[int] = []  # 0 for a failed decision
        self.failed = 0
        self.budget_exceeded = 0


def decide_once(phase: Phase, decide, i: int, budget_error: type):
    """Make decision i and time it; return (output, error)."""
    issued = time.perf_counter()
    try:
        raw, error = decide(i), None
    except budget_error:
        raw, error = None, "budget"
    except Exception as exc:  # a decision that raised is a failed one
        raw, error = None, f"raised {exc!r}"
    phase.latencies.append(time.perf_counter() - issued)
    return raw, error


def check_once(phase: Phase, check, i: int, raw, error, log) -> None:
    """Check decision i's output against the reference, untimed."""
    points = 0
    if error is None:
        try:
            points = check(i, raw)
        except workloads.OverBudget:
            error = "budget"
        except workloads.Mismatch as exc:
            error = f"mismatch: {exc}"
        except Exception as exc:  # a malformed output fails its check too
            error = f"check raised {exc!r}"
    phase.points.append(points)
    if error is not None:
        phase.failed += 1
        phase.budget_exceeded += error == "budget"
        if phase.failed <= 5:
            log(f"decision {i} failed: {error}")


def done(phases: list[Phase], seconds: float, block: int, minimum: int) -> bool:
    """True once the decisions have taken ``seconds`` in total and at least
    ``minimum`` are made, at a multiple of ``block`` so that every input
    shape is decided equally often."""
    made = len(phases[0].latencies)
    timed = sum(sum(phase.latencies) for phase in phases)
    return timed >= seconds and made % block == 0 and made >= minimum


def closed_loop(decide, check, seconds, block, minimum, budget_error, log) -> Phase:
    """Decisions 0, 1, 2, ... one after another.  Each output is checked as
    soon as its decision returns, outside the timed interval, so no output
    is kept and memory does not grow with the number of decisions."""
    phase = Phase()
    while not done([phase], seconds, block, minimum):
        i = len(phase.latencies)
        raw, error = decide_once(phase, decide, i, budget_error)
        check_once(phase, check, i, raw, error, log)
    return phase


def latency_tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples
    beyond it."""
    ordered = sorted(latencies)
    rank = len(ordered) - 11
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def end_to_end(phase: Phase, window: int, setup_s: float, peak_rss_mb: float) -> dict:
    """Each timing is taken per window of ``window`` consecutive decisions
    (whole blocks) and reported as the median over the complete windows,
    so a stall of the machine moves few windows and the statistic does not
    change meaning when the program gets faster."""
    rates, p50s, tails, per_point = [], [], [], []
    for k in range(0, len(phase.latencies) - window + 1, window):
        latencies = phase.latencies[k : k + window]
        wall = sum(latencies)  # one client in a closed loop
        rates.append(window / wall)
        p50s.append(statistics.median(latencies))
        tails.append(latency_tail(latencies)[0])
        per_point.append(wall / max(1, sum(phase.points[k : k + window])))
    median = statistics.median
    return {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (median(rates), "1/s"),
        "latency_p50_ms": (median(p50s) * 1e3, "ms"),
        "latency_tail_ms": (median(tails) * 1e3, "ms"),
        "us_per_point": (median(per_point) * 1e6, "us"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }, len(rates)


def per_layer(tracer: tracing.Tracer, untraced: Phase, traced: Phase) -> dict:
    """Per-layer metrics of the traced phase, each per verdict unless its
    unit says otherwise."""
    v = len(traced.latencies)
    lattice_rows = tracer.counts.get("semantics.eval_luk_lattice", 0)
    evaluations = tracer.call_count("semantics.eval_luk") + lattice_rows
    overhead = sum(traced.latencies) / sum(untraced.latencies) - 1

    def secs(*names):
        return tracer.seconds(*names) / v, "s/verdict"

    def self_secs(name):
        return tracer.seconds(name, self_time=True) / v, "s/verdict"

    def calls(*names):
        return tracer.call_count(*names) / v, "calls/verdict"

    parse = ("formulas.parse_bool", "formulas.parse_luk")
    walks = (
        "formulas.variables",
        "formulas.measure",
        "formulas.connective_count",
        "formulas.variable_occurrences",
    )
    return {
        "semantics.eval_luk.s": secs("semantics.eval_luk"),
        "semantics.eval_luk.calls": calls("semantics.eval_luk"),
        "decision.check_consequence_rho.self_s": self_secs("decision.check_consequence_rho"),
        "semantics.eval_luk_lattice.s": secs("semantics.eval_luk_lattice"),
        "semantics.eval_luk_lattice.rows": (lattice_rows / v, "rows/verdict"),
        "decision.find_countermodel.self_s": self_secs("decision.find_countermodel"),
        "decision.points": (sum(traced.points) / v, "points/verdict"),
        "decision.useful_ratio": (
            sum(traced.points) / evaluations if evaluations else 0.0,
            "ratio",
        ),
        "reduction.instance_from_json.self_s": self_secs("reduction.instance_from_json"),
        "reduction.reduce_instance.self_s": self_secs("reduction.reduce_instance"),
        "reduction.reduce_instance.calls": calls("reduction.reduce_instance"),
        "reduction.output_connectives": (
            tracer.counts.get("reduction.reduce_instance", 0) / v,
            "nodes/verdict",
        ),
        "formulas.parse.s": secs(*parse),
        "formulas.parse.calls": calls(*parse),
        "formulas.walk.s": secs(*walks),
        "semantics.eval_bool.s": secs("semantics.eval_bool"),
        "semantics.eval_bool.calls": calls("semantics.eval_bool"),
        "decision.stable_bruteforce.self_s": self_secs("decision.stable_bruteforce"),
        "formulas.print.s": secs("formulas.bool_to_text", "formulas.luk_to_text"),
        "decision.harness_trials.self_s": self_secs("decision.harness_trials"),
        "cli.run.calls": calls("cli.run"),
        "cli.run.self_s": self_secs("cli.run"),
        "decision.budget_exceeded": (
            untraced.budget_exceeded + traced.budget_exceeded,
            "count",
        ),
        "trace.wall_s": (sum(traced.latencies) / v, "s/verdict"),
        "trace.spans": (tracer.span_count / v, "spans/verdict"),
        "trace.overhead_pct": (overhead * 100, "%"),
    }


def traced_run(
    workload, api, package, inputs, check, args, log
) -> tuple[list[Phase], tracing.Tracer]:
    """Each decision twice in a row, untraced and traced, so that both see
    the same machine state; which goes first alternates, and the wrappers
    are in place only while the traced one runs."""
    budget_error = package.decision.BudgetExceededError
    connectives = package.formulas.connective_count
    counters = {  # functions of a wrapped call's (arguments, result)
        "semantics.eval_luk_lattice": lambda call, result: len(call[2]),
        "reduction.reduce_instance": lambda call, result: connectives(result.theta)
        + connectives(result.phi),
    }
    tracer = tracing.Tracer(
        tracing.cross_module_sites(package) + [(api, name) for name in vars(api)],
        counters,
    )
    plain = workload.decider(api, inputs, args.seed)
    tracer.install()
    try:
        wrapped = workload.decider(api, inputs, args.seed)  # created over the wrappers
    finally:
        tracer.uninstall()
    untraced, traced = Phase(), Phase()
    runs = [(untraced, plain, False), (traced, wrapped, True)]
    while not done([untraced, traced], args.seconds, workload.block, workload.block):
        i = len(untraced.latencies)
        for phase, decide, with_trace in runs if i % 2 == 0 else runs[::-1]:
            if with_trace:
                tracer.verdict = i
                tracer.install()
            try:
                raw, error = decide_once(phase, decide, i, budget_error)
            finally:
                if with_trace:
                    tracer.uninstall()
            check_once(phase, check, i, raw, error, log)
    if tracing.wrapped_names(package):
        raise SystemExit("error: wrappers left in place after the traced run")
    return [untraced, traced], tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # one process, one thread; set before numpy loads

    def log(message: str) -> None:
        print(f"# {message}", flush=True)

    package = import_package()
    if tracing.wrapped_names(package):
        raise SystemExit("error: stablecons functions are wrapped before the run")
    workload = workloads.WORKLOADS[args.workload]
    api = make_api(package)
    budget_error = package.decision.BudgetExceededError
    workdir = OUT / f"work-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):  # set-up is timed as a median of repeats
            imports = import_seconds()
            start = time.perf_counter()
            inputs = workload.make_inputs(args.seed, package, workdir)
            workload.warm_up(api, package, inputs)
            setup_times.append(imports + time.perf_counter() - start)
        setup_s = statistics.median(setup_times)
        context = run_context(args, package)
        log("context " + json.dumps(context, sort_keys=True))

        cache: dict = {}

        def check(i, raw):
            return workload.check(package, inputs, i, raw, cache)

        if args.trace:
            phases, tracer = traced_run(workload, api, package, inputs, check, args, log)
        else:
            decide = workload.decider(api, inputs, args.seed)
            phases = [
                closed_loop(
                    decide, check, args.seconds, workload.block, workload.window,
                    budget_error, log,
                )
            ]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = per_layer(tracer, *phases)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, context)
        log(f"{tracer.span_count} spans written to {path}")
    else:
        metrics, windows = end_to_end(phases[0], workload.window, setup_s, peak_rss_mb)
        _, percentile = latency_tail([0.0] * workload.window)
        log(
            f"timings are medians over {windows} windows of {workload.window} decisions;"
            f" latency_tail_ms is p{percentile:.1f} of each window's {workload.window}"
            f" samples (the highest percentile with 10 samples beyond it)"
        )
    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)
    log(f"{attempted} decisions, error_rate = {failed}/{attempted} = {failed / attempted}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
