"""Command-line front end with JSON payloads and script-friendly exit codes.

Exit codes: 0 affirmative verdict or plain success, 1 negative verdict
(unstable instance, countermodel, no entailment, harness disagreement),
2 usage/parse errors, 3 enumeration budget exceeded.  Payloads go to stdout
as single JSON documents (JSON lines for ``harness``); diagnostics go to
stderr.  Identical argv and input files produce identical stdout bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from .decision import (
    COUNTERMODEL,
    DEFAULT_BUDGET,
    BudgetExceededError,
    HarnessLimits,
    StableVerdict,
    check_consequence_rho,
    coefficient_bound,
    estar,
    find_countermodel,
    harness_trials,
    stable_bruteforce,
)
from .formulas import (
    FormulaSyntaxError,
    bool_to_text,
    luk_to_text,
    measure,
    parse_bool,
    parse_luk,
    variables,
)
from .reduction import (
    InstanceError,
    ddagger,
    instance_from_json,
    nnf,
    reduce_instance,
)
from .semantics import UnboundVariableError, eval_bool, eval_luk, parse_rational01

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # keep stdout machine-readable
        raise _UsageError(message)


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


def _emit_error(kind: str, message: str, **extra) -> None:
    sys.stderr.write(f"error: {message}\n")
    _emit({"error": {"kind": kind, "message": message, **extra}})


class _JsonError(ValueError):
    """An input file that does not decode as JSON."""


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:  # as str: no UTF-16/32 sniffing
        try:
            text = handle.read()
            return json.loads(text)
        except RecursionError:  # the decoder recurses once per nesting level
            raise _JsonError("nesting too deep to decode: line 1 column 1 (char 0)")
        except ValueError as exc:  # malformed, not UTF-8, or past the int digit limit
            raise _JsonError(str(exc))


_BINDING = re.compile(r"X[1-9][0-9]*")


def _parse_bindings(texts: list[str]) -> dict[int, str]:
    """Variable index -> value text of each ``X3=2/5``; one binding per variable."""
    bindings: dict[int, str] = {}
    for text in texts:
        name, sep, value = text.partition("=")
        if not sep or not _BINDING.fullmatch(name):
            raise ValueError(f"binding must look like X3=2/5, got {text!r}")
        index = int(name[1:])
        if index in bindings:
            raise ValueError(f"{name} is bound more than once")
        bindings[index] = value
    return bindings


# ---------------------------------------------------------------------------
# subcommands


def _cmd_parse(args) -> int:
    if args.bool_text is not None:
        formula = parse_bool(args.bool_text)
        kind, text = "bool", bool_to_text(formula)
    else:
        formula = parse_luk(args.luk_text)
        kind, text = "luk", luk_to_text(formula)
    length = measure(formula)
    _emit(
        {
            "kind": kind,
            "formula": text,
            "token_count": length.token_count,
            "paper_symbol_count": length.paper_symbol_count,
            "variables": [f"X{i}" for i in sorted(variables(formula))],
        }
    )
    return EXIT_OK


def _cmd_eval(args) -> int:
    bindings = _parse_bindings(args.at or [])
    if args.bool_text is not None:
        formula = parse_bool(args.bool_text)
        assignment = {}
        for index, literal in bindings.items():
            if literal not in ("0", "1"):
                raise ValueError(f"X{index} must be assigned 0 or 1, got {literal!r}")
            assignment[index] = int(literal)
        value = eval_bool(formula, assignment)
    else:
        formula = parse_luk(args.luk_text)
        valuation = {i: parse_rational01(text) for i, text in bindings.items()}
        value = eval_luk(formula, valuation)
    _emit({"value": str(value)})
    return EXIT_OK


def _cmd_nnf(args) -> int:
    _emit({"nnf": bool_to_text(nnf(parse_bool(args.formula)))})
    return EXIT_OK


def _cmd_ddagger(args) -> int:
    _emit({"ddagger": luk_to_text(ddagger(parse_bool(args.formula)))})
    return EXIT_OK


def _cmd_reduce(args) -> int:
    instance = instance_from_json(_load_json(args.instance))
    output = reduce_instance(instance)
    doc = {
        "e": output.e,
        "theta": luk_to_text(output.theta),
        "phi": luk_to_text(output.phi),
        "var_map": {f"X{old}": f"X{new}" for old, new in sorted(output.var_map.items())},
    }
    if args.stats:
        doc["stats"] = {
            "instance_length": output.stats.instance_length,
            "output_length": output.stats.output_length,
            "n": output.stats.n,
            "ratio": str(output.stats.ratio),
        }
    _emit(doc)
    return EXIT_OK


def _cmd_check_stable(args) -> int:
    instance = instance_from_json(_load_json(args.instance))
    verdict = stable_bruteforce(instance, budget=args.budget)
    _emit(verdict.to_json())
    return EXIT_OK if verdict.stable else EXIT_NEGATIVE


def _cmd_check_consequence(args) -> int:
    pair_mode = args.theta is not None or args.phi is not None
    if pair_mode and args.instance is not None:
        raise _UsageError("give either an instance file or --theta/--phi, not both")
    if pair_mode:
        if args.theta is None or args.phi is None:
            raise _UsageError("--theta and --phi must be given together")
        theta = parse_luk(args.theta)
        phi = parse_luk(args.phi)
        suggested = coefficient_bound(theta, phi)
        bound = args.max_denominator if args.max_denominator else max(1, suggested)
        verdict = find_countermodel(theta, phi, bound, budget=args.budget)
        doc = verdict.to_json()
        doc["suggested_max_denominator"] = suggested
        _emit(doc)
        return EXIT_NEGATIVE if verdict.kind == COUNTERMODEL else EXIT_OK
    if args.instance is None:
        raise _UsageError("an instance file or --theta/--phi is required")
    instance = instance_from_json(_load_json(args.instance))
    output = reduce_instance(instance)
    verdict = check_consequence_rho(output, budget=args.budget)
    doc = verdict.to_json()
    doc["e"] = output.e
    _emit(doc)
    return EXIT_NEGATIVE if verdict.kind == COUNTERMODEL else EXIT_OK


def _cmd_estar(args) -> int:
    delta = [parse_bool(text) for text in args.delta or []]
    nabla = [parse_bool(text) for text in args.nabla]
    omega = parse_bool(args.omega)
    e_star = estar(delta, nabla, omega, budget=args.budget)
    _emit({"e_star": e_star, "nabla_size": len(set(nabla))})
    return EXIT_OK if e_star is not None else EXIT_NEGATIVE


def _cmd_harness(args) -> int:
    limits = HarnessLimits(
        max_groups=args.max_groups,
        max_group_size=args.max_group_size,
        max_vars=args.max_vars,
        max_formula_size=args.max_formula_size,
    )
    disagreements = 0
    for record in harness_trials(args.seed, args.trials, limits, budget=args.budget):
        sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
        if not record["agree"]:
            disagreements += 1
    if disagreements:
        sys.stderr.write(f"{disagreements} disagreement(s) in {args.trials} trials\n")
        return EXIT_NEGATIVE
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def _add_formula_source(parser: _ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--bool", dest="bool_text", metavar="FORMULA")
    source.add_argument("--luk", dest="luk_text", metavar="FORMULA")


def _add_budget(parser: _ArgumentParser) -> None:
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="stablecons", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("parse", help="parse a formula and report measures")
    _add_formula_source(sub)
    sub.set_defaults(handler=_cmd_parse)

    sub = commands.add_parser("eval", help="evaluate a formula at a point")
    _add_formula_source(sub)
    sub.add_argument(
        "--at", action="append", metavar="X1=2/3", help="binding, repeatable"
    )
    sub.set_defaults(handler=_cmd_eval)

    sub = commands.add_parser("nnf", help="negation normal form of a boolean formula")
    sub.add_argument("formula")
    sub.set_defaults(handler=_cmd_nnf)

    sub = commands.add_parser(
        "ddagger", help="many-valued translation of a boolean formula"
    )
    sub.add_argument("formula")
    sub.set_defaults(handler=_cmd_ddagger)

    sub = commands.add_parser("reduce", help="reduce an instance file to a pair")
    sub.add_argument("instance", help="instance JSON file")
    sub.add_argument("--stats", action="store_true", help="include size accounting")
    sub.set_defaults(handler=_cmd_reduce)

    sub = commands.add_parser("check-stable", help="brute-force stability check")
    sub.add_argument("instance", help="instance JSON file")
    _add_budget(sub)
    sub.set_defaults(handler=_cmd_check_stable)

    sub = commands.add_parser(
        "check-consequence",
        help="consequence check: complete on an instance file, bounded on --theta/--phi",
    )
    sub.add_argument("instance", nargs="?", help="instance JSON file")
    sub.add_argument("--theta", metavar="FORMULA")
    sub.add_argument("--phi", metavar="FORMULA")
    sub.add_argument("--max-denominator", type=int, default=0)
    _add_budget(sub)
    sub.set_defaults(handler=_cmd_check_consequence)

    sub = commands.add_parser(
        "estar", help="largest survivable deletion count of the dubious set"
    )
    sub.add_argument("--delta", action="append", metavar="FORMULA")
    sub.add_argument("--nabla", action="append", metavar="FORMULA", required=True)
    sub.add_argument("--omega", metavar="FORMULA", required=True)
    _add_budget(sub)
    sub.set_defaults(handler=_cmd_estar)

    sub = commands.add_parser(
        "harness", help="randomized agreement check between the two decision routes"
    )
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--trials", type=int, required=True)
    sub.add_argument("--max-groups", type=int, default=3)
    sub.add_argument("--max-group-size", type=int, default=3)
    sub.add_argument("--max-vars", type=int, default=3)
    sub.add_argument("--max-formula-size", type=int, default=6)
    _add_budget(sub)
    sub.set_defaults(handler=_cmd_harness)

    return parser


@functools.cache
def _parser() -> _ArgumentParser:
    """The parser ``run`` uses, built once per process: building it costs
    about as much as a small decision, and parsing leaves it unchanged."""
    return build_parser()


def run(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
        if getattr(args, "budget", 0) < 0:  # before any command reads its input
            raise ValueError(f"budget must be >= 0, got {args.budget}")
        return args.handler(args)
    except _UsageError as exc:
        _emit_error("usage", str(exc))
        return EXIT_USAGE
    except FormulaSyntaxError as exc:
        _emit_error("syntax", str(exc), offset=exc.offset)
        return EXIT_USAGE
    except InstanceError as exc:
        _emit_error("instance", str(exc))
        return EXIT_USAGE
    except _JsonError as exc:
        _emit_error("json", str(exc))
        return EXIT_USAGE
    except UnboundVariableError as exc:
        _emit_error("unbound_variable", str(exc))
        return EXIT_USAGE
    except BudgetExceededError as exc:
        _emit_error("budget_exceeded", str(exc), needed=exc.needed, budget=exc.budget)
        return EXIT_BUDGET
    except ValueError as exc:
        _emit_error("value", str(exc))
        return EXIT_USAGE
    except OSError as exc:
        _emit_error("io", str(exc))
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
