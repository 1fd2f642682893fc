import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import stablecons
import stablecons.decision
from stablecons import CONSEQUENCE, ConsequenceVerdict, parse_rational01
from stablecons.cli import run


@pytest.fixture
def instance_file(tmp_path):
    def make(doc, name="instance.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    return make


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, _ = invoke(capsys, *argv)
    return code, json.loads(out)


CONTRADICTION = {"n": 1, "groups": [{"formulas": ["X1", "~X1"], "delete": 0}]}
LOOSENED = {"n": 1, "groups": [{"formulas": ["X1", "~X1"], "delete": 1}]}


class TestParseCommand:
    def test_bool(self, capsys):
        code, doc = invoke_json(capsys, "parse", "--bool", "(~X1 /\\ X2)")
        assert code == 0
        assert doc == {
            "kind": "bool",
            "formula": "~X1 /\\ X2",
            "token_count": 8,
            "paper_symbol_count": 11,
            "variables": ["X1", "X2"],
        }

    def test_luk(self, capsys):
        code, doc = invoke_json(capsys, "parse", "--luk", "X1 (*) X2 (+) X3")
        assert code == 0
        assert doc["formula"] == "X1 (*) X2 (+) X3"

    def test_syntax_error_is_machine_readable(self, capsys):
        code, doc = invoke_json(capsys, "parse", "--bool", "X1 @@")
        assert code == 2
        assert doc["error"]["kind"] == "syntax"
        assert doc["error"]["offset"] == 3

    def test_non_ascii_digit_is_a_syntax_error(self, capsys):
        code, doc = invoke_json(capsys, "parse", "--bool", "X\u00b2")
        assert code == 2
        assert doc["error"] == {
            "kind": "syntax",
            "message": "variable index must be a digit sequence starting 1-9 (at offset 0)",
            "offset": 0,
        }

    def test_requires_exactly_one_language(self, capsys):
        code, doc = invoke_json(capsys, "parse", "--bool", "X1", "--luk", "X1")
        assert code == 2
        assert doc["error"]["kind"] == "usage"

    def test_unknown_subcommand(self, capsys):
        code, doc = invoke_json(capsys, "frobnicate")
        assert code == 2
        assert doc["error"]["kind"] == "usage"


class TestEvalCommand:
    def test_luk_value(self, capsys):
        code, doc = invoke_json(
            capsys, "eval", "--luk", "X1 (+) X1", "--at", "X1=1/3"
        )
        assert code == 0
        assert doc == {"value": "2/3"}

    def test_bool_value(self, capsys):
        code, doc = invoke_json(
            capsys, "eval", "--bool", "X1 /\\ ~X2", "--at", "X1=1", "--at", "X2=0"
        )
        assert code == 0
        assert doc == {"value": "1"}

    def test_malformed_binding(self, capsys):
        code, doc = invoke_json(capsys, "eval", "--luk", "X1", "--at", "X1:1/3")
        assert code == 2
        assert doc["error"]["kind"] == "value"

    def test_bool_literal_must_be_0_or_1(self, capsys):
        code, doc = invoke_json(capsys, "eval", "--bool", "X1", "--at", "X1=2")
        assert code == 2
        assert doc["error"] == {
            "kind": "value",
            "message": "X1 must be assigned 0 or 1, got '2'",
        }

    @pytest.mark.parametrize(
        "language, first, second",
        [("--luk", "1/3", "2/3"), ("--bool", "1", "1")],
    )
    def test_a_variable_bound_twice_is_a_value_error(
        self, capsys, language, first, second
    ):
        # not the last binding silently winning
        argv = ["eval", language, "X2 \\/ X3", "--at", f"X3={first}"]
        code, doc = invoke_json(capsys, *argv, "--at", f"X3={second}")
        assert code == 2
        message = "X3 is bound more than once"
        assert doc == {"error": {"kind": "value", "message": message}}

    def test_out_of_range_value(self, capsys):
        code, doc = invoke_json(capsys, "eval", "--luk", "X1", "--at", "X1=4/3")
        assert code == 2

    def test_unbound_variable(self, capsys):
        code, doc = invoke_json(capsys, "eval", "--luk", "X1 (+) X2", "--at", "X1=1")
        assert code == 2
        assert doc["error"]["kind"] == "unbound_variable"


class TestTransformCommands:
    def test_nnf(self, capsys):
        code, doc = invoke_json(capsys, "nnf", "~(X1 /\\ X2)")
        assert code == 0
        assert doc == {"nnf": "~X1 \\/ ~X2"}

    def test_ddagger(self, capsys):
        code, doc = invoke_json(capsys, "ddagger", "X1")
        assert code == 0
        assert doc == {"ddagger": "~X1 \\/ X1 (+) X1"}


class TestReduceCommand:
    def test_reduce_basic(self, capsys, instance_file):
        code, doc = invoke_json(capsys, "reduce", instance_file(CONTRADICTION))
        assert code == 0
        assert doc["e"] == 2
        assert doc["var_map"] == {"X1": "X1"}
        assert "stats" not in doc
        from stablecons import parse_luk, constraint_formula

        assert parse_luk(doc["theta"]) == constraint_formula(1, 2)

    def test_reduce_with_stats(self, capsys, instance_file):
        code, doc = invoke_json(
            capsys, "reduce", instance_file(CONTRADICTION), "--stats"
        )
        assert code == 0
        stats = doc["stats"]
        assert set(stats) == {"instance_length", "output_length", "n", "ratio"}
        assert stats["n"] == 1

    def test_missing_file(self, capsys):
        code, doc = invoke_json(capsys, "reduce", "/nonexistent/instance.json")
        assert code == 2
        assert doc["error"]["kind"] == "io"

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, doc = invoke_json(capsys, "reduce", str(path))
        assert code == 2
        assert doc["error"]["kind"] == "json"

    @pytest.mark.parametrize("command", ["reduce", "check-stable", "check-consequence"])
    def test_json_nested_past_the_decoder_is_a_json_error(self, capsys, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        code, out, err = invoke(capsys, command, str(path))
        assert code == 2
        assert json.loads(out) == {
            "error": {
                "kind": "json",
                "message": "nesting too deep to decode: line 1 column 1 (char 0)",
            }
        }
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["reduce", "check-stable", "check-consequence"])
    @pytest.mark.parametrize(
        "content, message",
        [
            # files json.loads would decode from bytes, but not UTF-8 ones
            (
                b"\xff\xfe" + json.dumps(CONTRADICTION).encode("utf-16-le"),
                "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
            ),
            (
                b"\xff\xfe\x00\x00" + json.dumps(CONTRADICTION).encode("utf-32-le"),
                "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
            ),
            # past int()'s limit of 4300 digits
            (
                b'{"n": ' + b"1" * 5000 + b', "groups": []}',
                "Exceeds the limit (4300 digits) for integer string conversion",
            ),
        ],
        ids=["utf-16", "utf-32", "5000-digits"],
    )
    def test_an_undecodable_file_is_a_json_error(
        self, capsys, tmp_path, command, content, message
    ):
        path = tmp_path / "instance.json"
        path.write_bytes(content)
        code, out, err = invoke(capsys, command, str(path))
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "json"
        assert error["message"].startswith(message)
        assert "Traceback" not in err

    def test_a_declared_n_of_2_64_reduces_as_n_1(self, capsys, instance_file):
        expected = invoke_json(capsys, "reduce", instance_file(CONTRADICTION))
        path = instance_file({**CONTRADICTION, "n": 2**64}, name="declared.json")
        assert invoke_json(capsys, "reduce", path) == expected

    def test_invalid_instance(self, capsys, instance_file):
        bad = {"n": 1, "groups": [{"formulas": ["X1", "X1"], "delete": 0}]}
        code, doc = invoke_json(capsys, "reduce", instance_file(bad))
        assert code == 2
        assert doc["error"]["kind"] == "instance"

    def test_duplicate_deep_formulas(self, capsys, instance_file):
        # two separately parsed copies of a 1 100-literal conjunction, nested
        # deeper than the interpreter's recursion limit
        conjunction = " /\\ ".join(f"X{i % 7 + 1}" for i in range(1100))
        bad = {"n": 7, "groups": [{"formulas": [conjunction] * 2, "delete": 0}]}
        code, doc = invoke_json(capsys, "reduce", instance_file(bad))
        assert code == 2
        assert doc["error"] == {
            "kind": "instance",
            "message": "group formulas must be structurally distinct",
        }


class TestCheckStableCommand:
    def test_stable_exits_zero(self, capsys, instance_file):
        code, doc = invoke_json(capsys, "check-stable", instance_file(CONTRADICTION))
        assert code == 0
        assert doc == {"stable": True}

    def test_unstable_exits_one_with_counterexample(self, capsys, instance_file):
        code, doc = invoke_json(capsys, "check-stable", instance_file(LOOSENED))
        assert code == 1
        assert doc["stable"] is False
        assert doc["counterexample"]["deleted"] == [[0]]
        assert doc["counterexample"]["assignment"] == {"X1": 0}

    def test_non_ascii_digit_is_an_instance_error(self, capsys, instance_file):
        bad = {"n": 1, "groups": [{"formulas": ["X1", "~X\u00b2"], "delete": 0}]}
        code, doc = invoke_json(capsys, "check-stable", instance_file(bad))
        assert code == 2
        assert doc["error"] == {
            "kind": "instance",
            "message": "groups[0].formulas[1]: "
            "variable index must be a digit sequence starting 1-9 (at offset 1)",
        }

    def test_budget_exceeded_exits_three(self, capsys, instance_file):
        code, doc = invoke_json(
            capsys, "check-stable", instance_file(CONTRADICTION), "--budget", "1"
        )
        assert code == 3
        assert doc["error"]["kind"] == "budget_exceeded"

    @pytest.mark.parametrize("n", [20_000, 10**6, 10**10])
    def test_a_declared_n_past_printing_is_a_quick_budget_error(
        self, capsys, instance_file, n
    ):
        # 2**n steps: not built, and reported as a string, not a JSON int
        path = instance_file({**CONTRADICTION, "n": n})
        started = time.perf_counter()
        code, doc = invoke_json(capsys, "check-stable", path)
        assert time.perf_counter() - started < 1
        assert code == 3
        assert doc["error"]["kind"] == "budget_exceeded"
        assert doc["error"]["needed"] == f"at least 2**{n}"
        assert doc["error"]["message"] == (
            f"stability enumeration needs at least 2**{n} steps, budget is 5000000"
        )


class TestCheckConsequenceCommand:
    def test_instance_mode_consequence(self, capsys, instance_file):
        code, doc = invoke_json(
            capsys, "check-consequence", instance_file(CONTRADICTION)
        )
        assert code == 0
        assert doc == {"kind": "consequence", "certified": True, "e": 2}

    def test_instance_mode_countermodel(self, capsys, instance_file):
        code, doc = invoke_json(capsys, "check-consequence", instance_file(LOOSENED))
        assert code == 1
        assert doc["kind"] == "countermodel"
        assert doc["witness"] == {"X1": "1/3"}

    @pytest.mark.parametrize("n", [2**64, 10**10])
    @pytest.mark.parametrize("doc", [CONTRADICTION, LOOSENED])
    def test_a_declared_n_is_a_quick_verdict(self, capsys, instance_file, doc, n):
        # only X1 occurs, so the grid has 2 points, not 2**n
        expected = invoke_json(capsys, "check-consequence", instance_file(doc))
        path = instance_file({**doc, "n": n}, name="declared.json")
        started = time.perf_counter()
        verdict = invoke_json(capsys, "check-consequence", path)
        assert time.perf_counter() - started < 1
        assert verdict == expected

    def test_pair_mode_countermodel(self, capsys):
        code, doc = invoke_json(
            capsys,
            "check-consequence",
            "--theta",
            "X1 (+) X1",
            "--phi",
            "X1",
            "--max-denominator",
            "2",
        )
        assert code == 1
        assert doc["kind"] == "countermodel"
        assert doc["witness"] == {"X1": "1/2"}
        assert doc["suggested_max_denominator"] == 1

    def test_pair_mode_inconclusive(self, capsys):
        code, doc = invoke_json(
            capsys,
            "check-consequence",
            "--theta",
            "X1",
            "--phi",
            "X1 (+) X1",
            "--max-denominator",
            "8",
        )
        assert code == 0
        assert doc["kind"] == "inconclusive_at_bound"
        assert doc["bound"] == 8

    @pytest.mark.parametrize("bound, witness", [("23", "1/23"), ("42", "1/41")])
    def test_pair_mode_up_to_denominator_42(self, capsys, bound, witness):
        # theta = 41 X1 is 1 from X1 = 1/41 on; the first such point of the
        # scan is 1/23 at bound 23, and 1/41 itself at bound 42
        code, doc = invoke_json(
            capsys,
            "check-consequence",
            "--theta",
            " (+) ".join(["X1"] * 41),
            "--phi",
            "X1",
            "--max-denominator",
            bound,
        )
        assert code == 1
        assert doc["witness"] == {"X1": witness}

    @pytest.mark.parametrize("bound", ["43", "50"])
    def test_denominator_past_int64_is_a_value_error(self, capsys, bound):
        code, out, err = invoke(
            capsys,
            "check-consequence",
            "--theta",
            "X1",
            "--phi",
            "X1",
            "--max-denominator",
            bound,
        )
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "value"
        assert "too large" in json.loads(out)["error"]["message"]
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "bound", [["--max-denominator", "2000"], ["--max-denominator", "1000000"], []]
    )
    @pytest.mark.parametrize("phi", ["X1", "X1 (*) X2"])
    def test_a_large_bound_is_a_quick_value_error(self, capsys, bound, phi):
        # with no flag the bound is the pair's connective count, 2000 or more
        theta = " (+) ".join(["X1"] * (2001 if not bound else 1))
        started = time.perf_counter()
        code, doc = invoke_json(
            capsys, "check-consequence", "--theta", theta, "--phi", phi, *bound
        )
        assert time.perf_counter() - started < 1
        assert code == 2
        assert doc["error"] == {
            "kind": "value",
            "message": "denominator 9419588158802421600 too large for int64 "
            "lattice arithmetic",
        }

    def test_a_negative_bound_is_a_value_error(self, capsys):
        code, doc = invoke_json(
            capsys, "check-consequence", "--theta", "X1", "--phi", "X1",
            "--max-denominator", "-3",
        )
        assert code == 2
        assert doc["error"] == {
            "kind": "value",
            "message": "max_denominator must be >= 1, got -3",
        }

    def test_both_modes_rejected(self, capsys, instance_file):
        code, doc = invoke_json(
            capsys,
            "check-consequence",
            instance_file(CONTRADICTION),
            "--theta",
            "X1",
            "--phi",
            "X1",
        )
        assert code == 2
        assert doc["error"]["kind"] == "usage"

    def test_half_a_pair_rejected(self, capsys):
        code, doc = invoke_json(capsys, "check-consequence", "--theta", "X1")
        assert code == 2

    def test_no_mode_rejected(self, capsys):
        code, doc = invoke_json(capsys, "check-consequence")
        assert code == 2


class TestEstarCommand:
    def test_threshold_found(self, capsys):
        code, doc = invoke_json(
            capsys,
            "estar",
            "--omega",
            "X1",
            "--nabla",
            "X1",
            "--nabla",
            "X1 \\/ X1",
            "--nabla",
            "X1 /\\ X1",
        )
        assert code == 0
        assert doc["e_star"] == 2
        assert doc["nabla_size"] == 3

    def test_a_variable_index_of_2_64_is_renumbered(self, capsys):
        far = f"X{2**64}"
        code, doc = invoke_json(
            capsys, "estar", "--omega", far, "--nabla", far, "--nabla", f"X1 /\\ {far}"
        )
        assert code == 0
        assert doc == {"e_star": 1, "checks_performed": 2, "nabla_size": 2}

    def test_no_entailment_exits_one(self, capsys):
        code, doc = invoke_json(
            capsys, "estar", "--omega", "X1", "--nabla", "X2"
        )
        assert code == 1
        assert doc["e_star"] is None


class TestHarnessCommand:
    def test_streams_one_record_per_trial(self, capsys):
        code, out, _ = invoke(capsys, "harness", "--seed", "7", "--trials", "5")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        for i, line in enumerate(lines):
            record = json.loads(line)
            assert record["trial"] == i
            assert record["agree"] is True

    def test_a_disagreement_exits_one_with_a_count(self, capsys, monkeypatch):
        # a grid check that inverts every verdict disagrees on every trial
        check = stablecons.decision.check_consequence_rho

        def inverted(output, budget):
            if check(output, budget).kind == CONSEQUENCE:
                return ConsequenceVerdict.inconclusive(1)
            return ConsequenceVerdict.consequence(certified=True)

        monkeypatch.setattr(stablecons.decision, "check_consequence_rho", inverted)
        code, out, err = invoke(capsys, "harness", "--seed", "7", "--trials", "3")
        assert code == 1
        assert [json.loads(line)["agree"] for line in out.splitlines()] == [False] * 3
        assert err == "3 disagreement(s) in 3 trials\n"

    def test_zero_trials_empty_report(self, capsys):
        code, out, _ = invoke(capsys, "harness", "--trials", "0")
        assert code == 0
        assert out == ""

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--trials", "-1", "trials must be >= 0, got -1"),
            ("--max-vars", "0", "max_vars must be >= 1, got 0"),
            ("--max-groups", "0", "max_groups must be >= 1, got 0"),
            ("--max-group-size", "0", "max_group_size must be >= 1, got 0"),
            ("--max-formula-size", "-1", "max_formula_size must be >= 0, got -1"),
        ],
    )
    def test_a_limit_out_of_range_is_a_value_error(self, capsys, flag, value, message):
        # each names its field, not randrange's "empty range", and a negative
        # --trials is an error, not an empty report
        argv = ["harness", "--seed", "1", "--trials", "3", flag, value]
        code, doc = invoke_json(capsys, *argv)
        assert code == 2
        assert doc == {"error": {"kind": "value", "message": message}}

    def test_same_seed_same_bytes(self, capsys):
        _, first, _ = invoke(capsys, "harness", "--seed", "42", "--trials", "8")
        _, second, _ = invoke(capsys, "harness", "--seed", "42", "--trials", "8")
        assert first == second

    def test_different_seed_different_stream(self, capsys):
        _, first, _ = invoke(capsys, "harness", "--seed", "1", "--trials", "8")
        _, second, _ = invoke(capsys, "harness", "--seed", "2", "--trials", "8")
        assert first != second


# every command that takes --budget; a dict stands for an instance file
BUDGETED_COMMANDS = [
    pytest.param(["check-stable", CONTRADICTION], id="check-stable"),
    pytest.param(["check-consequence", CONTRADICTION], id="check-consequence-file"),
    pytest.param(
        ["check-consequence", "--theta", "X1", "--phi", "X1"],
        id="check-consequence-pair",
    ),
    pytest.param(["estar", "--nabla", "X1", "--omega", "X1"], id="estar"),
    pytest.param(["harness", "--trials", "1"], id="harness"),
]


@pytest.mark.parametrize("command", BUDGETED_COMMANDS)
class TestBudgetFlag:
    def test_a_negative_budget_is_a_value_error(self, capsys, instance_file, command):
        argv = [instance_file(a) if isinstance(a, dict) else a for a in command]
        code, doc = invoke_json(capsys, *argv, "--budget", "-5")
        assert code == 2
        message = "budget must be >= 0, got -5"
        assert doc == {"error": {"kind": "value", "message": message}}

    def test_a_budget_of_zero_is_exceeded(self, capsys, instance_file, command):
        argv = [instance_file(a) if isinstance(a, dict) else a for a in command]
        code, doc = invoke_json(capsys, *argv, "--budget", "0")
        assert code == 3
        assert doc["error"]["kind"] == "budget_exceeded"
        assert doc["error"]["budget"] == 0


class TestDeterminism:
    def test_reduce_output_is_reproducible(self, capsys, instance_file):
        path = instance_file(LOOSENED)
        _, first, _ = invoke(capsys, "reduce", path, "--stats")
        _, second, _ = invoke(capsys, "reduce", path, "--stats")
        assert first == second

    def test_payload_reparses(self, capsys, instance_file):
        _, out, _ = invoke(capsys, "check-consequence", instance_file(LOOSENED))
        witness = {
            int(name[1:]): parse_rational01(literal)
            for name, literal in json.loads(out)["witness"].items()
        }
        assert witness == {1: Fraction(1, 3)}

    def test_repeated_runs_match_fresh_processes(self, capsys, instance_file):
        # run() keeps one parser per process; reusing it after a success and
        # a usage error must print what a fresh process prints
        calls = [
            ["check-consequence", instance_file(LOOSENED)],
            ["check-consequence", "--theta", "X1"],
            ["eval", "--luk", "X1 (+) X2", "--at", "X1=1/3", "--at", "X2=1/2"],
            ["parse", "--bool", "X1", "--luk", "X1"],
            ["check-consequence", instance_file(LOOSENED)],
        ]
        in_process = [invoke(capsys, *argv)[:2] for argv in calls]
        src = str(Path(stablecons.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        fresh = []
        for argv in calls:
            done = subprocess.run(
                [sys.executable, "-m", "stablecons.cli", *argv],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )
            fresh.append((done.returncode, done.stdout))
        assert in_process == fresh
        assert [code for code, _ in fresh] == [1, 2, 0, 2, 1]

    def test_the_digest_script_reproduces_its_pinned_output(self):
        # scripts/cli_digest.py pins stdout and exit code of fixed CLI calls;
        # comparing lines of bytes shows the first line that moved
        scripts = Path(__file__).resolve().parents[1] / "scripts"
        src = str(Path(stablecons.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, str(scripts / "cli_digest.py")],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            timeout=600,
        )
        assert done.returncode == 0, done.stderr.decode()
        pinned = (scripts / "cli_digest.txt").read_bytes()
        lines = done.stdout.splitlines(keepends=True)
        assert lines == pinned.splitlines(keepends=True)
