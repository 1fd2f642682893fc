import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import stablecons
from stablecons import parse_rational01
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

    def test_zero_trials_empty_report(self, capsys):
        code, out, _ = invoke(capsys, "harness", "--trials", "0")
        assert code == 0
        assert out == ""

    def test_same_seed_same_bytes(self, capsys):
        _, first, _ = invoke(capsys, "harness", "--seed", "42", "--trials", "8")
        _, second, _ = invoke(capsys, "harness", "--seed", "42", "--trials", "8")
        assert first == second

    def test_different_seed_different_stream(self, capsys):
        _, first, _ = invoke(capsys, "harness", "--seed", "1", "--trials", "8")
        _, second, _ = invoke(capsys, "harness", "--seed", "2", "--trials", "8")
        assert first != second


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
