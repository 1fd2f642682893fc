#!/usr/bin/env python3
"""Print one digest line per fixed CLI invocation, to pin stdout across changes.

    PYTHONPATH=src python3 scripts/cli_digest.py > digest.txt
    diff digest.txt scripts/cli_digest.txt

Each line holds the argv (instance files by name), the exit code and the
sha-256 of stdout.  The instance files are generated from fixed seeds into a
temporary directory, and every invocation runs in this process through
``stablecons.cli.run``.  The invocations cover ``check-consequence`` in
instance mode (stable and unstable grids of up to 2**16 points, budget
errors) and in pair mode (random and consequence pairs, the default bound,
denominators 23, 42 and 43, a budget error), ``check-stable``, ``estar`` and
``harness``; then ``reduce`` with and without ``--stats`` on every instance
file (among them renumbered instances and one at n = 2000), and ``nnf``,
``ddagger`` and ``parse`` on seeded formulas; last, ``check-stable`` on
declared n = 20 000 and 10**6 (budget counts too large to print), pair
mode at denominators 500, 2000 and 10**6, ``check-stable`` and
``check-consequence`` on a JSON file nested 200 000 levels deep, and
``check-stable`` on a UTF-16 file and on an integer of 5000 digits; and
``reduce``, ``check-consequence`` and ``estar`` with variable counts of
2**64.  New invocations are appended after the existing ones, so earlier
lines keep their bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from stablecons import (
    And,
    FormulaGroup,
    HarnessLimits,
    Join,
    Meet,
    Neg,
    Not,
    Oplus,
    Or,
    Otimes,
    StableInstance,
    Var,
    bool_to_text,
    instance_to_json,
    luk_to_text,
    random_instance,
)
from stablecons.cli import run
from stablecons.decision import random_bool_formula

_LUK = (Oplus, Otimes, Meet, Join)


def luk_formula(rng: random.Random, m: int, connectives: int):
    """Random many-valued formula over X1..Xm; deterministic given the rng."""
    nodes = [Var(rng.randint(1, m)) for _ in range(connectives + 1)]
    for _ in range(connectives):
        if rng.random() < 0.2:
            i = rng.randrange(len(nodes))
            nodes[i] = Neg(nodes[i])
        else:
            i = rng.randrange(len(nodes) - 1)
            nodes[i : i + 2] = [rng.choice(_LUK)(nodes[i], nodes[i + 1])]
    while len(nodes) > 1:
        nodes[:2] = [Oplus(nodes[0], nodes[1])]
    return nodes[0]


def stable_instance(rng: random.Random, n: int) -> StableInstance:
    """An instance whose grid check scans all 2**n points: every way of
    deleting one formula of the first group still forces Xx, which the second
    group refutes."""
    x = Var(rng.randint(1, n))
    forcing = (x, And(x, random_bool_formula(rng, n, 3)))
    return StableInstance(n, (FormulaGroup(forcing, 1), FormulaGroup((Not(x),), 0)))


def invocations(workdir: Path) -> list[list[str]]:
    calls: list[list[str]] = []
    instance_files: list[str] = []

    def instance_file(name: str, instance: StableInstance) -> str:
        path = workdir / name
        path.write_text(json.dumps(instance_to_json(instance)), encoding="utf-8")
        instance_files.append(str(path))
        return str(path)

    rng = random.Random(20261018)
    for i in range(60):
        limits = HarnessLimits(max_vars=rng.randint(1, 14), max_formula_size=8)
        path = instance_file(f"random{i}.json", random_instance(rng, limits))
        calls.append(["check-consequence", path])
        if i % 10 == 0:
            calls.append(["check-consequence", path, "--budget", "3"])
        if i % 3 == 0:
            calls.append(["check-stable", path])
    for i, n in enumerate((1, 2, 5, 9, 12, 13, 14, 16)):
        path = instance_file(f"stable{i}.json", stable_instance(rng, n))
        calls.append(["check-consequence", path])
        calls.append(["check-stable", path])

    for i in range(80):
        m = rng.randint(1, 4)
        phi = luk_formula(rng, m, rng.randint(0, 6))
        theta = luk_formula(rng, m, rng.randint(0, 6))
        if i % 2:
            theta = Otimes(phi, theta)  # a consequence: the scan runs to the end
        pair = ["check-consequence", "--theta", luk_to_text(theta), "--phi", luk_to_text(phi)]
        bound = rng.choice((0, 1, 2, 3, 5, 8) if m == 4 else (0, 1, 3, 6, 10, 14))
        calls.append(pair + (["--max-denominator", str(bound)] if bound else []))
        if i % 20 == 0:
            calls.append(pair + ["--max-denominator", "6", "--budget", "10"])
        if i < 3:
            for q in (23, 42, 43):
                calls.append(
                    ["check-consequence", "--theta", luk_to_text(luk_formula(rng, 1, 4)),
                     "--phi", luk_to_text(luk_formula(rng, 1, 4)), "--max-denominator", str(q)]
                )

    for _ in range(12):
        n = rng.randint(1, 4)
        call = ["estar", "--omega", bool_to_text(random_bool_formula(rng, n, 2))]
        for _ in range(rng.randint(0, 2)):
            call += ["--delta", bool_to_text(random_bool_formula(rng, n, 3))]
        for _ in range(rng.randint(1, 4)):
            call += ["--nabla", bool_to_text(random_bool_formula(rng, n, 3))]
        calls.append(call)

    for seed in (1, 2, 3, 7, 42):
        calls.append(["harness", "--seed", str(seed), "--trials", "200"])

    rng = random.Random(20261019)
    # a gap in the used variables (renumbered), and a grid antecedent of
    # 2000 conjuncts, whose printed chain is long
    instance_file("gaps.json", StableInstance(9, (
        FormulaGroup((Var(3), Or(Var(7), Not(Var(3))), Not(Var(9))), 1),
        FormulaGroup((And(Var(9), Var(7)),), 0),
    )))
    instance_file("wide.json", stable_instance(rng, 2000))
    for path in instance_files:
        calls.append(["reduce", path])
        calls.append(["reduce", path, "--stats"])
    for i in range(60):
        formula = random_bool_formula(rng, rng.randint(1, 6), rng.randint(0, 10))
        if i % 4 == 0:
            formula = Not(Not(formula) if i % 8 else formula)  # negation on top
        text = bool_to_text(formula)
        calls += [["nnf", text], ["ddagger", text], ["parse", "--bool", text]]
        calls.append(["parse", "--luk", luk_to_text(luk_formula(rng, 4, rng.randint(0, 12)))])
    deep = "~" * 301 + "(X1 /\\ ~(X2 \\/ ~X3))"
    calls += [["nnf", deep], ["ddagger", deep], ["parse", "--bool", deep]]

    contradiction = (FormulaGroup((Var(1), Not(Var(1))), 0),)
    for n in (20_000, 10**6):
        path = workdir / f"declared{n}.json"
        path.write_text(json.dumps(instance_to_json(StableInstance(n, contradiction))))
        calls.append(["check-stable", str(path)])
    for q in (500, 2000, 1_000_000):
        calls.append(
            ["check-consequence", "--theta", "X1", "--phi", "X1 (*) X2",
             "--max-denominator", str(q)]
        )
    deep = workdir / "deep.json"  # past the JSON decoder's recursion
    deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    calls += [["check-stable", str(deep)], ["check-consequence", str(deep)]]

    # a UTF-16 instance (json.loads would read its bytes) and an integer past
    # int()'s 4300-digit limit: both JSON errors
    utf16 = workdir / "utf16.json"
    text = json.dumps(instance_to_json(StableInstance(1, contradiction)))
    utf16.write_bytes(b"\xff\xfe" + text.encode("utf-16-le"))
    digits = workdir / "digits.json"
    digits.write_text('{"n": ' + "1" * 5000 + ', "groups": []}', encoding="utf-8")
    calls += [["check-stable", str(utf16)], ["check-stable", str(digits)]]
    # a declared n of 2**64 with only X1 used, and e* over X1 and X(2**64)
    path = workdir / "declared2_64.json"
    path.write_text(json.dumps(instance_to_json(StableInstance(2**64, contradiction))))
    calls += [["reduce", str(path)], ["check-consequence", str(path)]]
    far = f"X{2**64}"
    calls.append(["estar", "--omega", far, "--nabla", far, "--nabla", f"X1 /\\ {far}"])
    return calls


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for argv in invocations(workdir):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run(argv)
            shown = [Path(a).name if a.startswith(tmp) else a for a in argv]
            digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
            print(json.dumps(shown), code, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
