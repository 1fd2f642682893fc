"""The four benchmark workloads: seeded input generators, decisions, references.

Each workload has four parts:

* ``make_inputs`` builds the inputs from the seed alone (set-up);
* ``warm_up`` runs the route once on a small input (set-up);
* ``decider`` returns ``decide(i)``, the i-th decision of the closed loop,
  issued through the entry points in ``api``;
* ``check`` compares what a decision returned with a reference that does not
  come from the route under test and returns the number of points the
  verdict needed, or raises ``Mismatch``.

Inputs are generated in blocks.  Every block holds a fixed multiset of shapes
(variable counts, deletion counts, hit positions, denominators, formula
sizes), and the seed decides the order and every detail inside a shape.  Runs
on different seeds therefore do the same amount of work in the same mix,
which keeps the run-to-run spread of the end-to-end metrics small.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

# ---------------------------------------------------------------------------
# shared helpers


class Mismatch(Exception):
    """A decision's output disagrees with the benchmark's reference."""


class OverBudget(Mismatch):
    """The CLI reported an exceeded enumeration budget (exit code 3)."""


def spread(lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers spaced evenly over [lo, hi], both ends included."""
    if count == 1:
        return [lo]
    return [lo + round((hi - lo) * k / (count - 1)) for k in range(count)]


Literal = tuple[int, bool]  # (variable index, positive)


def clause_text(literals: list[Literal]) -> str:
    return " \\/ ".join(("" if positive else "~") + f"X{v}" for v, positive in literals)


def grid_value(bit: int, e: int) -> str:
    """Text of the lifted coordinate of a 0/1 bit at grid parameter e."""
    return str(Fraction(e if bit else 1, e + 1))


# ---------------------------------------------------------------------------
# grid-stable: full 2^n scans of stable instances

# Nine shapes with well separated costs: in a window of seven copies of each,
# the median (rank 32 of 63) and the tail (rank 53) fall on the middle copy
# of one shape, not on the edge between two, so machine noise cannot swap
# them.
GRID_STABLE_N = (8, 9, 10)
GRID_STABLE_D = (1, 3, 4)
GRID_STABLE_NOISE = 2


def stable_doc(rng: random.Random, n: int, d: int) -> dict:
    """An instance that is stable by construction.

    Group A holds d+1 distinct rotations of one conjunction of all variables
    and allows d deletions, so a full conjunction always survives and forces
    every variable to 1; group B is one clause of all negated variables with
    no deletions, which then fails.  The noise group (no deletions) cannot
    make an unsatisfiable conjunction satisfiable.
    """
    order = rng.sample(range(1, n + 1), n)
    conjunctions = [
        " /\\ ".join(f"X{v}" for v in order[s:] + order[:s])
        for s in rng.sample(range(n), d + 1)
    ]
    negations = clause_text([(v, False) for v in rng.sample(range(1, n + 1), n)])
    clauses: list[str] = []
    while len(clauses) < GRID_STABLE_NOISE:
        text = clause_text(
            [(v, rng.random() < 0.5) for v in rng.sample(range(1, n + 1), 3)]
        )
        if text not in clauses:
            clauses.append(text)
    groups = [
        {"formulas": conjunctions, "delete": d},
        {"formulas": [negations], "delete": 0},
        {"formulas": clauses, "delete": 0},
    ]
    rng.shuffle(groups)
    return {"n": n, "groups": groups}


def grid_stable_inputs(seed: int, blocks: int = 8) -> list[dict]:
    rng = random.Random(f"grid-stable:{seed}")
    docs = []
    for _ in range(blocks):
        shapes = [(n, d) for n in GRID_STABLE_N for d in GRID_STABLE_D]
        rng.shuffle(shapes)
        docs.extend(stable_doc(rng, n, d) for n, d in shapes)
    return docs


# ---------------------------------------------------------------------------
# grid-early: unstable clause instances whose first grid countermodel comes early


@dataclass
class EarlyInstance:
    n: int
    groups: list[list[tuple[Literal, ...]]]
    deletes: list[int]
    hit: int  # index of the first countermodel, confirmed by the reference
    path: str = ""
    witness: dict[str, str] = field(default_factory=dict)
    e: int = 2

    def doc(self) -> dict:
        return {
            "n": self.n,
            "groups": [
                {"formulas": [clause_text(list(c)) for c in clauses], "delete": d}
                for clauses, d in zip(self.groups, self.deletes)
            ],
        }


def early_instance(
    rng: random.Random, n: int, sizes: list[int], deletes: list[int], hit: int,
    low_bits: int,
) -> EarlyInstance:
    """Seeded 3-literal clause groups whose first countermodel is ``hit``.

    In lexicographic grid order (X1 most significant, bit 0 first) the
    points below 2^low_bits set only the last ``low_bits`` variables.  Every
    noise clause holds a negated high variable, so it is true on all of
    them.  For each 1-bit of ``hit`` one group receives d+1 "pin" clauses
    ``Xa \\/ Xb \\/ Xlow`` (a, b high): every earlier point clears some such
    bit, falsifies d+1 clauses of that group and is no countermodel, while
    the point ``hit`` falsifies no clause at all.
    """
    high = list(range(1, n - low_bits + 1))
    low = list(range(n - low_bits + 1, n + 1))  # low[0] is the most significant
    group_count = len(sizes)
    groups: list[list[tuple[Literal, ...]]] = [[] for _ in range(group_count)]
    seen: set[frozenset] = set()

    def add(g: int, literals: list[Literal]) -> bool:
        key = frozenset(literals)
        if key in seen:
            return False
        seen.add(key)
        rng.shuffle(literals)
        groups[g].append(tuple(literals))
        return True

    for i, v in enumerate(low):
        if hit >> (low_bits - 1 - i) & 1:
            g = rng.randrange(group_count)
            needed = deletes[g] + 1
            while needed:
                a, b = rng.sample(high, 2)
                needed -= add(g, [(a, True), (b, True), (v, True)])

    def noise(extra: int | None = None) -> list[Literal]:
        while True:
            chosen = rng.sample(range(1, n + 1), 3)
            if extra is not None and extra not in chosen:
                chosen[0] = extra
                if len(set(chosen)) < 3:
                    continue
            literals = [(v, rng.random() < 0.5) for v in chosen]
            if any(v in high and not positive for v, positive in literals):
                return literals
            if any(v in high for v in chosen):
                k = next(k for k, (v, _) in enumerate(literals) if v in high)
                literals[k] = (literals[k][0], False)
                return literals

    for g in range(group_count):
        while len(groups[g]) < sizes[g]:
            add(g, noise())
    used = {v for clauses in groups for c in clauses for v, _ in c}
    for v in range(1, n + 1):
        while v not in used:
            if add(rng.randrange(group_count), noise(extra=v)):
                used.add(v)
    return EarlyInstance(n, groups, deletes, hit)


def first_countermodel(instance: EarlyInstance, limit: int) -> int | None:
    """Index of the first grid point (X1 most significant) at which every
    group has at most its deletion count of falsified clauses.

    Evaluates the benchmark's own clause lists with bit masks; the program's
    evaluators are not used.  Variables are numbered as the reduction numbers
    them: the used ones, in increasing order.
    """
    used = sorted({v for clauses in instance.groups for c in clauses for v, _ in c})
    bit = {v: 1 << (len(used) - 1 - r) for r, v in enumerate(used)}
    masks = [
        [
            (
                sum(bit[v] for v, positive in c if positive),
                sum(bit[v] for v, positive in c if not positive),
            )
            for c in clauses
        ]
        for clauses in instance.groups
    ]
    for j in range(min(limit, 1 << len(used))):
        if all(
            sum(1 for pos, neg in group if j & pos == 0 and j & neg == neg) <= d
            for group, d in zip(masks, instance.deletes)
        ):
            return j
    return None


GRID_EARLY_BLOCK = 16


def grid_early_inputs(
    seed: int,
    blocks: int = 16,
    n_range: tuple[int, int] = (16, 20),
    low_bits: int = 6,
) -> list[EarlyInstance]:
    rng = random.Random(f"grid-early:{seed}")
    width = (1 << low_bits) // GRID_EARLY_BLOCK
    items = []
    for _ in range(blocks):
        hits = [k * width + rng.randrange(width) for k in range(GRID_EARLY_BLOCK)]
        ns = [
            n_range[0] + k % (n_range[1] - n_range[0] + 1) for k in range(GRID_EARLY_BLOCK)
        ]
        group_counts = [3 + k % 2 for k in range(GRID_EARLY_BLOCK)]
        sizes = spread(8, 16, sum(group_counts))
        deletes = [k % 3 for k in range(sum(group_counts))]
        for values in (hits, ns, group_counts, sizes, deletes):
            rng.shuffle(values)
        for hit, n, count in zip(hits, ns, group_counts):
            group_sizes = [sizes.pop() for _ in range(count)]
            group_deletes = [deletes.pop() for _ in range(count)]
            item = early_instance(rng, n, group_sizes, group_deletes, hit, low_bits)
            found = first_countermodel(item, 1 << low_bits)
            if found != hit:
                raise RuntimeError(f"planted hit {hit}, reference found {found}")
            item.e = max(2, *item.deletes)
            bits = format(found, f"0{n}b")
            item.witness = {
                f"X{i}": grid_value(int(b), item.e) for i, b in enumerate(bits, 1)
            }
            items.append(item)
    return items


def write_instance_files(items: list[EarlyInstance], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for i, item in enumerate(items):
        path = directory / f"early-{i:04d}.json"
        path.write_text(json.dumps(item.doc()), encoding="utf-8")
        item.path = str(path)


# ---------------------------------------------------------------------------
# harness: the program's own randomized agreement harness

_BOOL_TEXT = re.compile(r"[X0-9~()/\\ ]+")


@functools.lru_cache(maxsize=4096)  # bounded, so memory does not grow with trials
def bool_predicate(text: str) -> Callable[[dict[int, int]], bool]:
    """Compile printed boolean formula text into a Python predicate.

    ``~``, ``/\\``, ``\\/`` become ``not``, ``and``, ``or``; the printer never
    mixes ``/\\`` and ``\\/`` without parentheses, so Python's precedence
    gives the same tree.
    """
    if not _BOOL_TEXT.fullmatch(text):
        raise Mismatch(f"unexpected formula text {text!r}")
    source = re.sub(r"X(\d+)", r"x[\1]", text)
    source = source.replace("~", " not ").replace("/\\", " and ").replace("\\/", " or ")
    code = compile(source.strip(), "<formula>", "eval")
    return lambda x: bool(eval(code, {"__builtins__": {}}, {"x": x}))


def grid_points_needed(doc: dict) -> tuple[bool, int]:
    """(stable, grid points the grid check needs) for an instance document.

    Enumerates the used variables in increasing order, most significant
    first, and stops at the first point where every group has at most its
    deletion count of false formulas: such a point is a counterexample to
    stability, so none existing means stable.
    """
    groups = [
        ([bool_predicate(t) for t in g["formulas"]], g["delete"])
        for g in doc["groups"]
    ]
    texts = [t for g in doc["groups"] for t in g["formulas"]]
    used = sorted({int(v) for t in texts for v in re.findall(r"X(\d+)", t)})
    m = len(used)
    for j in range(1 << m):
        x = {v: (j >> (m - 1 - r)) & 1 for r, v in enumerate(used)}
        if all(sum(not p(x) for p in formulas) <= d for formulas, d in groups):
            return False, j + 1
    return True, 1 << m


# ---------------------------------------------------------------------------
# pair-scan: bounded-denominator scans of many-valued pairs

# (variables, inclusive range of the denominator bound q); per block every
# stratum appears once as a consequence pair and once as a random pair
PAIR_STRATA = (
    (3, (5, 7)),
    (3, (8, 10)),
    (3, (11, 12)),
    (3, (13, 14)),
    (4, (4, 5)),
    (4, (6, 6)),
    (4, (7, 7)),
    (4, (8, 8)),
)
PAIR_SIZES = (10, 30)

Luk = tuple  # ("var", i) | ("neg", a) | (op, a, b)
_BINARY_OPS = ("oplus", "otimes", "meet", "join")


def luk_formula(rng: random.Random, m: int, connectives: int) -> Luk:
    """Random formula with exactly ``connectives`` connectives that uses all
    of X1..Xm (``connectives`` must allow at least m leaves)."""

    def shape(k: int) -> Luk:
        if k == 0:
            return ("var",)
        if rng.random() < 0.2:
            return ("neg", shape(k - 1))
        split = rng.randint(0, k - 1)
        return (rng.choice(_BINARY_OPS), shape(split), shape(k - 1 - split))

    def leaves(node: Luk) -> int:
        return 1 if node[0] == "var" else sum(leaves(c) for c in node[1:])

    while True:
        tree = shape(connectives)
        count = leaves(tree)
        if count >= m:
            break
    labels = list(range(1, m + 1)) + [rng.randint(1, m) for _ in range(count - m)]
    rng.shuffle(labels)
    labels.reverse()

    def label(node: Luk) -> Luk:
        if node[0] == "var":
            return ("var", labels.pop())
        return (node[0], *(label(c) for c in node[1:]))

    return label(tree)


def luk_lattice(node: Luk, columns: list, scale: int):
    """The benchmark's own exact evaluator for its generated formulas.

    ``columns[v - 1]`` holds the numerators of Xv at many points, all over
    ``scale``; returns the value numerators over the same ``scale``.
    """
    import numpy as np  # imported late: run.py pins BLAS threads first

    op = node[0]
    if op == "var":
        return columns[node[1] - 1]
    if op == "neg":
        return scale - luk_lattice(node[1], columns, scale)
    a, b = luk_lattice(node[1], columns, scale), luk_lattice(node[2], columns, scale)
    if op == "oplus":
        return np.minimum(scale, a + b)
    if op == "otimes":
        return np.maximum(0, a + b - scale)
    return np.minimum(a, b) if op == "meet" else np.maximum(a, b)


def to_program(node: Luk, formulas: Any):
    """Build the program's formula object for a generated formula."""
    op = node[0]
    if op == "var":
        return formulas.Var(node[1])
    if op == "neg":
        return formulas.Neg(to_program(node[1], formulas))
    cls = {"oplus": formulas.Oplus, "otimes": formulas.Otimes,
           "meet": formulas.Meet, "join": formulas.Join}[op]
    return cls(to_program(node[1], formulas), to_program(node[2], formulas))


def farey(q: int) -> list[Fraction]:
    """Every rational in [0, 1] with denominator at most q, ascending."""
    return sorted({Fraction(p, k) for k in range(1, q + 1) for p in range(k + 1)})


@dataclass
class Pair:
    m: int
    q: int
    consequence: bool  # true by construction: theta = phi (*) psi
    theta: Luk
    phi: Luk
    program: tuple = ()  # (theta, phi) as program formula objects


PAIR_CHUNK = 1 << 14  # points per reference step, small so it never sets peak RSS


def first_pair_countermodel(pair: Pair) -> int | None:
    """Index of the first point of the scan, or None, at which theta = 1 and
    phi < 1.

    The scan runs over the Farey axis of denominator bound q in every
    variable, X1 most significant, with the benchmark's own evaluator on
    numerators scaled by lcm(1..q).
    """
    import numpy as np

    axis = farey(pair.q)
    scale = math.lcm(*range(1, pair.q + 1))
    numerators = np.array([int(f * scale) for f in axis], dtype=np.int64)
    size = len(axis) ** pair.m
    for start in range(0, size, PAIR_CHUNK):
        index = np.arange(start, min(start + PAIR_CHUNK, size), dtype=np.int64)
        columns = [
            numerators[index // len(axis) ** (pair.m - v) % len(axis)]
            for v in range(1, pair.m + 1)
        ]
        theta = luk_lattice(pair.theta, columns, scale)
        phi = luk_lattice(pair.phi, columns, scale)
        hits = np.flatnonzero((theta == scale) & (phi < scale))
        if hits.size:
            return start + int(hits[0])
    return None


def pair_inputs(seed: int, blocks: int = 96) -> list[Pair]:
    rng = random.Random(f"pair-scan:{seed}")
    pairs = []
    for _ in range(blocks):
        cells = [(m, qs, kind) for m, qs in PAIR_STRATA for kind in (True, False)]
        sizes = spread(*PAIR_SIZES, 2 * len(cells))
        rng.shuffle(cells)
        rng.shuffle(sizes)
        for m, (q_lo, q_hi), consequence in cells:
            first = luk_formula(rng, m, sizes.pop())
            second = luk_formula(rng, m, sizes.pop())
            q = rng.randint(q_lo, q_hi)
            if consequence:
                pairs.append(Pair(m, q, True, ("otimes", first, second), first))
            else:
                pairs.append(Pair(m, q, False, first, second))
    return pairs


# ---------------------------------------------------------------------------
# the workloads


class Workload:
    name = ""
    block = 1  # decisions per block of inputs; runs end on a block boundary
    window = 1  # decisions per timing window, a multiple of block and >= 11

    def make_inputs(self, seed: int, package: Any, workdir: Path) -> Any:
        raise NotImplementedError

    def warm_up(self, api: Any, package: Any, inputs: Any) -> None:
        raise NotImplementedError

    def decider(self, api: Any, inputs: Any, seed: int) -> Callable[[int], Any]:
        raise NotImplementedError

    def check(self, package: Any, inputs: Any, i: int, raw: Any, cache: dict) -> int:
        raise NotImplementedError


class GridStable(Workload):
    """instance_from_json -> reduce_instance -> check_consequence_rho."""

    name = "grid-stable"
    block = len(GRID_STABLE_N) * len(GRID_STABLE_D)
    window = 7 * block

    def make_inputs(self, seed, package, workdir):
        return grid_stable_inputs(seed)

    def warm_up(self, api, package, inputs):
        doc = stable_doc(random.Random(0), 4, 1)  # the route on a 16-point grid
        api.check_consequence_rho(api.reduce_instance(api.instance_from_json(doc)))

    def decider(self, api, inputs, seed):
        def decide(i):
            instance = api.instance_from_json(inputs[i % len(inputs)])
            return instance, api.check_consequence_rho(api.reduce_instance(instance))

        return decide

    def check(self, package, inputs, i, raw, cache):
        instance, verdict = raw
        if verdict.kind != package.decision.CONSEQUENCE or not verdict.certified:
            raise Mismatch(f"stable instance {i % len(inputs)} got {verdict.to_json()}")
        key = i % len(inputs)
        if key not in cache:  # the oracle runs once per distinct instance
            cache[key] = package.decision.stable_bruteforce(instance).stable
        if not cache[key]:
            raise Mismatch(f"oracle finds instance {key} unstable")
        return 2**instance.n


class GridEarly(Workload):
    """``stablecons check-consequence FILE`` in-process, stdout captured."""

    name = "grid-early"
    block = GRID_EARLY_BLOCK
    window = 3 * block

    def make_inputs(self, seed, package, workdir):
        items = grid_early_inputs(seed)
        write_instance_files(items, workdir / "grid-early")
        return items

    def warm_up(self, api, package, inputs):
        # the earliest hit of a block: a short decision whose cost hardly
        # depends on the seed, so set-up time stays comparable across seeds
        first = min(range(self.block), key=lambda k: inputs[k].hit)
        self.decider(api, inputs, 0)(first)

    def decider(self, api, inputs, seed):
        def decide(i):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = api.run(["check-consequence", inputs[i % len(inputs)].path])
            return code, out.getvalue()

        return decide

    def check(self, package, inputs, i, raw, cache):
        code, stdout = raw
        if code == 3:
            raise OverBudget(stdout)
        item = inputs[i % len(inputs)]
        doc = json.loads(stdout)
        expected = {"kind": "countermodel", "witness": item.witness, "e": item.e}
        if code != 1 or doc != expected:
            raise Mismatch(f"instance {i % len(inputs)}: exit {code}, {doc} != {expected}")
        return item.hit + 1


class Harness(Workload):
    """``harness_trials(seed, trials, HarnessLimits())``, one trial per step."""

    name = "harness"
    window = 1000
    TRIALS = 10**9  # never exhausted within a run

    def make_inputs(self, seed, package, workdir):
        return package.decision.HarnessLimits()  # the function draws its own instances

    def warm_up(self, api, package, inputs):
        for _ in api.harness_trials(-1, 50, inputs):
            pass

    def decider(self, api, inputs, seed):
        stream = api.harness_trials(seed, self.TRIALS, inputs)
        return lambda i: next(stream)

    def check(self, package, inputs, i, raw, cache):
        if raw["trial"] != i or not raw["agree"]:
            raise Mismatch(f"trial {i}: {raw}")
        stable, points = grid_points_needed(raw["instance"])
        if stable != raw["stable"] or stable != raw["consequence"]:
            raise Mismatch(f"trial {i}: reference says stable={stable}: {raw}")
        return points


class PairScan(Workload):
    """``find_countermodel(theta, phi, q)`` on the benchmark's own pairs."""

    name = "pair-scan"
    block = 2 * len(PAIR_STRATA)
    window = 8 * block

    def make_inputs(self, seed, package, workdir):
        pairs = pair_inputs(seed)
        for pair in pairs:
            pair.program = (
                to_program(pair.theta, package.formulas),
                to_program(pair.phi, package.formulas),
            )
        return pairs

    def warm_up(self, api, package, inputs):
        api.find_countermodel(*inputs[0].program, 4)

    def decider(self, api, inputs, seed):
        def decide(i):
            pair = inputs[i % len(inputs)]
            return api.find_countermodel(*pair.program, pair.q)

        return decide

    def check(self, package, inputs, i, raw, cache):
        key = i % len(inputs)
        pair = inputs[key]
        decision = package.decision
        if ("axis", pair.q) not in cache:
            axis = farey(pair.q)
            cache["axis", pair.q] = axis, {f: k for k, f in enumerate(axis)}
        axis, position = cache["axis", pair.q]
        if key not in cache:  # the reference scan runs once per distinct pair
            cache[key] = first_pair_countermodel(pair)
        expected = cache[key]
        if pair.consequence and expected is not None:
            raise Mismatch(f"pair {key}: the reference refutes a consequence pair")
        if raw.kind == decision.INCONCLUSIVE:
            if raw.bound != pair.q or expected is not None:
                raise Mismatch(f"pair {key}: {raw.to_json()}, expected point {expected}")
            return len(axis) ** pair.m
        if raw.kind != decision.COUNTERMODEL or expected is None:
            raise Mismatch(f"pair {key}: {raw.to_json()}, expected no countermodel")
        witness = raw.witness
        if sorted(witness) != list(range(1, pair.m + 1)) or any(
            w not in position for w in witness.values()
        ):
            raise Mismatch(f"pair {key}: witness off the 1/q grid {witness}")
        theta, phi = pair.program
        eval_luk = package.semantics.eval_luk
        if eval_luk(theta, witness) != 1 or not eval_luk(phi, witness) < 1:
            raise Mismatch(f"pair {key}: witness does not re-verify")
        index = 0
        for v in range(1, pair.m + 1):
            index = index * len(axis) + position[witness[v]]
        if index != expected:
            raise Mismatch(f"pair {key}: witness at point {index}, the first is {expected}")
        return expected + 1


WORKLOADS = {w.name: w for w in (GridStable(), GridEarly(), Harness(), PairScan())}
