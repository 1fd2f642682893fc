"""Span tracing at the layer boundaries of the stablecons package.

Only the traced run installs a ``Tracer``.  It replaces, in a module's
namespace, the names that module imported from another stablecons module
(``decision.eval_luk``, ``cli.reduce_instance``, ...) with wrappers that record
one span per call, then puts the originals back.  A module's own globals stay
untouched, so the recursion inside ``eval_luk`` (which looks up the
``semantics`` global) records nothing.  The three exceptions are listed in
``OWN_ENTRY_POINTS``.  No file under ``src/`` is edited.

Spans are kept in memory as flat integer rows and written out once, at the end
of the run, by ``Tracer.dump``.
"""

from __future__ import annotations

import inspect
import json
import time
import types
from array import array
from pathlib import Path
from typing import Any, Callable, Iterable

LAYERS = ("cli", "decision", "reduction", "semantics", "formulas")

# Non-recursive decision functions that ``harness_trials`` (and ``estar``)
# reach through their own module's globals.  Wrapping them there is the only
# way the harness trace can split a trial into generation, oracle and grid
# check; none of them calls itself, so no recursive spans arise.
OWN_ENTRY_POINTS = (
    ("decision", "check_consequence_rho"),
    ("decision", "stable_bruteforce"),
    ("decision", "random_instance"),
)

SPAN_COLUMNS = ("id", "parent", "verdict", "name", "start_ns", "end_ns")

_MARK = "_bench_span"


def span_name(fn: Callable) -> str:
    """``<layer>.<function>`` of the function a wrapper stands for."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def cross_module_sites(package: types.ModuleType) -> list[tuple[Any, str]]:
    """Every (module, name) where one layer imported a function from another,
    plus the decision entry points of ``OWN_ENTRY_POINTS``."""
    sites = []
    for layer in LAYERS:
        module = getattr(package, layer)
        for name, value in sorted(vars(module).items()):
            if (
                isinstance(value, types.FunctionType)
                and value.__module__.startswith(package.__name__ + ".")
                and value.__module__ != module.__name__
            ):
                sites.append((module, name))
    sites.extend((getattr(package, layer), name) for layer, name in OWN_ENTRY_POINTS)
    return sites


def wrapped_names(package: types.ModuleType) -> list[str]:
    """Names of stablecons module attributes that are currently span wrappers."""
    found = []
    for layer in LAYERS:
        module = getattr(package, layer)
        for name, value in vars(module).items():
            if hasattr(value, _MARK):
                found.append(f"{layer}.{name}")
    return found


class Tracer:
    """Records spans (name, parent, start, end) and per-name totals.

    The wrappers for ``sites`` (``(namespace, attribute)`` pairs) are built
    once; ``install`` and ``uninstall`` only swap them in and out.
    ``counters`` maps a span name to a function of (args, result) whose value
    is added to ``counts[name]``.
    """

    def __init__(
        self,
        sites: Iterable[tuple[Any, str]],
        counters: dict[str, Callable[[tuple, Any], int]] | None = None,
    ) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.rows = array("q")  # SPAN_COLUMNS, flattened
        self.calls: dict[str, int] = {}
        self.inclusive_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.verdict = -1  # index of the decision the next spans belong to
        self._stack: list[list[int]] = []  # [span id, start, child ns, parent]
        self._next_id = 0
        counters = counters or {}
        self._sites = []  # (namespace, attribute, original, wrapper)
        for namespace, attr in sites:
            original = getattr(namespace, attr)
            if hasattr(original, _MARK):
                raise RuntimeError(f"{attr} is wrapped already")
            name = span_name(original)
            wrapper = self._wrap(name, original, counters.get(name))
            self._sites.append((namespace, attr, original, wrapper))

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        for namespace, attr, _, wrapper in self._sites:
            setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original back and check that it is back."""
        for namespace, attr, original, _ in self._sites:
            setattr(namespace, attr, original)
        for namespace, attr, original, _ in self._sites:
            if getattr(namespace, attr) is not original:
                raise RuntimeError(f"{attr} was not restored")

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            for table in (self.calls, self.inclusive_ns, self.self_ns):
                table[name] = 0
        return self._name_ids[name]

    def _wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        name_id = self._name_id(name)
        stack = self._stack
        rows = self.rows
        clock = time.perf_counter_ns

        def enter() -> None:
            parent = stack[-1][0] if stack else -1
            span_id = self._next_id
            self._next_id += 1
            stack.append([span_id, clock(), 0, parent])

        def leave() -> None:
            end = clock()
            span_id, start, child_ns, parent = stack.pop()
            duration = end - start
            if stack:
                stack[-1][2] += duration
            rows.extend((span_id, parent, self.verdict, name_id, start, end))
            self.calls[name] += 1
            self.inclusive_ns[name] += duration
            self.self_ns[name] += duration - child_ns

        if inspect.isgeneratorfunction(fn):
            # one span per step of the generator, so each yielded item is
            # timed where the consumer asks for it

            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    enter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        leave()
                    yield item

        else:

            def wrapper(*args, **kwargs):
                enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave()
                if counter is not None:
                    began = clock()
                    self.counts[name] = self.counts.get(name, 0) + counter(args, result)
                    if stack:  # counting is tracing overhead, not the caller's work
                        stack[-1][2] += clock() - began
                return result

        setattr(wrapper, _MARK, name)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- reading -----------------------------------------------------------

    def seconds(self, *names: str, self_time: bool = False) -> float:
        table = self.self_ns if self_time else self.inclusive_ns
        return sum(table.get(name, 0) for name in names) / 1e9

    def call_count(self, *names: str) -> int:
        return sum(self.calls.get(name, 0) for name in names)

    @property
    def span_count(self) -> int:
        return len(self.rows) // len(SPAN_COLUMNS)

    def dump(self, path: Path, context: dict) -> None:
        """Write every span recorded, with the name table and run context."""
        width = len(SPAN_COLUMNS)
        rows = self.rows.tolist()
        doc = {
            "context": context,
            "names": self.names,
            "columns": list(SPAN_COLUMNS),
            "spans": [rows[i : i + width] for i in range(0, len(rows), width)],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
