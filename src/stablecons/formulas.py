"""ASTs, parsing, printing and size accounting for the two formula languages.

Boolean formulas are built from indexed variables with ``Not``, ``And``,
``Or``.  Many-valued formulas share the same ``Var`` leaves and use ``Neg``,
``Oplus`` (truncated addition), ``Otimes`` (its dual, strong conjunction),
``Meet`` (minimum) and ``Join`` (maximum).

ASCII connective spellings, tightest-binding first::

    ~ a          negation
    a (*) b      strong conjunction
    a (+) b      strong disjunction
    a /\\ b       minimum   )  one shared level; mixing the two without
    a \\/ b       maximum   )  parentheses is a parse error
    a -> b       input sugar for  b (+) ~a
    a <-> b      input sugar for  (a -> b) (*) (b -> a)

Variables are spelled ``X1``, ``X2``, ... with ASCII digits and no leading
zero.  Boolean formulas use only ``~``,
``/\\`` and ``\\/``.

No walk over a formula recurses, so nesting depth is bounded only by memory.
``_nodes`` lists the nodes with an explicit stack, and ``fold`` runs a
post-order fold over that list: it takes a table from node type to an
operation on the node and its children's results.  Evaluation, negation
normal form, the many-valued translation, renaming and printing are each one
such table.  Node equality, hashing and pickling use the flat pre-order key
of the nodes, and ``repr`` writes the dataclass text from an explicit stack.
One stack-based precedence parser reads both languages; the boolean one is
the connective table without ``(+)``, ``(*)``, ``->`` and ``<->``.  It reads
the tokens of one compiled regular expression.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Union


class _Node:
    """Structural equality, hashing, repr and pickling over flat records.

    Each of them walks the tree with an explicit stack, so none recurses.
    Nodes are immutable, so a copy is the node itself.
    """

    __slots__ = ()

    def _key(self) -> list:
        nodes = _nodes(self)
        return [node.index if type(node) is Var else type(node) for node in nodes]

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(tuple(self._key()))

    def __repr__(self) -> str:
        # the dataclass repr, e.g. "Neg(child=Var(index=1))", written from a
        # stack of pending text pieces and nodes
        parts: list[str] = []
        stack: list[object] = [self]
        while stack:
            item = stack.pop()
            if not isinstance(item, _Node):
                parts.append(item)
                continue
            pieces: list[object] = [f"{type(item).__qualname__}("]
            for position, name in enumerate(item.__match_args__):
                value = getattr(item, name)
                pieces.append(f"{', ' if position else ''}{name}=")
                pieces.append(value if isinstance(value, _Node) else repr(value))
            pieces.append(")")
            stack.extend(reversed(pieces))
        return "".join(parts)

    def __reduce__(self):
        return _from_key, (self._key(),)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Var(_Node):
    """Propositional variable X_index; a leaf of both languages."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"variable index must be >= 1, got {self.index}")


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Not(_Node):
    child: "BoolFormula"


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class And(_Node):
    left: "BoolFormula"
    right: "BoolFormula"


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Or(_Node):
    left: "BoolFormula"
    right: "BoolFormula"


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Neg(_Node):
    child: "LukFormula"


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Oplus(_Node):
    left: "LukFormula"
    right: "LukFormula"


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Otimes(_Node):
    left: "LukFormula"
    right: "LukFormula"


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Meet(_Node):
    left: "LukFormula"
    right: "LukFormula"


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Join(_Node):
    left: "LukFormula"
    right: "LukFormula"


BoolFormula = Union[Var, Not, And, Or]
LukFormula = Union[Var, Neg, Oplus, Otimes, Meet, Join]
Formula = Union[BoolFormula, LukFormula]

_ARITY = {Var: 0, Not: 1, Neg: 1, And: 2, Or: 2, Oplus: 2, Otimes: 2, Meet: 2, Join: 2}


# ---------------------------------------------------------------------------
# derived connectives


def implies(a: LukFormula, b: LukFormula) -> LukFormula:
    """``a -> b``, expanded to ``b (+) ~a`` (no implication node exists)."""
    return Oplus(b, Neg(a))


def iff(a: LukFormula, b: LukFormula) -> LukFormula:
    """``a <-> b``, expanded to ``(a -> b) (*) (b -> a)``."""
    return Otimes(implies(a, b), implies(b, a))


def power(a: LukFormula, k: int) -> LukFormula:
    """Left-nested strong conjunction of k copies of ``a``; k >= 1."""
    if k < 1:
        raise ValueError(f"power exponent must be >= 1, got {k}")
    out = a
    for _ in range(k - 1):
        out = Otimes(out, a)
    return out


def multiple(k: int, a: LukFormula) -> LukFormula:
    """Left-nested strong disjunction of k copies of ``a``; k >= 1."""
    if k < 1:
        raise ValueError(f"multiple count must be >= 1, got {k}")
    out = a
    for _ in range(k - 1):
        out = Oplus(out, a)
    return out


# ---------------------------------------------------------------------------
# walks and size accounting


def _nodes(formula: Formula) -> list[Formula]:
    """Every node in pre-order, the right subtree before the left one."""
    nodes: list[Formula] = []
    stack: list[Formula] = [formula]
    while stack:
        node = stack.pop()
        nodes.append(node)
        arity = _ARITY.get(type(node))
        if arity == 2:
            stack.append(node.left)
            stack.append(node.right)
        elif arity == 1:
            stack.append(node.child)
    return nodes


def _from_key(key: list) -> Formula:
    """Rebuild a formula from its ``_Node._key`` record (used by pickle)."""
    built: list[Formula] = []
    for item in reversed(key):  # post-order, left child first
        if type(item) is int:
            built.append(Var(item))
        elif _ARITY[item] == 1:
            built[-1] = item(built[-1])
        else:
            right = built.pop()
            built[-1] = item(built[-1], right)
    return built[0]


def fold(formula: Formula, table: Mapping[type, Callable[..., Any]]) -> Any:
    """Post-order fold: the root's result, computed without recursion.

    ``table`` maps each node type to an operation called with the node and
    the results of its children, left child first.  A node type missing from
    the table is a ``TypeError``.
    """
    results: list[Any] = []
    for node in reversed(_nodes(formula)):  # children before parents, left first
        kind = type(node)
        try:
            op = table[kind]
        except KeyError:
            raise TypeError(f"unexpected node {kind.__name__}") from None
        arity = _ARITY[kind]
        if arity == 2:
            right = results.pop()
            results[-1] = op(node, results[-1], right)
        elif arity == 1:
            results[-1] = op(node, results[-1])
        else:
            results.append(op(node))
    return results[0]


def variables(formula: Formula) -> set[int]:
    """Indices of all variables occurring in the formula."""
    return {node.index for node in _nodes(formula) if isinstance(node, Var)}


def variable_occurrences(formula: Formula) -> Counter[int]:
    """Multiset of variable occurrences, keyed by index."""
    return Counter(node.index for node in _nodes(formula) if isinstance(node, Var))


def connective_count(formula: Formula) -> int:
    """Number of connective nodes (everything that is not a variable)."""
    return sum(1 for node in _nodes(formula) if not isinstance(node, Var))


@dataclass(frozen=True, slots=True)
class FormulaLength:
    """Two length measures of one formula.

    ``token_count`` counts ASCII surface tokens and ``paper_symbol_count``
    counts single characters in the unary-index alphabet where ``X3`` is the
    four symbols ``X|||``.  Both are taken on the canonical fully
    parenthesized rendering in which every connective application is wrapped
    in its own parentheses, so each connective node contributes its symbol
    plus one parenthesis pair.
    """

    token_count: int
    paper_symbol_count: int


def measure(formula: Formula) -> FormulaLength:
    tokens = 0
    symbols = 0
    for node in _nodes(formula):
        if isinstance(node, Var):
            tokens += 1
            symbols += 1 + node.index
        else:
            tokens += 3
            symbols += 3
    return FormulaLength(tokens, symbols)


# ---------------------------------------------------------------------------
# printing (minimal parentheses, inverse of the parser below)

_LEVEL_LATTICE, _LEVEL_OPLUS, _LEVEL_OTIMES, _LEVEL_UNARY, _LEVEL_ATOM = range(5)


def _wrap(printed: tuple[str, int], floor: int) -> str:
    text, level = printed
    return f"({text})" if level < floor else text


def _infix(symbol: str, level: int, right_floor: int) -> Callable[..., tuple[str, int]]:
    def op(node: Formula, left: tuple[str, int], right: tuple[str, int]):
        left_floor = level
        if level == _LEVEL_LATTICE and type(node.left) is not type(node):
            # a same-operator left chain may continue unparenthesized, the
            # other lattice operator may not (mixing needs parentheses)
            left_floor = _LEVEL_OPLUS
        return f"{_wrap(left, left_floor)} {symbol} {_wrap(right, right_floor)}", level

    return op


def _negation(node: Formula, child: tuple[str, int]) -> tuple[str, int]:
    return "~" + _wrap(child, _LEVEL_UNARY), _LEVEL_UNARY


_PRINT = {
    Var: lambda node: (f"X{node.index}", _LEVEL_ATOM),
    Not: _negation,
    Neg: _negation,
    Otimes: _infix("(*)", _LEVEL_OTIMES, _LEVEL_UNARY),
    Oplus: _infix("(+)", _LEVEL_OPLUS, _LEVEL_OTIMES),
    And: _infix("/\\", _LEVEL_LATTICE, _LEVEL_OPLUS),
    Meet: _infix("/\\", _LEVEL_LATTICE, _LEVEL_OPLUS),
    Or: _infix("\\/", _LEVEL_LATTICE, _LEVEL_OPLUS),
    Join: _infix("\\/", _LEVEL_LATTICE, _LEVEL_OPLUS),
}


def luk_to_text(formula: LukFormula) -> str:
    """Render a many-valued formula with minimal parentheses."""
    return fold(formula, _PRINT)[0]


def bool_to_text(formula: BoolFormula) -> str:
    """Render a boolean formula with minimal parentheses."""
    return fold(formula, _PRINT)[0]


# ---------------------------------------------------------------------------
# parsing


class FormulaSyntaxError(ValueError):
    """Malformed formula text; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# One token per match, after optional whitespace; the longer spellings come
# first so "(+)" is not read as "(".  Variable digits are ASCII only.  When no
# token follows the whitespace, the match is empty and ``lastgroup`` is None.
_TOKEN = re.compile(
    r"""[ \t\r\n]*
    (?:
        (?P<var>X(?P<index>[1-9][0-9]*)?)
      | (?P<oplus>\(\+\)) | (?P<otimes>\(\*\)) | (?P<iff><->) | (?P<implies>->)
      | (?P<and>/\\) | (?P<or>\\/) | (?P<not>~) | (?P<lparen>\() | (?P<rparen>\))
    )?""",
    re.VERBOSE,
)

_LUK_ONLY = {"oplus": "(+)", "otimes": "(*)", "implies": "->", "iff": "<->"}


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    """(kind, offset, variable index or 0) of each token, then an end token."""
    tokens: list[tuple[str, int, int]] = []
    match = _TOKEN.match
    position = 0
    while True:
        found = match(text, position)
        kind = found.lastgroup
        position = found.end()
        if kind is None:
            break
        offset = found.start(kind)
        index = found["index"]
        if kind == "var" and index is None:
            raise FormulaSyntaxError(
                "variable index must be a digit sequence starting 1-9", offset
            )
        tokens.append((kind, offset, int(index or 0)))
    if position < len(text):
        raise FormulaSyntaxError(f"unexpected character {text[position]!r}", position)
    tokens.append(("end", len(text), 0))
    return tokens


# Binding strength of the binary connectives.  (*), (+) and the lattice pair
# associate to the left; -> associates to the right; <-> takes a lattice
# level formula on each side and does not chain.
_PRECEDENCE = {"otimes": 3, "oplus": 2, "and": 1, "or": 1, "implies": 0, "iff": 0}
_LATTICE = 1

_BOOL_CONNECTIVES = {"and": And, "or": Or}
_LUK_CONNECTIVES = {
    "otimes": Otimes,
    "oplus": Oplus,
    "and": Meet,
    "or": Join,
    "implies": implies,
    "iff": iff,
}


def _parse(
    text: str, negation: type, connectives: Mapping[str, Callable[..., Formula]]
) -> Formula:
    """Operator-precedence parse of one formula, without recursion.

    ``operands`` holds finished subformulas and ``pending`` the open
    parentheses, negations and binary connectives still waiting for their
    right operand.
    """
    tokens = _tokenize(text)
    operands: list[Formula] = []
    pending: list[str] = []

    def apply(level: int) -> None:
        # pending connectives at least as strong as level take their operands;
        # "(" and "~" have no precedence and stop the loop
        while pending and _PRECEDENCE.get(pending[-1], -1) >= level:
            right = operands.pop()
            operands[-1] = connectives[pending.pop()](operands[-1], right)

    position = 0
    while True:
        kind, offset, index = tokens[position]
        while kind in ("not", "lparen"):
            pending.append(kind)
            position += 1
            kind, offset, index = tokens[position]
        if kind != "var":
            raise FormulaSyntaxError("expected a variable, '~' or '('", offset)
        operands.append(Var(index))
        position += 1
        # an operand is complete: look for the connective that continues it
        while True:
            while pending and pending[-1] == "not":
                pending.pop()
                operands[-1] = negation(operands[-1])
            kind, offset, _ = tokens[position]
            position += 1
            if kind in connectives:
                level = _PRECEDENCE[kind]
                apply(level + 1)
                top = pending[-1] if pending else None
                if level == _LATTICE and top in ("and", "or") and top != kind:
                    raise FormulaSyntaxError(
                        "mixing '/\\' and '\\/' needs parentheses", offset
                    )
                if not (level == 0 and top == "iff"):  # <-> does not chain
                    if level:  # left-associative
                        apply(level)
                    pending.append(kind)
                    break
            # anything else ends the innermost parenthesized formula, or the
            # whole text when no parenthesis is open
            apply(0)
            if not pending:
                if kind == "end":
                    return operands[0]
                if kind in _LUK_ONLY and kind not in connectives:
                    raise FormulaSyntaxError(
                        f"'{_LUK_ONLY[kind]}' is not a boolean connective", offset
                    )
                raise FormulaSyntaxError("unexpected trailing input", offset)
            if kind != "rparen":
                raise FormulaSyntaxError("expected ')'", offset)
            pending.pop()


def parse_bool(text: str) -> BoolFormula:
    """Parse boolean formula text; no simplification is performed."""
    return _parse(text, Not, _BOOL_CONNECTIVES)


def parse_luk(text: str) -> LukFormula:
    """Parse many-valued formula text (``->``/``<->`` expand on the spot)."""
    return _parse(text, Neg, _LUK_CONNECTIVES)
