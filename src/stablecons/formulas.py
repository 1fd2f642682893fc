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

Variables are spelled ``X1``, ``X2``, ...  Boolean formulas use only ``~``,
``/\\`` and ``\\/``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Union


@dataclass(frozen=True, slots=True)
class Var:
    """Propositional variable X_index; a leaf of both languages."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"variable index must be >= 1, got {self.index}")


@dataclass(frozen=True, slots=True)
class Not:
    child: "BoolFormula"


@dataclass(frozen=True, slots=True)
class And:
    left: "BoolFormula"
    right: "BoolFormula"


@dataclass(frozen=True, slots=True)
class Or:
    left: "BoolFormula"
    right: "BoolFormula"


@dataclass(frozen=True, slots=True)
class Neg:
    child: "LukFormula"


@dataclass(frozen=True, slots=True)
class Oplus:
    left: "LukFormula"
    right: "LukFormula"


@dataclass(frozen=True, slots=True)
class Otimes:
    left: "LukFormula"
    right: "LukFormula"


@dataclass(frozen=True, slots=True)
class Meet:
    left: "LukFormula"
    right: "LukFormula"


@dataclass(frozen=True, slots=True)
class Join:
    left: "LukFormula"
    right: "LukFormula"


BoolFormula = Union[Var, Not, And, Or]
LukFormula = Union[Var, Neg, Oplus, Otimes, Meet, Join]
Formula = Union[BoolFormula, LukFormula]

_UNARY = (Not, Neg)
_BINARY = (And, Or, Oplus, Otimes, Meet, Join)


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


def _nodes(formula: Formula) -> Iterator[Formula]:
    stack: list[Formula] = [formula]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _UNARY):
            stack.append(node.child)
        elif isinstance(node, _BINARY):
            stack.append(node.left)
            stack.append(node.right)


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
# printing (minimal parentheses, inverse of the parsers below)

_LEVEL_LATTICE, _LEVEL_OPLUS, _LEVEL_OTIMES, _LEVEL_UNARY, _LEVEL_ATOM = range(5)


def _fmt(node: Formula, floor: int) -> str:
    match node:
        case Var(index):
            return f"X{index}"
        case Not(child) | Neg(child):
            text = "~" + _fmt(child, _LEVEL_UNARY)
            level = _LEVEL_UNARY
        case Otimes(left, right):
            text = f"{_fmt(left, _LEVEL_OTIMES)} (*) {_fmt(right, _LEVEL_UNARY)}"
            level = _LEVEL_OTIMES
        case Oplus(left, right):
            text = f"{_fmt(left, _LEVEL_OPLUS)} (+) {_fmt(right, _LEVEL_OTIMES)}"
            level = _LEVEL_OPLUS
        case And(left, right) | Meet(left, right) | Or(left, right) | Join(left, right):
            op = "/\\" if isinstance(node, (And, Meet)) else "\\/"
            # a same-operator left chain may continue unparenthesized, the
            # other lattice operator may not (mixing needs parentheses)
            left_floor = _LEVEL_LATTICE if type(left) is type(node) else _LEVEL_OPLUS
            text = f"{_fmt(left, left_floor)} {op} {_fmt(right, _LEVEL_OPLUS)}"
            level = _LEVEL_LATTICE
        case _:
            raise TypeError(f"not a formula: {node!r}")
    return f"({text})" if level < floor else text


def luk_to_text(formula: LukFormula) -> str:
    """Render a many-valued formula with minimal parentheses."""
    return _fmt(formula, _LEVEL_LATTICE)


def bool_to_text(formula: BoolFormula) -> str:
    """Render a boolean formula with minimal parentheses."""
    return _fmt(formula, _LEVEL_LATTICE)


# ---------------------------------------------------------------------------
# parsing


class FormulaSyntaxError(ValueError):
    """Malformed formula text; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    offset: int
    index: int = 0


_SYMBOLS = (  # longest spelling first
    ("(+)", "oplus"),
    ("(*)", "otimes"),
    ("<->", "iff"),
    ("->", "implies"),
    ("/\\", "and"),
    ("\\/", "or"),
    ("~", "not"),
    ("(", "lparen"),
    (")", "rparen"),
)

_LUK_ONLY = {"oplus": "(+)", "otimes": "(*)", "implies": "->", "iff": "<->"}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "X":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            digits = text[i + 1 : j]
            if not digits or digits[0] == "0":
                raise FormulaSyntaxError(
                    "variable index must be a digit sequence starting 1-9", i
                )
            tokens.append(_Token("var", i, int(digits)))
            i = j
            continue
        for spelling, kind in _SYMBOLS:
            if text.startswith(spelling, i):
                tokens.append(_Token(kind, i))
                i += len(spelling)
                break
        else:
            raise FormulaSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _next(self) -> _Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _expect(self, kind: str, what: str) -> None:
        token = self._next()
        if token.kind != kind:
            raise FormulaSyntaxError(f"expected {what}", token.offset)

    def finish(self, boolean: bool) -> None:
        token = self._peek()
        if token.kind == "end":
            return
        if boolean and token.kind in _LUK_ONLY:
            raise FormulaSyntaxError(
                f"'{_LUK_ONLY[token.kind]}' is not a boolean connective", token.offset
            )
        raise FormulaSyntaxError("unexpected trailing input", token.offset)

    # -- many-valued grammar ------------------------------------------------

    def luk_formula(self) -> LukFormula:
        left = self.luk_lattice()
        token = self._peek()
        if token.kind == "implies":
            self._next()
            return implies(left, self.luk_formula())
        if token.kind == "iff":
            self._next()
            return iff(left, self.luk_lattice())
        return left

    def luk_lattice(self) -> LukFormula:
        node = self.luk_oplus()
        first = self._peek()
        while (token := self._peek()).kind in ("and", "or"):
            if token.kind != first.kind:
                raise FormulaSyntaxError(
                    "mixing '/\\' and '\\/' needs parentheses", token.offset
                )
            self._next()
            right = self.luk_oplus()
            node = Meet(node, right) if token.kind == "and" else Join(node, right)
        return node

    def luk_oplus(self) -> LukFormula:
        node = self.luk_otimes()
        while self._peek().kind == "oplus":
            self._next()
            node = Oplus(node, self.luk_otimes())
        return node

    def luk_otimes(self) -> LukFormula:
        node = self.luk_unary()
        while self._peek().kind == "otimes":
            self._next()
            node = Otimes(node, self.luk_unary())
        return node

    def luk_unary(self) -> LukFormula:
        if self._peek().kind == "not":
            self._next()
            return Neg(self.luk_unary())
        return self.luk_atom()

    def luk_atom(self) -> LukFormula:
        token = self._next()
        if token.kind == "var":
            return Var(token.index)
        if token.kind == "lparen":
            node = self.luk_formula()
            self._expect("rparen", "')'")
            return node
        raise FormulaSyntaxError("expected a variable, '~' or '('", token.offset)

    # -- boolean grammar ----------------------------------------------------

    def bool_formula(self) -> BoolFormula:
        node = self.bool_unary()
        first = self._peek()
        while (token := self._peek()).kind in ("and", "or"):
            if token.kind != first.kind:
                raise FormulaSyntaxError(
                    "mixing '/\\' and '\\/' needs parentheses", token.offset
                )
            self._next()
            right = self.bool_unary()
            node = And(node, right) if token.kind == "and" else Or(node, right)
        return node

    def bool_unary(self) -> BoolFormula:
        if self._peek().kind == "not":
            self._next()
            return Not(self.bool_unary())
        return self.bool_atom()

    def bool_atom(self) -> BoolFormula:
        token = self._next()
        if token.kind == "var":
            return Var(token.index)
        if token.kind == "lparen":
            node = self.bool_formula()
            self._expect("rparen", "')'")
            return node
        raise FormulaSyntaxError("expected a variable, '~' or '('", token.offset)


def parse_bool(text: str) -> BoolFormula:
    """Parse boolean formula text; no simplification is performed."""
    parser = _Parser(_tokenize(text))
    node = parser.bool_formula()
    parser.finish(boolean=True)
    return node


def parse_luk(text: str) -> LukFormula:
    """Parse many-valued formula text (``->``/``<->`` expand on the spot)."""
    parser = _Parser(_tokenize(text))
    node = parser.luk_formula()
    parser.finish(boolean=False)
    return node
