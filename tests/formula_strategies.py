"""Hypothesis strategies and tiny helpers shared by the test modules."""

import random
from collections import Counter
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np

from stablecons import And, Join, Meet, Neg, Not, Oplus, Or, Otimes, Var
from stablecons.formulas import _nodes
from stablecons.semantics import (
    _lattice_connectives,
    _lattice_dtype,
    _run,
    compile_luk,
)


def bool_formulas(max_index: int = 4, max_leaves: int = 25):
    leaf = st.builds(Var, st.integers(1, max_index))
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.builds(Not, inner),
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
        ),
        max_leaves=max_leaves,
    )


def luk_formulas(max_index: int = 4, max_leaves: int = 25):
    leaf = st.builds(Var, st.integers(1, max_index))
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.builds(Neg, inner),
            st.builds(Oplus, inner, inner),
            st.builds(Otimes, inner, inner),
            st.builds(Meet, inner, inner),
            st.builds(Join, inner, inner),
        ),
        max_leaves=max_leaves,
    )


unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=12)


def valuations_over(indices):
    return st.fixed_dictionaries({i: unit_fractions for i in indices})


def random_luk_formula(rng: random.Random, n_vars: int, max_connectives: int):
    """Random many-valued formula; deterministic given the rng state."""
    if max_connectives <= 0 or rng.random() < 0.3:
        return Var(rng.randint(1, n_vars))
    kind = rng.choice(("neg", "oplus", "otimes", "meet", "join"))
    if kind == "neg":
        return Neg(random_luk_formula(rng, n_vars, max_connectives - 1))
    split = rng.randint(0, max_connectives - 1)
    left = random_luk_formula(rng, n_vars, split)
    right = random_luk_formula(rng, n_vars, max_connectives - 1 - split)
    node = {"oplus": Oplus, "otimes": Otimes, "meet": Meet, "join": Join}[kind]
    return node(left, right)


def eval_lattice(formula, var_order, columns, L):
    """The formula's value numerators over L at many lattice points at once.

    ``columns`` holds one array of numerators per variable of ``var_order``
    (the columns of a point matrix, or broadcastable axes), converted to the
    lattice dtype of L as the scan converts its axis.  The result has that
    dtype and the broadcast shape of the columns.
    """
    dtype = _lattice_dtype(L)
    binding = {
        index: np.asarray(column, dtype=dtype)
        for index, column in zip(var_order, columns)
    }
    return _run(compile_luk(formula), binding, _lattice_connectives(dtype.type(L)))


def variable_occurrences(formula) -> Counter:
    """Multiset of variable occurrences, keyed by index."""
    return Counter(node.index for node in _nodes(formula) if isinstance(node, Var))


def grid_values(e: int) -> tuple[Fraction, Fraction]:
    """The two coordinates 1/(e+1) and e/(e+1) of the lifted grid."""
    if e < 2:
        raise ValueError(f"grid parameter must be >= 2, got {e}")
    return Fraction(1, e + 1), Fraction(e, e + 1)


def lift_point(assignment, e: int) -> dict[int, Fraction]:
    """Move a 0/1 assignment to the interior point at distance 1/(e+1).

    Coordinate i becomes 1/(e+1) when the bit is 0 and e/(e+1) when it is 1.
    Requires e >= 2 so the two images stay in order.
    """
    low, high = grid_values(e)
    lifted: dict[int, Fraction] = {}
    for index, bit in assignment.items():
        if bit not in (0, 1):
            raise ValueError(f"X{index} must be assigned 0 or 1, got {bit!r}")
        lifted[index] = high if bit else low
    return lifted
