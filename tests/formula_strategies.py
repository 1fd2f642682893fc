"""Hypothesis strategies and tiny helpers shared by the test modules."""

import random

import hypothesis.strategies as st

from stablecons import And, Join, Meet, Neg, Not, Oplus, Or, Otimes, Var


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
