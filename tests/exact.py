"""Exact answers for the engine tests, from the CPT floats as stored.

Every float is an exact dyadic rational, so sum-product over
``fractions.Fraction`` gives the true probabilities of the network the
engines read, with no rounding anywhere. Exact sums and products do not
depend on their order, so variables are summed out one at a time, each time
the one whose product has the fewest entries: a long chain stays cheap.
:func:`ulps` measures an engine's float against such an answer.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import product

from bayesqa.model import BayesianNetwork

# ULPs the engine tests allow between an answer or a mass and the exact one:
# the worst seen on their random networks is about 3
BOUND = 4


def mass(network: BayesianNetwork, constraints: Mapping) -> Fraction:
    """The probability that each variable of ``constraints`` takes its state,
    or one of its set of states."""

    allowed = {v: range(len(network.states(v))) for v in network.variables}
    for v, a in constraints.items():
        a = {a} if isinstance(a, str) else a
        allowed[v] = [k for k, s in enumerate(network.states(v)) if s in a]

    factors = []
    for v, cpt in network.cpts.items():
        scope = (*cpt.parents, v)
        table = {}
        for key in product(*(allowed[u] for u in scope)):
            row = cpt.rows[tuple(network.states(p)[k] for p, k in zip(cpt.parents, key))]
            table[key] = Fraction(row[key[-1]])
        factors.append((scope, table))

    def entries(x):
        """The entry count of the product of the factors that hold ``x``."""
        return math.prod(len(allowed[u]) for u in set().union(*(s for s, _ in factors if x in s)))

    left = set(network.variables)
    while left:
        x = min(left, key=lambda x: (entries(x), x))
        left.discard(x)
        bucket = [f for f in factors if x in f[0]]
        factors = [f for f in factors if x not in f[0]]
        scope = tuple(sorted(set().union(*(s for s, _ in bucket)) - {x}))
        table = {}
        for key in product(*(allowed[u] for u in scope)):
            at = dict(zip(scope, key))
            total = Fraction(0)
            for k in allowed[x]:
                at[x] = k
                term = Fraction(1)
                for s, t in bucket:
                    term *= t[tuple(at[u] for u in s)]
                total += term
            table[key] = total
        factors.append((scope, table))
    return math.prod((t[()] for _, t in factors), start=Fraction(1))


def with_state(constraints: Mapping, variable: str, state: str) -> dict:
    """``constraints`` narrowed by ``variable = state``: empty where they
    already rule that state out."""

    out = dict(constraints)
    was = out.get(variable)
    out[variable] = {state} if was is None or state in ({was} if isinstance(was, str) else was) else set()
    return out


def sweep(network: BayesianNetwork, constraints: Mapping, targets: Sequence) -> tuple[Fraction, list[Fraction]]:
    """What :func:`bayesqa.inference.constrained_sweep` computes: the mass of
    ``constraints`` and, per ``(variable, state)`` target, the part of it
    where the variable takes that state."""

    return mass(network, constraints), [mass(network, with_state(constraints, v, s)) for v, s in targets]


def masked(network: BayesianNetwork, variable: str, constraints: Mapping) -> list[Fraction]:
    """What :func:`bayesqa.inference.masked_posterior` computes: per state of
    ``variable``, the mass of ``constraints`` with the variable in that state."""

    return [mass(network, with_state(constraints, variable, s)) for s in network.states(variable)]


def conditional(network: BayesianNetwork, variable: str, state: str, evidence: Mapping) -> Fraction | None:
    """P(variable = state | evidence), or None when the evidence has mass 0."""

    den = mass(network, evidence)
    return mass(network, with_state(evidence, variable, state)) / den if den else None


def ulps(got: float, exact: Fraction) -> float:
    """How far ``got`` is from ``exact``, in units in the last place of the
    correctly rounded answer ``float(exact)``; 0 when ``got`` is that float."""

    return float(abs(Fraction(got) - exact) / Fraction(math.ulp(float(exact))))
