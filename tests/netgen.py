"""Random-network factory for the randomized suites.

Generated networks are deliberately small: the joint state space and the
world count of the program encoding are both capped, so factor elimination,
assignment enumeration, and possible-world enumeration all stay fast enough
to run thousands of times. Probabilities sit on a 1e-6 grid, which the
program serializer (six fractional digits) reproduces exactly — round-trip
comparisons can therefore use very tight tolerances.

Two-state variables use the states ("true", "false") so that decoding an
encoded program reconstructs the original network verbatim.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from bayesqa.dataset import NetworkEncoder
from bayesqa.model import BayesianNetwork, Cpt, Variable, assignment_grid
from bayesqa.problog.convert import BINARY_STATES
from bayesqa.problog.syntax import Atom, ProblogProgram

MICRO = 10**6
MAX_JOINT_STATES = 4096
MAX_WORLDS = 1024


def grid_row(rng: np.random.Generator, k: int) -> tuple[float, ...]:
    """A strictly positive k-way distribution on the 1e-6 grid."""

    if k == 2:
        p = (1 + int(rng.integers(MICRO - 1))) / MICRO
        return (p, 1.0 - p)
    cuts = np.sort(rng.choice(MICRO - 1, size=k - 1, replace=False) + 1)
    parts = np.diff(np.concatenate(([0], cuts, [MICRO])))
    return tuple(int(m) / MICRO for m in parts)


def random_network(
    rng: np.random.Generator,
    *,
    name: str = "net",
    max_vars: int = 8,
    max_states: int = 4,
) -> BayesianNetwork:
    """Draw a random DAG over 2..max_vars variables with 2..max_states states.

    Structure is trimmed greedily against the world/joint budgets, so a draw
    never needs to be rejected and generation stays deterministic per rng.
    """

    n = 2 + int(rng.integers(max_vars - 1))
    net = BayesianNetwork(name=name, entity="e")
    worlds = 1
    joint = 1
    cards: list[int] = []
    for i in range(n):
        k = 2 + int(rng.integers(max_states - 1))
        if joint * k > MAX_JOINT_STATES:
            k = 2
        if joint * k > MAX_JOINT_STATES:
            break  # even a binary variable busts the joint budget; stop early

        n_parents = int(rng.integers(min(i, 2) + 1))
        parent_idx = sorted(rng.choice(i, size=n_parents, replace=False)) if n_parents else []
        # shrink until this variable's clauses fit the world budget
        while True:
            rows = 1
            for j in parent_idx:
                rows *= cards[int(j)]
            alts = 2 if k == 2 else k
            cost = alts**rows
            if worlds * cost <= MAX_WORLDS:
                break
            if parent_idx:
                parent_idx = parent_idx[:-1]
            elif k > 2:
                k = 2
            else:
                cost = 2
                break
        if worlds * cost > MAX_WORLDS:
            break
        worlds *= cost
        joint *= k

        vid = f"v{i}"
        states = BINARY_STATES if k == 2 else tuple(f"s{j}" for j in range(k))
        parent_ids = tuple(f"v{int(j)}" for j in parent_idx)
        rows_map = {}
        for key in assignment_grid(net, parent_ids):
            rows_map[key] = grid_row(rng, k)
        net.variables[vid] = Variable(id=vid, name=vid, states=states)
        net.cpts[vid] = Cpt(variable=vid, parents=parent_ids, rows=rows_map)
        cards.append(k)

    if len(net.variables) < 2:  # budget can only bite after two variables exist
        raise AssertionError("network generator produced fewer than 2 variables")
    return net


def with_zeros(rng: np.random.Generator, net: BayesianNetwork) -> BayesianNetwork:
    """Move the mass of some CPT entries to their neighbours, leaving zeros,
    so that some evidence has probability 0; ``net`` is changed in place."""

    for v, cpt in list(net.cpts.items()):
        rows = {}
        for key, row in cpt.rows.items():
            row = list(row)
            if rng.random() < 0.3:
                j = int(rng.integers(len(row)))
                row[(j + 1) % len(row)] += row[j]
                row[j] = 0.0
            rows[key] = tuple(row)
        net.cpts[v] = replace(cpt, rows=rows)
    return net


def random_point_query(
    rng: np.random.Generator, net: BayesianNetwork
) -> tuple[str, str, dict[str, str]]:
    """A random (query variable, query state, point evidence) triple.

    Every full assignment of a generated network has positive probability,
    so any evidence drawn here is satisfiable.
    """

    ids = sorted(net.variables)
    qi = int(rng.integers(len(ids)))
    query_var = ids[qi]
    qstates = net.variables[query_var].states
    query_state = qstates[int(rng.integers(len(qstates)))]
    evidence: dict[str, str] = {}
    for v in ids:
        if v == query_var or rng.random() < 0.5:
            continue
        states = net.variables[v].states
        evidence[v] = states[int(rng.integers(len(states)))]
    return query_var, query_state, evidence


def query_program(
    net: BayesianNetwork, evidence: dict[str, str], query_var: str
) -> tuple[ProblogProgram, dict[str, Atom]]:
    """Encode the network plus evidence, querying every state of one variable.

    The second state of a two-state variable has no positive atom, so the
    dataset encoder adds a deterministic indicator predicate for it; the
    returned mapping gives the atom whose probability equals
    P(query_var = state).
    """

    encoder = NetworkEncoder(net)
    states = net.variables[query_var].states
    extra = encoder.extension(sorted(evidence.items()), [(query_var, s) for s in states])
    program = replace(extra, clauses=encoder.base.clauses + extra.clauses)
    return program, {s: q.atom for s, q in zip(states, program.queries)}
