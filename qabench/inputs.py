"""Seeded input generator for the benchmark.

Everything here is plain Python plus numpy: networks are built as JSON
documents in the package's file format (``bayesqa-network/1``) and written to
disk, so the package only ever sees generated files. The same seed gives the
same documents, byte for byte.

Three kinds of network are made:

* random DAGs whose CPT entries sit on a 4-decimal grid (multiples of 1e-4,
  like the gallstones example), for the generation corpus and the programs
  that ``solve-eval`` answers;
* the inference ladder: 3-state random DAGs with at most 3 parents, whose
  rungs are sized by the elimination cost that :func:`elimination_profile`
  predicts, so every seed lands in the same cost band;
* a fixed binary chain whose evidence product underflows double precision.

Rung and corpus sizes are picked by a deterministic search over candidate
draws: a candidate is kept when its predicted cost falls inside the band.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FORMAT_TAG = "bayesqa-network/1"
GRID = 10_000  # CPT entries are multiples of 1/GRID

BINARY_STATES = ("true", "false")


@dataclass(frozen=True)
class Structure:
    """Variables in topological order, their cardinalities and parents."""

    order: tuple[str, ...]
    card: dict[str, int]
    parents: dict[str, tuple[str, ...]]


def states_for(k: int) -> list[str]:
    return list(BINARY_STATES) if k == 2 else [f"s{j}" for j in range(k)]


def grid_row(rng: np.random.Generator, k: int, *, allow_zero: bool = False) -> list[float]:
    """A k-way distribution whose entries are multiples of 1/GRID.

    Entries are strictly positive unless ``allow_zero``, in which case one
    entry of the row is exactly 0.
    """

    if allow_zero:
        rest = grid_row(rng, k - 1) if k > 2 else [1.0]
        row = list(rest)
        row.insert(int(rng.integers(k)), 0.0)
        return row
    cuts = np.sort(rng.choice(GRID - 1, size=k - 1, replace=False) + 1)
    parts = np.diff(np.concatenate(([0], cuts, [GRID])))
    return [int(m) / GRID for m in parts]


def random_structure(
    rng: np.random.Generator,
    n_vars: int,
    *,
    states: tuple[int, int],
    max_parents: int = 3,
) -> Structure:
    """A random DAG over ``v0..v{n-1}`` in topological order.

    Variable ``i`` draws 0..max_parents parents among the variables before it
    and a cardinality uniformly from ``states`` (inclusive).
    """

    order = tuple(f"v{i}" for i in range(n_vars))
    card: dict[str, int] = {}
    parents: dict[str, tuple[str, ...]] = {}
    for i, vid in enumerate(order):
        card[vid] = int(rng.integers(states[0], states[1] + 1))
        n_par = int(rng.integers(min(i, max_parents) + 1))
        picks = sorted(int(j) for j in rng.choice(i, size=n_par, replace=False)) if n_par else []
        parents[vid] = tuple(order[j] for j in picks)
    return Structure(order=order, card=card, parents=parents)


def network_doc(
    rng: np.random.Generator,
    structure: Structure,
    name: str,
    *,
    zero_row_share: float = 0.0,
) -> dict:
    """The network file for ``structure`` with 4-decimal-grid CPT rows.

    A share ``zero_row_share`` of rows of child variables gets one entry of
    exactly 0, so that some evidence draws have probability 0.
    """

    variables = []
    cpts = []
    for vid in structure.order:
        k = structure.card[vid]
        states = states_for(k)
        variables.append({"id": vid, "name": vid, "states": states})
        pars = structure.parents[vid]
        rows = []
        for key in np.ndindex(*(structure.card[p] for p in pars)):
            zero = bool(pars) and rng.random() < zero_row_share
            rows.append(
                {
                    "given": {p: states_for(structure.card[p])[s] for p, s in zip(pars, key)},
                    "p": grid_row(rng, k, allow_zero=zero),
                }
            )
        cpts.append({"variable": vid, "parents": list(pars), "rows": rows})
    return {"format": FORMAT_TAG, "name": name, "entity": "x", "variables": variables, "cpts": cpts}


def structure_of(doc: dict) -> Structure:
    order = tuple(v["id"] for v in doc["variables"])
    card = {v["id"]: len(v["states"]) for v in doc["variables"]}
    parents = {c["variable"]: tuple(c["parents"]) for c in doc["cpts"]}
    return Structure(order=order, card=card, parents=parents)


def write_doc(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# predicted cost of the package's variable elimination
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EliminationProfile:
    entries: int  # table entries touched by all products, summed over steps
    largest: int  # entries of the largest product table


def elimination_profile(structure: Structure, query: str) -> EliminationProfile:
    """Cost of eliminating every variable but ``query`` in min-degree order.

    Mirrors the order ``bayesqa.inference.masked_posterior`` uses: fewest
    remaining neighbours first, ties broken by variable id. Evidence adds only
    one-variable factors, so it does not change the order or the table sizes.
    """

    scopes = [frozenset((v,) + structure.parents[v]) for v in structure.order]
    neighbors = {v: set() for v in structure.order}
    for scope in scopes:
        for a in scope:
            neighbors[a].update(scope - {a})
    todo = set(structure.order) - {query}
    entries = 0
    largest = 0
    while todo:
        target = min(todo, key=lambda v: (len(neighbors[v] & todo), v))
        bucket = [s for s in scopes if target in s]
        union = frozenset().union(*bucket)
        size = math.prod(structure.card[v] for v in union)
        entries += size
        largest = max(largest, size)
        scopes = [s for s in scopes if target not in s] + [union - {target}]
        linked = neighbors.pop(target)
        for a in linked:
            neighbors[a].discard(target)
            neighbors[a].update(linked - {a})
        todo.discard(target)
    return EliminationProfile(entries=entries, largest=largest)


def program_size(structure: Structure) -> int:
    """Heads plus body literals of the network's program encoding.

    Premise text, program text and the JSON of each instance grow with it.
    """

    return sum(
        math.prod(structure.card[p] for p in structure.parents[v])
        * ((1 if structure.card[v] == 2 else structure.card[v]) + len(structure.parents[v]))
        for v in structure.order
    )


def banded_structure(
    rng: np.random.Generator,
    n_vars: int,
    *,
    states: tuple[int, int],
    entries: tuple[int, int] = (0, math.inf),
    largest: tuple[int, int] = (0, math.inf),
    size: tuple[int, int] = (0, math.inf),
    joint: tuple[int, int] = (0, math.inf),
    tries: int = 20_000,
) -> Structure:
    """The first random structure whose predicted costs fall in every band.

    ``entries`` and ``largest`` bound :func:`elimination_profile` for a query
    on the last variable, ``size`` the :func:`program_size` and ``joint`` the size of
    the joint state space.
    """

    for _ in range(tries):
        s = random_structure(rng, n_vars, states=states)
        if not size[0] <= program_size(s) <= size[1]:
            continue
        if not joint[0] <= math.prod(s.card.values()) <= joint[1]:
            continue
        prof = elimination_profile(s, s.order[-1])
        if entries[0] <= prof.entries <= entries[1] and largest[0] <= prof.largest <= largest[1]:
            return s
    raise RuntimeError(f"no {n_vars}-variable structure within the bands after {tries} draws")


# ---------------------------------------------------------------------------
# the chain
# ---------------------------------------------------------------------------

CHAIN_LENGTH = 400
CHAIN_EVIDENCE_FROM = 68  # evidence v68..v398 = 331 variables, all "true"
CHAIN_STAY = 0.1  # P(v_i = true | v_{i-1} = true); the closed-form answer
CHAIN_FLIP = 0.6  # P(v_i = true | v_{i-1} = false)


def chain_doc() -> dict:
    """A binary chain v0 -> v1 -> ... -> v399; the same for every seed.

    With evidence ``true`` on v68..v398 the evidence has probability about
    0.1**330, below the smallest positive double, while the posterior of
    v399 is exactly ``CHAIN_STAY`` because its only parent is observed.
    """

    variables = []
    cpts = []
    for i in range(CHAIN_LENGTH):
        vid = f"v{i}"
        variables.append({"id": vid, "name": vid, "states": list(BINARY_STATES)})
        if i == 0:
            rows = [{"given": {}, "p": [0.5, 0.5]}]
            pars: list[str] = []
        else:
            par = f"v{i - 1}"
            pars = [par]
            rows = [
                {"given": {par: "true"}, "p": [CHAIN_STAY, 1.0 - CHAIN_STAY]},
                {"given": {par: "false"}, "p": [CHAIN_FLIP, 1.0 - CHAIN_FLIP]},
            ]
        cpts.append({"variable": vid, "parents": pars, "rows": rows})
    return {"format": FORMAT_TAG, "name": "chain", "entity": "x", "variables": variables, "cpts": cpts}


def chain_query() -> tuple[str, dict[str, str]]:
    last = f"v{CHAIN_LENGTH - 1}"
    evidence = {f"v{i}": "true" for i in range(CHAIN_EVIDENCE_FROM, CHAIN_LENGTH - 1)}
    return last, evidence


# ---------------------------------------------------------------------------
# random point queries
# ---------------------------------------------------------------------------


def random_evidence(
    rng: np.random.Generator,
    structure: Structure,
    query: str,
    max_vars: int,
) -> dict[str, str]:
    """Evidence on 1..max_vars variables other than ``query``, random states."""

    others = [v for v in structure.order if v != query]
    m = 1 + int(rng.integers(min(max_vars, len(others))))
    picks = rng.choice(len(others), size=m, replace=False)
    out = {}
    for j in sorted(int(p) for p in picks):
        v = others[j]
        out[v] = states_for(structure.card[v])[int(rng.integers(structure.card[v]))]
    return out
