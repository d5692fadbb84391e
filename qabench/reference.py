"""Exact posteriors computed without the package under test.

The benchmark checks every answer of ``bayesqa`` against these. Nothing here
imports ``bayesqa``: networks are read straight from their JSON files.

:func:`posterior` removes barren nodes (every variable that is not an
ancestor of the query or the evidence), slices the evidence out of the CPT
tables and contracts the remaining tables pairwise with plain numpy
broadcasting, rescaling each intermediate table so that nothing underflows.
``np.einsum`` is not used: it accepts at most 52 distinct indices.
:func:`chain_posterior` is forward filtering with normalisation at each step,
for a chain whose query is its last variable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np


@dataclass(frozen=True)
class RefNetwork:
    states: dict[str, tuple[str, ...]]
    parents: dict[str, tuple[str, ...]]
    tables: dict[str, np.ndarray]  # axes: parents in order, then the variable

    def children(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {v: [] for v in self.states}
        for v, ps in self.parents.items():
            for p in ps:
                out[p].append(v)
        return out


def from_doc(doc: dict) -> RefNetwork:
    states = {v["id"]: tuple(v["states"]) for v in doc["variables"]}
    parents: dict[str, tuple[str, ...]] = {}
    tables: dict[str, np.ndarray] = {}
    for rec in doc["cpts"]:
        vid = rec["variable"]
        pars = tuple(rec["parents"])
        table = np.zeros([len(states[p]) for p in pars] + [len(states[vid])])
        for row in rec["rows"]:
            key = tuple(states[p].index(row["given"][p]) for p in pars)
            table[key] = row["p"]
        parents[vid] = pars
        tables[vid] = table
    return RefNetwork(states=states, parents=parents, tables=tables)


def load(path: str | Path) -> RefNetwork:
    return from_doc(json.loads(Path(path).read_text(encoding="utf-8")))


def ancestral_set(net: RefNetwork, roots: set[str]) -> set[str]:
    keep: set[str] = set()
    stack = list(roots)
    while stack:
        v = stack.pop()
        if v in keep:
            continue
        keep.add(v)
        stack.extend(net.parents[v])
    return keep


class _Table:
    """A nonnegative table with named axes."""

    __slots__ = ("axes", "values")

    def __init__(self, axes: tuple[str, ...], values: np.ndarray):
        self.axes = axes
        self.values = values


def _product(a: _Table, b: _Table) -> _Table:
    axes = a.axes + tuple(x for x in b.axes if x not in a.axes)

    def spread(t: _Table) -> np.ndarray:
        # move t's axes into the order of `axes`, with length-1 axes for the rest
        perm = sorted(range(len(t.axes)), key=lambda i: axes.index(t.axes[i]))
        moved = np.transpose(t.values, perm)
        shape = [1] * len(axes)
        for i in perm:
            shape[axes.index(t.axes[i])] = t.values.shape[i]
        return moved.reshape(shape)

    return _Table(axes, spread(a) * spread(b))


def _rescale(t: _Table) -> _Table:
    top = t.values.max() if t.values.size else 0.0
    if top > 0.0:
        t.values = t.values / top
    return t


def posterior(net: RefNetwork, query: str, evidence: Mapping[str, str]) -> np.ndarray:
    """Normalised P(query | evidence) over the query's states.

    Raises ``ZeroDivisionError`` when the evidence has probability 0.
    """

    keep = ancestral_set(net, {query} | set(evidence))
    observed = {v: net.states[v].index(s) for v, s in evidence.items()}
    tables: list[_Table] = []
    for v in sorted(keep):  # a fixed order gives the same float rounding in every process
        axes = net.parents[v] + (v,)
        values = net.tables[v]
        index = tuple(observed.get(a, slice(None)) for a in axes)
        tables.append(_Table(tuple(a for a in axes if a not in observed), values[index]))

    card = {v: len(net.states[v]) for v in net.states}
    hidden = keep - set(observed) - {query}
    while hidden:
        # greedy: the variable whose combined table is smallest
        def cost(v: str) -> tuple[int, str]:
            scope: set[str] = set()
            for t in tables:
                if v in t.axes:
                    scope.update(t.axes)
            return int(np.prod([card[a] for a in scope])), v

        target = min(hidden, key=cost)
        bucket = [t for t in tables if target in t.axes]
        tables = [t for t in tables if target not in t.axes]
        prod = bucket[0]
        for t in bucket[1:]:
            prod = _product(prod, t)
        axis = prod.axes.index(target)
        tables.append(_rescale(_Table(prod.axes[:axis] + prod.axes[axis + 1 :], prod.values.sum(axis=axis))))
        hidden.discard(target)

    result = _Table((query,), np.ones(card[query]))
    for t in tables:
        result = _rescale(_product(result, t))
    vec = result.values.reshape(card[query])
    total = vec.sum()
    if total == 0.0:
        raise ZeroDivisionError("evidence has probability 0")
    return vec / total


def chain_posterior(net: RefNetwork, order: list[str], evidence: Mapping[str, str]) -> np.ndarray:
    """P(last variable of a chain | evidence) by normalised forward filtering.

    ``order`` lists the chain from its root; each variable's only parent is
    its predecessor.
    """

    alpha = net.tables[order[0]].copy()
    for i, v in enumerate(order):
        if i:
            if net.parents[v] != (order[i - 1],):
                raise ValueError(f"{v} is not a chain link after {order[i - 1]}")
            alpha = alpha @ net.tables[v]
        if v in evidence:
            mask = np.zeros(len(net.states[v]))
            mask[net.states[v].index(evidence[v])] = 1.0
            alpha = alpha * mask
        total = alpha.sum()
        if total == 0.0:
            raise ZeroDivisionError("evidence has probability 0")
        alpha = alpha / total
    return alpha


def reasoning_labels(net: RefNetwork, evidence_vars: set[str], query: str) -> tuple[list[str], str]:
    """Reasoning types of a query/evidence pattern, from the network's edges.

    causal: an observed parent of the query; evidential: an observed child;
    explaining_away: an observed child with another observed parent. The
    primary label is the most specific one present, or "none".
    """

    kids = net.children()[query]
    found = []
    if evidence_vars & set(net.parents[query]):
        found.append("causal")
    if evidence_vars & set(kids):
        found.append("evidential")
    if any(evidence_vars & (set(net.parents[c]) - {query}) for c in kids if c in evidence_vars):
        found.append("explaining_away")
    return found, (found[-1] if found else "none")
