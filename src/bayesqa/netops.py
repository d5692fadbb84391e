"""Whole-network operations: marginal priors and subnetwork extraction.

``subset`` keeps a chosen set of variables and marginalizes the rest out.
Kept edges keep their CPT rows verbatim; a variable that lost parents gets
rows recomputed by conditioning the *original* network on its remaining kept
parents. This is exact whenever no dependence between kept variables runs
through the removed ones: every removed variable may reach at most one kept
variable, and none may sit downstream of a kept variable while doing so.
Extractions that break either condition still succeed, but a warning names
the removed variables whose induced or mediated dependence was dropped.
"""

from __future__ import annotations

import warnings
from collections import deque
from typing import Iterable

from .errors import UnknownVariable, ZeroProbabilityEvidence
from .inference import posterior
from .model import BayesianNetwork, Cpt, Variable, assignment_grid


def marginal_prior(network: BayesianNetwork, variable: str) -> tuple[float, ...]:
    """Unconditional distribution of one variable.

    A parentless variable returns its prior row verbatim (no float drift);
    everything else is computed by elimination.
    """

    network.states(variable)  # an unknown variable fails here
    cpt = network.cpts[variable]
    if not cpt.parents:
        return tuple(cpt.rows[()])
    return posterior(network, variable, {})


def subset(network: BayesianNetwork, keep: Iterable[str]) -> BayesianNetwork:
    """Extract the subnetwork over ``keep``, marginalizing everything else.

    Raises :class:`UnknownVariable` for ids not in the network and
    ``ValueError`` for an empty keep set. Emits a ``UserWarning`` when the
    result is (potentially) an approximation — naming removed shared
    ancestors of several kept variables and removed mediators sitting on
    kept-to-kept paths — and when a zero-probability parent assignment
    forces a uniform fallback row.
    """

    kept = sorted(set(keep))
    if not kept:
        raise ValueError("keep set must name at least one variable")
    for vid in kept:
        if vid not in network.variables:
            raise UnknownVariable(f"unknown variable {vid!r} in keep set")
    kept_set = set(kept)

    out = BayesianNetwork(name=network.name, entity=network.entity)
    for vid in network.variables:  # preserve original declaration order
        if vid not in kept_set:
            continue
        var = network.variables[vid]
        cpt = network.cpts[vid]
        new_parents = tuple(p for p in cpt.parents if p in kept_set)
        out.variables[vid] = Variable(id=vid, name=var.name, states=var.states)
        if new_parents == cpt.parents:
            out.cpts[vid] = Cpt(variable=vid, parents=cpt.parents, rows=dict(cpt.rows))
            continue
        rows: dict[tuple[str, ...], tuple[float, ...]] = {}
        for key in assignment_grid(network, new_parents):
            constraints = {p: s for p, s in zip(new_parents, key)}
            try:
                rows[key] = posterior(network, vid, constraints)
            except ZeroProbabilityEvidence:
                k = len(var.states)
                rows[key] = tuple(1.0 / k for _ in range(k))
                warnings.warn(
                    f"subset: parent assignment {constraints!r} of {vid!r} has probability 0 "
                    "in the source network; using a uniform row",
                    stacklevel=2,
                )
        out.cpts[vid] = Cpt(variable=vid, parents=new_parents, rows=rows)

    shared, mediators = _dropped_dependence(network, kept_set)
    if shared:
        warnings.warn(
            "subset: removed variable(s) "
            + ", ".join(sorted(shared))
            + " influence several kept variables; the extracted network drops the "
            "dependence they induced and is an approximation for joint queries",
            stacklevel=2,
        )
    if mediators:
        warnings.warn(
            "subset: removed variable(s) "
            + ", ".join(sorted(mediators))
            + " lie on directed paths between kept variables; the extracted network "
            "drops the mediated dependence and is an approximation for joint queries",
            stacklevel=2,
        )
    return out


def _kept_frontier(
    children: dict[str, list[str]], kept: set[str], start: str
) -> set[str]:
    """Kept variables reachable from ``start`` through removed-only paths."""

    frontier: set[str] = set()
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for child in children[node]:
            if child in kept:
                frontier.add(child)
            elif child not in seen:
                seen.add(child)
                queue.append(child)
    return frontier


def _dropped_dependence(network: BayesianNetwork, kept: set[str]) -> tuple[set[str], set[str]]:
    """Removed variables whose dependence the extraction cannot represent.

    The first set holds shared ancestors: removed variables reaching ≥2 kept
    variables through removed-only paths. The second holds mediators: removed
    children of kept variables that still reach a kept variable, each heading
    a directed path kept -> removed ... removed -> kept.
    """

    children: dict[str, list[str]] = {v: [] for v in network.variables}
    for vid, cpt in network.cpts.items():
        for p in cpt.parents:
            children[p].append(vid)
    frontier = {v: _kept_frontier(children, kept, v) for v in network.variables if v not in kept}
    shared = {v for v, reached in frontier.items() if len(reached) >= 2}
    mediators = {c for vid in kept for c in children[vid] if c not in kept and frontier[c]}
    return shared, mediators


__all__ = ["marginal_prior", "subset"]
