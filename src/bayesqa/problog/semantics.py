"""Query answering for programs: network-backed evaluation and an
independent possible-world enumerator.

:func:`evaluate` lowers the program to a Bayesian network and conditions on
the evidence (``false`` evidence on an annotated-disjunction head becomes the
complement state set). :func:`enumerate_worlds` never builds a network: it
walks every total choice over the probabilistic clauses, computes that
world's minimal model under stratified negation, and accumulates the
distribution-semantics sums directly. The two must agree on the supported
fragment, which makes the enumerator the oracle for the translation.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from ..errors import (
    EnumerationBoundExceeded,
    UnstratifiedNegation,
    ZeroProbabilityEvidence,
)
from ..inference import constrained_sweep, posterior
from .convert import compile_program
from .syntax import Atom, ProblogProgram, format_atom

MAX_CHOICE_POINTS = 20


def evaluate(program: ProblogProgram, *, method: str = "enumeration") -> dict[Atom, float]:
    """Answer every ``query/1`` under the program's ``evidence/2``.

    ``method`` selects the network engine: ``"enumeration"`` (a single sweep
    that scores all queries at once) or ``"elimination"``.
    """

    if method not in ("enumeration", "elimination"):
        raise ValueError(f"unknown method {method!r}")
    compiled = compile_program(program)
    net = compiled.network

    constraints = compiled.conjunction((ev.atom, ev.value) for ev in program.evidence)
    targets = [compiled.resolve_atom(q.atom) for q in program.queries]

    if method == "enumeration":
        den, nums = constrained_sweep(net, constraints, targets)
        if den == 0.0:
            raise ZeroProbabilityEvidence(
                f"evidence {[format_atom(e.atom) for e in program.evidence]} has probability 0"
            )
        return {q.atom: num / den for q, num in zip(program.queries, nums)}

    return {
        q.atom: posterior(net, vid, constraints)[net.states(vid).index(state)]
        for q, (vid, state) in zip(program.queries, targets)
    }


# ---------------------------------------------------------------------------
# possible-world enumeration
# ---------------------------------------------------------------------------


def enumerate_worlds(
    program: ProblogProgram, *, max_choices: int = MAX_CHOICE_POINTS
) -> dict[Atom, float]:
    """Distribution semantics by brute force.

    Every clause contributes one choice: one of its heads, or "no head" when
    the annotation mass falls short of 1. A world is the minimal model of the
    chosen heads' rules, computed stratum by stratum so ``not`` always
    consults finished strata. Worlds inconsistent with the evidence are
    dropped; query probabilities are evidence-conditional sums of world
    probabilities.

    Zero-probability alternatives are pruned, and clauses with a single
    surviving alternative do not count against ``max_choices``.
    """

    choices: list[list[tuple[Atom | None, float]]] = []
    for clause in program.clauses:
        alts: list[tuple[Atom | None, float]] = [
            (h.atom, h.probability) for h in clause.heads if h.probability > 0.0
        ]
        leftover = 1.0 - sum(h.probability for h in clause.heads)
        if leftover > 1e-9:
            alts.append((None, leftover))
        if not alts:  # all heads impossible and no leftover: mass sits at "none"
            alts.append((None, 1.0))
        choices.append(alts)

    live = sum(1 for alts in choices if len(alts) > 1)
    if live > max_choices:
        raise EnumerationBoundExceeded(
            f"program has {live} choice points, more than the bound of {max_choices}"
        )

    stratum = _stratify(program)
    n_strata = 1 + max(stratum.values(), default=0)
    bodies = [tuple((l.atom, l.negated) for l in clause.body) for clause in program.clauses]

    den = 0.0
    nums = [0.0 for _ in program.queries]
    query_atoms = [q.atom for q in program.queries]
    evidence = [(e.atom, e.value) for e in program.evidence]

    for combo in itertools.product(*choices):
        wp = 1.0
        for _, p in combo:
            wp *= p
        truth = _minimal_model(combo, bodies, stratum, n_strata)
        if any((atom in truth) != value for atom, value in evidence):
            continue
        den += wp
        for k, qa in enumerate(query_atoms):
            if qa in truth:
                nums[k] += wp

    if den == 0.0:
        raise ZeroProbabilityEvidence(
            f"evidence {[format_atom(a) for a, _ in evidence]} has probability 0"
        )
    return {qa: num / den for qa, num in zip(query_atoms, nums)}


def _minimal_model(
    combo: Iterable[tuple[Atom | None, float]],
    bodies: list[tuple[tuple[Atom, bool], ...]],
    stratum: dict[Atom, int],
    n_strata: int,
) -> set[Atom]:
    pending: list[list[int]] = [[] for _ in range(n_strata)]
    heads: list[Atom | None] = []
    for ci, (atom, _) in enumerate(combo):
        heads.append(atom)
        if atom is not None:
            pending[stratum[atom]].append(ci)

    truth: set[Atom] = set()
    for level in pending:
        changed = True
        while changed:
            changed = False
            for ci in level:
                head = heads[ci]
                if head in truth:
                    continue
                ok = True
                for atom, negated in bodies[ci]:
                    if (atom in truth) == negated:
                        ok = False
                        break
                if ok:
                    truth.add(head)  # type: ignore[arg-type]
                    changed = True
    return truth


def _stratify(program: ProblogProgram) -> dict[Atom, int]:
    """Stratum index per atom; raises on negation inside a dependency cycle."""

    atoms: set[Atom] = set()
    edges: list[tuple[Atom, Atom, bool]] = []  # (body atom, head atom, negated)
    for clause in program.clauses:
        for h in clause.heads:
            atoms.add(h.atom)
        for lit in clause.body:
            atoms.add(lit.atom)
            for h in clause.heads:
                edges.append((lit.atom, h.atom, lit.negated))
    for e in program.evidence:
        atoms.add(e.atom)
    for q in program.queries:
        atoms.add(q.atom)

    order = sorted(atoms, key=format_atom)
    index = {a: i for i, a in enumerate(order)}
    succ: list[list[int]] = [[] for _ in order]
    for src, dst, _ in edges:
        succ[index[src]].append(index[dst])

    comp = _tarjan_scc(succ)
    for src, dst, negated in edges:
        if negated and comp[index[src]] == comp[index[dst]]:
            raise UnstratifiedNegation(
                f"negation of {format_atom(src)} occurs inside a cycle through {format_atom(dst)}"
            )

    # Tarjan emits components in reverse topological order, so invert.
    n_comp = 1 + max(comp, default=0)
    return {a: n_comp - 1 - comp[index[a]] for a in order}


def _tarjan_scc(succ: list[list[int]]) -> list[int]:
    """Iterative Tarjan; returns component index per node (reverse topo order)."""

    n = len(succ)
    index_of = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comp = [-1] * n
    counter = 0
    n_comp = 0

    for root in range(n):
        if index_of[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            node, ei = work[-1]
            if ei == 0:
                index_of[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            while ei < len(succ[node]):
                nxt = succ[node][ei]
                ei += 1
                if index_of[nxt] == -1:
                    work[-1] = (node, ei)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], index_of[nxt])
            if advanced:
                continue
            work.pop()
            if low[node] == index_of[node]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = n_comp
                    if w == node:
                        break
                n_comp += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return comp
