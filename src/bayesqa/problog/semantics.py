"""Query answering for programs: network-backed evaluation and an
independent possible-world enumerator.

:func:`evaluate` lowers the program to a Bayesian network and conditions on
the evidence (``false`` evidence on an annotated-disjunction head becomes the
complement state set). :func:`enumerate_worlds` never builds a network: it
assigns each clause a stratification level once per program, then walks
every total choice over the probabilistic clauses, computes that world's
perfect model level by level, and accumulates the distribution-semantics
sums directly. The two must agree on the supported fragment, which makes the
enumerator the oracle for the translation.
"""

from __future__ import annotations

import itertools
import math

from .. import inference
from ..errors import (
    EnumerationBoundExceeded,
    UnknownClause,
    UnstratifiedNegation,
    UnsupportedFragment,
    ZeroProbabilityEvidence,
)
from ..inference import _conditionals, constrained_sweep, posterior
from .convert import compile_program, undefined_body_atom
from .syntax import Atom, ProblogProgram, format_atom, validate_program


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
        probabilities = _conditionals(constraints, *constrained_sweep(net, constraints, targets))
        return {q.atom: p for q, p in zip(program.queries, probabilities)}

    return {
        q.atom: posterior(net, vid, constraints)[net.states(vid).index(state)]
        for q, (vid, state) in zip(program.queries, targets)
    }


# ---------------------------------------------------------------------------
# possible-world enumeration
# ---------------------------------------------------------------------------


def enumerate_worlds(program: ProblogProgram) -> dict[Atom, float]:
    """Distribution semantics by brute force.

    Every clause contributes one choice: one of its heads, or "no head" when
    the annotation mass falls short of 1. A world is the perfect model of the
    chosen heads' rules. Clause levels are fixed once per program, so that a
    clause sits above every clause defining an atom it negates; each world
    fires its rules level by level to a fixpoint, and ``not`` only consults
    finished levels. Worlds inconsistent with the evidence are dropped; query
    probabilities are evidence-conditional sums of world probabilities.
    Raises :class:`UnstratifiedNegation` when negation sits inside a cycle,
    :class:`UnsupportedFragment` when a clause's heads sum above 1,
    :class:`UnknownClause` (in the decoder's words) for an atom no head
    defines, and, before the first world, :class:`EnumerationBoundExceeded`
    when the worlds (the product of the clauses' nonzero alternatives)
    outnumber ``inference.MAX_JOINT_STATES``, read at call time.
    """

    problems = validate_program(program)
    if problems:
        raise UnsupportedFragment(problems[0])
    defined = {h.atom for clause in program.clauses for h in clause.heads}
    groups = {
        (h.atom.predicate, h.atom.args[:-1]) for c in program.clauses if len(c.heads) > 1 for h in c.heads if h.atom.args
    }
    for ci, clause in enumerate(program.clauses):
        for lit in clause.body:
            if lit.atom not in defined:
                raise undefined_body_atom(lit.atom, ci + 1, groups)
    for atom in [e.atom for e in program.evidence] + [q.atom for q in program.queries]:
        if atom not in defined:
            raise UnknownClause(f"atom {format_atom(atom)} does not match any defined atom")

    choices: list[list[tuple[Atom | None, float]]] = []
    for clause in program.clauses:
        alts: list[tuple[Atom | None, float]] = [
            (h.atom, h.probability) for h in clause.heads if h.probability > 0.0
        ]
        leftover = 1.0 - sum(h.probability for h in clause.heads)
        if leftover > 1e-9:
            alts.append((None, leftover))
        choices.append(alts)

    worlds = math.prod(len(alts) for alts in choices)
    if worlds > inference.MAX_JOINT_STATES:
        raise EnumerationBoundExceeded(
            f"program has {worlds} possible worlds, more than the bound of {inference.MAX_JOINT_STATES}"
        )

    strata = _clause_strata(program)
    bodies = [tuple((l.atom, l.negated) for l in clause.body) for clause in program.clauses]

    den = 0.0
    nums = [0.0 for _ in program.queries]
    query_atoms = [q.atom for q in program.queries]
    evidence = [(e.atom, e.value) for e in program.evidence]

    for combo in itertools.product(*choices):
        wp = 1.0
        for _, p in combo:
            wp *= p
        truth = _minimal_model([atom for atom, _ in combo], bodies, strata)
        if any((atom in truth) != value for atom, value in evidence):
            continue
        den += wp
        for k, qa in enumerate(query_atoms):
            if qa in truth:
                nums[k] += wp

    if den == 0.0:
        shown = [f"{format_atom(a)}={'true' if v else 'false'}" for a, v in evidence]
        raise ZeroProbabilityEvidence(f"evidence {shown} has probability 0")
    return {qa: num / den for qa, num in zip(query_atoms, nums)}


def _minimal_model(
    heads: list[Atom | None],
    bodies: list[tuple[tuple[Atom, bool], ...]],
    strata: list[list[int]],
) -> set[Atom]:
    """Fire the chosen heads' rules level by level, each level to a fixpoint."""

    truth: set[Atom] = set()
    for level in strata:
        changed = True
        while changed:
            changed = False
            for ci in level:
                head = heads[ci]
                if head is None or head in truth:
                    continue
                for atom, negated in bodies[ci]:
                    if (atom in truth) == negated:
                        break
                else:
                    truth.add(head)
                    changed = True
    return truth


def _clause_strata(program: ProblogProgram) -> list[list[int]]:
    """Clause indices grouped by level, lowest first (Apt, Blair & Walker 1988).

    A clause's level is at least that of every clause defining one of its
    positive body atoms, and above that of every clause defining one of its
    negated ones. Levels past the number of clauses mean a negative cycle.
    """

    defined_by: dict[Atom, list[int]] = {}
    for ci, clause in enumerate(program.clauses):
        for h in clause.heads:
            defined_by.setdefault(h.atom, []).append(ci)
    deps = [
        [(d, lit.negated) for lit in clause.body for d in defined_by[lit.atom]]
        for clause in program.clauses
    ]
    level = [0] * len(deps)
    changed = True
    while changed:
        changed = False
        for ci, dep in enumerate(deps):
            need = max((level[d] + negated for d, negated in dep), default=0)
            if need > level[ci]:
                if need > len(deps):
                    raise _negative_cycle(program)
                level[ci] = need
                changed = True
    return [[ci for ci, lv in enumerate(level) if lv == k] for k in sorted(set(level))]


def _negative_cycle(program: ProblogProgram) -> UnstratifiedNegation:
    """Name the first negated body literal, in clause order, that its own
    clause's head reaches back through the body-to-head dependencies."""

    succ: dict[Atom, set[Atom]] = {}
    for clause in program.clauses:
        for lit in clause.body:
            succ.setdefault(lit.atom, set()).update(h.atom for h in clause.heads)
    for clause in program.clauses:
        for lit, h in itertools.product([l for l in clause.body if l.negated], clause.heads):
            reach = {h.atom}
            while more := set().union(*(succ.get(a, ()) for a in reach)) - reach:
                reach |= more
            if lit.atom in reach:
                return UnstratifiedNegation(
                    f"negation of {format_atom(lit.atom)} occurs inside a cycle through {format_atom(h.atom)}"
                )
    raise AssertionError("clause levels diverged without a negative cycle")
