"""Translation between Bayesian networks and the logic-program fragment.

Encoding (network → program), one statement per CPT row:

* a two-state variable becomes a single head atom ``pred(entity)``; the row's
  first-state probability annotates the head, the second state is the atom's
  negation
* a variable with three or more states becomes an annotated disjunction
  ``p1::pred(entity,s1); ...; pk::pred(entity,sk)`` over its states
* the row's parent assignment becomes the body: positive/negated literals for
  two-state parents, state-constant literals for wider parents

Decoding inverts this, accepting any program in the fragment: head groups
define variables, bodies define parents in first-named order, and each
variable's bodies must partition its parent assignment grid (no overlap, no
gap; the first bad cell in row-major order is reported). One atom table, built
from the head atoms, maps each atom to ``(variable id, state)``; body
literals, evidence and queries all resolve through it. A shared entity
constant is stripped from atoms back into network metadata when every atom
carries the same one.

Names are not checked here: variable ids become predicates and states and the
entity become constants as they are, and :mod:`.syntax` refuses what it cannot
write when the program is serialized.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Container, Iterable

from ..errors import NetworkFormatError, UnknownClause, UnsupportedFragment
from ..inference import compile_network
from ..model import (
    ROW_SUM_TOLERANCE,
    BayesianNetwork,
    Cpt,
    Variable,
    _row_label,
    assignment_grid,
    state_index,
    topological_order,
)
from .syntax import Atom, Clause, Literal, ProbHead, ProblogProgram, format_atom

BINARY_STATES = ("true", "false")


# ---------------------------------------------------------------------------
# network -> program
# ---------------------------------------------------------------------------


def atom_for(network: BayesianNetwork, variable: str, state: str, entity: str | None = None) -> tuple[Atom, bool]:
    """The atom encoding ``variable = state`` and whether it appears positively.

    Two-state variables encode their second state as the negated atom, so the
    returned flag is False exactly there.
    """

    ent = entity if entity is not None else network.entity
    states = network.states(variable)
    idx = state_index(network, variable, state)
    if len(states) == 2:
        return Atom(variable, (ent,)), idx == 0
    return Atom(variable, (ent, state)), True


def bn_to_problog(network: BayesianNetwork, entity: str | None = None) -> ProblogProgram:
    """Encode a validated network as a program, one clause per CPT row.

    Clauses follow the canonical variable order and row-major row order, so
    the output is deterministic. Names are not checked: a network whose
    variable id is not a lowercase identifier (``Upper``), or whose state or
    entity holds a quote or a newline, still gives a program that
    :func:`~bayesqa.problog.semantics.evaluate` answers in memory; writing
    it (``serialize``, ``dataset.NetworkEncoder``) raises
    :class:`UnrepresentableName`.
    """

    clauses: list[Clause] = []
    for vid in topological_order(network):
        states = network.states(vid)
        if len(states) == 2:
            states = states[:1]  # the second state is the negated head atom
        head_atoms = [atom_for(network, vid, s, entity)[0] for s in states]
        cpt = network.cpts[vid]
        for key in assignment_grid(network, cpt.parents):
            literals = [atom_for(network, parent, state, entity) for parent, state in zip(cpt.parents, key)]
            body = tuple(Literal(atom, negated=not positive) for atom, positive in literals)
            heads = tuple(ProbHead(p, a) for p, a in zip(cpt.rows[key], head_atoms))
            clauses.append(Clause(heads=heads, body=body))
    return ProblogProgram(clauses=tuple(clauses))


# ---------------------------------------------------------------------------
# program -> network
# ---------------------------------------------------------------------------

# A variable is keyed by its binary head atom, or by the (predicate, argument
# prefix) its annotated-disjunction heads share.
_VarKey = Atom | tuple[str, tuple[str, ...]]


@dataclass
class CompiledProgram:
    """A program lowered to a Bayesian network plus its atom table: every head
    atom mapped to ``(variable id, the state the atom asserts)``."""

    network: BayesianNetwork
    atoms: dict[Atom, tuple[str, str]]

    def resolve_atom(self, atom: Atom) -> tuple[str, str]:
        """Map a positive atom to ``(variable id, state name)``."""

        try:
            return self.atoms[atom]
        except KeyError:
            raise UnknownClause(f"atom {format_atom(atom)} does not match any defined atom") from None

    def constraint_for(self, atom: Atom, value: bool) -> tuple[str, frozenset[str]]:
        """Evidence atom -> allowed-state set (complement for false)."""

        vid, state = self.resolve_atom(atom)
        if value:
            return vid, frozenset((state,))
        return vid, frozenset(self.network.states(vid)) - {state}

    def conjunction(self, literals: Iterable[tuple[Atom, bool]]) -> dict[str, frozenset[str]]:
        """The allowed states per variable under every ``(atom, value)``,
        variables in first-seen order: a clause body, or a program's evidence."""

        out: dict[str, frozenset[str]] = {}
        for atom, value in literals:
            vid, allowed = self.constraint_for(atom, value)
            out[vid] = out[vid] & allowed if vid in out else allowed
        return out


def compile_program(program: ProblogProgram, *, name: str = "program") -> CompiledProgram:
    """Lower a program in the fragment to a network; the workhorse behind
    :func:`problog_to_bn` and query evaluation.

    Raises :class:`UnsupportedFragment` for programs outside the encoding
    (head mass ≠ 1, overlapping or non-exhaustive bodies, cyclic dependencies,
    inconsistent annotated-disjunction heads) and :class:`UnknownClause` for
    body atoms that no clause defines.
    """

    if not program.clauses:
        raise UnsupportedFragment("program defines no clauses")

    # pass 1: variables from heads, annotated disjunctions first so that a
    # lone head of the same predicate and prefix joins its group
    states: dict[_VarKey, list[str]] = {}
    for clause in program.clauses:
        if len(clause.heads) > 1:
            first = clause.heads[0].atom
            if not first.args:
                raise UnsupportedFragment(
                    f"annotated disjunction over zero-argument atom {format_atom(first)}"
                )
            prefix = first.args[:-1]
            for h in clause.heads[1:]:
                if h.atom.predicate != first.predicate or h.atom.args[:-1] != prefix:
                    raise UnsupportedFragment(
                        "annotated disjunction mixes atoms "
                        f"{format_atom(first)} and {format_atom(h.atom)}"
                    )
            states.setdefault((first.predicate, prefix), [])

    heads: dict[Atom, tuple[_VarKey, str]] = {}
    clause_keys: list[tuple[_VarKey, dict[str, float]]] = []
    for clause in program.clauses:
        atom = clause.heads[0].atom
        group = (atom.predicate, atom.args[:-1]) if atom.args else None
        if group in states:
            key: _VarKey = group
            dist: dict[str, float] = {}
            for h in clause.heads:
                state = h.atom.args[-1]
                if state in dist:
                    raise UnsupportedFragment(
                        f"duplicate head state {state!r} in {format_atom(h.atom)}"
                    )
                dist[state] = h.probability
                if h.atom not in heads:
                    heads[h.atom] = (key, state)
                    states[key].append(state)
            total = sum(dist.values())
            if abs(total - 1.0) > ROW_SUM_TOLERANCE:
                pred, prefix = group
                label = f"{pred}({','.join(prefix)},_)" if prefix else f"{pred}(_)"
                raise UnsupportedFragment(f"head probabilities for {label} sum to {total!r}, not 1")
        else:
            key = atom
            if key not in states:
                states[key] = list(BINARY_STATES)
                heads[atom] = (key, BINARY_STATES[0])
            p = clause.heads[0].probability
            dist = {BINARY_STATES[0]: p, BINARY_STATES[1]: 1.0 - p}
        clause_keys.append((key, dist))

    # variable ids: strip a shared entity constant when one exists
    entity = _shared_entity(states)
    ids = {key: _variable_id(key, entity) for key in states}
    if len(set(ids.values())) < len(ids):
        dup = sorted(v for v, n in Counter(ids.values()).items() if n > 1)
        raise UnsupportedFragment(f"predicate(s) used inconsistently: {', '.join(dup)}")

    net = BayesianNetwork(name=name, entity=entity or "x")
    for key, vid in ids.items():
        net.variables[vid] = Variable(id=vid, name=vid, states=tuple(states[key]))
    compiled = CompiledProgram(network=net, atoms={a: (ids[k], s) for a, (k, s) in heads.items()})

    # pass 2: bodies -> per-clause parent constraints and CPT row
    clause_rows: dict[_VarKey, list[tuple[int, dict[str, frozenset[str]], tuple[float, ...]]]] = {
        key: [] for key in states
    }
    for ci, (clause, (key, dist)) in enumerate(zip(program.clauses, clause_keys)):
        try:
            constraints = compiled.conjunction((lit.atom, not lit.negated) for lit in clause.body)
        except UnknownClause:
            atom = next(lit.atom for lit in clause.body if lit.atom not in compiled.atoms)
            raise undefined_body_atom(atom, ci + 1, states) from None
        clause_rows[key].append((ci, constraints, tuple(dist.get(s, 0.0) for s in states[key])))

    # pass 3: per variable, the bodies must partition the parent grid
    for key, vid in ids.items():
        net.cpts[vid] = _partition(net, vid, clause_rows[key])

    # the passes above enforce every other invariant of model.validate;
    # compiling orders the variables, which is the check for cycles, and the
    # network keeps its compiled form for the engines
    try:
        compile_network(net)
    except NetworkFormatError as exc:
        raise UnsupportedFragment(f"program does not encode a valid network: [cycle] network: {exc}") from None
    return compiled


def undefined_body_atom(atom: Atom, clause_no: int, groups: Container[object]) -> UnknownClause:
    """The one wording, for every solve method, of a body atom that no head
    defines; ``groups`` holds the ``(predicate, args[:-1])`` of each
    annotated disjunction, whose unknown last argument is an undefined state."""

    if atom.args and (atom.predicate, atom.args[:-1]) in groups:
        problem = f"names undefined state {atom.args[-1]!r}"
    else:
        problem = "is not defined by any clause"
    return UnknownClause(f"atom {format_atom(atom)} in clause {clause_no} {problem}")


def _partition(
    network: BayesianNetwork,
    vid: str,
    clause_rows: list[tuple[int, dict[str, frozenset[str]], tuple[float, ...]]],
) -> Cpt:
    """The CPT of ``vid`` when its clause bodies cover every parent assignment
    exactly once; otherwise the first bad assignment in row-major order is
    reported."""

    parent_ids = tuple(dict.fromkeys(p for _, cons, _ in clause_rows for p in cons))
    cover: dict[tuple[str, ...], list[int]] = {}
    for k, (_, cons, _) in enumerate(clause_rows):
        for cell in itertools.product(*(cons[p] if p in cons else network.states(p) for p in parent_ids)):
            cover.setdefault(cell, []).append(k)
    rows: dict[tuple[str, ...], tuple[float, ...]] = {}
    for cell in assignment_grid(network, parent_ids):
        hits = cover.get(cell, ())
        if len(hits) != 1:
            label = _row_label(parent_ids, cell)
            if not hits:
                raise UnsupportedFragment(f"{vid}: no clause covers parent assignment {label}")
            which = " and ".join(f"clause {clause_rows[k][0] + 1}" for k in hits)
            raise UnsupportedFragment(f"{vid}: {which} overlap on parent assignment {label}")
        rows[cell] = clause_rows[hits[0]][2]
    return Cpt(variable=vid, parents=parent_ids, rows=rows)


def problog_to_bn(program: ProblogProgram, *, name: str = "program") -> BayesianNetwork:
    """Decode a program in the fragment into a Bayesian network."""

    return compile_program(program, name=name).network


def _key_parts(key: _VarKey) -> tuple[str, tuple[str, ...]]:
    return (key.predicate, key.args) if isinstance(key, Atom) else key


def _shared_entity(keys: Iterable[_VarKey]) -> str | None:
    """The single constant shared by every atom, if ids can be simplified."""

    entities: set[str] = set()
    for key in keys:
        _, args = _key_parts(key)
        if len(args) > 1:
            return None
        entities.update(args)
    if len(entities) == 1:
        return next(iter(entities))
    return None


def _variable_id(key: _VarKey, entity: str | None) -> str:
    pred, args = _key_parts(key)
    if args in ((), (entity,)):
        return pred
    return format_atom(Atom(pred, args))
