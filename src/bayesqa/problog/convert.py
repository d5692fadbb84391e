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
define variables, bodies define parents, and the bodies of each variable's
clauses must partition its parent assignment grid (no overlap, no gap).
A shared entity constant is stripped from atoms back into network metadata
when every atom carries the same one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..errors import UnknownClause, UnrepresentableName, UnsupportedFragment
from ..model import BayesianNetwork, Cpt, Variable, parent_assignments, topological_order, validate
from .syntax import (
    BARE_CONSTANT,
    Atom,
    Clause,
    Evidence,
    Literal,
    ProbHead,
    ProblogProgram,
    Query,
    format_atom,
)

BINARY_STATES = ("true", "false")


# ---------------------------------------------------------------------------
# network -> program
# ---------------------------------------------------------------------------


def _predicate_for(variable_id: str) -> str:
    if not BARE_CONSTANT.match(variable_id):
        raise UnrepresentableName(
            f"variable id {variable_id!r} is not usable as a predicate "
            "(must be a lowercase identifier)"
        )
    return variable_id


def _constant_for(value: str, *, what: str) -> str:
    if value == "" or "'" in value:
        raise UnrepresentableName(f"{what} {value!r} is not representable as a program constant")
    return value


def atom_for(network: BayesianNetwork, variable: str, state: str, entity: str | None = None) -> tuple[Atom, bool]:
    """The atom encoding ``variable = state`` and whether it appears positively.

    Two-state variables encode their second state as the negated atom, so the
    returned flag is False exactly there.
    """

    ent = _constant_for(entity if entity is not None else network.entity, what="entity constant")
    pred = _predicate_for(variable)
    states = network.states(variable)
    idx = states.index(state)
    if len(states) == 2:
        return Atom(pred, (ent,)), idx == 0
    return Atom(pred, (ent, _constant_for(state, what=f"state of {variable!r}"))), True


def bn_to_problog(network: BayesianNetwork, entity: str | None = None) -> ProblogProgram:
    """Encode a validated network as a program, one clause per CPT row.

    Clauses follow the canonical variable order and row-major row order, so
    the output is deterministic.
    """

    ent = _constant_for(entity if entity is not None else network.entity, what="entity constant")
    clauses: list[Clause] = []
    for vid in topological_order(network):
        var = network.variables[vid]
        cpt = network.cpts[vid]
        pred = _predicate_for(vid)
        if len(var.states) == 2:
            heads_for = lambda dist: (ProbHead(dist[0], Atom(pred, (ent,))),)
        else:
            state_atoms = [
                Atom(pred, (ent, _constant_for(s, what=f"state of {vid!r}"))) for s in var.states
            ]
            heads_for = lambda dist: tuple(
                ProbHead(p, a) for p, a in zip(dist, state_atoms)
            )
        for key in parent_assignments(network, vid):
            body = tuple(
                _parent_literal(network, parent, state, ent)
                for parent, state in zip(cpt.parents, key)
            )
            clauses.append(Clause(heads=heads_for(cpt.rows[key]), body=body))
    return ProblogProgram(clauses=tuple(clauses))


def _parent_literal(network: BayesianNetwork, parent: str, state: str, entity: str) -> Literal:
    atom, positive = atom_for(network, parent, state, entity)
    return Literal(atom=atom, negated=not positive)


# ---------------------------------------------------------------------------
# program -> network
# ---------------------------------------------------------------------------


@dataclass
class _VarDraft:
    """A network variable being reassembled from clauses."""

    key: object  # ("atom", Atom) | ("group", pred, prefix)
    vid: str
    states: list[str]
    clause_rows: list[tuple[dict[str, frozenset[str]], dict[str, float], int]] = field(default_factory=list)
    # each: (parent constraints, state -> probability, clause index)


@dataclass
class CompiledProgram:
    """A program lowered to a Bayesian network plus atom-resolution tables."""

    network: BayesianNetwork
    binary_atoms: dict[Atom, str]
    group_vars: dict[tuple[str, tuple[str, ...]], str]

    def resolve_atom(self, atom: Atom) -> tuple[str, str]:
        """Map a positive atom to ``(variable id, state name)``."""

        if atom in self.binary_atoms:
            return self.binary_atoms[atom], BINARY_STATES[0]
        if atom.args:
            key = (atom.predicate, atom.args[:-1])
            vid = self.group_vars.get(key)
            if vid is not None and atom.args[-1] in self.network.states(vid):
                return vid, atom.args[-1]
        raise UnknownClause(f"atom {format_atom(atom)} does not match any defined atom")

    def constraint_for(self, atom: Atom, value: bool) -> tuple[str, frozenset[str]]:
        """Evidence atom -> allowed-state set (complement for false)."""

        vid, state = self.resolve_atom(atom)
        states = self.network.states(vid)
        allowed = frozenset([state]) if value else frozenset(states) - {state}
        return vid, allowed


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

    drafts: dict[object, _VarDraft] = {}
    clause_keys: list[tuple[object, dict[str, float]]] = []

    # pass 1: discover variables from heads (groups first, then lone atoms)
    for ci, clause in enumerate(program.clauses):
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
            key = ("group", first.predicate, prefix)
            if key not in drafts:
                drafts[key] = _VarDraft(key=key, vid="", states=[])

    for ci, clause in enumerate(program.clauses):
        dist: dict[str, float] = {}
        if len(clause.heads) > 1:
            key = ("group", clause.heads[0].atom.predicate, clause.heads[0].atom.args[:-1])
        else:
            atom = clause.heads[0].atom
            gkey = ("group", atom.predicate, atom.args[:-1]) if atom.args else None
            key = gkey if gkey in drafts else ("atom", atom)
            if key not in drafts:
                drafts[key] = _VarDraft(key=key, vid="", states=list(BINARY_STATES))
        draft = drafts[key]
        if key[0] == "group":
            for h in clause.heads:
                state = h.atom.args[-1]
                if state in dist:
                    raise UnsupportedFragment(
                        f"duplicate head state {state!r} in {format_atom(h.atom)}"
                    )
                dist[state] = h.probability
                if state not in draft.states:
                    draft.states.append(state)
            total = sum(dist.values())
            if abs(total - 1.0) > 1e-6:
                raise UnsupportedFragment(
                    f"head probabilities for {_key_label(key)} sum to {total!r}, not 1"
                )
        else:
            p = clause.heads[0].probability
            dist = {BINARY_STATES[0]: p, BINARY_STATES[1]: 1.0 - p}
        clause_keys.append((key, dist))

    for draft in drafts.values():
        if len(draft.states) < 2:
            raise UnsupportedFragment(
                f"{_key_label(draft.key)} has only {len(draft.states)} state(s)"
            )

    # variable ids: strip a shared entity constant when one exists
    entity = _shared_entity(drafts)
    for key, draft in drafts.items():
        draft.vid = _variable_id(key, entity)
    ids = [d.vid for d in drafts.values()]
    if len(set(ids)) != len(ids):
        dup = sorted({v for v in ids if ids.count(v) > 1})
        raise UnsupportedFragment(f"predicate(s) used inconsistently: {', '.join(dup)}")

    binary_atoms = {key[1]: d.vid for key, d in drafts.items() if key[0] == "atom"}
    group_vars = {(key[1], key[2]): d.vid for key, d in drafts.items() if key[0] == "group"}
    by_vid = {d.vid: d for d in drafts.values()}

    def resolve_literal(lit: Literal, where: str) -> tuple[str, frozenset[str]]:
        atom = lit.atom
        if atom in binary_atoms:
            vid = binary_atoms[atom]
            state = BINARY_STATES[1] if lit.negated else BINARY_STATES[0]
            return vid, frozenset([state])
        if atom.args:
            gkey = (atom.predicate, atom.args[:-1])
            vid = group_vars.get(gkey)
            if vid is not None:
                states = by_vid[vid].states
                s = atom.args[-1]
                if s not in states:
                    raise UnknownClause(
                        f"atom {format_atom(atom)} in {where} names undefined state {s!r}"
                    )
                allowed = frozenset(states) - {s} if lit.negated else frozenset([s])
                return vid, allowed
        raise UnknownClause(f"atom {format_atom(atom)} in {where} is not defined by any clause")

    # pass 2: bodies -> per-clause parent constraints
    for ci, clause in enumerate(program.clauses):
        key, dist = clause_keys[ci]
        draft = drafts[key]
        constraints: dict[str, frozenset[str]] = {}
        for lit in clause.body:
            vid, allowed = resolve_literal(lit, f"clause {ci + 1}")
            if vid in constraints:
                allowed = constraints[vid] & allowed
            constraints[vid] = allowed
        draft.clause_rows.append((constraints, dist, ci))

    # pass 3: per variable, check the bodies partition the parent grid
    net = BayesianNetwork(name=name, entity=entity or "x")
    for draft in drafts.values():
        parent_ids = sorted({p for cons, _, _ in draft.clause_rows for p in cons})
        rows: dict[tuple[str, ...], tuple[float, ...]] = {}
        parent_states = [by_vid[p].states for p in parent_ids]
        for assignment in itertools.product(*parent_states):
            covering = [
                (cons, dist, ci)
                for cons, dist, ci in draft.clause_rows
                if all(
                    assignment[parent_ids.index(p)] in allowed
                    for p, allowed in cons.items()
                )
            ]
            label = ", ".join(f"{p}={s}" for p, s in zip(parent_ids, assignment)) or "()"
            if not covering:
                raise UnsupportedFragment(
                    f"{draft.vid}: no clause covers parent assignment ({label})"
                )
            if len(covering) > 1:
                which = " and ".join(f"clause {ci + 1}" for _, _, ci in covering)
                raise UnsupportedFragment(
                    f"{draft.vid}: {which} overlap on parent assignment ({label})"
                )
            _, dist, _ = covering[0]
            rows[assignment] = tuple(dist.get(s, 0.0) for s in draft.states)
        net.variables[draft.vid] = Variable(id=draft.vid, name=draft.vid, states=tuple(draft.states))
        net.cpts[draft.vid] = Cpt(variable=draft.vid, parents=tuple(parent_ids), rows=rows)

    problems = validate(net)
    if problems:
        raise UnsupportedFragment(
            "program does not encode a valid network: " + "; ".join(str(p) for p in problems[:5])
        )
    return CompiledProgram(network=net, binary_atoms=binary_atoms, group_vars=group_vars)


def problog_to_bn(program: ProblogProgram, *, name: str = "program") -> BayesianNetwork:
    """Decode a program in the fragment into a Bayesian network."""

    return compile_program(program, name=name).network


def _key_label(key: object) -> str:
    if key[0] == "atom":  # type: ignore[index]
        return format_atom(key[1])  # type: ignore[index]
    _, pred, prefix = key  # type: ignore[misc]
    return f"{pred}({','.join(prefix)},_)" if prefix else f"{pred}(_)"


def _shared_entity(drafts: dict[object, _VarDraft]) -> str | None:
    """The single constant shared by every atom, if ids can be simplified."""

    entities: set[str] = set()
    for key in drafts:
        if key[0] == "atom":
            args = key[1].args
        else:
            args = key[2]
        if len(args) > 1:
            return None
        if len(args) == 1:
            entities.add(args[0])
    if len(entities) == 1:
        return next(iter(entities))
    return None


def _variable_id(key: object, entity: str | None) -> str:
    if key[0] == "atom":
        atom: Atom = key[1]  # type: ignore[assignment]
        if entity is not None and atom.args == (entity,):
            return atom.predicate
        if not atom.args:
            return atom.predicate
        return format_atom(atom)
    _, pred, prefix = key  # type: ignore[misc]
    if entity is not None and prefix == (entity,):
        return pred
    if not prefix:
        return pred
    return format_atom(Atom(pred, prefix))
