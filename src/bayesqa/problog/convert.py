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
gap; the first bad cell in row-major order is reported). The decoder works on
numbers: each head atom becomes a (variable, state) pair of indices, and each
body literal a (parent, mask of allowed state indices) pair, each resolved
once per distinct atom or literal in tables keyed by the nodes themselves.
When a variable's bodies are exactly the cells of its parent grid, one state
per parent in the first body's order, as an encoded network's are, they are
looked up as the grid's keys; otherwise each body's cells are listed as ints
(row-major offset and body position), after counting them against
``MAX_FACTOR_ENTRIES``, and the sorted list is walked in row-major order up to
its first bad cell. The atom table returned maps each head atom to
``(variable id, state)``, and evidence and queries resolve through it. A
shared entity constant is stripped from atoms back into network metadata
when every atom carries the same one.

Names are not checked here: variable ids become predicates and states and the
entity become constants as they are, and :mod:`.syntax` refuses what it cannot
write when the program is serialized.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Container, Iterable

import numpy as np

from ..errors import NetworkFormatError, UnknownClause, UnsupportedFragment
from ..inference import MAX_FACTOR_ENTRIES, compile_network
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
    literals: dict[str, dict[str, Literal]] = {}  # one per (variable, state), shared by every row
    for vid in topological_order(network):
        states = network.states(vid)
        encoded = [atom_for(network, vid, s, entity) for s in states]
        literals[vid] = {s: Literal(atom, negated=not positive) for s, (atom, positive) in zip(states, encoded)}
        if len(states) == 2:
            states = states[:1]  # the second state is the negated head atom
        head_atoms = [literals[vid][s].atom for s in states]
        cpt = network.cpts[vid]
        for key in assignment_grid(network, cpt.parents):
            body = tuple([literals[parent][state] for parent, state in zip(cpt.parents, key)])
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
        """The allowed states per variable under every ``(atom, value)`` of a
        program's evidence, variables in first-seen order."""

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

    # pass 1: annotated-disjunction groups, numbered first, so that a lone
    # head of the same predicate and prefix joins its group
    groups: dict[tuple[str, tuple[str, ...]], int] = {}
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
            groups.setdefault((first.predicate, prefix), len(groups))
    keys: list[_VarKey] = list(groups)
    names: list[list[str]] = [[] for _ in keys]

    # pass 2: heads. Each head atom is a (variable, state) pair of indices,
    # defined by the first head that names it
    heads: dict[Atom, tuple[int, int]] = {}

    def define(atom: Atom) -> tuple[int, int]:
        group = groups.get((atom.predicate, atom.args[:-1])) if atom.args else None
        if group is None:
            got = heads[atom] = (len(names), 0)
            keys.append(atom)
            names.append(list(BINARY_STATES))
        else:
            got = heads[atom] = (group, len(names[group]))
            names[group].append(atom.args[-1])
        return got

    clause_heads: list[tuple[int, tuple[float, ...] | dict[int, float]]] = []
    for clause in program.clauses:
        var, _ = heads.get(clause.heads[0].atom) or define(clause.heads[0].atom)
        if var < len(groups):
            dist: dict[int, float] = {}
            for h in clause.heads:
                _, state = heads.get(h.atom) or define(h.atom)
                if state in dist:
                    raise UnsupportedFragment(
                        f"duplicate head state {h.atom.args[-1]!r} in {format_atom(h.atom)}"
                    )
                dist[state] = h.probability
            total = sum(dist.values())
            if abs(total - 1.0) > ROW_SUM_TOLERANCE:
                pred, prefix = keys[var]
                label = f"{pred}({','.join(prefix)},_)" if prefix else f"{pred}(_)"
                raise UnsupportedFragment(f"head probabilities for {label} sum to {total!r}, not 1")
            clause_heads.append((var, dist))
        else:
            p = clause.heads[0].probability
            clause_heads.append((var, (p, 1.0 - p)))

    # variable ids: strip a shared entity constant when one exists
    entity = _shared_entity(keys)
    vids = [_variable_id(key, entity) for key in keys]
    if len(set(vids)) < len(vids):
        dup = sorted(v for v, n in Counter(vids).items() if n > 1)
        raise UnsupportedFragment(f"predicate(s) used inconsistently: {', '.join(dup)}")

    net = BayesianNetwork(name=name, entity=entity or "x")
    states = [tuple(s) for s in names]
    for vid, var_states in zip(vids, states):
        net.variables[vid] = Variable(id=vid, name=vid, states=var_states)
    compiled = CompiledProgram(network=net, atoms={a: (vids[v], states[v][s]) for a, (v, s) in heads.items()})

    # pass 3: each body literal becomes (parent, mask of its allowed state
    # indices), resolved once per distinct literal
    full = [(1 << len(s)) - 1 for s in states]
    literals: dict[Literal, tuple[int, int]] = {}

    def resolve(lit: Literal, clause_no: int) -> tuple[int, int]:
        resolved = heads.get(lit.atom)
        if resolved is None:
            raise undefined_body_atom(lit.atom, clause_no, groups)
        parent, state = resolved
        got = literals[lit] = (parent, full[parent] ^ (1 << state) if lit.negated else 1 << state)
        return got

    clause_rows: list[list[tuple[int, tuple[tuple[int, int], ...], tuple[float, ...]]]] = [[] for _ in keys]
    for ci, (clause, (var, dist)) in enumerate(zip(program.clauses, clause_heads)):
        body = tuple(map(literals.get, clause.body))
        if None in body:
            body = tuple([literals.get(lit) or resolve(lit, ci + 1) for lit in clause.body])
        if isinstance(dist, dict):
            row = [0.0] * len(states[var])
            for state, p in dist.items():
                row[state] = p
            dist = tuple(row)
        clause_rows[var].append((ci, body, dist))

    # pass 4: per variable, the bodies must partition the parent grid
    for var, rows in enumerate(clause_rows):
        net.cpts[vids[var]] = _partition(vids, states, var, rows)

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
    vids: list[str],
    states: list[tuple[str, ...]],
    var: int,
    clause_rows: list[tuple[int, tuple[tuple[int, int], ...], tuple[float, ...]]],
) -> Cpt:
    """The CPT of variable ``var`` when its clause bodies cover every cell of
    its parent grid exactly once; otherwise the first bad cell in row-major
    order is reported (:func:`_count_cover`).

    A body is a tuple of ``(parent, allowed-state mask)`` pairs. In the
    program that :func:`bn_to_problog` writes, each body is one cell of the
    grid spelled as such pairs, one state per parent, in the first body's
    parent order; such bodies are looked up as the cells' keys."""

    bodies = [body for _, body, _ in clause_rows]
    parents = tuple([p for p, _ in bodies[0]])
    size = 1
    for p in parents:
        size *= len(states[p])
    owner: list[int] | None = None
    if size == len(bodies) and len(set(parents)) == len(parents):
        # as many bodies as cells, and every cell a body: each body is a
        # different cell
        owners = dict(zip(bodies, range(size)))
        grid = itertools.product(*[[(p, 1 << i) for i in range(len(states[p]))] for p in parents])
        owner = list(map(owners.get, grid))
        if None in owner:
            owner = None
    if owner is None:
        parents, owner = _count_cover(vids, states, var, clause_rows)
    rows = [clause_rows[k][2] for k in owner]
    cells = itertools.product(*[states[p] for p in parents])
    return Cpt(variable=vids[var], parents=tuple([vids[p] for p in parents]), rows=dict(zip(cells, rows)))


def _count_cover(
    vids: list[str],
    states: list[tuple[str, ...]],
    var: int,
    clause_rows: list[tuple[int, tuple[tuple[int, int], ...], tuple[float, ...]]],
) -> tuple[tuple[int, ...], list[int]]:
    """The parents of variable ``var``, in the order its bodies first name
    them, and for each cell of their grid in row-major order the position in
    ``clause_rows`` of the one clause whose body covers it; raises for the
    first cell that no clause or several clauses cover.

    Each cell a body covers is listed as one int, its row-major offset times
    the number of bodies plus the body's position, so that sorting the list
    orders it by cell and then by body. The list is one preallocated int64
    array (of Python ints when a code could pass int64's range). The bodies'
    cells are counted before any is listed, and more than
    :data:`~bayesqa.inference.MAX_FACTOR_ENTRIES` are refused: no engine
    holds a table that large. The walk stops at the
    first bad cell, so it visits at most one more cell than the bodies
    cover."""

    allowed: list[dict[int, int]] = []
    for _, body, _ in clause_rows:
        masks: dict[int, int] = {}
        for p, mask in body:
            masks[p] = masks[p] & mask if p in masks else mask
        allowed.append(masks)
    parents = tuple(dict.fromkeys(p for masks in allowed for p in masks))
    sizes = [len(states[p]) for p in parents]
    bodies = len(clause_rows)
    strides = [bodies * math.prod(sizes[k + 1 :]) for k in range(len(sizes))]
    # per body and parent, what each allowed state adds to a cell's code; a
    # parent the body does not name keeps every state (mask -1)
    steps = [
        [[i * stride for i in range(n) if masks.get(p, -1) >> i & 1] for p, n, stride in zip(parents, sizes, strides)]
        for masks in allowed
    ]
    listed = sum(math.prod(map(len, body)) for body in steps)
    if listed > MAX_FACTOR_ENTRIES:
        raise UnsupportedFragment(
            f"{vids[var]}: clause bodies cover {listed} parent assignments, more than the bound of {MAX_FACTOR_ENTRIES}"
        )
    codes = np.fromiter(
        itertools.chain.from_iterable(map(sum, itertools.product([k], *body)) for k, body in enumerate(steps)),
        np.int64 if math.prod(sizes) * bodies <= 2**63 else object,
        count=listed,
    )
    codes.sort()
    # each cell before the first bad one holds one position, its own offset
    wrong = codes // bodies != np.arange(listed)
    j = int(wrong.argmax()) if wrong.any() else listed
    if j == listed == math.prod(sizes):
        return parents, (codes % bodies).tolist()
    # codes[j] is cell j - 1 again (an overlap) or a cell after j (a gap)
    bad = min(j, int(codes[j]) // bodies) if j < listed else j
    hits = [code % bodies for code in codes[bad : bad + bodies].tolist() if code // bodies == bad]
    cell = tuple(states[p][bad * bodies // stride % n] for p, stride, n in zip(parents, strides, sizes))
    label = _row_label([vids[p] for p in parents], cell)
    if not hits:
        raise UnsupportedFragment(f"{vids[var]}: no clause covers parent assignment {label}")
    which = " and ".join(f"clause {clause_rows[k][0] + 1}" for k in hits)
    raise UnsupportedFragment(f"{vids[var]}: {which} overlap on parent assignment {label}")


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
