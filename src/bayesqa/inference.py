"""Exact inference: joint probabilities, marginals, and conditional queries.

Two independent engines answer the same questions:

* enumeration — the constrained joint as one numpy array, one axis per
  variable the constraints leave a choice, filled by the chain-rule product
  in topological order and summed pairwise by numpy, so each answer is
  within 4 ULPs of the exact answer on the tests' random networks. Simple
  enough to audit by hand; exponential in the number of free variables, so
  it doubles as the oracle for everything else. The one sweep is
  :func:`constrained_sweep`; :func:`joint_probability`, :func:`marginal`
  and :func:`conditional_query` are thin wrappers over it. Its array holds at
  most :data:`MAX_JOINT_STATES` entries; larger spaces are refused up front.
* variable elimination — numpy factor tables, min-degree elimination order
  with lexicographic tie-breaking. The whole order is worked out on the moral
  graph first, and a query whose largest table would exceed
  :data:`MAX_FACTOR_ENTRIES` is refused before any table is made. A table's
  axes are in memory order, not sorted: a CPT is its compiled table, a
  product keeps its larger operand's layout and puts the other's extra
  variables in front of it, and a sum adds its slabs in state order.
  A layout only decides where an entry is stored: the floats multiplied, and
  the state order of every sum, do not depend on it. :func:`masked_posterior`
  returns the unnormalized vector; :func:`posterior` and :func:`eliminate`
  normalize it.

Every engine takes a network, reads names from it and indices from its
:class:`CompiledNetwork`, and takes evidence and targets through one
validator, which runs once per call. Evidence maps a variable to a state or
to a *set* of allowed states, which conditioning on a negated program atom
needs.

:func:`compile_network` returns the compiled network. The network keeps it
and every call reuses it while the network holds the same Variable and CPT
objects, so the engines compile a network once however many queries it is
asked. It holds one table per CPT, with the CPT's parents and then its
variable as axes, which both engines read: the sweep in topological order,
elimination in declaration order. The moral graph is built on the first
elimination, so an enumeration sweep never pays for it. Each query
variable's plan (the order, its largest table and each bucket's members) is
worked out on its first query and kept, since masks are unary and the plan
does not depend on evidence; every later query on it builds its masks,
multiplies and sums.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import AbstractSet, Container, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    EnumerationBoundExceeded,
    FactorBoundExceeded,
    QueryEvidenceOverlap,
    UnknownVariable,
    ZeroProbabilityEvidence,
)
from .model import BayesianNetwork, assignment_grid, state_index, topological_order

NEGATIVE_NOISE_FLOOR = -1e-12

# one budget for both enumerators: these joint states and enumerate_worlds's worlds
MAX_JOINT_STATES = 2**20

# entries of the largest table variable elimination may build (80 MB of floats)
MAX_FACTOR_ENTRIES = 10**7

Constraints = Mapping[str, "AbstractSet[str] | str"]

# constraints as _normalize_constraints maps them: (variable, sorted state indices)
_Indexed = list[tuple[str, tuple[int, ...]]]


@dataclass(frozen=True)
class QueryResult:
    """A conditional-query answer plus the engine that produced it."""

    probability: float
    method: str


# ---------------------------------------------------------------------------
# the compiled network and the constraint path, read by both engines
# ---------------------------------------------------------------------------


class CompiledNetwork:
    """What a network compiles to, which both engines read. It holds no
    reference to the network, so that the network can keep it
    (:func:`compile_network`) with no reference cycle;
    ``CompiledNetwork(network)`` compiles afresh.

    Each CPT is one read-only factor: one axis per parent, in parent order,
    then one for the variable, filled in :func:`model.assignment_grid` order.
    ``factors`` holds them in declaration order, which is the order
    elimination fills its buckets in; ``chain`` holds the same objects in
    topological order (``order``), which is the order the sweep multiplies
    them in. ``source`` holds the names, Variables and CPTs it was compiled
    from. Nothing here changes once built, except that the moral graph and
    each query variable's plan are built on first use and kept.
    """

    __slots__ = ("source", "order", "pos", "card", "factors", "chain", "_moral", "_plans")

    def __init__(self, network: BayesianNetwork):
        self.source = _source(network)
        self.order: tuple[str, ...] = tuple(topological_order(network))
        self.pos: dict[str, int] = {v: i for i, v in enumerate(self.order)}
        self.card: dict[str, int] = {v: len(network.states(v)) for v in network.variables}
        by_name: dict[str, _Factor] = {}
        for v in network.variables:
            cpt = network.cpts[v]
            scope = cpt.parents + (v,)
            rows = cpt.rows
            table = np.array([rows[key] for key in assignment_grid(network, cpt.parents)])
            table = table.reshape([self.card[u] for u in scope])
            table.setflags(write=False)  # both engines only read it
            by_name[v] = _Factor(scope, table)
        self.factors: tuple[_Factor, ...] = tuple(by_name.values())
        self.chain: tuple[_Factor, ...] = tuple([by_name[v] for v in self.order])
        self._moral: dict[str, frozenset[str]] | None = None
        self._plans: dict[str, _Plan] = {}

    def compiled_from(self, network: BayesianNetwork) -> bool:
        """Whether ``network`` still holds the very names, Variables and CPTs,
        in the same order, that this was compiled from."""

        now = _source(network)
        return len(now) == len(self.source) and all(map(operator.is_, now, self.source))

    def moral(self) -> dict[str, frozenset[str]]:
        """Each variable's neighbours in the moral graph (the union of the CPT
        scopes it shares); built on first use."""

        if self._moral is None:
            linked: dict[str, set[str]] = {v: set() for v in self.order}
            for f in self.factors:
                for a in f.vars:
                    linked[a].update(f.vars)
            self._moral = {v: frozenset(n - {v}) for v, n in linked.items()}
        return self._moral

    def plan(self, variable: str) -> _Plan:
        """The elimination plan for a query on ``variable``, worked out on
        first use and kept: masks are unary, so no plan depends on evidence."""

        plan = self._plans.get(variable)
        if plan is not None:
            return plan
        card = self.card

        # min degree, ties by name. An eliminated variable leaves every neighbour
        # set, so the only neighbour not to be eliminated is ``variable``. A
        # bucket's product spans its variable and that variable's neighbours.
        # Masks are unary, so they add no edge to the moral graph.
        to_eliminate = set(self.order) - {variable}
        neighbors: dict[str, set[str]] = {v: set(n) for v, n in self.moral().items()}
        order: list[str] = []
        largest = 0
        while to_eliminate:
            target = min(to_eliminate, key=lambda v: (len(neighbors[v]) - (variable in neighbors[v]), v))
            linked = neighbors.pop(target)
            largest = max(largest, card[target] * math.prod(card[a] for a in linked))
            for a in linked:
                neighbors[a].discard(target)
                neighbors[a].update(linked - {a})
            to_eliminate.discard(target)
            order.append(target)

        # A CPT, and a bucket's result, joins the bucket of the first variable
        # of its scope to be eliminated; what no bucket takes is left for
        # ``variable``. Taken in declaration and creation order, each bucket
        # lists them as a walk over one list of factors would meet them.
        scopes = [f.vars for f in self.factors]
        rank = {v: k for k, v in enumerate(order)}
        last = len(order)
        cpts: list[list[int]] = [[] for _ in range(last + 1)]
        earlier: list[list[int]] = [[] for _ in range(last + 1)]
        for i, scope in enumerate(scopes):
            cpts[min([rank.get(v, last) for v in scope])].append(i)
        made: list[set[str]] = []
        for k, target in enumerate(order):
            scope = set().union(*[scopes[i] for i in cpts[k]], *[made[j] for j in earlier[k]])
            scope.discard(target)
            made.append(scope)
            earlier[min([rank.get(v, last) for v in scope], default=last)].append(k)
        buckets = tuple((target, tuple(cpts[k]), tuple(earlier[k])) for k, target in enumerate(order))
        plan = self._plans[variable] = _Plan(largest, buckets, (tuple(cpts[last]), tuple(earlier[last])))
        return plan


def _source(network: BayesianNetwork) -> tuple[object, ...]:
    """What a compile reads from ``network``, in order: its names, its
    Variables, its CPTs' names and its CPTs."""

    return (*network.variables, *network.variables.values(), *network.cpts, *network.cpts.values())


class _Plan(NamedTuple):
    """How one query variable's elimination runs: ``largest`` is the entry
    count of the largest product, each bucket is ``(variable, CPT indices,
    indices of earlier buckets' results)`` in elimination order, and
    ``final`` holds the CPT and result indices left for the query variable."""

    largest: int
    buckets: tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...]
    final: tuple[tuple[int, ...], tuple[int, ...]]


def compile_network(network: BayesianNetwork) -> CompiledNetwork:
    """The compiled form of ``network``, which the network keeps.

    It is reused while the network holds the very names, Variables and CPTs,
    in the same order, that it was compiled from (an O(n) identity check), so
    every engine call on one network shares one compile, its moral graph
    and its per-variable plans. Replacing, adding or deleting a
    Variable or a CPT compiles anew.
    """

    compiled = network._compiled
    if compiled is None or not compiled.compiled_from(network):
        compiled = network._compiled = CompiledNetwork(network)
    return compiled


def _normalize_constraints(
    network: BayesianNetwork, pairs: Iterable[tuple[str, "AbstractSet[str] | str"]]
) -> _Indexed:
    """Map ``(variable, state or set of states)`` pairs, in order, to sorted
    state indices; an unknown state fails in :func:`model.state_index`."""

    out = []
    for var, allowed in pairs:
        network.states(var)  # an unknown variable fails even with no states wanted
        wanted = (allowed,) if isinstance(allowed, str) else sorted(allowed)
        out.append((var, tuple(sorted({state_index(network, var, s) for s in wanted}))))
    return out


def _check_query(network: BayesianNetwork, query_var: str, query_state: str, evidence: Mapping[str, str]) -> _Indexed:
    """Check the query, then the evidence, then their overlap; return the
    query's pair and then the evidence's, as :func:`_normalize_constraints`
    maps them."""

    pairs = _normalize_constraints(network, [(query_var, query_state), *evidence.items()])
    _check_overlap(query_var, evidence)
    return pairs


def _check_overlap(query_var: str, evidence_vars: Container[str]) -> None:
    """The one rule, for the engines and :func:`dataset.classify_reasoning`,
    that a query variable is not also evidence."""

    if query_var in evidence_vars:
        raise QueryEvidenceOverlap(f"query variable {query_var!r} also appears in evidence")


def _conditionals(constraints: Constraints, mass: float, parts: Iterable[float]) -> list[float]:
    """Each part of ``mass`` as a probability, and the one report of zero mass,
    for every engine. Set-valued entries print as sorted lists, so the text
    does not depend on the process's hash seed."""

    if mass == 0.0:
        shown = {v: a if isinstance(a, str) else sorted(a) for v, a in dict(constraints).items()}
        raise ZeroProbabilityEvidence(f"evidence {shown!r} has probability 0")
    return [_as_probability(part / mass) for part in parts]


# ---------------------------------------------------------------------------
# enumeration engine
# ---------------------------------------------------------------------------


def joint_probability(network: BayesianNetwork, assignment: Mapping[str, str]) -> float:
    """Chain-rule probability of a *full* assignment."""

    allowed = _normalize_constraints(network, assignment.items())  # unknown names before missing ones
    missing = sorted(set(network.variables) - set(assignment))
    if missing:
        raise UnknownVariable(f"assignment must cover every variable; missing: {', '.join(missing)}")
    return _sweep(compile_network(network), allowed, ())[0]


def marginal(network: BayesianNetwork, assignment: Mapping[str, str]) -> float:
    """Probability of a partial assignment, by summing over completions.

    The empty assignment has probability 1 (up to row-sum rounding in the
    input tables).
    """

    return constrained_sweep(network, assignment, ())[0]


def conditional_query(
    network: BayesianNetwork,
    query_var: str,
    query_state: str,
    evidence: Mapping[str, str],
) -> QueryResult:
    """P(query_var = query_state | evidence) by enumeration.

    Numerator and denominator come from one sweep over the completions of the
    evidence (:func:`constrained_sweep`), within 4 ULPs of exact. Raises
    :class:`ZeroProbabilityEvidence` when the evidence has mass 0 and
    :class:`QueryEvidenceOverlap` when the query variable is also evidence.
    """

    query, *allowed = _check_query(network, query_var, query_state, evidence)
    sums = _sweep(compile_network(network), allowed, [query])
    return QueryResult(probability=_conditionals(evidence, *sums)[0], method="enumeration")


def constrained_sweep(
    network: BayesianNetwork,
    constraints: Constraints,
    targets: Sequence[tuple[str, str]],
) -> tuple[float, list[float]]:
    """One enumeration pass under set-valued constraints.

    Returns ``(mass, per_target_mass)``: the total probability of worlds
    satisfying every constraint, and for each ``(variable, state)`` target the
    portion of that mass where the variable also takes the given state.
    The constrained joint is one array with an axis per variable left more
    than one state, in topological order, and each entry is the chain-rule
    product taken in that order, multiplied into the array in place so that
    it is the one full-size array the sweep holds. The array, and each
    target's slice of it, is summed by numpy's pairwise sum, from +0.0 (so a
    sum of signed zeros is +0.0) and without a copy. Each mass, and each
    target/total ratio, is within 4 ULPs of the exact value on the tests'
    random networks (``tests/exact.py``), and the 177,147-world chain
    ``v0 -> ... -> v12`` of the tests reads the correctly rounded 0.2.
    Raises :class:`EnumerationBoundExceeded`, before the array is allocated,
    when the constraints leave more than :data:`MAX_JOINT_STATES`
    assignments.
    """

    c = compile_network(network)
    allowed = _normalize_constraints(network, constraints.items())
    return _sweep(c, allowed, _normalize_constraints(network, targets))


def _sweep(c: CompiledNetwork, allowed: _Indexed, targets: _Indexed) -> tuple[float, list[float]]:
    """:func:`constrained_sweep` on constraints and targets that
    :func:`_normalize_constraints` has checked and mapped to state indices."""

    allowed_idx: list[Sequence[int]] = [range(c.card[v]) for v in c.order]
    for var, idx in allowed:
        allowed_idx[c.pos[var]] = idx
    target_idx = [(state, c.pos[v]) for v, (state,) in targets]
    joint = math.prod(len(idx) for idx in allowed_idx)
    if joint > MAX_JOINT_STATES:
        raise EnumerationBoundExceeded(
            f"enumeration would walk {joint} joint states, more than the bound of "
            f"{MAX_JOINT_STATES}; use --method elimination"
        )
    if joint == 0:
        return 0.0, [0.0] * len(target_idx)

    # a variable with one allowed state is a plain index, not an axis: numpy
    # allows 64 axes, and evidence may fix many more variables than that
    free = [i for i, idx in enumerate(allowed_idx) if len(idx) > 1]
    axis = {i: a for a, i in enumerate(free)}
    grid: list[int | np.ndarray] = [idx[0] for idx in allowed_idx]
    for i, a in axis.items():
        shape = [1] * len(free)
        shape[a] = -1
        grid[i] = np.array(allowed_idx[i]).reshape(shape)
    p = np.ones([len(allowed_idx[i]) for i in free])  # 1.0 * x is x, bit for bit
    pos = c.pos
    for f in c.chain:
        p *= f.values[tuple([grid[pos[u]] for u in f.vars])]

    total = float(np.add.reduce(p, axis=None, initial=0.0))
    nums = []
    for state, pos in target_idx:
        if state not in allowed_idx[pos]:
            nums.append(0.0)
        elif pos in axis:
            part = p[(slice(None),) * axis[pos] + (allowed_idx[pos].index(state),)]
            nums.append(float(np.add.reduce(part, axis=None, initial=0.0)))
        else:
            nums.append(total)
    return total, nums


# ---------------------------------------------------------------------------
# variable elimination engine
# ---------------------------------------------------------------------------


@dataclass
class _Factor:
    vars: tuple[str, ...]  # in memory order: ``values`` is C-contiguous
    values: np.ndarray  # one axis per var, in the same order


# a product's smaller operand is copied into the product's axis order, for
# long inner loops, when it holds at most 1/_COPY_SHARE of the product's
# entries; a larger one is read through a strided view, so that no copy is
# large next to the product it feeds
_COPY_SHARE = 8


def _multiply(a: _Factor, b: _Factor, card: Mapping[str, int]) -> _Factor:
    """The product of two factors, on the union of their scopes.

    The larger operand keeps its layout and is not copied: the product's axes
    are the smaller operand's other variables, in its order, then the larger
    operand's, which numpy broadcasts over. Each entry is the same one float
    product in any layout.
    """

    if a.values.size < b.values.size:
        a, b = b, a
    extra = tuple([v for v in b.vars if v not in a.vars])
    shared = tuple([v for v in a.vars if v in b.vars])  # b's axes met in a, in a's order
    scope, own = extra + a.vars, extra + shared
    bv = b.values
    if own != b.vars:
        bv = bv.transpose([b.vars.index(v) for v in own])
        if b.values.size * _COPY_SHARE <= a.values.size * math.prod([card[v] for v in extra]):
            bv = bv.copy()
    bv = bv.reshape([card[v] if v in b.vars else 1 for v in scope])
    return _Factor(scope, np.multiply(a.values, bv, order="C"))


# a table of at most this many entries is summed by one ufunc call, which is
# faster there than a call per slab and slower on large tables
_REDUCE_ENTRIES = 256


def _sum_out(f: _Factor, var: str) -> _Factor:
    """``f`` summed over ``var``: +0.0 (``np.sum``'s start, so a sum of
    signed zeros is +0.0) plus the slabs in state order. A small table whose
    ``var`` has fewer than 8 states, which ``np.add.reduce`` adds one by one
    (it adds 8 or more pairwise), is summed in one call; any other is summed
    slab by slab."""

    axis = f.vars.index(var)
    values = f.values
    rest = f.vars[:axis] + f.vars[axis + 1 :]
    if values.size <= _REDUCE_ENTRIES and values.shape[axis] < 8:
        return _Factor(rest, np.add.reduce(values, axis=axis, initial=0.0))
    lead = (slice(None),) * axis
    out = values[lead + (0,)] + 0.0
    for s in range(1, values.shape[axis]):
        out += values[lead + (s,)]
    return _Factor(rest, out)


def masked_posterior(
    network: BayesianNetwork,
    variable: str,
    constraints: Constraints,
) -> np.ndarray:
    """Unnormalized vector P(variable = s ∧ constraints) via elimination.

    ``constraints`` maps variables to an allowed state or set of allowed
    states; the target variable itself may be constrained. Summing the result
    gives the probability of the constraint event. The elimination plan of
    ``variable`` is worked out on the moral graph before any table is made,
    on its first query, and kept; every call raises
    :class:`FactorBoundExceeded`, before any table, when the plan's largest
    product would hold more than :data:`MAX_FACTOR_ENTRIES` entries.
    """

    c = compile_network(network)
    allowed = _normalize_constraints(network, constraints.items())
    network.states(variable)  # an unknown variable fails here
    return _masked(c, variable, allowed)


def _masked(c: CompiledNetwork, variable: str, allowed: _Indexed) -> np.ndarray:
    """:func:`masked_posterior` on a known variable and constraints that
    :func:`_normalize_constraints` has checked and mapped to state indices."""

    card = c.card
    plan = c.plan(variable)
    if plan.largest > MAX_FACTOR_ENTRIES:
        raise FactorBoundExceeded(
            f"elimination would build a table of {plan.largest} entries, more than the bound of {MAX_FACTOR_ENTRIES}"
        )

    masks: dict[str, _Factor] = {}
    for var, idx in allowed:
        mask = np.zeros(card[var])
        mask[list(idx)] = 1.0
        masks[var] = _Factor((var,), mask)

    factors = c.factors
    results: list[_Factor | None] = []

    def gather(target: str, cpts: tuple[int, ...], earlier: tuple[int, ...]) -> list[_Factor]:
        """A bucket's factors in the order they are multiplied: CPTs in
        declaration order, the mask, then earlier results in creation order.
        A result leaves ``results`` as its bucket takes it, so that it is
        freed once multiplied in."""

        bucket = [factors[i] for i in cpts]
        if target in masks:
            bucket.append(masks[target])
        for j in earlier:
            bucket.append(results[j])
            results[j] = None
        return bucket

    for target, cpts, earlier in plan.buckets:
        bucket = gather(target, cpts, earlier)
        # each factor is dropped once multiplied in, so it can be freed
        bucket.reverse()
        prod = bucket.pop()
        while bucket:
            prod = _multiply(prod, bucket.pop(), card)
        results.append(_sum_out(prod, target))

    # the factors left hold no variable but ``variable``, which is never
    # eliminated; a product started from ones spans it, and 1.0 * x is x
    result = _Factor((variable,), np.ones(card[variable]))
    for f in gather(variable, *plan.final):
        result = _multiply(result, f, card)
    values = result.values
    low = values.min()
    if low < NEGATIVE_NOISE_FLOOR:
        raise ArithmeticError(f"elimination produced mass {low!r} below the noise floor")
    np.clip(values, 0.0, None, out=values)
    return values


def posterior(
    network: BayesianNetwork,
    variable: str,
    constraints: Constraints = (),
) -> tuple[float, ...]:
    """Normalized posterior over ``variable`` given set-valued constraints.

    The vector of :func:`masked_posterior` divided by its sum; raises
    :class:`ZeroProbabilityEvidence` when the constraints have mass 0.
    """

    values = masked_posterior(network, variable, dict(constraints))
    return tuple(_conditionals(constraints, float(values.sum()), values.tolist()))


def eliminate(
    network: BayesianNetwork,
    query_var: str,
    query_state: str,
    evidence: Mapping[str, str],
) -> QueryResult:
    """P(query_var = query_state | evidence) by variable elimination.

    Same contract as :func:`conditional_query`; exact up to float rounding.
    """

    c = compile_network(network)
    (_, (qstate,)), *allowed = _check_query(network, query_var, query_state, evidence)
    values = _masked(c, query_var, allowed)
    probability = _conditionals(evidence, float(values.sum()), values.tolist())[qstate]
    return QueryResult(probability=probability, method="elimination")


def _as_probability(value: float) -> float:
    if not math.isfinite(value):
        raise ArithmeticError(f"non-finite probability {value!r}")
    if value < 0.0:
        if value < NEGATIVE_NOISE_FLOOR:
            raise ArithmeticError(f"probability {value!r} below the negative noise floor")
        return 0.0
    return min(value, 1.0)
