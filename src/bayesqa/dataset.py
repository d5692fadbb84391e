"""Benchmark dataset generation: verbalized premises, query/evidence pairs,
reasoning-type labels, and gold probabilities.

Every CPT row of a network becomes one *premise* in two renderings that share
a ``clause_ref``: numeric ("If gallstones is yes, then the probability of
flatulence being yes is 39.25%, ...") and verbal, using estimative-probability
phrases; one pass over the rows renders both. Each *instance* samples
evidence over a strict subset of variables plus one query about a remaining
variable; the gold answer is exact conditional inference on the network.

Determinism contract: ``generate_dataset(network, count, seed)`` is a pure
function of its arguments. Randomness comes from per-purpose
``numpy.random.SeedSequence`` streams — one for premise verbalization, one
per instance index — so results do not depend on generation order, and
serialized output is byte-identical across runs. Instances are built
serially: the work is pure Python, and a thread pool measured slower than
one thread.

Whatever depends only on the network is built once per network and shared
by its instances: the premises tuple, the
:class:`~bayesqa.inference.CompiledNetwork` that the network keeps and every
evidence draw of every instance is answered on, with one elimination plan per
query variable (:func:`~bayesqa.inference.compile_network`), the program encoding
(:class:`NetworkEncoder`: ``bn_to_problog`` clauses, their canonical text
and the predicates a negated-query indicator must avoid), and, in
:func:`save_dataset`, the JSON text of the premise block. Per instance, only
the evidence, the query and the record fields are encoded. The read side
matches: :func:`load_dataset` decodes and checks each premise block once,
and the instances that carry it share one premises tuple, as when generated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import UnsatisfiableEvidence, ZeroProbabilityEvidence
from .inference import _check_overlap, eliminate
from .model import (
    BayesianNetwork,
    children,
    parent_assignments,
    parents,
    read_records,
    record_field,
    require_valid,
    topological_order,
    write_records,
)
from .problog.convert import atom_for, bn_to_problog
from .problog.syntax import (
    Atom,
    Clause,
    Evidence,
    Literal,
    ProbHead,
    ProblogProgram,
    Query,
    join_statements,
    statement_lines,
)
from .wep import verbalize_distribution

REASONING_TYPES = ("causal", "evidential", "explaining_away")
MAX_EVIDENCE_RETRIES = 100


@dataclass(frozen=True)
class Premise:
    kind: str  # "numeric" | "wep"
    text: str
    clause_ref: int
    variable: str
    parent_assignment: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Binding:
    variable: str
    state: str
    text: str


@dataclass(frozen=True)
class QePair:
    evidence: tuple[tuple[str, str], ...]  # sorted by variable id
    query_var: str
    query_state: str
    gold: float


@dataclass(frozen=True)
class DatasetInstance:
    id: str
    network: str
    premises: tuple[Premise, ...]
    evidence: tuple[Binding, ...]
    question: Binding
    gold: float
    reasoning_types: tuple[str, ...]
    primary_type: str
    seed: int
    index: int


# ---------------------------------------------------------------------------
# premise rendering
# ---------------------------------------------------------------------------


def _percent(p: float) -> str:
    # every premise spells a probability here; ``+ 0.0`` as in format_probability
    text = f"{(p + 0.0) * 100:.4f}".rstrip("0").rstrip(".")
    return f"{text}%"


def _join_clauses(parts: list[str]) -> str:
    if len(parts) == 1:
        return parts[0]
    return ", ".join(parts[:-1]) + ", and " + parts[-1]


def _sentence(conditions: str, consequent: str) -> str:
    if conditions:
        return f"If {conditions}, then {consequent}."
    return consequent[0].upper() + consequent[1:] + "."


# Sentence frames for hedge phrases that don't fit "it is X that ...".
_WEP_FRAMES = {
    "very good chance": "there is a very good chance that {}",
    "little chance": "there is little chance that {}",
    "almost no chance": "there is almost no chance that {}",
    "chances are slight": "chances are slight that {}",
    "better than even": "the chances are better than even that {}",
    "about even": "the chances are about even that {}",
    "probably": "it is probably the case that {}",
    "probably not": "it is probably not the case that {}",
}


def _hedge_clause(phrase: str, clause: str) -> str:
    frame = _WEP_FRAMES.get(phrase)
    if frame is None:
        return f"it is {phrase} that {clause}"
    return frame.format(clause)


def template_premises(
    network: BayesianNetwork,
    rng: np.random.Generator,
    *,
    second_closest_prob: float = 0.1,
) -> list[Premise]:
    """Both premises of every CPT row, in canonical row order.

    One walk over the rows renders each row as a numeric premise
    (probabilities as percentages) and a verbal one (estimative-probability
    phrases drawn from ``rng``); both carry the row's index in canonical order
    as ``clause_ref``. Returns every numeric premise, then every verbal one.
    """

    numeric: list[Premise] = []
    verbal: list[Premise] = []
    for vid in topological_order(network):
        var = network.variables[vid]
        cpt = network.cpts[vid]
        for key in parent_assignments(network, vid):
            conditions = " and ".join(
                f"{network.variables[p].name} is {s}" for p, s in zip(cpt.parents, key)
            )
            given = tuple(sorted(zip(cpt.parents, key)))
            dist = cpt.rows[key]
            parts = [
                f"the probability of {var.name} being {s} is {_percent(p)}"
                for s, p in zip(var.states, dist)
            ]
            text = _sentence(conditions, _join_clauses(parts))
            # a list's length before the append is the row's index: its clause_ref
            numeric.append(Premise("numeric", text, len(numeric), vid, given))

            rendered = verbalize_distribution(dist, rng, second_closest_prob=second_closest_prob)
            if rendered.phrases is None:
                text = _sentence(conditions, f"the states of {var.name} are all equally likely")
            else:
                parts = [
                    _hedge_clause(phrase, f"{var.name} is {s}")
                    for s, phrase in zip(var.states, rendered.phrases)
                ]
                text = _sentence(conditions, _join_clauses(parts))
                if rendered.argmax_states:
                    top = " or ".join(var.states[i] for i in rendered.argmax_states)
                    text += f" The most likely state of {var.name} is {top}."
            verbal.append(Premise("wep", text, len(verbal), vid, given))
    return numeric + verbal


# ---------------------------------------------------------------------------
# query/evidence sampling and labeling
# ---------------------------------------------------------------------------


def sample_qe(network: BayesianNetwork, rng: np.random.Generator) -> QePair:
    """Draw evidence over 1..n-1 variables plus a query about another one.

    Evidence assignments with probability zero are rejected and redrawn; after
    ``MAX_EVIDENCE_RETRIES`` rejections :class:`UnsatisfiableEvidence` is raised
    (the network is then near-deterministic and not a useful QA subject). Each
    draw is answered by :func:`~bayesqa.inference.eliminate` on ``network``,
    whose compiled form every draw shares.
    """

    ids = sorted(network.variables)
    n = len(ids)
    if n < 2:
        raise ValueError("query/evidence sampling needs at least 2 variables")

    for _ in range(MAX_EVIDENCE_RETRIES):
        m = 1 + int(rng.integers(n - 1))
        pool = list(ids)
        for j in range(m):  # partial Fisher-Yates, explicit for cross-version stability
            k = j + int(rng.integers(n - j))
            pool[j], pool[k] = pool[k], pool[j]
        evidence_vars = pool[:m]
        rest = sorted(pool[m:])
        query_var = rest[int(rng.integers(len(rest)))]
        evidence = []
        for v in evidence_vars:
            states = network.states(v)
            evidence.append((v, states[int(rng.integers(len(states)))]))
        qstates = network.states(query_var)
        query_state = qstates[int(rng.integers(len(qstates)))]
        try:
            gold = eliminate(network, query_var, query_state, dict(evidence)).probability
        except ZeroProbabilityEvidence:
            continue
        return QePair(
            evidence=tuple(sorted(evidence)),
            query_var=query_var,
            query_state=query_state,
            gold=gold,
        )
    raise UnsatisfiableEvidence(
        f"no satisfiable evidence assignment found in {MAX_EVIDENCE_RETRIES} draws"
    )


def classify_reasoning(
    network: BayesianNetwork,
    evidence_vars: Iterable[str],
    query_var: str,
) -> tuple[tuple[str, ...], str]:
    """Reasoning types linking the evidence to the query, plus the primary one.

    Membership is by direct edges: *causal* if some evidence variable is a
    parent of the query, *evidential* if some evidence variable is a child,
    *explaining_away* if an observed child of the query has another observed
    parent. Primary type is the most specific present
    (explaining_away > evidential > causal); "none" if no direct relation.
    Unknown variables and a query among the evidence are refused.
    """

    ev = set(evidence_vars)
    qparents = set(parents(network, query_var))
    for var in sorted(ev):
        network.states(var)  # an unknown variable fails here, as in the engines
    _check_overlap(query_var, ev)
    qchildren = set(children(network, query_var))

    found = set()
    if ev & qparents:
        found.add("causal")
    if ev & qchildren:
        found.add("evidential")
    for child in ev & qchildren:
        if (set(parents(network, child)) - {query_var}) & ev:
            found.add("explaining_away")
            break

    types = tuple(t for t in REASONING_TYPES if t in found)
    return types, types[-1] if types else "none"


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------


def _instance_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1, stream, index)))


def generate_dataset(
    network: BayesianNetwork,
    count: int,
    seed: int,
    *,
    second_closest_prob: float = 0.1,
    stream: int = 0,
) -> list[DatasetInstance]:
    """Generate ``count`` instances for one network.

    ``stream`` separates the substreams of several networks generated under
    one seed (the CLI passes the network's position). The network is
    validated here, and an invalid one raises :class:`NetworkFormatError`
    (:func:`~bayesqa.model.require_valid`); ``bayesqa gen-dataset`` leaves
    this check to it.
    """

    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    require_valid(network)
    if len(network.variables) < 2:
        raise ValueError("dataset generation needs at least 2 variables")

    premise_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(0, stream))
    )
    premises = tuple(template_premises(network, premise_rng, second_closest_prob=second_closest_prob))

    def build(i: int) -> DatasetInstance:
        rng = _instance_rng(seed, stream, i)
        qe = sample_qe(network, rng)
        types, primary = classify_reasoning(
            network, [v for v, _ in qe.evidence], qe.query_var
        )
        evidence = tuple(
            Binding(v, s, f"{network.variables[v].name} is {s}.") for v, s in qe.evidence
        )
        question = Binding(
            qe.query_var,
            qe.query_state,
            f"What is the probability that {network.variables[qe.query_var].name} "
            f"is {qe.query_state}?",
        )
        return DatasetInstance(
            id=f"{network.name}-{i:04d}",
            network=network.name,
            premises=premises,
            evidence=evidence,
            question=question,
            gold=qe.gold,
            reasoning_types=types,
            primary_type=primary,
            seed=seed,
            index=i,
        )

    return [build(i) for i in range(count)]


class NetworkEncoder:
    """The program encoding of one network, built once and shared by its instances.

    Holds the ``bn_to_problog`` clauses, the head predicates a negated-query
    indicator must not reuse, and the clauses' canonical text lines, so each
    instance only adds its evidence, its query and, when needed, an indicator.
    """

    def __init__(self, network: BayesianNetwork) -> None:
        self.network = network
        self.base = bn_to_problog(network)
        self._heads = frozenset(h.atom.predicate for c in self.base.clauses for h in c.heads)
        self._base_lines = statement_lines(self.base)

    def extension(
        self,
        evidence: Iterable[tuple[str, str]],
        queries: Iterable[tuple[str, str]],
    ) -> ProblogProgram:
        """What a program adds to :attr:`base`: point evidence, one query per
        ``(variable, state)``, and the clauses those queries need.

        The second state of a two-state variable has no atom of its own, so a
        fresh deterministic indicator is defined (``1.0::neg(e) :- not p(e).``
        plus a ``0.0::`` row to keep clause bodies exhaustive) and queried
        instead.
        """

        clauses: list[Clause] = []
        atoms = []
        for variable, state in queries:
            atom, positive = atom_for(self.network, variable, state)
            if not positive:
                pred = f"not_{atom.predicate}"
                while pred in self._heads:
                    pred += "_"
                indicator = Atom(pred, atom.args)
                clauses.append(Clause(heads=(ProbHead(1.0, indicator),), body=(Literal(atom, True),)))
                clauses.append(Clause(heads=(ProbHead(0.0, indicator),), body=(Literal(atom, False),)))
                atom = indicator
            atoms.append(atom)
        return ProblogProgram(
            clauses=tuple(clauses),
            evidence=tuple(
                Evidence(*atom_for(self.network, variable, state)) for variable, state in evidence
            ),
            queries=tuple(Query(atom) for atom in atoms),
        )

    def program(self, instance: DatasetInstance) -> ProblogProgram:
        """The instance as a runnable program: encoding + evidence + query."""

        extra = self.extension(*_goals(instance))
        return replace(extra, clauses=self.base.clauses + extra.clauses)

    def text(self, instance: DatasetInstance) -> str:
        """``serialize(self.program(instance))``, reusing the base clauses' text."""

        return join_statements(self._base_lines + statement_lines(self.extension(*_goals(instance))))


def _goals(instance: DatasetInstance) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    evidence = [(b.variable, b.state) for b in instance.evidence]
    return evidence, [(instance.question.variable, instance.question.state)]


def instance_program(network: BayesianNetwork, instance: DatasetInstance) -> ProblogProgram:
    """The instance as a runnable program; see :meth:`NetworkEncoder.program`.

    Encodes the network anew: to build several instances of one network,
    make one :class:`NetworkEncoder` and call it for each.
    """

    return NetworkEncoder(network).program(instance)


# ---------------------------------------------------------------------------
# dataset files
# ---------------------------------------------------------------------------


def instance_to_dict(instance: DatasetInstance) -> dict:
    return {
        "id": instance.id,
        "network": instance.network,
        "seed": instance.seed,
        "index": instance.index,
        "premises": [
            {
                "kind": p.kind,
                "text": p.text,
                "clause_ref": p.clause_ref,
                "variable": p.variable,
                "given": {parent: state for parent, state in p.parent_assignment},
            }
            for p in instance.premises
        ],
        "evidence": [
            {"variable": b.variable, "state": b.state, "text": b.text}
            for b in instance.evidence
        ],
        "question": {
            "variable": instance.question.variable,
            "state": instance.question.state,
            "text": instance.question.text,
        },
        "gold": instance.gold,
        "reasoning_types": list(instance.reasoning_types),
        "primary_type": instance.primary_type,
    }


def instance_from_dict(doc: dict) -> DatasetInstance:
    return _instance_from_dict(doc, _premises_from_list)


def _instance_from_dict(doc: dict, premises: Callable[[list], tuple[Premise, ...]]) -> DatasetInstance:
    reasoning_types = record_field(doc, "reasoning_types", "a list of strings", list)
    if not all(type(t) is str for t in reasoning_types):
        raise TypeError(f"reasoning_types must be a list of strings, got {json.dumps(reasoning_types)}")
    gold = record_field(doc, "gold", "a number", int, float)
    if not 0.0 <= gold <= 1.0:  # nan is refused too
        raise ValueError(f"gold must be a probability in [0, 1], got {json.dumps(gold)}")
    return DatasetInstance(
        id=record_field(doc, "id", "a string", str),
        network=record_field(doc, "network", "a string", str),
        premises=premises(record_field(doc, "premises", "a list", list)),
        evidence=tuple(_binding_from_dict(e) for e in record_field(doc, "evidence", "a list", list)),
        question=_binding_from_dict(record_field(doc, "question", "an object", dict)),
        gold=float(gold),
        reasoning_types=tuple(reasoning_types),
        primary_type=record_field(doc, "primary_type", "a string", str),
        seed=record_field(doc, "seed", "an integer", int),
        index=record_field(doc, "index", "an integer", int),
    )


def _premises_from_list(docs: list) -> tuple[Premise, ...]:
    return tuple(_premise_from_dict(p) for p in docs)


def _premise_from_dict(doc: dict) -> Premise:
    # one test per field; record_field and the raises only word the refusal
    if type(doc) is not dict:
        raise TypeError(f"a premise must be an object, got {json.dumps(doc)}")
    kind, text, variable = doc["kind"], doc["text"], doc["variable"]
    clause_ref, given = doc["clause_ref"], doc["given"]
    if kind not in ("numeric", "wep"):
        raise ValueError(f'kind must be "numeric" or "wep", got {json.dumps(kind)}')
    if type(text) is not str:
        record_field(doc, "text", "a string", str)
    if type(variable) is not str:
        record_field(doc, "variable", "a string", str)
    if type(clause_ref) is not int:
        record_field(doc, "clause_ref", "an integer", int)
    # JSON object keys are strings, so only the values need a test: joining
    # them fails unless given is an object and each value a string
    try:
        "".join(given.values())
    except (AttributeError, TypeError):
        raise TypeError(f"given must be an object of strings, got {json.dumps(given)}") from None
    return Premise(kind, text, clause_ref, variable, tuple(sorted(given.items())))


def _binding_from_dict(doc: dict) -> Binding:
    if type(doc) is not dict:  # an evidence element; the question is checked as a field
        raise TypeError(f"an evidence binding must be an object, got {json.dumps(doc)}")
    return Binding(*(record_field(doc, key, "a string", str) for key in ("variable", "state", "text")))


def save_dataset(instances: Sequence[DatasetInstance], path: str | Path) -> None:
    """Write instances as JSON Lines (stable bytes for equal inputs).

    Each line is ``json.dumps(instance_to_dict(inst), ensure_ascii=False)``.
    Instances of one network share one premises tuple, so each distinct
    tuple is encoded once and spliced into its records.
    """

    blocks: dict[int, str] = {}
    lines = []
    for inst in instances:
        block = blocks.get(id(inst.premises))
        if block is None:
            block = json.dumps(instance_to_dict(inst)["premises"], ensure_ascii=False)
            blocks[id(inst.premises)] = block
        line = json.dumps(instance_to_dict(replace(inst, premises=())), ensure_ascii=False)
        # In JSON text a quote followed by `premises": ` opens a key, and the
        # only key of that name in a record without premises is the top one.
        lines.append(line.replace('"premises": []', f'"premises": {block}', 1))
    write_records(path, lines)


def load_dataset(path: str | Path) -> list[DatasetInstance]:
    """Read a JSON Lines dataset, each record through
    :func:`instance_from_dict`'s checks; a refusal names the line.

    In a file that :func:`save_dataset` wrote, each distinct premise block
    is decoded and checked once, and the instances that carry it share one
    premises tuple, as when generated. A record reuses the previous
    record's tuple when its block equals that record's and every
    ``clause_ref`` in it is exactly an integer: ``==`` alone would take a
    JSON ``true`` or ``1.0`` for ``1``, which the checks refuse. The
    records of one network are written together; a block that comes back
    after another is decoded again, to an equal tuple.
    """

    last_raw: list = []
    last: tuple[Premise, ...] = ()

    def premises(raw: list) -> tuple[Premise, ...]:
        nonlocal last_raw, last
        if raw != last_raw or not all(type(p["clause_ref"]) is int for p in raw):
            last = _premises_from_list(raw)
            last_raw = raw
        return last

    return read_records(path, lambda doc: _instance_from_dict(doc, premises), "dataset")


def filter_premises(instance: DatasetInstance, kinds: Iterable[str]) -> DatasetInstance:
    wanted = set(kinds)
    return replace(
        instance, premises=tuple(p for p in instance.premises if p.kind in wanted)
    )


# ---------------------------------------------------------------------------
# corpus statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetStats:
    networks: int
    variables_total: int
    numeric_premises: int
    wep_premises: int
    evidence_statements: int
    queries: int
    states_per_variable_mean: float
    states_per_variable_std: float
    variables_per_network_mean: float
    variables_per_network_std: float
    premises_per_network_mean: float
    premises_per_network_std: float


def premise_count(network: BayesianNetwork) -> int:
    """Number of CPT rows = premises of one kind."""

    total = 0
    for vid in network.variables:
        rows = 1
        for p in network.cpts[vid].parents:
            rows *= len(network.states(p))
        total += rows
    return total


def dataset_stats(
    networks: Sequence[BayesianNetwork],
    instances: Sequence[DatasetInstance] = (),
) -> DatasetStats:
    """Corpus-level statistics (population std, ddof=0)."""

    if not networks:
        raise ValueError("need at least one network")
    states = [len(v.states) for net in networks for v in net.variables.values()]
    var_counts = [len(net.variables) for net in networks]
    prem_counts = [premise_count(net) for net in networks]
    return DatasetStats(
        networks=len(networks),
        variables_total=sum(var_counts),
        numeric_premises=sum(prem_counts),
        wep_premises=sum(prem_counts),
        evidence_statements=sum(len(inst.evidence) for inst in instances),
        queries=len(instances),
        states_per_variable_mean=float(np.mean(states)),
        states_per_variable_std=float(np.std(states)),
        variables_per_network_mean=float(np.mean(var_counts)),
        variables_per_network_std=float(np.std(var_counts)),
        premises_per_network_mean=float(np.mean(prem_counts)),
        premises_per_network_std=float(np.std(prem_counts)),
    )
