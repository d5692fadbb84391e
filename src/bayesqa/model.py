"""Discrete Bayesian-network data model, validation, and file I/O.

A network is a DAG of categorical variables. Each variable carries an ordered
state list and a conditional probability table (CPT) with one row per
assignment of its parents; rows are keyed by explicit parent-state tuples
aligned with the CPT's parent order, so files and in-memory objects never rely
on positional row conventions.

The on-disk format is JSON (see ``docs/network-format.md``). Serialization is
canonical: variables and CPTs are written in topological order with
lexicographic tie-breaking, and rows in row-major parent-state order, so the
same network always produces the same bytes.
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import NetworkFormatError, UnknownState, UnknownVariable

ROW_SUM_TOLERANCE = 1e-6

FORMAT_TAG = "bayesqa-network/1"


@dataclass(frozen=True)
class Variable:
    """A categorical variable: stable id, display name, ordered states."""

    id: str
    name: str
    states: tuple[str, ...]


@dataclass(frozen=True)
class Cpt:
    """Conditional probability table for one variable.

    ``rows`` maps a tuple of parent states (aligned with ``parents``) to a
    distribution over the variable's states. Root variables have a single row
    keyed by the empty tuple.
    """

    variable: str
    parents: tuple[str, ...]
    rows: Mapping[tuple[str, ...], tuple[float, ...]]


@dataclass
class BayesianNetwork:
    """A named network: variables by id plus one CPT per variable.

    ``entity`` is the constant used when the network is rendered as a logic
    program (e.g. ``patient``); it has no probabilistic meaning.

    The inference engines keep the network's compiled form on the network and
    reuse it while ``variables`` and ``cpts`` hold the very same objects, in
    the same order. So a Variable or a CPT is replaced (``net.cpts[v] =
    Cpt(...)``), never edited in place: an edited ``rows`` mapping would leave
    a stale form in use.
    """

    name: str
    variables: dict[str, Variable] = field(default_factory=dict)
    cpts: dict[str, Cpt] = field(default_factory=dict)
    entity: str = "x"
    # the engines' memo (inference.CompiledNetwork); it holds no reference to the network
    _compiled: object = field(default=None, init=False, repr=False, compare=False)

    def states(self, variable: str) -> tuple[str, ...]:
        try:
            return self.variables[variable].states
        except KeyError:
            raise UnknownVariable(f"unknown variable {variable!r}") from None


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by :func:`validate`."""

    kind: str
    location: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.kind}] {self.location}: {self.message}"


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------


def make_network(
    name: str,
    tables: Mapping[str, tuple[Iterable[str], Iterable[str], Mapping[tuple[str, ...], Iterable[float]]]],
    *,
    entity: str = "x",
) -> BayesianNetwork:
    """Build a network from ``{var: (states, parents, rows)}`` literals.

    Convenience for tests and programmatic construction; performs no
    validation beyond what the dataclasses require.
    """

    net = BayesianNetwork(name=name, entity=entity)
    for var, (states, parents, rows) in tables.items():
        net.variables[var] = Variable(id=var, name=var, states=tuple(states))
        net.cpts[var] = Cpt(
            variable=var,
            parents=tuple(parents),
            rows={tuple(k): tuple(float(p) for p in dist) for k, dist in rows.items()},
        )
    return net


def assignment_grid(network: BayesianNetwork, parent_ids: Sequence[str]) -> Iterator[tuple[str, ...]]:
    """State tuples of ``parent_ids`` in canonical row-major order."""

    return itertools.product(*(network.states(p) for p in parent_ids))


def parent_assignments(network: BayesianNetwork, variable: str) -> Iterator[tuple[str, ...]]:
    """Yield parent-state tuples in canonical row-major order."""

    return assignment_grid(network, network.cpts[variable].parents)


# ---------------------------------------------------------------------------
# structural queries
# ---------------------------------------------------------------------------


def parents(network: BayesianNetwork, variable: str) -> tuple[str, ...]:
    """Parent ids of ``variable`` in CPT order."""

    network.states(variable)  # an unknown variable fails here
    return network.cpts[variable].parents


def children(network: BayesianNetwork, variable: str) -> tuple[str, ...]:
    """Child ids of ``variable``, lexicographically sorted."""

    network.states(variable)  # an unknown variable fails here
    return tuple(
        sorted(v for v, cpt in network.cpts.items() if variable in cpt.parents)
    )


def topological_order(network: BayesianNetwork) -> list[str]:
    """Variable ids in topological order, ties broken lexicographically.

    Requires an acyclic network (run :func:`validate` first on untrusted
    input); raises :class:`NetworkFormatError` if a cycle prevents a full
    ordering.
    """

    remaining = {
        v: set(network.cpts[v].parents if v in network.cpts else ()) & set(network.variables)
        for v in network.variables
    }
    ready = [v for v, deps in remaining.items() if not deps]
    heapq.heapify(ready)
    order: list[str] = []
    kids: dict[str, list[str]] = {v: [] for v in network.variables}
    for v, deps in remaining.items():
        for p in deps:
            kids[p].append(v)
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for child in kids[v]:
            remaining[child].discard(v)
            if not remaining[child]:
                heapq.heappush(ready, child)
    if len(order) != len(network.variables):
        stuck = sorted(set(network.variables) - set(order))
        raise NetworkFormatError(f"network contains a cycle involving: {', '.join(stuck)}")
    return order


def state_index(network: BayesianNetwork, variable: str, state: str) -> int:
    states = network.states(variable)
    try:
        return states.index(state)
    except ValueError:
        raise UnknownState(
            f"variable {variable!r} has no state {state!r} (states: {', '.join(states)})"
        ) from None


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate(network: BayesianNetwork) -> list[Violation]:
    """Check every structural invariant; return all violations found.

    Kinds reported: ``variable`` (bad id/state declarations), ``cpt``
    (missing/extra tables), ``dangling-parent``, ``coverage`` (row keys do not
    exactly cover the parent assignment grid), ``probability`` (entry outside
    [0, 1] or wrong arity), ``row-sum`` (row differs from 1 beyond
    ``ROW_SUM_TOLERANCE``) and ``cycle``.
    """

    out: list[Violation] = []

    for vid, var in network.variables.items():
        loc = f"variable[{vid}]"
        if var.id != vid:
            out.append(Violation("variable", loc, f"key {vid!r} does not match id {var.id!r}"))
        if not vid:
            out.append(Violation("variable", loc, "empty variable id"))
        if len(var.states) < 2:
            out.append(Violation("variable", loc, f"needs at least 2 states, has {len(var.states)}"))
        if len(set(var.states)) != len(var.states):
            out.append(Violation("variable", loc, f"duplicate states in {var.states!r}"))
        if any(not s for s in var.states):
            out.append(Violation("variable", loc, "empty state name"))

    for vid in network.variables:
        if vid not in network.cpts:
            out.append(Violation("cpt", f"cpt[{vid}]", "missing CPT"))
    for vid in network.cpts:
        if vid not in network.variables:
            out.append(Violation("cpt", f"cpt[{vid}]", "CPT for undeclared variable"))

    for vid, cpt in network.cpts.items():
        if vid not in network.variables:
            continue
        loc = f"cpt[{vid}]"
        if cpt.variable != vid:
            out.append(Violation("cpt", loc, f"table names variable {cpt.variable!r}"))
        if len(set(cpt.parents)) != len(cpt.parents):
            out.append(Violation("cpt", loc, f"duplicate parents {cpt.parents!r}"))
            continue
        dangling = [p for p in cpt.parents if p not in network.variables]
        for p in dangling:
            out.append(Violation("dangling-parent", loc, f"parent {p!r} is not a network variable"))
        if dangling:
            continue  # the assignment grid below would be meaningless
        k = len(network.variables[vid].states)
        expected = set(parent_assignments(network, vid))
        seen = set(cpt.rows)
        for key in sorted(expected - seen):
            out.append(Violation("coverage", loc, f"missing row for parent assignment {key!r}"))
        for key in sorted(seen - expected):
            out.append(Violation("coverage", loc, f"row for invalid parent assignment {key!r}"))
        for key in sorted(seen & expected):
            dist = cpt.rows[key]
            row_loc = f"{loc}, row {_row_label(cpt.parents, key)}"
            if len(dist) != k:
                out.append(
                    Violation("probability", row_loc, f"expected {k} probabilities, got {len(dist)}")
                )
                continue
            bad = [p for p in dist if not (0.0 <= p <= 1.0)]
            for p in bad:
                out.append(Violation("probability", row_loc, f"probability {p!r} outside [0, 1]"))
            if not bad:
                total = sum(dist)
                if abs(total - 1.0) > ROW_SUM_TOLERANCE:
                    out.append(
                        Violation("row-sum", row_loc, f"row sums to {total!r}, not 1 within {ROW_SUM_TOLERANCE}")
                    )

    try:
        topological_order(network)
    except NetworkFormatError as exc:
        out.append(Violation("cycle", "network", str(exc)))

    return out


def _row_label(parent_ids: Sequence[str], key: tuple[str, ...]) -> str:
    return "(" + ", ".join(f"{p}={s}" for p, s in zip(parent_ids, key)) + ")"


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------


def network_to_dict(network: BayesianNetwork) -> dict:
    """Canonical JSON-ready form (topological record order)."""

    order = topological_order(network)
    return {
        "format": FORMAT_TAG,
        "name": network.name,
        "entity": network.entity,
        "variables": [
            {
                "id": vid,
                "name": network.variables[vid].name,
                "states": list(network.variables[vid].states),
            }
            for vid in order
        ],
        "cpts": [
            {
                "variable": vid,
                "parents": list(network.cpts[vid].parents),
                "rows": [
                    {
                        "given": {p: s for p, s in zip(network.cpts[vid].parents, key)},
                        "p": list(network.cpts[vid].rows[key]),
                    }
                    for key in parent_assignments(network, vid)
                ],
            }
            for vid in order
        ],
    }


def network_from_dict(doc: object, *, renormalize: bool = False, check: bool = True) -> BayesianNetwork:
    """Build a network from parsed JSON, with strict schema checks.

    ``renormalize`` divides each CPT row by its sum (when positive) before
    validation, for ingesting tables rounded elsewhere. With ``check`` (the
    default) any :func:`validate` violation raises
    :class:`NetworkFormatError`; ``check=False`` returns the network anyway so
    callers can report the full violation list themselves.
    """

    if not isinstance(doc, dict):
        raise NetworkFormatError("top level must be a JSON object")
    tag = doc.get("format", FORMAT_TAG)
    if tag != FORMAT_TAG:
        raise NetworkFormatError(f"unsupported format tag {tag!r} (expected {FORMAT_TAG!r})")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise NetworkFormatError("missing or empty network name")
    entity = doc.get("entity", "x")
    if not isinstance(entity, str) or not entity:
        raise NetworkFormatError("entity must be a nonempty string")

    net = BayesianNetwork(name=name, entity=entity)

    variables = doc.get("variables")
    if not isinstance(variables, list) or not variables:
        raise NetworkFormatError("missing variable list")
    for rec in variables:
        if not isinstance(rec, dict):
            raise NetworkFormatError("variable records must be objects")
        vid = rec.get("id")
        if not isinstance(vid, str) or not vid:
            raise NetworkFormatError(f"variable record with bad id: {rec!r}")
        if vid in net.variables:
            raise NetworkFormatError(f"duplicate variable id {vid!r}")
        states = rec.get("states")
        if (
            not isinstance(states, list)
            or not states
            or any(not isinstance(s, str) for s in states)
        ):
            raise NetworkFormatError(f"variable {vid!r}: states must be a list of strings")
        display = rec.get("name", vid)
        if not isinstance(display, str):
            raise NetworkFormatError(f"variable {vid!r}: name must be a string")
        net.variables[vid] = Variable(id=vid, name=display, states=tuple(states))

    cpts = doc.get("cpts")
    if not isinstance(cpts, list):
        raise NetworkFormatError("missing cpt list")
    for rec in cpts:
        if not isinstance(rec, dict):
            raise NetworkFormatError("cpt records must be objects")
        vid = rec.get("variable")
        if not isinstance(vid, str) or vid not in net.variables:
            raise NetworkFormatError(f"cpt record for unknown variable {vid!r}")
        if vid in net.cpts:
            raise NetworkFormatError(f"duplicate cpt for variable {vid!r}")
        parent_ids = rec.get("parents", [])
        if not isinstance(parent_ids, list) or any(not isinstance(p, str) for p in parent_ids):
            raise NetworkFormatError(f"cpt[{vid}]: parents must be a list of variable ids")
        rows_in = rec.get("rows")
        if not isinstance(rows_in, list) or not rows_in:
            raise NetworkFormatError(f"cpt[{vid}]: missing rows")
        rows: dict[tuple[str, ...], tuple[float, ...]] = {}
        for row in rows_in:
            if not isinstance(row, dict) or "p" not in row:
                raise NetworkFormatError(f"cpt[{vid}]: row records need 'given' and 'p'")
            given = row.get("given", {})
            if not isinstance(given, dict) or any(not isinstance(s, str) for s in given.values()):
                raise NetworkFormatError(f"cpt[{vid}]: 'given' must be an object of state names")
            if set(given) != set(parent_ids):
                raise NetworkFormatError(
                    f"cpt[{vid}]: row condition names {sorted(given)} but parents are {parent_ids}"
                )
            key = tuple(given[p] for p in parent_ids)
            if key in rows:
                raise NetworkFormatError(f"cpt[{vid}]: duplicate row for {_row_label(parent_ids, key)}")
            dist = row["p"]
            if not isinstance(dist, list) or any(
                isinstance(p, bool) or not isinstance(p, (int, float)) for p in dist
            ):
                raise NetworkFormatError(f"cpt[{vid}]: 'p' must be a list of numbers")
            values = tuple(float(p) for p in dist)
            if renormalize:
                total = sum(values)
                if total > 0:
                    values = tuple(p / total for p in values)
            rows[key] = values
        net.cpts[vid] = Cpt(variable=vid, parents=tuple(parent_ids), rows=rows)

    if check:
        require_valid(net)
    return net


def require_valid(network: BayesianNetwork) -> None:
    """Raise :class:`NetworkFormatError` listing up to 8 of the violations
    :func:`validate` finds, if it finds any."""

    problems = validate(network)
    if problems:
        summary = "; ".join(str(p) for p in problems[:8])
        more = f" (+{len(problems) - 8} more)" if len(problems) > 8 else ""
        raise NetworkFormatError(f"invalid network: {summary}{more}")


def read_input(path: str | Path) -> str:
    """Read a UTF-8 input file; any failure is a :class:`NetworkFormatError`."""

    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise NetworkFormatError(f"{path}: no such file") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise NetworkFormatError(f"{path}: cannot read ({exc})") from None


def read_json(path: str | Path) -> object:
    """Read and decode a JSON input file."""

    try:
        return json.loads(read_input(path))
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(f"{path}: not valid JSON ({exc})") from None


def read_records(path: str | Path, decode: Callable[[dict], object], what: str) -> list:
    """Decode a JSON Lines file, one object per nonblank line, each through
    ``decode``; a KeyError from ``decode`` is refused as a missing field."""

    out = []
    # "\n" only: text written with ensure_ascii=False keeps U+2028 and U+0085 raw
    for i, line in enumerate(read_input(path).split("\n")):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            if not isinstance(doc, dict):
                raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
            out.append(decode(doc))
        except (LookupError, TypeError, ValueError, AttributeError) as exc:
            why = f"missing field {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
            raise NetworkFormatError(f"{path}:{i + 1}: bad {what} record ({why})") from None
    return out


def record_field(doc: dict, key: str, what: str, *types: type):
    """``doc[key]`` when its exact type is one of ``types`` (so a JSON true is
    not a number); otherwise a TypeError, which :func:`read_records` reports."""

    value = doc[key]
    if type(value) not in types:
        raise TypeError(f"{key} must be {what}, got {json.dumps(value)}")
    return value


def write_records(path: str | Path, lines: Sequence[str]) -> None:
    """Write JSON Lines for :func:`read_records`: each line is one record's
    ``json.dumps(..., ensure_ascii=False)`` text; no lines make an empty file."""

    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def read_network(path: str | Path, *, renormalize: bool = False) -> BayesianNetwork:
    """Decode a network file without validating it (see
    :func:`network_from_dict`); errors name the file."""

    doc = read_json(path)
    try:
        return network_from_dict(doc, renormalize=renormalize, check=False)
    except NetworkFormatError as exc:
        raise NetworkFormatError(f"{path}: {exc}") from None


def load_network(path: str | Path) -> BayesianNetwork:
    """Load and validate a network file; errors name the file."""

    net = read_network(path)
    try:
        require_valid(net)
    except NetworkFormatError as exc:
        raise NetworkFormatError(f"{path}: {exc}") from None
    return net


def save_network(network: BayesianNetwork, path: str | Path) -> None:
    """Write the canonical JSON form (stable bytes for identical networks)."""

    Path(path).write_text(network_to_json(network), encoding="utf-8")


def network_to_json(network: BayesianNetwork) -> str:
    return json.dumps(network_to_dict(network), indent=2, ensure_ascii=False) + "\n"
