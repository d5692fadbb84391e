"""AST types and canonical text form for the logic-program fragment.

The fragment is ground (no logic variables): constants are lowercase
identifiers or single-quoted strings, atoms are ``pred`` or
``pred(c1,...,cn)``, clause heads are probability-annotated atoms (several,
separated by ``;``, form an annotated disjunction), and bodies are
comma-separated literals with optional ``not``.

This module owns the spelling of names. :data:`IDENT` and :data:`QUOTED` are
the token patterns the parser is built from; a predicate must be an
identifier, and a constant that is not one is quoted, so it must be nonempty
and hold no quote or newline. Only the serializer refuses a name, not the
AST: :func:`format_constant` and :func:`format_atom` raise
:class:`UnrepresentableName`, so every text it writes parses back.

Serialization is canonical so that equal ASTs produce equal bytes:

* one statement per line with a blank line between statements; clauses first,
  then ``evidence/2``, then ``query/1``
* atom arguments joined by ``,`` with no space
* constants quoted only when they are not bare identifiers
* probabilities printed with up to six fractional digits, trailing zeros
  stripped, always keeping at least one digit (``1.0``, ``0.15``, ``0.9346``)

``parse(serialize(x)) == x`` holds whenever every probability in ``x`` is
representable with six fractional digits; higher-precision values round.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import UnrepresentableName
from ..model import ROW_SUM_TOLERANCE

IDENT = r"[a-z][A-Za-z0-9_]*"
QUOTED = r"'[^'\n]*'"
BARE_CONSTANT = re.compile(IDENT + r"\Z")


# Atom and Literal hash once, when built, to the dataclass's own value (the
# hash of their field tuple); a pickled node is rebuilt through its
# constructor, so it hashes afresh under another PYTHONHASHSEED
@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.predicate, self.args)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Atom, (self.predicate, self.args)

    def __str__(self) -> str:
        return format_atom(self)


@dataclass(frozen=True)
class Literal:
    atom: Atom
    negated: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.atom, self.negated)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Literal, (self.atom, self.negated)


@dataclass(frozen=True)
class ProbHead:
    """One ``p::atom`` alternative in a clause head."""

    probability: float
    atom: Atom

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"head probability {self.probability!r} outside [0, 1]")


@dataclass(frozen=True)
class Clause:
    heads: tuple[ProbHead, ...]
    body: tuple[Literal, ...] = ()

    def __post_init__(self) -> None:
        if not self.heads:
            raise ValueError("clause needs at least one head")


@dataclass(frozen=True)
class Evidence:
    atom: Atom
    value: bool


@dataclass(frozen=True)
class Query:
    atom: Atom


@dataclass(frozen=True)
class ProblogProgram:
    clauses: tuple[Clause, ...] = ()
    evidence: tuple[Evidence, ...] = ()
    queries: tuple[Query, ...] = ()


def validate_program(program: ProblogProgram) -> list[str]:
    """Return semantic complaints not caught at parse time.

    Currently: annotated-disjunction head mass above 1 (within
    ``ROW_SUM_TOLERANCE`` slack for decimal rounding). Individual head
    probabilities are range-checked at construction.
    """

    problems: list[str] = []
    for i, clause in enumerate(program.clauses):
        total = sum(h.probability for h in clause.heads)
        if total > 1.0 + ROW_SUM_TOLERANCE:
            problems.append(
                f"clause {i + 1} ({format_clause(clause)}): head probabilities sum to {total!r} > 1"
            )
    return problems


# ---------------------------------------------------------------------------
# canonical text form
# ---------------------------------------------------------------------------


def format_probability(p: float) -> str:
    # every program text spells a probability here; ``+ 0.0`` turns a stored
    # -0.0 (validation accepts it) into 0.0 and leaves any other float as it is
    s = f"{p + 0.0:.6f}".rstrip("0")
    return s + "0" if s.endswith(".") else s


def format_constant(value: str) -> str:
    if BARE_CONSTANT.match(value):
        return value
    if value == "" or "'" in value or "\n" in value:
        raise UnrepresentableName(f"constant {value!r} cannot be written: empty, or holds a quote or a newline")
    return f"'{value}'"


def format_atom(atom: Atom) -> str:
    if not BARE_CONSTANT.match(atom.predicate):
        raise UnrepresentableName(f"predicate {atom.predicate!r} cannot be written: not a lowercase identifier")
    if not atom.args:
        return atom.predicate
    return f"{atom.predicate}({','.join(format_constant(a) for a in atom.args)})"


def format_literal(literal: Literal) -> str:
    text = format_atom(literal.atom)
    return f"not {text}" if literal.negated else text


def format_clause(clause: Clause) -> str:
    heads = "; ".join(f"{format_probability(h.probability)}::{format_atom(h.atom)}" for h in clause.heads)
    if not clause.body:
        return f"{heads}."
    return f"{heads} :- {', '.join(format_literal(l) for l in clause.body)}."


def statement_lines(program: ProblogProgram) -> list[str]:
    """One canonical line per statement: clauses, then evidence, then queries."""

    lines = [format_clause(c) for c in program.clauses]
    lines += [f"evidence({format_atom(e.atom)}, {'true' if e.value else 'false'})." for e in program.evidence]
    lines += [f"query({format_atom(q.atom)})." for q in program.queries]
    return lines


def join_statements(lines: list[str]) -> str:
    """The program text of :func:`statement_lines` output."""

    return "\n\n".join(lines) + ("\n" if lines else "")


def serialize(program: ProblogProgram) -> str:
    return join_statements(statement_lines(program))
