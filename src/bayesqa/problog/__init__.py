"""A ProbLog-style probabilistic logic fragment.

Ground programs built from probabilistic facts, annotated disjunctions, and
rules with negation-as-failure, plus ``evidence/2`` and ``query/1``
directives. Submodules:

* :mod:`.syntax` — AST types and the canonical serializer
* :mod:`.parser` — statement scan, with a tokenizer and recursive-descent
  parser for every other text
* :mod:`.convert` — translation to and from Bayesian networks
* :mod:`.semantics` — query evaluation (via the network translation) and an
  independent possible-world enumerator implementing the distribution
  semantics directly
"""

from .syntax import (
    Atom,
    Clause,
    Evidence,
    Literal,
    ProbHead,
    ProblogProgram,
    Query,
    format_atom,
    format_probability,
    serialize,
    validate_program,
)
from .parser import parse, parse_atom
from .convert import bn_to_problog, problog_to_bn
from .semantics import evaluate, enumerate_worlds

__all__ = [
    "Atom",
    "Clause",
    "Evidence",
    "Literal",
    "ProbHead",
    "ProblogProgram",
    "Query",
    "format_atom",
    "format_probability",
    "serialize",
    "validate_program",
    "parse",
    "parse_atom",
    "bn_to_problog",
    "problog_to_bn",
    "evaluate",
    "enumerate_worlds",
]
