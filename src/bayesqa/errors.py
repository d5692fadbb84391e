"""Exception types shared across the package.

Every domain failure raised by library code derives from :class:`BayesqaError`
so the CLI can map it to a diagnostic message and exit code 1, while genuine
bugs keep surfacing as ordinary tracebacks.
"""

from __future__ import annotations


class BayesqaError(Exception):
    """Base class for all domain errors raised by this package."""


class NetworkFormatError(BayesqaError):
    """A network file is malformed or violates a structural invariant."""


class UnknownVariable(BayesqaError):
    """A variable id does not exist in the network."""


class UnknownState(BayesqaError):
    """A state name is not among the declared states of its variable."""


class QueryEvidenceOverlap(BayesqaError):
    """The query variable also appears in the evidence."""


class ZeroProbabilityEvidence(BayesqaError):
    """The conditioning event has probability zero, so the query is undefined."""


class ProblogSyntaxError(BayesqaError):
    """Program text could not be parsed; message carries line/column and a hint."""


class UnsupportedFragment(BayesqaError):
    """A syntactically valid program falls outside the supported fragment."""


class UnknownClause(BayesqaError):
    """A body, evidence, or query atom does not resolve to any defined atom."""


class UnrepresentableName(BayesqaError):
    """A name cannot be written in program text: a predicate (variable id)
    that is not a lowercase identifier, or a constant (state, entity) that is
    empty or holds a quote or a newline. Raised only by the serializer in
    :mod:`bayesqa.problog.syntax`."""


class EnumerationBoundExceeded(BayesqaError):
    """Enumeration would walk more than ``inference.MAX_JOINT_STATES`` possible
    worlds (``enumerate_worlds``) or joint states left by the evidence
    (``constrained_sweep``); checked before the first step."""


class FactorBoundExceeded(BayesqaError):
    """Variable elimination would build a table of more than
    ``inference.MAX_FACTOR_ENTRIES`` entries; predicted from the elimination
    order before the first table is made."""


class UnstratifiedNegation(BayesqaError):
    """Negation occurs inside a dependency cycle, so minimal models are ambiguous."""


class UnknownWepPhrase(BayesqaError):
    """A phrase is not in the estimative-probability table."""


class UnsatisfiableEvidence(BayesqaError):
    """Evidence sampling kept hitting zero-probability assignments."""


class PredictionMismatch(BayesqaError):
    """Prediction records do not line up one-to-one with dataset instances."""
