"""Discrete Bayesian networks, a probabilistic-logic program fragment, verbal
probability phrases, and a question-answering benchmark generator built on all
three.

The pieces, bottom to top:

* :mod:`bayesqa.model` — network data model, validation, canonical JSON files
* :mod:`bayesqa.inference` — exact inference by enumeration and by variable
  elimination
* :mod:`bayesqa.problog` — a ProbLog-style fragment: parser, canonical
  serializer, translation to/from networks, possible-world semantics
* :mod:`bayesqa.netops` — marginal priors and subnetwork extraction
* :mod:`bayesqa.wep` — words of estimative probability (phrase ↔ anchor)
* :mod:`bayesqa.dataset` — verbalized premises, query/evidence sampling,
  reasoning-type labels, dataset files
* :mod:`bayesqa.metrics` — scoring predictions against gold probabilities
* :mod:`bayesqa.cli` — the ``bayesqa`` command
"""

from .model import (
    BayesianNetwork,
    Cpt,
    Variable,
    Violation,
    children,
    load_network,
    make_network,
    parents,
    save_network,
    topological_order,
    validate,
)
from .inference import (
    CompiledNetwork,
    QueryResult,
    compile_network,
    conditional_query,
    eliminate,
    joint_probability,
    marginal,
    posterior,
)
from .netops import marginal_prior, subset
from .dataset import (
    DatasetInstance,
    classify_reasoning,
    dataset_stats,
    generate_dataset,
    load_dataset,
    sample_qe,
    save_dataset,
    template_premises,
)
from .metrics import Prediction, baseline_predictions, score
from .wep import (
    ANCHOR_TABLE,
    VerbalizedDistribution,
    WepEntry,
    WepSelection,
    prob_to_wep,
    verbalize_distribution,
    wep_to_prob,
)

__version__ = "0.1.0"

__all__ = [
    "BayesianNetwork",
    "Cpt",
    "Variable",
    "Violation",
    "children",
    "load_network",
    "make_network",
    "parents",
    "save_network",
    "topological_order",
    "validate",
    "CompiledNetwork",
    "QueryResult",
    "compile_network",
    "conditional_query",
    "eliminate",
    "joint_probability",
    "marginal",
    "posterior",
    "marginal_prior",
    "subset",
    "DatasetInstance",
    "classify_reasoning",
    "dataset_stats",
    "generate_dataset",
    "load_dataset",
    "sample_qe",
    "save_dataset",
    "template_premises",
    "Prediction",
    "baseline_predictions",
    "score",
    "ANCHOR_TABLE",
    "prob_to_wep",
    "verbalize_distribution",
    "VerbalizedDistribution",
    "WepEntry",
    "WepSelection",
    "wep_to_prob",
    "__version__",
]
