"""The three workloads: set-up, one round of operations, and the checks.

A workload is built from the files and ``manifest.json`` that ``prepare.py``
wrote. ``setup`` loads the inputs through the package's loaders (it is what
``setup_s`` times). ``run_round`` performs every operation of one round, one
at a time, and times each; ``check(index)`` compares the outputs of round
``index`` with the reference answers and the properties, and returns the
problems found.

The package is called only through its public functions, looked up as module
attributes at call time, so that a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import bayesqa.cli
import bayesqa.dataset
import bayesqa.inference
import bayesqa.metrics
import bayesqa.model
import bayesqa.problog.parser
import bayesqa.problog.semantics
from bayesqa.errors import UnsupportedFragment, ZeroProbabilityEvidence
from calibration import Calibrator
from prepare import digest
from tracing import Tracer

TOLERANCE = 1e-9  # on every probability compared with the reference

# The two known faults an operation may end in. Any other exception, or one of
# these on an input not known to provoke it, makes the run incorrect.
FAULTS = {
    # serialize rounds each head probability to 6 decimals on its own, so a
    # full-precision row can sum 1e-6 away from 1 and compile_program rejects it
    "subset": (UnsupportedFragment, "sum to"),
    # the evidence product underflows to 0 inside eliminate on the 400-variable chain
    "chain": (ZeroProbabilityEvidence, "probability 0"),
}


@dataclass
class Op:
    label: str  # size class, or the fault family for the known failures
    failed: bool
    parts: list[tuple[float, float]]  # perf_counter() at the start and end of each timed call

    @property
    def seconds(self) -> float:
        return sum(end - start for start, end in self.parts)


@dataclass
class Round:
    ops: list[Op] = field(default_factory=list)
    items: int = 0  # instances written, programs answered, queries answered
    extra: list[Op] = field(default_factory=list)  # timed work that is not an operation (scoring)


def classify_failure(label: str, exc: Exception) -> str | None:
    """None when ``exc`` is the known fault for inputs labelled ``label``."""

    expected = FAULTS.get(label)
    if expected and isinstance(exc, expected[0]) and expected[1] in str(exc):
        return None
    return f"{label}: unexpected {type(exc).__name__}: {exc}"


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE


def check_posterior(where: str, posterior: list[float]) -> list[str]:
    if not close(sum(posterior), 1.0):
        return [f"{where}: reference posterior sums to {sum(posterior)!r}"]
    return []


class Workload:
    def __init__(self, work: Path, manifest: dict, calibrator: Calibrator, tracer: Tracer | None = None):
        self.work = work
        self.manifest = manifest
        self.cal = calibrator
        self.tracer = tracer
        self.problems: list[str] = []
        self.inputs: dict = {}

    def done(self, result: Round, label: str, t0: float, failed: bool) -> None:
        """Record an operation that started at ``t0`` and just ended."""

        result.ops.append(Op(label, failed, [(t0, time.perf_counter())]))
        self.cal.tick()

    def setup(self) -> None:
        """Load the inputs into ``self.inputs``; the caller empties it first."""

        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError

    def check(self, index: int) -> list[str]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# gen-corpus
# ---------------------------------------------------------------------------


class GenCorpus(Workload):
    """One operation generates the corpus of one size class: one
    ``bayesqa gen-dataset`` call per network of the class. The calls are
    timed one by one, so that each is scaled by the machine speed of its own
    moment, and the operation's time is their sum."""

    def setup(self) -> None:
        self.inputs["networks"] = [
            bayesqa.model.load_network(self.work / net["path"])
            for call in self.manifest["calls"]
            for net in call["networks"]
        ]

    def run_round(self) -> Round:
        # Every round writes the same files into the same directories, so
        # later rounds overwrite files in place rather than create them anew.
        result = Round()
        for call in self.manifest["calls"]:
            op = Op(call["class"], False, [])
            for net in call["networks"]:
                argv = ["gen-dataset", str(self.work / net["path"]), "--count", str(self.manifest["count"]),
                        "--seed", str(self.manifest["gen_seed"]), "--out", str(self.work / "out" / net["path"])]
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = bayesqa.cli.main(argv)
                op.parts.append((t0, time.perf_counter()))
                self.cal.tick()
                if code != 0:
                    op.failed = True
                    self.problems.append(f"gen-dataset exited {code} on {net['path']}")
                else:
                    result.items += net["instances"]
            result.ops.append(op)
        return result

    def check(self, index: int) -> list[str]:
        problems = []
        for call in self.manifest["calls"]:
            for net in call["networks"]:
                out = self.work / "out" / net["path"]
                if not out.is_dir():
                    continue
                if digest(out) != net["digest"]:
                    problems.append(f"{net['path']}: output differs from another generation with the same seed")
                if index == 0:
                    problems += self.check_dataset(out, net)
        return problems

    def check_dataset(self, out: Path, net: dict) -> list[str]:
        problems = []
        records = [json.loads(line) for line in (out / "dataset.jsonl").read_text(encoding="utf-8").splitlines()]
        if len(records) != net["instances"]:
            problems.append(f"{net['path']}: {len(records)} instances, expected {net['instances']}")
        for r in records:
            ref = net["reference"][r["id"]]
            where = r["id"]
            problems += check_posterior(where, ref["posterior"])
            if not close(r["gold"], ref["posterior"][ref["state"]]):
                problems.append(f"{where}: gold {r['gold']!r} != reference {ref['posterior'][ref['state']]!r}")
            if r["reasoning_types"] != ref["labels"] or r["primary_type"] != ref["primary"]:
                problems.append(f"{where}: labels {r['reasoning_types']}/{r['primary_type']} "
                                f"!= {ref['labels']}/{ref['primary']} from the edges")
            program = out / f"{r['id']}.pl"
            if not program.is_file() or "query(" not in program.read_text(encoding="utf-8"):
                problems.append(f"{where}: missing or queryless program file")
        return problems


# ---------------------------------------------------------------------------
# solve-eval
# ---------------------------------------------------------------------------


class SolveEval(Workload):
    """One operation is ``parse`` plus ``evaluate`` of one instance program;
    the pass ends with ``metrics.score`` of all answers against the golds."""

    def setup(self) -> None:
        self.inputs["networks"] = [bayesqa.model.load_network(self.work / p) for p in self.manifest["networks"]]
        self.inputs["instances"] = bayesqa.dataset.load_dataset(self.work / self.manifest["dataset"])
        self.inputs["texts"] = [
            (self.work / p["path"]).read_text(encoding="utf-8") for p in self.manifest["programs"]
        ]

    def run_round(self) -> Round:
        result = Round()
        self.answers: list[float | None] = []
        predictions = []
        for rec, text in zip(self.manifest["programs"], self.inputs["texts"]):
            t0 = time.perf_counter()
            try:
                answers = bayesqa.problog.semantics.evaluate(bayesqa.problog.parser.parse(text))
            except Exception as exc:  # counted, and judged against FAULTS
                self.done(result, rec["class"], t0, True)
                problem = classify_failure(rec["class"], exc)
                if problem:
                    self.problems.append(problem)
                self.answers.append(None)
                predictions.append(bayesqa.metrics.Prediction(rec["id"], error=type(exc).__name__))
                continue
            self.done(result, rec["class"], t0, False)
            (value,) = answers.values()
            self.answers.append(value)
            predictions.append(bayesqa.metrics.Prediction(rec["id"], value))
            result.items += 1
        t0 = time.perf_counter()
        self.report = bayesqa.metrics.score(self.inputs["instances"], predictions)
        result.extra.append(Op("score", False, [(t0, time.perf_counter())]))
        self.cal.tick()
        return result

    def check(self, index: int) -> list[str]:
        problems = []
        programs = self.manifest["programs"]
        if index == 0:
            self.first_answers = list(self.answers)
            by_id = {inst.id: inst for inst in self.inputs["instances"]}
            for rec, value in zip(programs, self.answers):
                inst = by_id[rec["id"]]
                where = rec["id"]
                problems += check_posterior(where, rec["posterior"])
                truth = rec["posterior"][rec["state"]]
                if not close(inst.gold, truth):
                    problems.append(f"{where}: gold {inst.gold!r} != reference {truth!r}")
                if value is not None and not close(value, truth):
                    problems.append(f"{where}: answer {value!r} != reference {truth!r}")
                if list(inst.reasoning_types) != rec["labels"] or inst.primary_type != rec["primary"]:
                    problems.append(f"{where}: labels differ from those recomputed from the edges")
        elif self.answers != self.first_answers:
            problems.append("answers differ between rounds")
        answered = sum(v is not None for v in self.answers)
        overall = self.report.overall
        if overall.n != len(programs) or not close(overall.pct_correct, 100.0 * answered / len(programs)):
            problems.append(f"score: n={overall.n} correct={overall.pct_correct}% for {answered} right answers")
        return problems


# ---------------------------------------------------------------------------
# infer-ladder
# ---------------------------------------------------------------------------


class InferLadder(Workload):
    """One operation is one ``eliminate`` query; every state of each query
    variable is asked in turn, so the answers of a group must sum to 1."""

    RUNG_CLASS = {"small": "small", "mid": "mid", "cliff": "large", "chain": "chain"}

    def setup(self) -> None:
        self.inputs["networks"] = {
            n["path"]: bayesqa.model.load_network(self.work / n["path"]) for n in self.manifest["networks"]
        }

    def run_round(self) -> Round:
        result = Round()
        self.answers: list[list[float | None]] = []
        for q in self.manifest["queries"]:
            net = self.inputs["networks"][q["network"]]
            label = self.RUNG_CLASS[q["rung"]]
            if self.tracer is not None:
                self.tracer.tag = q["rung"]
            group = []
            for state in q["states"]:
                t0 = time.perf_counter()
                try:
                    value = bayesqa.inference.eliminate(net, q["query"], state, q["evidence"]).probability
                except Exception as exc:  # counted, and judged against FAULTS
                    self.done(result, q["rung"], t0, True)
                    problem = classify_failure(q["rung"], exc)
                    if problem:
                        self.problems.append(problem)
                    group.append(None)
                    continue
                self.done(result, label, t0, False)
                group.append(value)
                result.items += 1
            self.answers.append(group)
        return result

    def check(self, index: int) -> list[str]:
        if index > 0:
            return [] if self.answers == self.first_answers else ["answers differ between rounds"]
        self.first_answers = self.answers
        problems = []
        for q, group in zip(self.manifest["queries"], self.answers):
            where = f"{q['network']}:{q['query']}"
            problems += check_posterior(where, list(q["posterior"].values()))
            for state, value in zip(q["states"], group):
                truth = q["posterior"][state]
                if value is not None and not close(value, truth):
                    problems.append(f"{where}={state}: {value!r} != reference {truth!r}")
            if len(group) > 1 and None not in group and not close(sum(group), 1.0):
                problems.append(f"{where}: posteriors over the states sum to {sum(group)!r}")
        return problems


WORKLOADS = {"gen-corpus": GenCorpus, "solve-eval": SolveEval, "infer-ladder": InferLadder}
