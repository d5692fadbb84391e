"""Spans around the package's public functions, for the traced run.

:func:`install` replaces each function named in :data:`LAYERS` by a wrapper
wherever a ``bayesqa`` module holds it as an attribute (modules import each
other's functions by name, so one function can sit in several modules). The
wrapper records one span per call: name, start, end, parent span, the run
phase and a tag the workload sets (the ladder rung). Some wrappers also count
work at the same boundary, such as bytes serialised. Nothing under ``src/``
changes, and untraced runs never call :func:`install`.

Spans stay in memory; :func:`layer_metrics` reduces them when the run ends.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    phase: str
    tag: str
    start: float
    end: float = 0.0
    count: float = 0.0  # work counted at this boundary (bytes, worlds, ...)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    phase: str = "setup"
    tag: str = ""
    _stack: list[Span] = field(default_factory=list)

    def wrap(self, name: str, func: Callable, count: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), name, parent.id if parent else None, self.phase, self.tag,
                        time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_time += span.duration
            if count is not None:
                span.count = count(args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced


def _worlds(args, kwargs, result) -> float:
    network, constraints = args[0], dict(args[1])
    worlds = 1
    for vid in network.variables:
        allowed = constraints.get(vid)
        if allowed is None:
            worlds *= len(network.states(vid))
        else:
            worlds *= 1 if isinstance(allowed, str) else len(allowed)
    return worlds


def _file_bytes(args, kwargs, result) -> float:
    return os.path.getsize(args[1])


# span name -> (module, function, counter at the boundary)
LAYERS: dict[str, tuple[str, str, Callable | None]] = {
    "model.load_network": ("bayesqa.model", "load_network", None),
    "dataset.load_dataset": ("bayesqa.dataset", "load_dataset", None),
    "cli.gen_dataset": ("bayesqa.cli", "cmd_gen_dataset", None),
    "dataset.generate_dataset": ("bayesqa.dataset", "generate_dataset", None),
    "dataset.template_premises": ("bayesqa.dataset", "template_premises", None),
    "dataset.sample_qe": ("bayesqa.dataset", "sample_qe", None),
    "dataset.instance_program": ("bayesqa.dataset", "instance_program", None),
    "dataset.save_dataset": ("bayesqa.dataset", "save_dataset", _file_bytes),
    "inference.eliminate": ("bayesqa.inference", "eliminate", None),
    "inference.constrained_sweep": ("bayesqa.inference", "constrained_sweep", _worlds),
    "problog.convert.bn_to_problog": ("bayesqa.problog.convert", "bn_to_problog", None),
    "problog.convert.compile_program": ("bayesqa.problog.convert", "compile_program", None),
    "problog.syntax.serialize": (
        "bayesqa.problog.syntax", "serialize", lambda a, k, r: len(r.encode("utf-8"))),
    "problog.parser.parse": (
        "bayesqa.problog.parser", "parse", lambda a, k, r: len(a[0].encode("utf-8"))),
    "problog.semantics.evaluate": ("bayesqa.problog.semantics", "evaluate", None),
    "metrics.score": ("bayesqa.metrics", "score", None),
}


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every function of :data:`LAYERS`; returns a function that undoes it."""

    for module, _, _ in LAYERS.values():
        importlib.import_module(module)
    modules = [m for name, m in sys.modules.items() if name == "bayesqa" or name.startswith("bayesqa.")]
    undo: list[tuple[object, str, Callable]] = []
    for name, (module, attr, count) in LAYERS.items():
        original = getattr(sys.modules[module], attr)
        wrapper = tracer.wrap(name, original, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))

    def restore() -> None:
        for mod, key, original in undo:
            setattr(mod, key, original)

    return restore


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

RUNGS = ("small", "mid", "cliff", "chain")


def layer_metrics(tracer: Tracer, *, rounds: int, setups: int) -> dict[str, tuple[float, str]]:
    """Reduce the spans to the per-layer metrics, as ``name -> (value, unit)``.

    Times and counts of the measured phase are per round; times of the set-up
    phase are per set-up. A layer the workload does not use reads 0.
    """

    def spans(name: str, phase: str = "ops", tag: str | None = None) -> list[Span]:
        return [s for s in tracer.spans if s.name == name and s.phase == phase and (tag is None or s.tag == tag)]

    def ms(name: str, *, self_only: bool = False, phase: str = "ops", tag: str | None = None) -> float:
        chosen = spans(name, phase, tag)
        total = sum(s.self_time if self_only else s.duration for s in chosen)
        return 1000.0 * total / (rounds if phase == "ops" else setups)

    def per_round(value: float) -> float:
        return value / rounds

    def total_count(name: str) -> float:
        return sum(s.count for s in spans(name))

    sample_ids = {s.id for s in spans("dataset.sample_qe")}
    draws = sum(1 for s in spans("inference.eliminate") if s.parent in sample_ids)
    parsed = spans("problog.parser.parse")
    parse_s = sum(s.duration for s in parsed)

    out: dict[str, tuple[float, str]] = {
        "model.load_network_ms": (ms("model.load_network", phase="setup"), "ms"),
        "dataset.load_dataset_ms": (ms("dataset.load_dataset", phase="setup"), "ms"),
        "cli.gen_dataset.self_ms": (ms("cli.gen_dataset", self_only=True), "ms"),
        "dataset.generate_dataset.self_ms": (ms("dataset.generate_dataset", self_only=True), "ms"),
        "dataset.template_premises_ms": (ms("dataset.template_premises"), "ms"),
        "dataset.instance_program.self_ms": (ms("dataset.instance_program", self_only=True), "ms"),
        "inference.eliminate_ms": (ms("inference.eliminate"), "ms"),
        "inference.eliminate_calls": (per_round(len(spans("inference.eliminate"))), "count"),
        "dataset.sample_qe.useful_ratio": (len(sample_ids) / draws if draws else 0.0, "ratio"),
        "problog.convert.bn_to_problog_calls": (per_round(len(spans("problog.convert.bn_to_problog"))), "count"),
        "problog.convert.bn_to_problog_ms": (ms("problog.convert.bn_to_problog"), "ms"),
        "problog.syntax.serialize_ms": (ms("problog.syntax.serialize"), "ms"),
        "problog.syntax.bytes": (per_round(total_count("problog.syntax.serialize")), "B"),
        "dataset.save_dataset_ms": (ms("dataset.save_dataset"), "ms"),
        "dataset.jsonl_bytes": (per_round(total_count("dataset.save_dataset")), "B"),
        "problog.parser.parse_ms": (ms("problog.parser.parse"), "ms"),
        "problog.parser.bytes_per_s": (
            sum(s.count for s in parsed) / parse_s if parse_s else 0.0, "B/s"),
        "problog.convert.compile_program_ms": (ms("problog.convert.compile_program"), "ms"),
        "inference.constrained_sweep_ms": (ms("inference.constrained_sweep"), "ms"),
        "inference.sweep_worlds": (per_round(total_count("inference.constrained_sweep")), "count"),
        "problog.semantics.evaluate.self_ms": (ms("problog.semantics.evaluate", self_only=True), "ms"),
        "metrics.score_ms": (ms("metrics.score"), "ms"),
    }
    for rung in RUNGS:
        out[f"inference.eliminate_ms.{rung}"] = (ms("inference.eliminate", tag=rung), "ms")
    for name, (value, _) in out.items():
        if not math.isfinite(value):
            raise ArithmeticError(f"per-layer metric {name} is {value}")
    return out
