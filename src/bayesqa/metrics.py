"""Scoring predicted probabilities against dataset golds.

A prediction is *valid* when it carries a finite value in [0, 1] and no error
marker; anything else counts toward the error rate. A valid prediction is
*correct* when it matches the gold within relative tolerance 1e-4 (absolute
floor 1e-9). Two RMSE aggregates are reported: ``rmse_50`` substitutes 0.5
for invalid predictions (every instance counts), ``rmse_non_error`` averages
over valid predictions only.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .errors import PredictionMismatch
from .dataset import DatasetInstance
from .model import read_records, record_field, write_records

RELATIVE_TOLERANCE = 1e-4
ABSOLUTE_FLOOR = 1e-9
FALLBACK_VALUE = 0.5


@dataclass(frozen=True)
class Prediction:
    id: str
    value: float | None = None
    error: str | None = None


def prediction_is_valid(pred: Prediction) -> bool:
    return (
        pred.error is None
        and pred.value is not None
        and math.isfinite(pred.value)
        and 0.0 <= pred.value <= 1.0
    )


def is_correct(gold: float, predicted: float) -> bool:
    """Relative-tolerance match: |Δ| ≤ max(1e-4·max(gold, predicted), 1e-9)."""

    return abs(gold - predicted) <= max(
        RELATIVE_TOLERANCE * max(gold, predicted), ABSOLUTE_FLOOR
    )


@dataclass(frozen=True)
class MetricsBlock:
    n: int
    pct_correct: float
    pct_wrong: float
    pct_error: float
    rmse_50: float
    rmse_non_error: float | None


@dataclass(frozen=True)
class MetricsReport:
    overall: MetricsBlock
    by_reasoning: dict[str, MetricsBlock]
    by_network: dict[str, MetricsBlock]
    by_premises: dict[str, MetricsBlock]


def _block(rows: Sequence[tuple[float, Prediction]]) -> MetricsBlock:
    n = len(rows)
    correct = wrong = error = 0
    sq_50 = 0.0
    sq_valid = 0.0
    n_valid = 0
    for gold, pred in rows:
        if prediction_is_valid(pred):
            value = float(pred.value)  # type: ignore[arg-type]
            if is_correct(gold, value):
                correct += 1
            else:
                wrong += 1
            sq_valid += (gold - value) ** 2
            n_valid += 1
            sq_50 += (gold - value) ** 2
        else:
            error += 1
            sq_50 += (gold - FALLBACK_VALUE) ** 2
    return MetricsBlock(
        n=n,
        pct_correct=100.0 * correct / n,
        pct_wrong=100.0 * wrong / n,
        pct_error=100.0 * error / n,
        rmse_50=math.sqrt(sq_50 / n),
        rmse_non_error=math.sqrt(sq_valid / n_valid) if n_valid else None,
    )


def _bucket_label(count: int, edges: Sequence[int] | None) -> str:
    if not edges:
        return str(count)
    sorted_edges = sorted(edges)
    lo = None
    for edge in sorted_edges:
        if count <= edge:
            return f"<={edge}" if lo is None else f"{lo + 1}-{edge}"
        lo = edge
    return f">{sorted_edges[-1]}"


def instance_premise_count(instance: DatasetInstance) -> int:
    """Number of distinct CPT rows behind the instance's premises."""

    return len({p.clause_ref for p in instance.premises})


def score(
    instances: Sequence[DatasetInstance],
    predictions: Sequence[Prediction],
    *,
    bucket_edges: Sequence[int] | None = None,
) -> MetricsReport:
    """Match predictions to instances by id and aggregate metrics.

    Requires a one-to-one match: duplicate prediction ids, ids without an
    instance, or instances without a prediction raise
    :class:`PredictionMismatch`.
    """

    if not instances:
        raise ValueError("no instances to score")
    by_id: dict[str, Prediction] = {}
    for pred in predictions:
        if pred.id in by_id:
            raise PredictionMismatch(f"duplicate prediction for id {pred.id!r}")
        by_id[pred.id] = pred
    wanted = {inst.id for inst in instances}
    extra = sorted(set(by_id) - wanted)
    if extra:
        raise PredictionMismatch(f"predictions for unknown id(s): {', '.join(extra[:5])}")
    missing = sorted(wanted - set(by_id))
    if missing:
        raise PredictionMismatch(f"missing prediction(s) for: {', '.join(missing[:5])}")

    rows = [(inst.gold, by_id[inst.id]) for inst in instances]
    report_groups: dict[str, dict[str, list[tuple[float, Prediction]]]] = {
        "reasoning": {},
        "network": {},
        "premises": {},
    }
    for inst, row in zip(instances, rows):
        report_groups["reasoning"].setdefault(inst.primary_type, []).append(row)
        report_groups["network"].setdefault(inst.network, []).append(row)
        label = _bucket_label(instance_premise_count(inst), bucket_edges)
        report_groups["premises"].setdefault(label, []).append(row)

    return MetricsReport(
        overall=_block(rows),
        by_reasoning={k: _block(v) for k, v in sorted(report_groups["reasoning"].items())},
        by_network={k: _block(v) for k, v in sorted(report_groups["network"].items())},
        by_premises={k: _block(v) for k, v in sorted(report_groups["premises"].items())},
    )


def baseline_predictions(
    instances: Sequence[DatasetInstance], value: float = FALLBACK_VALUE
) -> list[Prediction]:
    """The constant-value baseline (default: always answer 0.5)."""

    return [Prediction(id=inst.id, value=value) for inst in instances]


# ---------------------------------------------------------------------------
# prediction files (JSON Lines: {"id": ..., "value": number or null} or {"id", "error"})
# ---------------------------------------------------------------------------


def save_predictions(predictions: Sequence[Prediction], path: str | Path) -> None:
    lines = []
    for pred in predictions:
        rec: dict[str, object] = {"id": pred.id}
        if pred.error is not None:
            rec["error"] = pred.error
        else:
            rec["value"] = pred.value
        lines.append(json.dumps(rec, ensure_ascii=False))
    write_records(path, lines)


def _prediction_from_dict(doc: dict) -> Prediction:
    id_ = record_field(doc, "id", "a string", str)
    if doc.get("error") is not None:  # "error": null is no error
        return Prediction(id=id_, error=record_field(doc, "error", "a string or null", str))
    value = doc.get("value")
    if value is not None and type(value) not in (int, float):  # a JSON true is a bool, not an int
        raise TypeError(f"value must be a number or null, got {json.dumps(value)}")
    return Prediction(id=id_, value=float(value) if value is not None else None)


def load_predictions(path: str | Path) -> list[Prediction]:
    return read_records(path, _prediction_from_dict, "prediction")


def report_to_dict(report: MetricsReport) -> dict:
    return asdict(report)
