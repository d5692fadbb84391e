"""Prediction validity, correctness tolerance, and report aggregation."""

from __future__ import annotations

import math

import pytest

from bayesqa.dataset import Binding, DatasetInstance, Premise
from bayesqa.errors import NetworkFormatError, PredictionMismatch
from bayesqa.metrics import (
    Prediction,
    baseline_predictions,
    instance_premise_count,
    is_correct,
    load_predictions,
    prediction_is_valid,
    report_to_dict,
    save_predictions,
    score,
)


def _inst(iid, gold, *, network="net", primary="causal", rows=1):
    premises = tuple(
        Premise(kind=kind, text="p", clause_ref=i, variable="v", parent_assignment=())
        for kind in ("numeric", "wep")
        for i in range(rows)
    )
    return DatasetInstance(
        id=iid,
        network=network,
        premises=premises,
        evidence=(Binding("e", "t", "e is t."),),
        question=Binding("q", "t", "What is the probability that q is t?"),
        gold=gold,
        reasoning_types=(primary,) if primary != "none" else (),
        primary_type=primary,
        seed=0,
        index=0,
    )


class TestValidity:
    def test_valid_values(self):
        assert prediction_is_valid(Prediction("a", 0.0))
        assert prediction_is_valid(Prediction("a", 1.0))
        assert prediction_is_valid(Prediction("a", 0.37))

    @pytest.mark.parametrize(
        "pred",
        [
            Prediction("a", None),
            Prediction("a", 0.4, error="refused"),
            Prediction("a", float("nan")),
            Prediction("a", float("inf")),
            Prediction("a", -0.1),
            Prediction("a", 1.1),
        ],
    )
    def test_invalid_values(self, pred):
        assert not prediction_is_valid(pred)


class TestIsCorrect:
    def test_relative_tolerance(self):
        assert is_correct(0.5, 0.5)
        assert is_correct(0.5, 0.50004)
        assert not is_correct(0.5, 0.5001)
        assert is_correct(1.0, 0.9999)

    def test_absolute_floor_near_zero(self):
        assert is_correct(0.0, 5e-10)
        assert not is_correct(0.0, 2e-9)

    def test_symmetry(self):
        assert is_correct(0.2, 0.20001) == is_correct(0.20001, 0.2)


class TestScore:
    def test_worked_example(self):
        instances = [_inst("a", 0.1), _inst("b", 0.5)]
        preds = [Prediction("a", 0.2), Prediction("b", error="no number found")]
        report = score(instances, preds)
        block = report.overall
        assert block.n == 2
        assert block.pct_correct == 0.0
        assert block.pct_wrong == 50.0
        assert block.pct_error == 50.0
        assert block.rmse_50 == pytest.approx(math.sqrt(0.01 / 2), abs=1e-6)
        assert block.rmse_non_error == pytest.approx(0.1, abs=1e-6)

    def test_all_invalid_has_no_non_error_rmse(self):
        report = score([_inst("a", 0.3)], [Prediction("a", error="x")])
        assert report.overall.rmse_non_error is None
        assert report.overall.pct_error == 100.0

    def test_grouping(self):
        instances = [
            _inst("a", 0.2, network="n1", primary="causal"),
            _inst("b", 0.4, network="n1", primary="evidential"),
            _inst("c", 0.6, network="n2", primary="causal"),
        ]
        preds = [Prediction(i, v) for i, v in (("a", 0.2), ("b", 0.4), ("c", 0.9))]
        report = score(instances, preds)
        assert sorted(report.by_network) == ["n1", "n2"]
        assert report.by_network["n1"].n == 2
        assert report.by_reasoning["causal"].n == 2
        assert report.by_reasoning["evidential"].pct_correct == 100.0
        assert report.by_network["n2"].pct_wrong == 100.0

    def test_premise_buckets(self):
        instances = [
            _inst("a", 0.2, rows=2),
            _inst("b", 0.2, rows=4),
            _inst("c", 0.2, rows=7),
        ]
        preds = baseline_predictions(instances)
        report = score(instances, preds, bucket_edges=[2, 5])
        assert sorted(report.by_premises) == ["3-5", "<=2", ">5"]
        unbucketed = score(instances, preds)
        assert sorted(unbucketed.by_premises) == ["2", "4", "7"]

    def test_mismatches(self):
        instances = [_inst("a", 0.5)]
        with pytest.raises(PredictionMismatch, match="duplicate"):
            score(instances, [Prediction("a", 0.5), Prediction("a", 0.6)])
        with pytest.raises(PredictionMismatch, match="unknown"):
            score(instances, [Prediction("a", 0.5), Prediction("z", 0.6)])
        with pytest.raises(PredictionMismatch, match="missing"):
            score(instances, [])
        with pytest.raises(ValueError):
            score([], [])

    def test_premise_count_is_distinct_rows(self):
        assert instance_premise_count(_inst("a", 0.5, rows=3)) == 3


class TestBaseline:
    def test_constant_half(self):
        instances = [_inst("a", 0.5), _inst("b", 0.25)]
        preds = baseline_predictions(instances)
        assert preds == [Prediction("a", 0.5), Prediction("b", 0.5)]
        report = score(instances, preds)
        assert report.overall.pct_error == 0.0
        assert report.overall.rmse_50 == report.overall.rmse_non_error
        assert report.overall.pct_correct == 50.0  # the gold-0.5 instance

    def test_custom_value(self):
        preds = baseline_predictions([_inst("a", 0.5)], value=0.25)
        assert preds[0].value == 0.25


class TestPredictionFiles:
    def test_round_trip(self, tmp_path):
        preds = [
            Prediction("a", 0.25),
            Prediction("b", error="refused to answer"),
            Prediction("c", 1.0),
        ]
        path = tmp_path / "preds.jsonl"
        save_predictions(preds, path)
        assert load_predictions(path) == preds

    def test_bad_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"value": 0.5}\n', encoding="utf-8")
        with pytest.raises(NetworkFormatError, match="bad.jsonl:1"):
            load_predictions(path)

    @pytest.mark.parametrize("value", ["true", "false", '"0.25"', "[0.25]"])
    def test_value_that_is_not_a_number_is_a_bad_record(self, tmp_path, value):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "value": %s}\n' % value, encoding="utf-8")
        with pytest.raises(NetworkFormatError, match=r"bad.jsonl:1: bad prediction record \(value must be a number or null"):
            load_predictions(path)

    def test_number_and_null_values(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"id": "a", "value": 1}\n{"id": "b", "value": null}\n{"id": "c"}\n', encoding="utf-8")
        preds = load_predictions(path)
        assert preds == [Prediction("a", 1.0), Prediction("b"), Prediction("c")]
        assert type(preds[0].value) is float
        # null is a prediction without a value: it counts as an error
        report = score([_inst("a", 1.0), _inst("b", 0.5), _inst("c", 0.5)], preds)
        assert report.overall.pct_correct == pytest.approx(100 / 3)
        assert report.overall.pct_error == pytest.approx(200 / 3)


class TestReportDict:
    def test_shape(self):
        instances = [_inst("a", 0.2)]
        report = score(instances, [Prediction("a", 0.2)])
        doc = report_to_dict(report)
        assert set(doc) == {"overall", "by_reasoning", "by_network", "by_premises"}
        assert doc["overall"]["pct_correct"] == 100.0
        assert doc["by_reasoning"]["causal"]["n"] == 1
