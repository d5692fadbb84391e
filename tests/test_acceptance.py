"""Acceptance gate: the ten release criteria, one visible PASS/FAIL line each.

Each test prints its verdict on the real stdout (bypassing capture) so the
gate is readable in any pytest run, then asserts. Tolerances are part of the
contract and must not be loosened.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import netgen
from bayesqa.cli import main as cli_main
from bayesqa.dataset import classify_reasoning, dataset_stats, load_dataset
from bayesqa.inference import conditional_query, eliminate, marginal
from bayesqa.metrics import Prediction, score
from bayesqa.model import load_network, make_network
from bayesqa.problog import (
    bn_to_problog,
    enumerate_worlds,
    evaluate,
    parse,
    problog_to_bn,
    serialize,
)
from bayesqa.netops import subset
from bayesqa.wep import ANCHOR_TABLE, prob_to_wep, wep_to_prob
from conftest import (
    GALLSTONE_ANSWER,
    GALLSTONE_EVIDENCE_MARGINAL,
    GALLSTONE_JOINT_WITH_CAUSE,
    GALLSTONE_JOINT_WITHOUT_CAUSE,
    GALLSTONE_NUMERATOR,
    GALLSTONE_TEXT,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture
def report(capfd):
    """Print one PASS/FAIL line on the real terminal, then assert."""

    def _report(ok: bool, label: str) -> None:
        with capfd.disabled():
            print(f"{'PASS' if ok else 'FAIL'}: {label}", flush=True)
        assert ok, label

    return _report


def test_criterion_01_reference_program_end_to_end(report):
    t0 = time.perf_counter()
    program = parse(GALLSTONE_TEXT)
    answers = evaluate(program)
    elapsed = time.perf_counter() - t0
    (value,) = answers.values()
    ok = abs(value - 0.011316399) <= 1e-6 and elapsed < 1.0
    report(ok, f"criterion 1 - reference query = {value:.9f} in {elapsed * 1000:.0f} ms (need 0.011316399 +/- 1e-6, < 1 s)")


def test_criterion_02_reference_intermediates(gallstone_net, report):
    with_cause = marginal(
        gallstone_net,
        {"gallstones": "true", "flatulence": "true", "amylase": "500-1400"},
    )
    without_cause = marginal(
        gallstone_net,
        {"gallstones": "false", "flatulence": "true", "amylase": "500-1400"},
    )
    numerator = marginal(gallstone_net, {"flatulence": "true", "amylase": "500-1400"})
    evidence = marginal(gallstone_net, {"flatulence": "true"})
    checks = [
        abs(with_cause - GALLSTONE_JOINT_WITH_CAUSE) <= 5e-7,
        abs(without_cause - GALLSTONE_JOINT_WITHOUT_CAUSE) <= 5e-7,
        abs(numerator - GALLSTONE_NUMERATOR) <= 5e-7,
        abs(evidence - GALLSTONE_EVIDENCE_MARGINAL) <= 5e-7,
    ]
    report(all(checks), "criterion 2 - four worked intermediate quantities within 5e-7 of frozen oracle values")


def test_criterion_03_three_engines_agree(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    n_nets = 1000
    worst = 0.0
    for i in range(n_nets):
        net = netgen.random_network(rng, name=f"acc3-{i}")
        qvar, _, evidence = netgen.random_point_query(rng, net)
        program, atom_by_state = netgen.query_program(net, evidence, qvar)
        by_worlds = enumerate_worlds(program)
        for state, atom in atom_by_state.items():
            enum = conditional_query(net, qvar, state, evidence).probability
            elim = eliminate(net, qvar, state, evidence).probability
            worlds = by_worlds[atom]
            worst = max(
                worst, abs(enum - elim), abs(enum - worlds), abs(elim - worlds)
            )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 120.0
    report(ok, f"criterion 3 - {n_nets} networks, elimination/enumeration/worlds max gap {worst:.2e} in {elapsed:.1f} s (need <= 1e-9, < 2 min)")


def test_criterion_04_program_round_trip(report):
    rng = np.random.default_rng(4040)
    n_nets = 200
    worst = 0.0
    for i in range(n_nets):
        net = netgen.random_network(rng, name=f"acc4-{i}")
        again = problog_to_bn(parse(serialize(bn_to_problog(net))), name=net.name)
        for _ in range(3):
            qvar, qstate, evidence = netgen.random_point_query(rng, net)
            before = conditional_query(net, qvar, qstate, evidence).probability
            after = conditional_query(again, qvar, qstate, evidence).probability
            worst = max(worst, abs(before - after))
    ok = worst <= 1e-10
    report(ok, f"criterion 4 - {n_nets} encode/serialize/parse/decode round trips, max query gap {worst:.2e} (need <= 1e-10)")


def _five_node_net(rng: np.random.Generator):
    c_states = ("lo", "mid", "hi")
    return make_network(
        "fivenode",
        {
            "a": (("t", "f"), (), {(): netgen.grid_row(rng, 2)}),
            "b": (("t", "f"), (), {(): netgen.grid_row(rng, 2)}),
            "c": (
                c_states,
                ("a", "b"),
                {k: netgen.grid_row(rng, 3) for k in itertools.product(("t", "f"), repeat=2)},
            ),
            "d": (("t", "f"), ("c",), {(s,): netgen.grid_row(rng, 2) for s in c_states}),
            "e": (("t", "f"), ("c",), {(s,): netgen.grid_row(rng, 2) for s in c_states}),
        },
    )


def test_criterion_05_subset_extraction(report):
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(500 + seed)
        net = _five_node_net(rng)
        sub = subset(net, ["c", "d", "e"])
        kept = ["c", "d", "e"]
        for qvar in kept:
            others = [v for v in kept if v != qvar]
            for n_ev in range(len(others) + 1):
                for ev_vars in itertools.combinations(others, n_ev):
                    for ev_states in itertools.product(
                        *(net.variables[v].states for v in ev_vars)
                    ):
                        evidence = dict(zip(ev_vars, ev_states))
                        for qstate in net.variables[qvar].states:
                            full = conditional_query(net, qvar, qstate, evidence).probability
                            got = conditional_query(sub, qvar, qstate, evidence).probability
                            worst = max(worst, abs(full - got))
    ok = worst <= 1e-10
    report(ok, f"criterion 5 - five-node extraction keep {{c,d,e}}, max query gap {worst:.2e} over 5 random nets (need <= 1e-10)")


def test_criterion_06_wep_rules(report):
    # (a) anchors map back at minimal distance
    rng = np.random.default_rng(60)
    min_dist_ok = True
    for entry in ANCHOR_TABLE:
        pick = prob_to_wep(entry.anchor, rng, second_closest_prob=0.0)
        best = min(abs(entry.anchor - e.anchor) for e in ANCHOR_TABLE)
        min_dist_ok &= abs(wep_to_prob(pick.phrase) - entry.anchor) == best

    # (b) 0.38 never reads "about even"
    rng = np.random.default_rng(61)
    no_about_even = all(
        prob_to_wep(0.38, rng).phrase != "about even" for _ in range(10_000)
    )

    # (c) second-closest frequency at 0.70
    rng = np.random.default_rng(62)
    rate = sum(prob_to_wep(0.70, rng).used_second_closest for _ in range(10_000)) / 10_000
    rate_ok = 0.09 <= rate <= 0.11

    # (d) identical seeds, identical sequences
    probs = np.random.default_rng(63).random(1000)

    def run_once() -> list[str]:
        rng = np.random.default_rng(64)
        return [prob_to_wep(float(p), rng).phrase for p in probs]

    same_seq = run_once() == run_once()

    ok = min_dist_ok and no_about_even and rate_ok and same_seq
    report(ok, f"criterion 6 - phrase rules: anchors-minimal={min_dist_ok}, no-about-even@0.38={no_about_even}, second-closest rate {rate:.4f} in [0.09,0.11], reproducible={same_seq}")


def test_criterion_07_reasoning_patterns(report):
    v = make_network(
        "vstructure",
        {
            "x1": (("t", "f"), (), {(): (0.3, 0.7)}),
            "x2": (("t", "f"), (), {(): (0.6, 0.4)}),
            "x3": (
                ("t", "f"),
                ("x1", "x2"),
                {
                    ("t", "t"): (0.9, 0.1),
                    ("t", "f"): (0.7, 0.3),
                    ("f", "t"): (0.4, 0.6),
                    ("f", "f"): (0.05, 0.95),
                },
            ),
        },
    )
    checks = [
        classify_reasoning(v, ["x1"], "x3") == (("causal",), "causal"),
        classify_reasoning(v, ["x3"], "x1") == (("evidential",), "evidential"),
        classify_reasoning(v, ["x3", "x2"], "x1")
        == (("evidential", "explaining_away"), "explaining_away"),
    ]
    report(all(checks), "criterion 7 - causal / evidential / explaining-away patterns on the collider reproduce exactly")


def _metrics_instance(iid: str, gold: float):
    from bayesqa.dataset import Binding, DatasetInstance

    return DatasetInstance(
        id=iid,
        network="hand",
        premises=(),
        evidence=(Binding("e", "t", "e is t."),),
        question=Binding("q", "t", "What is the probability that q is t?"),
        gold=gold,
        reasoning_types=("causal",),
        primary_type="causal",
        seed=0,
        index=0,
    )


def test_criterion_08_metrics_hand_example(report):
    instances = [_metrics_instance("a", 0.1), _metrics_instance("b", 0.5)]
    preds = [Prediction("a", 0.2), Prediction("b", error="invalid")]
    block = score(instances, preds).overall
    checks = [
        block.pct_correct == 0.0,
        block.pct_wrong == 50.0,
        block.pct_error == 50.0,
        abs(block.rmse_50 - math.sqrt(0.01 / 2)) <= 1e-6,
        block.rmse_non_error is not None and abs(block.rmse_non_error - 0.1) <= 1e-6,
    ]
    report(all(checks), "criterion 8 - hand-scored example: 0/50/50 percent split, rmse_50 0.070711, rmse_non_error 0.1 within 1e-6")


def test_criterion_08_stretch_published_split():
    pytest.skip(
        "published benchmark split not in workspace; 50%-baseline row (0.9% correct, "
        "RMSE 0.363 +/- 0.001) not checkable here"
    )


def test_criterion_09_generation_determinism(tmp_path, capfd, report):
    net_path = str(DATA / "gallstones.json")
    digests = []
    for run in ("one", "two", "three"):
        outdir = tmp_path / run
        code = cli_main(
            ["gen-dataset", net_path, "--count", "40", "--seed", "7", "--out", str(outdir)]
        )
        assert code == 0
        digests.append((outdir / "dataset.jsonl").read_bytes())
    capfd.readouterr()
    identical = digests[0] == digests[1] == digests[2]

    net = load_network(net_path)
    instances = load_dataset(tmp_path / "one" / "dataset.jsonl")
    worst = 0.0
    for inst in instances:
        evidence = {b.variable: b.state for b in inst.evidence}
        gold = conditional_query(
            net, inst.question.variable, inst.question.state, evidence
        ).probability
        worst = max(worst, abs(gold - inst.gold))
    ok = identical and len(instances) == 40 and worst <= 1e-10
    report(ok, f"criterion 9 - dataset bytes identical across three runs; 40 golds re-verified, max gap {worst:.2e} (need <= 1e-10)")


def test_criterion_10_reference_statistics(gallstone_net, report):
    stats = dataset_stats([gallstone_net])
    checks = [
        stats.numeric_premises == 5,
        stats.wep_premises == 5,
        abs(stats.states_per_variable_mean - 7 / 3) <= 1e-9,
    ]
    report(all(checks), "criterion 10 - reference network: 5 premises per kind, mean states/variable 7/3 within 1e-9")
