"""Tests of the benchmark's reference, input generator and failure rules.

    python3 -m pytest qabench -q
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import inputs
import reference

HERE = Path(__file__).resolve().parent
GALLSTONES = HERE.parent / "tests" / "data" / "gallstones.json"


def brute_force(net: reference.RefNetwork, query: str, evidence: dict[str, str]) -> np.ndarray:
    """P(query | evidence) by summing the full joint, one world at a time."""

    order = list(net.states)
    post = np.zeros(len(net.states[query]))
    for world in itertools.product(*(range(len(net.states[v])) for v in order)):
        w = dict(zip(order, world))
        if any(w[v] != net.states[v].index(s) for v, s in evidence.items()):
            continue
        p = 1.0
        for v in order:
            p *= net.tables[v][tuple(w[q] for q in net.parents[v]) + (w[v],)]
        post[w[query]] += p
    return post / post.sum()


def test_gallstones_matches_hand_sums():
    net = reference.load(GALLSTONES)
    # P(amylase=500-1400 | flatulence=true), summing gallstones out by hand
    num = 0.1531 * 0.3925 * 0.0187 + 0.8469 * 0.4307 * 0.0101
    den = 0.1531 * 0.3925 + 0.8469 * 0.4307
    post = reference.posterior(net, "amylase", {"flatulence": "true"})
    assert post[2] == pytest.approx(num / den, abs=1e-15)
    assert post[2] == pytest.approx(0.011316399030456706, abs=1e-15)
    # P(gallstones=true | amylase=300-499, flatulence=false)
    yes = 0.1531 * 0.0467 * 0.6075
    no = 0.8469 * 0.0169 * 0.5693
    post = reference.posterior(net, "gallstones", {"amylase": "300-499", "flatulence": "false"})
    assert post[0] == pytest.approx(yes / (yes + no), abs=1e-12)


def test_chain_closed_form_survives_underflow():
    doc = inputs.chain_doc()
    net = reference.from_doc(doc)
    query, evidence = inputs.chain_query()
    assert len(evidence) >= 330
    order = [v["id"] for v in doc["variables"]]
    assert reference.chain_posterior(net, order, evidence) == pytest.approx([0.1, 0.9], abs=1e-15)
    # the general contraction rescales its tables, so it does not underflow either
    assert reference.posterior(net, query, evidence) == pytest.approx([0.1, 0.9], abs=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_posterior_agrees_with_the_full_joint(seed):
    rng = np.random.default_rng(seed)
    s = inputs.random_structure(rng, 7, states=(2, 3))
    net = reference.from_doc(inputs.network_doc(rng, s, "t"))
    query = s.order[int(rng.integers(7))]
    evidence = inputs.random_evidence(rng, s, query, 3)
    post = reference.posterior(net, query, evidence)
    assert post.sum() == pytest.approx(1.0, abs=1e-12)
    assert post == pytest.approx(brute_force(net, query, evidence), abs=1e-12)


def test_barren_nodes_are_removed():
    rng = np.random.default_rng(3)
    s = inputs.random_structure(rng, 9, states=(2, 3))
    net = reference.from_doc(inputs.network_doc(rng, s, "t"))
    assert reference.ancestral_set(net, {"v0"}) == {"v0"}
    assert reference.posterior(net, "v0", {}) == pytest.approx(net.tables["v0"], abs=1e-15)


def test_zero_probability_evidence_is_refused():
    net = reference.from_doc(
        {
            "variables": [{"id": "a", "states": ["true", "false"]}, {"id": "b", "states": ["true", "false"]}],
            "cpts": [
                {"variable": "a", "parents": [], "rows": [{"given": {}, "p": [1.0, 0.0]}]},
                {"variable": "b", "parents": ["a"], "rows": [
                    {"given": {"a": "true"}, "p": [0.5, 0.5]}, {"given": {"a": "false"}, "p": [0.5, 0.5]}]},
            ],
        }
    )
    with pytest.raises(ZeroDivisionError):
        reference.posterior(net, "b", {"a": "false"})


def test_reasoning_labels_come_from_edges():
    # a -> q -> c <- b
    doc = {
        "variables": [{"id": v, "states": ["true", "false"]} for v in "aqcb"],
        "cpts": [
            {"variable": "a", "parents": [], "rows": [{"given": {}, "p": [0.5, 0.5]}]},
            {"variable": "b", "parents": [], "rows": [{"given": {}, "p": [0.5, 0.5]}]},
            {"variable": "q", "parents": ["a"], "rows": [
                {"given": {"a": s}, "p": [0.5, 0.5]} for s in ("true", "false")]},
            {"variable": "c", "parents": ["q", "b"], "rows": [
                {"given": {"q": x, "b": y}, "p": [0.5, 0.5]} for x in ("true", "false") for y in ("true", "false")]},
        ],
    }
    net = reference.from_doc(doc)
    assert reference.reasoning_labels(net, set(), "q") == ([], "none")
    assert reference.reasoning_labels(net, {"a"}, "q") == (["causal"], "causal")
    assert reference.reasoning_labels(net, {"c"}, "q") == (["evidential"], "evidential")
    assert reference.reasoning_labels(net, {"b"}, "q") == ([], "none")
    assert reference.reasoning_labels(net, {"a", "c", "b"}, "q") == (
        ["causal", "evidential", "explaining_away"], "explaining_away")


def test_elimination_profile_of_a_chain():
    s = inputs.structure_of(inputs.chain_doc())
    prof = inputs.elimination_profile(s, s.order[-1])
    assert prof.largest == 8  # never more than three binary variables at once
    assert prof.entries < 8 * len(s.order)


@pytest.mark.parametrize("seed", range(4))
def test_elimination_profile_predicts_the_largest_table(seed, monkeypatch):
    import bayesqa.inference as inference
    from bayesqa.model import network_from_dict

    rng = np.random.default_rng(seed)
    s = inputs.random_structure(rng, 24, states=(2, 4))
    net = network_from_dict(inputs.network_doc(rng, s, "t"))
    largest = 0
    multiply = inference._multiply

    def recording(a, b, card):
        nonlocal largest
        out = multiply(a, b, card)
        largest = max(largest, out.values.size)
        return out

    monkeypatch.setattr(inference, "_multiply", recording)
    query = s.order[-1]
    inference.eliminate(net, query, net.states(query)[0], inputs.random_evidence(rng, s, query, 3))
    assert largest == inputs.elimination_profile(s, query).largest


def prepare(tmp_path: Path, workload: str, seed: int, name: str) -> Path:
    out = tmp_path / name
    subprocess.run(
        [sys.executable, str(HERE / "prepare.py"), "--workload", workload, "--seed", str(seed), "--out", str(out)],
        check=True,
    )
    return out


def tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_inputs_repeat_for_a_seed_and_change_with_it(tmp_path):
    first = tree(prepare(tmp_path, "infer-ladder", 5, "a"))
    assert first == tree(prepare(tmp_path, "infer-ladder", 5, "b"))
    other = tree(prepare(tmp_path, "infer-ladder", 6, "c"))
    assert first["networks/small0.json"] != other["networks/small0.json"]
    # the chain never depends on the seed: its queries are the known failure
    assert first["networks/chain.json"] == other["networks/chain.json"]


def test_known_faults_are_real_and_recognised(tmp_path):
    from bayesqa.errors import UnsupportedFragment, ZeroProbabilityEvidence
    from bayesqa.inference import eliminate
    from bayesqa.model import load_network
    from bayesqa.problog import evaluate, parse

    import workloads

    out = prepare(tmp_path, "solve-eval", 1, "s")
    manifest = json.loads((out / "manifest.json").read_text())
    failing = [p for p in manifest["programs"] if p["class"] == "subset"]
    assert failing
    for rec in failing:
        with pytest.raises(UnsupportedFragment) as info:
            evaluate(parse((out / rec["path"]).read_text()))
        assert workloads.classify_failure("subset", info.value) is None
        assert workloads.classify_failure("mid", info.value) is not None

    inputs.write_doc(inputs.chain_doc(), tmp_path / "chain.json")
    query, evidence = inputs.chain_query()
    with pytest.raises(ZeroProbabilityEvidence) as info:
        eliminate(load_network(tmp_path / "chain.json"), query, "true", evidence)
    assert workloads.classify_failure("chain", info.value) is None
    assert workloads.classify_failure("chain", ValueError("x")) is not None
