"""Premise rendering, query/evidence sampling, labeling, and dataset files."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import netgen
from bayesqa import dataset, generate_dataset, make_network
from bayesqa.dataset import (
    DatasetStats,
    NetworkEncoder,
    Premise,
    classify_reasoning,
    dataset_stats,
    filter_premises,
    instance_from_dict,
    instance_program,
    instance_to_dict,
    load_dataset,
    premise_count,
    sample_qe,
    save_dataset,
    template_premises,
    _hedge_clause,
    _join_clauses,
    _percent,
    _sentence,
)
from bayesqa.errors import (
    NetworkFormatError,
    QueryEvidenceOverlap,
    UnknownState,
    UnsatisfiableEvidence,
    ZeroProbabilityEvidence,
)
from bayesqa.inference import eliminate
from bayesqa.model import parent_assignments, topological_order
from bayesqa.problog import evaluate, serialize
from bayesqa.wep import verbalize_distribution

GALLSTONE_ROW0 = (
    "The probability of gallstones being true is 15.31%, and the probability "
    "of gallstones being false is 84.69%."
)
GALLSTONE_ROW1 = (
    "If gallstones is true, then the probability of amylase being 0-299 is "
    "93.46%, the probability of amylase being 300-499 is 4.67%, and the "
    "probability of amylase being 500-1400 is 1.87%."
)


def _kind(premises, kind):
    return [p for p in premises if p.kind == kind]


def _reference_premises(network, kind, rng=None, *, second_closest_prob=0.1):
    """One kind of premise per CPT row, by its own walk over the rows, as
    ``template_premises`` first rendered them: the oracle for the one pass."""

    out = []
    ref = 0
    for vid in topological_order(network):
        var = network.variables[vid]
        cpt = network.cpts[vid]
        for key in parent_assignments(network, vid):
            conditions = " and ".join(
                f"{network.variables[p].name} is {s}" for p, s in zip(cpt.parents, key)
            )
            dist = cpt.rows[key]
            if kind == "numeric":
                parts = [
                    f"the probability of {var.name} being {s} is {_percent(p)}"
                    for s, p in zip(var.states, dist)
                ]
                consequent = _join_clauses(parts)
            else:
                rendered = verbalize_distribution(dist, rng, second_closest_prob=second_closest_prob)
                if rendered.phrases is None:
                    consequent = f"the states of {var.name} are all equally likely"
                else:
                    parts = [
                        _hedge_clause(phrase, f"{var.name} is {s}")
                        for s, phrase in zip(var.states, rendered.phrases)
                    ]
                    consequent = _join_clauses(parts)
            text = _sentence(conditions, consequent)
            if kind == "wep" and rendered.phrases is not None and rendered.argmax_states:
                top = " or ".join(var.states[i] for i in rendered.argmax_states)
                text += f" The most likely state of {var.name} is {top}."
            out.append(
                Premise(
                    kind=kind,
                    text=text,
                    clause_ref=ref,
                    variable=vid,
                    parent_assignment=tuple(sorted(zip(cpt.parents, key))),
                )
            )
            ref += 1
    return out


UNIFORM_NET = make_network(
    "u",
    {"a": (("x", "y"), (), {(): (0.5, 0.5)}),
     "b": (("x", "y"), ("a",), {("x",): (0.3, 0.7), ("y",): (0.6, 0.4)})},
)
LOW_NET = make_network(
    "low",
    {"a": (("s0", "s1", "s2", "s3"), (), {(): (0.2, 0.2, 0.3, 0.3)}),
     "b": (("x", "y"), ("a",), {(s,): (0.5, 0.5) for s in ("s0", "s1", "s2", "s3")})},
)


class TestTemplatePremises:
    def test_one_premise_per_row_in_canonical_order(self, gallstone_net):
        numeric = _kind(template_premises(gallstone_net, np.random.default_rng(0)), "numeric")
        assert len(numeric) == 5
        assert [p.clause_ref for p in numeric] == [0, 1, 2, 3, 4]
        # topological order with ties broken alphabetically: amylase before flatulence
        assert [p.variable for p in numeric] == [
            "gallstones", "amylase", "amylase", "flatulence", "flatulence",
        ]
        assert numeric[1].parent_assignment == (("gallstones", "true"),)

    def test_numeric_text(self, gallstone_net):
        numeric = _kind(template_premises(gallstone_net, np.random.default_rng(0)), "numeric")
        assert numeric[0].text == GALLSTONE_ROW0
        assert numeric[1].text == GALLSTONE_ROW1

    def test_wep_text(self, gallstone_net):
        rng = np.random.default_rng(0)
        verbal = _kind(template_premises(gallstone_net, rng, second_closest_prob=0.0), "wep")
        assert verbal[0].text == (
            "It is unlikely that gallstones is true, and there is a very good "
            "chance that gallstones is false."
        )

    def test_both_kinds_share_clause_refs(self, gallstone_net):
        premises = template_premises(gallstone_net, np.random.default_rng(1))
        assert [p.kind for p in premises] == ["numeric"] * 5 + ["wep"] * 5
        numeric, verbal = premises[:5], premises[5:]
        for a, b in zip(numeric, verbal):
            assert (a.clause_ref, a.variable, a.parent_assignment) == (
                b.clause_ref, b.variable, b.parent_assignment,
            )

    def test_equally_likely_row(self):
        rng = np.random.default_rng(2)
        verbal = _kind(template_premises(UNIFORM_NET, rng), "wep")
        assert verbal[0].text == "The states of a are all equally likely."

    def test_argmax_note_when_all_phrases_read_low(self):
        rng = np.random.default_rng(3)
        verbal = _kind(template_premises(LOW_NET, rng, second_closest_prob=0.0), "wep")
        assert verbal[0].text.endswith("The most likely state of a is s2 or s3.")

    def test_percent_rendering(self):
        assert _percent(0.1531) == "15.31%"
        assert _percent(0.5) == "50%"
        assert _percent(1.0) == "100%"
        assert _percent(0.000123456) == "0.0123%"
        assert _percent(0.0) == "0%"

    @pytest.mark.parametrize("second_closest_prob", [0.1, 0.0])
    def test_one_pass_matches_the_two_walks(self, gallstone_net, second_closest_prob):
        """Equal premises and an equal rng state after every network, against
        a numeric walk followed by a verbal walk drawing from the same seed."""

        gen = np.random.default_rng(1414)
        nets = [gallstone_net, UNIFORM_NET, LOW_NET]
        for i in range(200):
            net = netgen.random_network(gen, name=f"p{i}")
            nets.append(netgen.with_zeros(gen, net) if i % 2 else net)
        for i, net in enumerate(nets):
            one, two = np.random.default_rng(i), np.random.default_rng(i)
            got = template_premises(net, one, second_closest_prob=second_closest_prob)
            want = _reference_premises(net, "numeric") + _reference_premises(
                net, "wep", two, second_closest_prob=second_closest_prob
            )
            assert got == want, net.name
            assert one.bit_generator.state == two.bit_generator.state, net.name


class TestSampleQe:
    def test_bounds_and_gold(self, gallstone_net):
        rng = np.random.default_rng(4)
        for _ in range(50):
            qe = sample_qe(gallstone_net, rng)
            ev_vars = [v for v, _ in qe.evidence]
            assert 1 <= len(ev_vars) <= 2
            assert qe.query_var not in ev_vars
            assert ev_vars == sorted(ev_vars)
            want = eliminate(
                gallstone_net, qe.query_var, qe.query_state, dict(qe.evidence)
            ).probability
            assert qe.gold == want

    def test_zero_probability_evidence_is_redrawn(self):
        net = make_network(
            "det",
            {"k": (("t", "f"), (), {(): (1.0, 0.0)}),
             "b": (("t", "f"), ("k",), {("t",): (0.4, 0.6), ("f",): (0.5, 0.5)})},
        )
        rng = np.random.default_rng(5)
        for _ in range(100):
            qe = sample_qe(net, rng)
            assert dict(qe.evidence).get("k") != "f"

    def test_retry_budget_exhausted(self, gallstone_net, monkeypatch):
        monkeypatch.setattr(dataset, "MAX_EVIDENCE_RETRIES", 0)
        rng = np.random.default_rng(6)
        with pytest.raises(UnsatisfiableEvidence):
            sample_qe(gallstone_net, rng)

    def test_single_variable_rejected(self):
        net = make_network("one", {"a": (("t", "f"), (), {(): (0.5, 0.5)})})
        with pytest.raises(ValueError, match="at least 2"):
            sample_qe(net, np.random.default_rng(7))

    def test_shared_form_matches_the_per_draw_path(self, monkeypatch):
        """Draws that share the compiled form kept on the network go through
        the public ``eliminate`` and give the pair, and leave the rng state,
        of draws that each compile afresh, on an uncompiled copy of the
        network."""

        draws = {"shared": 0, "rejected": 0}
        per_draw = False

        def counted(source, *args):
            if per_draw:
                source = dataclasses.replace(source)
                assert source._compiled is None
            else:
                draws["shared"] += source._compiled is not None
            try:
                return eliminate(source, *args)
            except ZeroProbabilityEvidence:
                draws["rejected"] += 1
                raise

        monkeypatch.setattr(dataset, "eliminate", counted)
        monkeypatch.setattr(dataset, "MAX_EVIDENCE_RETRIES", 20)

        def outcome(rng):
            try:
                return sample_qe(net, rng)
            except UnsatisfiableEvidence as err:
                return str(err)

        rng = np.random.default_rng(8080)
        for i in range(500):
            net = netgen.with_zeros(rng, netgen.random_network(rng, name=f"qe{i}", max_vars=7))
            for j in range(2):
                shared, fresh = np.random.default_rng([i, j]), np.random.default_rng([i, j])
                per_draw = False
                kept = outcome(shared)
                per_draw = True
                assert kept == outcome(fresh), net.name
                assert shared.bit_generator.state == fresh.bit_generator.state, net.name
        assert draws["shared"] > 0 and draws["rejected"] > 0  # retries were exercised


class TestClassifyReasoning:
    def test_three_patterns(self, sprinkler_net):
        # rain -> grass_wet <- sprinkler
        assert classify_reasoning(sprinkler_net, ["rain"], "grass_wet") == (
            ("causal",), "causal",
        )
        assert classify_reasoning(sprinkler_net, ["grass_wet"], "rain") == (
            ("evidential",), "evidential",
        )
        assert classify_reasoning(sprinkler_net, ["grass_wet", "sprinkler"], "rain") == (
            ("evidential", "explaining_away"), "explaining_away",
        )

    def test_indirect_relation_is_none(self):
        net = make_network(
            "chain",
            {"a": (("t", "f"), (), {(): (0.5, 0.5)}),
             "b": (("t", "f"), ("a",), {("t",): (0.4, 0.6), ("f",): (0.5, 0.5)}),
             "c": (("t", "f"), ("b",), {("t",): (0.3, 0.7), ("f",): (0.8, 0.2)})},
        )
        assert classify_reasoning(net, ["a"], "c") == ((), "none")

    def test_mixed_direct_edges(self, sprinkler_net):
        types, primary = classify_reasoning(
            sprinkler_net, ["rain", "sprinkler"], "grass_wet"
        )
        assert types == ("causal",) and primary == "causal"

    def test_query_among_evidence_is_refused_as_the_engines_do(self, sprinkler_net):
        with pytest.raises(QueryEvidenceOverlap) as engine:
            eliminate(sprinkler_net, "rain", "yes", {"rain": "no"})
        with pytest.raises(QueryEvidenceOverlap) as classify:
            classify_reasoning(sprinkler_net, ["grass_wet", "rain"], "rain")
        assert str(classify.value) == str(engine.value) == "query variable 'rain' also appears in evidence"


class TestGenerateDataset:
    def test_instances_are_reproducible(self, gallstone_net):
        one = generate_dataset(gallstone_net, 8, seed=11)
        two = generate_dataset(gallstone_net, 8, seed=11)
        assert one == two
        assert [inst.id for inst in one] == [f"gallstone-{i:04d}" for i in range(8)]

    def test_premises_attached_to_every_instance(self, gallstone_net):
        inst = generate_dataset(gallstone_net, 1, seed=3)[0]
        kinds = [p.kind for p in inst.premises]
        assert kinds == ["numeric"] * 5 + ["wep"] * 5

    def test_gold_and_labels_recomputable(self, gallstone_net):
        for inst in generate_dataset(gallstone_net, 10, seed=21):
            ev = {b.variable: b.state for b in inst.evidence}
            want = eliminate(
                gallstone_net, inst.question.variable, inst.question.state, ev
            ).probability
            assert inst.gold == want
            types, primary = classify_reasoning(gallstone_net, ev, inst.question.variable)
            assert (inst.reasoning_types, inst.primary_type) == (types, primary)

    def test_question_wording(self, gallstone_net):
        inst = generate_dataset(gallstone_net, 1, seed=8)[0]
        assert inst.question.text == (
            f"What is the probability that {inst.question.variable} "
            f"is {inst.question.state}?"
        )

    def test_invalid_network_rejected(self, gallstone_net):
        broken = make_network(
            "broken", {"a": (("t", "f"), (), {(): (0.9, 0.2)}),
                       "b": (("t", "f"), ("a",), {("t",): (0.5, 0.5), ("f",): (0.5, 0.5)})},
        )
        with pytest.raises(NetworkFormatError, match="invalid"):
            generate_dataset(broken, 1, seed=0)
        with pytest.raises(ValueError, match="positive"):
            generate_dataset(gallstone_net, 0, seed=0)

    def test_instance_program_reproduces_gold(self, gallstone_net):
        for inst in generate_dataset(gallstone_net, 6, seed=13):
            program = instance_program(gallstone_net, inst)
            (answer,) = evaluate(program).values()
            assert abs(answer - inst.gold) <= 1e-10

    def test_instance_program_names_an_unknown_state(self, gallstone_net):
        # a loaded instance may ask for a state its network does not declare
        doc = instance_to_dict(generate_dataset(gallstone_net, 1, seed=13)[0])
        doc["question"] = {**doc["question"], "variable": "amylase", "state": "1400+"}
        with pytest.raises(
            UnknownState, match=r"no state '1400\+' \(states: 0-299, 300-499, 500-1400\)"
        ):
            instance_program(gallstone_net, instance_from_dict(doc))

    def test_negated_query_indicator_avoids_a_variable_predicate(self, collide_net):
        encoder = NetworkEncoder(collide_net)
        renamed = 0
        for inst in generate_dataset(collide_net, 40, seed=1):
            program = instance_program(collide_net, inst)
            (query,) = program.queries
            if (inst.question.variable, inst.question.state) == ("x", "false"):
                assert query.atom.predicate == "not_x_"
                renamed += 1
            (answer,) = evaluate(program).values()
            assert abs(answer - inst.gold) <= 1e-10
            assert encoder.program(inst) == program
            assert encoder.text(inst) == serialize(program)
        assert renamed == 12


class TestDatasetFiles:
    def test_dict_round_trip(self, gallstone_net):
        inst = generate_dataset(gallstone_net, 1, seed=17)[0]
        assert instance_from_dict(instance_to_dict(inst)) == inst

    def test_save_load_and_byte_stability(self, gallstone_net, tmp_path):
        insts = generate_dataset(gallstone_net, 5, seed=19)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(insts, a)
        save_dataset(insts, b)
        assert a.read_bytes() == b.read_bytes()
        assert load_dataset(a) == insts

    @staticmethod
    def two_networks(gallstone_net, sprinkler_net) -> list:
        # a name that reads like the premises key must not move the splice
        named = dataclasses.replace(gallstone_net, name='say "premises": [] here')
        insts = generate_dataset(named, 3, seed=19)
        insts += generate_dataset(sprinkler_net, 3, seed=19, stream=1)
        insts.append(filter_premises(insts[0], ["wep"]))
        insts.append(filter_premises(insts[1], ["prose"]))
        return insts

    def test_lines_equal_json_dumps_of_each_record(self, gallstone_net, sprinkler_net, tmp_path):
        insts = self.two_networks(gallstone_net, sprinkler_net)
        path = tmp_path / "d.jsonl"
        save_dataset(insts, path)
        want = [json.dumps(instance_to_dict(inst), ensure_ascii=False) for inst in insts]
        assert path.read_text(encoding="utf-8").splitlines() == want

    def test_saving_a_loaded_dataset_gives_its_bytes(self, gallstone_net, sprinkler_net, tmp_path):
        p, q = tmp_path / "p.jsonl", tmp_path / "q.jsonl"
        save_dataset(self.two_networks(gallstone_net, sprinkler_net), p)
        save_dataset(load_dataset(p), q)
        assert q.read_bytes() == p.read_bytes()

    def test_instances_of_a_network_share_one_premises_tuple(self, gallstone_net, sprinkler_net, tmp_path):
        insts = self.two_networks(gallstone_net, sprinkler_net)
        # a block that comes back after another must load equal too
        insts.append(insts[0])
        path = tmp_path / "d.jsonl"
        save_dataset(insts, path)
        loaded = load_dataset(path)
        assert loaded == insts
        lines = path.read_text(encoding="utf-8").splitlines()
        assert loaded == [instance_from_dict(json.loads(line)) for line in lines]
        gallstone, sprinkler, wep, prose = (loaded[i].premises for i in (0, 3, 6, 7))
        assert all(inst.premises is gallstone for inst in loaded[:3])
        assert all(inst.premises is sprinkler for inst in loaded[3:6])
        assert len({id(gallstone), id(sprinkler), id(wep), id(prose)}) == 4
        assert (len(wep), len(prose)) == (len(gallstone) // 2, 0)

    def test_round_trip_with_unicode_line_separators_in_names(self, tmp_path):
        # json.dumps(..., ensure_ascii=False) writes these characters raw
        x, y = "x\u0085", "y\u2029"
        net = make_network(
            "n\u2028",
            {
                "a": ((x, y), (), {(): (0.3, 0.7)}),
                "b": (("t", "f"), ("a",), {(x,): (0.2, 0.8), (y,): (0.6, 0.4)}),
            },
        )
        insts = generate_dataset(net, 4, seed=5)
        path = tmp_path / "d.jsonl"
        save_dataset(insts, path)
        assert load_dataset(path) == insts

    def test_load_rejects_bad_records(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "x"}\n', encoding="utf-8")
        with pytest.raises(NetworkFormatError, match="bad.jsonl:1"):
            load_dataset(bad)

    def test_filter_premises(self, gallstone_net):
        inst = generate_dataset(gallstone_net, 1, seed=23)[0]
        numeric_only = filter_premises(inst, ["numeric"])
        assert [p.kind for p in numeric_only.premises] == ["numeric"] * 5
        assert numeric_only.id == inst.id


class TestStats:
    def test_premise_count(self, gallstone_net):
        assert premise_count(gallstone_net) == 5

    def test_reference_network_stats(self, gallstone_net):
        insts = generate_dataset(gallstone_net, 4, seed=29)
        stats = dataset_stats([gallstone_net], insts)
        assert stats.networks == 1
        assert stats.variables_total == 3
        assert stats.numeric_premises == 5
        assert stats.wep_premises == 5
        assert stats.queries == 4
        assert stats.evidence_statements == sum(len(i.evidence) for i in insts)
        assert abs(stats.states_per_variable_mean - 7 / 3) <= 1e-9
        assert stats.states_per_variable_std == pytest.approx((2 / 9) ** 0.5, abs=1e-12)
        assert stats.variables_per_network_std == 0.0
        assert stats.premises_per_network_mean == 5.0

    def test_multiple_networks(self, gallstone_net, sprinkler_net):
        stats = dataset_stats([gallstone_net, sprinkler_net])
        assert stats.networks == 2
        assert stats.variables_total == 6
        assert isinstance(stats, DatasetStats)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            dataset_stats([])
