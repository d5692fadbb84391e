"""Program evaluation: network-backed answers vs. brute-force possible worlds."""

from __future__ import annotations

import re

import numpy as np
import pytest

import netgen
from bayesqa import inference, model
from bayesqa.errors import (
    EnumerationBoundExceeded,
    UnknownClause,
    UnstratifiedNegation,
    UnsupportedFragment,
    ZeroProbabilityEvidence,
)
from bayesqa.problog import convert, enumerate_worlds, evaluate, parse, semantics
from bayesqa.problog.syntax import Atom
from conftest import GALLSTONE_ANSWER, GALLSTONE_TEXT, WIDE_PROGRAM_TEXT

AMYLASE_HIGH = Atom("amylase", ("patient", "500-1400"))


class TestEvaluate:
    def test_reference_query_enumeration(self, gallstone_program):
        assert evaluate(gallstone_program)[AMYLASE_HIGH] == GALLSTONE_ANSWER

    def test_reference_query_elimination(self, gallstone_program):
        got = evaluate(gallstone_program, method="elimination")[AMYLASE_HIGH]
        assert got == pytest.approx(GALLSTONE_ANSWER, abs=1e-15)

    def test_unknown_method(self, gallstone_program):
        with pytest.raises(ValueError, match="unknown method"):
            evaluate(gallstone_program, method="sampling")

    def test_multiple_queries(self):
        text = GALLSTONE_TEXT + "\nquery(gallstones(patient)).\n\nquery(flatulence(patient)).\n"
        answers = evaluate(parse(text))
        assert len(answers) == 3
        assert answers[Atom("flatulence", ("patient",))] == 1.0  # it is the evidence
        assert answers[AMYLASE_HIGH] == GALLSTONE_ANSWER

    @pytest.mark.parametrize("method", ["enumeration", "elimination"])
    def test_orders_the_network_once(self, gallstone_program, monkeypatch, method):
        calls = []
        order = model.topological_order

        def counted(network):
            calls.append(network.name)
            return order(network)

        for module in (model, inference, convert):
            monkeypatch.setattr(module, "topological_order", counted)
        assert evaluate(gallstone_program, method=method)[AMYLASE_HIGH] == pytest.approx(GALLSTONE_ANSWER, abs=1e-15)
        assert calls == ["program"]

    def test_cycle_is_refused_in_its_own_words(self):
        with pytest.raises(UnsupportedFragment) as info:
            evaluate(parse("0.5::a :- b.\n0.5::a :- not b.\n0.5::b :- a.\n0.5::b :- not a.\nquery(a).\n"))
        assert str(info.value) == (
            "program does not encode a valid network: [cycle] network: network contains a cycle involving: a, b"
        )

    def test_false_evidence_selects_complement(self):
        text = (
            "0.1531::gallstones(patient).\n"
            "0.9346::amylase(patient, '0-299'); 0.0467::amylase(patient, '300-499');"
            " 0.0187::amylase(patient, '500-1400') :- gallstones(patient).\n"
            "0.9730::amylase(patient, '0-299'); 0.0169::amylase(patient, '300-499');"
            " 0.0101::amylase(patient, '500-1400') :- not gallstones(patient).\n"
            "evidence(gallstones(patient), false).\n"
            "query(amylase(patient, '500-1400')).\n"
        )
        for method in ("enumeration", "elimination"):
            got = evaluate(parse(text), method=method)[AMYLASE_HIGH]
            assert got == pytest.approx(0.0101, abs=1e-15)

    def test_false_evidence_on_multivalued_atom(self):
        # ruling out one amylase band renormalizes over the other two
        text = (
            "0.5::amylase(patient, low); 0.3::amylase(patient, mid);"
            " 0.2::amylase(patient, high).\n"
            "evidence(amylase(patient, low), false).\n"
            "query(amylase(patient, high)).\n"
        )
        want = 0.2 / 0.5
        for method in ("enumeration", "elimination"):
            got = evaluate(parse(text), method=method)[Atom("amylase", ("patient", "high"))]
            assert got == pytest.approx(want, abs=1e-12)

    def test_evidence_excluding_the_queried_state(self):
        # the evidence constrains the queried variable away from the queried state
        text = (
            "0.5::amylase(patient, low); 0.3::amylase(patient, mid);"
            " 0.2::amylase(patient, high).\n"
            "evidence(amylase(patient, low), false).\n"
            "query(amylase(patient, low)).\n"
        )
        for method in ("enumeration", "elimination"):
            got = evaluate(parse(text), method=method)[Atom("amylase", ("patient", "low"))]
            assert got == 0.0, method

    def test_impossible_evidence(self):
        text = "1.0::a(e).\nevidence(a(e), false).\nquery(a(e)).\n"
        for method in ("enumeration", "elimination"):
            with pytest.raises(ZeroProbabilityEvidence):
                evaluate(parse(text), method=method)

    @pytest.mark.parametrize("method", ["enumeration", "elimination"])
    def test_contradictory_evidence_on_one_variable(self, method):
        # two true states of one disjunction leave no allowed state at all
        text = (
            "0.2::x(e,a); 0.3::x(e,b); 0.5::x(e,c).\n0.5::y(e).\n"
            "evidence(x(e,a), true).\nevidence(x(e,b), true).\nquery(y(e)).\n"
        )
        with pytest.raises(ZeroProbabilityEvidence, match=r"^evidence \{'x': \[\]\} has probability 0$"):
            evaluate(parse(text), method=method)


class TestEnumerateWorlds:
    def test_reference_query(self, gallstone_program):
        got = enumerate_worlds(gallstone_program)[AMYLASE_HIGH]
        assert got == pytest.approx(GALLSTONE_ANSWER, abs=1e-15)

    def test_derived_head(self):
        answers = enumerate_worlds(parse("0.6::rain.\n1.0::wet :- rain.\nquery(wet)."))
        assert answers[Atom("wet", ())] == pytest.approx(0.6)

    @pytest.mark.parametrize(
        "text, want",
        [
            pytest.param(
                "0.6::rain.\n1.0::wet :- rain.\n1.0::dry :- not wet.\nquery(dry).\nquery(wet).",
                {"dry": 0.4, "wet": 0.6},
                id="in-order",
            ),
            pytest.param(
                "0.5::b.\n1.0::a :- b.\n1.0::b :- a.\n1.0::c :- not a.\nquery(c).\nquery(a).",
                {"c": 0.5, "a": 0.5},
                id="positive-cycle-below-a-negation",
            ),
            pytest.param(
                "1.0::wet :- rain.\n0.6::rain.\n1.0::dry :- not wet.\nquery(wet).\nquery(dry).",
                {"wet": 0.6, "dry": 0.4},
                id="clauses-out-of-dependency-order",
            ),
            pytest.param(
                "0.3::p.\n1.0::q :- not p.\n1.0::r :- not q.\n1.0::s :- not r, p.\n"
                "query(r).\nquery(s).",
                {"r": 0.3, "s": 0.0},
                id="three-level-negation-chain",
            ),
        ],
    )
    def test_negation_reads_completed_stratum(self, text, want):
        answers = enumerate_worlds(parse(text))
        assert {atom.predicate: p for atom, p in answers.items()} == want

    def test_absent_choice_means_false(self):
        answers = enumerate_worlds(parse("0.5::a.\n1.0::c :- not a.\nquery(c)."))
        assert answers[Atom("c", ())] == pytest.approx(0.5)

    def test_annotation_leftover_mass(self):
        # heads sum to 0.8, so "no head" keeps the remaining 0.2
        answers = enumerate_worlds(parse("0.4::a; 0.4::b.\nquery(a).\nquery(b)."))
        assert answers[Atom("a", ())] == pytest.approx(0.4)
        assert answers[Atom("b", ())] == pytest.approx(0.4)

    def test_impossible_evidence(self):
        with pytest.raises(ZeroProbabilityEvidence):
            enumerate_worlds(parse("1.0::a.\nevidence(a, false).\nquery(a)."))

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param(
                "1.0::a :- not b.\n1.0::b :- not a.\nquery(a).",
                "negation of b occurs inside a cycle through a",
                id="mutual",
            ),
            pytest.param(
                "1.0::c :- not a.\n1.0::a :- not b.\n1.0::b :- a.\nquery(c).",
                "negation of b occurs inside a cycle through a",
                id="downstream-negation-not-named",
            ),
            pytest.param(
                "1.0::a :- not a.\nquery(a).",
                "negation of a occurs inside a cycle through a",
                id="self-loop",
            ),
        ],
    )
    def test_unstratified_negation(self, text, message):
        with pytest.raises(UnstratifiedNegation) as err:
            enumerate_worlds(parse(text))
        assert str(err.value) == message

    def test_choice_bound(self, monkeypatch):
        many = "\n".join(f"0.5::f{i}." for i in range(21)) + "\nquery(f0)."
        with pytest.raises(EnumerationBoundExceeded) as err:
            enumerate_worlds(parse(many))
        assert str(err.value) == "program has 2097152 possible worlds, more than the bound of 1048576"
        few = "\n".join(f"0.5::f{i}." for i in range(3)) + "\nquery(f0)."
        monkeypatch.setattr(inference, "MAX_JOINT_STATES", 7)
        with pytest.raises(EnumerationBoundExceeded) as err:
            enumerate_worlds(parse(few))
        assert str(err.value) == "program has 8 possible worlds, more than the bound of 7"
        monkeypatch.setattr(inference, "MAX_JOINT_STATES", 8)
        assert enumerate_worlds(parse(few))[Atom("f0", ())] == 0.5

    def test_deterministic_clauses_are_free(self, monkeypatch):
        # facts with probability 0 or 1 leave a single alternative and
        # multiply the world count by 1
        text = "\n".join(f"1.0::t{i}." for i in range(15))
        text += "\n" + "\n".join(f"0.0::z{i}." for i in range(15))
        text += "\n" + "\n".join(f"0.5::f{i}." for i in range(5))
        text += "\nquery(t0).\nquery(z0).\nquery(f0)."
        monkeypatch.setattr(inference, "MAX_JOINT_STATES", 2**5)
        answers = enumerate_worlds(parse(text))
        assert answers[Atom("t0", ())] == 1.0
        assert answers[Atom("z0", ())] == 0.0
        assert answers[Atom("f0", ())] == 0.5

    def test_counts_worlds_not_choice_points(self, monkeypatch):
        def walked(*_):
            raise AssertionError("the enumerator visited a world")

        monkeypatch.setattr(semantics, "_minimal_model", walked)
        with pytest.raises(EnumerationBoundExceeded) as err:
            enumerate_worlds(parse(WIDE_PROGRAM_TEXT))
        assert str(err.value) == "program has 1594323 possible worlds, more than the bound of 1048576"

    def test_head_mass_above_one(self):
        with pytest.raises(UnsupportedFragment) as err:
            enumerate_worlds(parse("0.7::a; 0.7::b.\nquery(a)."))
        assert str(err.value) == "clause 1 (0.7::a; 0.7::b.): head probabilities sum to 1.4 > 1"


class TestUndefinedAtoms:
    """Every method refuses an atom that no clause head defines, in the
    decoder's words, before it answers anything."""

    @pytest.mark.parametrize("method", ["enumeration", "elimination", "worlds"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("0.5::a(e).\nquery(z(e)).", "atom z(e) does not match any defined atom"),
            ("0.8::a(e).\nevidence(z(e), false).\nquery(a(e)).", "atom z(e) does not match any defined atom"),
            (
                "0.5::a(e) :- q(e).\n0.5::a(e) :- not q(e).\nquery(a(e)).",
                "atom q(e) in clause 1 is not defined by any clause",
            ),
            (
                "0.5::x(e,a); 0.5::x(e,b).\n0.5::y(e) :- x(e,c).\n0.5::y(e) :- not x(e,c).\nquery(y(e)).",
                "atom x(e,c) in clause 2 names undefined state 'c'",
            ),
        ],
        ids=["query", "evidence", "body", "state"],
    )
    def test_refused_by_every_method(self, method, text, message):
        program = parse(text)
        with pytest.raises(UnknownClause, match=f"^{re.escape(message)}$"):
            enumerate_worlds(program) if method == "worlds" else evaluate(program, method=method)


class TestEngineAgreement:
    def test_three_ways_on_random_programs(self):
        rng = np.random.default_rng(7)
        for i in range(15):
            net = netgen.random_network(rng, name=f"agree{i}")
            for _ in range(3):
                qvar, _, evidence = netgen.random_point_query(rng, net)
                program, atom_by_state = netgen.query_program(net, evidence, qvar)
                by_sweep = evaluate(program)
                by_elim = evaluate(program, method="elimination")
                by_worlds = enumerate_worlds(program)
                for state, atom in atom_by_state.items():
                    a, b, c = by_sweep[atom], by_elim[atom], by_worlds[atom]
                    assert abs(a - b) <= 1e-12
                    assert abs(a - c) <= 1e-12
                    assert abs(b - c) <= 1e-12
