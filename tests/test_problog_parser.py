"""Parser behavior: grammar coverage, positions in errors, round-trips."""

from __future__ import annotations

import re

import numpy as np
import pytest

import netgen

from bayesqa.errors import ProblogSyntaxError
from bayesqa.problog import (
    Atom,
    Clause,
    Evidence,
    Literal,
    ProbHead,
    ProblogProgram,
    Query,
    parse,
    parse_atom,
    serialize,
)
from conftest import GALLSTONE_TEXT


class TestGrammar:
    def test_probabilistic_fact(self):
        prog = parse("0.1531::gallstones(patient).")
        assert prog.clauses == (
            Clause(heads=(ProbHead(0.1531, Atom("gallstones", ("patient",))),)),
        )

    def test_deterministic_fact_has_probability_one(self):
        prog = parse("sunny.")
        assert prog.clauses[0].heads[0] == ProbHead(1.0, Atom("sunny"))

    def test_rule_with_negated_literal(self):
        prog = parse("0.4307::flatulence(patient) :- not gallstones(patient).")
        clause = prog.clauses[0]
        assert clause.body == (Literal(Atom("gallstones", ("patient",)), negated=True),)

    def test_annotated_disjunction(self):
        prog = parse("0.2::x(e,a); 0.3::x(e,b); 0.5::x(e,c) :- y(e).")
        assert [h.probability for h in prog.clauses[0].heads] == [0.2, 0.3, 0.5]
        assert prog.clauses[0].heads[2].atom == Atom("x", ("e", "c"))

    def test_quoted_constants(self):
        prog = parse("0.5::amylase(patient, '500-1400').")
        assert prog.clauses[0].heads[0].atom.args == ("patient", "500-1400")

    def test_evidence_and_query_directives(self):
        prog = parse("evidence(a(e), true).\nevidence(b(e), false).\nquery(a(e)).")
        assert prog.evidence == (
            Evidence(Atom("a", ("e",)), True),
            Evidence(Atom("b", ("e",)), False),
        )
        assert prog.queries == (Query(Atom("a", ("e",))),)

    def test_comments_and_whitespace_ignored(self):
        prog = parse(
            "% header comment\n"
            "0.5::a(e).  % trailing note\n"
            "\n"
            "   query( a( e ) ) .\n"
        )
        assert len(prog.clauses) == 1
        assert prog.queries == (Query(Atom("a", ("e",))),)

    def test_keywords_usable_as_predicates_mid_statement(self):
        # evidence/query are only special at statement start with '(' next
        prog = parse("0.5::a(e) :- query(e), not evidence(e).")
        body = prog.clauses[0].body
        assert body[0].atom.predicate == "query"
        assert body[1].atom.predicate == "evidence" and body[1].negated

    def test_not_negates_only_before_an_identifier(self):
        # a variable may be named `not`: `not(e)` is its atom, `not not(e)` negates it
        prog = parse("0.5::a(e) :- not(e).\n0.5::b(e) :- not not(e).\n0.5::c :- not.")
        assert [c.body for c in prog.clauses] == [
            (Literal(Atom("not", ("e",))),),
            (Literal(Atom("not", ("e",)), negated=True),),
            (Literal(Atom("not")),),
        ]
        assert serialize(prog).splitlines()[2] == "0.5::b(e) :- not not(e)."

    def test_reference_program_shape(self):
        prog = parse(GALLSTONE_TEXT)
        assert len(prog.clauses) == 5
        assert len(prog.evidence) == 1 and prog.evidence[0].value is True
        assert prog.queries[0].atom == Atom("amylase", ("patient", "500-1400"))

    def test_parse_atom(self):
        assert parse_atom("amylase(patient,'500-1400')") == Atom(
            "amylase", ("patient", "500-1400")
        )
        with pytest.raises(ProblogSyntaxError):
            parse_atom("a(e).")  # trailing period is not part of an atom


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "0.5::a(e)",  # missing period
            "::a(e).",
            "0.5::.",
            "a(e) :- .",
            "a(e,).",
            "evidence(a(e), maybe).",
            "evidence(a(e) true).",
            "query(a(e)",
            "0.5::a('').",
            "1.5::a(e).",
            "0.5::a(e) ;",
            "not a(e).",  # 'not' cannot start a head
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ProblogSyntaxError):
            parse(text)

    def test_unexpected_character_reports_position(self):
        with pytest.raises(ProblogSyntaxError, match="line 2, column 4"):
            parse("a.\n0.5$::b.")

    def test_probability_above_one_reports_position(self):
        with pytest.raises(ProblogSyntaxError, match="outside"):
            parse("a.\n2.0::b.")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("% c\n  a. $", "line 2, column 6: unexpected character '$'"),
            ("a.\r\nb $.", "line 2, column 3: unexpected character '$'"),
            ("a(e).\tb(e)\t#", "line 1, column 12: unexpected character '#'"),
            ("0.5::a(e)\n\n", "line 3, column 1: expected '.' at end of statement, found end of input"),
            ("0.5::a(e) ;", "line 1, column 12: expected a probability or an atom, found end of input"),
            ("a.\n2.0::b.", "line 2, column 1: probability 2.0 outside [0, 1]"),
            ("a.\n\tb('').", "line 2, column 4: empty quoted constant"),
            ("evidence(a(e),\n  maybe).", "line 2, column 3: expected 'true' or 'false', found 'maybe'"),
        ],
    )
    def test_exact_message(self, text, message):
        with pytest.raises(ProblogSyntaxError) as info:
            parse(text)
        assert str(info.value) == message

    def test_parse_atom_trailing_token_message(self):
        with pytest.raises(ProblogSyntaxError) as info:
            parse_atom("a(e) b")
        assert str(info.value) == "line 1, column 6: expected end of input after atom, found 'b'"


class TestRoundTrip:
    def test_serialize_then_parse_is_identity(self):
        prog = ProblogProgram(
            clauses=(
                Clause(heads=(ProbHead(0.1531, Atom("gallstones", ("patient",))),)),
                Clause(
                    heads=(
                        ProbHead(0.9346, Atom("amylase", ("patient", "0-299"))),
                        ProbHead(0.0467, Atom("amylase", ("patient", "300-499"))),
                        ProbHead(0.0187, Atom("amylase", ("patient", "500-1400"))),
                    ),
                    body=(Literal(Atom("gallstones", ("patient",))),),
                ),
            ),
            evidence=(Evidence(Atom("gallstones", ("patient",)), False),),
            queries=(Query(Atom("amylase", ("patient", "0-299"))),),
        )
        assert parse(serialize(prog)) == prog

    def test_parse_then_serialize_is_canonical_fixpoint(self):
        text = serialize(parse(GALLSTONE_TEXT))
        assert parse(text) == parse(GALLSTONE_TEXT)
        assert serialize(parse(text)) == text

    def test_canonicalization_trims_trailing_zeros(self):
        # 0.9730 in the source renders as 0.973 in canonical form, same value
        text = serialize(parse("0.9730::a(e)."))
        assert text == "0.973::a(e).\n"


def _generated_texts(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for i in range(count):
        net = netgen.random_network(rng, name=f"pos{i}")
        qvar, _, evidence = netgen.random_point_query(rng, net)
        program, _ = netgen.query_program(net, evidence, qvar)
        yield rng, program, serialize(program)


class TestGeneratedPrograms:
    def test_inserted_character_reports_its_line_and_column(self):
        for rng, _, text in _generated_texts(200, 7070):
            # a '$' inside a quoted constant is text, and one inside '::' or
            # ':-' leaves a lone ':' that fails first
            unsplittable = [m.span() for m in re.finditer(r"'[^'\n]*'|::|:-", text)]
            offsets = [
                int(k)
                for k in rng.integers(0, len(text) + 1, size=20)
                if not any(a < k < b for a, b in unsplittable)
            ]
            for k in offsets:
                line = text.count("\n", 0, k) + 1
                column = k - text.rfind("\n", 0, k)
                with pytest.raises(ProblogSyntaxError) as info:
                    parse(text[:k] + "$" + text[k:])
                assert str(info.value) == f"line {line}, column {column}: unexpected character '$'"

    def test_serialize_then_parse_is_identity(self):
        for _, program, text in _generated_texts(200, 7071):
            assert parse(text) == program
