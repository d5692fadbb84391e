"""Parser behavior: grammar coverage, positions in errors, round-trips."""

from __future__ import annotations

import re
import time

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
    parser,
    serialize,
)
from bayesqa.problog.syntax import IDENT, QUOTED
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

    def test_equal_atoms_are_equal_keys(self):
        prog = parse(GALLSTONE_TEXT + "\nquery(gallstones(patient)).\n")
        head = prog.clauses[0].heads[0].atom
        uses = [lit.atom for c in prog.clauses for lit in c.body] + [e.atom for e in prog.evidence]
        uses += [q.atom for q in prog.queries]
        # each use equal to the head finds the head's entry in a table
        assert sum({head: True}.get(a, False) for a in uses) >= 3
        bodies = [lit for c in prog.clauses for lit in c.body]
        assert len(set(bodies)) == len(set(map(repr, bodies)))

    def test_whole_and_spaced_atoms_are_equal(self):
        # `a(e, f)` has layout inside, so the walk reads this text: both
        # spellings name equal atoms, with equal hashes
        prog = parse("0.5::a(e,f).\nb :- a(e, f).\nquery(a(e,f)).\n")
        head = prog.clauses[0].heads[0].atom
        assert prog.clauses[1].body[0].atom == head == prog.queries[0].atom
        assert hash(prog.clauses[1].body[0].atom) == hash(head) == hash(prog.queries[0].atom)


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
            # after comments, where an offset summed from split pieces skews first
            ("% note\na :- .\n", "line 2, column 6: expected a predicate name, found '.'"),
            ("%c\n%d\n0.5::a(e); %mid\n 2.0::b.", "line 4, column 2: probability 2.0 outside [0, 1]"),
            ("a. % x $\n% y\nb(e) $", "line 3, column 6: unexpected character '$'"),
            ("a(e). % one\n% two\nquery(a(e)) %three\n", "line 4, column 1: expected '.' at end of statement, found end of input"),
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


# The anchored scan the split tokenizer replaced: whitespace and comments as
# kinds of their own, one match at a time from where the last one ended.
_SCAN = re.compile(
    rf"""
      (?P<WS>[ \t\r\n]+)
    | (?P<COMMENT>%[^\n]*)
    | (?P<PROBSEP>::)
    | (?P<ARROW>:-)
    | (?P<NUMBER>\d+\.\d+|\d+)
    | (?P<QUOTED>{QUOTED})
    | (?P<IDENT>{IDENT})
    | (?P<PUNCT>[;,.()])
    """,
    re.VERBOSE,
)


def _scanned(text: str) -> list[tuple[str, int]] | str:
    """Each token's text and offset, the end of input last, or the scan's
    ``unexpected character`` message."""

    tokens = []
    m = None
    for m in iter(_SCAN.scanner(text).match, None):
        if m.lastgroup not in ("WS", "COMMENT"):
            tokens.append((m.group(), m.start()))
    end = m.end() if m else 0
    if end < len(text):
        line = text.count("\n", 0, end) + 1
        column = end - text.rfind("\n", 0, end)
        return f"line {line}, column {column}: unexpected character {text[end]!r}"
    return tokens + [("", end)]


def _mutated(rng, text: str) -> str:
    pieces = ["$", "#", "'", "%", ":", "\x0b", "\u00a0", " ", "\t", "\r\n", "\n", "% note\n", "0.5", "a", "(", "''"]
    chars = list(text)
    for _ in range(1 + int(rng.integers(3))):
        k = int(rng.integers(len(chars) + 1))
        kind = rng.integers(3)
        if kind == 0:
            chars.insert(k, pieces[int(rng.integers(len(pieces)))])
        elif chars:
            k = min(k, len(chars) - 1)
            if kind == 1:
                del chars[k]
            else:
                chars[k] = pieces[int(rng.integers(len(pieces)))]
    return "".join(chars)


class TestTokenizer:
    def test_tokens_and_refusals_match_the_anchored_scan(self):
        checked = 0
        for rng, _, text in _generated_texts(1000, 9090):
            for _ in range(5):
                mutated = _mutated(rng, text)
                want = _scanned(mutated)
                if isinstance(want, str):
                    with pytest.raises(ProblogSyntaxError) as info:
                        parser._tokenize(mutated)
                    assert str(info.value) == want
                    continue
                assert parser._tokenize(mutated) == [t for t, _ in want]
                # the offsets that only errors compute
                for k in {0, len(want) - 1, int(rng.integers(len(want)))}:
                    assert parser._offset(mutated, k) == want[k][1]
                checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("extra", [" ", "\t", "\r\n", "% comment\n", " %\n\t"])
    def test_layout_between_tokens_leaves_the_program(self, extra):
        for rng, program, text in _generated_texts(100, 9191):
            ends = sorted({start + len(tok) for tok, start in _scanned(text)})
            chosen = [k for k in ends if rng.random() < 0.5]
            for k in reversed(chosen):
                text = text[:k] + extra + text[k:]
            assert parse(text) == program


def _walked(text: str) -> ProblogProgram | str:
    """The token-by-token walk's program, or its refusal text."""

    try:
        return parser._Parser(text, parser._tokenize(text)).program()
    except ProblogSyntaxError as exc:
        return str(exc)


def _parsed(text: str) -> ProblogProgram | str:
    try:
        return parse(text)
    except ProblogSyntaxError as exc:
        return str(exc)


def _rule(head: Atom, *body: Literal) -> ProblogProgram:
    return ProblogProgram((Clause((ProbHead(1.0, head),), body),))


class TestWholeAtomTokens:
    """``parse`` reads canonical text a whole statement at a time and hands
    any other text to the token-by-token walk; either way it must give the
    program or the refusal the walk gives. The cases are texts near the
    edge of the scan: a keyword before ``(``, a constant shaped like an atom,
    unspaced evidence, quoted constants with layout, and layout inside an
    atom."""

    @pytest.mark.parametrize(
        "text, want",
        [
            # an atom where a constant belongs
            ("quey(v2(e,s2)).", "line 1, column 8: expected ')' or ',', found '('"),
            ("query(a).", ProblogProgram(queries=(Query(Atom("a")),))),
            ("evidence(a,true).", ProblogProgram(evidence=(Evidence(Atom("a"), True),))),
            ("p :- query(a).", _rule(Atom("p"), Literal(Atom("query", ("a",))))),
            ("p :- not(e).", _rule(Atom("p"), Literal(Atom("not", ("e",))))),
            ("p :- not not(e).", _rule(Atom("p"), Literal(Atom("not", ("e",)), negated=True))),
            ("a('x,y').", _rule(Atom("a", ("x,y",)))),
            ("x.\n0.5::a(e,'').", "line 2, column 10: empty quoted constant"),
            ("0.5 a(e).", "line 1, column 5: expected '::' after probability, found 'a'"),
            ("a(e, 'f g').", _rule(Atom("a", ("e", "f g")))),
            ("a(e,% note\nf).", _rule(Atom("a", ("e", "f")))),
            ("a(e ,f) :- b( e).", _rule(Atom("a", ("e", "f")), Literal(Atom("b", ("e",))))),
        ],
    )
    def test_case_matches_the_token_by_token_walk(self, text, want):
        assert _walked(text) == want
        assert _parsed(text) == want

    def test_mutated_programs_match_the_token_by_token_walk(self):
        checked = scanned = 0
        for rng, _, text in _generated_texts(500, 9292):
            for source in (text, _respelled(rng, _respelled(rng, text))):
                for mutated in [source] + [_mutated(rng, source) for _ in range(3)]:
                    assert _parsed(mutated) == _walked(mutated), mutated
                    scanned += parser._scan(mutated) is not None
                    checked += 1
        # both readers are exercised: the 500 written texts and some respelled
        # ones take the scan, the rest the walk
        assert checked >= 4000 and 500 < scanned < checked - 2000, (checked, scanned)


# quoted constants that hold a statement's own separators
_TRICKY_CONSTANTS = ["'a; b'", "'a, b'", "'p::q'", "'a :- b'", "'x. y'", "'50%'", "'; 0.5::s1'", "'not s1'", "'s1'"]


def _respelled(rng, text: str) -> str:
    """``text`` with one spelling changed: a state quoted or replaced by a
    quoted constant holding separators, probabilities written as integers,
    with a leading zero or dropped, separators unspaced, or a predicate named
    ``query``, ``evidence`` or ``not``."""

    kind = int(rng.integers(8))
    if kind == 0:
        constant = _TRICKY_CONSTANTS[int(rng.integers(len(_TRICKY_CONSTANTS)))]
        return re.sub(r"\bs1\)", constant + ")", text)
    if kind == 1:
        return re.sub(r"\be\b", "'e'", text, count=int(rng.integers(1, 4)))
    if kind == 2:
        spellings = ("1::", "0::", "0{}::", "")
        return re.sub(
            r"(\d+\.\d+)::",
            lambda m: spellings[int(rng.integers(4))].format(m[1]) if rng.random() < 0.3 else m[0],
            text,
        )
    if kind == 3:
        return text.replace("; ", ";")
    if kind == 4:
        return text.replace(", ", ",").replace(" :- ", ":-")
    if kind == 5:
        keyword = ("query", "evidence", "not")[int(rng.integers(3))]
        return re.sub(r"\bv0\(", keyword + "(", text)
    if kind == 6:
        return re.sub(r"\bv1\b", "not", text)
    return text.replace(", true)", ",true)")


def _nodes(program: ProblogProgram) -> tuple[list[Atom], list[Literal]]:
    atoms = [h.atom for c in program.clauses for h in c.heads]
    atoms += [lit.atom for c in program.clauses for lit in c.body]
    atoms += [e.atom for e in program.evidence] + [q.atom for q in program.queries]
    return atoms, [lit for c in program.clauses for lit in c.body]


class TestStatementScan:
    """Canonical text is read by the statement scan, not the walk."""

    def test_written_programs_never_reach_the_walk(self, monkeypatch, gallstone_program):
        monkeypatch.setattr(parser, "_tokenize", lambda text: pytest.fail(f"walked: {text!r}"))
        assert parse(serialize(gallstone_program)) == gallstone_program
        for _, program, text in _generated_texts(500, 9393):
            assert parse(text) == program

    def test_the_scan_gives_up_in_one_pass(self):
        # a comment after a long run of layout: the scan tries one start
        # there and gives up, it does not search on from every later one
        text = "a." + " " * 20000 + "% note\n" + "0.5::b :- a.\n" * 2
        start = time.perf_counter()
        assert parse(text) == _walked(text)
        assert time.perf_counter() - start < 1.0

    # both spellings of a(x,y) and of a(x,z), in heads, bodies, evidence and
    # the query, negated and not
    SHARED = (
        "0.5::a(x,'y'); 0.5::a(x,z).\n\n"
        "0.25::b :- a(x,y), not a(x,'z').\n\n"
        "0.75::b :- not a(x,'y'), a(x,z).\n\n"
        "c :- not a(x,y), a(x,'z').\n\n"
        "evidence(a(x,'y'), true).\n\n"
        "query(a(x,z)).\n\n"
        "query(a(x,'z')).\n"
    )

    @pytest.mark.parametrize("layout", ["", pytest.param("% walked\n", id="walk")])
    def test_equal_nodes_are_equal_whatever_the_spelling(self, layout):
        text = layout + self.SHARED
        assert (parser._scan(text) is None) == bool(layout)
        program = parse(text)
        assert program == _walked(text) == parse(text.replace("'", ""))
        atoms, literals = _nodes(program)
        assert len(set(atoms)) == 4 and len(set(literals)) == 4
