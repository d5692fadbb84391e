"""AST construction rules and the canonical serializer."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bayesqa
from bayesqa.errors import UnrepresentableName
from bayesqa.problog import (
    Atom,
    Clause,
    Evidence,
    Literal,
    ProbHead,
    ProblogProgram,
    Query,
    format_atom,
    format_probability,
    serialize,
    validate_program,
)
from bayesqa.problog.syntax import format_clause, format_constant


class TestAstInvariants:
    # an Atom checks no name; the serializer is the one place a name is refused
    def test_atom_requires_predicate(self):
        with pytest.raises(UnrepresentableName, match=r"^predicate '' cannot be written"):
            format_atom(Atom(""))

    def test_atom_rejects_empty_argument(self):
        program = ProblogProgram(queries=(Query(Atom("p", ("",))),))
        with pytest.raises(UnrepresentableName, match=r"^constant '' cannot be written"):
            serialize(program)

    def test_head_probability_range(self):
        with pytest.raises(ValueError):
            ProbHead(1.5, Atom("p"))
        with pytest.raises(ValueError):
            ProbHead(-0.1, Atom("p"))

    def test_clause_needs_heads(self):
        with pytest.raises(ValueError):
            Clause(heads=())

    def test_validate_program_flags_head_mass(self):
        ad = Clause(
            heads=(ProbHead(0.7, Atom("x", ("e", "a"))), ProbHead(0.7, Atom("x", ("e", "b"))))
        )
        problems = validate_program(ProblogProgram(clauses=(ad,)))
        assert len(problems) == 1 and "sum" in problems[0]
        ok = Clause(
            heads=(ProbHead(0.5, Atom("x", ("e", "a"))), ProbHead(0.5, Atom("x", ("e", "b"))))
        )
        assert validate_program(ProblogProgram(clauses=(ok,))) == []


class TestNodeHash:
    """An atom and a literal hash once, when built, to the value the
    dataclass itself would give: the hash of the tuple of their fields."""

    NODES = [Atom("p"), Atom("p", ("x",)), Atom("amylase", ("patient", "500-1400"))]

    def test_hashes_are_those_of_the_field_tuples(self):
        for atom in self.NODES:
            assert hash(atom) == hash((atom.predicate, atom.args))
            for negated in (False, True):
                assert hash(Literal(atom, negated)) == hash((atom, negated))

    def test_a_pickled_node_hashes_afresh_under_another_hash_seed(self, tmp_path):
        # the stored hash of a str-holding node differs between hash seeds, so
        # a loaded node must not keep the one it was pickled with
        path = tmp_path / "node.pickle"
        write = (
            "import pickle, sys\n"
            "from bayesqa.problog import Atom, Literal\n"
            "node = Literal(Atom('amylase', ('patient', '500-1400')), True)\n"
            "with open(sys.argv[1], 'wb') as f: pickle.dump((node, node.atom), f)\n"
            "print(hash(node), hash(node.atom))\n"
        )
        read = (
            "import pickle, sys\n"
            "from bayesqa.problog import Atom, Literal\n"
            "with open(sys.argv[1], 'rb') as f: literal, atom = pickle.load(f)\n"
            "fresh = Literal(Atom('amylase', ('patient', '500-1400')), True)\n"
            "assert literal == fresh and hash(literal) == hash(fresh) and hash(atom) == hash(fresh.atom)\n"
            "assert {fresh: 1}.get(literal) == 1 and {fresh.atom: 1}.get(atom) == 1\n"
            "assert {literal: 1}.get(fresh) == 1 and {atom: 1}.get(fresh.atom) == 1\n"
            "print(hash(literal), hash(atom))\n"
        )
        src = str(Path(bayesqa.__file__).resolve().parents[1])
        hashes = []
        for seed, script in (("1", write), ("2", read)):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            done = subprocess.run(
                [sys.executable, "-c", script, str(path)], capture_output=True, text=True, env=env, check=False
            )
            assert done.returncode == 0, done.stderr
            hashes.append(done.stdout.split())
        written, read_back = hashes
        assert written[0] != read_back[0] and written[1] != read_back[1]


class TestProbabilityFormat:
    cases = [
        (0.5, "0.5"),
        (1.0, "1.0"),
        (0.0, "0.0"),
        (0.9346, "0.9346"),
        (0.973, "0.973"),
        (0.123456, "0.123456"),
        (0.1, "0.1"),
        (0.25, "0.25"),
    ]

    def test_table(self):
        for value, want in self.cases:
            assert format_probability(value) == want

    def test_sub_grid_values_round(self):
        assert format_probability(1e-7) == "0.0"
        assert format_probability(0.1234567) == "0.123457"


class TestConstantAndAtomFormat:
    def test_bare_identifier_unquoted(self):
        assert format_constant("patient") == "patient"
        assert format_constant("s0_x") == "s0_x"

    def test_non_identifier_quoted(self):
        assert format_constant("500-1400") == "'500-1400'"
        assert format_constant("Big") == "'Big'"
        assert format_constant("0weird") == "'0weird'"

    def test_unrepresentable_constants(self):
        for value in ("", "don't", "300\n499"):
            with pytest.raises(UnrepresentableName, match=re.escape(repr(value))):
                format_constant(value)

    def test_atom_formats(self):
        assert format_atom(Atom("gallstones", ("patient",))) == "gallstones(patient)"
        assert format_atom(Atom("amylase", ("patient", "500-1400"))) == "amylase(patient,'500-1400')"
        assert format_atom(Atom("flag")) == "flag"

    def test_bad_predicate(self):
        atom = Atom("Weird")
        with pytest.raises(UnrepresentableName, match="'Weird'"):
            format_atom(atom)


class TestClauseFormat:
    def test_fact(self):
        c = Clause(heads=(ProbHead(0.1531, Atom("gallstones", ("patient",))),))
        assert format_clause(c) == "0.1531::gallstones(patient)."

    def test_rule_with_negation(self):
        c = Clause(
            heads=(ProbHead(0.4307, Atom("flatulence", ("patient",))),),
            body=(Literal(Atom("gallstones", ("patient",)), negated=True),),
        )
        assert format_clause(c) == "0.4307::flatulence(patient) :- not gallstones(patient)."

    def test_annotated_disjunction(self):
        c = Clause(
            heads=(
                ProbHead(0.2, Atom("x", ("e", "a"))),
                ProbHead(0.8, Atom("x", ("e", "b"))),
            ),
            body=(Literal(Atom("y", ("e",))), Literal(Atom("z", ("e",)), negated=True)),
        )
        assert format_clause(c) == "0.2::x(e,a); 0.8::x(e,b) :- y(e), not z(e)."


class TestSerialize:
    def test_statement_layout(self):
        prog = ProblogProgram(
            clauses=(Clause(heads=(ProbHead(0.5, Atom("a", ("e",))),)),),
            evidence=(Evidence(Atom("a", ("e",)), False),),
            queries=(Query(Atom("a", ("e",))),),
        )
        assert serialize(prog) == (
            "0.5::a(e).\n"
            "\n"
            "evidence(a(e), false).\n"
            "\n"
            "query(a(e)).\n"
        )

    def test_empty_program(self):
        assert serialize(ProblogProgram()) == ""

    def test_sections_ordered_clauses_evidence_queries(self):
        prog = ProblogProgram(
            clauses=(Clause(heads=(ProbHead(1.0, Atom("b")),)),),
            evidence=(Evidence(Atom("b"), True),),
            queries=(Query(Atom("b")),),
        )
        text = serialize(prog)
        assert text.index("b.") < text.index("evidence") < text.index("query")
