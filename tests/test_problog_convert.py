"""Network <-> program translation, including the fragment's rejection rules."""

from __future__ import annotations

import itertools
import re
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netgen
from bayesqa.dataset import NetworkEncoder
from bayesqa.errors import (
    NetworkFormatError,
    ProblogSyntaxError,
    UnknownClause,
    UnrepresentableName,
    UnsupportedFragment,
)
from bayesqa.inference import compile_network
from bayesqa.model import (
    ROW_SUM_TOLERANCE,
    BayesianNetwork,
    Cpt,
    Variable,
    _row_label,
    assignment_grid,
    make_network,
    network_to_dict,
    validate,
)
from bayesqa.problog import Atom, bn_to_problog, convert, parse, problog_to_bn, serialize
from bayesqa.problog.convert import (
    BINARY_STATES,
    _shared_entity,
    _variable_id,
    atom_for,
    compile_program,
    undefined_body_atom,
)
from bayesqa.problog.syntax import (
    IDENT,
    Clause,
    Evidence,
    Literal,
    ProbHead,
    ProblogProgram,
    Query,
    format_atom,
    validate_program,
)
from conftest import GALLSTONE_TEXT
from test_problog_parser import _generated_texts, _mutated


def _statements(text: str) -> set[str]:
    return set(text.strip().split("\n\n"))


class TestEncode:
    def test_reference_network_reproduces_reference_clauses(self, gallstone_net):
        ours = serialize(bn_to_problog(gallstone_net))
        reference = serialize(
            parse(
                "\n".join(
                    line
                    for line in GALLSTONE_TEXT.splitlines()
                    if not line.startswith(("evidence", "query"))
                )
            )
        )
        assert _statements(ours) == _statements(reference)

    def test_one_clause_per_row(self, gallstone_net):
        prog = bn_to_problog(gallstone_net)
        assert len(prog.clauses) == 5  # 1 prior row + 2 rows each for two children

    def test_binary_parent_appears_negated(self, gallstone_net):
        prog = bn_to_problog(gallstone_net)
        negated = [
            c for c in prog.clauses if c.body and c.body[0].negated
        ]
        assert len(negated) == 2  # one flatulence row, one amylase row

    def test_entity_override(self, gallstone_net):
        prog = bn_to_problog(gallstone_net, entity="subject")
        assert all(h.atom.args[0] == "subject" for c in prog.clauses for h in c.heads)

    def test_atom_for_polarity(self, gallstone_net):
        atom, positive = atom_for(gallstone_net, "gallstones", "true")
        assert (atom, positive) == (Atom("gallstones", ("patient",)), True)
        atom, positive = atom_for(gallstone_net, "gallstones", "false")
        assert (atom, positive) == (Atom("gallstones", ("patient",)), False)
        atom, positive = atom_for(gallstone_net, "amylase", "300-499")
        assert (atom, positive) == (Atom("amylase", ("patient", "300-499")), True)

    def test_unrepresentable_names(self):
        bad_id = make_network(
            "bad", {"Upper": (("t", "f"), (), {(): (0.5, 0.5)}), "b": (("t", "f"), (), {(): (0.5, 0.5)})}
        )
        program = bn_to_problog(bad_id)  # encoded in memory; refused when written
        assert sorted(problog_to_bn(program).variables) == ["Upper", "b"]
        with pytest.raises(UnrepresentableName, match="'Upper'"):
            serialize(program)
        with pytest.raises(UnrepresentableName, match="'Upper'"):
            NetworkEncoder(bad_id)
        bad_entity = make_network(
            "bad2",
            {"a": (("t", "f"), (), {(): (0.5, 0.5)}), "b": (("t", "f"), (), {(): (0.5, 0.5)})},
            entity="don't",
        )
        with pytest.raises(UnrepresentableName, match="don't"):
            serialize(bn_to_problog(bad_entity))


# states and the entity: short text with spaces, comment signs, carriage
# returns and non-ASCII characters, drawn half the time from an alphabet that
# adds a quote and a newline; ids: identifiers, keywords and non-identifiers
_SAFE = "ab Z9_-%.,()\r\u00e9\u6f22"
NAME_TEXT = st.text(_SAFE, min_size=1, max_size=4) | st.text(_SAFE + "'\n", min_size=1, max_size=4)
_IDENTIFIERS = ("a", "b_2", "xY", "c", "d0", "not", "evidence", "query", "true")
VARIABLE_IDS = st.sampled_from(_IDENTIFIERS) | st.sampled_from(_IDENTIFIERS + ("Upper", "9a", "\u00e9"))


@st.composite
def named_networks(draw) -> BayesianNetwork:
    """2-5 variables with drawn names and parents in drawn order; two-state
    variables keep ("true", "false"), the decoder's canonical form. The
    entity may be empty, which the writer refuses."""

    ids = draw(st.lists(VARIABLE_IDS, min_size=2, max_size=5, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net = BayesianNetwork(name="named", entity=draw(st.just("") | NAME_TEXT))
    for i, vid in enumerate(ids):
        k = draw(st.integers(2, 4))
        states = BINARY_STATES if k == 2 else tuple(draw(st.lists(NAME_TEXT, min_size=k, max_size=k, unique=True)))
        parent_ids = tuple(draw(st.lists(st.sampled_from(ids[:i]), max_size=2, unique=True))) if i else ()
        net.variables[vid] = Variable(id=vid, name=vid, states=states)
        net.cpts[vid] = Cpt(
            variable=vid,
            parents=parent_ids,
            rows={key: netgen.grid_row(rng, k) for key in assignment_grid(net, parent_ids)},
        )
    return net


class TestNamesInPrograms:
    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(named_networks())
    def test_every_written_program_reads_back(self, net):
        if validate(net):
            return
        try:
            text = serialize(bn_to_problog(net))
        except UnrepresentableName:
            return  # refused at the writer; nothing unreadable was written
        again = problog_to_bn(parse(text), name=net.name)
        assert network_to_dict(again) == network_to_dict(net)


class TestDecode:
    def test_reference_program(self, gallstone_net):
        assert sorted(gallstone_net.variables) == ["amylase", "flatulence", "gallstones"]
        assert gallstone_net.entity == "patient"
        assert gallstone_net.variables["gallstones"].states == ("true", "false")
        assert gallstone_net.variables["amylase"].states == ("0-299", "300-499", "500-1400")
        assert gallstone_net.cpts["amylase"].parents == ("gallstones",)
        assert gallstone_net.cpts["gallstones"].rows[()] == (0.1531, 1.0 - 0.1531)
        assert gallstone_net.cpts["amylase"].rows[("true",)] == (0.9346, 0.0467, 0.0187)

    def test_parents_keep_their_order(self, unsorted_parents_net):
        # the bodies name b_2 before a, so the decoded CPT does too
        net = unsorted_parents_net
        again = problog_to_bn(parse(serialize(bn_to_problog(net))), name=net.name)
        assert again.cpts["xY"].parents == ("b_2", "a")
        assert network_to_dict(again) == network_to_dict(net)

    def test_round_trip_is_exact_on_generated_networks(self):
        rng = np.random.default_rng(99)
        for i in range(25):
            net = netgen.random_network(rng, name=f"rt{i}")
            again = problog_to_bn(bn_to_problog(net), name=net.name)
            assert network_to_dict(again) == network_to_dict(net)

    def test_deterministic_single_head_row_joins_group(self):
        prog = parse(
            "0.7::c(e).\n"
            "0.2::x(e,a); 0.3::x(e,b); 0.5::x(e,c) :- c(e).\n"
            "1.0::x(e,a) :- not c(e).\n"
        )
        net = problog_to_bn(prog)
        assert net.cpts["x"].rows[("false",)] == (1.0, 0.0, 0.0)

    def test_no_shared_entity_keeps_atom_ids(self):
        net = problog_to_bn(parse("0.5::a(x).\n0.5::b(y)."))
        assert sorted(net.variables) == ["a(x)", "b(y)"]

    def test_zero_arity_atoms(self):
        net = problog_to_bn(parse("0.5::a.\n0.5::b :- a.\n0.4::b :- not a."))
        assert sorted(net.variables) == ["a", "b"]
        assert net.cpts["b"].parents == ("a",)

    def test_resolution_tables(self, gallstone_program):
        compiled = compile_program(gallstone_program)
        assert compiled.resolve_atom(Atom("gallstones", ("patient",))) == ("gallstones", "true")
        assert compiled.resolve_atom(Atom("amylase", ("patient", "0-299"))) == ("amylase", "0-299")
        var, allowed = compiled.constraint_for(Atom("amylase", ("patient", "0-299")), False)
        assert (var, allowed) == ("amylase", frozenset({"300-499", "500-1400"}))
        with pytest.raises(UnknownClause):
            compiled.resolve_atom(Atom("nope", ("patient",)))


class TestFragmentRejection:
    @pytest.mark.parametrize(
        "text, hint",
        [
            ("0.5::a(e).\n0.3::a(e).", "overlap"),
            ("0.7::c(e).\n0.5::x(e,a); 0.5::x(e,b) :- c(e).", "no clause covers"),
            ("0.5::x(e,a); 0.5::y(e,b).", "mixes"),
            ("0.5::x(e,a); 0.5::x(e,a).", "duplicate head state"),
            ("0.5::x(e,a); 0.2::x(e,b).", "sum"),
            ("0.5::a; 0.5::b.", "zero-argument"),
            # without a shared multi-head clause the two heads stay separate
            # binary atoms, each covering only half the parent grid
            ("0.4::x(e,a) :- c(e).\n0.6::x(e,b) :- not c(e).\n0.7::c(e).", "no clause covers"),
        ],
    )
    def test_rejected_programs(self, text, hint):
        with pytest.raises(UnsupportedFragment, match=hint):
            problog_to_bn(parse(text))

    def test_predicate_used_inconsistently(self):
        # a(e) loses its shared entity and becomes the id of the bare atom a
        with pytest.raises(UnsupportedFragment, match=r"^predicate\(s\) used inconsistently: a$"):
            problog_to_bn(parse("0.5::a(e).\n0.5::a."))

    @pytest.mark.parametrize("over, refused", [(0.5, False), (2.0, True)])
    def test_head_mass_slack_is_the_row_sum_tolerance(self, over, refused):
        # the decoder and validate_program read the same slack
        program = ProblogProgram(clauses=(Clause((
            ProbHead(0.5, Atom("x", ("e", "a"))), ProbHead(0.5 + over * ROW_SUM_TOLERANCE, Atom("x", ("e", "b"))),
        )),))
        assert bool(validate_program(program)) is refused
        if refused:
            with pytest.raises(UnsupportedFragment, match=r"^head probabilities for x\(e,_\) sum to .*, not 1$"):
                compile_program(program)
        else:
            compile_program(program)

    def test_cyclic_dependency_rejected(self):
        text = (
            "0.5::a(e) :- b(e).\n0.6::a(e) :- not b(e).\n"
            "0.7::b(e) :- a(e).\n0.8::b(e) :- not a(e).\n"
        )
        with pytest.raises(UnsupportedFragment, match="cycle"):
            problog_to_bn(parse(text))

    def test_undefined_body_atom(self):
        with pytest.raises(UnknownClause):
            problog_to_bn(parse("0.5::a(e) :- ghost(e)."))

    def test_empty_program(self):
        with pytest.raises(UnsupportedFragment):
            problog_to_bn(parse("% nothing here"))

    def test_undefined_state_of_known_group(self):
        text = "0.5::x(e,a); 0.5::x(e,b).\n0.5::y(e) :- x(e,c).\n0.5::y(e) :- not x(e,c)."
        with pytest.raises(UnknownClause, match=r"^atom x\(e,c\) in clause 2 names undefined state 'c'$"):
            problog_to_bn(parse(text))


class TestValidateIsTheOracle:
    """compile_program enforces the network invariants in its own passes and
    checks only acyclicity at the end; model.validate must find nothing
    wrong with any network it returns."""

    @staticmethod
    def _mutate(rng, program: ProblogProgram) -> ProblogProgram:
        clauses = list(program.clauses)
        i = int(rng.integers(len(clauses)))
        clause = clauses[i]
        heads = [h.atom for c in clauses for h in c.heads]
        kind = int(rng.integers(5))
        if kind == 0:  # perturb the first head
            first = ProbHead(round(float(rng.random()), 6), clause.heads[0].atom)
            clauses[i] = Clause((first,) + clause.heads[1:], clause.body)
        elif kind == 1 and len(clauses) > 1:
            del clauses[i]
        elif kind == 2:
            clauses.insert(i, clause)
        elif kind == 3 or not clause.body:  # add a body literal
            atom = heads[int(rng.integers(len(heads)))]
            clauses[i] = Clause(clause.heads, clause.body + (Literal(atom, bool(rng.integers(2))),))
        else:  # flip a body literal
            j = int(rng.integers(len(clause.body)))
            lit = clause.body[j]
            body = clause.body[:j] + (Literal(lit.atom, not lit.negated),) + clause.body[j + 1 :]
            clauses[i] = Clause(clause.heads, body)
        return ProblogProgram(tuple(clauses), program.evidence, program.queries)

    @staticmethod
    def _with_cycle(net, program: ProblogProgram, same_literal: bool) -> ProblogProgram:
        """Make a child a parent of its own parent: every clause of the parent
        gets one literal of the child, either the same literal on every
        clause (a coverage gap) or one copy per child state (a full grid)."""

        child = next(v for v in sorted(net.cpts) if net.cpts[v].parents)
        parent = net.cpts[child].parents[0]
        literals = [Literal(atom, not positive) for atom, positive in (
            atom_for(net, child, s) for s in net.states(child)
        )]
        if same_literal:
            literals = literals[:1]
        owners = compile_program(program).atoms
        clauses = []
        for clause in program.clauses:
            if owners[clause.heads[0].atom][0] != parent:
                clauses.append(clause)
                continue
            clauses.extend(Clause(clause.heads, clause.body + (lit,)) for lit in literals)
        return ProblogProgram(tuple(clauses), program.evidence, program.queries)

    def test_compiled_networks_pass_validate(self):
        rng = np.random.default_rng(2024)
        outcomes = Counter()
        for i in range(600):
            net = netgen.random_network(rng, name=f"or{i}", max_vars=6)
            program = bn_to_problog(net)
            variants = [program, self._mutate(rng, program)]
            if any(cpt.parents for cpt in net.cpts.values()):
                variants += [self._with_cycle(net, program, same) for same in (True, False)]
            for k, variant in enumerate(variants):
                try:
                    compiled = compile_program(variant)
                except (UnsupportedFragment, UnknownClause) as exc:
                    outcomes[k, type(exc).__name__] += 1
                    if k == 3:
                        assert str(exc).startswith(
                            "program does not encode a valid network: [cycle] network: "
                            "network contains a cycle involving: "
                        )
                    continue
                assert k not in (2, 3)
                assert validate(compiled.network) == []
                outcomes[k, "ok"] += 1
        # variants: 0 plain, 1 mutated, 2 a cycle with a coverage gap, 3 a cycle
        assert outcomes[0, "ok"] == 600 and outcomes[1, "ok"] >= 50, outcomes
        assert outcomes[2, "UnsupportedFragment"] == outcomes[3, "UnsupportedFragment"] >= 300, outcomes


class TestParentGrid:
    """How clause bodies map onto a variable's parent assignment grid."""

    GROUP = "0.2::x(e,a); 0.3::x(e,b); 0.5::x(e,c).\n0.5::z(e).\n"

    def test_negated_wide_literal_covers_the_other_rows(self):
        net = problog_to_bn(parse(self.GROUP + "0.75::y(e) :- not x(e,a).\n0.25::y(e) :- x(e,a).\n"))
        assert net.cpts["y"].parents == ("x",)
        assert net.cpts["y"].rows == {("a",): (0.25, 0.75), ("b",): (0.75, 0.25), ("c",): (0.75, 0.25)}

    def test_literals_on_one_parent_intersect(self):
        # not a and not b leaves c alone; the other clauses fill a and b
        text = self.GROUP + (
            "0.75::y(e) :- not x(e,a), not x(e,b).\n"
            "0.25::y(e) :- x(e,a).\n"
            "0.5::y(e) :- x(e,b).\n"
        )
        net = problog_to_bn(parse(text))
        assert net.cpts["y"].rows == {("a",): (0.25, 0.75), ("b",): (0.5, 0.5), ("c",): (0.75, 0.25)}

    def test_root_overlap_names_the_empty_assignment(self):
        with pytest.raises(
            UnsupportedFragment, match=r"^a: clause 1 and clause 2 overlap on parent assignment \(\)$"
        ):
            problog_to_bn(parse("0.3::a(e).\n0.4::a(e).\nquery(a(e))."))

    def test_overlap_lists_every_covering_clause_in_order(self):
        text = self.GROUP + (
            "0.1::y(e) :- not x(e,b).\n"
            "0.2::y(e) :- x(e,a).\n"
            "0.3::y(e) :- not x(e,c).\n"
            "0.4::y(e).\n"
        )
        with pytest.raises(
            UnsupportedFragment,
            match=r"^y: clause 3 and clause 4 and clause 5 and clause 6 overlap on parent assignment \(x=a\)$",
        ):
            problog_to_bn(parse(text))

    def test_a_gap_in_a_wide_grid_is_found_without_walking_the_grid(self):
        # 2**40 cells, two covered: the walk stops at the first gap
        parents = [f"p{i}" for i in range(40)]
        text = "".join(f"0.5::{p}(e).\n" for p in parents) + "".join(
            f"0.5::y(e) :- {', '.join(sign + p + '(e)' for p in parents)}.\n" for sign in ("", "not ")
        )
        label = ", ".join(f"{p}=true" for p in parents[:-1]) + ", p39=false"
        with pytest.raises(UnsupportedFragment, match=rf"^y: no clause covers parent assignment \({label}\)$"):
            problog_to_bn(parse(text))

    def test_a_gap_past_int64_codes_is_named(self):
        # 2**70 cells times two bodies: no cell's code fits an int64
        parents = [f"p{i}" for i in range(70)]
        text = "".join(f"0.5::{p}(e).\n" for p in parents) + "".join(
            f"0.5::y(e) :- {', '.join(p + '(e)' for p in parents[:-1])}, {sign}p69(e).\n" for sign in ("", "not ")
        )
        label = ", ".join(f"{p}=true" for p in parents[:-2]) + ", p68=false, p69=true"
        with pytest.raises(UnsupportedFragment, match=rf"^y: no clause covers parent assignment \({label}\)$"):
            problog_to_bn(parse(text))

    @staticmethod
    def _one_body_on_p0(n: int) -> str:
        # y's bodies are p0 alone, which covers half of the 2**n grid, and
        # one cell of it
        parents = [f"p{i}" for i in range(n)]
        return "".join(f"0.5::{p}(e).\n" for p in parents) + (
            f"0.5::y(e) :- p0(e).\n0.5::y(e) :- {', '.join(p + '(e)' for p in parents)}.\n"
        )

    def test_an_overlap_under_the_bound_names_its_cell(self):
        label = ", ".join(f"p{i}=true" for i in range(14))
        with pytest.raises(
            UnsupportedFragment, match=rf"^y: clause 15 and clause 16 overlap on parent assignment \({label}\)$"
        ):
            problog_to_bn(parse(self._one_body_on_p0(14)))

    def test_an_overlap_on_half_a_large_grid_names_its_cell_quickly(self):
        # 2**19 + 1 cells are listed, one int each
        label = ", ".join(f"p{i}=true" for i in range(20))
        text = self._one_body_on_p0(20)
        start = time.perf_counter()
        with pytest.raises(
            UnsupportedFragment, match=rf"^y: clause 21 and clause 22 overlap on parent assignment \({label}\)$"
        ):
            problog_to_bn(parse(text))
        assert time.perf_counter() - start < 2.0

    def test_listed_cells_cost_at_most_30_bytes_each(self):
        # 2**17 + 1 cells are listed, one int64 each, plus the search for the first bad one
        program = parse(self._one_body_on_p0(18))
        tracemalloc.start()
        try:
            with pytest.raises(UnsupportedFragment, match=r"^y: clause 19 and clause 20 overlap on parent assignment "):
                problog_to_bn(program)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 30 * (2**17 + 1)

    def test_cells_beyond_the_table_bound_are_refused_before_listing(self):
        # 2**29 + 1 cells: listing them would take tens of minutes
        text = self._one_body_on_p0(30)
        start = time.perf_counter()
        with pytest.raises(
            UnsupportedFragment,
            match=r"^y: clause bodies cover 536870913 parent assignments, more than the bound of 10000000$",
        ):
            problog_to_bn(parse(text))
        assert time.perf_counter() - start < 1.0

    def test_encoded_bodies_are_looked_up_as_grid_keys(self, monkeypatch, gallstone_net):
        # the lookup, not the cell listing, decodes every CPT of an encoded
        # network, roots included; that lookup is most of the decoder's speed
        monkeypatch.setattr(convert, "_count_cover", lambda *args: pytest.fail("cells listed"))
        rng = np.random.default_rng(5)
        for net in [gallstone_net] + [netgen.random_network(rng, name=f"k{i}") for i in range(20)]:
            for program in (bn_to_problog(net), parse(serialize(bn_to_problog(net)))):
                got = compile_program(program).network
                assert {v: cpt.parents for v, cpt in got.cpts.items()} == {v: cpt.parents for v, cpt in net.cpts.items()}

    def test_a_parent_named_twice_in_every_body_is_one_parent(self):
        # four bodies over a binary z, as many as a grid over (z, z) has cells
        text = "0.5::z(e).\n" + "".join(
            f"0.{k + 1}::y(e) :- {a}z(e), {b}z(e).\n" for k, (a, b) in enumerate(itertools.product(("", "not "), repeat=2))
        )
        net = problog_to_bn(parse(text))
        assert net.cpts["y"].parents == ("z",)
        assert net.cpts["y"].rows == {("true",): (0.1, 1.0 - 0.1), ("false",): (0.4, 1.0 - 0.4)}

    @pytest.mark.parametrize(
        "body_a, body_b, message",
        [
            # (x=a, z=true) is doubly covered and (x=b, z=false) uncovered: the overlap comes first
            ("x(e,a)", "not x(e,c), z(e)",
             r"^y: clause 3 and clause 4 overlap on parent assignment \(x=a, z=true\)$"),
            # (x=a, z=true) is uncovered before (x=b, z=true) is doubly covered
            ("x(e,b)", "not x(e,a), z(e)",
             r"^y: no clause covers parent assignment \(x=a, z=true\)$"),
        ],
    )
    def test_first_failing_cell_in_row_major_order_decides(self, body_a, body_b, message):
        text = self.GROUP + f"0.1::y(e) :- {body_a}.\n0.2::y(e) :- {body_b}.\n0.3::y(e) :- x(e,c).\n"
        with pytest.raises(UnsupportedFragment, match=message):
            problog_to_bn(parse(text))


def _reference_compile(program: ProblogProgram) -> tuple[BayesianNetwork, dict[Atom, tuple[str, str]]]:
    """``compile_program`` as it was before it worked on state indices, kept as
    the reference: a body is a frozenset of allowed state names per parent,
    and the parent grid is covered by state-name tuples. Returns the network
    and the atom table."""

    if not program.clauses:
        raise UnsupportedFragment("program defines no clauses")
    states: dict[object, list[str]] = {}
    for clause in program.clauses:
        if len(clause.heads) > 1:
            first = clause.heads[0].atom
            if not first.args:
                raise UnsupportedFragment(f"annotated disjunction over zero-argument atom {format_atom(first)}")
            prefix = first.args[:-1]
            for h in clause.heads[1:]:
                if h.atom.predicate != first.predicate or h.atom.args[:-1] != prefix:
                    raise UnsupportedFragment(
                        f"annotated disjunction mixes atoms {format_atom(first)} and {format_atom(h.atom)}"
                    )
            states.setdefault((first.predicate, prefix), [])

    heads: dict[Atom, tuple[object, str]] = {}
    clause_keys: list[tuple[object, dict[str, float]]] = []
    for clause in program.clauses:
        atom = clause.heads[0].atom
        group = (atom.predicate, atom.args[:-1]) if atom.args else None
        if group in states:
            key: object = group
            dist: dict[str, float] = {}
            for h in clause.heads:
                state = h.atom.args[-1]
                if state in dist:
                    raise UnsupportedFragment(f"duplicate head state {state!r} in {format_atom(h.atom)}")
                dist[state] = h.probability
                if h.atom not in heads:
                    heads[h.atom] = (key, state)
                    states[key].append(state)
            total = sum(dist.values())
            if abs(total - 1.0) > ROW_SUM_TOLERANCE:
                pred, prefix = group
                label = f"{pred}({','.join(prefix)},_)" if prefix else f"{pred}(_)"
                raise UnsupportedFragment(f"head probabilities for {label} sum to {total!r}, not 1")
        else:
            key = atom
            if key not in states:
                states[key] = list(BINARY_STATES)
                heads[atom] = (key, BINARY_STATES[0])
            p = clause.heads[0].probability
            dist = {BINARY_STATES[0]: p, BINARY_STATES[1]: 1.0 - p}
        clause_keys.append((key, dist))

    entity = _shared_entity(states)
    ids = {key: _variable_id(key, entity) for key in states}
    if len(set(ids.values())) < len(ids):
        dup = sorted(v for v, n in Counter(ids.values()).items() if n > 1)
        raise UnsupportedFragment(f"predicate(s) used inconsistently: {', '.join(dup)}")
    net = BayesianNetwork(name="program", entity=entity or "x")
    for key, vid in ids.items():
        net.variables[vid] = Variable(id=vid, name=vid, states=tuple(states[key]))
    atoms = {a: (ids[k], s) for a, (k, s) in heads.items()}

    clause_rows: dict[object, list] = {key: [] for key in states}
    for ci, (clause, (key, dist)) in enumerate(zip(program.clauses, clause_keys)):
        constraints: dict[str, frozenset[str]] = {}
        for lit in clause.body:
            if lit.atom not in atoms:
                raise undefined_body_atom(lit.atom, ci + 1, states)
            vid, state = atoms[lit.atom]
            allowed = frozenset(net.states(vid)) - {state} if lit.negated else frozenset((state,))
            constraints[vid] = constraints[vid] & allowed if vid in constraints else allowed
        clause_rows[key].append((ci, constraints, tuple(dist.get(s, 0.0) for s in states[key])))

    for key, vid in ids.items():
        parent_ids = tuple(dict.fromkeys(p for _, cons, _ in clause_rows[key] for p in cons))
        cover: dict[tuple[str, ...], list[int]] = {}
        for k, (_, cons, _) in enumerate(clause_rows[key]):
            for cell in itertools.product(*(cons[p] if p in cons else net.states(p) for p in parent_ids)):
                cover.setdefault(cell, []).append(k)
        rows: dict[tuple[str, ...], tuple[float, ...]] = {}
        for cell in assignment_grid(net, parent_ids):
            hits = cover.get(cell, ())
            if len(hits) != 1:
                label = _row_label(parent_ids, cell)
                if not hits:
                    raise UnsupportedFragment(f"{vid}: no clause covers parent assignment {label}")
                which = " and ".join(f"clause {clause_rows[key][k][0] + 1}" for k in hits)
                raise UnsupportedFragment(f"{vid}: {which} overlap on parent assignment {label}")
            rows[cell] = clause_rows[key][hits[0]][2]
        net.cpts[vid] = Cpt(variable=vid, parents=parent_ids, rows=rows)

    try:
        compile_network(net)
    except NetworkFormatError as exc:
        raise UnsupportedFragment(f"program does not encode a valid network: [cycle] network: {exc}") from None
    return net, atoms


def _outcome(compile_, program: ProblogProgram) -> tuple:
    """What compiling gives, in a form that compares orders and float bits:
    every variable, every CPT with its rows in order, and the atom table; or
    the exception's type and text."""

    try:
        net, atoms = compile_(program)
    except (UnsupportedFragment, UnknownClause) as exc:
        return type(exc).__name__, str(exc)
    variables = [(vid, v.id, v.name, v.states) for vid, v in net.variables.items()]
    cpts = [
        (vid, cpt.variable, cpt.parents, [(key, [p.hex() for p in row]) for key, row in cpt.rows.items()])
        for vid, cpt in net.cpts.items()
    ]
    return "ok", net.name, net.entity, variables, cpts, list(atoms.items())


def _fresh(program: ProblogProgram) -> ProblogProgram:
    """``program`` with a new atom object, and a new literal object, for each
    occurrence."""

    def atom(a: Atom) -> Atom:
        return Atom(a.predicate, tuple(list(a.args)))

    clauses = [
        Clause(tuple([ProbHead(h.probability, atom(h.atom)) for h in c.heads]),
               tuple([Literal(atom(lit.atom), lit.negated) for lit in c.body]))
        for c in program.clauses
    ]
    evidence = [Evidence(atom(e.atom), e.value) for e in program.evidence]
    return ProblogProgram(tuple(clauses), tuple(evidence), tuple([Query(atom(q.atom)) for q in program.queries]))


# a bare constant argument of an atom: after '(' or ',', before ',' or ')',
# outside quotes, and not the atom of a statement's evidence or query
_BARE_ARGUMENT = re.compile(rf"('[^'\n]*')|(?<!^evidence)(?<!^query)([(,])({IDENT})(?=[,)])", re.M)


def _requoted(text: str) -> str:
    """Canonical ``text`` with every bare constant argument quoted: ``a(x,y)``
    becomes ``a('x','y')``; evidence's ``true`` and ``false`` stay bare."""

    return _BARE_ARGUMENT.sub(lambda m: m[1] or f"{m[2]}'{m[3]}'", text)


def _compiled(program: ProblogProgram) -> tuple[BayesianNetwork, dict[Atom, tuple[str, str]]]:
    compiled = compile_program(program)
    return compiled.network, compiled.atoms


class TestIndexedDecoder:
    """compile_program gives what the string-keyed reference gives: the same
    network and atom table, or the same refusal."""

    # words of the UnsupportedFragment refusals each met at least 20 times
    FRAGMENT_REFUSALS = ("overlap", "no clause covers", "sum to", "cycle")

    def test_generated_and_mutated_texts_match_the_reference(self):
        outcomes = Counter()
        for rng, _, text in _generated_texts(500, 9292):
            keyword = ("query", "evidence", "not")[int(rng.integers(3))]
            for source in (text, re.sub(r"\bv0\(", keyword + "(", text)):
                for mutated in [source] + [_mutated(rng, source) for _ in range(3)]:
                    try:
                        program = parse(mutated)
                    except ProblogSyntaxError:
                        outcomes["syntax"] += 1
                        continue
                    # the same program with one clause edited, which puts
                    # new, equal literals beside the parser's shared ones,
                    # and with a cycle added
                    variants = [program, TestValidateIsTheOracle._mutate(rng, program)]
                    try:
                        net = compile_program(program).network
                    except (UnsupportedFragment, UnknownClause):
                        pass
                    else:
                        if any(cpt.parents for cpt in net.cpts.values()):
                            variants.append(TestValidateIsTheOracle._with_cycle(net, program, False))
                    for variant in variants:
                        want = _outcome(_reference_compile, variant)
                        assert _outcome(_compiled, variant) == want, serialize(variant)
                        kind = want[0]  # "ok", "UnknownClause" or "UnsupportedFragment"
                        if kind == "UnsupportedFragment":
                            kind = next((w for w in self.FRAGMENT_REFUSALS if w in want[1]), "other")
                        outcomes[kind] += 1
        assert outcomes["ok"] >= 1000 and outcomes["UnknownClause"] >= 20, outcomes
        assert all(outcomes[w] >= 20 for w in self.FRAGMENT_REFUSALS), outcomes

    def test_equal_atoms_that_are_not_one_object_resolve_alike(self, gallstone_net):
        # the atoms bn_to_problog builds and those parse builds from its text
        # are different objects
        rng = np.random.default_rng(31)
        nets = [gallstone_net] + [netgen.random_network(rng, name=f"eq{i}") for i in range(40)]
        for net in nets:
            built = bn_to_problog(net)
            parsed = parse(serialize(built))
            want = _outcome(_compiled, parsed)
            assert want[0] == "ok"
            assert _outcome(_compiled, built) == want == _outcome(_reference_compile, built)

    def test_fresh_and_requoted_nodes_compile_alike(self):
        # a node is a value: the program rebuilt with a fresh node for every
        # occurrence, and its text with every bare constant quoted, compile
        # to what the program compiles to, network, atom table or refusal
        outcomes = Counter()
        for rng, _, text in _generated_texts(200, 9494):
            program = parse(text)
            for variant in (program, TestValidateIsTheOracle._mutate(rng, program)):
                requoted = parse(_requoted(serialize(variant)))
                assert requoted == variant
                want = _outcome(_reference_compile, variant)
                for got in (variant, _fresh(variant), requoted):
                    assert _outcome(_compiled, got) == want, serialize(variant)
                outcomes[want[0]] += 1
        assert outcomes["ok"] >= 100 and outcomes["UnsupportedFragment"] >= 20, outcomes

    def test_one_literal_object_in_two_clauses_and_an_equal_one_in_a_third(self):
        c, x = Atom("c", ("e",)), Atom("x", ("e",))
        shared, equal = Literal(Atom("c", ("e",)), negated=True), Literal(Atom("c", ("e",)), negated=True)
        assert shared == equal and shared is not equal and shared.atom is not c
        ya, yb = Atom("y", ("e", "a")), Atom("y", ("e", "b"))
        program = ProblogProgram(clauses=(
            Clause((ProbHead(0.7, c),)),
            Clause((ProbHead(0.6, x),)),
            Clause((ProbHead(0.1, Atom("z", ("e",))),), (shared, Literal(x))),
            Clause((ProbHead(0.4, Atom("z", ("e",))),), (shared, Literal(x, negated=True))),
            Clause((ProbHead(0.9, Atom("z", ("e",))),), (Literal(c),)),
            Clause((ProbHead(0.2, ya), ProbHead(0.8, yb)), (equal,)),
            Clause((ProbHead(0.3, yb), ProbHead(0.7, ya)), (Literal(c),)),
        ))
        net = compile_program(program).network
        assert net.cpts["z"].parents == ("c", "x")
        assert net.cpts["z"].rows == {
            ("true", "true"): (0.9, 1.0 - 0.9), ("true", "false"): (0.9, 1.0 - 0.9),
            ("false", "true"): (0.1, 1.0 - 0.1), ("false", "false"): (0.4, 1.0 - 0.4),
        }
        assert net.cpts["y"].rows == {("true",): (0.7, 0.3), ("false",): (0.2, 0.8)}
        assert _outcome(_compiled, program) == _outcome(_reference_compile, program)
