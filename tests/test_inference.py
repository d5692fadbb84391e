"""Inference-engine tests: enumeration and elimination against hand sums."""

from __future__ import annotations

import functools
import gc
import itertools
import json
import re
import tracemalloc
import weakref
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import exact
import netgen
from bayesqa import inference
from bayesqa.errors import (
    EnumerationBoundExceeded,
    FactorBoundExceeded,
    QueryEvidenceOverlap,
    UnknownState,
    UnknownVariable,
    ZeroProbabilityEvidence,
)
from bayesqa.inference import (
    CompiledNetwork,
    _Factor,
    compile_network,
    conditional_query,
    constrained_sweep,
    eliminate,
    joint_probability,
    marginal,
    masked_posterior,
    posterior,
)
from bayesqa.model import Cpt, Variable, assignment_grid, children, make_network, topological_order
from bayesqa.problog import evaluate
from bayesqa.problog.convert import compile_program
from conftest import three_state_chain


def _chain():
    """a -> b -> c, all binary; small enough to audit every sum by hand."""

    return make_network(
        "chain",
        {
            "a": (("t", "f"), (), {(): (0.3, 0.7)}),
            "b": (("t", "f"), ("a",), {("t",): (0.9, 0.1), ("f",): (0.2, 0.8)}),
            "c": (("t", "f"), ("b",), {("t",): (0.6, 0.4), ("f",): (0.1, 0.9)}),
        },
    )


class TestEnumeration:
    def test_joint_probability(self):
        net = _chain()
        assert joint_probability(net, {"a": "t", "b": "t", "c": "t"}) == pytest.approx(
            0.3 * 0.9 * 0.6, abs=1e-15
        )

    def test_joint_requires_full_assignment(self):
        with pytest.raises(UnknownVariable, match="missing"):
            joint_probability(_chain(), {"a": "t"})

    def test_marginal_hand_values(self):
        net = _chain()
        assert marginal(net, {"b": "t"}) == pytest.approx(0.41, abs=1e-15)
        assert marginal(net, {"a": "t", "c": "t"}) == pytest.approx(0.165, abs=1e-15)
        assert marginal(net, {}) == pytest.approx(1.0, abs=1e-12)

    def test_conditional_causal_direction(self):
        net = _chain()
        r = conditional_query(net, "c", "t", {"a": "t"})
        assert r.method == "enumeration"
        assert r.probability == pytest.approx(0.9 * 0.6 + 0.1 * 0.1, abs=1e-15)

    def test_conditional_evidential_direction(self):
        net = _chain()
        r = conditional_query(net, "a", "t", {"c": "t"})
        assert r.probability == pytest.approx(0.165 / 0.305, abs=1e-12)

    def test_conditional_no_evidence_is_marginal(self):
        net = _chain()
        r = conditional_query(net, "c", "t", {})
        assert r.probability == pytest.approx(0.305, abs=1e-15)

    def test_reference_example(self, gallstone_net):
        r = conditional_query(gallstone_net, "amylase", "500-1400", {"flatulence": "true"})
        assert r.probability == 0.011316399030456706

    def test_query_evidence_overlap(self):
        with pytest.raises(QueryEvidenceOverlap):
            conditional_query(_chain(), "a", "t", {"a": "f"})

    def test_unknown_names(self):
        net = _chain()
        with pytest.raises(UnknownVariable):
            conditional_query(net, "nope", "t", {})
        with pytest.raises(UnknownState):
            conditional_query(net, "a", "maybe", {})
        with pytest.raises(UnknownVariable):
            marginal(net, {"nope": "t"})

    def test_zero_probability_evidence(self):
        net = make_network(
            "det",
            {
                "a": (("t", "f"), (), {(): (1.0, 0.0)}),
                "b": (("t", "f"), ("a",), {("t",): (0.5, 0.5), ("f",): (0.5, 0.5)}),
            },
        )
        with pytest.raises(ZeroProbabilityEvidence):
            conditional_query(net, "b", "t", {"a": "f"})

    def test_constrained_sweep_matches_marginals(self, gallstone_net):
        total, nums = constrained_sweep(
            gallstone_net,
            {"flatulence": "true"},
            [("amylase", "500-1400"), ("gallstones", "true")],
        )
        assert total == pytest.approx(marginal(gallstone_net, {"flatulence": "true"}), abs=1e-15)
        assert nums[0] == pytest.approx(
            marginal(gallstone_net, {"flatulence": "true", "amylase": "500-1400"}), abs=1e-15
        )
        assert nums[1] / total == pytest.approx(
            conditional_query(gallstone_net, "gallstones", "true", {"flatulence": "true"}).probability,
            abs=1e-15,
        )

    def test_constrained_sweep_set_constraint(self, gallstone_net):
        total, _ = constrained_sweep(
            gallstone_net, {"amylase": {"0-299", "300-499"}}, []
        )
        by_hand = marginal(gallstone_net, {"amylase": "0-299"}) + marginal(
            gallstone_net, {"amylase": "300-499"}
        )
        assert total == pytest.approx(by_hand, abs=1e-12)


class TestSweepBound:
    def test_refuses_by_size_before_the_first_world(self):
        # the joint array would take 38 MB; the refusal must come before it
        net = three_state_chain(14)
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationBoundExceeded) as info:
                conditional_query(net, "v13", "s0", {})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert str(info.value) == (
            "enumeration would walk 4782969 joint states, more than the bound of 1048576;"
            " use --method elimination"
        )

    def test_holds_one_full_size_array(self):
        # 2**20 free states take 8 MiB; the product is formed in place and
        # summed, and its target slice too, by a reduce that makes no copy,
        # so nothing else of that size is allocated
        tables = {"b0": (("t", "f"), (), {(): (0.3, 0.7)})}
        for i in range(1, 21):
            tables[f"b{i}"] = (("t", "f"), (f"b{i - 1}",), {("t",): (0.9, 0.1), ("f",): (0.2, 0.8)})
        net = make_network("chain21", tables)
        tracemalloc.start()
        try:
            got = conditional_query(net, "b20", "t", {"b0": "f"}).probability
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * 2**20
        assert got == pytest.approx(eliminate(net, "b20", "t", {"b0": "f"}).probability, abs=1e-12)

    def test_counts_the_states_left_by_evidence(self, monkeypatch):
        net = three_state_chain(14)
        evidence = {f"v{i}": "s1" for i in range(8)}
        expected = eliminate(net, "v13", "s0", evidence).probability
        assert conditional_query(net, "v13", "s0", evidence).probability == pytest.approx(expected, abs=1e-12)
        # v8..v13 are free: 3**6 states, or 2 * 3**5 with v8 limited to two
        monkeypatch.setattr(inference, "MAX_JOINT_STATES", 2 * 3**5)
        total, _ = constrained_sweep(net, {**evidence, "v8": {"s0", "s2"}}, [])
        parts = [marginal(net, {**evidence, "v8": s}) for s in ("s0", "s2")]
        assert total == pytest.approx(sum(parts), abs=1e-15)
        with pytest.raises(EnumerationBoundExceeded, match=r"walk 729 joint states"):
            constrained_sweep(net, evidence, [])


def _grid(n):
    """An n-by-n grid of binary variables, each a child of the variables above
    and to the left of it."""

    p_true = (0.3, 0.5, 0.8)  # by the number of true parents
    tables = {}
    for i, j in itertools.product(range(n), repeat=2):
        parents = (f"g{i - 1}_{j}",) * (i > 0) + (f"g{i}_{j - 1}",) * (j > 0)
        rows = {key: (p_true[key.count("t")], 1.0 - p_true[key.count("t")])
                for key in itertools.product(("t", "f"), repeat=len(parents))}
        tables[f"g{i}_{j}"] = (("t", "f"), parents, rows)
    return make_network(f"grid{n}", tables)


def _cliff_networks():
    """The five 76-variable, 3-state structures of the benchmark's cliff rung,
    whose largest elimination table for the last variable has 3**13 entries,
    with CPT rows drawn from a fixed seed."""

    states = ("s0", "s1", "s2")
    structures = json.loads((Path(__file__).parent / "data" / "cliff_structures.json").read_text())
    for k, parents in enumerate(structures):
        rng = np.random.default_rng(k)
        tables = {}
        for i, ps in enumerate(parents):
            ps = tuple(f"v{p}" for p in ps)
            rows = {key: netgen.grid_row(rng, 3) for key in itertools.product(states, repeat=len(ps))}
            tables[f"v{i}"] = (states, ps, rows)
        yield make_network(f"cliff{k}", tables)


class TestEliminationMemory:
    def test_refuses_by_predicted_size_before_any_table(self):
        # the corner's elimination would build a 2**25-entry (256 MiB) table
        # and a second query, on a plan kept from the first, is refused alike
        net = _grid(16)
        for evidence in ({"g0_0": "t"}, {"g0_1": "f"}):
            tracemalloc.start()
            try:
                with pytest.raises(FactorBoundExceeded) as info:
                    eliminate(net, "g15_15", "t", evidence)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2**20
            assert str(info.value) == (
                "elimination would build a table of 33554432 entries, more than the bound of 10000000"
            )

    def test_predicts_the_largest_table_it_builds(self, monkeypatch):
        net = _grid(12)
        largest = 0
        multiply = inference._multiply

        def recording(a, b, card):
            nonlocal largest
            out = multiply(a, b, card)
            largest = max(largest, out.values.size)
            return out

        monkeypatch.setattr(inference, "_multiply", recording)
        assert 0.0 < eliminate(net, "g11_11", "t", {"g0_0": "t"}).probability < 1.0
        assert largest == 2**21
        monkeypatch.setattr(inference, "MAX_FACTOR_ENTRIES", 2**21 - 1)
        with pytest.raises(FactorBoundExceeded, match=r"table of 2097152 entries"):
            eliminate(net, "g11_11", "t", {"g0_0": "t"})

    def test_cliff_peaks_stay_below_the_sorted_axis_layout(self):
        # peak traced bytes per 3**13-entry table, measured with every factor
        # kept in sorted-axis order and each bucket held until its product was
        # done; copies of small operands may not push a peak past those
        sorted_axis_peaks = (1.67, 1.79, 1.67, 1.67, 2.45)
        for net, bound in zip(_cliff_networks(), sorted_axis_peaks, strict=True):
            query, evidence = "v75", {"v0": "s1", "v40": "s2"}
            masked_posterior(net, query, evidence)  # builds the factors, the moral graph and the plan
            tracemalloc.start()
            try:
                masked_posterior(net, query, evidence)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= bound * 8 * 3**13, net.name


class TestLayouts:
    def test_factors_are_views_of_the_tables(self, gallstone_net):
        # the sweep's factor and elimination's factor are one object per CPT
        rng = np.random.default_rng(31)
        for net in (gallstone_net, _chain(), *(netgen.random_network(rng, name=f"view{i}") for i in range(20))):
            compiled = compile_network(net)
            for v, f in zip(net.variables, compiled.factors, strict=True):
                assert f.vars == net.cpts[v].parents + (v,)
                assert compiled.chain[compiled.pos[v]] is f
                assert not f.values.flags.writeable

    def test_strides_index_the_row_major_table(self, gallstone_net):
        # each table holds cpt.rows[key][s] at (parent state indices..., s)
        rng = np.random.default_rng(32)
        for net in (gallstone_net, *(netgen.random_network(rng, name=f"rows{i}") for i in range(30))):
            compiled = CompiledNetwork(net)
            for v, f in zip(compiled.order, compiled.chain, strict=True):
                parents = net.cpts[v].parents
                assert f.values.shape == tuple(len(net.states(u)) for u in (*parents, v))
                for key in assignment_grid(net, parents):
                    at = tuple(net.states(p).index(s) for p, s in zip(parents, key, strict=True))
                    for s, want in enumerate(net.cpts[v].rows[key]):
                        assert f.values[at + (s,)] == want

    @pytest.mark.parametrize("share", [1, 10**9], ids=["copied", "strided"])
    def test_extra_variables_go_in_front(self, monkeypatch, share):
        # the smaller operand holds a and c in the other order and adds e
        rng = np.random.default_rng(77)
        card = {"a": 2, "b": 3, "c": 4, "d": 2, "e": 3}
        big = _Factor(("a", "b", "c", "d"), rng.random((2, 3, 4, 2)))
        small = _Factor(("e", "c", "a"), rng.random((3, 4, 2)))
        monkeypatch.setattr(inference, "_COPY_SHARE", share)
        product = inference._multiply(small, big, card)
        assert product.vars == ("e",) + big.vars and product.values.flags.c_contiguous
        for world in itertools.product(*(range(card[v]) for v in sorted(card))):
            at = dict(zip(sorted(card), world))
            got = product.values[tuple(at[v] for v in product.vars)]
            want = big.values[tuple(at[v] for v in big.vars)] * small.values[tuple(at[v] for v in small.vars)]
            assert got == want

    def test_masked_posterior_owns_its_result(self, gallstone_net):
        # the result is clipped in place, so it may not be a compiled table
        rng = np.random.default_rng(5)
        for net in (gallstone_net, _chain(), *(netgen.random_network(rng, name=f"own{i}") for i in range(20))):
            compiled = compile_network(net)
            for v in net.variables:
                values = masked_posterior(net, v, {})
                assert values.flags.writeable
                assert not any(np.shares_memory(values, f.values) for f in compiled.factors)

    def test_cliff_answers_keep_their_bits(self):
        # float.hex of each cliff network's answer, whose 3**13-entry
        # products read their smaller operand both copied and strided
        pinned = (
            ("0x1.5e88c67ce47c0p-7", "0x1.14e99ebc5d57ap-7", "0x1.01eef65793c96p-7"),
            ("0x1.7b6b36538f1b8p-8", "0x1.199a86c2ff9c0p-8", "0x1.7985acd50cc2ep-8"),
            ("0x1.80afa8cd7f781p-5", "0x1.296da76214f4bp-4", "0x1.9c5472ee26ac4p-5"),
            ("0x1.35f044348415ep-3", "0x1.eaafd7c695cf0p-4", "0x1.7b45e4c436740p-5"),
            ("0x1.4a1c5f47eac93p-5", "0x1.37f5a78e6b9cep-6", "0x1.219795eac3773p-6"),
        )
        for net, want in zip(_cliff_networks(), pinned, strict=True):
            got = masked_posterior(net, "v75", {"v0": "s1", "v40": "s2"})
            assert tuple(float(x).hex() for x in got) == want, net.name


class TestElimination:
    def test_matches_enumeration_hand_case(self):
        net = _chain()
        r = eliminate(net, "a", "t", {"c": "t"})
        assert r.method == "elimination"
        assert r.probability == pytest.approx(0.165 / 0.305, abs=1e-12)

    def test_reference_example(self, gallstone_net):
        r = eliminate(gallstone_net, "amylase", "500-1400", {"flatulence": "true"})
        assert abs(r.probability - 0.011316399030456706) < 1e-15

    def test_posterior_normalized(self, gallstone_net):
        dist = posterior(gallstone_net, "amylase", {"flatulence": "true"})
        assert len(dist) == 3
        assert sum(dist) == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 <= p <= 1.0 for p in dist)

    def test_posterior_accepts_point_and_set_constraints(self, gallstone_net):
        point = posterior(gallstone_net, "gallstones", {"flatulence": "true"})
        as_set = posterior(gallstone_net, "gallstones", {"flatulence": {"true"}})
        np.testing.assert_allclose(point, as_set, atol=1e-15)

    def test_masked_posterior_set_constraint(self, gallstone_net):
        values = masked_posterior(
            gallstone_net, "gallstones", {"amylase": {"0-299", "300-499"}}
        )
        want_true = marginal(gallstone_net, {"gallstones": "true", "amylase": "0-299"}) + marginal(
            gallstone_net, {"gallstones": "true", "amylase": "300-499"}
        )
        assert values[0] == pytest.approx(want_true, abs=1e-12)

    def test_masked_posterior_constraint_on_target(self, gallstone_net):
        values = masked_posterior(gallstone_net, "amylase", {"amylase": {"0-299"}})
        assert values[1] == 0.0 and values[2] == 0.0
        assert values[0] == pytest.approx(marginal(gallstone_net, {"amylase": "0-299"}), abs=1e-12)

    def test_zero_probability_evidence(self):
        net = make_network(
            "det",
            {
                "a": (("t", "f"), (), {(): (1.0, 0.0)}),
                "b": (("t", "f"), ("a",), {("t",): (0.5, 0.5), ("f",): (0.5, 0.5)}),
            },
        )
        with pytest.raises(ZeroProbabilityEvidence):
            eliminate(net, "b", "t", {"a": "f"})
        with pytest.raises(ZeroProbabilityEvidence):
            posterior(net, "b", {"a": "f"})

    def test_query_evidence_overlap(self):
        with pytest.raises(QueryEvidenceOverlap):
            eliminate(_chain(), "a", "t", {"a": "f"})

    def test_unknown_names(self):
        net = _chain()
        with pytest.raises(UnknownVariable):
            masked_posterior(net, "nope", {})
        with pytest.raises(UnknownState):
            masked_posterior(net, "a", {"b": "maybe"})


@pytest.mark.parametrize("engine", [conditional_query, eliminate], ids=["enumeration", "elimination"])
@pytest.mark.parametrize(
    "query, evidence, error, message",
    [
        # the query's name and state first, then the evidence, then the overlap
        (("nope", "t"), {"nope": "f"}, UnknownVariable, "unknown variable 'nope'"),
        (("a", "bad"), {"b": "worse"}, UnknownState, "variable 'a' has no state 'bad' (states: t, f)"),
        (("a", "t"), {"b": "worse", "a": "f"}, UnknownState, "variable 'b' has no state 'worse' (states: t, f)"),
        (("a", "t"), {"a": "f"}, QueryEvidenceOverlap, "query variable 'a' also appears in evidence"),
    ],
    ids=["query-variable", "query-state", "evidence", "overlap"],
)
def test_one_query_check_for_both_engines(engine, query, evidence, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        engine(_chain(), *query, evidence)


def test_wide_chain_with_few_free_variables():
    # 70 variables, 67 of them evidence: 27 worlds to walk, but more
    # variables than a numpy array has axes
    ev = {f"v{i}": "s1" for i in range(67)}
    net = three_state_chain(70)
    want = exact.conditional(net, "v69", "s0", ev)
    assert float(want).hex() == "0x1.999999999999ap-3"
    for engine in (conditional_query, eliminate):
        assert exact.ulps(engine(net, "v69", "s0", ev).probability, want) <= 1


@pytest.mark.parametrize(
    "call",
    [
        lambda net: conditional_query(net, "a", "maybe", {}),
        lambda net: conditional_query(net, "a", "t", {"b": "maybe"}),
        lambda net: eliminate(net, "a", "maybe", {}),
        lambda net: eliminate(net, "a", "t", {"b": "maybe"}),
        lambda net: constrained_sweep(net, {}, [("b", "maybe")]),
        lambda net: constrained_sweep(net, {"b": {"t", "maybe"}}, []),
        lambda net: masked_posterior(net, "a", {"b": "maybe"}),
        lambda net: masked_posterior(net, "a", {"b": {"maybe"}}),
    ],
    ids=[
        "conditional_query-query", "conditional_query-evidence", "eliminate-query", "eliminate-evidence",
        "constrained_sweep-target", "constrained_sweep-constraint", "masked_posterior-point", "masked_posterior-set",
    ],
)
def test_unknown_state_names_the_valid_states(call):
    with pytest.raises(UnknownState, match=r"^variable '\w' has no state 'maybe' \(states: t, f\)$"):
        call(_chain())


class TestEngineAgreement:
    """The two engines must agree everywhere, not just on hand cases."""

    def test_random_networks(self):
        rng = np.random.default_rng(2024)
        for i in range(40):
            net = netgen.random_network(rng, name=f"agree{i}")
            qv, qs, ev = netgen.random_point_query(rng, net)
            a = conditional_query(net, qv, qs, ev).probability
            b = eliminate(net, qv, qs, ev).probability
            assert abs(a - b) < 1e-12, (net.name, qv, qs, ev)

    def test_posterior_matches_per_state_queries(self):
        rng = np.random.default_rng(7)
        for i in range(20):
            net = netgen.random_network(rng, name=f"post{i}")
            qv, _, ev = netgen.random_point_query(rng, net)
            dist = posterior(net, qv, ev)
            for s, p in zip(net.variables[qv].states, dist):
                assert abs(p - conditional_query(net, qv, s, ev).probability) < 1e-12


class TestExactOracle:
    """Both engines, on every entry point, within :data:`exact.BOUND` ULPs of
    the exact answers of :mod:`exact`, with and without zero CPT entries."""

    @staticmethod
    def _set_valued(rng, net, evidence):
        """``evidence`` with some bindings widened to a set of states."""

        return {
            v: s if rng.random() < 0.5 else {t for t in net.states(v) if t == s or rng.random() < 0.5}
            for v, s in evidence.items()
        }

    def test_oracle_matches_a_walk_over_the_worlds(self):
        # the oracle's order of sums against the plain sum of every world's
        # chain-rule product, both in exact arithmetic
        rng = np.random.default_rng(606)
        for i in range(60):
            net = netgen.with_zeros(rng, netgen.random_network(rng, name=f"walk{i}", max_vars=5))
            _, _, ev = netgen.random_point_query(rng, net)
            constraints = self._set_valued(rng, net, ev)
            order = topological_order(net)
            total = Fraction(0)
            for combo in itertools.product(*(net.states(v) for v in order)):
                world = dict(zip(order, combo))
                if any(world[v] != a if isinstance(a, str) else world[v] not in a for v, a in constraints.items()):
                    continue
                p = Fraction(1)
                for v in order:
                    row = net.cpts[v].rows[tuple(world[u] for u in net.cpts[v].parents)]
                    p *= Fraction(row[net.states(v).index(world[v])])
                total += p
            assert exact.mass(net, constraints) == total, net.name

    def test_conditional_queries(self):
        # 600 queries: every other network has zeros, and every other pair
        # has set-valued evidence, answered by constrained_sweep and
        # posterior as problog.evaluate answers it
        rng = np.random.default_rng(31337)
        answered = 0
        for i in range(600):
            net = netgen.random_network(rng, name=f"exact{i}", max_vars=9)
            if i % 2:
                net = netgen.with_zeros(rng, net)
            qv, qs, ev = netgen.random_point_query(rng, net)
            if i % 4 >= 2:
                ev = self._set_valued(rng, net, ev)
            want = exact.conditional(net, qv, qs, ev)
            if want is None:
                with pytest.raises(ZeroProbabilityEvidence):
                    conditional_query(net, qv, qs, ev)
                with pytest.raises(ZeroProbabilityEvidence):
                    eliminate(net, qv, qs, ev)
                continue
            answered += 1
            if all(isinstance(a, str) for a in ev.values()):
                got = [conditional_query(net, qv, qs, ev).probability, eliminate(net, qv, qs, ev).probability]
            else:
                total, (num,) = constrained_sweep(net, ev, [(qv, qs)])
                got = [num / total, posterior(net, qv, ev)[net.states(qv).index(qs)]]
            assert max(exact.ulps(p, want) for p in got) <= exact.BOUND, net.name
        assert answered > 500

    def test_posterior_under_set_constraints(self):
        # set-valued evidence, and a constraint on the query variable itself
        rng = np.random.default_rng(2525)
        for i in range(240):
            net = netgen.random_network(rng, name=f"post{i}", max_vars=9)
            if i % 2:
                net = netgen.with_zeros(rng, net)
            qv, _, ev = netgen.random_point_query(rng, net)
            constraints = {v: {t for t in net.states(v) if t == s or rng.random() < 0.5} for v, s in ev.items()}
            constraints[qv] = {t for t in net.states(qv) if rng.random() < 0.7}
            want = exact.masked(net, qv, constraints)
            got = masked_posterior(net, qv, constraints)
            assert max(map(exact.ulps, got.tolist(), want)) <= exact.BOUND, net.name
            if sum(want) == 0:
                with pytest.raises(ZeroProbabilityEvidence):
                    posterior(net, qv, constraints)
                continue
            dist = posterior(net, qv, constraints)
            assert max(exact.ulps(p, w / sum(want)) for p, w in zip(dist, want)) <= exact.BOUND, net.name

    @pytest.mark.parametrize("method", ["enumeration", "elimination"])
    def test_programs(self, method):
        # each state of the query variable, through the program encoding
        rng = np.random.default_rng(3030)
        for i in range(240):
            net = netgen.random_network(rng, name=f"prog{i}", max_vars=7)
            qv, _, ev = netgen.random_point_query(rng, net)
            program, atoms = netgen.query_program(net, ev, qv)
            got = evaluate(program, method=method)
            for s, atom in atoms.items():
                assert exact.ulps(got[atom], exact.conditional(net, qv, s, ev)) <= exact.BOUND, net.name


class TestPinnedBits:
    """Each entry point against a plain reference.

    ``joint_probability`` is the chain-rule product in topological order, bit
    for bit. The elimination reference rebuilds each factor entry by entry
    and eliminates in the engine's order, and ``eliminate`` must equal that
    vector's entry over its sum, so any change in its summation, product or
    division order shows up in the last bit. The enumeration sweep sums
    pairwise, in no world order a plain walk could follow, so its masses
    and answers are held within :data:`exact.BOUND` ULPs of the exact answer
    of :mod:`exact`.
    """

    @staticmethod
    def _sums(net, constraints, targets=()):
        """A walk over the completions of ``constraints``: the total and each
        target's mass, one world at a time, states in declaration order."""

        order = topological_order(net)
        allowed = []
        for v in order:
            a = constraints.get(v)
            a = net.states(v) if a is None else {a} if isinstance(a, str) else a
            allowed.append([s for s in net.states(v) if s in a])
        den = 0.0
        nums = [0.0] * len(targets)
        for combo in itertools.product(*allowed):
            world = dict(zip(order, combo))
            p = 1.0
            for v in order:
                cpt = net.cpts[v]
                row = cpt.rows[tuple(world[u] for u in cpt.parents)]
                p *= row[net.states(v).index(world[v])]
            den += p
            for k, (v, s) in enumerate(targets):
                if world[v] == s:
                    nums[k] += p
        return den, nums

    def test_randomized_networks(self):
        rng = np.random.default_rng(4242)
        for i in range(200):
            net = netgen.random_network(rng, name=f"bits{i}", max_vars=6)
            qv, qs, ev = netgen.random_point_query(rng, net)
            want = exact.conditional(net, qv, qs, ev)
            assert exact.ulps(conditional_query(net, qv, qs, ev).probability, want) <= exact.BOUND, net.name
            assert exact.ulps(marginal(net, ev), exact.mass(net, ev)) <= exact.BOUND, net.name

            full = {v: net.states(v)[int(rng.integers(len(net.states(v))))] for v in net.variables}
            assert joint_probability(net, full) == self._sums(net, full)[0], net.name

            values = masked_posterior(net, qv, ev)
            want = float(values[net.states(qv).index(qs)]) / float(values.sum())
            got = eliminate(net, qv, qs, ev).probability
            assert type(got) is float and got == want, net.name

    def test_sweep_against_exact(self):
        rng = np.random.default_rng(1717)
        for i in range(1000):
            net = netgen.random_network(rng, name=f"sweep{i}", max_vars=7)
            if i % 2:
                net = netgen.with_zeros(rng, net)
            _, _, ev = netgen.random_point_query(rng, net)
            constraints = {
                v: s if rng.random() < 0.5 else {t for t in net.states(v) if t == s or rng.random() < 0.5}
                for v, s in ev.items()
            }
            ids = sorted(net.variables)
            if i == 0:
                constraints[ids[0]] = set()
            targets = [
                (v, net.states(v)[int(rng.integers(len(net.states(v))))])
                for v in (ids[int(k)] for k in rng.integers(len(ids), size=1 + int(rng.integers(4))))
            ]
            den, nums = exact.sweep(net, constraints, targets)
            total, parts = constrained_sweep(net, constraints, targets)
            assert type(total) is float and all(type(x) is float for x in parts), net.name
            assert max(map(exact.ulps, [total, *parts], [den, *nums])) <= exact.BOUND, net.name

    def test_negative_zero_entries_sum_to_zero(self):
        # a stored -0.0 passes validation; the walk starts from +0.0
        net = make_network("nz", {
            "a": (("t", "f"), (), {(): (-0.0, 1.0)}),
            "b": (("t", "f"), ("a",), {("t",): (0.5, 0.5), ("f",): (0.25, 0.75)}),
        })
        targets = [("a", "t"), ("b", "t")]
        total, parts = constrained_sweep(net, {}, targets)
        den, nums = self._sums(net, {}, targets)
        assert [total.hex(), *map(float.hex, parts)] == [den.hex(), *map(float.hex, nums)]
        assert conditional_query(net, "a", "t", {"b": "t"}).probability.hex() == "0x0.0p+0"

    def test_long_sum_is_correctly_rounded(self):
        # 177,147 worlds added one at a time drift 6,281 ULPs from 0.2;
        # summed pairwise they land on the correctly rounded answer
        net = three_state_chain(13)
        got = conditional_query(net, "v12", "s0", {"v0": "s1"}).probability
        assert got.hex() == float(exact.conditional(net, "v12", "s0", {"v0": "s1"})).hex() == "0x1.999999999999ap-3"

    @staticmethod
    def _eliminated(net, target, constraints):
        """Elimination written out again: factors filled entry by entry in
        declaration order, masks after them, min-degree order with
        lexicographic ties, each bucket multiplied in list order."""

        card = {v: len(net.states(v)) for v in net.variables}
        factors = []
        for v in net.variables:
            cpt = net.cpts[v]
            scope = tuple(sorted(cpt.parents + (v,)))
            table = np.zeros([card[u] for u in scope])
            for key in itertools.product(*(net.states(p) for p in cpt.parents)):
                for s, p in zip(net.states(v), cpt.rows[key]):
                    world = {**dict(zip(cpt.parents, key)), v: s}
                    table[tuple(net.states(u).index(world[u]) for u in scope)] = p
            factors.append((scope, table))
        for v, allowed in constraints.items():
            allowed = {allowed} if isinstance(allowed, str) else allowed
            factors.append(((v,), np.array([float(s in allowed) for s in net.states(v)])))

        def mul(a, b):
            scope = tuple(sorted(set(a[0]) | set(b[0])))
            return scope, np.multiply(*(t.reshape([card[u] if u in f else 1 for u in scope]) for f, t in (a, b)))

        left = set(net.variables) - {target}
        nbrs = {v: set() for v in net.variables}
        for scope, _ in factors:
            for u in scope:
                nbrs[u] |= set(scope) - {u}
        while left:
            x = min(left, key=lambda v: (len(nbrs[v] & left), v))
            bucket = [f for f in factors if x in f[0]]
            factors = [f for f in factors if x not in f[0]]
            if bucket:
                scope, table = functools.reduce(mul, bucket)
                i = scope.index(x)
                factors.append((scope[:i] + scope[i + 1 :], table.sum(axis=i)))
            for u in nbrs[x]:
                nbrs[u] = (nbrs[u] | nbrs[x]) - {u, x}
            del nbrs[x]
            left.discard(x)
        scope, table = functools.reduce(mul, factors, ((), np.array(1.0)))
        return table if scope == (target,) else np.broadcast_to(table, (card[target],))

    def test_elimination_against_a_reference(self):
        rng = np.random.default_rng(5150)
        # the last 120 networks have up to 7 states, below numpy's pairwise sums
        for i in range(360):
            net = netgen.random_network(rng, name=f"elim{i}", max_vars=7, max_states=4 if i < 240 else 7)
            if i % 2:
                net = netgen.with_zeros(rng, net)
            qv, _, ev = netgen.random_point_query(rng, net)
            constraints = {
                v: s if rng.random() < 0.5 else {t for t in net.states(v) if t == s or rng.random() < 0.5}
                for v, s in ev.items()
            }
            if rng.random() < 0.3:
                constraints[qv] = {t for t in net.states(qv) if rng.random() < 0.6}
            want = self._eliminated(net, qv, constraints)
            assert np.array_equal(masked_posterior(net, qv, constraints), want), net.name


    def test_one_call_sum_matches_the_slab_sum(self, monkeypatch):
        # a small table is summed by one np.add.reduce, a large one slab by
        # slab; both must give the same bits, signed zeros included
        rng = np.random.default_rng(8989)
        tables = []
        for _ in range(3000):
            shape = tuple(int(k) for k in rng.integers(1, 8, size=int(rng.integers(1, 5))))
            values = rng.random(shape) * 10.0 ** rng.integers(-8, 8, size=shape)
            values[rng.random(shape) < 0.3] = -0.0
            tables.append(_Factor(tuple(f"x{a}" for a in range(len(shape))), values))
        axes = [f"x{int(rng.integers(len(f.vars)))}" for f in tables]
        one_call = [inference._sum_out(f, var).values for f, var in zip(tables, axes)]
        monkeypatch.setattr(inference, "_REDUCE_ENTRIES", -1)
        for f, var, got in zip(tables, axes, one_call):
            want = inference._sum_out(f, var).values
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert sum(f.values.size <= 256 for f in tables) > 1000

    def test_nine_states_add_in_state_order(self):
        # np.sum would add this 9-state axis pairwise, to 0x1.fced916872b03p-2
        states = tuple(f"s{j}" for j in range(9))
        prior = (0.1,) * 8 + (0.2,)
        p_true = (0.057, 0.157, 0.257, 0.357, 0.457, 0.557, 0.657, 0.757, 0.857)
        net = make_network("nine", {
            "z": (states, (), {(): prior}),
            "b": (("t", "f"), ("z",), {(s, ): (p, 1.0 - p) for s, p in zip(states, p_true)}),
        })
        walk = 0.0
        for pz, pb in zip(prior, p_true):
            walk += pb * pz
        assert float(masked_posterior(net, "b", {})[0]).hex() == walk.hex() == "0x1.fced916872b02p-2"


class TestCompiledForm:
    """The compiled form kept on a network, and the plans it keeps, give
    exactly what a compile that bypasses them gives: the same call on an
    uncompiled copy of the network (``replace(net)``, made per call, which
    shares the network's dicts), zero-mass reports included."""

    @staticmethod
    def _outcome(call):
        try:
            return call()
        except ZeroProbabilityEvidence as err:
            return f"ZeroProbabilityEvidence: {err}"

    def test_shared_form_matches_per_call_compile(self):
        rng = np.random.default_rng(6161)
        zero_mass = 0
        for i in range(500):
            net = netgen.with_zeros(rng, netgen.random_network(rng, name=f"form{i}", max_vars=7))
            form = compile_network(net)
            for _ in range(3):
                qv, qs, ev = netgen.random_point_query(rng, net)
                shared = self._outcome(lambda: eliminate(net, qv, qs, ev).probability.hex())
                fresh = self._outcome(lambda: eliminate(replace(net), qv, qs, ev).probability.hex())
                assert shared == fresh, net.name
                zero_mass += shared.startswith("ZeroProbabilityEvidence")
                assert self._outcome(lambda: posterior(net, qv, ev)) == self._outcome(
                    lambda: posterior(replace(net), qv, ev)
                )
                assert np.array_equal(masked_posterior(net, qv, ev), masked_posterior(replace(net), qv, ev))
            assert compile_network(net) is form, net.name
        assert zero_mass > 0  # the raising path was exercised too

    def test_elimination_leaves_the_form_unchanged(self, gallstone_net):
        form = compile_network(gallstone_net)
        first = eliminate(gallstone_net, "amylase", "500-1400", {"flatulence": "true"})
        for v in gallstone_net.variables:
            posterior(gallstone_net, v, {})
            posterior(gallstone_net, v, {"gallstones": {"true"}})
        assert compile_network(gallstone_net) is form
        fresh = CompiledNetwork(gallstone_net)
        assert form.moral() == fresh.moral()
        for a, b in zip(form.factors, fresh.factors, strict=True):
            assert a.vars == b.vars and np.array_equal(a.values, b.values)
        assert eliminate(gallstone_net, "amylase", "500-1400", {"flatulence": "true"}) == first

    def test_calls_share_one_compiled_core(self):
        net = _chain()
        eliminate(net, "a", "t", {"c": "t"})
        core = net._compiled
        plan = core.plan("a")
        eliminate(net, "a", "f", {"b": "f"})
        posterior(net, "a", {"c": {"t", "f"}})
        constrained_sweep(net, {"c": "t"}, [("a", "t")])
        assert compile_network(net) is core and net._compiled is core
        assert core.plan("a") is plan and list(core._plans) == ["a"]  # one plan per query variable

    @staticmethod
    def _edit(rng, net, kind):
        """Replace every CPT, add a child, delete a leaf, or replace a Variable."""

        if kind == 0:
            netgen.with_zeros(rng, net)
        elif kind == 1:
            parent = sorted(net.variables)[int(rng.integers(len(net.variables)))]
            rows = {(s,): netgen.grid_row(rng, 3) for s in net.states(parent)}
            net.variables["added"] = Variable("added", "added", ("s0", "s1", "s2"))
            net.cpts["added"] = Cpt("added", (parent,), rows)
        elif kind == 2:
            leaf = max(v for v in net.variables if not children(net, v))
            del net.variables[leaf], net.cpts[leaf]
        else:
            v = min(net.variables)
            net.variables[v] = replace(net.variables[v], name=v + "_renamed")

    def test_edits_compile_anew(self):
        rng = np.random.default_rng(2121)
        for i in range(200):
            net = netgen.random_network(rng, name=f"edit{i}", max_vars=7)
            for kind in range(5):
                qv, _, ev = netgen.random_point_query(rng, net)
                cons = {v: {s} if rng.random() < 0.5 else set(net.states(v)) for v, s in ev.items()}
                got = masked_posterior(net, qv, cons)
                want = masked_posterior(replace(net), qv, cons)
                assert list(map(float.hex, got.tolist())) == list(map(float.hex, want.tolist())), (net.name, kind)
                assert constrained_sweep(net, cons, [(qv, net.states(qv)[0])]) == constrained_sweep(
                    replace(net), cons, [(qv, net.states(qv)[0])]
                )
                if kind < 4:
                    core = net._compiled
                    self._edit(rng, net, kind)
                    assert compile_network(net) is not core, (net.name, kind)

    def test_cached_plans_match_fresh_forms(self):
        rng = np.random.default_rng(7373)
        asked = 0
        for i in range(500):
            net = netgen.random_network(rng, name=f"plan{i}", max_vars=8, max_states=5)
            if i % 2:
                net = netgen.with_zeros(rng, net)
            queries = []
            for v in net.variables:
                for _ in range(2):  # so that a kept plan meets new evidence
                    _, _, ev = netgen.random_point_query(rng, net)
                    cons = {
                        u: s if rng.random() < 0.5 else {t for t in net.states(u) if t == s or rng.random() < 0.5}
                        for u, s in ev.items()
                    }
                    queries.append((v, cons))
            for k in rng.permutation(len(queries)):
                v, cons = queries[k]
                got = masked_posterior(net, v, cons).tolist()
                want = masked_posterior(replace(net), v, cons).tolist()
                assert list(map(float.hex, got)) == list(map(float.hex, want)), net.name
                asked += 1
        assert asked > 3000

    def test_networks_are_freed_without_the_collector(self):
        # the form kept on a network holds no reference back to it, so no
        # cycle waits for the collector
        net = netgen.random_network(np.random.default_rng(3), name="freed")
        qv, qs, ev = netgen.random_point_query(np.random.default_rng(4), net)
        program, _ = netgen.query_program(net, ev, qv)
        gc.disable()
        try:
            eliminate(net, qv, qs, ev)
            constrained_sweep(net, ev, [(qv, qs)])
            freed = weakref.ref(net)
            del net
            assert freed() is None
            compiled = compile_program(program)
            posterior(compiled.network, compiled.network.cpts[min(compiled.network.cpts)].variable)
            freed = weakref.ref(compiled.network)
            del compiled
            assert freed() is None
        finally:
            gc.enable()

    def test_enumeration_builds_no_factor_tables(self, gallstone_net, monkeypatch):
        def refuse(*_):
            raise AssertionError("enumeration built elimination factors")

        monkeypatch.setattr(inference.CompiledNetwork, "factors", refuse)
        monkeypatch.setattr(inference.CompiledNetwork, "moral", refuse)
        monkeypatch.setattr(inference.CompiledNetwork, "plan", refuse)
        assert conditional_query(gallstone_net, "amylase", "500-1400", {"flatulence": "true"}).probability > 0
        assert marginal(gallstone_net, {"flatulence": "true"}) > 0
