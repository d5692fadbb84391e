"""Marginal priors and subnetwork extraction."""

from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest

import netgen
from bayesqa import conditional_query, make_network, subset, validate
from bayesqa.errors import UnknownVariable, ZeroProbabilityEvidence
from bayesqa.inference import posterior
from bayesqa.model import network_to_dict
from bayesqa.netops import marginal_prior


def _diamond_with_tails(rng: np.random.Generator):
    """A -> C <- B plus C -> D and C -> E, with random strictly-positive CPTs."""

    a = netgen.grid_row(rng, 2)
    b = netgen.grid_row(rng, 2)
    c_states = ("lo", "mid", "hi")
    c_rows = {
        key: netgen.grid_row(rng, 3)
        for key in itertools.product(("t", "f"), repeat=2)
    }
    d_rows = {(s,): netgen.grid_row(rng, 2) for s in c_states}
    e_rows = {(s,): netgen.grid_row(rng, 2) for s in c_states}
    return make_network(
        "diamond",
        {
            "a": (("t", "f"), (), {(): a}),
            "b": (("t", "f"), (), {(): b}),
            "c": (c_states, ("a", "b"), c_rows),
            "d": (("t", "f"), ("c",), d_rows),
            "e": (("t", "f"), ("c",), e_rows),
        },
    )


def _all_point_queries(net, variables):
    """Every (query var/state, point evidence) combo over ``variables``."""

    for qvar in variables:
        rest = [v for v in variables if v != qvar]
        for n_ev in range(len(rest) + 1):
            for ev_vars in itertools.combinations(rest, n_ev):
                for ev_states in itertools.product(
                    *(net.variables[v].states for v in ev_vars)
                ):
                    evidence = dict(zip(ev_vars, ev_states))
                    for qstate in net.variables[qvar].states:
                        yield qvar, qstate, evidence


class TestMarginalPrior:
    def test_root_row_is_returned_verbatim(self, gallstone_net):
        assert marginal_prior(gallstone_net, "gallstones") == (0.1531, 1.0 - 0.1531)

    def test_reference_marginal(self, gallstone_net):
        got = marginal_prior(gallstone_net, "flatulence")
        assert got[0] == pytest.approx(0.42485158, abs=1e-9)
        assert sum(got) == pytest.approx(1.0, abs=1e-12)

    def test_matches_enumeration(self, gallstone_net):
        got = marginal_prior(gallstone_net, "amylase")
        for state, p in zip(("0-299", "300-499", "500-1400"), got):
            want = conditional_query(gallstone_net, "amylase", state, {}).probability
            assert p == pytest.approx(want, abs=1e-12)

    def test_unknown_variable(self, gallstone_net):
        with pytest.raises(UnknownVariable):
            marginal_prior(gallstone_net, "bile")


class TestSubset:
    def test_keep_all_is_identity(self, gallstone_net):
        again = subset(gallstone_net, gallstone_net.variables)
        assert network_to_dict(again) == network_to_dict(gallstone_net)

    def test_result_validates(self):
        rng = np.random.default_rng(3)
        net = _diamond_with_tails(rng)
        sub = subset(net, ["c", "d", "e"])
        assert validate(sub) == []

    def test_diamond_extraction_is_exact(self):
        rng = np.random.default_rng(4)
        net = _diamond_with_tails(rng)
        sub = subset(net, ["c", "d", "e"])
        assert sorted(sub.variables) == ["c", "d", "e"]
        assert sub.cpts["c"].parents == ()
        assert sub.cpts["d"].rows == net.cpts["d"].rows
        for qvar, qstate, evidence in _all_point_queries(net, ["c", "d", "e"]):
            full = conditional_query(net, qvar, qstate, evidence).probability
            got = conditional_query(sub, qvar, qstate, evidence).probability
            assert abs(full - got) <= 1e-10

    def test_no_warning_when_exact(self):
        rng = np.random.default_rng(5)
        net = _diamond_with_tails(rng)
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("error")
            subset(net, ["c", "d", "e"])

    def test_chain_tail_extraction_is_exact(self):
        rng = np.random.default_rng(6)
        net = make_network(
            "chain",
            {
                "a": (("t", "f"), (), {(): netgen.grid_row(rng, 2)}),
                "b": (("t", "f"), ("a",), {("t",): netgen.grid_row(rng, 2), ("f",): netgen.grid_row(rng, 2)}),
                "c": (("t", "f"), ("b",), {("t",): netgen.grid_row(rng, 2), ("f",): netgen.grid_row(rng, 2)}),
            },
        )
        sub = subset(net, ["b", "c"])
        assert sub.cpts["b"].parents == ()
        assert sub.cpts["b"].rows[()] == pytest.approx(marginal_prior(net, "b"), abs=0)
        assert sub.cpts["c"].rows == net.cpts["c"].rows
        for qvar, qstate, evidence in _all_point_queries(net, ["b", "c"]):
            full = conditional_query(net, qvar, qstate, evidence).probability
            got = conditional_query(sub, qvar, qstate, evidence).probability
            assert abs(full - got) <= 1e-10

    def test_composition_matches_direct_extraction(self):
        rng = np.random.default_rng(7)
        net = _diamond_with_tails(rng)
        via_two = subset(subset(net, ["c", "d", "e"]), ["c", "d"])
        direct = subset(net, ["c", "d"])
        assert sorted(via_two.variables) == sorted(direct.variables)
        for qvar, qstate, evidence in _all_point_queries(net, ["c", "d"]):
            one = conditional_query(via_two, qvar, qstate, evidence).probability
            two = conditional_query(direct, qvar, qstate, evidence).probability
            assert abs(one - two) <= 1e-10

    def test_mixed_parents_recomputed_by_conditioning(self):
        rng = np.random.default_rng(8)
        net = _diamond_with_tails(rng)
        sub = subset(net, ["a", "c", "d", "e"])  # c keeps parent a, loses b
        assert sub.cpts["c"].parents == ("a",)
        for astate in ("t", "f"):
            want = tuple(
                conditional_query(net, "c", s, {"a": astate}).probability
                for s in ("lo", "mid", "hi")
            )
            assert sub.cpts["c"].rows[(astate,)] == pytest.approx(want, abs=1e-12)

    def test_shared_ancestor_warning(self):
        rng = np.random.default_rng(9)
        net = make_network(
            "fork",
            {
                "root": (("t", "f"), (), {(): netgen.grid_row(rng, 2)}),
                "left": (("t", "f"), ("root",), {("t",): netgen.grid_row(rng, 2), ("f",): netgen.grid_row(rng, 2)}),
                "right": (("t", "f"), ("root",), {("t",): netgen.grid_row(rng, 2), ("f",): netgen.grid_row(rng, 2)}),
            },
        )
        with pytest.warns(UserWarning, match="root.*influence several kept"):
            subset(net, ["left", "right"])

    def test_mediator_warning(self):
        rng = np.random.default_rng(10)
        net = make_network(
            "chain",
            {
                "a": (("t", "f"), (), {(): netgen.grid_row(rng, 2)}),
                "b": (("t", "f"), ("a",), {("t",): netgen.grid_row(rng, 2), ("f",): netgen.grid_row(rng, 2)}),
                "c": (("t", "f"), ("b",), {("t",): netgen.grid_row(rng, 2), ("f",): netgen.grid_row(rng, 2)}),
            },
        )
        with pytest.warns(UserWarning, match="b.*mediated dependence"):
            sub = subset(net, ["a", "c"])
        assert sub.cpts["c"].parents == ()

    def test_zero_probability_parent_row_goes_uniform(self):
        net = make_network(
            "zero",
            {
                "k": (("t", "f"), (), {(): (1.0, 0.0)}),
                "r": (("t", "f"), (), {(): (0.5, 0.5)}),
                "x": (
                    ("t", "f"),
                    ("k", "r"),
                    {
                        ("t", "t"): (0.9, 0.1),
                        ("t", "f"): (0.8, 0.2),
                        ("f", "t"): (0.7, 0.3),
                        ("f", "f"): (0.6, 0.4),
                    },
                ),
            },
        )
        with pytest.warns(UserWarning, match="uniform"):
            sub = subset(net, ["k", "x"])
        # conditioning on the impossible k=f falls back to a uniform row
        assert sub.cpts["x"].rows[("f",)] == (0.5, 0.5)
        assert sub.cpts["x"].rows[("t",)] == pytest.approx((0.85, 0.15), abs=1e-12)
        assert validate(sub) == []

    def test_recomputed_rows_equal_per_row_posteriors(self):
        """One compiled form answers every row of an extraction; each row is
        the posterior of a fresh compile, or uniform with a warning where the
        parent assignment has probability 0."""

        rng = np.random.default_rng(3131)
        checked = fallbacks = 0
        while checked < 100:
            net = netgen.random_network(rng, name=f"sub{checked}", max_vars=7)
            for _ in range(3):  # zeros enough that some kept parent assignment is impossible
                netgen.with_zeros(rng, net)
            keep = [v for v in net.variables if rng.random() < 0.6]
            lost = [v for v in keep if set(net.cpts[v].parents) - set(keep)]
            if not lost:
                continue
            checked += 1
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                sub = subset(net, keep)
            uniform_warnings = sum("uniform row" in str(w.message) for w in caught)
            want_fallbacks = 0
            for vid in lost:
                for key, row in sub.cpts[vid].rows.items():
                    try:
                        want = posterior(net, vid, dict(zip(sub.cpts[vid].parents, key)))
                    except ZeroProbabilityEvidence:
                        k = len(net.states(vid))
                        want = tuple(1.0 / k for _ in range(k))
                        want_fallbacks += 1
                    assert row == want, net.name
            assert uniform_warnings == want_fallbacks, net.name
            fallbacks += want_fallbacks
        assert fallbacks > 0, fallbacks  # the uniform fallback was exercised too

    def test_empty_keep_rejected(self, gallstone_net):
        with pytest.raises(ValueError, match="at least one"):
            subset(gallstone_net, [])

    def test_unknown_keep_rejected(self, gallstone_net):
        with pytest.raises(UnknownVariable, match="bile"):
            subset(gallstone_net, ["gallstones", "bile"])
