"""Data-model tests: structure helpers, validation, and file round-trips."""

from __future__ import annotations

import json
import re

import pytest

from bayesqa.errors import NetworkFormatError, UnknownState, UnknownVariable
from bayesqa.model import (
    Cpt,
    Variable,
    children,
    load_network,
    make_network,
    network_from_dict,
    network_to_dict,
    network_to_json,
    parent_assignments,
    parents,
    read_records,
    save_network,
    state_index,
    topological_order,
    validate,
    write_records,
)


def _chain():
    """a -> b -> c, all binary."""

    return make_network(
        "chain",
        {
            "a": (("t", "f"), (), {(): (0.3, 0.7)}),
            "b": (("t", "f"), ("a",), {("t",): (0.9, 0.1), ("f",): (0.2, 0.8)}),
            "c": (("t", "f"), ("b",), {("t",): (0.6, 0.4), ("f",): (0.1, 0.9)}),
        },
    )


def _uniform_rows(states, parent_states):
    import itertools

    k = len(states)
    return {key: tuple(1.0 / k for _ in states) for key in itertools.product(*parent_states)}


class TestStructure:
    def test_topological_order_chain(self):
        assert topological_order(_chain()) == ["a", "b", "c"]

    def test_topological_order_breaks_ties_lexicographically(self):
        net = make_network(
            "diamond",
            {
                "sink": (("t", "f"), ("z_mid", "a_mid"), _uniform_rows(("t", "f"), [("t", "f")] * 2)),
                "z_mid": (("t", "f"), ("root",), {("t",): (0.5, 0.5), ("f",): (0.5, 0.5)}),
                "a_mid": (("t", "f"), ("root",), {("t",): (0.5, 0.5), ("f",): (0.5, 0.5)}),
                "root": (("t", "f"), (), {(): (0.5, 0.5)}),
            },
        )
        assert topological_order(net) == ["root", "a_mid", "z_mid", "sink"]

    def test_topological_order_rejects_cycle(self):
        net = make_network(
            "loop",
            {
                "a": (("t", "f"), ("b",), {("t",): (0.5, 0.5), ("f",): (0.5, 0.5)}),
                "b": (("t", "f"), ("a",), {("t",): (0.5, 0.5), ("f",): (0.5, 0.5)}),
            },
        )
        with pytest.raises(NetworkFormatError):
            topological_order(net)

    def test_parent_assignments_row_major(self):
        net = make_network(
            "rows",
            {
                "p": (("p0", "p1"), (), {(): (0.5, 0.5)}),
                "q": (("q0", "q1", "q2"), (), _uniform_rows(("q0", "q1", "q2"), [])),
                "x": (
                    ("t", "f"),
                    ("p", "q"),
                    _uniform_rows(("t", "f"), [("p0", "p1"), ("q0", "q1", "q2")]),
                ),
            },
        )
        assert list(parent_assignments(net, "x")) == [
            ("p0", "q0"),
            ("p0", "q1"),
            ("p0", "q2"),
            ("p1", "q0"),
            ("p1", "q1"),
            ("p1", "q2"),
        ]

    def test_parents_children(self):
        net = _chain()
        assert parents(net, "b") == ("a",)
        assert children(net, "a") == ("b",)
        assert children(net, "c") == ()
        with pytest.raises(UnknownVariable):
            parents(net, "nope")
        with pytest.raises(UnknownVariable):
            children(net, "nope")

    def test_state_index(self):
        net = _chain()
        assert state_index(net, "a", "f") == 1
        with pytest.raises(UnknownState):
            state_index(net, "a", "maybe")
        with pytest.raises(UnknownVariable):
            state_index(net, "nope", "t")


class TestValidate:
    def test_clean_network(self, gallstone_net):
        assert validate(gallstone_net) == []

    def test_missing_row_is_coverage(self):
        net = _chain()
        rows = dict(net.cpts["b"].rows)
        del rows[("f",)]
        net.cpts["b"] = Cpt(variable="b", parents=("a",), rows=rows)
        kinds = [v.kind for v in validate(net)]
        assert kinds == ["coverage"]

    def test_extra_row_is_coverage(self):
        net = _chain()
        rows = dict(net.cpts["b"].rows)
        rows[("x",)] = (0.5, 0.5)
        net.cpts["b"] = Cpt(variable="b", parents=("a",), rows=rows)
        assert [v.kind for v in validate(net)] == ["coverage"]

    def test_dangling_parent(self):
        net = _chain()
        net.cpts["b"] = Cpt(variable="b", parents=("ghost",), rows={("t",): (0.5, 0.5)})
        assert [v.kind for v in validate(net)] == ["dangling-parent"]

    def test_probability_out_of_range(self):
        net = _chain()
        net.cpts["a"] = Cpt(variable="a", parents=(), rows={(): (1.2, -0.2)})
        kinds = [v.kind for v in validate(net)]
        assert kinds == ["probability", "probability"]

    def test_wrong_arity(self):
        net = _chain()
        net.cpts["a"] = Cpt(variable="a", parents=(), rows={(): (0.5, 0.3, 0.2)})
        assert [v.kind for v in validate(net)] == ["probability"]

    def test_row_sum_tolerance_boundary(self):
        net = _chain()
        net.cpts["a"] = Cpt(variable="a", parents=(), rows={(): (0.5000005, 0.5)})
        assert validate(net) == []  # 5e-7 over: inside the tolerance
        net.cpts["a"] = Cpt(variable="a", parents=(), rows={(): (0.51, 0.5)})
        assert [v.kind for v in validate(net)] == ["row-sum"]

    def test_variable_declaration_problems(self):
        net = _chain()
        net.variables["a"] = Variable(id="a", name="a", states=("t",))
        problems = validate(net)
        assert any(v.kind == "variable" for v in problems)
        net = _chain()
        net.variables["a"] = Variable(id="a", name="a", states=("t", "t"))
        assert any("duplicate states" in v.message for v in validate(net))
        net = _chain()
        net.variables["a"] = Variable(id="other", name="a", states=("t", "f"))
        assert any(v.kind == "variable" for v in validate(net))

    @pytest.mark.parametrize(
        "tables, message",
        [
            ({"": (("t", "f"), (), {(): (0.5, 0.5)})}, "empty variable id"),
            ({"a": (("t", ""), (), {(): (0.5, 0.5)})}, "empty state name"),
        ],
    )
    def test_empty_names(self, tables, message):
        assert [(v.kind, v.message) for v in validate(make_network("empty", tables))] == [("variable", message)]

    def test_cpt_bookkeeping_problems(self):
        net = _chain()
        del net.cpts["c"]
        assert [v.kind for v in validate(net)] == ["cpt"]
        net = _chain()
        net.cpts["ghost"] = Cpt(variable="ghost", parents=(), rows={(): (1.0,)})
        assert [v.kind for v in validate(net)] == ["cpt"]
        net = _chain()
        net.cpts["b"] = Cpt(variable="c", parents=("a",), rows=dict(net.cpts["b"].rows))
        assert [v.kind for v in validate(net)] == ["cpt"]
        net = _chain()
        net.cpts["b"] = Cpt(variable="b", parents=("a", "a"), rows=dict(net.cpts["b"].rows))
        assert [v.kind for v in validate(net)] == ["cpt"]

    def test_cycle_reported_as_violation(self):
        net = make_network(
            "loop",
            {
                "a": (("t", "f"), ("b",), {("t",): (0.5, 0.5), ("f",): (0.5, 0.5)}),
                "b": (("t", "f"), ("a",), {("t",): (0.5, 0.5), ("f",): (0.5, 0.5)}),
            },
        )
        assert [v.kind for v in validate(net)] == ["cycle"]


class TestFileFormat:
    def test_dict_round_trip(self, gallstone_net):
        doc = network_to_dict(gallstone_net)
        again = network_from_dict(doc)
        assert network_to_dict(again) == doc
        assert again.entity == gallstone_net.entity
        assert again.variables == gallstone_net.variables
        assert again.cpts == gallstone_net.cpts

    def test_canonical_record_order(self, gallstone_net):
        doc = network_to_dict(gallstone_net)
        assert [v["id"] for v in doc["variables"]] == topological_order(gallstone_net)
        assert [c["variable"] for c in doc["cpts"]] == topological_order(gallstone_net)

    def test_save_load_stable_bytes(self, gallstone_net, tmp_path):
        p1 = tmp_path / "one.json"
        p2 = tmp_path / "two.json"
        save_network(gallstone_net, p1)
        save_network(load_network(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().endswith("\n")

    def test_json_lines_round_trip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records(path, [])
        assert path.read_bytes() == b""
        assert read_records(path, dict, "test") == []
        lines = ['{"a": "x\u2028y\u0085z"}', '{"b": 2}']
        write_records(path, lines)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
        assert read_records(path, dict, "test") == [{"a": "x\u2028y\u0085z"}, {"b": 2}]

    def test_load_errors_name_the_file(self, tmp_path, gallstone_net):
        path = tmp_path / "net.json"
        doc = network_to_dict(gallstone_net)
        doc["cpts"][0]["rows"][0]["p"] = [0.5, 0.6]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(NetworkFormatError, match=f"^{re.escape(str(path))}: invalid network: "):
            load_network(path)

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(NetworkFormatError):
            load_network(path)

    def test_schema_errors(self, gallstone_net):
        good = network_to_dict(gallstone_net)

        with pytest.raises(NetworkFormatError):
            network_from_dict([])
        bad = dict(good, format="other/9")
        with pytest.raises(NetworkFormatError):
            network_from_dict(bad)
        bad = dict(good, name="")
        with pytest.raises(NetworkFormatError):
            network_from_dict(bad)
        bad = dict(good, variables=[])
        with pytest.raises(NetworkFormatError):
            network_from_dict(bad)
        bad = json.loads(json.dumps(good))
        bad["variables"].append(dict(bad["variables"][0]))
        with pytest.raises(NetworkFormatError, match="duplicate variable"):
            network_from_dict(bad)
        bad = json.loads(json.dumps(good))
        bad["cpts"].append(dict(bad["cpts"][0]))
        with pytest.raises(NetworkFormatError, match="duplicate cpt"):
            network_from_dict(bad)
        bad = json.loads(json.dumps(good))
        bad["cpts"][1]["rows"][0]["given"] = {"wrong": "t"}
        with pytest.raises(NetworkFormatError, match="row condition"):
            network_from_dict(bad)
        bad = json.loads(json.dumps(good))
        bad["cpts"][0]["rows"][0]["p"] = "0.5"
        with pytest.raises(NetworkFormatError, match="list of numbers"):
            network_from_dict(bad)

    @pytest.mark.parametrize(
        "row, message",
        [
            ({"given": {}, "p": [True, False]}, "'p' must be a list of numbers"),
            ({"given": {}, "p": [1, False]}, "'p' must be a list of numbers"),
            ({"given": {"a": ["t"]}, "p": [0.5, 0.5]}, "'given' must be an object of state names"),
            ({"given": {"a": 1}, "p": [0.5, 0.5]}, "'given' must be an object of state names"),
        ],
        ids=["bools", "int-and-bool", "list-state", "int-state"],
    )
    def test_mistyped_row_fields(self, row, message):
        doc = {
            "name": "tiny",
            "variables": [{"id": "a", "states": ["t", "f"]}, {"id": "b", "states": ["t", "f"]}],
            "cpts": [
                {"variable": "a", "parents": [], "rows": [{"given": {}, "p": [0.5, 0.5]}]},
                {"variable": "b", "parents": ["a"] if row["given"] else [], "rows": [row]},
            ],
        }
        with pytest.raises(NetworkFormatError, match=f"^cpt\\[b\\]: {message}$"):
            network_from_dict(doc)

    @staticmethod
    def _tiny() -> dict:
        return {
            "name": "tiny",
            "variables": [{"id": "a", "states": ["t", "f"]}, {"id": "b", "states": ["t", "f"]}],
            "cpts": [
                {"variable": "a", "parents": [], "rows": [{"given": {}, "p": [0.5, 0.5]}]},
                {"variable": "b", "parents": ["a"], "rows": [
                    {"given": {"a": "t"}, "p": [0.9, 0.1]}, {"given": {"a": "f"}, "p": [0.2, 0.8]},
                ]},
            ],
        }

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.update(entity=""), "entity must be a nonempty string"),
            (lambda d: d["variables"].append(["c"]), "variable records must be objects"),
            (lambda d: d["variables"].append({"states": ["t", "f"]}), "variable record with bad id: {'states': ['t', 'f']}"),
            (lambda d: d["variables"][0].update(name=5), "variable 'a': name must be a string"),
            (lambda d: d.pop("cpts"), "missing cpt list"),
            (lambda d: d["cpts"].append("c"), "cpt records must be objects"),
            (lambda d: d["cpts"].append({"variable": "ghost"}), "cpt record for unknown variable 'ghost'"),
            (lambda d: d["cpts"][1].update(parents="a"), "cpt[b]: parents must be a list of variable ids"),
            (lambda d: d["cpts"][1].update(rows=[]), "cpt[b]: missing rows"),
            (lambda d: d["cpts"][1]["rows"].append({"given": {"a": "t"}}), "cpt[b]: row records need 'given' and 'p'"),
            (lambda d: d["cpts"][1]["rows"].append(dict(d["cpts"][1]["rows"][0])), "cpt[b]: duplicate row for (a=t)"),
            (lambda d: d["cpts"][0]["rows"].append(dict(d["cpts"][0]["rows"][0])), "cpt[a]: duplicate row for ()"),
        ],
        ids=[
            "entity", "variable-record", "variable-id", "variable-name", "cpt-list", "cpt-record",
            "cpt-variable", "parents", "rows", "row-record", "duplicate-row", "duplicate-root-row",
        ],
    )
    def test_schema_error_messages(self, edit, message):
        doc = self._tiny()
        network_from_dict(doc)  # the unedited document is valid
        edit(doc)
        with pytest.raises(NetworkFormatError, match=f"^{re.escape(message)}$"):
            network_from_dict(doc)

    def test_unreadable_input(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"name": "caf\xe9"}')
        with pytest.raises(NetworkFormatError, match="latin1.json: cannot read \\(.*can't decode byte 0xe9"):
            load_network(path)
        with pytest.raises(NetworkFormatError, match="cannot read"):
            load_network(tmp_path)

    def test_renormalize(self):
        doc = {
            "format": "bayesqa-network/1",
            "name": "tiny",
            "variables": [{"id": "a", "states": ["t", "f"]}],
            "cpts": [{"variable": "a", "parents": [], "rows": [{"given": {}, "p": [0.2, 0.2]}]}],
        }
        with pytest.raises(NetworkFormatError):
            network_from_dict(doc)
        net = network_from_dict(doc, renormalize=True)
        assert net.cpts["a"].rows[()] == (0.5, 0.5)

    def test_check_false_returns_invalid_network(self):
        doc = {
            "format": "bayesqa-network/1",
            "name": "tiny",
            "variables": [{"id": "a", "states": ["t", "f"]}],
            "cpts": [{"variable": "a", "parents": [], "rows": [{"given": {}, "p": [0.2, 0.2]}]}],
        }
        net = network_from_dict(doc, check=False)
        assert [v.kind for v in validate(net)] == ["row-sum"]

    def test_json_text_round_trip(self, gallstone_net):
        text = network_to_json(gallstone_net)
        assert network_to_dict(network_from_dict(json.loads(text))) == json.loads(text)
