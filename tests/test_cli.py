"""End-to-end command tests: every subcommand via main(argv)."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import netgen
import bayesqa
from bayesqa.cli import main
from bayesqa.dataset import (
    filter_premises,
    generate_dataset,
    instance_to_dict,
    load_dataset,
    save_dataset,
)
from bayesqa.metrics import Prediction, save_predictions
from bayesqa.model import load_network, make_network, network_from_dict, save_network
from bayesqa.problog import bn_to_problog, evaluate, parse, serialize
from bayesqa.problog.convert import atom_for
from bayesqa.problog.syntax import Atom, Clause, Evidence, Literal, ProbHead, ProblogProgram, Query
from conftest import GALLSTONE_TEXT, WIDE_PROGRAM_TEXT, three_state_chain

DATA = Path(__file__).parent / "data"
NET = str(DATA / "gallstones.json")
MISSING = object()  # a field value that deletes the field


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "gallstones.pl"
    path.write_text(GALLSTONE_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture()
def sprinkler_file(tmp_path, sprinkler_net):
    path = tmp_path / "sprinkler.json"
    save_network(sprinkler_net, path)
    return str(path)


def plain_program(net, inst) -> ProblogProgram:
    """Reference encoding of one instance, converting the network on its own."""

    clauses = list(bn_to_problog(net).clauses)
    evidence = tuple(Evidence(*atom_for(net, b.variable, b.state)) for b in inst.evidence)
    atom, positive = atom_for(net, inst.question.variable, inst.question.state)
    if not positive:
        taken = {h.atom.predicate for c in clauses for h in c.heads}
        pred = f"not_{atom.predicate}"
        while pred in taken:
            pred += "_"
        indicator = Atom(pred, atom.args)
        clauses.append(Clause((ProbHead(1.0, indicator),), (Literal(atom, True),)))
        clauses.append(Clause((ProbHead(0.0, indicator),), (Literal(atom, False),)))
        atom = indicator
    return ProblogProgram(tuple(clauses), evidence, (Query(atom),))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine(out: str) -> dict:
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 1, f"machine output should be one line, got {lines!r}"
    return json.loads(lines[0])


class TestValidate:
    def test_ok(self, capsys):
        code, out, _ = run(capsys, "validate", NET)
        assert code == 0
        assert out == "OK: gallstone (3 variables)\n"

    def test_machine_format(self, capsys):
        code, out, _ = run(capsys, "validate", NET, "--format", "machine")
        assert code == 0
        doc = machine(out)
        assert doc["valid"] is True and doc["network"] == "gallstone"

    def test_invalid_network_exits_1(self, capsys, tmp_path):
        doc = json.loads(Path(NET).read_text())
        doc["cpts"][0]["rows"][0]["p"] = [0.9, 0.9]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", str(bad), "--format", "machine")
        assert code == 1
        report = machine(out)
        assert report["valid"] is False
        assert any(v["kind"] == "row-sum" for v in report["violations"])

    @pytest.mark.parametrize(
        "argv",
        [
            ("validate", "no/such/file.json"),
            ("infer", "no/such/file.json", "--query", "a=b"),
            ("gen-dataset", "no/such/file.json", "--count", "1", "--out", "{tmp}/out"),
            ("baseline", "no/such/dataset.jsonl"),
            ("score", "{tmp}/empty.jsonl", "no/such/preds.jsonl"),
            ("stats", NET, "--dataset", "no/such/dataset.jsonl"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_missing_file(self, capsys, tmp_path, argv):
        (tmp_path / "empty.jsonl").write_text("", encoding="utf-8")
        code, _, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == 1
        assert "error: NetworkFormatError" in err
        assert "no such file" in err


class TestInputErrors:
    """Every input file is read by one reader: a directory, a record that is
    not a JSON object and a field of the wrong type each end in one `error:`
    line and exit 1 (an uncaught exception would fail the test)."""

    COMMANDS = {
        "validate": ("network", ["validate", "{bad}"]),
        "infer": ("network", ["infer", "{bad}", "--query", "gallstones=true"]),
        "solve": ("program", ["solve", "{bad}"]),
        "score-dataset": ("dataset", ["score", "{bad}", "{predictions}"]),
        "score-predictions": ("predictions", ["score", "{dataset}", "{bad}"]),
        "baseline": ("dataset", ["baseline", "{bad}"]),
        "stats": ("network", ["stats", "{bad}"]),
        "stats-dataset": ("dataset", ["stats", NET, "--dataset", "{bad}"]),
    }

    @pytest.mark.parametrize("kind", ["directory", "not-object", "wrong-type"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_bad_input_exits_1(self, capsys, tmp_path, gallstone_net, command, kind):
        instances = generate_dataset(gallstone_net, 2, seed=3)
        paths = {"dataset": tmp_path / "dataset.jsonl", "predictions": tmp_path / "predictions.jsonl"}
        save_dataset(instances, paths["dataset"])
        save_predictions([Prediction(i.id, 0.5) for i in instances], paths["predictions"])
        network = json.loads(Path(NET).read_text(encoding="utf-8"))
        network["variables"][0]["states"] = "tf"
        wrong_type = {
            "network": json.dumps(network),
            "program": "0.5::a.\nevidence(a, 0.5).\n",
            "dataset": json.dumps({**instance_to_dict(instances[0]), "premises": 5}) + "\n",
            "predictions": '{"id": "x", "value": "high"}\n',
        }
        what, argv = self.COMMANDS[command]
        paths["bad"] = tmp_path / "bad"
        if kind == "directory":
            paths["bad"].mkdir()
        else:
            paths["bad"].write_text("[1]\n" if kind == "not-object" else wrong_type[what], encoding="utf-8")
        code, out, err = run(capsys, *(a.format(**paths) for a in argv))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_record_errors_name_the_line(self, capsys, tmp_path, gallstone_net):
        instances = generate_dataset(gallstone_net, 2, seed=3)
        save_dataset(instances, tmp_path / "dataset.jsonl")
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "%s", "value": 0.5}\n\n[1]\n' % instances[0].id, encoding="utf-8")
        code, _, err = run(capsys, "score", str(tmp_path / "dataset.jsonl"), str(bad))
        assert code == 1
        assert err == f"error: NetworkFormatError: {bad}:3: bad prediction record (expected a JSON object, got list)\n"

    @pytest.mark.parametrize("value", ["true", '"0.25"'])
    def test_prediction_value_must_be_a_number(self, capsys, tmp_path, gallstone_net, value):
        instances = generate_dataset(gallstone_net, 2, seed=3)
        save_dataset(instances, tmp_path / "dataset.jsonl")
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join('{"id": "%s", "value": %s}\n' % (i.id, value) for i in instances), encoding="utf-8")
        code, out, err = run(capsys, "score", str(tmp_path / "dataset.jsonl"), str(bad))
        assert (code, out) == (1, "")
        assert err == (
            f"error: NetworkFormatError: {bad}:1: bad prediction record "
            f"(value must be a number or null, got {value})\n"
        )

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("gold", True, "gold must be a number, got true"),
            ("gold", "0.5", 'gold must be a number, got "0.5"'),
            ("seed", "7", 'seed must be an integer, got "7"'),
            ("seed", True, "seed must be an integer, got true"),
            ("index", True, "index must be an integer, got true"),
            ("index", 1.0, "index must be an integer, got 1.0"),
            ("id", 5, "id must be a string, got 5"),
            ("network", 5, "network must be a string, got 5"),
            ("primary_type", None, "primary_type must be a string, got null"),
            ("reasoning_types", "causal", 'reasoning_types must be a list of strings, got "causal"'),
            ("reasoning_types", ["causal", 1], 'reasoning_types must be a list of strings, got ["causal", 1]'),
            ("premises.0.clause_ref", True, "clause_ref must be an integer, got true"),
            ("premises.3.clause_ref", 1.5, "clause_ref must be an integer, got 1.5"),
            ("premises.0.kind", 5, 'kind must be "numeric" or "wep", got 5'),
            ("premises.2.kind", "verbal", 'kind must be "numeric" or "wep", got "verbal"'),
            ("premises.1.variable", None, "variable must be a string, got null"),
            ("premises.4.given", {"x": 7}, 'given must be an object of strings, got {"x": 7}'),
            ("premises.4.given", ["x", "y"], 'given must be an object of strings, got ["x", "y"]'),
            ("evidence.0.variable", 7, "variable must be a string, got 7"),
            ("evidence.0.text", None, "text must be a string, got null"),
            ("question.state", None, "state must be a string, got null"),
            ("premises.5.text", 5, "text must be a string, got 5"),
            # the first record's premise 1 has clause_ref 1, which == takes for these
            ("premises.1.clause_ref", True, "clause_ref must be an integer, got true"),
            ("premises.1.clause_ref", 1.0, "clause_ref must be an integer, got 1.0"),
            ("premises", {}, "premises must be a list, got {}"),
            ("premises", "", 'premises must be a list, got ""'),
            ("premises", {"a": 1}, 'premises must be a list, got {"a": 1}'),
            ("evidence", {}, "evidence must be a list, got {}"),
            ("evidence", "", 'evidence must be a list, got ""'),
            ("evidence", None, "evidence must be a list, got null"),
            ("question", [], "question must be an object, got []"),
            ("premises.3", "a", 'a premise must be an object, got "a"'),
            ("premises.0", [], "a premise must be an object, got []"),
            ("evidence.0", 1, "an evidence binding must be an object, got 1"),
            ("evidence.0", "flatulence", 'an evidence binding must be an object, got "flatulence"'),
            ("premises.4.given", MISSING, "missing field 'given'"),
            ("evidence.0.state", MISSING, "missing field 'state'"),
            ("gold", MISSING, "missing field 'gold'"),
            ("gold", 2.0, "gold must be a probability in [0, 1], got 2.0"),
            ("gold", -1, "gold must be a probability in [0, 1], got -1"),
            ("gold", float("nan"), "gold must be a probability in [0, 1], got NaN"),
            ("gold", float("inf"), "gold must be a probability in [0, 1], got Infinity"),
        ],
    )
    def test_dataset_field_types(self, capsys, tmp_path, gallstone_net, field, value, message):
        # field is a dotted path into the second record; a number steps into
        # a list, and MISSING deletes the field
        records = [instance_to_dict(i) for i in generate_dataset(gallstone_net, 2, seed=3)]
        *steps, last = (int(step) if step.isdigit() else step for step in field.split("."))
        target = records[1]
        for step in steps:
            target = target[step]
        if value is MISSING:
            del target[last]
        else:
            target[last] = value
        bad = tmp_path / "dataset.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        code, out, err = run(capsys, "baseline", str(bad))
        assert (code, out) == (1, "")
        assert err == f"error: NetworkFormatError: {bad}:2: bad dataset record ({message})\n"

    @pytest.mark.parametrize(
        "record, message",
        [
            ('{"id": 5, "value": 0.5}', "id must be a string, got 5"),
            ('{"id": "gallstone-0000", "error": 5}', "error must be a string or null, got 5"),
            ('{"value": 0.5}', "missing field 'id'"),
        ],
    )
    def test_prediction_field_types(self, capsys, tmp_path, gallstone_net, record, message):
        save_dataset(generate_dataset(gallstone_net, 1, seed=3), tmp_path / "dataset.jsonl")
        bad = tmp_path / "bad.jsonl"
        bad.write_text(record + "\n", encoding="utf-8")
        code, out, err = run(capsys, "score", str(tmp_path / "dataset.jsonl"), str(bad))
        assert (code, out) == (1, "")
        assert err == f"error: NetworkFormatError: {bad}:1: bad prediction record ({message})\n"

    def test_prediction_error_null_is_no_error(self, capsys, tmp_path, gallstone_net):
        instances = generate_dataset(gallstone_net, 3, seed=3)
        save_dataset(instances, tmp_path / "dataset.jsonl")
        reports = []
        for name, extra in (("plain", ""), ("null", ', "error": null')):
            path = tmp_path / f"{name}.jsonl"
            path.write_text("".join('{"id": "%s", "value": 0.5%s}\n' % (i.id, extra) for i in instances), encoding="utf-8")
            code, out, _ = run(capsys, "score", str(tmp_path / "dataset.jsonl"), str(path), "--format", "machine")
            assert code == 0
            reports.append(machine(out))
        assert reports[0] == reports[1]
        assert reports[1]["overall"]["pct_error"] == 0.0

    NETWORK_FILES = {
        "schema": ("[1]", "top level must be a JSON object"),
        "invalid": ('{"name": "x", "variables": [{"id": "a", "states": ["t"]}], "cpts": []}', "invalid network: "),
        "not-json": ("{nope", "not valid JSON"),
    }
    NETWORK_COMMANDS = {
        "gen-dataset": ["gen-dataset", NET, "{bad}", "--count", "1", "--out", "{out}"],
        "stats": ["stats", NET, "{bad}"],
        "validate": ["validate", "{bad}"],
        "infer": ["infer", "{bad}", "--query", "a=t"],
    }

    # validate reports the violations of a network that parses on stdout
    @pytest.mark.parametrize(
        "command, content",
        [pair for pair in itertools.product(NETWORK_COMMANDS, NETWORK_FILES) if pair != ("validate", "invalid")],
    )
    def test_network_errors_name_the_file(self, capsys, tmp_path, command, content):
        text, message = self.NETWORK_FILES[content]
        bad = tmp_path / "one.json"
        bad.write_text(text, encoding="utf-8")
        argv = self.NETWORK_COMMANDS[command]
        code, out, err = run(capsys, *(a.format(bad=bad, out=tmp_path / "out") for a in argv))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: NetworkFormatError: {bad}: {message}"), err
        assert err.count(str(bad)) == 1, err
        assert not (tmp_path / "out").exists()


class TestInfer:
    def test_reference_query(self, capsys):
        code, out, _ = run(
            capsys, "infer", NET,
            "--query", "amylase=500-1400", "--evidence", "flatulence=true",
        )
        assert code == 0
        assert out == "P(amylase=500-1400 | flatulence=true) = 0.011316399\n"

    def test_precision_flag(self, capsys):
        code, out, _ = run(
            capsys, "infer", NET, "--precision", "3",
            "--query", "amylase=500-1400", "--evidence", "flatulence=true",
        )
        assert code == 0
        assert out.strip().endswith("= 0.011")

    def test_machine_and_elimination(self, capsys):
        code, out, _ = run(
            capsys, "infer", NET, "--format", "machine", "--method", "elimination",
            "--query", "amylase=500-1400", "--evidence", "flatulence=true",
        )
        assert code == 0
        doc = machine(out)
        assert doc["method"] == "elimination"
        assert abs(doc["probability"] - 0.011316399030456706) < 1e-12

    def test_bad_binding_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["infer", NET, "--query", "amylase"])
        assert exc.value.code == 2
        assert "expected VARIABLE=STATE" in capsys.readouterr().err

    def test_repeated_evidence_variable_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "infer", NET, "--query", "gallstones=true",
                "--evidence", "flatulence=true", "--evidence", "flatulence=false",
            ])
        assert exc.value.code == 2
        assert "--evidence names variable 'flatulence' more than once" in capsys.readouterr().err

    def test_unknown_variable_is_domain_error(self, capsys):
        code, _, err = run(capsys, "infer", NET, "--query", "bile=true")
        assert code == 1
        assert "error: UnknownVariable" in err

    @pytest.mark.parametrize("method", ["enumeration", "elimination"])
    @pytest.mark.parametrize(
        "query, evidence, message",
        [
            ("nope=x", "nope=y", "UnknownVariable: unknown variable 'nope'"),
            ("amylase=bad", "flatulence=worse",
             "UnknownState: variable 'amylase' has no state 'bad' (states: 0-299, 300-499, 500-1400)"),
        ],
    )
    def test_query_is_checked_before_evidence(self, capsys, method, query, evidence, message):
        code, out, err = run(capsys, "infer", NET, "--method", method, "--query", query, "--evidence", evidence)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_enumeration_bound_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "chain3.json"
        save_network(three_state_chain(14), path)
        code, out, err = run(capsys, "infer", str(path), "--query", "v13=s0")
        assert (code, out) == (1, "")
        assert err.startswith("error: EnumerationBoundExceeded: enumeration would walk 4782969 joint states")
        assert "--method elimination" in err
        code, out, _ = run(capsys, "infer", str(path), "--query", "v13=s0", "--method", "elimination")
        assert code == 0 and out.startswith("P(v13=s0) = ")


class TestSolve:
    @pytest.mark.parametrize("method", ["enumeration", "elimination", "worlds"])
    def test_reference_program(self, capsys, program_file, method):
        code, out, _ = run(capsys, "solve", program_file, "--method", method)
        assert code == 0
        label, value = out.strip().split(":\t")
        assert label == "amylase(patient,'500-1400')"
        assert abs(float(value) - 0.011316399) < 1e-9

    def test_machine_format(self, capsys, program_file):
        code, out, _ = run(capsys, "solve", program_file, "--format", "machine")
        doc = machine(out)
        assert code == 0
        assert doc["results"][0]["atom"] == "amylase(patient,'500-1400')"

    def test_zero_mass_message_is_the_same_under_every_hash_seed(self, tmp_path):
        # false evidence on a 3-state atom is a set of two states
        path = tmp_path / "zero.pl"
        path.write_text(
            "1.0::x(e,a); 0.0::x(e,b); 0.0::x(e,c).\n0.5::y(e).\n"
            "evidence(x(e,a), false).\nquery(y(e)).\n",
            encoding="utf-8",
        )
        src = str(Path(bayesqa.__file__).resolve().parents[1])
        lines = set()
        for seed in range(8):
            env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
            done = subprocess.run(
                [sys.executable, "-m", "bayesqa.cli", "solve", str(path), "--method", "elimination"],
                capture_output=True, text=True, env=env, check=False,
            )
            assert done.returncode == 1
            lines.add(done.stderr)
        assert len(lines) == 1
        (line,) = lines
        assert line == "error: ZeroProbabilityEvidence: evidence {'x': ['b', 'c']} has probability 0\n"


    def test_zero_mass_message_is_the_same_for_every_method(self, capsys, tmp_path):
        path = tmp_path / "zero.pl"
        path.write_text(
            "1.0::x(e,a); 0.0::x(e,b); 0.0::x(e,c).\n0.5::y(e).\n"
            "evidence(x(e,a), false).\nquery(y(e)).\n",
            encoding="utf-8",
        )
        errs = {}
        for method in ("enumeration", "elimination", "worlds"):
            code, _, errs[method] = run(capsys, "solve", str(path), "--method", method)
            assert code == 1
        assert errs["enumeration"] == errs["elimination"]
        assert errs["worlds"] == "error: ZeroProbabilityEvidence: evidence ['x(e,a)=false'] has probability 0\n"

    def test_contradictory_evidence_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "both.pl"
        path.write_text(
            "0.2::x(e,a); 0.3::x(e,b); 0.5::x(e,c).\n0.5::y(e).\n"
            "evidence(x(e,a), true).\nevidence(x(e,b), true).\nquery(y(e)).\n",
            encoding="utf-8",
        )
        for method in ("enumeration", "elimination", "worlds"):
            code, out, err = run(capsys, "solve", str(path), "--method", method)
            assert (code, out) == (1, ""), method
            assert err.startswith("error: ZeroProbabilityEvidence: "), method

    @pytest.mark.parametrize("method", ["enumeration", "elimination", "worlds"])
    def test_undefined_query_atom_is_refused(self, capsys, tmp_path, method):
        path = tmp_path / "undefined.pl"
        path.write_text("0.5::a(e).\nquery(z(e)).\n", encoding="utf-8")
        code, out, err = run(capsys, "solve", str(path), "--method", method)
        assert (code, out) == (1, "")
        assert err == "error: UnknownClause: atom z(e) does not match any defined atom\n"

    def test_worlds_refuses_a_wide_program(self, capsys, tmp_path):
        path = tmp_path / "wide.pl"
        path.write_text(WIDE_PROGRAM_TEXT, encoding="utf-8")
        code, out, err = run(capsys, "solve", str(path), "--method", "worlds")
        assert (code, out) == (1, "")
        assert err == (
            "error: EnumerationBoundExceeded: program has 1594323 possible worlds,"
            " more than the bound of 1048576\n"
        )


class TestTranslation:
    def test_to_problog_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "net.pl"
        code, _, _ = run(capsys, "to-problog", NET, "-o", str(out_path))
        assert code == 0
        text = out_path.read_text(encoding="utf-8")
        reference = serialize(
            parse(
                "\n".join(
                    l for l in GALLSTONE_TEXT.splitlines()
                    if not l.startswith(("evidence", "query"))
                )
            )
        )
        assert set(text.strip().split("\n\n")) == set(reference.strip().split("\n\n"))

    def test_to_problog_into_missing_directory(self, capsys, tmp_path):
        code, out, err = run(capsys, "to-problog", NET, "-o", str(tmp_path / "missing" / "x.pl"))
        assert (code, out) == (1, "")
        assert err.startswith("error: FileNotFoundError: ")

    def test_to_problog_stdout_and_entity(self, capsys):
        code, out, _ = run(capsys, "to-problog", NET, "--entity", "subject")
        assert code == 0
        assert "gallstones(subject)" in out

    def test_to_problog_refuses_an_empty_entity(self, capsys):
        code, out, err = run(capsys, "to-problog", NET, "--entity", "")
        assert (code, out) == (1, "")
        assert err == (
            "error: UnrepresentableName: constant '' cannot be written: empty, or holds a quote or a newline\n"
        )

    def test_round_trip_keeps_parent_order(self, capsys, tmp_path, unsorted_parents_net):
        save_network(unsorted_parents_net, tmp_path / "order.json")
        assert run(capsys, "to-problog", str(tmp_path / "order.json"), "-o", str(tmp_path / "order.pl"))[0] == 0
        code, _, _ = run(
            capsys, "from-problog", str(tmp_path / "order.pl"), "--name", "order", "-o", str(tmp_path / "back.json")
        )
        assert code == 0
        assert (tmp_path / "back.json").read_bytes() == (tmp_path / "order.json").read_bytes()

    def test_from_problog(self, capsys, tmp_path, program_file):
        out_path = tmp_path / "net.json"
        code, _, _ = run(
            capsys, "from-problog", program_file, "--name", "decoded", "-o", str(out_path)
        )
        assert code == 0
        net = network_from_dict(json.loads(out_path.read_text()))
        assert net.name == "decoded"
        assert sorted(net.variables) == ["amylase", "flatulence", "gallstones"]

    def test_from_problog_refuses_an_empty_name(self, capsys, tmp_path, program_file):
        out_path = tmp_path / "net.json"
        with pytest.raises(SystemExit) as exc:
            main(["from-problog", program_file, "--name", "", "-o", str(out_path)])
        assert exc.value.code == 2
        assert "--name: expected a non-empty name" in capsys.readouterr().err
        assert not out_path.exists()

    def test_syntax_error_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.pl"
        bad.write_text("0.5:gallstones(patient).")
        code, _, err = run(capsys, "from-problog", str(bad))
        assert code == 1
        assert "error: ProblogSyntaxError" in err


class TestClosedStdout:
    def test_closed_pipe_exits_1_without_a_message(self):
        # a reader that stops early (`| head -1`), as a pipe whose read end is
        # closed before the command starts, so nothing depends on timing
        read, write = os.pipe()
        os.close(read)
        src = str(Path(bayesqa.__file__).resolve().parents[1])
        try:
            done = subprocess.run(
                [sys.executable, "-m", "bayesqa.cli", "to-problog", NET],
                stdout=write, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src}, check=False,
            )
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (1, b"")


class TestSubset:
    def test_extract(self, capsys, tmp_path):
        out_path = tmp_path / "sub.json"
        code, _, _ = run(
            capsys, "subset", NET,
            "--keep", "gallstones", "--keep", "amylase", "-o", str(out_path),
        )
        assert code == 0
        net = network_from_dict(json.loads(out_path.read_text()))
        assert sorted(net.variables) == ["amylase", "gallstones"]

    def test_unknown_keep(self, capsys):
        code, _, err = run(capsys, "subset", NET, "--keep", "bile")
        assert code == 1
        assert "error: UnknownVariable" in err


class TestGenDataset:
    def test_files_and_determinism(self, capsys, tmp_path, sprinkler_file):
        dirs = [tmp_path / "one", tmp_path / "two", tmp_path / "three"]
        for d in dirs:
            code, out, _ = run(
                capsys, "gen-dataset", NET, sprinkler_file,
                "--count", "4", "--out", str(d), "--seed", "9", "--format", "machine",
            )
            assert code == 0
            assert machine(out)["instances"] == 8
        ref = (dirs[0] / "dataset.jsonl").read_bytes()
        assert (dirs[1] / "dataset.jsonl").read_bytes() == ref
        assert (dirs[2] / "dataset.jsonl").read_bytes() == ref
        names = sorted(p.name for p in dirs[0].glob("*.pl"))
        assert len(names) == 8
        assert names[0] == "gallstone-0000.pl"

    def test_each_network_is_validated_once(self, capsys, monkeypatch, tmp_path, sprinkler_file):
        # wrapped wherever a module holds model.validate, as qabench's tracer wraps a layer
        real, checked = bayesqa.model.validate, []

        def counted(network):
            checked.append(network.name)
            return real(network)

        for module in [m for name, m in sys.modules.items() if name.startswith("bayesqa")]:
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, counted)
        code, _, _ = run(capsys, "gen-dataset", NET, sprinkler_file, "--count", "2", "--out", str(tmp_path / "out"))
        assert code == 0
        assert checked == ["gallstone", "sprinkler"]

    def test_kind_filter(self, capsys, tmp_path):
        d = tmp_path / "numeric"
        code, _, _ = run(
            capsys, "gen-dataset", NET, "--count", "2", "--out", str(d),
            "--kind", "numeric",
        )
        assert code == 0
        for inst in load_dataset(d / "dataset.jsonl"):
            assert {p.kind for p in inst.premises} == {"numeric"}

    @pytest.mark.parametrize("kind", ["both", "numeric", "wep"])
    def test_output_matches_plain_encoding(self, capsys, tmp_path, collide_net, kind):
        rng = np.random.default_rng(["both", "numeric", "wep"].index(kind))
        nets = [
            netgen.random_network(rng, name=f"pin{i}", max_vars=int(rng.integers(2, 9)))
            for i in range(30)
        ]
        nets.append(collide_net)
        paths = [NET]
        for net in nets:
            paths.append(str(tmp_path / f"{net.name}.json"))
            save_network(net, paths[-1])
        seed = int(rng.integers(1000))
        out = tmp_path / "out"
        code, _, _ = run(
            capsys, "gen-dataset", *paths, "--count", "5", "--seed", str(seed),
            "--kind", kind, "--out", str(out),
        )
        assert code == 0
        kinds = ("numeric", "wep") if kind == "both" else (kind,)
        lines = (out / "dataset.jsonl").read_text(encoding="utf-8").splitlines()
        want = []
        for k, path in enumerate(paths):
            net = load_network(path)
            for inst in generate_dataset(net, 5, seed, stream=k):
                text = (out / f"{inst.id}.pl").read_text(encoding="utf-8")
                assert text == serialize(plain_program(net, inst))
                want.append(json.dumps(instance_to_dict(filter_premises(inst, kinds)), ensure_ascii=False))
        assert lines == want

    def test_output_bytes_are_pinned(self, capsys, tmp_path):
        # SHA-256 over "<file name> <SHA-256 of its bytes>" lines, in sorted
        # name order, of every file gen-dataset writes: the dataset and the
        # 50 programs. Any change to an output byte fails here.
        out = tmp_path / "out"
        code, _, _ = run(capsys, "gen-dataset", NET, "--count", "50", "--seed", "7", "--out", str(out))
        assert code == 0
        lines = "".join(f"{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}\n" for p in sorted(out.iterdir()))
        assert len(lines.splitlines()) == 51
        assert hashlib.sha256(lines.encode()).hexdigest() == (
            "c52c65d5ed20bc016730e873ce130914fc141bcb816c134fa3695291713abfa4"
        )

    def test_repeated_network_name_rejected(self, capsys, tmp_path, sprinkler_file):
        again = tmp_path / "again.json"
        again.write_text(Path(NET).read_text(encoding="utf-8"), encoding="utf-8")
        out = tmp_path / "out"
        code, _, err = run(
            capsys, "gen-dataset", NET, sprinkler_file, str(again),
            "--count", "3", "--seed", "1", "--out", str(out),
        )
        assert code == 1
        assert "error: NetworkFormatError" in err
        assert "'gallstone'" in err and NET in err and str(again) in err
        assert not out.exists()

    def test_error_precedence(self, capsys, monkeypatch, tmp_path):
        # every file is read, then names are compared, before any network is
        # generated; an invalid network is refused before an unwritable name
        invalid = tmp_path / "invalid.json"
        invalid.write_text(TestInputErrors.NETWORK_FILES["invalid"][0], encoding="utf-8")
        again = tmp_path / "again.json"
        again.write_text(Path(NET).read_text(encoding="utf-8"), encoding="utf-8")
        unwritable = tmp_path / "unwritable.json"
        text = Path(NET).read_text(encoding="utf-8")
        unwritable.write_text(text.replace('"gallstones"', '"Gallstones"').replace('"gallstone"', '"other"'), "utf-8")
        missing = tmp_path / "missing.json"
        generated = []
        real = bayesqa.dataset.generate_dataset
        monkeypatch.setattr(
            bayesqa.dataset, "generate_dataset", lambda net, *a, **k: generated.append(net.name) or real(net, *a, **k)
        )
        out = str(tmp_path / "out")
        cases = [
            ((NET, invalid, missing), f"{missing}: ", []),
            ((invalid, NET, again), "network name 'gallstone' is used by both", []),
            ((unwritable, invalid), f"{invalid}: invalid network: ", ["other", "x"]),
        ]
        for files, message, names in cases:
            generated.clear()
            code, _, err = run(capsys, "gen-dataset", *map(str, files), "--count", "2", "--out", out)
            assert code == 1
            assert err.startswith(f"error: NetworkFormatError: {message}"), err
            assert generated == names
        assert not Path(out).exists()

    @pytest.mark.parametrize("name", ["../escaped", "sub/dir", "nul\x00name"], ids=["parent", "subdir", "nul"])
    def test_path_like_network_name_writes_nothing(self, capsys, tmp_path, name):
        # refused with the repeated-name check, before gallstones' programs are written
        bad = tmp_path / "bad.json"
        doc = json.loads(Path(NET).read_text(encoding="utf-8"))
        doc["name"] = name
        bad.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        code, stdout, err = run(capsys, "gen-dataset", NET, str(bad), "--count", "3", "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err.startswith(f"error: NetworkFormatError: {bad}: ") and err.count("\n") == 1, err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    def test_generation_error_writes_nothing(self, capsys, tmp_path):
        one = tmp_path / "one.json"
        save_network(make_network("one", {"a": (("t", "f"), (), {(): (0.5, 0.5)})}), one)
        out = tmp_path / "out"
        out.mkdir()
        code, _, err = run(capsys, "gen-dataset", NET, str(one), "--count", "3", "--out", str(out))
        assert code == 1
        assert "at least 2 variables" in err
        assert list(out.iterdir()) == []  # no .pl file from the first network, no dataset.jsonl

    @pytest.mark.parametrize(
        "old, new, name",
        [('"gallstones"', '"Gallstones"', "'Gallstones'"), ('"300-499"', '"300\\n499"', "'300\\n499'")],
        ids=["variable-id", "state-newline"],
    )
    def test_unwritable_name_writes_nothing(self, capsys, tmp_path, old, new, name):
        # the second network's encoding is refused before the first's programs are written
        bad = tmp_path / "bad.json"
        text = Path(NET).read_text(encoding="utf-8")
        bad.write_text(text.replace(old, new).replace('"gallstone"', '"other"'), encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        code, stdout, err = run(capsys, "gen-dataset", NET, str(bad), "--count", "3", "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err.startswith("error: UnrepresentableName: ") and name in err and err.count("\n") == 1, err
        assert list(out.iterdir()) == []

    @staticmethod
    def solved_back(capsys, tmp_path, text: str) -> list:
        """gen-dataset a network's JSON text; each program must answer its gold."""

        net = tmp_path / "net.json"
        net.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        code, _, _ = run(capsys, "gen-dataset", str(net), "--count", "12", "--seed", "7", "--out", str(out))
        assert code == 0
        instances = load_dataset(out / "dataset.jsonl")
        for inst in instances:
            (p,) = evaluate(parse((out / f"{inst.id}.pl").read_text(encoding="utf-8"))).values()
            assert abs(p - inst.gold) <= 1e-12
        return instances

    def test_variable_named_not_solves_back(self, capsys, tmp_path):
        text = Path(NET).read_text(encoding="utf-8").replace('"gallstones"', '"not"')
        instances = self.solved_back(capsys, tmp_path, text)
        assert any(b.variable == "not" for i in instances for b in (*i.evidence, i.question))

    def test_variables_named_query_and_evidence_solve_back(self, capsys, tmp_path):
        # the statement scan reads `query(` and `evidence(` as directives only
        text = Path(NET).read_text(encoding="utf-8")
        text = text.replace('"gallstones"', '"query"').replace('"flatulence"', '"evidence"')
        instances = self.solved_back(capsys, tmp_path, text)
        named = {b.variable for i in instances for b in (*i.evidence, i.question)}
        assert {"query", "evidence"} <= named

    def test_state_holding_separators_solves_back(self, capsys, tmp_path):
        # a quoted constant may hold what separates heads and literals
        state = "300, 499; a::b :- c"
        text = Path(NET).read_text(encoding="utf-8").replace('"300-499"', json.dumps(state))
        instances = self.solved_back(capsys, tmp_path, text)
        assert any(b.state == state for i in instances for b in (*i.evidence, i.question))

    def test_negative_zero_entry_solves_back(self, capsys, tmp_path):
        # validation accepts a stored -0.0: programs must spell it 0.0, and premises 0%
        doc = json.loads(Path(NET).read_text(encoding="utf-8"))
        (cpt,) = [c for c in doc["cpts"] if c["variable"] == "flatulence"]
        (row,) = [r for r in cpt["rows"] if r["given"] == {"gallstones": "true"}]
        row["p"] = [-0.0, 1.0]
        instances = self.solved_back(capsys, tmp_path, json.dumps(doc))
        texts = [p.text for i in instances for p in i.premises]
        assert not any("-0%" in t for t in texts)
        assert any("flatulence being true is 0%," in t for t in texts)
        code, out, _ = run(capsys, "to-problog", str(tmp_path / "net.json"))
        assert code == 0 and "0.0::flatulence(patient) :- gallstones(patient).\n" in out and "-0.0" not in out

    def test_rerun_removes_only_its_own_stale_programs(self, capsys, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        unrelated = ["notes.pl", "sprinkler-0004.pl", "gallstone-draft.pl"]
        for name in unrelated:
            (out / name).write_text("% kept\n", encoding="utf-8")
        for count in ("5", "3"):
            code, _, _ = run(capsys, "gen-dataset", NET, "--count", count, "--seed", "2", "--out", str(out))
            assert code == 0
        programs = sorted(p.name for p in out.glob("gallstone-[0-9]*.pl"))
        assert programs == ["gallstone-0000.pl", "gallstone-0001.pl", "gallstone-0002.pl"]
        assert sorted(p.name for p in out.glob("*.pl")) == sorted(programs + unrelated)

    def test_out_is_an_existing_file(self, capsys, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("kept\n", encoding="utf-8")
        code, out, err = run(capsys, "gen-dataset", NET, "--count", "1", "--out", str(taken))
        assert (code, out) == (1, "")
        assert err.startswith("error: FileExistsError: ")
        assert taken.read_text(encoding="utf-8") == "kept\n"

    def test_count_must_be_positive(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen-dataset", NET, "--count", "0", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_workers_is_a_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen-dataset", NET, "--count", "1", "--workers", "1", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 1" in capsys.readouterr().err


class TestWep:
    def test_prob_to_phrase(self, capsys):
        code, out, _ = run(capsys, "wep", "--prob", "0.9", "--second-closest", "0")
        assert code == 0
        assert out == "highly likely\n"

    def test_phrase_to_prob(self, capsys):
        code, out, _ = run(capsys, "wep", "--phrase", "almost no chance")
        assert code == 0
        assert out == "0.020000000\n"

    def test_machine_fields(self, capsys):
        code, out, _ = run(capsys, "wep", "--prob", "0.38", "--format", "machine", "--seed", "4")
        doc = machine(out)
        assert code == 0
        assert doc["phrase"] == "probably not"
        assert isinstance(doc["used_second_closest"], bool)

    def test_seed_reproducibility(self, capsys):
        outs = set()
        for _ in range(2):
            _, out, _ = run(capsys, "wep", "--prob", "0.7", "--seed", "99")
            outs.add(out)
        assert len(outs) == 1

    def test_out_of_range_prob(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["wep", "--prob", "1.5"])
        assert exc.value.code == 2

    def test_unknown_phrase(self, capsys):
        code, _, err = run(capsys, "wep", "--phrase", "maybe")
        assert code == 1
        assert "error: UnknownWepPhrase" in err


class TestClassify:
    def test_explaining_away(self, capsys, sprinkler_file):
        code, out, _ = run(
            capsys, "classify", sprinkler_file,
            "--query", "rain", "--evidence", "grass_wet", "--evidence", "sprinkler",
        )
        assert code == 0
        assert out == "types: evidential, explaining_away\nprimary: explaining_away\n"

    def test_none(self, capsys, sprinkler_file):
        code, out, _ = run(capsys, "classify", sprinkler_file, "--query", "rain")
        assert code == 0
        assert out == "types: (none)\nprimary: none\n"

    @pytest.mark.parametrize(
        "evidence, message",
        [
            ("nosuchvar", "UnknownVariable: unknown variable 'nosuchvar'"),
            ("rain", "QueryEvidenceOverlap: query variable 'rain' also appears in evidence"),
        ],
        ids=["unknown", "overlap"],
    )
    def test_bad_evidence_is_domain_error(self, capsys, sprinkler_file, evidence, message):
        code, out, err = run(capsys, "classify", sprinkler_file, "--query", "rain", "--evidence", evidence)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"


class TestScoreAndBaseline:
    @pytest.fixture()
    def dataset_file(self, tmp_path, gallstone_net):
        instances = generate_dataset(gallstone_net, 4, seed=31)
        path = tmp_path / "dataset.jsonl"
        save_dataset(instances, path)
        return instances, str(path)

    def test_score(self, capsys, tmp_path, dataset_file):
        instances, dataset_path = dataset_file
        preds = [Prediction(inst.id, inst.gold) for inst in instances[:-1]]
        preds.append(Prediction(instances[-1].id, error="gave a word, not a number"))
        pred_path = tmp_path / "preds.jsonl"
        save_predictions(preds, pred_path)
        code, out, _ = run(
            capsys, "score", dataset_path, str(pred_path), "--format", "machine"
        )
        assert code == 0
        doc = machine(out)
        assert doc["overall"]["n"] == 4
        assert doc["overall"]["pct_correct"] == 75.0
        assert doc["overall"]["pct_error"] == 25.0

    def test_score_human_lines(self, capsys, tmp_path, dataset_file):
        instances, dataset_path = dataset_file
        pred_path = tmp_path / "preds.jsonl"
        save_predictions([Prediction(i.id, i.gold) for i in instances], pred_path)
        code, out, _ = run(capsys, "score", dataset_path, str(pred_path), "--buckets", "3,10")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("overall: n=4 correct=100.0%")
        # every gallstone instance carries 5 distinct CPT rows -> bucket 4-10
        assert any(line.startswith("premises[4-10]") for line in lines)

    def test_mismatch_is_domain_error(self, capsys, tmp_path, dataset_file):
        _, dataset_path = dataset_file
        pred_path = tmp_path / "none.jsonl"
        save_predictions([], pred_path)
        code, _, err = run(capsys, "score", dataset_path, str(pred_path))
        assert code == 1
        assert "error: PredictionMismatch" in err

    def test_baseline(self, capsys, tmp_path, dataset_file):
        _, dataset_path = dataset_file
        out_path = tmp_path / "baseline.jsonl"
        code, out, _ = run(
            capsys, "baseline", dataset_path, "-o", str(out_path), "--format", "machine"
        )
        assert code == 0
        doc = machine(out)
        assert doc["overall"]["pct_error"] == 0.0
        assert out_path.exists()
        assert all(
            json.loads(line)["value"] == 0.5
            for line in out_path.read_text().splitlines()
        )


class TestStats:
    def test_reference_numbers(self, capsys):
        code, out, _ = run(capsys, "stats", NET, "--format", "machine")
        assert code == 0
        doc = machine(out)
        assert doc["numeric_premises"] == 5
        assert abs(doc["states_per_variable_mean"] - 7 / 3) <= 1e-9

    def test_human_format(self, capsys):
        code, out, _ = run(capsys, "stats", NET)
        assert code == 0
        assert "numeric_premises: 5" in out
        assert "states_per_variable_mean: 2.333333333" in out

    def test_with_dataset(self, capsys, tmp_path, gallstone_net):
        instances = generate_dataset(gallstone_net, 3, seed=37)
        path = tmp_path / "d.jsonl"
        save_dataset(instances, path)
        code, out, _ = run(capsys, "stats", NET, "--dataset", str(path), "--format", "machine")
        assert code == 0
        assert machine(out)["queries"] == 3


class TestNumericFlags:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--precision", "-3", "infer", NET, "--query", "amylase=500-1400"], "--precision"),
            (["wep", "--phrase", "likely", "--precision", "x"], "--precision"),
            (["gen-dataset", NET, "--count", "-1", "--out", "{out}"], "--count"),
            (["gen-dataset", NET, "--count", "2.5", "--out", "{out}"], "--count"),
            (["gen-dataset", NET, "--count", "1", "--second-closest", "-0.1", "--out", "{out}"], "--second-closest"),
            (["wep", "--prob", "nan"], "--prob"),
            (["wep", "--prob", "0.5", "--second-closest", "2"], "--second-closest"),
            (["baseline", "{out}", "--value", "1.5"], "--value"),
            (["baseline", "{out}", "--value", "nan"], "--value"),
        ],
    )
    def test_out_of_range_is_usage_error(self, capsys, tmp_path, argv, flag):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([a.format(out=out) for a in argv])
        assert exc.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["score", "baseline"])
    def test_bad_bucket_edges_are_a_usage_error(self, capsys, tmp_path, command):
        argv = [command, str(tmp_path / "dataset.jsonl")] + ([str(tmp_path / "p.jsonl")] if command == "score" else [])
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--buckets", "5,ten"])
        assert exc.value.code == 2
        assert "argument --buckets: expected comma-separated integers, got '5,ten'" in capsys.readouterr().err

    def test_zero_precision(self, capsys):
        code, out, _ = run(capsys, "--precision", "0", "wep", "--phrase", "almost certain")
        assert (code, out) == (0, "1\n")


class TestGlobalFlags:
    def test_flags_before_subcommand(self, capsys):
        code, out, _ = run(capsys, "--format", "machine", "validate", NET)
        assert code == 0
        assert machine(out)["valid"] is True

    def test_flags_after_subcommand_win(self, capsys):
        code, out, _ = run(capsys, "--precision", "2", "wep", "--phrase", "likely", "--precision", "4")
        assert code == 0
        assert out == "0.7000\n"

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_calls_share_no_parsed_state(self, capsys, monkeypatch):
        # the parser is built once per process; each call's output is the
        # one it gives as the first call of a fresh parser
        calls = [
            ("--seed", "5", "--precision", "3", "infer", NET, "--query", "gallstones=true",
             "--evidence", "flatulence=true", "--method", "elimination"),
            ("infer", NET, "--query", "gallstones=true"),
            ("--format", "machine", "classify", NET, "--query", "gallstones", "--evidence", "flatulence"),
            ("classify", NET, "--query", "gallstones"),
            ("infer", NET, "--query", "gallstones=true", "--evidence", "amylase=0-299"),
            ("infer", NET, "--query", "gallstones=true"),
        ]
        alone = []
        for argv in calls:
            bayesqa.cli._parser.cache_clear()
            alone.append(run(capsys, *argv))
        built = []
        build = bayesqa.cli.build_parser
        monkeypatch.setattr(bayesqa.cli, "build_parser", lambda: built.append(1) or build())
        bayesqa.cli._parser.cache_clear()
        assert [run(capsys, *argv) for argv in calls] == alone
        assert len(built) == 1
        assert alone[1] == alone[5] and alone[0] != alone[1] != alone[4]
        # a command is looked up when it runs, so a wrapper set after the
        # parser was built is the one called
        seen = []
        infer = bayesqa.cli.cmd_infer
        monkeypatch.setattr(bayesqa.cli, "cmd_infer", lambda args: seen.append(args.query) or infer(args))
        assert run(capsys, *calls[1]) == alone[1] and seen == [("gallstones", "true")]
