"""Command-line interface.

Subcommands: validate, infer, solve, to-problog, from-problog, subset,
gen-dataset, wep, classify, score, baseline, stats. Global flags ``--seed``,
``--format human|machine`` and ``--precision`` may appear before or after the
subcommand.

Exit codes: 0 on success, 1 on domain errors (the message names the error
type) and, with no message, when the reader of stdout closes it early, 2 on
usage errors. No environment variables are consulted; behavior is
controlled by explicit flags only.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import metrics as mt
from . import netops
from .errors import BayesqaError, NetworkFormatError
from .inference import conditional_query, eliminate
from .model import load_network, network_to_json, read_input, read_network, validate
from .problog import (
    bn_to_problog,
    enumerate_worlds,
    evaluate,
    format_atom,
    parse,
    problog_to_bn,
    serialize,
)
from .wep import prob_to_wep, wep_to_prob

DEFAULT_SEED = 0
DEFAULT_PRECISION = 9
PROGRAM_FILE = re.compile(r"(.+)-\d+\.pl")  # <network name>-<instance number>.pl


def _fmt(value: float, args: argparse.Namespace) -> str:
    return f"{value:.{args.precision}f}"


def _emit(args: argparse.Namespace, human: list[str], machine: object) -> None:
    if args.format == "machine":
        print(json.dumps(machine, ensure_ascii=False))
    else:
        for line in human:
            print(line)


def _binding(text: str) -> tuple[str, str]:
    var, sep, state = text.partition("=")
    if not sep or not var or not state:
        raise argparse.ArgumentTypeError(f"expected VARIABLE=STATE, got {text!r}")
    return var, state


def _int_at_least(low: int):
    def convert(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")

    return convert


def _probability(text: str) -> float:
    try:
        if 0.0 <= float(text) <= 1.0:  # nan is refused too
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a probability in [0, 1], got {text!r}")


def _name(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("expected a non-empty name")
    return text


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    net = read_network(args.network, renormalize=args.renormalize)
    problems = validate(net)
    human = (
        [f"OK: {net.name} ({len(net.variables)} variables)"]
        if not problems
        else [str(p) for p in problems]
    )
    _emit(
        args,
        human,
        {
            "valid": not problems,
            "network": net.name,
            "violations": [
                {"kind": p.kind, "location": p.location, "message": p.message}
                for p in problems
            ],
        },
    )
    return 0 if not problems else 1


def cmd_infer(args: argparse.Namespace) -> int:
    net = load_network(args.network)
    qvar, qstate = args.query
    evidence = dict(args.evidence)
    engine = conditional_query if args.method == "enumeration" else eliminate
    result = engine(net, qvar, qstate, evidence)
    given = ", ".join(f"{v}={s}" for v, s in sorted(evidence.items()))
    label = f"P({qvar}={qstate}" + (f" | {given})" if given else ")")
    _emit(
        args,
        [f"{label} = {_fmt(result.probability, args)}"],
        {"probability": result.probability, "method": result.method},
    )
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    program = parse(read_input(args.program))
    if args.method == "worlds":
        answers = enumerate_worlds(program)
    else:
        answers = evaluate(program, method=args.method)
    human = [f"{format_atom(atom)}:\t{_fmt(p, args)}" for atom, p in answers.items()]
    _emit(
        args,
        human,
        {"results": [{"atom": format_atom(a), "probability": p} for a, p in answers.items()]},
    )
    return 0


def cmd_to_problog(args: argparse.Namespace) -> int:
    net = load_network(args.network)
    text = serialize(bn_to_problog(net, entity=args.entity))
    _write_or_print(text, args.out)
    return 0


def cmd_from_problog(args: argparse.Namespace) -> int:
    program = parse(read_input(args.program))
    net = problog_to_bn(program, name=args.name)
    _write_or_print(network_to_json(net), args.out)
    return 0


def cmd_subset(args: argparse.Namespace) -> int:
    net = load_network(args.network)
    sub = netops.subset(net, args.keep)
    _write_or_print(network_to_json(sub), args.out)
    return 0


def cmd_gen_dataset(args: argparse.Namespace) -> int:
    # every file is read before anything is generated; generate_dataset
    # validates each network, so they are read unchecked here
    networks = [read_network(path) for path in args.networks]
    seen: dict[str, str] = {}
    for path, net in zip(args.networks, networks):
        if net.name in seen:
            # instance ids and program file names start with the network name
            raise NetworkFormatError(
                f"network name {net.name!r} is used by both {seen[net.name]} and {path}"
            )
        if {"/", os.sep, "\0"} & set(net.name):
            # a program file's path would leave --out, or name no file at all
            raise NetworkFormatError(f"{path}: network name {net.name!r} holds a path separator or NUL")
        seen[net.name] = path
    # generate and encode (refusing an unwritable name) everything before
    # touching --out, so a failure leaves no files
    generated = []
    for k, (path, net) in enumerate(zip(args.networks, networks)):
        try:
            generated.append(
                ds.generate_dataset(net, args.count, args.seed, second_closest_prob=args.second_closest, stream=k)
            )
        except NetworkFormatError as exc:
            raise NetworkFormatError(f"{path}: {exc}") from None
    encoders = [ds.NetworkEncoder(net) for net in networks]
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    # a program of one of these networks that no new instance owns is stale
    names = {net.name for net in networks}
    owned = {f"{inst.id}.pl" for instances in generated for inst in instances}
    for path in outdir.iterdir():
        match = PROGRAM_FILE.fullmatch(path.name)
        if match and match.group(1) in names and path.name not in owned:
            path.unlink()
    kinds = ("numeric", "wep") if args.kind == "both" else (args.kind,)
    all_instances = []
    for encoder, instances in zip(encoders, generated):
        # every instance of one network carries the same premises tuple
        premises = ds.filter_premises(instances[0], kinds).premises
        for inst in instances:
            (outdir / f"{inst.id}.pl").write_text(encoder.text(inst), encoding="utf-8")
            all_instances.append(replace(inst, premises=premises))
    dataset_path = outdir / "dataset.jsonl"
    ds.save_dataset(all_instances, dataset_path)
    n = len(all_instances)  # one program file per instance
    _emit(
        args,
        [f"wrote {n} instance(s) to {dataset_path} (+{n} program files)"],
        {"instances": n, "dataset": str(dataset_path), "programs": n},
    )
    return 0


def cmd_wep(args: argparse.Namespace) -> int:
    if args.phrase is not None:
        anchor = wep_to_prob(args.phrase)
        _emit(args, [_fmt(anchor, args)], {"phrase": args.phrase, "anchor": anchor})
        return 0
    rng = np.random.default_rng(np.random.SeedSequence(entropy=args.seed))
    pick = prob_to_wep(args.prob, rng, second_closest_prob=args.second_closest)
    _emit(
        args,
        [pick.phrase],
        {
            "probability": args.prob,
            "phrase": pick.phrase,
            "used_second_closest": pick.used_second_closest,
        },
    )
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    net = load_network(args.network)
    types, primary = ds.classify_reasoning(net, args.evidence, args.query)
    human = [f"types: {', '.join(types) if types else '(none)'}", f"primary: {primary}"]
    _emit(args, human, {"reasoning_types": list(types), "primary_type": primary})
    return 0


def _report_lines(report: mt.MetricsReport, args: argparse.Namespace) -> list[str]:
    def line(label: str, b: mt.MetricsBlock) -> str:
        rmse_ne = _fmt(b.rmse_non_error, args) if b.rmse_non_error is not None else "n/a"
        return (
            f"{label}: n={b.n} correct={b.pct_correct:.1f}% wrong={b.pct_wrong:.1f}% "
            f"error={b.pct_error:.1f}% rmse50={_fmt(b.rmse_50, args)} rmse_nonerror={rmse_ne}"
        )

    out = [line("overall", report.overall)]
    for section, groups in (
        ("reasoning", report.by_reasoning),
        ("network", report.by_network),
        ("premises", report.by_premises),
    ):
        for key, block in groups.items():
            out.append(line(f"{section}[{key}]", block))
    return out


def _bucket_edges(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def cmd_score(args: argparse.Namespace) -> int:
    instances = ds.load_dataset(args.dataset)
    predictions = mt.load_predictions(args.predictions)
    report = mt.score(instances, predictions, bucket_edges=args.buckets)
    _emit(args, _report_lines(report, args), mt.report_to_dict(report))
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    instances = ds.load_dataset(args.dataset)
    predictions = mt.baseline_predictions(instances, value=args.value)
    if args.out:
        mt.save_predictions(predictions, args.out)
    report = mt.score(instances, predictions, bucket_edges=args.buckets)
    _emit(args, _report_lines(report, args), mt.report_to_dict(report))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    networks = [load_network(path) for path in args.networks]
    instances = ds.load_dataset(args.dataset) if args.dataset else []
    stats = ds.dataset_stats(networks, instances)
    fields = asdict(stats)
    human = [
        f"{name}: {_fmt(value, args) if isinstance(value, float) else value}"
        for name, value in fields.items()
    ]
    _emit(args, human, fields)
    return 0


# ---------------------------------------------------------------------------
# parser construction
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a subparser from overwriting a flag given before the
    # subcommand with its own default; a flag given after still wins.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="random seed (default 0)"
    )
    common.add_argument(
        "--format",
        choices=("human", "machine"),
        default=argparse.SUPPRESS,
        help="output format",
    )
    common.add_argument(
        "--precision",
        type=_int_at_least(0),
        default=argparse.SUPPRESS,
        help="decimal places for probabilities (default 9)",
    )

    parser = argparse.ArgumentParser(prog="bayesqa", parents=[common], description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common], help=help_text)

    p = add("validate", "check a network file against every invariant")
    p.add_argument("network")
    p.add_argument("--renormalize", action="store_true", help="rescale CPT rows before checking")

    p = add("infer", "conditional query against a network")
    p.add_argument("network")
    p.add_argument("--query", type=_binding, required=True, metavar="VAR=STATE")
    p.add_argument("--evidence", type=_binding, action="append", default=[], metavar="VAR=STATE")
    p.add_argument("--method", choices=("enumeration", "elimination"), default="enumeration")

    p = add("solve", "answer the queries of a program file")
    p.add_argument("program")
    p.add_argument(
        "--method", choices=("enumeration", "elimination", "worlds"), default="enumeration"
    )

    p = add("to-problog", "encode a network as a program")
    p.add_argument("network")
    p.add_argument("--entity", default=None, help="entity constant (default: network metadata)")
    p.add_argument("-o", "--out", default=None)

    p = add("from-problog", "decode a program into a network file")
    p.add_argument("program")
    p.add_argument("--name", type=_name, default="program")
    p.add_argument("-o", "--out", default=None)

    p = add("subset", "extract a subnetwork, marginalizing removed variables")
    p.add_argument("network")
    p.add_argument("--keep", action="append", required=True, metavar="VAR")
    p.add_argument("-o", "--out", default=None)

    p = add("gen-dataset", "generate benchmark instances + program files")
    p.add_argument("networks", nargs="+")
    p.add_argument("--count", type=_int_at_least(1), required=True)
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--kind", choices=("numeric", "wep", "both"), default="both")
    p.add_argument("--second-closest", type=_probability, default=0.1)

    p = add("wep", "map a probability to a phrase or back")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--prob", type=_probability)
    group.add_argument("--phrase")
    p.add_argument("--second-closest", type=_probability, default=0.1)

    p = add("classify", "reasoning type(s) of a query/evidence pattern")
    p.add_argument("network")
    p.add_argument("--query", required=True, metavar="VAR")
    p.add_argument("--evidence", action="append", default=[], metavar="VAR")

    p = add("score", "score predictions against dataset golds")
    p.add_argument("dataset")
    p.add_argument("predictions")
    p.add_argument("--buckets", type=_bucket_edges, default=None, help="premise-count bucket edges, e.g. 5,10,20")

    p = add("baseline", "score the constant-0.5 baseline")
    p.add_argument("dataset")
    p.add_argument("--value", type=_probability, default=0.5)
    p.add_argument("-o", "--out", default=None, help="also write the predictions here")
    p.add_argument("--buckets", type=_bucket_edges, default=None)

    p = add("stats", "corpus statistics for network files (+ optional dataset)")
    p.add_argument("networks", nargs="+")
    p.add_argument("--dataset", default=None)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: building it costs milliseconds, and parsing
    leaves it unchanged, so every :func:`main` call shares it."""

    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    args.seed = getattr(args, "seed", DEFAULT_SEED)
    args.format = getattr(args, "format", "human")
    args.precision = getattr(args, "precision", DEFAULT_PRECISION)

    if args.command == "infer":
        evidence_vars = [var for var, _ in args.evidence]
        for var in evidence_vars:
            if evidence_vars.count(var) > 1:
                parser.error(f"--evidence names variable {var!r} more than once")

    try:
        # looked up when the command runs: the parser outlives a call, and a
        # wrapper set on the module attribute later must be the one called
        code = globals()["cmd_" + args.command.replace("-", "_")](args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout closed it early (``| head``): exit 1 quietly,
        # with stdout on devnull so the interpreter's last flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (BayesqaError, OSError, ValueError) as exc:  # OSError: writing an output file
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
