"""Repeat benchmark runs and summarise them.

    python3 qabench/report.py spread --workload infer-ladder --seeds 1-10
    python3 qabench/report.py overhead --workload solve-eval --seed 1

``spread`` runs ``run.py`` once per seed and prints, for each end-to-end
metric, the median, the quartiles (``statistics.quantiles(values, n=4)``) and
their distance as a share of the median, next to the metric's bound from
``BENCHMARK.json``; it also prints the failed share of every run. ``overhead``
runs one seed untraced and traced and prints the traced run's end-to-end
metrics minus the untraced ones. Raw results go to ``.qabench/`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".qabench"


def config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, seed: int, trace: int) -> dict:
    cfg = config()
    cmd = cfg["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(cfg["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(done.stdout.strip().splitlines()[-1])


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(args: argparse.Namespace) -> int:
    bounds = {m["name"]: m for m in config()["end_to_end"]}
    results = []
    for seed in seeds_of(args.seeds):
        r = run(args.workload, seed, 0)
        results.append(r)
        print(f"seed {seed}: correct={r['correct']} failed={r['failed']}/{r['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)
    OUT.mkdir(exist_ok=True)
    (OUT / f"spread-{args.workload}-{args.seeds}.json").write_text(json.dumps(results) + "\n")
    print(f"{'metric':20} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8} {'bound':>6}")
    for name, spec in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"{name:20} {med:10.4g} {q1:10.4g} {q3:10.4g} {(q3 - q1) / med:8.3f} {spec['bound']:6}")
    shares = sorted({(r["failed"] / r["attempted"]) for r in results})
    print(f"failed shares: {shares}; all correct: {all(r['correct'] for r in results)}")
    return 0


def overhead(args: argparse.Namespace) -> int:
    plain = run(args.workload, args.seed, 0)["metrics"]
    run(args.workload, args.seed, 1)
    trace = json.loads((OUT / f"trace-{args.workload}-{args.seed}.json").read_text())
    traced = trace["end_to_end_traced"]
    print(f"{'metric':20} {'untraced':>10} {'traced':>10} {'difference':>11}")
    for name, v in plain.items():
        t = traced[name]["value"]
        print(f"{name:20} {v['value']:10.4g} {t:10.4g} {t - v['value']:+11.4g}  ({(t / v['value'] - 1):+.1%})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Repeat benchmark runs and summarise them.")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.set_defaults(func=spread)
    p = sub.add_parser("overhead")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=overhead)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
