"""Run one benchmark workload and print its metrics as one JSON line.

    python3 qabench/run.py --workload infer-ladder --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout: the package is imported from ``src/``
and the gallstones example from ``tests/data/``. The workload's inputs are
built from ``--seed`` in a separate process (``prepare.py``); this process
then times the package's loaders (``setup_s``: before the first round and
after every round, median), runs whole rounds of the same operations for
``--seconds`` seconds, one operation at a time, and checks every output
against the reference answers.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A traced run also writes its spans, its per-layer metrics and
its own end-to-end metrics to ``.qabench/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import os

# One thread per process, whatever numpy links against.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".qabench"
REQUIRED = (ROOT / "src" / "bayesqa" / "__init__.py", ROOT / "tests" / "data" / "gallstones.json")

PREPARE_TIMEOUT_S = 120
CLASSES = ("small", "mid", "large")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one bayesqa benchmark workload.")
    parser.add_argument("--workload", required=True, choices=("gen-corpus", "solve-eval", "infer-ladder"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare(workload: str, seed: int, work: Path) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "prepare.py"), "--workload", workload, "--seed", str(seed), "--out", str(work)],
        check=True,
        timeout=PREPARE_TIMEOUT_S,
    )
    return json.loads((work / "manifest.json").read_text(encoding="utf-8"))


def end_to_end(cal, setups: list, rounds: list) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, every time scaled to the reference speed."""

    def scaled(ops) -> list[float]:
        return [sum(cal.scale(start, end) for start, end in op.parts) for op in ops]

    ops = [op for r in rounds for op in r.ops]
    busy = sum(scaled(ops)) + sum(scaled([op for r in rounds for op in r.extra]))
    metrics = {
        "setup_s": (statistics.median(scaled(setups)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "items_per_s": (sum(r.items for r in rounds) / busy, "1/s"),
    }
    for cls in CLASSES:
        times = scaled([op for op in ops if op.label == cls and not op.failed])
        metrics[f"op_p50_ms.{cls}"] = (1000.0 * statistics.median(times), "ms")
    return metrics


def measure(args: argparse.Namespace, work: Path) -> dict:
    import calibration
    import tracing
    import workloads

    manifest = prepare(args.workload, args.seed, work)
    cal = calibration.Calibrator()
    tracer = tracing.Tracer() if args.trace else None
    restore = tracing.install(tracer) if tracer else None
    try:
        workload = workloads.WORKLOADS[args.workload](work, manifest, cal, tracer)
        setups: list[workloads.Op] = []

        def timed_setup() -> None:
            workload.inputs = {}  # free the last set-up's objects before timing the next
            gc.collect()
            if tracer:
                tracer.phase = "setup"
            t0 = time.perf_counter()
            workload.setup()
            setups.append(workloads.Op("setup", False, [(t0, time.perf_counter())]))
            cal.sample()
            if tracer:
                tracer.phase = "ops"

        # Set-up runs before the first round and again after every round, so
        # that its median samples the whole run rather than one moment of it.
        timed_setup()
        rounds = []
        problems: list[str] = []
        deadline = time.perf_counter() + args.seconds
        while not rounds or time.perf_counter() < deadline:
            gc.collect()  # every round starts from the same collector state
            result = workload.run_round()
            problems += workload.check(len(rounds))
            rounds.append(result)
            timed_setup()
        problems += workload.problems
    finally:
        if restore:
            restore()

    metrics = end_to_end(cal, setups, rounds)
    if tracer:
        layers = tracing.layer_metrics(tracer, rounds=len(rounds), setups=len(setups))
        write_trace(args, tracer, layers, metrics)
        metrics = layers
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    ops = [op for r in rounds for op in r.ops]
    return {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def write_trace(args: argparse.Namespace, tracer, layers: dict, traced_e2e: dict) -> None:
    OUT.mkdir(exist_ok=True)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "end_to_end_traced": {k: {"value": v, "unit": u} for k, (v, u) in traced_e2e.items()},
        "spans": [
            {"id": s.id, "name": s.name, "parent": s.parent, "phase": s.phase, "tag": s.tag,
             "start": s.start, "end": s.end, "count": s.count}
            for s in tracer.spans
        ],
    }
    path = OUT / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: run from a bayesqa source checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
