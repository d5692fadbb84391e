"""Build one workload's input files from a seed, untimed, in its own process.

Run by ``run.py`` before it measures anything, so that neither the input
generation nor the reference computations count towards the measuring
process's time or peak memory::

    python3 qabench/prepare.py --workload infer-ladder --seed 1 --out DIR

It writes the networks (and, for ``solve-eval``, the programs and
``dataset.jsonl``) under ``DIR`` plus ``DIR/manifest.json``, which lists the
operations of one round together with the reference answer of each.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import sys
import warnings
from pathlib import Path

import numpy as np

import inputs
import reference

ROOT = Path(__file__).resolve().parent.parent
GALLSTONES = ROOT / "tests" / "data" / "gallstones.json"

# Full-precision CPTs from netops.subset: 5 of the 10 variables of a fixed
# source network. Its inputs never depend on --seed, because each of its
# programs fails the same way on every run (see run.py, FAULTS).
SUBSET_SOURCE = 10
SUBSET_KEEP = 5

# Sizes are bands of inputs.program_size (about the median of random draws,
# +-4%) so that every seed gets inputs of about the same cost.

# gen-corpus: size class -> (networks, variables, program-size band, cap on
# the predicted elimination entries). Gallstones and the subset network are
# in the corpus too, in a class of their own that no latency metric reads.
CORPUS = {
    "small": (5, 8, (249, 270), 500),
    "mid": (5, 16, (642, 696), 2_000),
    "large": (5, 28, (1_223, 1_324), 9_000),
}
CORPUS_COUNT = 12  # instances per gen-dataset call
CORPUS_ZERO_ROWS = 0.05  # share of child rows with one zero entry

# solve-eval: size class -> (networks, variables, joint-state band,
# program-size band, programs per network)
SOLVE = {
    "mid": (3, 7, (1_500, 2_500), (200, 217), 20),
    "large": (3, 10, (3_000, 5_000), (250, 280), 20),
}
SOLVE_GALLSTONES = 30
SOLVE_SUBSET = 2
SUBSET_INSTANCE_SEED = 0

CLIFF_STRUCTURE_SEED = 0

# infer-ladder: rung -> (networks, variables, query groups per network, max
# evidence variables, program-size band, elimination-entry band, largest-table
# band); every cliff network's largest table has 3**13 entries (12.2 MB)
LADDER = {
    "small": (6, 16, 4, 4, (731, 792), (600, 1_500), (0, 729)),
    "mid": (4, 40, 3, 5, (2_018, 2_187), (15_000, 40_000), (0, 6_561)),
    "cliff": (5, 76, 1, 4, (3_928, 4_255), (4_750_000, 5_250_000), (3**13, 3**13)),
}


def seed_rng(seed: int, *purpose: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=purpose))


def write(out: Path, name: str, doc: dict) -> str:
    rel = f"networks/{name}.json"
    inputs.write_doc(doc, out / rel)
    return rel


def subset_network(out: Path) -> str:
    """Derive the full-precision network with the package's ``netops.subset``.

    The search over source seeds is fixed, not drawn from --seed: it takes the
    first source whose subset has a row of three or more states whose
    probabilities, each rounded to six decimals, sum more than 1e-6 away from 1.
    """

    from bayesqa.model import network_from_dict, save_network
    from bayesqa.netops import subset

    for source_seed in range(1000):
        rng = np.random.default_rng(source_seed)
        s = inputs.random_structure(rng, SUBSET_SOURCE, states=(2, 4))
        net = network_from_dict(inputs.network_doc(rng, s, "subset"))
        keep = [s.order[int(i)] for i in rng.choice(SUBSET_SOURCE, size=SUBSET_KEEP, replace=False)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sub = subset(net, keep)
        if any(
            len(row) > 2 and abs(sum(round(p, 6) for p in row) - 1.0) > 1e-6
            for cpt in sub.cpts.values()
            for row in cpt.rows.values()
        ):
            rel = "networks/subset.json"
            save_network(sub, out / rel)
            return rel
    raise RuntimeError("no source network gives a subset that rounds off the grid")


def copy_gallstones(out: Path) -> str:
    rel = "networks/gallstones.json"
    shutil.copyfile(GALLSTONES, out / rel)
    return rel


def instance_reference(net: reference.RefNetwork, instance: dict) -> dict:
    """Reference answer and reasoning labels for one dataset record."""

    evidence = {e["variable"]: e["state"] for e in instance["evidence"]}
    query = instance["question"]["variable"]
    post = reference.posterior(net, query, evidence)
    labels, primary = reference.reasoning_labels(net, set(evidence), query)
    return {
        "posterior": post.tolist(),
        "state": net.states[query].index(instance["question"]["state"]),
        "labels": labels,
        "primary": primary,
    }


def digest(directory: Path) -> dict[str, str]:
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(directory.iterdir())
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def prepare_gen_corpus(seed: int, out: Path) -> dict:
    """The networks of each size class, and one generation of each by the package."""

    from bayesqa.cli import main as cli_main

    calls = [{"class": "fixed", "networks": [{"path": copy_gallstones(out)}, {"path": subset_network(out)}]}]
    for c, (cls, (count, n, size, cap)) in enumerate(CORPUS.items()):
        nets = []
        for j in range(count):
            rng = seed_rng(seed, 1, c, j)
            s = inputs.banded_structure(rng, n, states=(2, 4), size=size, entries=(0, cap))
            name = f"{cls}{j}"
            nets.append({"path": write(out, name, inputs.network_doc(rng, s, name, zero_row_share=CORPUS_ZERO_ROWS))})
        calls.append({"class": cls, "networks": nets})

    # The measuring process checks its own outputs byte for byte against this
    # generation, made in another process, and every gold against the reference.
    for net in (net for call in calls for net in call["networks"]):
        target = out / "expected"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["gen-dataset", str(out / net["path"]), "--count", str(CORPUS_COUNT),
                             "--seed", str(seed), "--out", str(target)])
        if code != 0:
            raise RuntimeError(f"gen-dataset failed on {net['path']}")
        ref_net = reference.load(out / net["path"])
        records = [json.loads(line) for line in (target / "dataset.jsonl").read_text().splitlines()]
        net["digest"] = digest(target)
        net["instances"] = len(records)
        net["reference"] = {r["id"]: instance_reference(ref_net, r) for r in records}
        shutil.rmtree(target)
    return {"count": CORPUS_COUNT, "gen_seed": seed, "calls": calls}


def prepare_solve_eval(seed: int, out: Path) -> dict:
    from bayesqa.dataset import generate_dataset, instance_program, save_dataset
    from bayesqa.model import load_network
    from bayesqa.problog.syntax import serialize

    plan = [(copy_gallstones(out), "small", SOLVE_GALLSTONES, seed)]
    for g, (cls, (count, n, joint, size, per_net)) in enumerate(SOLVE.items()):
        for j in range(count):
            rng = seed_rng(seed, 2, g, j)
            s = inputs.banded_structure(rng, n, states=(2, 4), joint=joint, size=size)
            name = f"{cls}{j}"
            plan.append((write(out, name, inputs.network_doc(rng, s, name)), cls, per_net, seed))
    plan.append((subset_network(out), "subset", SOLVE_SUBSET, SUBSET_INSTANCE_SEED))

    (out / "programs").mkdir()
    instances = []
    programs = []
    for k, (rel, cls, count, gen_seed) in enumerate(plan):
        net = load_network(out / rel)
        ref_net = reference.load(out / rel)
        for inst in generate_dataset(net, count, gen_seed, stream=k):
            path = f"programs/{inst.id}.pl"
            (out / path).write_text(serialize(instance_program(net, inst)), encoding="utf-8")
            instances.append(inst)
            record = {
                "evidence": [{"variable": b.variable, "state": b.state} for b in inst.evidence],
                "question": {"variable": inst.question.variable, "state": inst.question.state},
            }
            programs.append({"id": inst.id, "path": path, "class": cls, **instance_reference(ref_net, record)})
    save_dataset(instances, out / "dataset.jsonl")
    return {"networks": [rel for rel, *_ in plan], "dataset": "dataset.jsonl", "programs": programs}


def prepare_infer_ladder(seed: int, out: Path) -> dict:
    nets = []
    queries = []
    for r, (rung, (count, n, groups, max_ev, size, band, largest)) in enumerate(LADDER.items()):
        for j in range(count):
            # The cliff's cost hangs on its structure far more than the band can
            # pin down, so its structures are the same for every seed; the seed
            # still draws its CPTs and queries.
            structure_seed = CLIFF_STRUCTURE_SEED if rung == "cliff" else seed
            s = inputs.banded_structure(seed_rng(structure_seed, 3, r, j), n, states=(3, 3), size=size,
                                        entries=band, largest=largest)
            rng = seed_rng(seed, 4, r, j)
            doc = inputs.network_doc(rng, s, f"{rung}{j}")
            rel = write(out, f"{rung}{j}", doc)
            nets.append({"path": rel, "rung": rung})
            ref_net = reference.from_doc(doc)
            for g in range(groups):
                # the cliff always asks about its last variable, whose cost was banded
                q = s.order[-1] if rung == "cliff" else s.order[int(rng.integers(n))]
                evidence = inputs.random_evidence(rng, s, q, max_ev)
                post = reference.posterior(ref_net, q, evidence)
                queries.append(
                    {"network": rel, "rung": rung, "query": q, "states": ref_net.states[q],
                     "evidence": evidence, "posterior": dict(zip(ref_net.states[q], post.tolist()))}
                )

    doc = inputs.chain_doc()
    rel = write(out, "chain", doc)
    nets.append({"path": rel, "rung": "chain"})
    q, evidence = inputs.chain_query()
    ref_net = reference.from_doc(doc)
    post = reference.chain_posterior(ref_net, [v["id"] for v in doc["variables"]], evidence)
    queries.append(
        {"network": rel, "rung": "chain", "query": q, "states": ["true"],
         "evidence": evidence, "posterior": dict(zip(ref_net.states[q], post.tolist()))}
    )
    return {"networks": nets, "queries": queries}


PREPARE = {
    "gen-corpus": prepare_gen_corpus,
    "solve-eval": prepare_solve_eval,
    "infer-ladder": prepare_infer_ladder,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(PREPARE), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    (args.out / "networks").mkdir(parents=True)
    manifest = PREPARE[args.workload](args.seed, args.out)
    manifest["workload"] = args.workload
    manifest["seed"] = args.seed
    (args.out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
