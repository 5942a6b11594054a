#!/usr/bin/env python3
"""Smoke test of the benchmark at seed size; takes about half a minute.

    python3 bench/selftest.py

Checks that the scale-up generator reproduces the fixed triple counts at
seed 0, that every workload emits exactly the metrics BENCHMARK.json
names (untraced and traced) with no failed operation, that a stdout digest
other than the expected one counts as a failed operation, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import run  # noqa: E402
from workloads import SEED0_TRIPLES, WORKLOADS, Sizes, scaled_kg  # noqa: E402

SMALL = Sizes(m_genes=20, l_genes=20, train_sentences=200, train_epochs=2,
              ingest_sentences=100, explain_sentences=20)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    check(per_layer == layertrace.per_layer_names(),
          "BENCHMARK.json lists the per-layer metrics the tracer emits")
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json lists the workloads the benchmark defines")

    for genes, triples in SEED0_TRIPLES.items():
        check(len(scaled_kg(genes, 0)) == triples,
              f"scale-up to {genes} genes at seed 0 gives {triples} triples")

    for name in WORKLOADS:
        report = run.run(name, seed=3, seconds=0, trace=False, sizes=SMALL)
        check(report["correct"] and report["attempted"] > 0,
              f"{name}: {report['attempted']} ops, none failed "
              f"{report['errors']}")
        check(list(report["metrics"]) == end_to_end,
              f"{name}: emits every end-to-end metric")
        check(all(m["value"] > 0 for m in report["metrics"].values()),
              f"{name}: every end-to-end metric is above 0")
        traced = run.run(name, seed=3, seconds=0, trace=True, sizes=SMALL)
        check(traced["correct"] and list(traced["metrics"]) == per_layer,
              f"{name}: traced run emits every per-layer metric")

        first_op = report["ops"][0]
        wrong = dict(report["digests"], **{first_op: "0" * 64})
        perturbed = run.run(name, seed=3, seconds=0, trace=False,
                            sizes=SMALL, expected=wrong)
        check(not perturbed["correct"] and perturbed["failed"]
              == len(perturbed["samples"][first_op]),
              f"{name}: a perturbed {first_op} digest counts as failed ops")

    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload",
             spec["workloads"][0]["name"], "--seed", "0", "--seconds", "1",
             "--trace", "0"], cwd=bare, capture_output=True, text=True,
            timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0 and not done.stdout,
          "without src/ the benchmark exits non-zero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
