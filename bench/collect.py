#!/usr/bin/env python3
"""Summarise benchmark reports into a baseline file.

    python3 bench/collect.py WORKLOAD [--out bench/baseline/WORKLOAD.json]

Reads every untraced report of WORKLOAD under ``.bench_out/`` (one per
seed) and the traced report of the lowest seed, and prints, for each
end-to-end metric, the median and the quartile spread (Q3 - Q1 as a share
of the median) against the bound BENCHMARK.json gives it. With ``--out``
it also writes the summary, the environment stamp, the per-seed values
(scaled metrics, reference time, unscaled medians) and stdout digests, and
the traced layer table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    reports = [json.loads(p.read_text()) for p in
               sorted(OUT.glob(f"{args.workload}-seed*-trace0.json"))]
    reports.sort(key=lambda r: r["seed"])
    if len(reports) < 2:
        print(f"error: fewer than two reports for {args.workload} in {OUT}",
              file=sys.stderr)
        return 1
    summary = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in reports]
        summary[name] = dict(spread(values), bound=bound)
        print(f"{args.workload} {name}: median {summary[name]['median']:.4f} "
              f"spread {summary[name]['spread']:.3f} (bound {bound}, "
              f"a third {bound / 3:.3f})")
    derived = {name: statistics.median(r["derived"][name] for r in reports)
               for name in reports[0]["derived"]}
    failed = sum(r["failed"] for r in reports)
    attempted = sum(r["attempted"] for r in reports)
    print(f"{args.workload}: {len(reports)} runs, failed_ops_ratio "
          f"{failed}/{attempted}; derived medians {derived}")
    if args.out:
        traced = sorted(OUT.glob(f"{args.workload}-seed*-trace1.json"))
        trace = json.loads(traced[0].read_text()) if traced else None
        baseline = {
            "workload": args.workload, "env": reports[0]["env"],
            "sizes": reports[0]["sizes"], "ops": reports[0]["ops"],
            "seconds": reports[0]["seconds"], "summary": summary,
            "derived_medians": derived,
            "failed_ops_ratio": failed / attempted,
            "runs": [{"seed": r["seed"], "rounds": r["rounds"],
                      "metrics": {k: m["value"]
                                  for k, m in r["metrics"].items()},
                      "ref_s": r["ref_s"], "medians": r["medians"],
                      "derived": r["derived"], "digests": r["digests"]}
                     for r in reports],
        }
        if trace is not None:
            baseline["trace"] = {
                key: trace[key] for key in
                ("seed", "traced_rounds", "samples", "traced_samples",
                 "layers", "op_breakdown")}
            baseline["trace"]["metrics"] = {
                k: m["value"] for k, m in trace["metrics"].items()}
        Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
