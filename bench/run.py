#!/usr/bin/env python3
"""The onokg benchmark.

    python3 bench/run.py --workload query-M --seed 0 --seconds 30 --trace 0

Run from the root of a checkout: it imports the program from ``src/``.
It sets up the workload's inputs from the seed (repeatedly, timed), then
runs rounds of the workload's operations back to back for at most about
``--seconds`` (at least two rounds), and checks every output.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones: medians over the run of times scaled to a reference
machine speed (see `workloads.SpeedGauge`); with ``--trace 1`` the first
round runs untraced and the later rounds traced, and the metrics are
per-layer values per traced round, with the tracing overhead. The full
report, with the environment stamp, stdout digests, derived metrics and,
when traced, the per-operation layer breakdown and spans, goes to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
# Set-up runs at least this often and for at least this long; its time is
# the median, so a short set-up is repeated until it is steady.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
# A run makes at least MIN_ROUNDS rounds, so every operation has at least
# two samples (when traced: one untraced round, then traced ones). It
# starts another only while the slowest round so far still fits in
# --seconds, so a slower machine gets fewer rounds, not a longer run.
MIN_ROUNDS = 2


def environment() -> dict:
    import numpy
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "git_sha": git_sha(),
            "src_lines": src_lines}


def git_sha():
    """HEAD of the checkout, read without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def expected_digests(workload: str, seed: int) -> dict:
    table = json.loads(EXPECTED.read_text()).get(workload, {})
    return {**table.get("any", {}), **table.get(str(seed), {})}


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes=None, expected=None) -> dict:
    """Set up, measure and check one workload; returns the full report."""
    from layertrace import Tracer, layer_metrics
    from workloads import REF_NOMINAL_S, WORKLOADS, Ops, Sizes, SpeedGauge

    if sizes is None:
        sizes = Sizes()
        if expected is None:
            expected = expected_digests(workload, seed)
    work = OUT / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    home = os.getcwd()
    os.chdir(work)
    gauge = SpeedGauge()
    tracer = Tracer() if trace else None
    try:
        gauge.start()
        wl = WORKLOADS[workload](seed, sizes)
        ops = Ops(expected)
        setups = []
        while len(setups) < SETUP_REPEATS \
                or sum(gauge.busy(*s) for s in setups) < SETUP_SECONDS:
            start = time.perf_counter()
            wl.setup()
            setups.append((start, time.perf_counter()))
        untraced = {op: [] for op in wl.ops}
        traced = {op: [] for op in wl.ops}
        round_times: list[float] = []
        traced_rounds = 0
        start = time.perf_counter()
        while len(round_times) < MIN_ROUNDS or time.perf_counter() - start \
                + max(round_times) <= seconds:
            if trace and len(round_times) == 1:
                gauge.stop()
                tracer.install()
                ops.tracer = tracer
            intervals = traced if ops.tracer else untraced
            round_start = time.perf_counter()
            for op, spans in wl.round(ops).items():
                intervals[op] += spans
            round_times.append(time.perf_counter() - round_start)
            traced_rounds += ops.tracer is not None
    finally:
        gauge.stop()
        if tracer is not None:
            tracer.uninstall()
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)

    samples = {op: [gauge.busy(*i) for i in spans]
               for op, spans in untraced.items()}
    scaled = {op: [gauge.scaled(*i) for i in spans]
              for op, spans in untraced.items()}
    medians = {op: statistics.median(times) for op, times in samples.items()}
    setup_scaled = [gauge.scaled(*i) for i in setups]
    report = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "env": environment(), "sizes": vars(sizes),
        "ops": list(wl.ops), "rounds": len(round_times),
        "setup_s_samples": [gauge.busy(*i) for i in setups],
        "setup_s_scaled": setup_scaled, "samples": samples,
        "scaled": scaled, "medians": medians,
        "derived": wl.derived(medians),
        "correct": ops.failed == 0, "attempted": ops.attempted,
        "failed": ops.failed, "failed_ops_ratio": ops.failed / ops.attempted,
        "errors": ops.errors, "digests": ops.digests,
        "ref_nominal_s": REF_NOMINAL_S,
        "ref_s": statistics.median(s for _at, s in gauge.readings),
        "ref_count": len(gauge.readings),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    if trace:
        traced_s = {op: [end - start for start, end in spans]
                    for op, spans in traced.items()}
        metrics, breakdown = layer_metrics(tracer, traced_rounds, wl.ops,
                                           samples, traced_s)
        report.update(traced_rounds=traced_rounds, traced_samples=traced_s,
                      layers=tracer.layer_table(traced_rounds),
                      op_breakdown=breakdown, spans=tracer.spans)
    else:
        metrics = {"setup_s": {"value": statistics.median(setup_scaled),
                               "unit": "s"}}
        for n, op in enumerate(wl.ops, start=1):
            metrics[f"op{n}_s"] = {"value": statistics.median(scaled[op]),
                                   "unit": "s"}
        metrics["peak_rss_mb"] = {"value": report["peak_rss_mb"],
                                  "unit": "MB"}
    report["metrics"] = metrics
    return report


def summary(report: dict) -> str:
    lines = [f"{report['workload']} seed {report['seed']}: "
             f"{report['rounds']} rounds, {report['attempted']} ops, "
             f"{report['failed']} failed "
             f"(failed_ops_ratio {report['failed_ops_ratio']:.4f})"]
    lines += [f"  {name}: {value:.4f}"
              for name, value in report["derived"].items()]
    if report["trace"]:
        for op, part in report["op_breakdown"].items():
            top = ", ".join(f"{name} {s:.3f}"
                            for name, s in list(part["self_s"].items())[:4])
            lines.append(f"  {op}: {part['s']:.3f} s traced, "
                         f"{part['covered_share']:.1%} in layers ({top})")
    lines += [f"  error: {e}" for e in report["errors"]]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "onokg" / "cli.py").is_file():
        print(f"error: no onokg sources under {SRC}; run the benchmark "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    # The benchmark is one client on one thread; OpenBLAS would otherwise
    # start a worker thread per core.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")
    print(summary(report), file=sys.stderr)
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
