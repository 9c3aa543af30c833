#!/usr/bin/env python3
"""pfsensor benchmark: time to a plan or a validation verdict, set-up time and
peak memory of the real CLI path, with a traced mode for per-layer spans.

    python3 perfbench/run.py --workload fine --seed 0 --seconds 45 --trace 0

One process runs one workload as a single closed-loop client: it calls
`pfsensor.cli.main` once per command of the workload's sequence, checks each
command's output, and starts the next sequence only after the last one ends,
until --seconds have passed (at least one sequence). An untraced run first
times set-up in fresh interpreters, and every run makes one untimed sequence
on a tiny grid before the first timed one. The last line of stdout is one
JSON object: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. A traced run alternates untraced and traced sequences, so it
also reports the tracing overhead and checks that tracing leaves plan.json
unchanged.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

# One worker means one core. Left at its default, OpenBLAS starts a thread per
# core and, after each BLAS call (np.linalg.norm in validate), lets them spin
# on the other core: validate on `fine` then burns 1.4x its wall time in CPU
# and its wall time varies with whatever else that core runs. Set before
# numpy loads, here and in the set-up probes, which inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from spans import Tracer  # noqa: E402  (imports numpy)
from workloads import DEFAULT_SEED, WARMUP, WORKLOADS, Workload, config_text  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_RUNS = 5

# import of the package (numpy and scipy with it) plus a config parse, timed
# inside a fresh interpreter
PROBE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import pfsensor.cli
from pfsensor.config import parse_config
parse_config(sys.argv[2])
print(time.perf_counter() - start)
"""

E2E_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

# span names whose total time per sequence is a per-layer metric ("<name>_s")
SPAN_TOTALS = (
    "cli.build",
    "cli.place",
    "cli.validate",
    "tracking.tracking_matrix",
    "tracking.threshold",
    "tracking.apply_constraints",
    "tracking.volumetric_scale",
    "placement.place_sensors",
    "placement.coverage_vector",
    "flowfield.save_scalar_field",
    "flowfield.save_field",
    "flowfield.synth_recirculating",
    "markov.build_markov",
    "markov.save_markov",
    "markov.load_markov",
    "markov.propagate",
    "pde.compare_transport",
    "pde.solve_pde",
    "uncertainty.quadrature_rule",
    "config.parse_config",
)
# span names whose self time is a per-layer metric ("<name>_self_s")
SPAN_SELF = ("pipeline.run_build", "pipeline.run_place", "pipeline.run_validate")
COUNTS = (
    "tracking.q_nnz",
    "tracking.pairs",
    "tracking.borderline_pairs",
    "placement.sensors",
    "markov.nnz",
)
LAYER_UNITS = {
    **{f"{name}_s": "s" for name in SPAN_TOTALS},
    **{f"{name}_self_s": "s" for name in SPAN_SELF},
    **{name: "count" for name in COUNTS},
    "tracking.keep_ratio": "ratio",
    "io.bytes_written": "bytes",
    "io.files_written": "count",
    "trace.overhead_s": "s",
}


@dataclass
class Sequence:
    """One pass through a workload's commands."""

    run_s: float
    attempted: int
    failed: int
    plan_sha256: str | None
    bytes_written: int
    files_written: int
    tracer: Tracer | None


def plan_problem(plan: dict) -> str | None:
    """Invariants any greedy coverage plan satisfies, whatever the seed."""
    sensors = plan["sensors"]
    settings = plan["settings"]
    states = [s["state"] for s in sensors]
    marginals = [s["expected_marginal"] for s in sensors]
    total = plan["cumulative_expected_coverage"]
    if not sensors:
        return "no sensors placed"
    if len(set(states)) != len(states):
        return "a state was placed twice"
    if set(states) & set(settings["forbidden_states"]):
        return "a sensor sits in a forbidden state"
    if any(b > a + 1e-12 for a, b in zip(marginals, marginals[1:])):
        return "marginal coverage grows between greedy rounds"
    if abs(sum(marginals) - total) > 1e-9 or not 0.0 < total <= 1.0 + 1e-9:
        return f"cumulative coverage {total} does not match its marginals"
    if abs(sum(settings["weights"]) - 1.0) > 1e-9:
        return "scenario weights do not sum to 1"
    if not plan["truncated"]:
        if settings["k"] is not None and len(sensors) != settings["k"]:
            return f"{len(sensors)} sensors placed, {settings['k']} asked"
        if settings["min_coverage"] is not None and total < settings["min_coverage"]:
            return f"coverage {total} below the {settings['min_coverage']} target"
    return None


def output_problem(command: str, code, out: Path, expected_plan: str | None):
    """(problem or None, plan hash or None) for one finished command."""
    if code != 0:
        return f"exit code {code}", None
    if command == "place":
        raw = (out / "plan.json").read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        if expected_plan is not None and digest != expected_plan:
            return f"plan.json sha256 {digest} != {expected_plan}", digest
        return plan_problem(json.loads(raw)), digest
    if command == "validate":
        rows = json.loads((out / "validation.json").read_text())
        if not rows or not all(row["ok"] for row in rows):
            return "a scenario failed validation", None
    return None, None


def run_sequence(
    cli, workload: Workload, seed: int, directory: Path, expected_plan, tracer=None
) -> Sequence:
    out = directory / "out"
    config = directory / "run.cfg"
    directory.mkdir(parents=True)
    config.write_text(config_text(workload, seed, out))
    gc.collect()
    run_s = 0.0
    failed = 0
    plan = None
    for command in workload.commands:
        span = tracer.span(f"cli.{command}") if tracer else nullcontext()
        start = time.perf_counter()
        try:
            with redirect_stdout(io.StringIO()), span:
                code = cli.main([command, "--config", str(config)])
        except Exception:  # a crash is one failed operation, not the end of the run
            traceback.print_exc()
            code = None
        run_s += time.perf_counter() - start
        try:
            problem, digest = output_problem(command, code, out, expected_plan)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem, digest = f"unreadable output: {exc!r}", None
        plan = digest or plan
        if problem is not None:
            failed += 1
            print(f"{workload.name}: {command} failed: {problem}", file=sys.stderr)
    files = [p for p in out.rglob("*") if p.is_file()]
    return Sequence(
        run_s=run_s,
        attempted=len(workload.commands),
        failed=failed,
        plan_sha256=plan,
        bytes_written=sum(p.stat().st_size for p in files),
        files_written=len(files),
        tracer=tracer,
    )


def setup_times(workload: Workload, seed: int, work: Path, runs: int) -> list[float]:
    config = work / "setup.cfg"
    config.write_text(config_text(workload, seed, work / "setup-out"))
    times = []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-c", PROBE, str(SRC), str(config)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def measure(cli, workload: Workload, seed: int, seconds: float, trace: bool, work: Path):
    """Sequences until `seconds` have passed; with trace, untraced/traced pairs
    in alternating order."""
    expected_plan = workload.plan_sha256 if seed == DEFAULT_SEED else None
    # a small untimed sequence first, so lazy imports and first-call set-up
    # inside numpy, scipy and pfsensor stay out of the first timed sequence
    run_sequence(cli, WARMUP, seed, work / "warmup", None)
    shutil.rmtree(work / "warmup")
    sequences: list[Sequence] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        modes = [False, True] if trace else [False]
        if rounds % 2:
            modes.reverse()
        for traced in modes:
            directory = work / f"seq-{len(sequences)}"
            tracer = Tracer() if traced else None
            with tracer.installed() if tracer else nullcontext():
                seq = run_sequence(cli, workload, seed, directory, expected_plan, tracer)
            shutil.rmtree(directory)
            # without a pinned hash, the first plan pins every later one
            expected_plan = expected_plan or seq.plan_sha256
            sequences.append(seq)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return sequences


def layer_metrics(seq: Sequence) -> dict[str, float]:
    totals = seq.tracer.totals()
    counts = seq.tracer.counts
    metrics = {f"{name}_s": totals.get(name, (0.0, 0.0, 0))[0] for name in SPAN_TOTALS}
    metrics.update({f"{name}_self_s": totals.get(name, (0.0, 0.0, 0))[1] for name in SPAN_SELF})
    metrics.update({name: counts[name] for name in COUNTS})
    q_nnz = counts["tracking.q_nnz"]
    metrics["tracking.keep_ratio"] = counts["tracking.kept_pairs"] / q_nnz if q_nnz else 0.0
    metrics["io.bytes_written"] = seq.bytes_written
    metrics["io.files_written"] = seq.files_written
    return metrics


def trace_report(workload: Workload, seed: int, traced: list[Sequence], overhead: float) -> dict:
    """Median total and self time per span name over the traced sequences,
    with the counts and every recorded span."""
    names = sorted({span.name for seq in traced for span in seq.tracer.spans})
    per_seq = [seq.tracer.totals() for seq in traced]
    by_name = {}
    for name in names:
        rows = [t.get(name, (0.0, 0.0, 0)) for t in per_seq]
        by_name[name] = {
            "total_s": statistics.median(r[0] for r in rows),
            "self_s": statistics.median(r[1] for r in rows),
            "calls": statistics.median(r[2] for r in rows),
        }
    return {
        "workload": workload.name,
        "seed": seed,
        "traced_sequences": len(traced),
        "overhead_s": overhead,
        "spans_by_name": by_name,
        "counts": dict(traced[-1].tracer.counts),
        "spans": [
            [[s.name, s.start, s.end, s.parent] for s in seq.tracer.spans] for seq in traced
        ],
    }


def print_report(report: dict) -> None:
    print(f"trace of {report['workload']} (seed {report['seed']}), "
          f"median of {report['traced_sequences']} traced sequence(s)")
    print(f"{'span':<32} {'total_s':>10} {'self_s':>10} {'calls':>7}")
    rows = sorted(report["spans_by_name"].items(), key=lambda kv: -kv[1]["total_s"])
    for name, row in rows:
        print(f"{name:<32} {row['total_s']:>10.4f} {row['self_s']:>10.4f} {row['calls']:>7g}")
    for name, value in sorted(report["counts"].items()):
        print(f"{name:<32} {value:>10}")
    print(f"tracing overhead on run_s: {report['overhead_s']:+.4f} s")


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, setup_runs: int = SETUP_RUNS
) -> dict:
    """Measure one workload in this process and return the result object."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        setup = [] if trace else setup_times(workload, seed, work, setup_runs)
        sys.path.insert(0, str(SRC))
        import pfsensor.cli as cli

        sequences = measure(cli, workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    untraced = [s for s in sequences if s.tracer is None]
    run_s = statistics.median(s.run_s for s in untraced)
    if trace:
        traced = [s for s in sequences if s.tracer is not None]
        overhead = statistics.median(s.run_s for s in traced) - run_s
        report = trace_report(workload, seed, traced, overhead)
        (WORK / f"trace-{workload.name}-seed{seed}.json").write_text(json.dumps(report) + "\n")
        print_report(report)
        per_seq = [layer_metrics(s) for s in traced]
        values = {name: statistics.median(m[name] for m in per_seq) for name in per_seq[0]}
        values["trace.overhead_s"] = overhead
        units = LAYER_UNITS
    else:
        values = {
            "setup_s": statistics.median(setup),
            "run_s": run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
    failed = sum(s.failed for s in sequences)
    return {
        "correct": failed == 0,
        "attempted": sum(s.attempted for s in sequences),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pfsensor" / "__init__.py").is_file():
        print(f"error: no pfsensor sources under {SRC}", file=sys.stderr)
        return 2
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
