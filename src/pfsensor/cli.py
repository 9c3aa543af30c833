"""Command-line pipeline: build / place / validate / converge / propagate.

Exit codes: 0 success, 2 input or parse error, 3 validation tolerance
failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, apply, parse_config
from .pipeline import (
    PLAN_NAME,
    expected_coverage_for_counts,
    run_build,
    run_place,
    run_propagate,
    run_validate,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_TOLERANCE = 3

# the run keys each command cannot start without
NEEDS = {
    "build": ("dt",),
    "place": ("dt", "steps"),
    "validate": ("dt", "steps"),
    "converge": ("dt", "steps"),
    "propagate": ("dt", "steps"),
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="run configuration file")
    # the values are strings: config.apply parses and checks them
    parser.add_argument("--dt", help="Markov step in seconds")
    parser.add_argument("--steps", help="horizon steps m")
    parser.add_argument("--eps-acc", dest="eps_acc", help="sensor threshold")
    parser.add_argument("--sensors", help="number of sensors to place")
    parser.add_argument("--min-coverage", dest="min_coverage", help="stop at this coverage")
    parser.add_argument("--workers", help="scenario-level worker threads")
    parser.add_argument("--out", help="output directory")


def _load_config(args) -> RunConfig:
    cfg = parse_config(args.config)
    keys = ("dt", "steps", "eps_acc", "sensors", "min_coverage", "validate_tol", "workers", "out")
    for key in keys:
        raw = getattr(args, key, None)
        if raw is not None:
            apply(cfg, key, raw)
    cfg.validate()
    missing = [key for key in NEEDS[args.command] if getattr(cfg, key) is None]
    if missing:
        raise ConfigError(f"{args.command} needs {' and '.join(missing)}")
    # checked before any work, since the artifacts are written last
    out = Path(cfg.out)
    for part in (out, *out.parents):
        if part.exists() and not part.is_dir():
            raise ConfigError(f"out: {part} is not a directory")
    return cfg


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfsensor",
        description="Transfer-operator sensor placement under flow uncertainty",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build one Markov matrix per flow scenario")
    _add_common(p_build)

    p_place = sub.add_parser("place", help="place sensors; builds its own operators")
    _add_common(p_place)

    p_val = sub.add_parser("validate", help="compare operator transport against the PDE solver")
    _add_common(p_val)
    p_val.add_argument(
        "--tolerance", dest="validate_tol", help="L2 error tolerance (validate_tol)"
    )

    p_conv = sub.add_parser("converge", help="expected-coverage convergence in sample count")
    _add_common(p_conv)
    p_conv.add_argument(
        "--samples",
        type=int,
        nargs="+",
        required=True,
        help="sample counts, e.g. --samples 2 3 5 7 9 (largest is the reference)",
    )

    p_prop = sub.add_parser("propagate", help="single-scenario transport demo")
    _add_common(p_prop)
    p_prop.add_argument("--scenario", type=int, default=0, help="scenario index")
    return parser


def cmd_build(cfg: RunConfig, args) -> int:
    print(f"wrote {run_build(cfg)}")
    return EXIT_OK


def cmd_place(cfg: RunConfig, args) -> int:
    doc = run_place(cfg)
    for rank, sensor in enumerate(doc["sensors"], start=1):
        print(
            f"sensor {rank}: state {sensor['state']} "
            f"marginal coverage {sensor['expected_marginal']:.6f}"
        )
    coverage = doc["cumulative_expected_coverage"]
    print(f"expected coverage: {coverage:.6f}")
    if doc["occupied_space_coverage"] is not None:
        # placement judges its target on the occupied zone's coverage
        coverage = doc["occupied_space_coverage"]
        print(f"occupied-space coverage: {coverage:.6f}")
    if doc["truncated"]:
        print("warning: placement stopped early; remaining coverage is zero")
    elif cfg.min_coverage is not None and coverage < cfg.min_coverage:
        print(
            f"warning: the sensor count {cfg.sensors} stopped placement "
            f"below min_coverage {cfg.min_coverage}"
        )
    print(f"wrote {Path(cfg.out) / PLAN_NAME}")
    return EXIT_OK


def cmd_validate(cfg: RunConfig, args) -> int:
    results = run_validate(cfg)
    for row in results:
        status = "ok" if row["ok"] else "FAIL"
        print(f"scenario {row['id']} (xi={row['xi']}): L2 error {row['l2_error']:.3e} {status}")
    if any(not row["ok"] for row in results):
        worst = max(row["l2_error"] for row in results)
        print(f"validation failed: worst L2 error {worst:.3e} > {cfg.validate_tol}")
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_converge(cfg: RunConfig, args) -> int:
    rows = expected_coverage_for_counts(cfg, list(args.samples))
    print(f"{'samples':>8}  {'error vs reference':>20}")
    for row in rows:
        err = "-" if row["reference"] else f"{row['error']:.4f}"
        print(f"{row['samples']:>8}  {err:>20}")
    return EXIT_OK


def cmd_propagate(cfg: RunConfig, args) -> int:
    phi, target = run_propagate(cfg, args.scenario)
    print(f"total mass after {cfg.steps} steps: {float(phi.sum())!r}")
    print(f"wrote {target}")
    return EXIT_OK


_COMMANDS = {
    "build": cmd_build,
    "place": cmd_place,
    "validate": cmd_validate,
    "converge": cmd_converge,
    "propagate": cmd_propagate,
}


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](_load_config(args), args)
    except (ValueError, OSError) as exc:
        # covers config/parse errors, format errors, stability violations
        # (StabilityError's message carries the admissible dt) and artifacts
        # that cannot be written, such as a target that is a directory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
