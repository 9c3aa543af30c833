#!/usr/bin/env python3
"""Desk-scale end-to-end experiment on the synthetic vortex family.

Builds a seven-realization flow ensemble from an uncertain vortex strength,
validates the transfer operators against the PDE reference, places sensors
outside an occupied zone while sensing releases from it, checks the expected
coverage's convergence in sample count, and prints the quantities a report
would tabulate (per-scenario marginals, expected coverage). Last, it carries
a unit point release through the median scenario's operator, writes the
concentration to concentration.txt and prints its total mass, which the
closed box keeps at 1 within rounding.

Usage: python scripts/vortex_demo.py [--out DIR] [--sensors K]
"""

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pfsensor.cli import main as cli_main
from pfsensor.config import parse_config
from pfsensor.flowfield import save_scalar_field
from pfsensor.markov import build_markov, propagate
from pfsensor.pipeline import release_field, scenario_set

CONFIG = """\
dims = 30 30 1
spacing = 0.05 0.05 0.2
origin = 0 0 0
diffusivity = 1e-4
dt = 0.02
steps = 80
family = vortex
distribution = gaussian 0.5 0.05
cdf_points = 0 0.1 0.3 0.5 0.7 0.9 1.0
eps_acc = 3e-4
sensors = {sensors}
occupied_box = 0.15 0.15 0 0.9 0.75 1
forbidden_box = 0.15 0.15 0 0.9 0.75 1
# the 0.02 s operator step carries ~3% first-order transport error at this
# desk scale; tighten dt (and raise steps) to push the validation error down
validate_tol = 0.03
out = {out}
"""


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="output directory (default: temp dir)")
    parser.add_argument("--sensors", type=int, default=4)
    args = parser.parse_args(argv)

    out = Path(args.out) if args.out else Path(tempfile.mkdtemp(prefix="pfsensor-demo-"))
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "demo.cfg"
    cfg_path.write_text(CONFIG.format(out=out, sensors=args.sensors))

    print(f"== build ({cfg_path})")
    if cli_main(["build", "--config", str(cfg_path)]) != 0:
        return 1
    print("== validate (operator transport vs PDE reference)")
    code = cli_main(["validate", "--config", str(cfg_path)])
    if code not in (0, 3):
        return code
    print("== place (sensors outside the occupied zone, sensing it)")
    if cli_main(["place", "--config", str(cfg_path)]) != 0:
        return 1
    print("== sample-count convergence")
    if cli_main(["converge", "--config", str(cfg_path), "--samples", "2", "3", "5", "7", "9"]) != 0:
        return 1
    print("== transport (a point release through the median scenario's operator)")
    cfg = parse_config(cfg_path)
    grid, fields, samples, _ = scenario_set(cfg)
    median = len(fields) // 2
    operator = build_markov(fields[median], cfg.diffusivity, cfg.dt, cfg.outlets).matrix
    phi = propagate(release_field(cfg, grid), operator, cfg.steps)
    save_scalar_field(out / "concentration.txt", grid, phi)
    print(f"scenario {median} (xi={samples[median]})")
    print(f"total mass after {cfg.steps} steps: {float(phi.sum())!r}")
    print(f"\nartifacts in {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
