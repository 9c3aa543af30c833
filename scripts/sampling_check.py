#!/usr/bin/env python3
"""Quadrature sanity check: inverse-CDF samples with hat-function weights
reproduce expectation integrals of smooth test functions.

Prints exact vs weighted-sum values for xi, xi^2 and exp(xi) under
N(0.5, 0.05), then the error ladder as the sample count grows.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pfsensor.uncertainty import cdf_points_for, expectation, gaussian, quadrature_rule

MU, SIGMA = 0.5, 0.05
CASES = [
    ("xi", lambda x: x, MU),
    ("xi^2", lambda x: x**2, MU**2 + SIGMA**2),
    ("exp(xi)", np.exp, float(np.exp(MU + SIGMA**2 / 2.0))),
]


def run() -> int:
    dist = gaussian(MU, SIGMA)
    samples, weights = quadrature_rule(dist, cdf_points_for(7))
    print(f"7-point rule: samples {np.round(samples, 5).tolist()}")
    print(f"              weights {np.round(weights, 5).tolist()}")
    print(f"{'function':>10} {'exact':>10} {'weighted sum':>14} {'abs err':>10}")
    for name, fn, exact in CASES:
        approx = expectation(weights, fn(samples))
        print(f"{name:>10} {exact:>10.4f} {approx:>14.4f} {abs(approx - exact):>10.2e}")

    print("\nerror in E[exp(xi)] vs sample count:")
    for m in (2, 3, 5, 7, 9, 17, 33):
        samples_m, weights_m = quadrature_rule(dist, cdf_points_for(m))
        err = abs(expectation(weights_m, np.exp(samples_m)) - CASES[2][2])
        print(f"  M = {m:>2}: {err:.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
