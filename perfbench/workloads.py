"""Benchmark workloads: one generated pfsensor config and command sequence each.

Every workload uses the vortex family with a Gaussian vortex strength,
diffusivity 1e-4, eps_acc 3e-4 and one worker, so a run stays on one core.
Why each workload exists, and which layer metrics it is meant to move, is
recorded in README.md beside this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0
MU, SIGMA = 0.5, 0.05

SEVEN_POINTS = "0 0.1 0.3 0.5 0.7 0.9 1.0"


@dataclass(frozen=True)
class Workload:
    name: str
    body: str  # config lines beyond the shared ones
    commands: tuple[str, ...]
    # sha256 of plan.json at DEFAULT_SEED; None when the workload does not place
    plan_sha256: str | None = None


WORKLOADS = {
    w.name: w
    for w in (
        # the scripts/vortex_demo.py config as written
        Workload(
            "desk",
            "dims = 30 30 1\n"
            "spacing = 0.05 0.05 0.2\n"
            "dt = 0.02\n"
            "steps = 80\n"
            f"cdf_points = {SEVEN_POINTS}\n"
            "sensors = 4\n"
            "occupied_box = 0.15 0.15 0 0.9 0.75 1\n"
            "forbidden_box = 0.15 0.15 0 0.9 0.75 1\n"
            "validate_tol = 0.03\n",
            ("build", "place", "validate"),
            "8ce368ad544826152c61209c6179ecfb54c2f8e7489c0e7a5904a86d361d5f40",
        ),
        Workload(
            "mid",
            "dims = 50 50 1\n"
            "spacing = 0.03 0.03 0.2\n"
            "dt = 0.012\n"
            "steps = 80\n"
            "cdf_points = 0 0.5 1\n"
            "sensors = 4\n",
            ("build", "place"),
            "6ebc63249810860726bf8b9bcaeeda655c3b7a2ecc616b9c738fc5ba99ffef58",
        ),
        Workload(
            "survey",
            "dims = 100 100 1\n"
            "spacing = 0.015 0.015 0.2\n"
            "dt = 0.006\n"
            "steps = 5\n"
            f"cdf_points = {SEVEN_POINTS}\n"
            "min_coverage = 0.95\n",
            ("build", "place"),
            "c048099d33c4f66ec0c4039b6d5161c411a35b3889463506774950363768f22f",
        ),
        Workload(
            "fine",
            "dims = 150 150 1\n"
            "spacing = 0.01 0.01 0.2\n"
            "dt = 0.004\n"
            "steps = 80\n"
            f"cdf_points = {SEVEN_POINTS}\n"
            "release_box = 0.3 0.3 0 0.6 0.6 1\n"
            "validate_tol = 0.1\n",
            ("build", "validate"),
        ),
    )
}


# a 10x10 grid that runs every command in well under a second: the untimed
# warm-up before a run's first sequence, and the harness smoke test
WARMUP = Workload(
    "warmup",
    "dims = 10 10 1\n"
    "spacing = 0.1 0.1 0.2\n"
    "dt = 0.02\n"
    "steps = 10\n"
    "cdf_points = 0 0.5 1\n"
    "sensors = 2\n"
    "validate_tol = 1.0\n",
    ("build", "place", "validate"),
)


def gaussian_for(seed: int) -> tuple[float, float]:
    """Vortex-strength distribution for a workload seed.

    The default seed gives the configs above exactly. Other seeds lower mu by
    up to 0.02 and sigma by up to 10%, so the strongest sample, mu + 5 sigma,
    never exceeds the default's 0.75: desk's worst validation gap sits at
    0.0286 against its 0.03 tolerance there and grows with the strength.
    """
    if seed == DEFAULT_SEED:
        return MU, SIGMA
    rng = random.Random(seed)
    return MU - 0.02 * rng.random(), SIGMA * (1.0 - 0.1 * rng.random())


def config_text(workload: Workload, seed: int, out_dir) -> str:
    mu, sigma = gaussian_for(seed)
    return (
        "family = vortex\n"
        f"distribution = gaussian {mu!r} {sigma!r}\n"
        "diffusivity = 1e-4\n"
        "eps_acc = 3e-4\n"
        "workers = 1\n"
        f"{workload.body}"
        f"out = {out_dir}\n"
    )
