"""Greedy expected-coverage sensor placement over a scenario ensemble.

Each scenario enters as its detection matrix (see tracking.detection_matrix):
entry (r, c) is the volume fraction of release state r when a sensor at c
detects it. Coverage of a candidate sensor state is a column sum of that
matrix. The greedy loop places the state maximizing the probability-weighted
expected coverage, then strikes that column and all release rows it covers
in each scenario so later sensors are credited only for new volume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse


@dataclass(frozen=True, eq=False)
class PlacedSensor:
    state: int
    expected_marginal: float
    per_scenario_marginal: np.ndarray
    # probability that a release at each state is newly covered by this sensor
    coverage_map: np.ndarray


@dataclass(eq=False)
class SensorPlan:
    sensors: list[PlacedSensor]
    cumulative_expected_coverage: float
    occupied_space_coverage: float | None = None
    truncated: bool = False
    settings: dict = field(default_factory=dict)

    @property
    def states(self) -> list[int]:
        return [s.state for s in self.sensors]


def coverage_vector(detection: sparse.sparray) -> np.ndarray:
    """Per-column coverage: the volume fraction of release states each
    candidate sensor state observes (column-wise L1 norm; entries are
    non-negative so the sum is the norm). Each column is summed entry by
    entry in row order, the same sums the greedy loop makes."""
    return np.ones(detection.shape[0]) @ detection


def expected_coverage(vectors: list[np.ndarray], weights) -> np.ndarray:
    """Probability-weighted mean of per-scenario coverage vectors."""
    w = np.asarray(list(weights), dtype=float)
    if len(vectors) != w.size:
        raise ValueError(f"{len(vectors)} vectors for {w.size} weights")
    if not vectors:
        raise ValueError("need at least one coverage vector")
    n = vectors[0].shape[0]
    if any(v.shape != (n,) for v in vectors):
        raise ValueError("coverage vectors differ in length")
    out = np.zeros(n)
    for theta, vec in zip(w, vectors):
        out += theta * vec
    return out


def place_sensors(
    detections: list[sparse.sparray],
    weights,
    k: int | None = None,
    min_coverage: float | None = None,
    occupied_volume_fraction: float | None = None,
) -> SensorPlan:
    """Greedily place sensors maximizing expected volumetric coverage.

    Each round recomputes per-scenario coverage vectors, picks the argmax of
    the expected vector (ties to the lowest state index), then removes the
    chosen column everywhere plus, per scenario, every release row that
    column covered. Stops after k sensors, when min_coverage is reached, or
    when no coverage remains (the plan is then flagged truncated if a sensor
    budget was still open).

    With a sensing constraint confining interest to an occupied zone, pass
    that zone's volume fraction to also report coverage relative to it.
    """
    if k is None and min_coverage is None:
        raise ValueError("need a sensor count k or a min_coverage target")
    if k is not None and k < 1:
        raise ValueError(f"sensor count must be >= 1, got {k}")
    if min_coverage is not None and not 0.0 < min_coverage <= 1.0:
        raise ValueError(f"min_coverage must lie in (0, 1], got {min_coverage}")
    if not detections:
        raise ValueError("need at least one scenario matrix")
    w = np.asarray(list(weights), dtype=float)
    if w.size != len(detections):
        raise ValueError(f"{len(detections)} matrices for {w.size} weights")
    if np.any(w < 0.0):
        raise ValueError("scenario weights must be non-negative")
    n = detections[0].shape[0]
    if any(m.shape != (n, n) for m in detections):
        raise ValueError("scenario matrices differ in size")

    mats = [sparse.csc_array(m) for m in detections]
    row_active = [np.ones(n) for _ in mats]
    col_active = np.ones(n, dtype=bool)

    sensors: list[PlacedSensor] = []
    cumulative = 0.0
    truncated = False
    while True:
        if k is not None and len(sensors) >= k:
            break
        if min_coverage is not None and cumulative >= min_coverage:
            break
        per_scenario = [row_active[i] @ mats[i] for i in range(len(mats))]
        expected = expected_coverage(per_scenario, w)
        expected[~col_active] = 0.0
        if expected.max() <= 0.0:
            # residual coverage exhausted with the budget or target still open
            truncated = (k is not None and len(sensors) < k) or (
                min_coverage is not None and cumulative < min_coverage
            )
            break
        best = int(np.argmax(expected))  # argmax takes the first (lowest) index on ties
        marginals = np.empty(len(mats))
        new_cover = np.zeros(n)
        for i, mat in enumerate(mats):
            col = mat[:, [best]].tocoo()
            covered = col.coords[0][row_active[i][col.coords[0]] > 0.0]
            marginals[i] = per_scenario[i][best]
            new_cover[covered] += w[i]
            row_active[i][covered] = 0.0
        col_active[best] = False
        cumulative += float(expected[best])
        sensors.append(
            PlacedSensor(
                state=best,
                expected_marginal=float(expected[best]),
                per_scenario_marginal=marginals,
                coverage_map=new_cover,
            )
        )

    occupied_cov = None
    if occupied_volume_fraction is not None:
        if occupied_volume_fraction <= 0.0:
            raise ValueError("occupied volume fraction must be positive")
        occupied_cov = cumulative / occupied_volume_fraction

    return SensorPlan(
        sensors=sensors,
        cumulative_expected_coverage=cumulative,
        occupied_space_coverage=occupied_cov,
        truncated=truncated,
        settings={
            "k": k,
            "min_coverage": min_coverage,
            "removal": "covered",
            "weights": [float(t) for t in w],
        },
    )


def occupied_fraction(occupied: np.ndarray) -> float:
    """Volume fraction of the domain taken by an occupied-zone mask (uniform cells)."""
    return np.count_nonzero(occupied) / occupied.size
