"""Greedy expected-coverage sensor placement over a scenario ensemble.

Each scenario enters as its detection pattern (see tracking.detection_matrix).
Every release cell is worth the same volume fraction x, so a column with c
active rows covers f[c] = f[c-1] + x, f[0] = 0: bit for bit the float sum of c
entries x. The greedy loop places the state of largest expected coverage,
then strikes the release rows it covers and decrements their columns' counts.
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


def _coverage_table(cell_fraction: float, n: int) -> np.ndarray:
    """f[c] for c = 0..n, summed in sequence as a float column sum would."""
    return np.cumsum(np.r_[0.0, np.full(n, float(cell_fraction))])


def coverage_vectors(detections: list[sparse.sparray], cell_fraction: float) -> list[np.ndarray]:
    """Per-scenario volume fraction of release states each column detects."""
    mats = map(sparse.csc_array, detections)
    return [_coverage_table(cell_fraction, m.shape[0])[np.diff(m.indptr)] for m in mats]


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
    cell_fraction: float,
    k: int | None = None,
    min_coverage: float | None = None,
    occupied_volume_fraction: float | None = None,
) -> SensorPlan:
    """Greedily place sensors maximizing expected volumetric coverage.

    Every stored pair of the `detections` patterns is worth `cell_fraction`.
    Each round picks the argmax of the expected coverage (ties to the lowest
    state index) and, per scenario, strikes every active release row it
    covers. Stops after k sensors, when min_coverage is reached, or, flagged
    truncated, when no coverage remains before either.

    With a sensing constraint confining interest to an occupied zone, pass
    that zone's volume fraction: coverage is then also reported relative to
    it, and min_coverage and truncation are judged on that relative coverage.
    """
    if k is None and min_coverage is None:
        raise ValueError("need a sensor count k or a min_coverage target")
    if k is not None and k < 1:
        raise ValueError(f"sensor count must be >= 1, got {k}")
    if min_coverage is not None and not 0.0 < min_coverage <= 1.0:
        raise ValueError(f"min_coverage must lie in (0, 1], got {min_coverage}")
    if occupied_volume_fraction is not None and occupied_volume_fraction <= 0.0:
        raise ValueError("occupied volume fraction must be positive")
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

    by_col = [sparse.csc_array(m) for m in detections]
    by_row = [m.tocsr() for m in by_col]
    # intp counts: the table lookup each round is a 3x slower gather with int32
    counts = [np.diff(m.indptr).astype(np.intp) for m in by_col]
    row_active = [np.ones(n, dtype=bool) for _ in by_col]
    table = _coverage_table(cell_fraction, n)
    zone = 1.0 if occupied_volume_fraction is None else occupied_volume_fraction

    sensors: list[PlacedSensor] = []
    cumulative = 0.0
    truncated = False
    while True:
        if k is not None and len(sensors) >= k:
            break
        if min_coverage is not None and cumulative / zone >= min_coverage:
            break
        per_scenario = [table[c] for c in counts]
        expected = expected_coverage(per_scenario, w)
        if expected.max() <= 0.0:
            # residual coverage exhausted: the checks above left the budget or target open
            truncated = True
            break
        best = int(np.argmax(expected))  # argmax takes the first (lowest) index on ties
        marginals = np.array([v[best] for v in per_scenario])
        new_cover = np.zeros(n)
        for i, (col_major, row_major) in enumerate(zip(by_col, by_row)):
            rows = col_major.indices[col_major.indptr[best] : col_major.indptr[best + 1]]
            covered = rows[row_active[i][rows]]
            new_cover[covered] += w[i]
            row_active[i][covered] = False
            # each struck row's columns lose one active row; one gather of its CSR slices
            starts = row_major.indptr[covered]
            lengths = row_major.indptr[covered + 1] - starts
            shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
            struck = row_major.indices[np.arange(shift.size) + shift]
            counts[i] -= np.bincount(struck, minlength=n)
        cumulative += float(expected[best])
        sensors.append(
            PlacedSensor(
                state=best,
                expected_marginal=float(expected[best]),
                per_scenario_marginal=marginals,
                coverage_map=new_cover,
            )
        )

    return SensorPlan(
        sensors=sensors,
        cumulative_expected_coverage=cumulative,
        occupied_space_coverage=None if occupied_volume_fraction is None else cumulative / zone,
        truncated=truncated,
        settings={
            "k": k,
            "min_coverage": min_coverage,
            "removal": "covered",
            "weights": [float(t) for t in w],
        },
    )
