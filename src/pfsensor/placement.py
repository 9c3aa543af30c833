"""Greedy expected-coverage sensor placement over a scenario ensemble.

Each scenario enters as its detection pattern by sensor state (see
tracking.detection_matrix): row c lists the release rows a sensor at c
detects. Only its `indptr`, `indices` and `shape` are read, so a scipy CSC
array of the pattern serves as well.
Every release cell is worth the same volume fraction x, so a column with c
active rows covers f[c] = f[c-1] + x, f[0] = 0: bit for bit the float sum of c
entries x. Each greedy round places the state of largest expected coverage,
stamps the rows it covers with its rank and decrements their columns' counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _compiled
from ._compiled import CSR


@dataclass(frozen=True, eq=False)
class PlacedSensor:
    state: int
    expected_marginal: float
    per_scenario_marginal: np.ndarray


@dataclass(eq=False)
class SensorPlan:
    sensors: list[PlacedSensor]
    cumulative_expected_coverage: float
    # per scenario and release row, the rank (from 1) of its first covering sensor, or 0
    covered_by: list[np.ndarray]
    occupied_space_coverage: float | None = None
    truncated: bool = False


def _coverage_table(cell_fraction: float, n: int) -> np.ndarray:
    """f[c] for c = 0..n, summed in sequence as a float column sum would."""
    return np.cumsum(np.r_[0.0, np.full(n, float(cell_fraction))])


def coverage_vectors(detections: list[CSR], cell_fraction: float) -> list[np.ndarray]:
    """Per-scenario volume fraction of release states each column detects."""
    return [_coverage_table(cell_fraction, m.shape[0])[np.diff(m.indptr)] for m in detections]


def expected_coverage(vectors: list[np.ndarray], weights) -> np.ndarray:
    """Probability-weighted mean of per-scenario coverage vectors."""
    w = np.asarray(list(weights), dtype=float)
    out = np.zeros(vectors[0].shape[0])
    for theta, vec in zip(w, vectors, strict=True):
        out += theta * vec
    return out


def sensor_coverage(covered_by: list[np.ndarray], weights) -> tuple[np.ndarray, ...]:
    """Rows (state, rank, probability that a release at the state is newly
    covered by the sensor of that rank), sorted by rank then state; each
    probability adds its covering scenarios' weights in scenario order."""
    size = covered_by[0].size
    ranks = np.concatenate(covered_by)
    where = np.flatnonzero(ranks)
    keys, rows = np.unique(ranks[where] * size + where % size, return_inverse=True)
    probability = np.bincount(rows, np.asarray(list(weights), dtype=float)[where // size])
    return keys % size, keys // size, probability


def place_sensors(
    detections: list[CSR],
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
    w = np.asarray(list(weights), dtype=float)
    n = detections[0].shape[0]
    # row-major copies: the transposed structure, under placeholder values
    by_row = [
        _compiled.transpose(CSR(m.indptr, m.indices, np.ones(m.indices.size, dtype=bool), m.shape))
        for m in detections
    ]
    # intp counts: the table lookup each round is a 3x slower gather with int32
    counts = [np.diff(m.indptr).astype(np.intp) for m in detections]
    covered_by = [np.zeros(n, dtype=np.intp) for _ in detections]
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
        for i, (col_major, row_major) in enumerate(zip(detections, by_row)):
            rows = col_major.indices[col_major.indptr[best] : col_major.indptr[best + 1]]
            covered = rows[covered_by[i][rows] == 0]
            covered_by[i][covered] = len(sensors) + 1
            # each struck row's columns lose one active row; one gather of its CSR slices
            starts = row_major.indptr[covered]
            lengths = row_major.indptr[covered + 1] - starts
            shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
            struck = row_major.indices[np.arange(shift.size) + shift]
            counts[i] -= np.bincount(struck, minlength=n)
        cumulative += float(expected[best])
        sensors.append(PlacedSensor(best, float(expected[best]), marginals))

    return SensorPlan(
        sensors=sensors,
        cumulative_expected_coverage=cumulative,
        covered_by=covered_by,
        occupied_space_coverage=None if occupied_volume_fraction is None else cumulative / zone,
        truncated=truncated,
    )
