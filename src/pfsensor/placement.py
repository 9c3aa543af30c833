"""Greedy expected-coverage sensor placement over a scenario ensemble.

Each scenario enters as its detection pattern (kept, masks) from
tracking.detection_matrix: bit i of the 64-bit word at (block b, cell c)
marks the release kept[64 b + i] as detected by a sensor at c, so a
column's count of detected releases is the popcount sum of its words.
Every release cell is worth the same volume fraction x, so a column with c
active rows covers f[c] = f[c-1] + x, f[0] = 0: bit for bit the float sum of c
entries x. Each greedy round places the state of largest expected coverage
and, per scenario, clears the bits it covers from its blocks' active words
and stamps their rows with its rank. Counts only fall, so each column keeps
its last expected coverage as a bound; a round recounts, from the active
words and by the same operations as the whole vector's, only the columns
of largest bound until the largest is current.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _compiled
from ._compiled import CSR

# a scenario's detection pattern: its release states and their mask words
Pattern = tuple[np.ndarray, CSR]
_BITS = np.arange(64, dtype=np.uint64)
# columns recounted together when the largest bound is stale: on survey,
# 32 to 128 ran alike, 8 twice as slow
RECOUNT = 64


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


def _column_counts(masks: CSR) -> np.ndarray:
    """Each column's number of set bits: its count of detected releases."""
    counts = np.bincount(masks.indices, np.bitwise_count(masks.data), minlength=masks.shape[1])
    # float sums of small integers are exact
    return counts.astype(np.intp)


def coverage_vectors(detections: list[Pattern], cell_fraction: float) -> list[np.ndarray]:
    """Per-scenario volume fraction of release states each column detects."""
    return [
        _coverage_table(cell_fraction, masks.shape[1])[_column_counts(masks)]
        for _, masks in detections
    ]


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


def _by_cell(detections: list[Pattern]) -> CSR:
    """All scenarios' patterns by sensor column in one record: row i * n + c
    lists the blocks of scenario i that detect at c, numbered on from the
    blocks of scenarios 0 to i - 1, with their words. Each scenario's
    transpose is written straight into its stretch of the record."""
    n = detections[0][1].shape[1]
    nnz = sum(masks.nnz for _, masks in detections)
    dtype = _compiled.index_dtype(maxval=nnz)
    indptr = np.empty(len(detections) * n + 1, dtype=dtype)
    blocks = np.empty(nnz, dtype=dtype)
    words = np.empty(nnz, dtype=np.uint64)
    at = first = 0
    for i, (_, masks) in enumerate(detections):
        # part's last entry is the next part's first, rewritten to the same offset
        part = indptr[i * n : (i + 1) * n + 1]
        stored = slice(at, at + masks.nnz)
        _compiled.transpose_into(masks, part, blocks[stored], words[stored])
        part += at
        blocks[stored] += first
        at += masks.nnz
        first += masks.shape[0]
    return CSR(indptr, blocks, words, (len(detections) * n, first))


def _entries(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the stored entries of `rows`, row after row, and
    each row's entry count."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return np.arange(shift.size) + shift, lengths


def place_sensors(
    detections: list[Pattern],
    weights,
    cell_fraction: float,
    k: int | None = None,
    min_coverage: float | None = None,
    occupied_volume_fraction: float | None = None,
) -> SensorPlan:
    """Greedily place sensors maximizing expected volumetric coverage.

    Every detected pair of the `detections` patterns is worth `cell_fraction`.
    Each round picks the argmax of the expected coverage (ties to the lowest
    state index) and, per scenario, strikes every active release row it
    covers. Stops after k sensors, when min_coverage is reached, or, flagged
    truncated, when no coverage remains before either.

    With a sensing constraint confining interest to an occupied zone, pass
    that zone's volume fraction: coverage is then also reported relative to
    it, and min_coverage and truncation are judged on that relative coverage.
    """
    w = np.asarray(list(weights), dtype=float)
    n = detections[0][1].shape[1]
    by_cell = _by_cell(detections)
    # scenario i's row of column c in by_cell is first_rows[i] + c
    first_rows = np.arange(len(detections)) * n
    # block g's release i at position 64 g + i, as a flat index of covered_by
    members = np.concatenate(
        [
            np.pad(kept.astype(np.intp) + i * n, (0, 64 * masks.shape[0] - kept.size))
            for i, (kept, masks) in enumerate(detections)
        ]
    )
    # per block, the bits of releases no placed sensor covers yet
    active = np.full(by_cell.shape[1], ~np.uint64(0))
    counts = np.stack([_column_counts(masks) for _, masks in detections])
    covered_by = np.zeros(counts.shape, dtype=np.intp)
    table = _coverage_table(cell_fraction, n)
    # counts only fall, so a column's expected coverage from an earlier round
    # bounds its current one; it is exact where fresh
    bound = expected_coverage(table[counts], w)
    fresh = np.ones(n, dtype=bool)
    zone = 1.0 if occupied_volume_fraction is None else occupied_volume_fraction

    sensors: list[PlacedSensor] = []
    cumulative = 0.0
    truncated = False
    while True:
        if k is not None and len(sensors) >= k:
            break
        if min_coverage is not None and cumulative / zone >= min_coverage:
            break
        best = int(np.argmax(bound))  # argmax takes the first (lowest) index on ties
        while not fresh[best]:
            # recount the largest stale bounds from the active words; once the
            # largest bound is fresh, no other column can exceed it, and any
            # that equal it come later
            stale = np.where(fresh, -np.inf, bound)
            batch = np.argpartition(stale, -min(RECOUNT, n))[-RECOUNT:]
            entries, lengths = _entries(by_cell.indptr, (first_rows[:, None] + batch).ravel())
            live = np.bitwise_count(by_cell.data[entries] & active[by_cell.indices[entries]])
            live = np.bincount(np.repeat(np.arange(lengths.size), lengths), live, lengths.size)
            counts[:, batch] = live.reshape(counts.shape[0], -1).astype(np.intp)
            bound[batch] = expected_coverage(table[counts[:, batch]], w)
            fresh[batch] = True
            best = int(np.argmax(bound))
        if bound[best] <= 0.0:
            # residual coverage exhausted: the checks above left the budget or target open
            truncated = True
            break
        sensors.append(PlacedSensor(best, float(bound[best]), table[counts[:, best]]))
        cumulative += float(bound[best])
        entries, _ = _entries(by_cell.indptr, first_rows + best)
        blocks = by_cell.indices[entries]
        new = by_cell.data[entries] & active[blocks]
        active[blocks] ^= new  # new holds only active bits
        j, bit = np.nonzero((new[:, None] >> _BITS) & np.uint64(1))
        covered_by.ravel()[members[64 * blocks[j] + bit]] = len(sensors)
        fresh[:] = False

    return SensorPlan(
        sensors=sensors,
        cumulative_expected_coverage=cumulative,
        covered_by=list(covered_by),
        occupied_space_coverage=None if occupied_volume_fraction is None else cumulative / zone,
        truncated=truncated,
    )
