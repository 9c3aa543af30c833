"""Detection kernel: which release states a sensor at each state detects.

A release at state r is detected by a sensor at state c when the tracking
entry Q[r, c] of Q = I + P + ... + P^m reaches the sensor's cutoff. The
kernel sums the kept release rows in blocks of unit vectors e by Horner's
rule acc <- e + P^T acc, thresholds each block and keeps only its pairs, so
Q is never held whole: memory is O(n * BLOCK) plus the detected pairs, kept
as a boolean pattern with int32 indices (5 bytes per pair). Cells are
uniform, so placement scales pair counts by one volume fraction.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

# release rows summed together; a Horner step holds two (window x BLOCK)
# arrays, its product's input and output; small blocks keep them cache-resident
BLOCK = 64


def _accumulate(p_t: sparse.csr_array, steps: int, rows: np.ndarray, lo: int, hi: int):
    """Q[rows, lo:hi] transposed, by Horner's rule acc <- e + P^T acc on the
    unit columns e of `rows`. The caller guarantees mass from `rows` stays in
    [lo, hi) for `steps` steps, so the truncated operator loses nothing."""
    sub = p_t[lo:hi, lo:hi]
    units = (rows - lo, np.arange(rows.size))
    acc = np.zeros((hi - lo, rows.size))
    acc[units] = 1.0
    for _ in range(steps):
        acc = sub @ acc
        acc[units] += 1.0
    return acc


def detection_matrix(
    matrix: sparse.csr_array,
    steps: int,
    cutoff: float,
    release: np.ndarray,
    candidates: np.ndarray,
) -> sparse.csc_array:
    """Detection pattern of one scenario, as a boolean CSC matrix with int32
    indices.

    Entry (r, c) is stored exactly when release[r] and candidates[c] hold
    and the tracking entry Q[r, c] is positive and at least `cutoff`. One
    step moves mass at most the operator's bandwidth max|i - j| away, so each
    block of release rows propagates only through the band it can reach
    within `steps` steps; an exit column makes that band the whole operator.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    n = matrix.shape[0]
    release = np.asarray(release, dtype=bool)
    candidates = np.asarray(candidates, dtype=bool)
    if release.shape != (n,) or candidates.shape != (n,):
        raise ValueError(
            f"release mask {release.shape} and candidates {candidates.shape} "
            f"must both have length {n}"
        )
    p_t = sparse.csr_array(matrix.T)
    rows = np.repeat(np.arange(n), np.diff(p_t.indptr))
    reach = steps * int(np.abs(rows - p_t.indices).max(initial=0))
    kept = np.flatnonzero(release).astype(np.int32)
    # int32 from the start: one int64 piece would promote the concatenation
    pair_rows = [np.empty(0, dtype=np.int32)]
    pair_cols = [np.empty(0, dtype=np.int32)]
    for start in range(0, kept.size, BLOCK):
        block = kept[start : start + BLOCK]
        lo, hi = max(0, int(block[0]) - reach), min(n, int(block[-1]) + reach + 1)
        acc = _accumulate(p_t, steps, block, lo, hi)
        hit = (acc > 0.0) & (acc >= cutoff) & candidates[lo:hi, None]
        cols, members = np.nonzero(hit)
        pair_rows.append(block[members])
        pair_cols.append((cols + lo).astype(np.int32))
    # rebinding frees the pieces before the pattern is built from the joins
    pair_rows, pair_cols = np.concatenate(pair_rows), np.concatenate(pair_cols)
    data = np.ones(pair_rows.size, dtype=bool)
    return sparse.csc_array((data, (pair_rows, pair_cols)), shape=(n, n))
