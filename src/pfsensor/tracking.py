"""Detection kernel: which release states a sensor at each state detects.

A release at state r is detected by a sensor at state c when the tracking
entry Q[r, c] of Q = I + P + ... + P^m reaches the sensor's cutoff. The
kernel sums the kept release rows in blocks of BLOCK = 64 unit vectors e by
Horner's rule acc <- e + P^T acc, thresholds each block and packs it, so Q
is never held whole: memory is O(n * BLOCK) plus the pattern, one bit per
detected pair inside 64-bit (cell, mask) words of 12 bytes. A block's word
at cell c has bit i set when its member i is detected at c; words with no
bit set are not stored. Below about 2.4 pairs per stored word the pattern
would outgrow a boolean one of 5 bytes per pair; the shipped workloads
store 3.3 to 29. Cells are uniform, so placement scales pair counts by one
volume fraction.
"""

from __future__ import annotations

import numpy as np

from . import _compiled
from ._compiled import CSR

# release rows summed together, and the width of a mask word: a Horner step
# holds two (window x BLOCK) arrays, its product's input and output, which
# small blocks keep cache-resident; block sizes from 16 to 256 ran equally fast
BLOCK = 64


def _accumulate(p_t: CSR, steps: int, rows: np.ndarray, band: int, lo: int, hi: int):
    """Q[rows, lo:hi] transposed, by Horner's rule acc <- e + P^T acc on the
    unit columns e of `rows`, whose mass stays in [lo, hi) for `steps` steps
    as the caller guarantees. Mass moves at most `band` states a step, so
    step j computes only the rows within j * band of `rows`, into the other
    of two buffers: each product skipped would add +0.0, so acc keeps its bits."""
    sub = _compiled.submatrix(p_t, lo, hi)
    first, last = int(rows[0]) - lo, int(rows[-1]) - lo + 1
    units = (rows - lo, np.arange(rows.size))
    acc, out = np.zeros((hi - lo, rows.size)), np.zeros((hi - lo, rows.size))
    acc[units] = 1.0
    for j in range(1, steps + 1):
        a, b = max(0, first - j * band), min(hi - lo, last + j * band)
        _compiled.matvecs(sub, a, b, acc, out)
        acc, out = out, acc
        acc[units] += 1.0
    return acc


def detection_matrix(
    matrix: CSR,
    steps: int,
    cutoff: float,
    release: np.ndarray,
    candidates: np.ndarray,
) -> tuple[np.ndarray, CSR]:
    """Detection pattern of one scenario as the pair (kept, masks): `kept`
    holds the release states in ascending order as int32, and `masks` is
    the CSR record, int32 indices and uint64 data, of shape (blocks, n)
    whose word at (b, c) has bit i set when a sensor at c detects a release
    at kept[BLOCK * b + i]. Zero words are not stored.

    Pair (r, c) is detected exactly when release[r] and candidates[c] hold
    and the tracking entry Q[r, c] is positive and at least `cutoff`. One
    step moves mass at most the operator's bandwidth max|i - j| away, so each
    block of release rows propagates only through the band it can reach
    within `steps` steps; an exit column makes that band the whole operator.
    """
    n = matrix.shape[0]
    release = np.asarray(release, dtype=bool)
    candidates = np.asarray(candidates, dtype=bool)
    if release.shape != (n,) or candidates.shape != (n,):
        raise ValueError(
            f"release mask {release.shape} and candidates {candidates.shape} "
            f"must both have length {n}"
        )
    p_t = _compiled.transpose(matrix)
    band = int(np.abs(np.repeat(np.arange(n), np.diff(p_t.indptr)) - p_t.indices).max(initial=0))
    kept = np.flatnonzero(release).astype(np.int32)
    # sizes starts with indptr's leading 0, and the empty first pieces keep
    # the joins' dtypes when no row is kept
    sizes, cells, words = [0], [np.empty(0, dtype=np.int32)], [np.empty(0, dtype=np.uint64)]
    for start in range(0, kept.size, BLOCK):
        block = kept[start : start + BLOCK]
        lo, hi = max(0, int(block[0]) - steps * band), min(n, int(block[-1]) + steps * band + 1)
        acc = _accumulate(p_t, steps, block, band, lo, hi)
        hit = np.zeros((hi - lo, BLOCK), dtype=bool)  # a last, partial block pads with zeros
        hit[:, : block.size] = (acc > 0.0) & (acc >= cutoff) & candidates[lo:hi, None]
        word = np.packbits(hit, axis=1, bitorder="little").view("<u8")[:, 0]
        stored = np.flatnonzero(word)
        sizes.append(stored.size)
        cells.append((stored + lo).astype(np.int32))
        words.append(word[stored])
    indptr = np.cumsum(sizes)
    indptr = indptr.astype(_compiled.index_dtype(maxval=indptr[-1]))
    masks = CSR(indptr, np.concatenate(cells), np.concatenate(words), (len(sizes) - 1, n))
    return kept, masks
