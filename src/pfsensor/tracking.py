"""Detection kernel: which release states a sensor at each state detects.

A release at state r is detected by a sensor at state c when the tracking
entry Q[r, c] of Q = I + P + ... + P^m reaches the sensor's cutoff. The
kernel sums the kept release rows in blocks of BLOCK = 64 unit vectors e by
Horner's rule acc <- e + P^T acc, thresholds each block and packs it, so Q
is never held whole. A call holds the transposed operator, two float Horner
buffers and one boolean threshold, each (widest window x BLOCK) and made
once for every block to reuse, and the pattern: one bit per detected pair
inside 64-bit (cell, mask) words of 12 bytes. A block's word at cell c has
bit i set when its member i is detected at c; words with no bit set are not
stored. Below about 2.4 pairs per stored word the pattern would outgrow a
boolean one of 5 bytes per pair; the shipped workloads store 3.3 to 29.
Cells are uniform, so placement scales pair counts by one volume fraction.
"""

from __future__ import annotations

import numpy as np

from . import _compiled
from ._compiled import CSR

# release rows summed together, and the width of a mask word: a Horner step
# holds two (window x BLOCK) arrays, its product's input and output, which
# small blocks keep cache-resident; block sizes from 16 to 256 ran equally fast
BLOCK = 64


def _bandwidth(matrix: CSR) -> int:
    """max |i - j| over the stored entries (i, j), 0 when none is stored. Each
    row's indices are sorted, as `_compiled.transpose` writes them, so a row's
    first and last index hold its farthest entries."""
    rows = np.flatnonzero(np.diff(matrix.indptr))
    first = matrix.indices[matrix.indptr[rows]]
    last = matrix.indices[matrix.indptr[rows + 1] - 1]
    return int(np.maximum(rows - first, last - rows).max(initial=0))


def _accumulate(p_t: CSR, steps: int, rows: np.ndarray, band: int, lo: int, hi: int, buffers):
    """Q[rows, lo:hi] transposed, by Horner's rule acc <- e + P^T acc on the
    unit columns e of `rows`, whose mass stays in [lo, hi) for `steps` steps
    as the caller guarantees. Mass moves at most `band` states a step, so
    step j computes only the rows within j * band of `rows`, into the other
    of the two flat `buffers`: each product skipped would add +0.0, so acc
    keeps its bits. Each buffer's first (hi - lo) * rows.size elements are
    zeroed and viewed as a contiguous block, as the product's operands must
    be; the returned block is a view of one of them."""
    sub = _compiled.submatrix(p_t, lo, hi)
    first, last = int(rows[0]) - lo, int(rows[-1]) - lo + 1
    units = (rows - lo, np.arange(rows.size))
    acc, out = (buffer[: (hi - lo) * rows.size].reshape(hi - lo, rows.size) for buffer in buffers)
    acc.fill(0.0)
    out.fill(0.0)
    acc[units] = 1.0
    for j in range(1, steps + 1):
        a, b = max(0, first - j * band), min(hi - lo, last + j * band)
        _compiled.matvecs(sub, a, b, acc, out)
        acc, out = out, acc
        acc[units] += 1.0
    return acc


def _threshold(acc: np.ndarray, cutoff: float, candidates: np.ndarray, hit: np.ndarray) -> None:
    """hit = (acc > 0) & (acc >= cutoff) & candidates, in place, for a hit
    of BLOCK columns: those past acc's own (a last, partial block) are False."""
    detected = hit[:, : acc.shape[1]]
    np.greater_equal(acc, cutoff, out=detected)
    if not cutoff > 0.0:  # only then can acc >= cutoff hold at acc <= 0
        detected &= acc > 0.0
    detected &= candidates[:, None]
    hit[:, acc.shape[1] :] = False


def _pack(p_t: CSR, steps: int, cutoff: float, candidates: np.ndarray, kept: np.ndarray):
    """Each block's stored cells and words, in block order after one empty
    piece of each, which keeps the joins' dtypes when no row is kept. The two
    Horner buffers and the threshold are made once, sized for the widest
    window, and every block works in their leading elements: one block's
    working set is alive at a time, and all of it is freed on return."""
    n = p_t.shape[0]
    band = _bandwidth(p_t)
    reach = steps * band
    blocks = [kept[start : start + BLOCK] for start in range(0, kept.size, BLOCK)]
    windows = [(max(0, int(b[0]) - reach), min(n, int(b[-1]) + reach + 1)) for b in blocks]
    size = max((hi - lo for lo, hi in windows), default=0) * BLOCK
    # each buffer its own allocation: one shared allocation raised peak RSS
    buffers = np.empty(size), np.empty(size)
    hit = np.empty(size, dtype=bool)
    cells, words = [np.empty(0, dtype=np.int32)], [np.empty(0, dtype=np.uint64)]
    for block, (lo, hi) in zip(blocks, windows):
        acc = _accumulate(p_t, steps, block, band, lo, hi, buffers)
        detected = hit[: (hi - lo) * BLOCK].reshape(hi - lo, BLOCK)
        _threshold(acc, cutoff, candidates[lo:hi], detected)
        word = np.packbits(detected, axis=1, bitorder="little").view("<u8")[:, 0]
        stored = np.flatnonzero(word)
        cells.append((stored + lo).astype(np.int32))
        words.append(word[stored])
        del word, stored  # before the next block's submatrix
    return cells, words


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
    kept = np.flatnonzero(release).astype(np.int32)
    cells, words = _pack(_compiled.transpose(matrix), steps, cutoff, candidates, kept)
    indptr = np.cumsum([piece.size for piece in cells])
    indptr = indptr.astype(_compiled.index_dtype(maxval=indptr[-1]))
    masks = CSR(indptr, np.concatenate(cells), np.concatenate(words), (indptr.size - 1, n))
    return kept, masks
