"""Detection kernel: which release states a sensor at each state detects.

A release at state r is detected by a sensor at state c when the tracking
entry Q[r, c] of Q = I + P + ... + P^m reaches the sensor's cutoff. The
kernel sums the kept release rows in blocks of BLOCK = 64 unit vectors e by
Horner's rule acc <- e + P^T acc, thresholds each block and packs it, so Q
is never held whole.

Each block is first screened in float32, on a float32 copy of P^T, with
every step's values below about 2^-100 flushed to zero: unflushed, the
plume's spreading front fills with subnormal floats, which made float32
blocks 1.9x slower than float64 ones. Every entry of P and Q is
non-negative, so every rounding error is relative and the screened sum lies
within a certified band of the float64 one (`_band` derives it). An entry
above the band is detected, one below it is not, and only the release rows
with a candidate entry inside it are rerun by the float64 Horner sum, which
gives them exactly the bits of a float64 run over the whole block. When the
bound cannot be certified (a cutoff of 0 or below, a stored entry of P^T
below 2^-26, or an absolute term that a busy exit row of an outlet config
can make too large) every row is rerun: the kernel is then the float64 sum
alone.

A call holds the transposed operator and its float32 copy, two float32
Horner buffers and two boolean arrays, each (widest window x BLOCK) and made
once for every block to reuse, two float64 buffers sized to the rows a block
reruns, and the pattern: one bit per detected pair inside 64-bit (cell,
mask) words of 12 bytes. A block's word at cell c has bit i set when its
member i is detected at c; words with no bit set are not stored. Below
about 2.4 pairs per stored word the pattern would outgrow a boolean one of
5 bytes per pair; the shipped workloads store 3.3 to 29. Cells are uniform,
so placement scales pair counts by one volume fraction.
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


# fl(fl(x + FLUSH) - FLUSH) rounds a float32 x >= 0 to a multiple of 2^-99,
# FLUSH's ulp: below about 2^-100 it gives 0, and no nonzero result is below
# 2^-99, whose product with a stored entry of at least LEAST is a normal float
FLUSH = np.float32(2.0**-76)
LEAST = 2.0**-26


def _accumulate(p_t: CSR, steps: int, rows: np.ndarray, band: int, lo: int, hi: int, buffers):
    """Q[rows, lo:hi] transposed, by Horner's rule acc <- e + P^T acc on the
    unit columns e of `rows`, whose mass stays in [lo, hi) for `steps` steps
    as the caller guarantees, in the dtype of p_t's data and the buffers.
    Mass moves at most `band` states a step, so step j computes only the
    rows within j * band of `rows`, into the other of the two flat
    `buffers`: each product skipped would add +0.0, so acc keeps its bits.
    In float32 each step's rows are then flushed by FLUSH. Each buffer's
    first (hi - lo) * rows.size elements are zeroed and viewed as a
    contiguous block, as the product's operands must be; the returned block
    is a view of one of them."""
    sub = _compiled.submatrix(p_t, lo, hi)
    first, last = int(rows[0]) - lo, int(rows[-1]) - lo + 1
    units = (rows - lo, np.arange(rows.size))
    acc, out = (buffer[: (hi - lo) * rows.size].reshape(hi - lo, rows.size) for buffer in buffers)
    flush = acc.dtype == np.float32
    acc.fill(0.0)
    out.fill(0.0)
    acc[units] = 1.0
    for j in range(1, steps + 1):
        a, b = max(0, first - j * band), min(hi - lo, last + j * band)
        _compiled.matvecs(sub, a, b, acc, out)
        if flush:
            window = out[a:b]
            window += FLUSH
            window -= FLUSH
        acc, out = out, acc
        acc[units] += 1.0
    return acc


def _bound(p_t: CSR, steps: int) -> tuple[float, float, float]:
    """The screen's error terms (r32, r64, absolute) for m = `steps`.

    Let q be an entry of Q in exact arithmetic, q32 the screened sum and q64
    the float64 one, u = 2^-24, L the most stored entries in a row of P^T
    and R its largest row sum, floored at 1. Every operand is non-negative,
    so each rounding scales a term by a factor in [1 - u, 1 + u], and a
    product of k such factors lies in [1 - r, 1 + r] with r = (1 + u)^k - 1
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 3).
    A float32 step rounds each term at most L + 4 times: the entry's float32
    copy, its product, at most L - 1 additions, the unit add and the
    flush's two operations, so r32 = (1 + u)^(m (L + 4)) - 1. The flush
    gives fl(fl(x + C) - C) = x (1 + d1)(1 + d2) + C d1 (1 + d2), so it
    also adds at most C u (1 + u) < 2^-99 to an entry; each later step
    scales such an error by at most R (1 + u)^(L + 4), so the m steps add at
    most m 2^-99 (1 + r32) R^m. Stored entries of at least LEAST keep every
    float32 product normal, where the relative bound holds. A float64 step
    rounds at most L + 1 times, so q64 lies within the factors
    (1 - 2^-53)^(+-m (L + 2)) of q, 1 + r64 being the upper one; its
    underflows add at most 2^-1074 an operation, far less. Together, for
    r32 < 1, the absolute term (m + 1) 2^-96 R^m bounds both sums' absolute
    errors, with slack for the rounding of R and of these formulas."""
    counts = np.diff(p_t.indptr)
    terms = steps * int(counts.max(initial=0))
    r32 = float(np.expm1((terms + 4 * steps) * np.log1p(2.0**-24)))
    r64 = float(np.expm1(-(terms + 2 * steps) * np.log1p(-(2.0**-53))))
    spread = max(float(_compiled.row_sums(p_t).max(initial=0.0)), 1.0)
    log_absolute = float(np.log2(steps + 1) - 96 + steps * np.log2(spread))
    absolute = 2.0**log_absolute if log_absolute < 0.0 else np.inf
    return r32, r64, absolute


def _band(p_t: CSR, steps: int, cutoff: float):
    """The screen's float32 band (lo, hi), or None when it cannot be
    certified. By `_bound`, |q32 - q| <= r32 q + A and q64 lies in
    [q / (1 + r64) - A, (1 + r64) q + A], so q32 >= (cutoff + A)(1 + r32)
    (1 + r64) + A gives q64 >= cutoff, and q32 < (cutoff - A)(1 - r32) /
    (1 + r64) - A gives q64 < cutoff. Each edge is rounded one float32 ulp
    outward, far more than float64's rounding of the formula. The screen
    runs only when the cutoff is positive (so q64 > 0 follows), every stored
    entry of P^T is at least LEAST (NaN fails), r32 < 1, and A is below
    both 1e-6 * cutoff and 2^-32; the last keeps (m + 1) R^m, which bounds
    every entry of acc, far below float32's overflow."""
    if not cutoff > 0.0 or not p_t.data.min(initial=np.inf) >= LEAST:
        return None
    r32, r64, absolute = _bound(p_t, steps)
    if not (r32 < 1.0 and absolute < 1e-6 * cutoff and absolute < 2.0**-32):
        return None
    lo = (cutoff - absolute) * (1.0 - r32) / (1.0 + r64) - absolute
    hi = (cutoff + absolute) * (1.0 + r32) * (1.0 + r64) + absolute
    return np.nextafter(np.float32(lo), -np.inf), np.nextafter(np.float32(hi), np.inf)


def _screen(acc: np.ndarray, band, candidates: np.ndarray, detected: np.ndarray, spare: np.ndarray):
    """The columns of the float32 block acc with a candidate entry inside
    the band [lo, hi), after setting detected's leading columns to
    (acc >= hi) & candidates in place; `spare` is a flat boolean buffer
    of at least acc.size elements."""
    lo, hi = band
    sure = detected[:, : acc.shape[1]]
    unsure = spare[: acc.size].reshape(acc.shape)
    np.greater_equal(acc, hi, out=sure)
    np.greater_equal(acc, lo, out=unsure)
    unsure ^= sure  # lo <= acc < hi, as lo < hi
    unsure &= candidates[:, None]
    sure &= candidates[:, None]
    return np.flatnonzero(unsure.any(axis=0))


def _rerun(p_t: CSR, steps: int, rows, band: int, lo: int, hi: int, cutoff, candidates, hit) -> None:
    """hit = (acc > 0) & (acc >= cutoff) & candidates, in place, for acc the
    float64 Q[rows, lo:hi] transposed, summed in two float64 buffers sized
    to these rows and freed on return."""
    size = (hi - lo) * rows.size
    acc = _accumulate(p_t, steps, rows, band, lo, hi, (np.empty(size), np.empty(size)))
    np.greater_equal(acc, cutoff, out=hit)
    if not cutoff > 0.0:  # only then can acc >= cutoff hold at acc <= 0
        hit &= acc > 0.0
    hit &= candidates[:, None]


def _pack(p_t: CSR, steps: int, cutoff: float, candidates: np.ndarray, kept: np.ndarray):
    """Each block's stored cells and words, in block order after one empty
    piece of each, which keeps the joins' dtypes when no row is kept. The two
    float32 Horner buffers and the two boolean arrays are made once, sized
    for the widest window, and every block works in their leading elements:
    one block's working set is alive at a time, and all of it is freed on
    return."""
    n = p_t.shape[0]
    band = _bandwidth(p_t)
    reach = steps * band
    blocks = [kept[start : start + BLOCK] for start in range(0, kept.size, BLOCK)]
    windows = [(max(0, int(b[0]) - reach), min(n, int(b[-1]) + reach + 1)) for b in blocks]
    size = max((hi - lo for lo, hi in windows), default=0) * BLOCK
    screen = _band(p_t, steps, cutoff)
    if screen is not None:
        single = CSR(p_t.indptr, p_t.indices, p_t.data.astype(np.float32), p_t.shape)
        # each buffer its own allocation: one shared allocation raised peak RSS
        buffers = np.empty(size, dtype=np.float32), np.empty(size, dtype=np.float32)
    hit, spare = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    cells, words = [np.empty(0, dtype=np.int32)], [np.empty(0, dtype=np.uint64)]
    for block, (lo, hi) in zip(blocks, windows):
        detected = hit[: (hi - lo) * BLOCK].reshape(hi - lo, BLOCK)
        if screen is None:
            rows = np.arange(block.size)
        else:
            acc = _accumulate(single, steps, block, band, lo, hi, buffers)
            rows = _screen(acc, screen, candidates[lo:hi], detected, spare)
        if rows.size:
            exact = spare[: (hi - lo) * rows.size].reshape(hi - lo, rows.size)
            _rerun(p_t, steps, block[rows], band, lo, hi, cutoff, candidates[lo:hi], exact)
            detected[:, rows] = exact
        detected[:, block.size :] = False
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
