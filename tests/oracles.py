"""Reference functions the tests share and the program never calls.

``admissible_dt`` is the oracle for the admissible step that
``markov.StabilityError`` carries and for the step bound ``pde.solve_pde``
checks.
``scipy_csr`` views a CSR record as a scipy CSR array, so that
``scipy.sparse`` stays the oracle for the records the package builds.
``assert_row_stochastic`` checks a built operator's invariants.
``unpack_pattern`` reads a detection pattern's (kept, masks) pair back as a
dense boolean matrix, checking the record's invariants on the way, and
``pack_pattern`` writes a dense boolean matrix as such a pair, with plain
shifts and sums rather than the kernel's ``np.packbits``.
``PoleDensity`` is a density that QUADPACK cannot integrate.
``ReferenceGaussian`` is the single normal density, computed operation for
operation as the package did before one Gaussian mixture served both
distributions: the bitwise oracle for ``uncertainty.gaussian``'s rules.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from pfsensor._compiled import CSR
from pfsensor.flowfield import VelocityField
from pfsensor.grid import StructuredGrid
from pfsensor.markov import _outflow_rates


def zero_field(grid: StructuredGrid) -> VelocityField:
    n = grid.n_states
    return VelocityField(grid, np.zeros(n), np.zeros(n), np.zeros(n))


def admissible_dt(
    field: VelocityField, diffusivity: float, outlets: frozenset[str] = frozenset()
) -> float:
    """Largest Markov step for which every diagonal entry stays non-negative:
    min_i V_i / (sum of outgoing volumetric rates of cell i).

    Returns inf when nothing moves (zero velocity and zero diffusivity).
    """
    grid = field.grid
    pieces, size = _outflow_rates(field, diffusivity, outlets)
    rows, _, rates = map(np.concatenate, zip(*pieces))
    total = np.zeros(size)
    np.add.at(total, rows, rates)
    total = total[: grid.n_states]  # exit state has no outflow
    peak = total.max() if total.size else 0.0
    if peak <= 0.0:
        return float("inf")
    # a Python float division: a subnormal peak gives inf, not a warning
    return grid.cell_volume / float(peak)


def scipy_csr(matrix) -> sparse.csr_array:
    """The scipy CSR array over a CSR record's arrays (or a scipy CSR
    array's own)."""
    return sparse.csr_array((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)


WORD = 64  # release rows per mask word
SHIFTS = np.arange(WORD, dtype=np.uint64)


def unpack_pattern(kept, masks) -> np.ndarray:
    """The dense boolean detection matrix, by release state and sensor
    column, of a (kept, masks) pair: bit i of the word at (b, c) marks the
    pair (kept[64 b + i], c). Asserts int32 ascending `kept`, int32 indices
    ascending in each row, uint64 words, no zero word stored, one row per
    block of 64 kept states and no bit past the last of them."""
    n = masks.shape[1]
    blocks = -(-kept.size // WORD)
    assert kept.dtype == np.int32 and np.all(np.diff(kept) > 0)
    assert masks.shape == (blocks, n) and masks.indptr.size == blocks + 1
    assert masks.indices.dtype == np.int32 and masks.data.dtype == np.uint64
    assert masks.indptr[0] == 0 and np.all(masks.data != 0)
    dense = np.zeros((n, n), dtype=bool)
    for b in range(blocks):
        cells = masks.indices[masks.indptr[b] : masks.indptr[b + 1]]
        assert np.all(np.diff(cells) > 0) and np.all((cells >= 0) & (cells < n))
        words = masks.data[masks.indptr[b] : masks.indptr[b + 1]]
        bits = ((words[:, None] >> SHIFTS) & np.uint64(1)).astype(bool)  # (cells, 64)
        members = kept[b * WORD : (b + 1) * WORD]
        assert not bits[:, members.size :].any(), "a bit past the last kept state"
        dense[np.ix_(members, cells)] = bits[:, : members.size].T
    return dense


def pack_pattern(dense) -> tuple[np.ndarray, CSR]:
    """The (kept, masks) pair of a dense boolean detection matrix by release
    state and sensor column, every state kept: the word at (b, c) has bit i
    set when dense[64 b + i, c] holds, and zero words are not stored."""
    dense = np.asarray(dense, dtype=bool)
    n = dense.shape[1]
    kept = np.arange(dense.shape[0], dtype=np.int32)
    blocks = -(-kept.size // WORD)
    bits = np.zeros((blocks * WORD, n), dtype=np.uint64)
    bits[: kept.size] = dense
    words = (bits.reshape(blocks, WORD, n) << SHIFTS[:, None]).sum(axis=1, dtype=np.uint64)
    rows, cols = np.nonzero(words)
    indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=blocks))].astype(np.int32)
    return kept, CSR(indptr, cols.astype(np.int32), words[rows, cols], (blocks, n))


def assert_row_stochastic(matrix) -> None:
    """Every stored entry lies in [0, 1], so a NaN fails, and every row sums
    to 1 within 1e-12, summed entry by entry in row order."""
    coo = scipy_csr(matrix).tocoo()
    assert np.all((coo.data >= 0.0) & (coo.data <= 1.0)), "entries outside [0, 1]"
    sums = np.bincount(coo.coords[0], weights=coo.data, minlength=coo.shape[0])
    assert np.abs(sums - 1.0).max() <= 1e-12, f"row sums drift by {np.abs(sums - 1.0).max()}"


class PoleDensity:
    """1 / |x - 1/3| on [0, 1]: a pole inside the support, so the first
    integral the inverse CDF takes, over [0, 0.5], fails with ier = 3."""

    support = (0.0, 1.0)

    def pdf(self, x: float) -> float:
        return 1.0 / abs(x - 1.0 / 3.0) if 0.0 <= x <= 1.0 else 0.0


@dataclass(frozen=True)
class ReferenceGaussian:
    """Normal density truncated to mu +- 5 sigma (tail mass ~6e-7)."""

    mu: float
    sigma: float

    @cached_property
    def support(self) -> tuple[float, float]:
        return (self.mu - 5.0 * self.sigma, self.mu + 5.0 * self.sigma)

    def _raw_pdf(self, x):
        z = (x - self.mu) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))

    @cached_property
    def _norm(self) -> float:
        lo, hi = self.support
        a = (lo - self.mu) / (self.sigma * math.sqrt(2.0))
        b = (hi - self.mu) / (self.sigma * math.sqrt(2.0))
        return 0.5 * (math.erf(b) - math.erf(a))

    def pdf(self, x: float) -> float:
        lo, hi = self.support
        x = np.float64(x)
        return float(self._raw_pdf(x) / self._norm) if lo <= x <= hi else 0.0
