"""Reference functions the tests share and the program never calls.

``admissible_dt`` is the oracle for the admissible step that
``markov.StabilityError`` carries and for the step bound ``pde.solve_pde``
checks.
``scipy_csr`` views a CSR record as a scipy CSR array, so that
``scipy.sparse`` stays the oracle for the records the package builds.
``assert_row_stochastic`` checks a built operator's invariants.
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
    rows, _, rates, size = _outflow_rates(field, diffusivity, outlets)
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
    array's own); its transpose is a detection pattern's CSC array."""
    return sparse.csr_array((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)


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
