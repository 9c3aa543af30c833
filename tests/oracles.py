"""Reference functions the tests share and the program never calls.

``admissible_dt`` is the oracle for the admissible step that
``markov.StabilityError`` carries and for ``pde.stable_step``.
``PoleDensity`` is a density that QUADPACK cannot integrate.
"""

import numpy as np

from pfsensor.flowfield import FlowScenario, VelocityField
from pfsensor.grid import StructuredGrid
from pfsensor.markov import CLOSED, BoundarySpec, _outflow_rates
from pfsensor.uncertainty import Distribution


def zero_field(grid: StructuredGrid) -> VelocityField:
    n = grid.n_states
    return VelocityField(grid, np.zeros(n), np.zeros(n), np.zeros(n))


def admissible_dt(scenario: FlowScenario, boundaries: BoundarySpec = CLOSED) -> float:
    """Largest Markov step for which every diagonal entry stays non-negative:
    min_i V_i / (sum of outgoing volumetric rates of cell i).

    Returns inf when nothing moves (zero velocity and zero diffusivity).
    """
    grid = scenario.field.grid
    rows, _, rates, size = _outflow_rates(scenario, boundaries)
    total = np.zeros(size)
    np.add.at(total, rows, rates)
    total = total[: grid.n_states]  # exit state has no outflow
    peak = total.max() if total.size else 0.0
    if peak <= 0.0:
        return float("inf")
    # a Python float division: a subnormal peak gives inf, not a warning
    return grid.cell_volume / float(peak)


class PoleDensity(Distribution):
    """1 / |x - 1/3| on [0, 1]: a pole inside the support, so the first
    integral the inverse CDF takes, over [0, 0.5], fails with ier = 3."""

    support = (0.0, 1.0)

    def _raw_pdf(self, x):
        return 1.0 / abs(x - 1.0 / 3.0)

    def _raw_mass(self) -> float:
        return 1.0
