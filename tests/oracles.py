"""Reference functions the tests share and the program never calls.

``admissible_dt`` is the oracle for the admissible step that
``markov.StabilityError`` carries and for ``pde.stable_step``.
"""

import numpy as np

from pfsensor.flowfield import FlowScenario, VelocityField
from pfsensor.grid import StructuredGrid
from pfsensor.markov import CLOSED, BoundarySpec, _outflow_rates


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
    return float(grid.cell_volume / peak)
