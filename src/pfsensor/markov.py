"""Discrete transfer operator: flux-built Markov matrices and propagation.

The operator is assembled cell by cell from donor-cell (upwind) advective
fluxes and central diffusive fluxes, so every off-diagonal entry is a
non-negative transfer probability and every row sums to one. Domain
boundaries are closed by default; sides marked as outlets route their
advective outflow into one extra absorbing exit state appended after the
grid states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .flowfield import FlowScenario

# the domain sides that `outlets` may name
SIDES = ("x-", "x+", "y-", "y+", "z-", "z+")


class StabilityError(ValueError):
    """Markov step too large for the flux rates; carries the largest stable step."""

    def __init__(self, dt: float, admissible_dt: float):
        super().__init__(
            f"dt = {dt} violates the stability bound; "
            f"largest admissible dt = {admissible_dt}"
        )
        self.admissible_dt = float(admissible_dt)


@dataclass(frozen=True, eq=False)
class MarkovMatrix:
    """`build_markov`'s result: the row-stochastic transition matrix over the
    grid states, which every consumer takes on its own. It stays a record
    because perfbench's trace counts `markov.nnz` from `result.matrix`."""

    matrix: sparse.csr_array


def _outflow_rates(
    scenario: FlowScenario, outlets: frozenset[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Off-diagonal volumetric transfer rates (volume/second).

    Returns COO triplets (rows, cols, rates) and the matrix size, which is
    N + 1 when any side is an outlet (the extra absorbing exit state, index
    N). Advective rates use the upwind side of the two-point face mean;
    diffusive rates are D * A_face / center distance.
    """
    field = scenario.field
    grid = field.grid
    dx, dy, dz = grid.spacing
    n = grid.n_states
    shape = grid.dims[::-1]
    # int32 indices: config caps cells plus the exit state at 2**31 - 1
    state = np.arange(n, dtype=np.int32).reshape(shape)  # [l, j, i], x fastest
    # per axis: array axis, velocity component, face area, center distance
    axes = {
        "x": (2, field.u.reshape(shape), dy * dz, dx),
        "y": (1, field.v.reshape(shape), dx * dz, dy),
        "z": (0, field.w.reshape(shape), dx * dy, dz),
    }

    def cut(ax: int, index) -> tuple:
        sl = [slice(None)] * 3
        sl[ax] = index
        return tuple(sl)

    rows, cols, rates = [], [], []
    for ax, comp, area, dist in axes.values():
        if state.shape[ax] < 2:
            continue
        lo, hi = cut(ax, slice(0, -1)), cut(ax, slice(1, None))
        k_lo, k_hi = state[lo].ravel(), state[hi].ravel()
        u_face = 0.5 * (comp[lo].ravel() + comp[hi].ravel())
        g = scenario.diffusivity * area / dist
        rows += [k_lo, k_hi]
        cols += [k_hi, k_lo]
        rates += [np.maximum(u_face, 0.0) * area + g, np.maximum(-u_face, 0.0) * area + g]

    for side in sorted(outlets):
        ax, comp, area, _ = axes[side[0]]
        sl = cut(ax, -1 if side[1] == "+" else 0)
        k_bnd = state[sl].ravel()
        outward = comp[sl].ravel() if side[1] == "+" else -comp[sl].ravel()
        rows.append(k_bnd)
        cols.append(np.full(k_bnd.shape, n, dtype=np.int32))
        rates.append(np.maximum(outward, 0.0) * area)

    size = n + bool(outlets)
    if rows:
        return np.concatenate(rows), np.concatenate(cols), np.concatenate(rates), size
    empty = np.empty(0, dtype=np.int32)
    return empty, empty, np.empty(0), size


def _admissible(rows: np.ndarray, rates: np.ndarray, size: int, volume: float) -> float:
    """The cell volume over the largest summed outgoing rate, inf when nothing
    moves. A Python float division: a subnormal peak gives inf, not a warning."""
    peak = np.bincount(rows, weights=rates, minlength=size).max()
    return volume / float(peak) if peak > 0.0 else float("inf")


def admissible_dt(scenario: FlowScenario, outlets: frozenset[str] = frozenset()) -> float:
    """Largest Markov step for which every diagonal entry stays non-negative:
    min over cells of V / (sum of the cell's outgoing volumetric rates), from
    the rates alone, so no operator is assembled. inf when nothing moves."""
    rows, _, rates, size = _outflow_rates(scenario, outlets)
    return _admissible(rows, rates, size, scenario.field.grid.cell_volume)


def build_markov(
    scenario: FlowScenario, dt: float, outlets: frozenset[str] = frozenset()
) -> MarkovMatrix:
    """Assemble the one-step transition matrix for a flow scenario, with an
    absorbing exit state after the cells when `outlets` names any side.

    Raises StabilityError carrying `admissible_dt` when dt exceeds it, so a
    rebuild at the reported step always succeeds. At a dt within the bound,
    rows whose off-diagonal sum still exceeds 1 by rounding (at most 1e-12
    at normal rates) are rescaled to sum to 1.
    """
    # before any arithmetic: a NaN or infinite dt would build NaN entries
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    rows, cols, rates, size = _outflow_rates(scenario, outlets)
    vol = scenario.field.grid.cell_volume
    bound = _admissible(rows, rates, size, vol)
    if dt > bound:
        raise StabilityError(dt, bound)

    scale = dt / vol
    # near-zero (subnormal) rates admit a dt so large that dt / vol overflows;
    # dividing the rates first keeps their probabilities finite
    probs = rates * scale if np.isfinite(scale) else rates / vol * dt
    off = sparse.coo_array((probs, (rows, cols)), shape=(size, size)).tocsr()
    off.sum_duplicates()
    # the exit row holds no off-diagonal entry: its sum is 0 and its diagonal 1
    row_sum = np.asarray(off.sum(axis=1)).ravel()

    hot = np.flatnonzero(row_sum > 1.0)
    if hot.size:
        scale = np.ones(size)
        scale[hot] = 1.0 / row_sum[hot]
        off = sparse.csr_array(sparse.diags_array(scale) @ off)
        row_sum[hot] = 1.0

    matrix = sparse.csr_array(off + sparse.diags_array(1.0 - row_sum))
    return MarkovMatrix(matrix=matrix)


def propagate(phi: np.ndarray, matrix: sparse.csr_array, steps: int) -> np.ndarray:
    """Apply phi <- phi P for the given number of steps, as phi <- P^T phi
    with P^T copied to CSR once, so each step is a row-wise product that sums
    every entry in ascending source order, as phi P itself does.

    With an exit-state operator (one state more than phi) the concentration
    vector is padded with a zero exit entry and the returned vector keeps
    only the grid states; mass absorbed at the outlet simply leaves the domain.
    """
    n_grid = phi.size
    n_op = matrix.shape[0]
    if n_op not in (n_grid, n_grid + 1):
        raise ValueError(f"operator size {n_op} does not match grid with {n_grid} states")

    vec = phi.astype(float, copy=True)
    if n_op == n_grid + 1:
        vec = np.append(vec, 0.0)
    p_t = sparse.csr_array(matrix.T)
    for _ in range(steps):
        vec = p_t @ vec
    return vec[:n_grid]

