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

from . import _compiled
from ._compiled import CSR
from .flowfield import VelocityField


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

    matrix: CSR


def _outflow_rates(
    field: VelocityField, diffusivity: float, outlets: frozenset[str]
) -> tuple[list[tuple[np.ndarray, np.ndarray, np.ndarray]], int]:
    """Off-diagonal volumetric transfer rates (volume/second).

    Returns COO triplets (rows, cols, rates) in pieces, one per face direction
    of an axis or outlet side, none holding a row twice, and the matrix size,
    N + 1 when any side is an outlet (absorbing exit state N). Advective rates
    use the upwind side of the face mean; diffusive ones D * A_face / distance.
    """
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

    pieces = []
    for ax, comp, area, dist in axes.values():
        # a one-cell axis has no interior face: its slices are empty
        lo, hi = cut(ax, slice(0, -1)), cut(ax, slice(1, None))
        k_lo, k_hi = state[lo].ravel(), state[hi].ravel()
        u_face = 0.5 * (comp[lo].ravel() + comp[hi].ravel())
        g = diffusivity * area / dist
        pieces.append((k_lo, k_hi, np.maximum(u_face, 0.0) * area + g))
        pieces.append((k_hi, k_lo, np.maximum(-u_face, 0.0) * area + g))

    for side in sorted(outlets):
        ax, comp, area, _ = axes[side[0]]
        sl = cut(ax, -1 if side[1] == "+" else 0)
        k_bnd = state[sl].ravel()
        outward = comp[sl].ravel() if side[1] == "+" else -comp[sl].ravel()
        exits = np.full(k_bnd.shape, n, dtype=np.int32)
        pieces.append((k_bnd, exits, np.maximum(outward, 0.0) * area))

    return pieces, n + bool(outlets)


def _admissible(pieces, size: int, volume: float) -> float:
    """The cell volume over the largest summed outgoing rate, inf when nothing
    moves; no row repeats in a piece, so the summed bincounts have the bits of
    one over all. A Python float division: a subnormal peak gives inf."""
    peak = sum(np.bincount(rows, weights=rates, minlength=size) for rows, _, rates in pieces).max()
    return volume / float(peak) if peak > 0.0 else float("inf")


def admissible_dt(
    field: VelocityField, diffusivity: float, outlets: frozenset[str] = frozenset()
) -> float:
    """Largest Markov step for which every diagonal entry stays non-negative:
    min over cells of V / (sum of the cell's outgoing volumetric rates), from
    the rates alone, so no operator is assembled. inf when nothing moves."""
    return _admissible(*_outflow_rates(field, diffusivity, outlets), field.grid.cell_volume)


def build_markov(
    field: VelocityField, diffusivity: float, dt: float, outlets: frozenset[str] = frozenset()
) -> MarkovMatrix:
    """Assemble the one-step transition matrix for a velocity field and a
    diffusivity, with an absorbing exit state after the cells when `outlets`
    names any side.

    Raises StabilityError carrying `admissible_dt` when dt exceeds it, so a
    rebuild at the reported step always succeeds. At a dt within the bound,
    rows whose off-diagonal sum still exceeds 1 by rounding (at most 1e-12
    at normal rates) are rescaled to sum to 1.
    """
    # before any arithmetic: a NaN or infinite dt would build NaN entries
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    pieces, size = _outflow_rates(field, diffusivity, outlets)
    vol = field.grid.cell_volume
    bound = _admissible(pieces, size, vol)
    if dt > bound:
        raise StabilityError(dt, bound)
    rows, cols, rates = map(np.concatenate, zip(*pieces))
    del pieces  # so assembly never holds the triplets twice

    scale = dt / vol
    # near-zero (subnormal) rates admit a dt so large that dt / vol overflows;
    # dividing the rates first keeps their probabilities finite
    if not np.isfinite(scale):
        rates /= vol
        scale = dt
    rates *= scale
    off = _compiled.from_coo(rows, cols, rates, (size, size))
    del rows, cols, rates  # the record holds its own copies
    # the exit row holds no off-diagonal entry: its sum is 0 and its diagonal 1
    row_sum = _compiled.row_sums(off)

    hot = np.flatnonzero(row_sum > 1.0)
    if hot.size:
        scale = np.ones(size)
        scale[hot] = 1.0 / row_sum[hot]
        # the one multiply per entry that a diagonal product makes; indices stay sorted
        off.data[:] *= np.repeat(scale, np.diff(off.indptr))
        row_sum[hot] = 1.0

    return MarkovMatrix(matrix=_compiled.add(off, _compiled.diagonal(1.0 - row_sum)))


def propagate(phi: np.ndarray, matrix: CSR, steps: int) -> np.ndarray:
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

    vec = np.zeros(n_op)
    vec[:n_grid] = phi
    p_t = _compiled.transpose(matrix)
    for _ in range(steps):
        vec = _compiled.matvec(p_t, vec)
    return vec[:n_grid]

