"""Independent finite-volume advection-diffusion solver used to validate
Markov-operator transport.

The solver marches the semi-discrete cell balance explicitly with donor-cell
advective fluxes and central diffusive fluxes on the closed box, the same
physics the operator builder encodes, but implemented directly on stencil
arrays so the two paths share no code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flowfield import FlowScenario
from .markov import ConcentrationField, MarkovMatrix, build_markov, propagate


@dataclass(frozen=True)
class PdeConfig:
    """Explicit-solver controls. cfl_target is the fraction of the positivity
    step bound to run at; fixed_step forces an exact step size instead (for
    matched-discretization comparisons) and must itself be stable."""

    end_time: float
    cfl_target: float = 0.45
    fixed_step: float | None = None

    def __post_init__(self) -> None:
        if self.end_time <= 0.0:
            raise ValueError(f"end_time must be positive, got {self.end_time}")
        if not 0.0 < self.cfl_target <= 0.5:
            raise ValueError(f"cfl_target must lie in (0, 0.5], got {self.cfl_target}")
        if self.fixed_step is not None and self.fixed_step <= 0.0:
            raise ValueError(f"fixed_step must be positive, got {self.fixed_step}")


class PdeStabilityError(ValueError):
    """Requested step violates the explicit stability bound."""

    def __init__(self, step: float, admissible: float):
        super().__init__(
            f"step {step} exceeds the stable explicit step; "
            f"largest admissible step = {admissible}"
        )
        self.admissible_step = admissible


def _face_rates(scenario: FlowScenario):
    """Per-axis face quantities for the stencil update.

    Returns a list of (lo, hi, u_face, area, diff_rate) per axis with
    interior faces: lo and hi index the cells below and above each face, and
    u_face holds the two-point mean velocity on those faces.
    """
    grid = scenario.field.grid
    nx, ny, nz = grid.dims
    dx, dy, dz = grid.spacing
    comps = {
        2: scenario.field.u.reshape(nz, ny, nx),
        1: scenario.field.v.reshape(nz, ny, nx),
        0: scenario.field.w.reshape(nz, ny, nx),
    }
    area = {2: dy * dz, 1: dx * dz, 0: dx * dy}
    dist = {2: dx, 1: dy, 0: dz}
    faces = []
    for ax in (2, 1, 0):
        if comps[ax].shape[ax] < 2:
            continue
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[ax] = slice(0, -1)
        hi[ax] = slice(1, None)
        lo, hi = tuple(lo), tuple(hi)
        u_face = 0.5 * (comps[ax][lo] + comps[ax][hi])
        diff_rate = scenario.diffusivity * area[ax] / dist[ax]
        faces.append((lo, hi, u_face, area[ax], diff_rate))
    return faces


def stable_step(scenario: FlowScenario) -> float:
    """Largest explicit step keeping the update non-negative: the cell volume
    over the summed outgoing advective and diffusive rates, minimized over
    cells. Infinite when nothing moves."""
    grid = scenario.field.grid
    nx, ny, nz = grid.dims
    out_rate = np.zeros((nz, ny, nx))
    for lo, hi, u_face, area, diff_rate in _face_rates(scenario):
        out_rate[lo] += np.maximum(u_face, 0.0) * area + diff_rate
        out_rate[hi] += np.maximum(-u_face, 0.0) * area + diff_rate
    peak = out_rate.max()
    if peak <= 0.0:
        return math.inf
    return grid.cell_volume / peak


def solve_pde(
    scenario: FlowScenario, phi0: ConcentrationField, cfg: PdeConfig
) -> ConcentrationField:
    """March the advection-diffusion balance to cfg.end_time on the closed box."""
    grid = scenario.field.grid
    if phi0.grid != grid:
        raise ValueError("initial field grid does not match scenario grid")
    nx, ny, nz = grid.dims
    vol = grid.cell_volume

    bound = stable_step(scenario)
    if cfg.fixed_step is not None:
        if cfg.fixed_step > bound:
            raise PdeStabilityError(cfg.fixed_step, bound)
        step = cfg.fixed_step
        n_steps = round(cfg.end_time / step)
        if abs(n_steps * step - cfg.end_time) > 1e-9 * cfg.end_time or n_steps < 1:
            raise ValueError(
                f"fixed_step {step} does not divide end_time {cfg.end_time}"
            )
    else:
        target = cfg.cfl_target * bound
        if not math.isfinite(target):
            n_steps = 1
        else:
            n_steps = max(1, math.ceil(cfg.end_time / target))
        step = cfg.end_time / n_steps

    # the donor-cell velocity split is a loop invariant
    stencil = [
        (lo, hi, np.maximum(u_face, 0.0), np.minimum(u_face, 0.0), area, diff_rate)
        for lo, hi, u_face, area, diff_rate in _face_rates(scenario)
    ]
    phi = phi0.values.reshape(nz, ny, nx).astype(float, copy=True)
    delta = np.empty_like(phi)

    coef = step / vol
    for _ in range(n_steps):
        delta.fill(0.0)
        for lo, hi, u_out, u_in, area, diff_rate in stencil:
            phi_lo = phi[lo]
            phi_hi = phi[hi]
            # mass per second through each interior face, positive lo -> hi
            flux = u_out * phi_lo
            flux += u_in * phi_hi
            flux *= area
            dif = phi_lo - phi_hi
            dif *= diff_rate
            flux += dif
            delta[lo] -= flux
            delta[hi] += flux
        delta *= coef
        phi += delta
    # a marginally stable step can leave -1 ulp residue where the exact
    # update is zero; anything larger is a genuine scheme failure
    floor = -1e-10 * max(1.0, float(np.abs(phi).max()))
    if phi.min() < floor:
        raise RuntimeError(f"solver produced negative concentration {phi.min()}")
    np.maximum(phi, 0.0, out=phi)
    return ConcentrationField(grid, phi.ravel().copy())


def compare_transport(
    scenario: FlowScenario,
    phi0: ConcentrationField,
    steps: int,
    dt: float,
    cfl_target: float = 0.45,
    fixed_step: float | None = None,
) -> float:
    """Relative L2 distance between operator-propagated and PDE-solved
    concentration after the same horizon steps * dt."""
    return compare_operator(
        scenario, build_markov(scenario, dt), phi0, steps, cfl_target, fixed_step
    )


def compare_operator(
    scenario: FlowScenario,
    operator: MarkovMatrix,
    phi0: ConcentrationField,
    steps: int,
    cfl_target: float = 0.45,
    fixed_step: float | None = None,
) -> float:
    """compare_transport for an operator already built for the scenario on
    the closed box: the horizon is steps * operator.dt."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    phi_markov = propagate(phi0, operator, steps)
    cfg = PdeConfig(end_time=steps * operator.dt, cfl_target=cfl_target, fixed_step=fixed_step)
    phi_pde = solve_pde(scenario, phi0, cfg)
    ref = float(np.linalg.norm(phi_pde.values))
    if ref == 0.0:
        return float(np.linalg.norm(phi_markov.values))
    return float(np.linalg.norm(phi_markov.values - phi_pde.values)) / ref
