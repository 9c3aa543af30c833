"""Independent finite-volume advection-diffusion solver used to validate
Markov-operator transport.

The solver marches the semi-discrete cell balance explicitly with donor-cell
advective fluxes and central diffusive fluxes on the closed box, the same
physics the operator builder encodes. It computes its own face rates and
lays them out as the diagonals of one DIA matrix per scenario, the stepper,
so the two paths share no code: each explicit step is one product with the
stepper.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse

from .flowfield import FlowScenario
from .markov import StabilityError, propagate


def _face_rates(scenario: FlowScenario):
    """Per-axis transfer rates (volume/second) across interior faces.

    Returns a list of (lo, hi, stride, up, down) per axis with interior
    faces: lo and hi index the cells below and above each face, stride is
    the flat-state distance between them, and up and down are the lo -> hi
    and hi -> lo rates, donor-cell advection by the two-point mean face
    velocity plus central diffusion.
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
    stride = {2: 1, 1: nx, 0: nx * ny}
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
        up = np.maximum(u_face, 0.0) * area[ax] + diff_rate
        down = np.maximum(-u_face, 0.0) * area[ax] + diff_rate
        faces.append((lo, hi, stride[ax], up, down))
    return faces


def _out_rate(grid, faces) -> np.ndarray:
    """Summed outgoing rate of each cell, shaped (nz, ny, nx)."""
    nx, ny, nz = grid.dims
    out_rate = np.zeros((nz, ny, nx))
    for lo, hi, _, up, down in faces:
        out_rate[lo] += up
        out_rate[hi] += down
    return out_rate


def stable_step(scenario: FlowScenario) -> float:
    """Largest explicit step keeping the update non-negative: the cell volume
    over the summed outgoing advective and diffusive rates, minimized over
    cells. Infinite when nothing moves."""
    grid = scenario.field.grid
    peak = _out_rate(grid, _face_rates(scenario)).max()
    if peak <= 0.0:
        return math.inf
    return grid.cell_volume / peak


def _stepper(scenario: FlowScenario, step: float) -> sparse.dia_array:
    """The explicit update phi <- S phi over one step, as a DIA matrix whose
    diagonals are the stencil arrays. Column k of the diagonal at offset
    -stride (+stride) holds what cell k sends to its upper (lower) neighbour
    along that axis; the main diagonal is what each cell keeps."""
    grid = scenario.field.grid
    nx, ny, nz = grid.dims
    coef = step / grid.cell_volume
    faces = _face_rates(scenario)
    data = np.zeros((1 + 2 * len(faces), nz, ny, nx))
    data[0] = 1.0 - coef * _out_rate(grid, faces)
    offsets = [0]
    for d, (lo, hi, stride, up, down) in enumerate(faces):
        data[2 * d + 1][lo] = coef * up
        data[2 * d + 2][hi] = coef * down
        offsets += [-stride, stride]
    n = grid.n_states
    return sparse.dia_array((data.reshape(len(data), n), offsets), shape=(n, n))


def solve_pde(scenario: FlowScenario, phi0: np.ndarray, step: float, n_steps: int) -> np.ndarray:
    """March the advection-diffusion balance n_steps explicit steps of size
    step on the closed box: the step's stencil is assembled once as a DIA
    matrix, and each step is one product with it. A step over stable_step
    raises StabilityError."""
    n = scenario.field.grid.n_states
    if phi0.shape != (n,):
        raise ValueError(f"initial field has shape {phi0.shape}, expected ({n},)")
    if not step > 0.0 or n_steps < 1:
        raise ValueError(f"need step > 0 and n_steps >= 1, got {step} and {n_steps}")
    bound = stable_step(scenario)
    if step > bound:
        raise StabilityError(step, bound)

    stepper = _stepper(scenario, step)
    phi = phi0.astype(float, copy=True)
    for _ in range(n_steps):
        phi = stepper @ phi
    # a marginally stable step can leave -1 ulp residue where the exact
    # update is zero; anything larger is a genuine scheme failure
    floor = -1e-10 * max(1.0, float(np.abs(phi).max()))
    if phi.min() < floor:
        raise RuntimeError(f"solver produced negative concentration {phi.min()}")
    np.maximum(phi, 0.0, out=phi)
    return phi


def compare_operator(
    scenario: FlowScenario,
    matrix: sparse.csr_array,
    dt: float,
    phi0: np.ndarray,
    steps: int,
    substeps: int,
) -> float:
    """Relative L2 distance between the concentration an operator matrix
    built for the scenario on the closed box at step dt propagates over
    steps operator steps and the PDE reference, which marches substeps steps
    of dt / substeps per operator step."""
    if steps < 1 or substeps < 1:
        raise ValueError(f"steps and substeps must be >= 1, got {steps} and {substeps}")
    phi_markov = propagate(phi0, matrix, steps)
    phi_pde = solve_pde(scenario, phi0, dt / substeps, steps * substeps)
    ref = float(np.linalg.norm(phi_pde))
    if ref == 0.0:
        return float(np.linalg.norm(phi_markov))
    return float(np.linalg.norm(phi_markov - phi_pde)) / ref
