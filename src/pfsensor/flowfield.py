"""Velocity fields per flow scenario: file I/O and synthetic analytic families."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import StructuredGrid

FIELD_MAGIC = "# pfsensor-field v1"


class FieldFormatError(ValueError):
    """Raised when a field file cannot be parsed; message names the offending line."""


@dataclass(frozen=True, eq=False)
class VelocityField:
    """Cell-centered velocity components on a structured grid, in m/s."""

    grid: StructuredGrid
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        n = self.grid.n_states
        for name, comp in (("u", self.u), ("v", self.v), ("w", self.w)):
            if comp.shape != (n,):
                raise ValueError(f"component {name} has shape {comp.shape}, expected ({n},)")
            if not np.all(np.isfinite(comp)):
                raise ValueError(f"component {name} contains non-finite values")


@dataclass(frozen=True)
class FlowScenario:
    """One flow realization: a velocity field with diffusivity and its
    sample value / probability weight in the uncertainty ensemble."""

    field: VelocityField
    diffusivity: float = 0.0
    sample_value: float = 0.0
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.diffusivity < 0.0:
            raise ValueError(f"diffusivity must be >= 0, got {self.diffusivity}")
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"weight must lie in [0, 1], got {self.weight}")


def zero_field(grid: StructuredGrid) -> VelocityField:
    n = grid.n_states
    return VelocityField(grid, np.zeros(n), np.zeros(n), np.zeros(n))


def synth_recirculating(grid: StructuredGrid, strength: float) -> VelocityField:
    """Single-vortex recirculating flow from the stream function
    ``psi = sin(pi x / Lx) * sin(pi y / Ly)`` scaled by ``strength``.

    The field is divergence-free with zero normal velocity on the domain
    boundary, so a closed-box transport operator conserves mass exactly.
    Linearity in ``strength`` is exact in floating point: the unit field is
    evaluated once and scaled by a single multiply.
    """
    nx, ny, nz = grid.dims
    if nz != 1:
        raise ValueError(f"recirculating family is 2D only (nz = 1), got nz = {nz}")
    if not math.isfinite(strength):
        raise ValueError(f"strength must be finite, got {strength}")
    lx, ly, _ = grid.extent()
    centers = grid.cell_centers()
    x = centers[:, 0] - grid.origin[0]
    y = centers[:, 1] - grid.origin[1]
    # u = d(psi)/dy, v = -d(psi)/dx
    u_unit = (math.pi / ly) * np.sin(math.pi * x / lx) * np.cos(math.pi * y / ly)
    v_unit = -(math.pi / lx) * np.cos(math.pi * x / lx) * np.sin(math.pi * y / ly)
    zero = np.zeros(grid.n_states)
    return VelocityField(grid, strength * u_unit, strength * v_unit, zero)


def save_field(path, field_: VelocityField) -> None:
    """Write a field file; floats use shortest round-trip formatting so a
    save/load cycle reproduces values bitwise."""
    grid = field_.grid
    lines = [FIELD_MAGIC]
    lines.append("{} {} {}".format(*grid.dims))
    lines.append("{!r} {!r} {!r}".format(*(float(s) for s in grid.spacing)))
    lines.append("{!r} {!r} {!r}".format(*(float(o) for o in grid.origin)))
    for uu, vv, ww in zip(field_.u, field_.v, field_.w):
        lines.append(f"{float(uu)!r} {float(vv)!r} {float(ww)!r}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def save_scalar_field(path, grid: StructuredGrid, values: np.ndarray) -> None:
    """Write a per-state scalar (e.g. a coverage map) in the field-file
    format, with the scalar in the first component and zeros elsewhere."""
    n = grid.n_states
    values = np.asarray(values, dtype=float)
    if values.shape != (n,):
        raise ValueError(f"scalar field has shape {values.shape}, expected ({n},)")
    save_field(path, VelocityField(grid, values, np.zeros(n), np.zeros(n)))


def _parse_floats(path, lineno: int, line: str, count: int) -> list[float]:
    parts = line.split()
    if len(parts) != count:
        raise FieldFormatError(
            f"{path}:{lineno}: expected {count} values, found {len(parts)}"
        )
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise FieldFormatError(f"{path}:{lineno}: unparseable number in {line!r}") from None
    if not all(math.isfinite(x) for x in values):
        raise FieldFormatError(f"{path}:{lineno}: non-finite value in {line!r}")
    return values


def load_field(path) -> VelocityField:
    """Read a field file, validating the header and record count."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise FieldFormatError(f"cannot read field {path}: {exc}") from None
    if not lines or lines[0].strip() != FIELD_MAGIC:
        raise FieldFormatError(f"{path}:1: missing magic line {FIELD_MAGIC!r}")
    if len(lines) < 4:
        raise FieldFormatError(f"{path}:{len(lines)}: truncated header")
    dims_parts = lines[1].split()
    if len(dims_parts) != 3:
        raise FieldFormatError(f"{path}:2: expected 'nx ny nz', got {lines[1]!r}")
    try:
        dims = tuple(int(p) for p in dims_parts)
    except ValueError:
        raise FieldFormatError(f"{path}:2: unparseable dimension in {lines[1]!r}") from None
    spacing = tuple(_parse_floats(path, 3, lines[2], 3))
    origin = tuple(_parse_floats(path, 4, lines[3], 3))
    try:
        grid = StructuredGrid(dims, spacing, origin)
    except ValueError as exc:
        raise FieldFormatError(f"{path}:2: invalid grid header: {exc}") from None

    n = grid.n_states
    records = [(lineno, ln) for lineno, ln in enumerate(lines[4:], start=5) if ln.strip()]
    if len(records) != n:
        raise FieldFormatError(
            f"{path}:{len(lines)}: expected {n} velocity records, found {len(records)}"
        )
    u = np.empty(n)
    v = np.empty(n)
    w = np.empty(n)
    for idx, (lineno, line) in enumerate(records):
        u[idx], v[idx], w[idx] = _parse_floats(path, lineno, line, 3)
    return VelocityField(grid, u, v, w)
