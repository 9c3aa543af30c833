"""Structured rectilinear grid: state indexing, cell volumes, box masks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StructuredGrid:
    """Uniform cell-centered grid over a box domain.

    States are numbered 0-based and x-fastest: ``k = i + nx * (j + ny * l)``.
    A 2D domain is expressed with ``nz = 1``; ``dz`` then acts as the slab
    depth so cell volumes and face areas stay dimensionally consistent.
    """

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        if len(self.dims) != 3 or len(self.spacing) != 3 or len(self.origin) != 3:
            raise ValueError("dims, spacing and origin must each have 3 components")
        if min(self.dims) < 1:
            raise ValueError(f"grid dims must be positive, got {self.dims}")
        if min(self.spacing) <= 0.0:
            raise ValueError(f"grid spacing must be positive, got {self.spacing}")
        far = tuple(x0 + n * d for x0, n, d in zip(self.origin, self.dims, self.spacing))
        # stated positively so that NaN fails; a volume that underflows to 0, or
        # a volume or corner that overflows, breaks every rate and coverage
        if not (
            self.cell_volume > 0.0
            and math.isfinite(self.total_volume)
            and all(map(math.isfinite, far))
        ):
            raise ValueError(
                f"grid spacing {self.spacing} on dims {self.dims} needs a positive cell "
                "volume and a finite total volume and far corner, got "
                f"{self.cell_volume}, {self.total_volume} and {far}"
            )

    @property
    def n_states(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    @property
    def cell_volume(self) -> float:
        dx, dy, dz = self.spacing
        return dx * dy * dz

    @property
    def total_volume(self) -> float:
        return self.n_states * self.cell_volume

    def state_index(self, ijk: tuple[int, int, int]) -> int:
        i, j, l = ijk
        nx, ny, nz = self.dims
        if not (0 <= i < nx and 0 <= j < ny and 0 <= l < nz):
            raise IndexError(f"cell {ijk} outside grid of dims {self.dims}")
        return i + nx * (j + ny * l)

    def ijk_of(self, k: int) -> tuple[int, int, int]:
        nx, ny, nz = self.dims
        if not 0 <= k < self.n_states:
            raise IndexError(f"state {k} outside [0, {self.n_states})")
        i = k % nx
        j = (k // nx) % ny
        l = k // (nx * ny)
        return i, j, l

    def cell_center(self, k: int) -> tuple[float, float, float]:
        i, j, l = self.ijk_of(k)
        dx, dy, dz = self.spacing
        x0, y0, z0 = self.origin
        return (x0 + (i + 0.5) * dx, y0 + (j + 0.5) * dy, z0 + (l + 0.5) * dz)

    def cell_centers(self) -> np.ndarray:
        """All cell centers as an (N, 3) array in state order."""
        nx, ny, nz = self.dims
        dx, dy, dz = self.spacing
        x0, y0, z0 = self.origin
        x = x0 + (np.arange(nx) + 0.5) * dx
        y = y0 + (np.arange(ny) + 0.5) * dy
        z = z0 + (np.arange(nz) + 0.5) * dz
        # meshgrid with indexing so x varies fastest along the state axis
        zz, yy, xx = np.meshgrid(z, y, x, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])

    def extent(self) -> tuple[float, float, float]:
        """Domain side lengths (Lx, Ly, Lz)."""
        return tuple(n * d for n, d in zip(self.dims, self.spacing))


def box_mask(
    grid: StructuredGrid,
    lo: tuple[float, float, float],
    hi: tuple[float, float, float],
) -> np.ndarray:
    """Boolean mask of length N: the states whose cell centers lie inside the
    axis-aligned box [lo, hi]. A box that misses every cell center yields an
    all-False mask.
    """
    centers = grid.cell_centers()
    return np.all((centers >= np.asarray(lo)) & (centers <= np.asarray(hi)), axis=1)
