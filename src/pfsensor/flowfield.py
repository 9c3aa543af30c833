"""Velocity fields per flow scenario: file I/O and synthetic analytic families."""

from __future__ import annotations

import contextlib
import math
import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import StructuredGrid

FIELD_MAGIC = "# pfsensor-field v1"

WRITE_BLOCK = 4096  # rows assembled per write; bounds the text held in memory


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


class _Vortices(Sequence):
    """`synth_recirculating`'s fields, each made when it is indexed."""

    def __init__(self, grid: StructuredGrid, strengths, u_unit, v_unit):
        self._grid, self._strengths = grid, tuple(strengths)
        self._u, self._v, self._zero = u_unit, v_unit, np.zeros(grid.n_states)

    def __len__(self) -> int:
        return len(self._strengths)

    def __getitem__(self, idx: int) -> VelocityField:
        s = self._strengths[operator.index(idx)]
        return VelocityField(self._grid, s * self._u, s * self._v, self._zero)


def synth_recirculating(grid: StructuredGrid, strengths) -> Sequence[VelocityField]:
    """Single-vortex recirculating flows on a 2D grid (nz = 1), one per
    strength, from the stream function ``psi = sin(pi x / Lx) * sin(pi y / Ly)``
    scaled by the strength.

    Each field is divergence-free with zero normal velocity on the domain
    boundary, so a closed-box transport operator conserves mass exactly.
    Linearity in the strength is exact in floating point: the unit field is
    evaluated once per call and scaled by a single multiply per strength,
    when the returned read-only sequence is indexed: one field at a time.
    """
    lx, ly, _ = grid.extent()
    centers = grid.cell_centers()
    x = centers[:, 0] - grid.origin[0]
    y = centers[:, 1] - grid.origin[1]
    # u = d(psi)/dy, v = -d(psi)/dx
    u_unit = (math.pi / ly) * np.sin(math.pi * x / lx) * np.cos(math.pi * y / ly)
    v_unit = -(math.pi / lx) * np.cos(math.pi * x / lx) * np.sin(math.pi * y / ly)
    return _Vortices(grid, strengths, u_unit, v_unit)


def _repr_table(values: np.ndarray) -> np.ndarray:
    """``repr`` of each value's Python scalar, as NUL-padded bytes. The texts
    are made WRITE_BLOCK values at a time, so few Python strings are live."""
    chunks = [
        np.array(list(map(repr, values[start : start + WRITE_BLOCK].tolist())), dtype="S")
        for start in range(0, len(values), WRITE_BLOCK)
    ]
    return np.concatenate(chunks) if chunks else np.zeros(0, dtype="S1")


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``keys``. It sorts ``keys`` in place, so
    no second copy of them is held at the writer's peak memory."""
    keys.sort()
    return np.append(keys[:1], keys[1:][keys[1:] != keys[:-1]])


def _magnitudes(values: np.ndarray) -> np.ndarray:
    """The bits of ``abs(values)`` as float64, keys that sort as the values'
    magnitudes do; ``0.0`` and ``-0.0`` share one."""
    return np.abs(values, dtype=np.float64).view(np.int64)


def _cell_tables(columns) -> list[tuple[np.ndarray, np.ndarray, bool]]:
    """Each column's distinct cells, formatted once for the file: the table of
    texts, the sorted distinct keys that index the table, and whether the
    column's cells are a sign byte before the text of their magnitude.

    Each integer column has its own table of its distinct values. All float
    columns share one table of the magnitudes they hold, keyed by
    `_magnitudes`: ``repr(-x) == "-" + repr(x)`` for every finite ``x`` with
    a clear sign bit, ``0.0`` included. Float columns must be finite. Only
    the distinct values are held for the whole file.
    """
    floats = [_distinct(_magnitudes(col)) for col in columns if col.dtype.kind == "f"]
    if floats:
        magnitudes = _distinct(np.concatenate(floats))
        shared = _repr_table(magnitudes.view(np.float64))
    tables = []
    for col in columns:
        if col.dtype.kind == "f":
            tables.append((shared, magnitudes, True))
        else:
            distinct = _distinct(col.copy())
            tables.append((_repr_table(distinct), distinct, False))
    return tables


def _write_rows(fh, columns) -> None:
    """The rows of the columns, WRITE_BLOCK at a time: each block's cells are
    gathered from the `_cell_tables` into a fixed-width byte matrix whose
    separator bytes are set once, the sign byte of each float cell is ``-``
    or NUL, and the matrix's non-NUL bytes are written. Each block looks its
    cells up in the tables on its own, so no per-row index spans the file."""
    n = len(columns[0])
    tables = _cell_tables(columns)
    ends = np.cumsum([table.itemsize + signed + 1 for table, _, signed in tables]) - 1
    text = np.zeros((min(n, WRITE_BLOCK), ends[-1] + 1), dtype=np.uint8)
    text[:, ends] = ord(" ")  # separators
    text[:, -1] = ord("\n")
    for start in range(0, n, WRITE_BLOCK):
        rows = slice(start, min(start + WRITE_BLOCK, n))
        block = text[: rows.stop - start]
        for col, (table, distinct, signed), end in zip(columns, tables, ends):
            cells = col[rows]
            width = table.itemsize
            if signed:
                block[:, end - width - 1] = np.signbit(cells) * ord("-")
                cells = _magnitudes(cells)
            cells = np.searchsorted(distinct, cells)
            block[:, end - width : end] = table[cells].view(np.uint8).reshape(-1, width)
        fh.write(block[block != 0].tobytes())


def write_artifact(path, head, columns=()) -> None:
    """Write the ``head`` lines, then one line per row of the equal-length 1-D
    numpy ``columns``: the ``repr`` of each row's Python scalars, joined by
    spaces. Float columns must be finite. Each distinct value is formatted
    once per file, into a table of bytes: all float columns share one table of
    magnitudes, and each float cell's sign is a byte in front of its text.
    Rows are assembled from the tables and written WRITE_BLOCK at a time. The
    text goes to ``<path>.tmp`` in a directory made if missing, then is
    renamed over ``path``, so no reader sees a partial file. Columns of
    unequal length or not 1-D raise ValueError naming ``path`` before anything
    is written. A failed write removes the ``.tmp`` file and raises OSError
    naming ``path``."""
    shapes = [np.shape(col) for col in columns]
    if any(len(shape) != 1 for shape in shapes) or len(set(shapes)) > 1:
        raise ValueError(f"cannot write {path}: columns must be 1-D of one length, got {shapes}")
    tmp = f"{os.fspath(path)}.tmp"
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as fh:
            fh.write("".join(line + "\n" for line in head).encode())
            if shapes and shapes[0][0]:
                _write_rows(fh, columns)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def _finite_rows(lines: list[str]) -> np.ndarray | None:
    """The lines as a (rows, 3) array of finite floats, or None."""
    try:
        values = np.loadtxt(lines, comments=None, ndmin=2)
    except ValueError:
        return None
    return values if values.shape[1] == 3 and np.isfinite(values).all() else None


def save_field(path, field_: VelocityField) -> None:
    """Write a field file; floats use shortest round-trip formatting so a
    save/load cycle reproduces values bitwise."""
    grid = field_.grid
    head = [FIELD_MAGIC, "{} {} {}".format(*grid.dims)]
    head += ["{!r} {!r} {!r}".format(*map(float, v)) for v in (grid.spacing, grid.origin)]
    write_artifact(path, head, (field_.u, field_.v, field_.w))


def save_scalar_field(path, grid: StructuredGrid, values: np.ndarray) -> None:
    """Write a per-state scalar (e.g. a coverage map) in the field-file
    format, with the scalar in the first component and zeros elsewhere."""
    n = grid.n_states
    values = np.asarray(values, dtype=float)
    save_field(path, VelocityField(grid, values, np.zeros(n), np.zeros(n)))


def load_field(path) -> VelocityField:
    """Read a field file: the magic line, then non-blank lines of three finite
    numbers, a three-line grid header and one record per state. Failures
    raise FieldFormatError naming the line, counting blank lines."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeError) as exc:
        raise FieldFormatError(f"cannot read field {path}: {exc}") from None
    if not lines or lines[0].strip() != FIELD_MAGIC:
        raise FieldFormatError(f"{path}:1: missing magic line {FIELD_MAGIC!r}")
    numbers = [no for no, line in enumerate(lines[1:], start=2) if line and not line.isspace()]
    body = [lines[no - 1] for no in numbers]
    if len(body) < 3:
        raise FieldFormatError(f"{path}:{len(lines)}: truncated header")
    values = _finite_rows(body)
    if values is None:
        # the whole parse fails exactly when some single line fails it
        bad = next(idx for idx, line in enumerate(body) if _finite_rows([line]) is None)
        name = ("nx ny nz", "dx dy dz", "x0 y0 z0", "u v w")[min(bad, 3)]
        raise FieldFormatError(
            f"{path}:{numbers[bad]}: not '{name}' (three finite numbers): {body[bad]!r}"
        )
    dims, spacing, origin = values[:3].tolist()
    if not all(d.is_integer() for d in dims):
        raise FieldFormatError(f"{path}:{numbers[0]}: grid dimensions must be integers, got {dims}")
    try:
        grid = StructuredGrid(tuple(int(d) for d in dims), tuple(spacing), tuple(origin))
    except ValueError as exc:
        raise FieldFormatError(f"{path}:{numbers[0]}: invalid grid header: {exc}") from None
    u, v, w = np.ascontiguousarray(values[3:].T)
    if len(u) != grid.n_states:
        raise FieldFormatError(
            f"{path}:{numbers[-1]}: expected {grid.n_states} velocity records, found {len(u)}"
        )
    return VelocityField(grid, u, v, w)
