"""Run configuration: a flat key = value text file plus CLI overrides.

Lines are `key = value`; `#` starts a comment line and blank lines are
skipped. Box-valued keys (forbidden_box, occupied_box) may repeat. Every
value a command needs can also be given or overridden on the command line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .grid import StructuredGrid, box_mask
from .markov import BoundarySpec

Box = tuple[tuple[float, float, float], tuple[float, float, float]]
MAX_STATES = 2**31 - 1


class ConfigError(ValueError):
    """Raised for unparseable or mutually inconsistent configuration."""


@dataclass
class FieldEntry:
    """One externally supplied flow field with its sample value and weight."""

    path: str
    xi: float
    theta: float


@dataclass
class RunConfig:
    dims: tuple[int, int, int] | None = None
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    diffusivity: float = 0.0
    dt: float | None = None
    steps: int | None = None

    family: str | None = None
    distribution: tuple | None = None  # ("gaussian", mu, sigma) | ("kde", path)
    cdf_points: tuple[float, ...] | None = None
    fields: list[FieldEntry] = dc_field(default_factory=list)

    eps_acc: float = 0.0
    sensors: int | None = None
    min_coverage: float | None = None
    forbidden_boxes: list[Box] = dc_field(default_factory=list)
    occupied_boxes: list[Box] = dc_field(default_factory=list)
    outlets: frozenset[str] = frozenset()
    release_box: Box | None = None
    validate_tol: float = 1e-2
    workers: int = 1
    out: str = "out"
    config_dir: Path = Path(".")

    def grid(self) -> StructuredGrid:
        if self.dims is None:
            raise ConfigError("grid dims not configured")
        return StructuredGrid(self.dims, self.spacing, self.origin)

    def boundaries(self) -> BoundarySpec:
        return BoundarySpec(outlet_sides=self.outlets)

    def forbidden_mask(self, grid: StructuredGrid) -> np.ndarray:
        """States that cannot host a sensor: the union of the forbidden boxes."""
        return _union(grid, self.forbidden_boxes)

    def occupied_mask(self, grid: StructuredGrid) -> np.ndarray | None:
        """The occupied zone of interest, or None when no box confines it."""
        return _union(grid, self.occupied_boxes) if self.occupied_boxes else None

    def sensing_ignore_mask(self, grid: StructuredGrid) -> np.ndarray:
        """Release states outside the zone of interest."""
        occupied = self.occupied_mask(grid)
        return np.zeros(grid.n_states, dtype=bool) if occupied is None else ~occupied

    def validate(self) -> None:
        for key in ("dt", "diffusivity", "eps_acc", "min_coverage", "validate_tol"):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        for key in ("spacing", "origin"):
            if not all(math.isfinite(v) for v in getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        if self.dims is not None and math.prod(self.dims) + 1 > MAX_STATES:
            raise ConfigError(
                f"dims {self.dims}: cells plus an exit state exceed int32 indices ({MAX_STATES})"
            )
        if self.fields and self.family:
            raise ConfigError("give either explicit field entries or a synthetic family")
        if not self.fields and not self.family:
            raise ConfigError("no scenario source: set 'family' or 'field' entries")
        if self.family is not None and self.family != "vortex":
            raise ConfigError(f"unknown synthetic family {self.family!r}")
        if self.family:
            if self.distribution is None or self.cdf_points is None:
                raise ConfigError("synthetic family needs 'distribution' and 'cdf_points'")
        if self.cdf_points is not None and self.distribution is None:
            raise ConfigError("cdf_points given without a distribution")
        if self.fields:
            total = sum(entry.theta for entry in self.fields)
            if not abs(total - 1.0) <= 1e-9:
                raise ConfigError(f"field weights sum to {total}, expected 1 within 1e-9")
        if self.dt is not None and self.dt <= 0.0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.steps is not None and self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if not 0.0 <= self.eps_acc <= 1.0:
            raise ConfigError(f"eps_acc must lie in [0, 1], got {self.eps_acc}")
        if self.sensors is not None and self.sensors < 1:
            raise ConfigError(f"sensors must be >= 1, got {self.sensors}")
        if self.min_coverage is not None and not 0.0 < self.min_coverage <= 1.0:
            raise ConfigError(f"min_coverage must lie in (0, 1], got {self.min_coverage}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        _check_tolerance(self.validate_tol)


def _check_tolerance(value: float) -> None:
    # NaN passes here and is reported as non-finite by RunConfig.validate
    if value < 0.0:
        raise ConfigError(f"validate_tol must be >= 0, got {value}")


def _union(grid: StructuredGrid, boxes: list[Box]) -> np.ndarray:
    mask = np.zeros(grid.n_states, dtype=bool)
    for lo, hi in boxes:
        mask |= box_mask(grid, lo, hi)
    return mask


def _floats(key: str, raw: str, count: int | None = None) -> tuple[float, ...]:
    parts = raw.split()
    if count is not None and len(parts) != count:
        raise ConfigError(f"{key}: expected {count} numbers, got {raw!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{key}: unparseable number in {raw!r}") from None


def _ints(key: str, raw: str, count: int) -> tuple[int, ...]:
    parts = raw.split()
    if len(parts) != count:
        raise ConfigError(f"{key}: expected {count} integers, got {raw!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{key}: unparseable integer in {raw!r}") from None


def _box(key: str, raw: str) -> Box:
    vals = _floats(key, raw, 6)
    lo, hi = vals[:3], vals[3:]
    # stated positively so that a NaN bound fails it
    if not all(a <= b for a, b in zip(lo, hi)):
        raise ConfigError(f"{key}: need lo <= hi on every axis, got {raw!r}")
    return lo, hi


def _cdf_points(raw: str) -> tuple[float, ...]:
    points = _floats("cdf_points", raw)
    if not points:
        raise ConfigError("cdf_points: need at least one point")
    if not all(0.0 <= p <= 1.0 for p in points):
        raise ConfigError(f"cdf_points: points must lie in [0, 1], got {raw!r}")
    if not all(a < b for a, b in zip(points, points[1:])):
        raise ConfigError(f"cdf_points: points must be strictly increasing, got {raw!r}")
    return points


def _distribution(raw: str) -> tuple:
    parts = raw.split()
    if not parts:
        raise ConfigError("distribution: empty specification")
    kind = parts[0].lower()
    if kind == "gaussian":
        mu, sigma = _floats("distribution", " ".join(parts[1:]), 2)
        if not (math.isfinite(mu) and 0.0 < sigma < math.inf):
            raise ConfigError(f"distribution: need a finite mu and a finite sigma > 0, got {raw!r}")
        return ("gaussian", mu, sigma)
    if kind == "kde":
        if len(parts) != 2:
            raise ConfigError(f"distribution: expected 'kde <datafile>', got {raw!r}")
        return ("kde", parts[1])
    raise ConfigError(f"distribution: unknown kind {kind!r}")


def parse_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    cfg = RunConfig(config_dir=path.parent)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip().lower()
        raw = raw.strip()
        try:
            _apply(cfg, key, raw)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return cfg


def _apply(cfg: RunConfig, key: str, raw: str) -> None:
    if key == "dims":
        cfg.dims = _ints(key, raw, 3)
    elif key == "spacing":
        cfg.spacing = _floats(key, raw, 3)
    elif key == "origin":
        cfg.origin = _floats(key, raw, 3)
    elif key == "diffusivity":
        (cfg.diffusivity,) = _floats(key, raw, 1)
    elif key == "dt":
        (cfg.dt,) = _floats(key, raw, 1)
    elif key == "steps":
        (cfg.steps,) = _ints(key, raw, 1)
    elif key == "family":
        cfg.family = raw
    elif key == "distribution":
        cfg.distribution = _distribution(raw)
    elif key == "cdf_points":
        cfg.cdf_points = _cdf_points(raw)
    elif key == "field":
        parts = raw.rsplit(maxsplit=2)
        if len(parts) != 3:
            raise ConfigError(f"field: expected 'path xi theta', got {raw!r}")
        xi, theta = _floats(key, " ".join(parts[1:]), 2)
        if not (math.isfinite(xi) and 0.0 <= theta <= 1.0):
            raise ConfigError(f"field: need a finite xi and a theta in [0, 1], got {raw!r}")
        cfg.fields.append(FieldEntry(parts[0], xi, theta))
    elif key == "eps_acc":
        (cfg.eps_acc,) = _floats(key, raw, 1)
    elif key == "sensors":
        (cfg.sensors,) = _ints(key, raw, 1)
    elif key == "min_coverage":
        (cfg.min_coverage,) = _floats(key, raw, 1)
    elif key == "forbidden_box":
        cfg.forbidden_boxes.append(_box(key, raw))
    elif key == "occupied_box":
        cfg.occupied_boxes.append(_box(key, raw))
    elif key == "outlets":
        try:
            cfg.outlets = BoundarySpec(outlet_sides=frozenset(raw.split())).outlet_sides
        except ValueError as exc:
            raise ConfigError(f"outlets: {exc}") from None
    elif key == "release_box":
        cfg.release_box = _box(key, raw)
    elif key == "validate_tol":
        (cfg.validate_tol,) = _floats(key, raw, 1)
        _check_tolerance(cfg.validate_tol)
    elif key == "workers":
        (cfg.workers,) = _ints(key, raw, 1)
    elif key == "out":
        cfg.out = raw
    else:
        raise ConfigError(f"unknown key {key!r}")
