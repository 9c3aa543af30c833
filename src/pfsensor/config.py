"""Run configuration: a flat key = value text file plus CLI overrides.

Lines are `key = value`; `#` starts a comment line and blank lines are
skipped. Only field, forbidden_box and occupied_box may repeat; any other
key given twice is an error. The run flags of the command line override
their keys. A config line and a flag go through the same parser, `apply`,
which checks each value where it is read; the cross-key rules run once all
values are in, in `RunConfig.validate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .grid import StructuredGrid
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

    def validate(self) -> None:
        """The rules that join keys; `apply` checks each key's own value."""
        if self.fields and self.family:
            raise ConfigError("give either explicit field entries or a synthetic family")
        if not self.fields and not self.family:
            raise ConfigError("no scenario source: set 'family' or 'field' entries")
        if self.family and (self.distribution is None or self.cdf_points is None):
            raise ConfigError("synthetic family needs 'distribution' and 'cdf_points'")
        if self.cdf_points is not None and self.distribution is None:
            raise ConfigError("cdf_points given without a distribution")
        if self.fields:
            total = sum(entry.theta for entry in self.fields)
            if not abs(total - 1.0) <= 1e-9:
                raise ConfigError(f"field weights sum to {total}, expected 1 within 1e-9")


# one-number keys: their type, their rule in words and the rule's test
_SCALARS = {
    "diffusivity": (float, "be >= 0", lambda v: v >= 0.0),
    "dt": (float, "be positive", lambda v: v > 0.0),
    "steps": (int, "be >= 0", lambda v: v >= 0),
    "eps_acc": (float, "lie in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    "sensors": (int, "be >= 1", lambda v: v >= 1),
    "min_coverage": (float, "lie in (0, 1]", lambda v: 0.0 < v <= 1.0),
    "validate_tol": (float, "be >= 0", lambda v: v >= 0.0),
    "workers": (int, "be >= 1", lambda v: v >= 1),
}
_REPEATABLE = frozenset({"field", "forbidden_box", "occupied_box"})


def _numbers(key: str, raw: str, count: int | None = None, kind=float, finite=True) -> tuple:
    """The value's numbers of type `kind`; floats must be finite unless
    `finite` is False."""
    parts = raw.split()
    if count is not None and len(parts) != count:
        raise ConfigError(f"{key}: expected {count} numbers, got {raw!r}")
    try:
        values = tuple(kind(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{key}: unparseable number in {raw!r}") from None
    if finite and kind is float and not all(map(math.isfinite, values)):
        raise ConfigError(f"{key} must be finite, got {raw!r}")
    return values


def _box(key: str, raw: str) -> Box:
    vals = _numbers(key, raw, 6, finite=False)
    lo, hi = vals[:3], vals[3:]
    # stated positively so that a NaN bound fails it
    if not all(a <= b for a, b in zip(lo, hi)):
        raise ConfigError(f"{key}: need lo <= hi on every axis, got {raw!r}")
    return lo, hi


def _cdf_points(raw: str) -> tuple[float, ...]:
    points = _numbers("cdf_points", raw)
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
        mu, sigma = _numbers("distribution", " ".join(parts[1:]), 2)
        if not sigma > 0.0:
            raise ConfigError(f"distribution: need sigma > 0, got {raw!r}")
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
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip().lower()
        try:
            if key in first_line and key not in _REPEATABLE:
                raise ConfigError(f"{key} already set on line {first_line[key]}")
            apply(cfg, key, raw.strip())
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        first_line.setdefault(key, lineno)
    return cfg


def apply(cfg: RunConfig, key: str, raw: str) -> None:
    """Parse and check one key's value and set it on `cfg`: the one parser
    for a config line and a command-line flag. Repeatable keys append."""
    if key in _SCALARS:
        kind, rule, ok = _SCALARS[key]
        (value,) = _numbers(key, raw, 1, kind)
        if not ok(value):
            raise ConfigError(f"{key} must {rule}, got {value}")
        setattr(cfg, key, value)
    elif key == "dims":
        dims = _numbers(key, raw, 3, int)
        if min(dims) < 1:
            raise ConfigError(f"dims must be >= 1, got {dims}")
        if math.prod(dims) + 1 > MAX_STATES:
            raise ConfigError(
                f"dims {dims}: cells plus an exit state exceed int32 indices ({MAX_STATES})"
            )
        cfg.dims = dims
    elif key == "spacing":
        spacing = _numbers(key, raw, 3)
        if min(spacing) <= 0.0:
            raise ConfigError(f"spacing must be > 0, got {spacing}")
        cfg.spacing = spacing
    elif key == "origin":
        cfg.origin = _numbers(key, raw, 3)
    elif key == "family":
        if raw != "vortex":
            raise ConfigError(f"unknown synthetic family {raw!r}")
        cfg.family = raw
    elif key == "distribution":
        cfg.distribution = _distribution(raw)
    elif key == "cdf_points":
        cfg.cdf_points = _cdf_points(raw)
    elif key == "field":
        parts = raw.rsplit(maxsplit=2)
        if len(parts) != 3:
            raise ConfigError(f"field: expected 'path xi theta', got {raw!r}")
        xi, theta = _numbers(key, " ".join(parts[1:]), 2)
        if not 0.0 <= theta <= 1.0:
            raise ConfigError(f"field: need a theta in [0, 1], got {raw!r}")
        cfg.fields.append(FieldEntry(parts[0], xi, theta))
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
    elif key == "out":
        cfg.out = raw
    else:
        raise ConfigError(f"unknown key {key!r}")
