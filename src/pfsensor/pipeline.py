"""End-to-end orchestration: each command's stages and every artifact it
writes (the JSON ones through `write_json`); the CLI only parses and prints.

`scenario_set` gives the flow ensemble as parallel sequences: the velocity
fields (a family's made as each is indexed) and the samples xi and weights
theta as Python floats, from the quadrature or the config's `field` entries.
Every operator is built from one field and the config's diffusivity.

The config fixes the three detection-kernel inputs once per run: the
threshold cutoff, and the release and candidate masks, which only
`detection_zones` derives, from the config's boxes and outlets, before any
operator is built. The four commands that use operators (`place`,
`converge`, `propagate` and `validate`) reach them through `each_operator`
alone: it checks stability from the face rates with `check_step`, so an
unstable dt fails before any operator exists, then builds, uses and drops
each scenario's operator in its own task on a pool of `workers` threads, so
at most `workers` operators are alive at once; one worker imports no pool.
`build` only runs `check_step` and exports the flow ensemble. `propagate`
makes only the scenario it runs: one synthesized field, or one slice of the
loaded files. Cross-scenario reductions run in fixed scenario order, so
results depend on neither completion order nor worker count.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .flowfield import (
    VelocityField,
    load_field,
    save_field,
    save_scalar_field,
    synth_recirculating,
    write_artifact,
)
from .grid import StructuredGrid, box_mask
from .markov import StabilityError, admissible_dt, build_markov, propagate
from .placement import (
    SensorPlan,
    coverage_vectors,
    expected_coverage,
    place_sensors,
    sensor_coverage,
)
from .tracking import detection_matrix
from .uncertainty import DistributionFitError, fit_kde, gaussian, ladder_rules, quadrature_rule

MANIFEST_NAME = "manifest.json"
PLAN_NAME = "plan.json"
MANIFEST_FORMAT = "pfsensor-manifest v1"
COVERAGE_MAGIC = "# pfsensor-coverage v1"
# explicit PDE reference substeps of dt / 5 per operator step in validate
VALIDATE_SUBSTEPS = 5


def make_distribution(cfg: RunConfig):
    kind = cfg.distribution[0]
    if kind == "gaussian":
        try:
            return gaussian(cfg.distribution[1], cfg.distribution[2])
        except ValueError as exc:
            raise ConfigError(f"distribution: {exc}") from None
    path = cfg.config_dir / cfg.distribution[1]  # an absolute path replaces the directory
    try:
        data = [float(line) for line in path.read_text(encoding="utf-8-sig").split()]
    except OSError as exc:
        raise ConfigError(f"cannot read KDE data {path}: {exc}") from None
    except ValueError:
        raise ConfigError(f"KDE data {path} contains non-numeric entries") from None
    try:
        return fit_kde(data)
    except DistributionFitError as exc:
        raise ConfigError(f"KDE data {path}: {exc}") from None


def _quadrature(cfg: RunConfig, rule, arg, source: str):
    """`rule(dist, arg)` at the config's distribution, a quadrature failure
    being a ConfigError naming `source`, the points' origin, and the distribution."""
    dist = make_distribution(cfg)
    try:
        return rule(dist, arg)
    except ValueError as exc:
        named = " ".join(map(str, cfg.distribution))
        raise ConfigError(f"{source} under distribution {named}: {exc}") from None


def scenario_set(
    cfg: RunConfig,
) -> tuple[StructuredGrid, Sequence[VelocityField], list[float], list[float]]:
    """Materialize the flow ensemble from the config: the grid, each
    scenario's velocity field, and its sample value xi and weight theta as
    Python floats. A family config synthesizes the fields at the quadrature
    samples; a field config loads the files its `field` entries name."""
    cfg.validate()
    if cfg.family:
        grid = cfg.grid()
        samples, weights = _quadrature(cfg, quadrature_rule, cfg.cdf_points, "cdf_points")
        samples, weights = samples.tolist(), weights.tolist()
        return grid, synth_recirculating(grid, samples), samples, weights
    fields = []
    for entry in cfg.fields:
        path = cfg.config_dir / entry.path
        fields.append(load_field(path))
        if fields[-1].grid != fields[0].grid:
            raise ConfigError(f"field {path} uses a different grid")
    grid = fields[0].grid
    for key in ("dims", "spacing", "origin"):
        want, got = getattr(cfg, key), getattr(grid, key)
        if want is not None and got != want:
            raise ConfigError(f"configured {key} {want} do not match field {key} {got}")
    return grid, fields, [entry.xi for entry in cfg.fields], [entry.theta for entry in cfg.fields]


def check_step(cfg: RunConfig, fields: Sequence[VelocityField]) -> None:
    """Raise StabilityError with the smallest admissible dt over all
    scenarios when the config's dt exceeds it, reading only the face rates,
    so no operator is built and a rerun at that dt builds every one;
    `cli.NEEDS` checks that dt is set."""
    bound = min(admissible_dt(field, cfg.diffusivity, cfg.outlets) for field in fields)
    if cfg.dt > bound:
        raise StabilityError(cfg.dt, bound)


def each_operator(cfg: RunConfig, fields: Sequence[VelocityField], use) -> list:
    """`use(idx, matrix)` for each scenario's operator matrix at the config's
    diffusivity, dt and outlets, with the results in scenario order.

    `check_step` runs first. Each operator is then built inside its
    scenario's task and dropped when `use` returns, so at most `cfg.workers`
    operators are alive at once.
    """
    check_step(cfg, fields)

    def task(idx: int):
        return use(idx, build_markov(fields[idx], cfg.diffusivity, cfg.dt, cfg.outlets).matrix)

    indices = range(len(fields))
    if cfg.workers <= 1 or len(fields) <= 1:
        return [task(idx) for idx in indices]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        return list(pool.map(task, indices))


def detection_zones(cfg: RunConfig, grid: StructuredGrid) -> tuple[np.ndarray, np.ndarray]:
    """The detection kernel's two masks over the operators' states: the
    release states (the occupied zone, or every cell when no box confines
    it) and the candidate sensor states (every cell outside the forbidden
    boxes). Outlets give the operators one absorbing exit state after the
    cells; it never releases but may host a sensor. Needs no operator, so
    an empty zone fails before any is built."""
    cells = grid.n_states
    n_states = cells + bool(cfg.outlets)
    candidates = np.ones(n_states, dtype=bool)
    for lo, hi in cfg.forbidden_boxes:
        candidates[:cells] &= ~box_mask(grid, lo, hi)
    if not candidates.any():
        raise ConfigError("forbidden-location mask excludes every candidate column")
    release = np.zeros(n_states, dtype=bool)
    release[:cells] = not cfg.occupied_boxes  # no box: every cell releases
    for lo, hi in cfg.occupied_boxes:
        release[:cells] |= box_mask(grid, lo, hi)
    if not release.any():
        raise ConfigError("occupied_box contains no cell centers")
    return release, candidates


def detection_patterns(
    cfg: RunConfig, fields: Sequence[VelocityField], zones: tuple[np.ndarray, np.ndarray]
) -> list:
    """Each scenario's detection pattern over the `detection_zones` masks.

    Tracking entries range in [0, m + 1], so the cutoff is eps_acc * (m + 1),
    keeping eps_acc a horizon-independent detected-to-released fraction.
    """
    release, candidates = zones
    cutoff = cfg.eps_acc * (cfg.steps + 1)
    return each_operator(
        cfg,
        fields,
        lambda idx, op: detection_matrix(op, cfg.steps, cutoff, release, candidates),
    )


def write_json(path: Path, doc) -> None:
    """Write one JSON artifact; NaN or infinity raises ValueError first."""
    write_artifact(path, [json.dumps(doc, indent=2, allow_nan=False)])


def run_build(cfg: RunConfig) -> Path:
    """Export the flow ensemble: check the config's dt against every
    scenario, then write each scenario's field file and a manifest to
    cfg.out, and return the manifest's path. No operator is assembled, and
    an unstable dt writes nothing."""
    out = Path(cfg.out)
    grid, fields, samples, weights = scenario_set(cfg)
    check_step(cfg, fields)
    entries = []
    for idx, (field, xi, theta) in enumerate(zip(fields, samples, weights)):
        field_name = f"field-{idx:03d}.txt"
        save_field(out / field_name, field)
        entries.append({"id": idx, "xi": xi, "theta": theta, "field": field_name})
    manifest = {
        "format": MANIFEST_FORMAT,
        "grid": {
            "dims": list(grid.dims),
            "spacing": list(grid.spacing),
            "origin": list(grid.origin),
        },
        "dt": cfg.dt,
        "diffusivity": cfg.diffusivity,
        "outlets": sorted(cfg.outlets),
        "scenarios": entries,
    }
    manifest_path = out / MANIFEST_NAME
    write_json(manifest_path, manifest)
    return manifest_path


def run_place(cfg: RunConfig) -> dict:
    """Operators from the config, then tracking through placement; writes the
    plan, expected-coverage field and per-sensor coverage table to cfg.out and
    returns the plan document as written."""
    if cfg.sensors is None and cfg.min_coverage is None:
        raise ConfigError("set a sensor count or a min_coverage target")
    out = Path(cfg.out)
    # the zones need only the grid, so a family config checks them before its quadrature
    zones = detection_zones(cfg, cfg.grid()) if cfg.family else None
    grid, fields, samples, weights = scenario_set(cfg)
    release, candidates = zones = zones or detection_zones(cfg, grid)
    detections = detection_patterns(cfg, fields, zones)
    cell_fraction = grid.cell_volume / grid.total_volume
    n = grid.n_states
    expected_map = expected_coverage(coverage_vectors(detections, cell_fraction), weights)

    plan = place_sensors(
        detections,
        weights,
        cell_fraction,
        k=cfg.sensors,
        min_coverage=cfg.min_coverage,
        occupied_volume_fraction=np.count_nonzero(release) / n if cfg.occupied_boxes else None,
    )
    settings = {
        "k": cfg.sensors,
        "min_coverage": cfg.min_coverage,
        "removal": "covered",
        "weights": weights,
        "steps": cfg.steps,
        "dt": cfg.dt,
        "eps_acc": cfg.eps_acc,
        "threshold_mode": "scaled",
        "scenario_xis": samples,
        "forbidden_states": np.flatnonzero(~candidates).tolist(),
        "sensing_ignore_states": np.flatnonzero(~release[:n]).tolist(),
    }
    plan_doc = plan_document(plan, grid, settings)
    write_json(out / PLAN_NAME, plan_doc)
    save_scalar_field(out / "coverage-expected.txt", grid, expected_map[:n])
    head = [COVERAGE_MAGIC, f"{n} {len(plan.sensors)}"]
    write_artifact(out / "coverage-sensors.txt", head, sensor_coverage(plan.covered_by, weights))
    return plan_doc


def plan_document(plan: SensorPlan, grid: StructuredGrid, settings: dict) -> dict:
    sensors = []
    for sensor in plan.sensors:
        if sensor.state < grid.n_states:
            ijk = list(grid.ijk_of(sensor.state))
            position = list(grid.cell_center(sensor.state))
        else:
            ijk = None  # absorbing exit state has no cell
            position = None
        sensors.append(
            {
                "state": sensor.state,
                "ijk": ijk,
                "position": position,
                "expected_marginal": sensor.expected_marginal,
                "per_scenario_marginal": [float(v) for v in sensor.per_scenario_marginal],
            }
        )
    return {
        "sensors": sensors,
        "cumulative_expected_coverage": plan.cumulative_expected_coverage,
        "occupied_space_coverage": plan.occupied_space_coverage,
        "truncated": plan.truncated,
        "settings": settings,
    }


def release_field(cfg: RunConfig, grid: StructuredGrid) -> np.ndarray:
    """Initial contaminant distribution: unit density inside the configured
    release box, or a unit point release at the domain-center cell."""
    values = np.zeros(grid.n_states)
    if cfg.release_box is not None:
        mask = box_mask(grid, *cfg.release_box)
        if not mask.any():
            raise ConfigError("release_box contains no cell centers")
        values[mask] = 1.0
    else:
        nx, ny, nz = grid.dims
        values[grid.state_index((nx // 2, ny // 2, nz // 2))] = 1.0
    return values


def run_propagate(cfg: RunConfig, index: int) -> tuple[np.ndarray, Path]:
    """The release field after cfg.steps steps of scenario `index`'s operator,
    and the path it is written to; a bad index fails before any work. A family
    config samples only the chosen CDF point, which keeps its bits: the
    inverse CDF maps each point on its own."""
    count = len(cfg.fields) or len(cfg.cdf_points)
    if not 0 <= index < count:
        raise ConfigError(f"scenario index {index} outside [0, {count})")
    if cfg.family:
        points = cfg.cdf_points[index : index + 1]
        grid, fields, _, _ = scenario_set(replace(cfg, cdf_points=points))
    else:
        grid, fields, _, _ = scenario_set(cfg)  # every file: the grid check needs them all
        fields = fields[index : index + 1]
    phi0 = release_field(cfg, grid)
    [phi] = each_operator(cfg, fields, lambda _, op: propagate(phi0, op, cfg.steps))
    target = Path(cfg.out) / f"concentration-{index:03d}.txt"
    save_scalar_field(target, grid, phi)
    return phi, target


def run_validate(cfg: RunConfig) -> list[dict]:
    """Operator-vs-PDE transport comparison per scenario, written to
    validation.json in cfg.out.

    Every scenario's stability is checked before any operator is built or
    PDE solved. Each scenario's operator is rebuilt from the config through
    `each_operator`, the same path `place` takes. The reference marches
    VALIDATE_SUBSTEPS substeps per operator step so the measured gap
    reflects the operator's own time-stepping error, not the reference's.
    """
    from .pde import compare_operator

    if cfg.steps < 1:
        raise ConfigError("validate needs steps >= 1")
    if cfg.outlets:
        raise ConfigError(f"outlets {sorted(cfg.outlets)}: the PDE reference is a closed box")
    grid, fields, samples, _ = scenario_set(cfg)
    phi0 = release_field(cfg, grid)

    def compare(idx: int, matrix) -> dict:
        err = compare_operator(
            fields[idx], cfg.diffusivity, matrix, cfg.dt, phi0, cfg.steps, VALIDATE_SUBSTEPS
        )
        return {
            "id": idx,
            "xi": samples[idx],
            "l2_error": err,
            "tolerance": cfg.validate_tol,
            "ok": bool(err <= cfg.validate_tol),
        }

    results = each_operator(cfg, fields, compare)
    write_json(Path(cfg.out) / "validation.json", results)
    return results


def expected_coverage_for_counts(cfg: RunConfig, counts: list[int]) -> list[dict]:
    """Expected pre-placement coverage per sample count, with the relative
    norm error of each level against the largest count as reference,
    written to convergence.json in cfg.out."""
    if len(counts) < 2:
        raise ConfigError("convergence study needs at least 2 sample counts")
    if sorted(set(counts)) != sorted(counts):
        raise ConfigError("sample counts must be distinct")
    if min(counts) < 2:
        raise ConfigError(f"sample counts must each be >= 2, got {sorted(counts)}")
    if not cfg.family:
        raise ConfigError("convergence study needs a synthetic family config")
    ordered = sorted(counts)
    grid = cfg.grid()
    zones = detection_zones(cfg, grid)
    rules = _quadrature(cfg, ladder_rules, ordered, "--samples " + " ".join(map(str, counts)))
    # CDF points an ulp apart on two levels (6's 0.6000000000000001, 9's 0.6) share a sample
    distinct = sorted({xi for samples, _ in rules for xi in samples.tolist()})
    detections = detection_patterns(cfg, synth_recirculating(grid, distinct), zones)
    fraction = grid.cell_volume / grid.total_volume
    vectors = dict(zip(distinct, coverage_vectors(detections, fraction)))
    maps = [expected_coverage([vectors[xi] for xi in xs.tolist()], w) for xs, w in rules]
    ref_norm = float(np.linalg.norm(maps[-1]))
    rows = []
    for m, level in zip(ordered[:-1], maps):
        err = float(np.linalg.norm(level - maps[-1]))
        error = err / ref_norm if ref_norm > 0.0 else err
        rows.append({"samples": m, "error": error, "reference": False})
    rows.append({"samples": ordered[-1], "error": None, "reference": True})
    write_json(Path(cfg.out) / "convergence.json", rows)
    return rows
