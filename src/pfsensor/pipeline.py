"""End-to-end orchestration: scenario generation, operator construction,
one detection matrix per scenario, placement, and report files.

The config fixes the three detection-kernel inputs once per run: the
threshold cutoff, and the release and candidate masks, which only
`detection_zones` derives from the config's boxes. Operator assembly and
detection are independent per scenario and optionally run on a thread pool;
cross-scenario reductions run in fixed scenario order, so results depend on
neither completion order nor worker count.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .flowfield import (
    FlowScenario,
    load_field,
    save_field,
    save_scalar_field,
    synth_recirculating,
    write_artifact,
)
from .grid import StructuredGrid, box_mask
from .markov import ConcentrationField, MarkovMatrix, StabilityError, build_markov, save_markov
from .placement import (
    SensorPlan,
    coverage_vectors,
    expected_coverage,
    place_sensors,
)
from .tracking import detection_matrix
from .uncertainty import (
    DistributionFitError,
    Gaussian,
    cdf_points_for,
    fit_kde,
    quadrature_rule,
)

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "pfsensor-manifest v1"
# explicit PDE reference substeps of dt / 5 per operator step in validate
VALIDATE_SUBSTEPS = 5


def _map_scenarios(fn, items, workers: int):
    """Order-preserving map, threaded when workers > 1."""
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def make_distribution(cfg: RunConfig):
    kind = cfg.distribution[0]
    if kind == "gaussian":
        return Gaussian(mu=cfg.distribution[1], sigma=cfg.distribution[2])
    path = Path(cfg.distribution[1])
    if not path.is_absolute():
        path = cfg.config_dir / path
    try:
        data = [float(line) for line in path.read_text().split()]
    except OSError as exc:
        raise ConfigError(f"cannot read KDE data {path}: {exc}") from None
    except ValueError:
        raise ConfigError(f"KDE data {path} contains non-numeric entries") from None
    try:
        return fit_kde(data)
    except DistributionFitError as exc:
        raise ConfigError(f"KDE data {path}: {exc}") from None


def scenario_set(cfg: RunConfig) -> tuple[StructuredGrid, list[FlowScenario]]:
    """Materialize the flow ensemble from the config: either synthesize the
    parametrized family at the quadrature samples or load field files."""
    cfg.validate()
    if cfg.family:
        grid = cfg.grid()
        rule = quadrature_rule(make_distribution(cfg), cfg.cdf_points)
        return grid, [
            FlowScenario(
                field=synth_recirculating(grid, float(xi)),
                diffusivity=cfg.diffusivity,
                sample_value=float(xi),
                weight=float(theta),
            )
            for xi, theta in zip(rule.samples, rule.weights)
        ]
    scenarios = []
    grid = None
    for entry in cfg.fields:
        path = Path(entry.path)
        if not path.is_absolute():
            path = cfg.config_dir / path
        field = load_field(path)
        if grid is None:
            grid = field.grid
        elif field.grid != grid:
            raise ConfigError(f"field {path} uses a different grid")
        scenarios.append(
            FlowScenario(
                field=field,
                diffusivity=cfg.diffusivity,
                sample_value=entry.xi,
                weight=entry.theta,
            )
        )
    if cfg.dims is not None and grid.dims != cfg.dims:
        raise ConfigError(
            f"configured dims {cfg.dims} do not match field dims {grid.dims}"
        )
    return grid, scenarios


def scenario_operators(
    cfg: RunConfig,
) -> tuple[StructuredGrid, list[FlowScenario], list[MarkovMatrix]]:
    """The config's grid and scenarios, with one operator per scenario at the
    config's dt and outlets; `cli.NEEDS` checks that dt is set. A dt too
    large for any scenario raises StabilityError with the smallest admissible
    dt over all scenarios, so a rerun at that dt builds every operator."""
    grid, scenarios = scenario_set(cfg)
    return grid, scenarios, _build_operators(cfg, scenarios)


def _build_operators(cfg: RunConfig, scenarios: list[FlowScenario]) -> list[MarkovMatrix]:
    """One operator per scenario at the config's dt and outlets; a dt too
    large for any of them raises StabilityError with their smallest
    admissible dt."""
    boundaries = cfg.boundaries()

    def build(scenario):
        try:
            return build_markov(scenario, cfg.dt, boundaries)
        except StabilityError as exc:
            return exc

    operators = _map_scenarios(build, scenarios, cfg.workers)
    unstable = [op.admissible_dt for op in operators if isinstance(op, StabilityError)]
    if unstable:
        raise StabilityError(cfg.dt, min(unstable))
    return operators


def detection_zones(
    cfg: RunConfig, grid: StructuredGrid, n_states: int
) -> tuple[np.ndarray, np.ndarray]:
    """The detection kernel's two masks over an operator's n_states states:
    the release states (the occupied zone, or every cell when no box
    confines it) and the candidate sensor states (every cell outside the
    forbidden boxes). An absorbing exit state (operators one larger than the
    grid) never releases but may host a sensor."""
    cells = grid.n_states
    if n_states not in (cells, cells + 1):
        raise ValueError(f"operators have {n_states} states, the grid has {cells}")
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


def scaled_tracking(cfg: RunConfig, grid: StructuredGrid, matrices: list[MarkovMatrix]):
    """Each scenario's detection pattern, and the volume fraction x that each
    detected release cell carries.

    Tracking entries range in [0, m + 1], so the cutoff is eps_acc * (m + 1),
    keeping eps_acc a horizon-independent detected-to-released fraction.
    An absorbing exit state carries no volume.
    """
    release, candidates = detection_zones(cfg, grid, matrices[0].n_states)
    cutoff = cfg.eps_acc * (cfg.steps + 1)
    detections = _map_scenarios(
        lambda op: detection_matrix(op, cfg.steps, cutoff, release, candidates),
        matrices,
        cfg.workers,
    )
    return detections, grid.cell_volume / grid.total_volume


def run_build(cfg: RunConfig, out_dir) -> Path:
    """Write per-scenario operator and field files plus a manifest, and return
    the manifest's path. They are an export: no command reads them back."""
    out = Path(out_dir)
    grid, scenarios, matrices = scenario_operators(cfg)
    entries = []
    for idx, (scenario, operator) in enumerate(zip(scenarios, matrices)):
        matrix_name = f"markov-{idx:03d}.txt"
        field_name = f"field-{idx:03d}.txt"
        save_markov(out / matrix_name, operator)
        save_field(out / field_name, scenario.field)
        entries.append(
            {
                "id": idx,
                "xi": scenario.sample_value,
                "theta": scenario.weight,
                "matrix": matrix_name,
                "field": field_name,
            }
        )
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
    write_artifact(manifest_path, [json.dumps(manifest, indent=2, allow_nan=False)])
    return manifest_path


def run_place(cfg: RunConfig) -> tuple[SensorPlan, dict]:
    """Operators from the config, then tracking through placement; writes the
    JSON plan and the expected / per-sensor coverage map fields to cfg.out."""
    if cfg.sensors is None and cfg.min_coverage is None:
        raise ConfigError("set a sensor count or a min_coverage target")
    out = Path(cfg.out)
    grid, scenarios, matrices = scenario_operators(cfg)
    n = grid.n_states
    release, candidates = detection_zones(cfg, grid, matrices[0].n_states)
    detections, cell_fraction = scaled_tracking(cfg, grid, matrices)
    weights = [sc.weight for sc in scenarios]
    expected_map = expected_coverage(coverage_vectors(detections, cell_fraction), weights)

    plan = place_sensors(
        detections,
        weights,
        cell_fraction,
        k=cfg.sensors,
        min_coverage=cfg.min_coverage,
        occupied_volume_fraction=np.count_nonzero(release) / n if cfg.occupied_boxes else None,
    )
    plan.settings.update(
        {
            "steps": cfg.steps,
            "dt": cfg.dt,
            "eps_acc": cfg.eps_acc,
            "threshold_mode": "scaled",
            "scenario_xis": [sc.sample_value for sc in scenarios],
            "forbidden_states": np.flatnonzero(~candidates).tolist(),
            "sensing_ignore_states": np.flatnonzero(~release[:n]).tolist(),
        }
    )

    plan_doc = plan_document(plan, grid)
    write_artifact(out / "plan.json", [json.dumps(plan_doc, indent=2, allow_nan=False)])
    save_scalar_field(out / "coverage-expected.txt", grid, expected_map[:n])
    for rank, sensor in enumerate(plan.sensors, start=1):
        save_scalar_field(
            out / f"coverage-sensor-{rank:02d}.txt", grid, sensor.coverage_map[:n]
        )
    return plan, plan_doc


def plan_document(plan: SensorPlan, grid: StructuredGrid) -> dict:
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
        "settings": plan.settings,
    }


def release_field(cfg: RunConfig, grid: StructuredGrid) -> ConcentrationField:
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
    return ConcentrationField(grid, values)


def run_validate(cfg: RunConfig) -> list[dict]:
    """Operator-vs-PDE transport comparison per scenario.

    Every scenario's operator is built, and its stability checked, before
    any PDE solve, as for build and place: they are the operators build
    writes. The reference marches VALIDATE_SUBSTEPS substeps per operator
    step so the measured gap reflects the operator's own time-stepping
    error, not the reference's.
    """
    from .pde import compare_operator

    if cfg.steps < 1:
        raise ConfigError("validate needs steps >= 1")
    if cfg.outlets:
        raise ConfigError(f"outlets {sorted(cfg.outlets)}: the PDE reference is a closed box")
    grid, scenarios, operators = scenario_operators(cfg)
    phi0 = release_field(cfg, grid)
    results = []
    for idx, (scenario, operator) in enumerate(zip(scenarios, operators)):
        err = compare_operator(scenario, operator, phi0, cfg.steps, VALIDATE_SUBSTEPS)
        results.append(
            {
                "id": idx,
                "xi": scenario.sample_value,
                "l2_error": err,
                "tolerance": cfg.validate_tol,
                "ok": bool(err <= cfg.validate_tol),
            }
        )
    return results


def expected_coverage_for_counts(cfg: RunConfig, counts: list[int]) -> list[dict]:
    """Expected pre-placement coverage per sample count, with the relative
    norm error of each level against the largest count as reference."""
    if len(counts) < 2:
        raise ConfigError("convergence study needs at least 2 sample counts")
    if sorted(set(counts)) != sorted(counts):
        raise ConfigError("sample counts must be distinct")
    if not cfg.family:
        raise ConfigError("convergence study needs a synthetic family config")
    ordered = sorted(counts)
    maps = {}
    # nested CDF points give bit-identical samples, so each distinct sample
    # value's operator and detection pattern are built once, keyed by its bits
    vectors = {}
    for m in ordered:
        points = tuple(float(p) for p in cdf_points_for(m))
        grid, scenarios = scenario_set(replace(cfg, cdf_points=points))
        new = [sc for sc in scenarios if sc.sample_value.hex() not in vectors]
        if new:
            detections, fraction = scaled_tracking(cfg, grid, _build_operators(cfg, new))
            keys = (sc.sample_value.hex() for sc in new)
            vectors.update(zip(keys, coverage_vectors(detections, fraction)))
        level = [vectors[sc.sample_value.hex()] for sc in scenarios]
        maps[m] = expected_coverage(level, [sc.weight for sc in scenarios])
    reference = maps[ordered[-1]]
    ref_norm = float(np.linalg.norm(reference))
    rows = []
    for m in ordered:
        if m == ordered[-1]:
            rows.append({"samples": m, "error": None, "reference": True})
            continue
        err = float(np.linalg.norm(maps[m] - reference))
        rows.append(
            {
                "samples": m,
                "error": err / ref_norm if ref_norm > 0.0 else err,
                "reference": False,
            }
        )
    return rows
