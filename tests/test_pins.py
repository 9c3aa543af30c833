import json
import re

import pytest

from pfsensor.cli import main
from pfsensor.config import parse_config
from pfsensor.markov import admissible_dt, build_markov
from pfsensor.pipeline import detection_patterns, detection_zones, scenario_set
from pfsensor.placement import coverage_vectors

from pins import (
    BUILD,
    CONVERGE,
    CONVERGE_LADDER,
    FINE_BUILD,
    FINE_VALIDATE,
    KDE_CONVERGE,
    KDE_DATA,
    KDE_PLACE,
    OPERATOR,
    OPERATOR_AT_BOUND,
    OUTLET_EXIT_PAIRS,
    OUTLET_PLACE,
    PATTERNS,
    PLACE,
    VALIDATE,
    csr_sha256,
    mismatches,
    pattern_sha256,
)
from workloads import DEFAULT_SEED, WORKLOADS, config_text  # pins puts perfbench/ on the path


def test_desk_artifacts_match_their_pins(tmp_path):
    # the runs of the CI steps that check the same tables
    desk = tmp_path / "desk.cfg"
    desk.write_text(config_text(WORKLOADS["desk"], DEFAULT_SEED, tmp_path / "out"))
    for command in (["build"], ["validate"], ["place"], ["converge", "--samples", "3", "5", "7"]):
        assert main([*command, "--config", str(desk)]) == 0
    assert mismatches(tmp_path / "out", PLACE, BUILD, VALIDATE, CONVERGE) is None
    ladder = ["converge", "--samples", "2", "3", "5", "7", "9"]
    assert main([*ladder, "--config", str(desk), "--out", str(tmp_path / "ladder")]) == 0
    assert mismatches(tmp_path / "ladder", CONVERGE_LADDER) is None
    # no command writes an operator: rebuild the pinned ones from the config
    cfg = parse_config(desk)
    _, fields, _, _ = scenario_set(cfg)
    for idx, pinned in OPERATOR.items():
        operator = build_markov(fields[idx], cfg.diffusivity, cfg.dt, cfg.outlets).matrix
        assert csr_sha256(operator) == pinned
    for idx, pinned in OPERATOR_AT_BOUND.items():
        dt = admissible_dt(fields[idx], cfg.diffusivity, cfg.outlets)
        operator = build_markov(fields[idx], cfg.diffusivity, dt, cfg.outlets).matrix
        assert csr_sha256(operator) == pinned

    (tmp_path / "data.txt").write_text(KDE_DATA)
    kde = tmp_path / "kde.cfg"
    text = config_text(WORKLOADS["desk"], DEFAULT_SEED, tmp_path / "kde")
    kde.write_text(re.sub(r"(?m)^distribution = .*$", "distribution = kde data.txt", text))
    assert main(["place", "--config", str(kde)]) == 0
    assert main([*ladder, "--config", str(kde)]) == 0
    assert mismatches(tmp_path / "kde", KDE_PLACE, KDE_CONVERGE) is None


def test_outlet_place_matches_its_pins(tmp_path):
    # the exit state n is the one column whose band window spans the whole operator
    outlet = tmp_path / "outlet.cfg"
    text = config_text(WORKLOADS["desk"], DEFAULT_SEED, tmp_path / "out")
    outlet.write_text(text + "outlets = x+ y-\n")
    assert main(["place", "--config", str(outlet)]) == 0
    assert mismatches(tmp_path / "out", OUTLET_PLACE) is None
    cfg = parse_config(outlet)
    grid, fields, _, _ = scenario_set(cfg)
    patterns = detection_patterns(cfg, fields, detection_zones(cfg, grid))
    # at a cell fraction of 1 a column's coverage is its exact pair count
    exit_pairs = tuple(float(v[grid.n_states]) for v in coverage_vectors(patterns, 1.0))
    assert exit_pairs == OUTLET_EXIT_PAIRS


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_detection_patterns_match_their_pins(tmp_path, name):
    # every detected pair, where the plan pins see only those that move a pick
    workload = WORKLOADS["desk" if name == "outlet" else name]
    path = tmp_path / f"{name}.cfg"
    text = config_text(workload, DEFAULT_SEED, tmp_path / "out")
    path.write_text(text + ("outlets = x+ y-\n" if name == "outlet" else ""))
    cfg = parse_config(path)
    grid, fields, _, _ = scenario_set(cfg)
    patterns = detection_patterns(cfg, fields, detection_zones(cfg, grid))
    assert tuple(pattern_sha256(*pattern) for pattern in patterns) == PATTERNS[name]


def test_field_config_place_matches_its_pins(tmp_path):
    # the CI step that places from build's exported fields: desk's config with
    # one field line per exported scenario at the manifest's xi and theta
    # writes the family config's plan and coverage bytes
    desk = tmp_path / "desk.cfg"
    desk.write_text(config_text(WORKLOADS["desk"], DEFAULT_SEED, tmp_path / "built"))
    assert main(["build", "--config", str(desk)]) == 0
    family = ("family ", "distribution ", "cdf_points ")
    lines = [line for line in desk.read_text().splitlines() if not line.startswith(family)]
    for entry in json.loads((tmp_path / "built" / "manifest.json").read_text())["scenarios"]:
        lines.append(f"field = built/{entry['field']} {entry['xi']!r} {entry['theta']!r}")
    fields = tmp_path / "fields.cfg"
    fields.write_text("\n".join(lines) + "\n")
    assert main(["place", "--config", str(fields), "--out", str(tmp_path / "out")]) == 0
    assert mismatches(tmp_path / "out", PLACE) is None


def test_fine_field_matches_its_pin(tmp_path):
    # the CI step that builds and validates fine at seed 0; validate makes
    # each scenario's field and operator when its turn comes
    fine = tmp_path / "fine.cfg"
    fine.write_text(config_text(WORKLOADS["fine"], DEFAULT_SEED, tmp_path / "out"))
    for command in ("build", "validate"):
        assert main([command, "--config", str(fine)]) == 0
    assert mismatches(tmp_path / "out", FINE_BUILD, FINE_VALIDATE) is None
