import json
import re
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from pfsensor import pipeline, uncertainty
from pfsensor.cli import main
from pfsensor.config import ConfigError, RunConfig, apply, parse_config
from pfsensor.flowfield import VelocityField, load_field, save_field, save_scalar_field
from pfsensor.grid import StructuredGrid, box_mask
from pfsensor.markov import build_markov, propagate
from pfsensor.pipeline import release_field, run_place, scenario_set
from pfsensor.placement import coverage_vectors, expected_coverage
from pfsensor.tracking import detection_matrix
from pfsensor.uncertainty import cdf_points_for

from oracles import PoleDensity, admissible_dt, zero_field

BASE_CFG = """\
dims = 12 12 1
spacing = 0.1 0.1 0.2
origin = 0 0 0
diffusivity = 2e-4
dt = 0.05
steps = 40
family = vortex
distribution = gaussian 0.5 0.05
cdf_points = 0 0.1 0.3 0.5 0.7 0.9 1.0
eps_acc = 1e-4
sensors = 4
out = {out}
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def base_cfg(tmp_path, extra="", **overrides):
    """BASE_CFG with each override's line replaced, or dropped when None."""
    out = overrides.pop("out", tmp_path / "out")
    text = BASE_CFG.format(out=out)
    for key, value in overrides.items():
        text = "\n".join(
            line for line in text.splitlines() if not line.startswith(f"{key} ")
        )
        if value is not None:
            text += f"\n{key} = {value}"
    return write_cfg(tmp_path, text + "\n" + extra)


def test_build_writes_manifest_and_matrices(tmp_path):
    cfg = base_cfg(tmp_path)
    assert main(["build", "--config", str(cfg)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert len(manifest["scenarios"]) == 7
    thetas = [s["theta"] for s in manifest["scenarios"]]
    assert sum(thetas) == pytest.approx(1.0, abs=1e-9)
    for entry in manifest["scenarios"]:
        assert sorted(entry) == ["field", "id", "theta", "xi"]
        assert (tmp_path / "out" / entry["field"]).exists()
    assert not list((tmp_path / "out").glob("markov-*"))


def test_build_single_scenario_weight_one(tmp_path):
    g = StructuredGrid((4, 4, 1), (0.25, 0.25, 0.2))
    field_path = tmp_path / "still.txt"
    save_field(field_path, zero_field(g))
    cfg = write_cfg(
        tmp_path,
        f"dt = 0.5\nsteps = 5\nfield = {field_path} 0.0 1.0\nout = {tmp_path/'out'}\n",
    )
    assert main(["build", "--config", str(cfg)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert [s["theta"] for s in manifest["scenarios"]] == [1.0]


def test_build_single_synthetic_sample(tmp_path):
    # one cdf point: the lone sample carries the whole probability mass
    cfg = base_cfg(tmp_path, cdf_points="0.5")
    assert main(["build", "--config", str(cfg)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert len(manifest["scenarios"]) == 1
    assert manifest["scenarios"][0]["theta"] == 1.0
    assert manifest["scenarios"][0]["xi"] == pytest.approx(0.5, abs=1e-9)


def test_build_missing_field_file_exits_2(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        f"dt = 0.5\nsteps = 5\nfield = {tmp_path/'nope.txt'} 0.0 1.0\nout = {tmp_path/'out'}\n",
    )
    assert main(["build", "--config", str(cfg)]) == 2
    assert "nope.txt" in capsys.readouterr().err


def test_build_unstable_dt_exits_2_with_admissible_hint(tmp_path, capsys):
    cfg = base_cfg(tmp_path, dt="50.0")
    assert main(["build", "--config", str(cfg)]) == 2
    assert "admissible dt" in capsys.readouterr().err


def test_unstable_dt_hint_is_the_ensemble_minimum(tmp_path, capsys):
    # each scenario admits a different dt; the hint must suit all of them
    cfg = base_cfg(tmp_path, dims="8 8 1", cdf_points="0 0.5 1")
    assert main(["place", "--config", str(cfg), "--dt", "5"]) == 2
    hint = re.search(r"largest admissible dt = (\S+)", capsys.readouterr().err).group(1)
    assert main(["place", "--config", str(cfg), "--dt", hint]) == 0


def test_build_unstable_dt_writes_nothing_and_the_hint_builds_every_scenario(
    tmp_path, capsys, monkeypatch
):
    def refuse(*args):
        raise AssertionError("an operator was built before every scenario was checked")

    cfg = base_cfg(tmp_path, dims="8 8 1", cdf_points="0 0.5 1")
    with monkeypatch.context() as patch:
        patch.setattr("pfsensor.pipeline.build_markov", refuse)
        assert main(["build", "--config", str(cfg), "--dt", "5"]) == 2
    hint = re.search(r"largest admissible dt = (\S+)", capsys.readouterr().err).group(1)
    assert not (tmp_path / "out").exists()
    parsed = parse_config(cfg)
    _, fields, _, _ = scenario_set(parsed)
    assert float(hint) == min(admissible_dt(field, parsed.diffusivity) for field in fields)
    assert main(["build", "--config", str(cfg), "--dt", hint]) == 0
    written = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert written == [*(f"field-{i:03d}.txt" for i in range(3)), "manifest.json"]


@pytest.mark.parametrize(
    "command, calls",
    [
        (["build"], 0),
        (["validate"], 3),
        (["place"], 3),
        (["converge", "--samples", "3", "5"], 5),
        (["propagate"], 1),
    ],
    ids=["build", "validate", "place", "converge", "propagate"],
)
def test_every_ensemble_command_holds_one_operator_at_a_time(
    tmp_path, monkeypatch, command, calls
):
    # workers = 1: each operator is dropped before the next is built
    counts = Counter()

    def dropped():
        counts["live"] -= 1

    def counted(*args, real=pipeline.build_markov):
        operator = real(*args)
        counts["calls"] += 1
        counts["live"] += 1
        counts["peak"] = max(counts["peak"], counts["live"])
        weakref.finalize(operator.matrix, dropped)
        return operator

    monkeypatch.setattr(pipeline, "build_markov", counted)
    cfg = base_cfg(tmp_path, dims="8 8 1", dt="0.017", steps="25", cdf_points="0 0.5 1")
    cfg.write_text(cfg.read_text() + "workers = 1\nvalidate_tol = 10\n")
    assert main([*command, "--config", str(cfg)]) == 0
    # build checks dt and assembles no operator
    assert (counts["calls"], counts["peak"], counts["live"]) == (calls, min(calls, 1), 0)


@pytest.mark.parametrize(
    "run", [pipeline.run_build, pipeline.run_validate], ids=["build", "validate"]
)
def test_build_and_validate_peak_memory_is_about_one_scenario(tmp_path, capsys, run):
    # 11 scenarios on 6 400 cells: holding every field, or every scenario's
    # rate triplets joined at once, reads above 4 of the units below
    cfg = base_cfg(tmp_path, dims="80 80 1", dt="0.003", steps="10", validate_tol="10")
    cfg = replace(parse_config(cfg), cdf_points=tuple(i / 10 for i in range(11)))
    _, fields, _, _ = scenario_set(cfg)
    field = fields[5]
    operator = build_markov(field, cfg.diffusivity, cfg.dt, cfg.outlets).matrix
    arrays = (field.u, field.v, operator.indptr, operator.indices, operator.data)
    unit = sum(array.nbytes for array in arrays)
    del fields, field, operator, arrays
    run(cfg)  # first-call set-up stays out of the measured call
    tracemalloc.start()
    try:
        run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 3.5 * unit


def test_validate_unstable_dt_hint_is_the_ensemble_minimum(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a PDE solve ran before every scenario was checked")

    cfg = base_cfg(tmp_path, dims="8 8 1", cdf_points="0 0.5 1")
    with monkeypatch.context() as patch:
        patch.setattr("pfsensor.pde.solve_pde", refuse)
        assert main(["validate", "--config", str(cfg), "--dt", "5"]) == 2
    hint = re.search(r"largest admissible dt = (\S+)", capsys.readouterr().err).group(1)
    assert main(["validate", "--config", str(cfg), "--dt", hint, "--tolerance", "10"]) == 0


@pytest.mark.parametrize("command", ["build", "place"])
def test_out_naming_a_file_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command):
    def refuse(*args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(f"pfsensor.cli.run_{command}", refuse)
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    cfg = base_cfg(tmp_path)
    for out in (taken, taken / "sub"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"out: {taken} is not a directory" in capsys.readouterr().err
    assert taken.read_text() == "keep\n"


def test_place_respects_sensor_budget(tmp_path):
    cfg = base_cfg(tmp_path)
    assert main(["build", "--config", str(cfg)]) == 0
    assert main(["place", "--config", str(cfg)]) == 0
    plan = json.loads((tmp_path / "out" / "plan.json").read_text())
    states = [s["state"] for s in plan["sensors"]]
    assert 1 <= len(states) <= 4
    assert len(set(states)) == len(states)
    assert (tmp_path / "out" / "coverage-expected.txt").exists()
    table = (tmp_path / "out" / "coverage-sensors.txt").read_text().splitlines()
    assert table[:2] == ["# pfsensor-coverage v1", f"144 {len(states)}"]
    assert {int(row.split()[1]) for row in table[2:]} == set(range(1, len(states) + 1))


def test_place_sensor_flag_overrides_config(tmp_path):
    cfg = base_cfg(tmp_path)
    assert main(["build", "--config", str(cfg)]) == 0
    assert main(["place", "--config", str(cfg), "--sensors", "2"]) == 0
    plan = json.loads((tmp_path / "out" / "plan.json").read_text())
    assert len(plan["sensors"]) <= 2
    assert plan["settings"]["k"] == 2


def test_constrained_place_avoids_forbidden_states(tmp_path):
    unconstrained_cfg = base_cfg(tmp_path)
    assert main(["build", "--config", str(unconstrained_cfg)]) == 0
    assert main(["place", "--config", str(unconstrained_cfg)]) == 0
    free_plan = json.loads((tmp_path / "out" / "plan.json").read_text())

    # forbid the state the free run liked best
    grid = StructuredGrid((12, 12, 1), (0.1, 0.1, 0.2))
    best = free_plan["sensors"][0]["position"]
    lo = (best[0] - 0.051, best[1] - 0.051, 0.0)
    hi = (best[0] + 0.051, best[1] + 0.051, 1.0)
    forbidden = set(np.flatnonzero(box_mask(grid, lo, hi)).tolist())
    assert len(forbidden) >= 1
    cfg2 = base_cfg(
        tmp_path,
        extra=f"forbidden_box = {lo[0]} {lo[1]} {lo[2]} {hi[0]} {hi[1]} {hi[2]}\n",
        out=tmp_path / "out2",
    )
    assert main(["build", "--config", str(cfg2)]) == 0
    assert main(["place", "--config", str(cfg2)]) == 0
    plan = json.loads((tmp_path / "out2" / "plan.json").read_text())
    states = {s["state"] for s in plan["sensors"]}
    assert states.isdisjoint(forbidden)
    assert set(plan["settings"]["forbidden_states"]) == forbidden


def test_min_coverage_counts_only_the_occupied_zone(tmp_path, capsys):
    # the zone is a quarter of the room, so whole-room coverage stays below 0.9
    cfg = base_cfg(
        tmp_path,
        extra="occupied_box = 0 0 0 0.5 0.5 1\n",
        dims="20 20 1",
        spacing="0.05 0.05 0.2",
        dt="0.02",
        sensors=None,
        min_coverage="0.9",
    )
    assert main(["place", "--config", str(cfg)]) == 0
    assert "stopped early" not in capsys.readouterr().out
    doc = json.loads((tmp_path / "out" / "plan.json").read_text())
    assert len(doc["sensors"]) == 1
    assert doc["occupied_space_coverage"] >= 0.9
    assert not doc["truncated"]


def test_sensing_constraint_reports_occupied_coverage(tmp_path):
    cfg = base_cfg(tmp_path, extra="occupied_box = 0 0 0 0.6 0.6 1\n")
    assert main(["build", "--config", str(cfg)]) == 0
    assert main(["place", "--config", str(cfg)]) == 0
    plan = json.loads((tmp_path / "out" / "plan.json").read_text())
    assert plan["occupied_space_coverage"] is not None
    assert plan["occupied_space_coverage"] >= plan["cumulative_expected_coverage"]


def test_staged_pipeline_matches_in_memory_run(tmp_path):
    cfg_path = base_cfg(tmp_path)
    assert main(["build", "--config", str(cfg_path)]) == 0
    assert main(["place", "--config", str(cfg_path)]) == 0
    staged = (tmp_path / "out" / "plan.json").read_bytes()

    cfg = parse_config(cfg_path)
    cfg.out = str(tmp_path / "mem")
    run_place(cfg)
    in_memory = (tmp_path / "mem" / "plan.json").read_bytes()
    assert staged == in_memory


ZONES = "occupied_box = 0 0 0 0.6 0.6 1\nforbidden_box = 0.2 0.2 0 0.5 0.5 1\n"


@pytest.mark.parametrize("extra", [ZONES, ZONES + "outlets = x+ y-\n"], ids=["zoned", "outlets"])
def test_place_without_build_matches_build_then_place(tmp_path, extra):
    # eps_acc = 0.03 keeps four sensors short of covering the zone
    built = base_cfg(tmp_path, extra=extra, eps_acc="0.03", out=tmp_path / "built")
    assert main(["build", "--config", str(built)]) == 0
    assert main(["place", "--config", str(built)]) == 0
    fresh = base_cfg(tmp_path, extra=extra, eps_acc="0.03", out=tmp_path / "fresh")
    assert main(["place", "--config", str(fresh)]) == 0
    placed = {p.name: p.read_bytes() for p in (tmp_path / "fresh").iterdir()}
    assert sorted(placed) == ["coverage-expected.txt", "coverage-sensors.txt", "plan.json"]
    assert len(json.loads(placed["plan.json"])["sensors"]) == 4
    table = placed["coverage-sensors.txt"].decode().splitlines()
    assert table[1] == "144 4"
    assert {int(row.split()[1]) for row in table[2:]} == {1, 2, 3, 4}
    for name, data in placed.items():
        assert (tmp_path / "built" / name).read_bytes() == data


@pytest.mark.parametrize("extra", [ZONES, ZONES + "outlets = x+ y-\n"], ids=["zoned", "outlets"])
def test_place_from_build_field_exports_matches_the_family_place(tmp_path, extra):
    # build's field files with the manifest's xi and theta are a field config
    # for the same ensemble, so placing from them gives the family's bytes
    family = base_cfg(tmp_path, extra=extra, eps_acc="0.03", out=tmp_path / "family")
    assert main(["build", "--config", str(family)]) == 0
    assert main(["place", "--config", str(family)]) == 0
    manifest = json.loads((tmp_path / "family" / "manifest.json").read_text())
    fields = "".join(
        f"field = {tmp_path / 'family' / entry['field']} {entry['xi']!r} {entry['theta']!r}\n"
        for entry in manifest["scenarios"]
    )
    exported = base_cfg(
        tmp_path,
        extra=extra + fields,
        eps_acc="0.03",
        family=None,
        distribution=None,
        cdf_points=None,
        out=tmp_path / "fields",
    )
    assert main(["place", "--config", str(exported)]) == 0
    for name in ("plan.json", "coverage-expected.txt", "coverage-sensors.txt"):
        placed = (tmp_path / "fields" / name).read_bytes()
        assert placed == (tmp_path / "family" / name).read_bytes()


def test_place_needs_dt(tmp_path, capsys):
    # place builds its operators from the config, never from a build's files
    cfg = base_cfg(tmp_path)
    lines = cfg.read_text().splitlines()
    cfg.write_text("\n".join(line for line in lines if not line.startswith("dt ")))
    assert main(["build", "--config", str(cfg), "--dt", "0.05"]) == 0
    assert main(["place", "--config", str(cfg)]) == 2
    assert "place needs dt" in capsys.readouterr().err
    assert not (tmp_path / "out" / "plan.json").exists()


def test_place_without_manifest_exits_2(tmp_path, capsys):
    # with no build and no manifest, dt can come only from the config
    cfg = base_cfg(tmp_path)
    lines = cfg.read_text().splitlines()
    cfg.write_text("\n".join(line for line in lines if not line.startswith("dt ")))
    assert main(["place", "--config", str(cfg)]) == 2
    assert "place needs dt" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_place_empty_occupied_zone_exits_before_tracking(tmp_path, capsys, monkeypatch):
    def no_tracking(*args):
        raise AssertionError("tracking ran")

    monkeypatch.setattr("pfsensor.pipeline.detection_matrix", no_tracking)
    # cell centres sit at 0.05, 0.15, ...: this box holds none of them
    cfg = base_cfg(tmp_path, extra="occupied_box = 0.01 0.01 0 0.04 0.04 1\n")
    assert main(["place", "--config", str(cfg)]) == 2
    assert "occupied_box contains no cell centers" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["place", "build", "converge"])
def test_grid_too_large_for_int32_pairs_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, command
):
    def no_work(*args):
        raise AssertionError("a flow field was allocated")

    monkeypatch.setattr("pfsensor.pipeline.synth_recirculating", no_work)
    cfg = base_cfg(tmp_path, dims="100000 100000 1")
    samples = ["--samples", "2", "3"] if command == "converge" else []
    assert main([command, "--config", str(cfg), *samples]) == 2
    err = capsys.readouterr().err
    assert "dims (100000, 100000, 1)" in err and "2147483647" in err
    assert not (tmp_path / "out").exists()


def test_state_cap_counts_the_exit_state():
    # 2**31 - 2 cells plus the exit state is the largest grid int32 pairs index
    cfg = RunConfig()
    apply(cfg, "dims", f"{2**31 - 2} 1 1")
    assert cfg.dims == (2**31 - 2, 1, 1)
    with pytest.raises(ConfigError, match=r"dims \(2147483647, 1, 1\)"):
        apply(cfg, "dims", f"{2**31 - 1} 1 1")


def test_validate_still_air_is_exact(tmp_path):
    g = StructuredGrid((5, 5, 1), (0.2, 0.2, 0.2))
    field_path = tmp_path / "still.txt"
    save_field(field_path, zero_field(g))
    cfg = write_cfg(
        tmp_path,
        f"dt = 0.5\nsteps = 10\ndiffusivity = 0\nfield = {field_path} 0.0 1.0\n"
        f"out = {tmp_path/'out'}\n",
    )
    assert main(["validate", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "validation.json").read_text())
    assert report[0]["l2_error"] == 0.0


def test_validate_tolerance_breach_exits_3(tmp_path, capsys):
    # the operator step cannot hit a 1e-8 tolerance against the finer reference
    cfg = base_cfg(tmp_path, steps="20")
    code = main(["validate", "--config", str(cfg), "--tolerance", "1e-8"])
    assert code == 3
    assert "validation failed" in capsys.readouterr().out


@pytest.mark.parametrize(
    "extra, flags, where",
    [
        ({"validate_tol": "-1"}, [], "run.cfg:13: "),
        ({}, ["--tolerance", "-1"], ""),
    ],
    ids=["config", "flag"],
)
def test_validate_negative_tolerance_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, extra, flags, where
):
    def refuse(*args):
        raise AssertionError("the command ran")

    monkeypatch.setattr("pfsensor.cli.run_validate", refuse)
    cfg = base_cfg(tmp_path, **extra)
    assert main(["validate", "--config", str(cfg), *flags]) == 2
    assert f"{where}validate_tol must be >= 0, got -1.0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, artifact", [("place", "plan.json"), ("validate", "validation.json")]
)
def test_artifact_path_that_is_a_directory_exits_2(tmp_path, capsys, command, artifact):
    cfg = small_cfg(tmp_path)
    target = tmp_path / "out" / artifact
    target.mkdir(parents=True)
    assert main([command, "--config", str(cfg)]) == 2
    assert str(target) in capsys.readouterr().err
    assert target.is_dir() and not any(target.iterdir())
    assert not list((tmp_path / "out").glob("*.tmp"))


def test_place_all_columns_forbidden_exits_with_diagnostic(tmp_path, capsys):
    cfg = base_cfg(tmp_path, extra="forbidden_box = -1 -1 -1 99 99 99\n")
    assert main(["build", "--config", str(cfg)]) == 0
    assert main(["place", "--config", str(cfg)]) == 2
    assert "every candidate column" in capsys.readouterr().err


def refuse_quadrature(*args):
    raise AssertionError("the quadrature ran")


def refuse_operators(monkeypatch):
    def refuse(*args):
        raise AssertionError("an operator was built")

    monkeypatch.setattr("pfsensor.pipeline.admissible_dt", refuse)
    monkeypatch.setattr("pfsensor.pipeline.build_markov", refuse)


@pytest.mark.parametrize(
    "extra, message",
    [
        (
            "forbidden_box = -1 -1 -1 99 99 99\n",
            "forbidden-location mask excludes every candidate column",
        ),
        # cell centres sit at 0.05, 0.15, ...: this box holds none of them
        ("occupied_box = 0.01 0.01 0 0.04 0.04 1\n", "occupied_box contains no cell centers"),
    ],
    ids=["all-forbidden", "empty-zone"],
)
def test_place_and_converge_refuse_the_same_empty_zones(
    tmp_path, capsys, monkeypatch, extra, message
):
    # the zones need only the grid, so neither command builds an operator
    # or runs the quadrature
    refuse_operators(monkeypatch)
    monkeypatch.setattr("pfsensor.pipeline.quadrature_rule", refuse_quadrature)
    monkeypatch.setattr("pfsensor.pipeline.ladder_rules", refuse_quadrature)
    cfg = small_cfg(tmp_path)
    cfg.write_text(cfg.read_text() + extra)
    assert main(["place", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["converge", "--config", str(cfg), "--samples", "2", "3"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "propagate"])
def test_empty_release_box_exits_2_before_any_operator(tmp_path, capsys, monkeypatch, command):
    refuse_operators(monkeypatch)
    cfg = small_cfg(tmp_path)
    # cell centres sit at 0.05, 0.15, ...: this box holds none of them
    cfg.write_text(cfg.read_text() + "release_box = 0.01 0.01 0 0.04 0.04 1\n")
    assert main([command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: release_box contains no cell centers\n"


@pytest.mark.parametrize(
    "command, missing",
    [
        ("build", ("dt",)),
        ("place", ("dt",)),
        ("validate", ("dt",)),
        ("converge", ("dt",)),
        ("propagate", ("dt",)),
        ("place", ("steps",)),
        ("converge", ("dt", "steps")),
    ],
    ids=["build", "place", "validate", "converge", "propagate", "place-steps", "converge-both"],
)
def test_command_without_a_needed_key_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, command, missing
):
    def no_work(*args):
        raise AssertionError("a flow field was allocated")

    monkeypatch.setattr("pfsensor.pipeline.synth_recirculating", no_work)
    cfg = base_cfg(tmp_path, **dict.fromkeys(missing))
    samples = ["--samples", "2", "3"] if command == "converge" else []
    assert main([command, "--config", str(cfg), *samples]) == 2
    assert capsys.readouterr().err == f"error: {command} needs {' and '.join(missing)}\n"
    assert not (tmp_path / "out").exists()


def test_outlet_pipeline_end_to_end(tmp_path):
    # an absorbing outlet adds one exit state; it is a legal sensor column
    cfg = base_cfg(tmp_path, extra="outlets = x+\n")
    assert main(["build", "--config", str(cfg)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["outlets"] == ["x+"]
    assert main(["place", "--config", str(cfg)]) == 0
    plan = json.loads((tmp_path / "out" / "plan.json").read_text())
    n = 12 * 12
    for sensor in plan["sensors"]:
        assert 0 <= sensor["state"] <= n
        if sensor["state"] == n:  # the exit state has no cell coordinates
            assert sensor["ijk"] is None and sensor["position"] is None


@pytest.mark.parametrize(
    "key, flags, extra",
    [
        ("dt", ["--dt", "nan"], {}),
        ("dt", [], {"dt": "inf"}),
        ("diffusivity", [], {"diffusivity": "nan"}),
        ("eps_acc", ["--eps-acc", "nan"], {}),
        ("min_coverage", ["--min-coverage", "nan"], {}),
        ("validate_tol", [], {"validate_tol": "nan"}),
        ("spacing", [], {"spacing": "0.1 nan 0.2"}),
        ("origin", [], {"origin": "0 -inf 0"}),
    ],
)
def test_build_rejects_non_finite_numbers(tmp_path, capsys, key, flags, extra):
    cfg = base_cfg(tmp_path, **extra)
    assert main(["build", "--config", str(cfg), *flags]) == 2
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("numbers", ["nan 1.0", "0.5 nan"])
def test_build_rejects_non_finite_field_entry(tmp_path, capsys, numbers):
    field_path = tmp_path / "f0.txt"
    save_field(field_path, zero_field(StructuredGrid((4, 4, 1), (0.25, 0.25, 0.2))))
    cfg = write_cfg(
        tmp_path,
        f"dt = 0.5\nsteps = 5\nfield = {field_path} {numbers}\nout = {tmp_path / 'out'}\n",
    )
    assert main(["build", "--config", str(cfg)]) == 2
    assert "run.cfg:3: field" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("numbers", ["abc 1", "0.5 nan", "inf 0.05", "0.5 0"])
def test_build_rejects_bad_distribution(tmp_path, capsys, numbers):
    cfg = base_cfg(tmp_path, distribution=f"gaussian {numbers}")
    assert main(["build", "--config", str(cfg)]) == 2
    assert "run.cfg:12: distribution" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["place", "build"])
@pytest.mark.parametrize("spacing", ["1e300 1e300 1e300", "1e-120 1e-120 1e-120"])
def test_spacing_whose_volume_overflows_or_underflows_exits_2_naming_spacing(
    tmp_path, capsys, command, spacing
):
    cfg = base_cfg(tmp_path, dims="6 6 1", spacing=spacing)
    assert main([command, "--config", str(cfg)]) == 2
    assert "error: grid spacing" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "distribution, message",
    [
        ("kde big.txt", "KDE data {tmp}/big.txt: data standard deviation overflows"),
        ("gaussian 1e308 1e308", "distribution: support (-inf, inf) is not finite"),
    ],
    ids=["kde", "gaussian"],
)
def test_spread_that_overflows_exits_2_naming_the_key_or_file(
    tmp_path, capsys, distribution, message
):
    (tmp_path / "big.txt").write_text("1e308\n-1e308\n")
    cfg = base_cfg(tmp_path, distribution=distribution)
    assert main(["place", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(tmp=tmp_path)}\n"
    assert not (tmp_path / "out").exists()


def test_quadpack_failure_exits_2_naming_interval_and_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("pfsensor.pipeline.make_distribution", lambda cfg: PoleDensity())
    cfg = str(base_cfg(tmp_path))
    # converge's points come from its sample counts, not from cdf_points
    for command, source in (
        (["build"], "cdf_points"), (["converge", "--samples", "3", "2"], "--samples 3 2")
    ):
        assert main([*command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {source} under distribution gaussian 0.5 0.05: ")
        assert "over [0.0, 0.5]: the density is too irregular" in err
    assert not (tmp_path / "out").exists()


def test_cdf_points_that_break_the_quadrature_exit_2_naming_the_key(tmp_path, capsys):
    # distinct CDF points whose inverse-CDF samples round to one value
    cfg = base_cfg(tmp_path, cdf_points="0.3 0.3000000000001 1")
    assert main(["place", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "error: cdf_points under distribution gaussian 0.5 0.05: "
        "samples must be strictly increasing\n"
    )
    assert not (tmp_path / "out").exists()


def test_validate_refuses_outlets(tmp_path, capsys):
    cfg = base_cfg(tmp_path, extra="outlets = x+\n")
    assert main(["validate", "--config", str(cfg)]) == 2
    assert "outlets" in capsys.readouterr().err
    assert not (tmp_path / "out" / "validation.json").exists()


def test_validate_with_zero_steps_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("pfsensor.pipeline.quadrature_rule", refuse_quadrature)
    cfg = base_cfg(tmp_path, steps="0")
    assert main(["validate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: validate needs steps >= 1\n"
    assert not (tmp_path / "out").exists()


def test_place_without_a_count_or_target_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("pfsensor.pipeline.quadrature_rule", refuse_quadrature)
    cfg = base_cfg(tmp_path, sensors=None)
    assert main(["place", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: set a sensor count or a min_coverage target\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "extra, warned",
    [
        # one sensor covers about half the room
        ("", True),
        # but 0.9 of this zone, the coverage the target is then judged on
        ("occupied_box = 0 0 0 0.5 0.5 1\n", False),
    ],
    ids=["room", "zone"],
)
def test_place_warns_when_the_sensor_count_stops_it_below_min_coverage(
    tmp_path, capsys, extra, warned
):
    cfg = base_cfg(
        tmp_path,
        extra=extra,
        dims="20 20 1",
        spacing="0.05 0.05 0.2",
        dt="0.02",
        sensors="1",
        min_coverage="0.9",
    )
    assert main(["place", "--config", str(cfg)]) == 0
    warning = "warning: the sensor count 1 stopped placement below min_coverage 0.9\n"
    assert (warning in capsys.readouterr().out) == warned
    doc = json.loads((tmp_path / "out" / "plan.json").read_text())
    assert len(doc["sensors"]) == 1 and not doc["truncated"]


@pytest.mark.parametrize(
    "key, value, got",
    [
        ("dims", "6 6 1", "(6, 6, 1) do not match field dims (4, 4, 1)"),
        ("spacing", "0.3 0.3 0.3", "(0.3, 0.3, 0.3) do not match field spacing (0.25, 0.25, 0.2)"),
        ("origin", "1 1 0", "(1.0, 1.0, 0.0) do not match field origin (0.0, 0.0, 0.0)"),
    ],
    ids=["dims", "spacing", "origin"],
)
def test_field_config_grid_keys_must_match_the_files(tmp_path, capsys, key, value, got):
    save_field(tmp_path / "still.txt", zero_field(StructuredGrid((4, 4, 1), (0.25, 0.25, 0.2))))
    text = f"dt = 0.5\nsteps = 5\nsensors = 1\nfield = still.txt 0.0 1.0\n{key} = {value}\n"
    cfg = write_cfg(tmp_path, text + f"out = {tmp_path / 'out'}\n")
    assert main(["place", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: configured {key} {got}\n"
    assert not (tmp_path / "out").exists()


# a field config: the family's three keys dropped
FIELD_SOURCE = {"family": None, "distribution": None, "cdf_points": None}


@pytest.mark.parametrize(
    "command, overrides, extra, message",
    [
        (["build"], {"dims": None}, "", "grid dims not configured"),
        (
            ["build"],
            {},
            "field = still.txt 0.0 1.0\n",
            "give either explicit field entries or a synthetic family",
        ),
        (
            ["build"],
            {"cdf_points": None},
            "",
            "synthetic family needs 'distribution' and 'cdf_points'",
        ),
        (
            ["build"],
            {"family": None, "distribution": None},
            "field = still.txt 0.0 1.0\n",
            "cdf_points given without a distribution",
        ),
        (
            ["build"],
            FIELD_SOURCE,
            "field = still.txt 0.0 0.5\nfield = coarse.txt 1.0 0.5\n",
            "field {tmp}/coarse.txt uses a different grid",
        ),
        (
            ["build"],
            FIELD_SOURCE,
            "field = fractional.txt 0.0 1.0\n",
            "{tmp}/fractional.txt:2: grid dimensions must be integers, got [2.5, 2.0, 1.0]",
        ),
        (["converge", "--samples", "3", "3"], {}, "", "sample counts must be distinct"),
        (
            ["converge", "--samples", "2", "3"],
            FIELD_SOURCE,
            "field = still.txt 0.0 1.0\n",
            "convergence study needs a synthetic family config",
        ),
    ],
    ids=[
        "family-without-dims",
        "family-and-fields",
        "family-without-cdf-points",
        "cdf-points-without-distribution",
        "fields-on-two-grids",
        "fractional-field-dims",
        "repeated-sample-count",
        "converge-on-fields",
    ],
)
def test_scenario_source_errors_exit_2_before_any_operator(
    tmp_path, capsys, monkeypatch, command, overrides, extra, message
):
    refuse_operators(monkeypatch)
    monkeypatch.setattr("pfsensor.pipeline.quadrature_rule", refuse_quadrature)
    save_field(tmp_path / "still.txt", zero_field(StructuredGrid((4, 4, 1), (0.25, 0.25, 0.2))))
    save_field(tmp_path / "coarse.txt", zero_field(StructuredGrid((2, 2, 1), (0.5, 0.5, 0.2))))
    (tmp_path / "fractional.txt").write_text("# pfsensor-field v1\n2.5 2 1\n1 1 1\n0 0 0\n")
    cfg = base_cfg(tmp_path, extra=extra, **overrides)
    assert main([*command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(tmp=tmp_path)}\n"
    assert not (tmp_path / "out").exists()


def test_unreadable_config_exits_2_naming_it(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["build", "--config", str(missing)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read config {missing}: ")


def test_one_cell_grid_runs_every_command(tmp_path):
    # no interior face: the operator is the 1 x 1 identity
    cfg = base_cfg(tmp_path, dims="1 1 1")
    for command in (["build"], ["place"], ["validate"], ["converge", "--samples", "2", "3"]):
        assert main([*command, "--config", str(cfg)]) == 0
    assert main(["propagate", "--config", str(cfg), "--scenario", "6"]) == 0
    plan = json.loads((tmp_path / "out" / "plan.json").read_text())
    assert [sensor["state"] for sensor in plan["sensors"]] == [0]
    # the weights sum to 1 within rounding
    assert plan["cumulative_expected_coverage"] == pytest.approx(1.0, abs=1e-12)
    report = json.loads((tmp_path / "out" / "validation.json").read_text())
    assert [row["l2_error"] for row in report] == [0.0] * 7
    assert load_field(tmp_path / "out" / "concentration-006.txt").u.tolist() == [1.0]


def test_config_with_a_byte_order_mark_places_the_same_plan(tmp_path):
    plain = base_cfg(tmp_path, dims="8 8 1", dt="0.017", steps="25", out=tmp_path / "plain")
    assert main(["place", "--config", str(plain)]) == 0
    marked = base_cfg(tmp_path, dims="8 8 1", dt="0.017", steps="25", out=tmp_path / "bom")
    marked.write_text(marked.read_text(), encoding="utf-8-sig")
    assert main(["place", "--config", str(marked)]) == 0
    plan = (tmp_path / "bom" / "plan.json").read_bytes()
    assert plan == (tmp_path / "plain" / "plan.json").read_bytes()


def test_kde_data_and_field_files_with_a_byte_order_mark_read_alike(tmp_path):
    rng = np.random.default_rng(3)
    grid = StructuredGrid((3, 2, 1), (0.5, 0.5, 0.2))
    save_field(tmp_path / "field.txt", VelocityField(grid, *rng.uniform(-1.0, 1.0, (3, 6))))
    (tmp_path / "data.txt").write_text("0.42 0.47 0.5 0.51 0.55 0.61\n")
    for name in ("field.txt", "data.txt"):
        (tmp_path / f"bom-{name}").write_bytes(b"\xef\xbb\xbf" + (tmp_path / name).read_bytes())
    plain, marked = (load_field(tmp_path / name) for name in ("field.txt", "bom-field.txt"))
    assert marked.grid == plain.grid
    assert all(np.array_equal(getattr(marked, c), getattr(plain, c)) for c in "uvw")
    plain, marked = (
        pipeline.make_distribution(RunConfig(distribution=("kde", name), config_dir=tmp_path))
        for name in ("data.txt", "bom-data.txt")
    )
    assert marked == plain


def small_cfg(tmp_path):
    return base_cfg(tmp_path, dims="8 8 1", dt="0.017", steps="25", cdf_points="0 0.5 1")


def test_place_rejects_non_finite_threshold(tmp_path, capsys):
    cfg = small_cfg(tmp_path)
    assert main(["build", "--config", str(cfg)]) == 0
    assert main(["place", "--config", str(cfg), "--eps-acc", "nan"]) == 2
    assert "eps_acc must be finite" in capsys.readouterr().err


def test_converge_table_layout_and_reference_row(tmp_path):
    cfg = base_cfg(tmp_path, dims="8 8 1", dt="0.017", steps="25")
    assert main(["converge", "--config", str(cfg), "--samples", "2", "3", "5"]) == 0
    rows = json.loads((tmp_path / "out" / "convergence.json").read_text())
    assert [r["samples"] for r in rows] == [2, 3, 5]
    assert rows[-1]["reference"] and rows[-1]["error"] is None
    assert all(r["error"] is not None for r in rows[:-1])


def counted_converge(tmp_path, monkeypatch, ladder) -> Counter:
    """Run converge over `ladder` on a small family config; return the calls
    to the inverse CDF, the field synthesis (counting fields), the operator
    builder and the detection kernel, after checking the table against one
    built from each level's own operators."""
    cfg = base_cfg(tmp_path, dims="8 8 1", dt="0.017", steps="25")
    calls = Counter()
    with monkeypatch.context() as patch:
        for module, name in (
            (uncertainty, "_icdf_one"),
            (pipeline, "synth_recirculating"),
            (pipeline, "build_markov"),
            (pipeline, "detection_matrix"),
        ):
            real = getattr(module, name)

            def counted(*args, real=real, name=name):
                calls[name] += len(args[1]) if name == "synth_recirculating" else 1
                return real(*args)

            patch.setattr(module, name, counted)
        samples = [str(m) for m in ladder]
        assert main(["converge", "--config", str(cfg), "--samples", *samples]) == 0
    rows = json.loads((tmp_path / "out" / "convergence.json").read_text())
    # the errors of the table built from each level's own operators
    run_cfg = parse_config(cfg)
    maps = []
    for m in ladder:
        points = tuple(float(p) for p in cdf_points_for(m))
        grid, fields, _, weights = pipeline.scenario_set(replace(run_cfg, cdf_points=points))
        release, candidates = pipeline.detection_zones(run_cfg, grid)
        steps, cutoff = run_cfg.steps, run_cfg.eps_acc * (run_cfg.steps + 1)
        diffusivity, dt, outlets = run_cfg.diffusivity, run_cfg.dt, run_cfg.outlets
        ops = [build_markov(field, diffusivity, dt, outlets).matrix for field in fields]
        detections = [detection_matrix(op, steps, cutoff, release, candidates) for op in ops]
        vectors = coverage_vectors(detections, grid.cell_volume / grid.total_volume)
        maps.append(expected_coverage(vectors, weights))
    norm = float(np.linalg.norm(maps[-1]))
    errors = [float(np.linalg.norm(level - maps[-1])) / norm for level in maps[:-1]]
    assert [r["error"] for r in rows] == errors + [None]
    return calls


def test_converge_builds_each_distinct_sample_once(tmp_path, monkeypatch):
    # 2, 3, 5, 7 and 9 nested CDF points hold 9 distinct points over 26 level
    # entries; each point is sampled, synthesized and built once
    calls = counted_converge(tmp_path, monkeypatch, (2, 3, 5, 7, 9))
    assert calls == {
        "_icdf_one": 9,
        "synth_recirculating": 9,
        "build_markov": 9,
        "detection_matrix": 9,
    }


def test_converge_builds_ulp_close_points_sample_once(tmp_path, monkeypatch):
    # 6's 0.6000000000000001 and 9's 0.6 are two of the 12 points but give
    # one sample, so the union's own rule would find equal samples
    calls = counted_converge(tmp_path, monkeypatch, (6, 9))
    assert calls == {
        "_icdf_one": 12,
        "synth_recirculating": 11,
        "build_markov": 11,
        "detection_matrix": 11,
    }


def test_converge_degenerate_family_all_errors_zero(tmp_path):
    # eps_acc = 0 with diffusion: the tracking pattern saturates to dense for
    # every strength, so the expected coverage no longer depends on samples
    # (up to the float wobble of re-summed quadrature weights)
    cfg = base_cfg(tmp_path, dims="6 6 1", dt="0.013", steps="60", eps_acc="0")
    assert main(["converge", "--config", str(cfg), "--samples", "2", "3", "5"]) == 0
    rows = json.loads((tmp_path / "out" / "convergence.json").read_text())
    assert all(r["error"] <= 1e-12 for r in rows[:-1])


def test_converge_needs_two_counts(tmp_path, capsys):
    cfg = base_cfg(tmp_path)
    assert main(["converge", "--config", str(cfg), "--samples", "5"]) == 2
    assert "at least 2" in capsys.readouterr().err


def test_converge_rejects_a_count_below_two_naming_the_counts(tmp_path, capsys):
    cfg = base_cfg(tmp_path)
    assert main(["converge", "--config", str(cfg), "--samples", "1", "3"]) == 2
    assert capsys.readouterr().err == "error: sample counts must each be >= 2, got [1, 3]\n"


@pytest.mark.parametrize("index", ["7", "-1"])
def test_propagate_rejects_a_scenario_index_before_any_work(tmp_path, capsys, monkeypatch, index):
    monkeypatch.setattr("pfsensor.pipeline.quadrature_rule", refuse_quadrature)
    cfg = base_cfg(tmp_path, cdf_points="0 0.5 1")
    assert main(["propagate", "--config", str(cfg), "--scenario", index]) == 2
    assert capsys.readouterr().err == f"error: scenario index {index} outside [0, 3)\n"


def test_vortex_with_nz_above_one_exits_2_naming_dims_before_any_work(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr("pfsensor.pipeline.quadrature_rule", refuse_quadrature)
    cfg = base_cfg(tmp_path, dims="8 8 2")
    assert main(["build", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == "error: dims (8, 8, 2): family vortex is 2D only (nz = 1)\n"
    assert not (tmp_path / "out").exists()


def test_propagate_writes_concentration_field(tmp_path):
    cfg = base_cfg(tmp_path, extra="release_box = 0.2 0.2 0 0.5 0.5 1\n")
    assert main(["propagate", "--config", str(cfg), "--scenario", "3"]) == 0
    field = load_field(tmp_path / "out" / "concentration-003.txt")
    # closed domain: the release mass is still in the u-component payload
    release = box_mask(field.grid, (0.2, 0.2, 0.0), (0.5, 0.5, 1.0))
    assert field.u.sum() == pytest.approx(float(np.count_nonzero(release)), rel=1e-9)


def test_propagate_synthesizes_only_the_chosen_scenario(tmp_path, monkeypatch):
    # the chosen CDF point alone gives the sample it has in the whole ensemble
    cfg = base_cfg(tmp_path, dims="8 8 1", dt="0.017", steps="25", cdf_points="0 0.5 1")
    parsed = parse_config(cfg)
    grid, fields, _, _ = scenario_set(parsed)
    operator = build_markov(fields[2], parsed.diffusivity, parsed.dt, parsed.outlets).matrix
    expected = tmp_path / "expected.txt"
    phi = propagate(release_field(parsed, grid), operator, parsed.steps)
    save_scalar_field(expected, grid, phi)
    calls = Counter()

    def counted(grid, strengths, real=pipeline.synth_recirculating):
        calls["synth"] += 1
        calls["fields"] += len(strengths)
        return real(grid, strengths)

    monkeypatch.setattr(pipeline, "synth_recirculating", counted)
    assert main(["propagate", "--config", str(cfg), "--scenario", "2"]) == 0
    assert calls == {"synth": 1, "fields": 1}
    assert (tmp_path / "out" / "concentration-002.txt").read_bytes() == expected.read_bytes()


def test_end_to_end_determinism(tmp_path):
    cfg_a = base_cfg(tmp_path, out=tmp_path / "a")
    assert main(["build", "--config", str(cfg_a)]) == 0
    assert main(["place", "--config", str(cfg_a)]) == 0
    first = (tmp_path / "a" / "plan.json").read_bytes()
    assert main(["build", "--config", str(cfg_a)]) == 0
    assert main(["place", "--config", str(cfg_a)]) == 0
    second = (tmp_path / "a" / "plan.json").read_bytes()
    assert first == second


def test_workers_do_not_change_results(tmp_path):
    # every file each ensemble command writes, byte for byte
    commands = [["build"], ["place"], ["validate"], ["converge", "--samples", "2", "3", "5"]]
    written = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        cfg = base_cfg(
            tmp_path, dims="8 8 1", dt="0.017", steps="25", cdf_points="0 0.5 1", out=out
        )
        cfg.write_text(cfg.read_text() + "validate_tol = 10\n")
        for command in commands:
            assert main([*command, "--config", str(cfg), "--workers", workers]) == 0
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    # the manifest and 3 fields, the plan and 2 coverage files,
    # validation.json and convergence.json
    assert len(written[0]) == 9
    assert written[0] == written[1]


def test_config_rejects_unknown_key(tmp_path):
    for line in ("bogus = 1", "removal = literal", "raw_threshold = true"):
        key = line.split()[0]
        path = write_cfg(tmp_path, f"dims = 2 2 1\n{line}\n")
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(path)


@pytest.mark.parametrize(
    "flags", [["--removal", "literal"], ["--raw-threshold"], ["--manifest", "m.json"]]
)
def test_place_rejects_removed_flags(tmp_path, flags):
    cfg = small_cfg(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["place", "--config", str(cfg), *flags])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "line, message",
    [
        ("outlets = x+ q+", "outlets: unknown boundary sides ['q+']"),
        ("forbidden_box = 1 1 0 0 0 1", "forbidden_box: need lo <= hi"),
        ("occupied_box = 0 0 1 1 1 0", "occupied_box: need lo <= hi"),
        ("release_box = 0 0 0 nan 1 1", "release_box: need lo <= hi"),
        ("cdf_points = 0 0.5 1.5", "cdf_points: points must lie in [0, 1]"),
        ("cdf_points = 0 0.5 0.5", "cdf_points: points must be strictly increasing"),
        ("cdf_points =", "cdf_points: need at least one point"),
    ],
    ids=["outlets", "forbidden", "occupied", "release-nan", "cdf-range", "cdf-order", "cdf-empty"],
)
def test_config_rejects_bad_value_naming_key_and_line(tmp_path, line, message):
    path = write_cfg(tmp_path, f"dims = 2 2 1\n{line}\n")
    with pytest.raises(ConfigError, match=re.escape(f"run.cfg:2: {message}")):
        parse_config(path)


def refuse_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("the command ran")

    for name in ("run_build", "run_validate"):
        monkeypatch.setattr(f"pfsensor.cli.{name}", refuse)


@pytest.mark.parametrize(
    "key, flag, bad",
    [
        ("dt", "--dt", "0"),
        ("dt", "--dt", "abc"),
        ("steps", "--steps", "-1"),
        ("steps", "--steps", "1.5"),
        ("eps_acc", "--eps-acc", "2"),
        ("sensors", "--sensors", "0"),
        ("min_coverage", "--min-coverage", "0"),
        ("validate_tol", "--tolerance", "-1"),
        ("workers", "--workers", "0"),
    ],
)
def test_file_and_flag_reject_a_bad_value_alike(tmp_path, capsys, monkeypatch, key, flag, bad):
    refuse_work(monkeypatch)
    from_file = base_cfg(tmp_path, **{key: bad})
    lineno = from_file.read_text().splitlines().index(f"{key} = {bad}") + 1
    assert main(["validate", "--config", str(from_file)]) == 2
    _, _, file_message = capsys.readouterr().err.partition(f"run.cfg:{lineno}: ")
    from_flag = base_cfg(tmp_path)
    assert main(["validate", "--config", str(from_flag), flag, bad]) == 2
    flag_message = capsys.readouterr().err.removeprefix("error: ")
    assert flag_message.startswith(key)
    assert file_message == flag_message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, bad, message",
    [
        ("dims", "0 8 1", "dims must be >= 1, got (0, 8, 1)"),
        ("spacing", "0 0.1 0.2", "spacing must be > 0, got (0.0, 0.1, 0.2)"),
        ("diffusivity", "-1", "diffusivity must be >= 0, got -1.0"),
        ("family", "Vortex", "unknown synthetic family 'Vortex'"),
        ("distribution", "", "distribution: empty specification"),
        ("distribution", "kde", "distribution: expected 'kde <datafile>', got 'kde'"),
        ("field", "f.txt 0.5 1.5", "field: need a theta in [0, 1], got 'f.txt 0.5 1.5'"),
    ],
)
def test_config_value_rejected_where_it_is_read(tmp_path, capsys, monkeypatch, key, bad, message):
    refuse_work(monkeypatch)
    cfg = base_cfg(tmp_path, **{key: bad})
    lineno = cfg.read_text().splitlines().index(f"{key} = {bad}") + 1
    assert main(["build", "--config", str(cfg)]) == 2
    assert f"run.cfg:{lineno}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unparseable_flag_exits_2_through_main(tmp_path, capsys):
    cfg = base_cfg(tmp_path)
    assert main(["build", "--config", str(cfg), "--dt", "abc"]) == 2
    assert capsys.readouterr().err == "error: dt: unparseable number in 'abc'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value", [("dt", "0.01"), ("sensors", "2"), ("family", "vortex"), ("spacing", "1 1 1")]
)
def test_config_rejects_a_key_given_twice(tmp_path, capsys, key, value):
    # the second value used to win silently: place ran at dt = 0.01
    cfg = base_cfg(tmp_path, dims="8 8 1", extra=f"{key} = {value}\n")
    lines = cfg.read_text().splitlines()
    first = next(n for n, line in enumerate(lines, 1) if line.startswith(f"{key} "))
    assert main(["place", "--config", str(cfg)]) == 2
    assert f"run.cfg:{len(lines)}: {key} already set on line {first}\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_lets_fields_and_boxes_repeat(tmp_path):
    g = StructuredGrid((2, 2, 1), (1.0, 1.0, 1.0))
    f = tmp_path / "f.txt"
    save_field(f, zero_field(g))
    boxes = "forbidden_box = 0 0 0 1 1 1\noccupied_box = 0 0 0 1 1 1\n"
    path = write_cfg(tmp_path, f"field = {f} 0.0 0.5\nfield = {f} 1.0 0.5\n" + boxes * 2)
    cfg = parse_config(path)
    cfg.validate()
    assert [entry.xi for entry in cfg.fields] == [0.0, 1.0]
    assert len(cfg.forbidden_boxes) == len(cfg.occupied_boxes) == 2


def test_config_rejects_bad_weights(tmp_path):
    g = StructuredGrid((2, 2, 1), (1.0, 1.0, 1.0))
    f = tmp_path / "f.txt"
    save_field(f, zero_field(g))
    path = write_cfg(tmp_path, f"field = {f} 0.0 0.4\nfield = {f} 1.0 0.4\n")
    cfg = parse_config(path)
    with pytest.raises(ConfigError, match="sum"):
        cfg.validate()


def test_config_kde_distribution(tmp_path):
    data = tmp_path / "wall.txt"
    rng = np.random.default_rng(5)
    data.write_text("\n".join(str(x) for x in 0.5 + 0.05 * rng.standard_normal(60)))
    cfg = base_cfg(tmp_path, distribution=f"kde {data}")
    parsed = parse_config(cfg)
    grid, fields, samples, weights = scenario_set(parsed)
    assert len(fields) == len(samples) == len(weights) == 7
    assert sum(weights) == pytest.approx(1.0, abs=1e-9)


def test_config_paths_join_the_config_directory_unless_absolute(tmp_path, monkeypatch):
    # an absolute KDE data path is read as written; a relative field path is
    # read from the config's directory, whatever the working directory
    data = tmp_path / "data" / "wall.txt"
    data.parent.mkdir()
    data.write_text("0.42 0.47 0.5 0.51 0.55 0.61\n")
    configs = tmp_path / "configs"
    (configs / "fields").mkdir(parents=True)
    still = zero_field(StructuredGrid((4, 4, 1), (0.25, 0.25, 0.2)))
    save_field(configs / "fields" / "still.txt", still)
    kde = base_cfg(tmp_path, distribution=f"kde {data}")
    kde = write_cfg(configs, kde.read_text(), name="kde.cfg")
    fields = "dt = 0.5\nsteps = 5\nfield = fields/still.txt 0.0 1.0\n"
    fields = write_cfg(configs, fields, name="fields.cfg")
    monkeypatch.chdir(tmp_path / "data")
    assert data.is_absolute()
    _, _, _, weights = scenario_set(parse_config(kde))
    assert sum(weights) == pytest.approx(1.0, abs=1e-9)
    grid, _, _, weights = scenario_set(parse_config(fields))
    assert grid.dims == (4, 4, 1) and weights == [1.0]


@pytest.mark.parametrize(
    "data, message",
    [
        ("0.4\nnan\n0.6\n", "non-finite"),
        ("0.5\n", "need at least 2 data points"),
        ("0\n1e-300\n", "standard deviation underflows"),
        ("0.4\nabc\n0.6\n", "non-numeric entries"),
        (None, "No such file"),  # no data file
    ],
)
def test_kde_data_errors_name_the_file(tmp_path, capsys, data, message):
    path = tmp_path / "k.txt"
    if data is not None:
        path.write_text(data)
    cfg = base_cfg(tmp_path, distribution=f"kde {path}")
    assert main(["build", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    named = re.escape(f"KDE data {path}")
    assert re.match(rf"error: (cannot read )?{named}(: | contains )", err) and message in err
