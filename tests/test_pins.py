import re

from pfsensor.cli import main
from pfsensor.config import parse_config
from pfsensor.markov import build_markov
from pfsensor.pipeline import scenario_set

from pins import (
    BUILD,
    CONVERGE,
    KDE_DATA,
    KDE_PLACE,
    OPERATOR,
    PLACE,
    PROPAGATE,
    VALIDATE,
    csr_sha256,
    mismatches,
)
from workloads import DEFAULT_SEED, WORKLOADS, config_text  # pins puts perfbench/ on the path


def test_desk_artifacts_match_their_pins(tmp_path):
    # the runs of the CI steps that check the same tables
    desk = tmp_path / "desk.cfg"
    desk.write_text(config_text(WORKLOADS["desk"], DEFAULT_SEED, tmp_path / "out"))
    runs = (["build"], ["validate"], ["place"], ["propagate"], ["propagate", "--scenario", "4"])
    for command in (*runs, ["converge", "--samples", "3", "5", "7"]):
        assert main([*command, "--config", str(desk)]) == 0
    assert mismatches(tmp_path / "out", PLACE, BUILD, VALIDATE, PROPAGATE, CONVERGE) is None
    # no command writes an operator: rebuild the pinned ones from the config
    cfg = parse_config(desk)
    _, scenarios = scenario_set(cfg)
    for idx, pinned in OPERATOR.items():
        assert csr_sha256(build_markov(scenarios[idx], cfg.dt, cfg.outlets).matrix) == pinned

    (tmp_path / "data.txt").write_text(KDE_DATA)
    kde = tmp_path / "kde.cfg"
    text = config_text(WORKLOADS["desk"], DEFAULT_SEED, tmp_path / "kde")
    kde.write_text(re.sub(r"(?m)^distribution = .*$", "distribution = kde data.txt", text))
    assert main(["place", "--config", str(kde)]) == 0
    assert mismatches(tmp_path / "kde", KDE_PLACE) is None

