"""Smoke test of the benchmark harness on a 10x10 grid (a few seconds).

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import WARMUP  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_emitted(trace, section):
    result = run.run_workload(WARMUP, seed=7, seconds=0.0, trace=trace, setup_runs=1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (6 if trace else 3)
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[section]}
