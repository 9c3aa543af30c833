"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime. Tolerances are pinned here, not computed.

Set PFSENSOR_SEED to vary the randomized criteria; the default seed is 0.
"""

import json
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import sparse

from pfsensor.cli import main
from pfsensor.flowfield import synth_recirculating
from pfsensor.grid import StructuredGrid
from pfsensor.markov import StabilityError, build_markov, propagate
from pfsensor.pde import compare_operator
from pfsensor.pipeline import VALIDATE_SUBSTEPS
from pfsensor.placement import coverage_vectors, expected_coverage, place_sensors
from pfsensor.tracking import detection_matrix
from pfsensor.uncertainty import expectation, gaussian, quadrature_rule
from oracles import admissible_dt, assert_row_stochastic, pack_pattern
from test_tracking import tracking_rows

SEED = int(os.environ.get("PFSENSOR_SEED", "0"))


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} ({name}): PASS [{elapsed:.2f}s / budget {budget_seconds}s]")
    assert elapsed < budget_seconds, f"runtime {elapsed:.1f}s over budget {budget_seconds}s"


def random_vortex_scenario(rng, max_cells=64):
    nx = int(rng.integers(2, max_cells + 1))
    ny = int(rng.integers(2, max_cells + 1))
    spacing = (float(rng.uniform(0.02, 0.2)), float(rng.uniform(0.02, 0.2)), 0.2)
    grid = StructuredGrid((nx, ny, 1), spacing)
    xi = float(rng.uniform(-2.0, 2.0))
    diff = float(rng.uniform(0.0, 1e-3))
    return synth_recirculating(grid, [xi])[0], diff


def random_scaled_matrices(rng, n, m_scenarios, density=0.35):
    """Random detection matrices on n uniform cells: each pair present with
    the given density, valued at the release cell's volume fraction 1/n."""
    mats = [
        sparse.csc_array((rng.random((n, n)) < density) / n) for _ in range(m_scenarios)
    ]
    weights = rng.random(m_scenarios)
    weights /= weights.sum()
    return mats, weights


def random_mask(rng, n, low, high):
    """Mask over n states with a random count in [low, high) of them set."""
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n, size=int(rng.integers(low, high)), replace=False)] = True
    return mask


def test_criterion_1_expectation_table():
    with criterion(1, "expectation-table reproduction", 1.0):
        samples, weights = quadrature_rule(gaussian(0.5, 0.05), (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0))
        assert expectation(weights, samples) == pytest.approx(0.499, abs=0.01)
        assert expectation(weights, samples**2) == pytest.approx(0.259, abs=0.01)
        assert expectation(weights, np.exp(samples)) == pytest.approx(1.656, abs=0.01)


def test_criterion_2_operator_invariants():
    with criterion(2, "operator invariants on 200 random scenarios", 30.0):
        rng = np.random.default_rng(SEED)
        for case in range(200):
            field, diff = random_vortex_scenario(rng)
            bound = admissible_dt(field, diff)
            if not np.isfinite(bound):
                bound = 1.0
            dt = float(rng.uniform(0.05, 0.95)) * bound
            operator = build_markov(field, diff, dt).matrix
            assert_row_stochastic(operator)
            if case % 4 == 0:
                with pytest.raises(StabilityError) as err:
                    build_markov(field, diff, float(rng.uniform(1.05, 3.0)) * bound)
                reported = err.value.admissible_dt
                assert reported == pytest.approx(bound, rel=1e-9)
                rebuilt = build_markov(field, diff, reported).matrix
                assert_row_stochastic(rebuilt)


def test_criterion_3_mass_conservation():
    with criterion(3, "mass conservation over 1000 steps", 30.0):
        rng = np.random.default_rng(SEED + 1)
        for _ in range(50):
            field, diff = random_vortex_scenario(rng, max_cells=32)
            bound = admissible_dt(field, diff)
            dt = 0.8 * (bound if np.isfinite(bound) else 1.0)
            operator = build_markov(field, diff, dt).matrix
            phi0 = rng.random(field.grid.n_states)
            out = propagate(phi0, operator, 1000)
            drift = abs(out.sum() - phi0.sum()) / phi0.sum()
            assert drift <= 1e-10


def test_criterion_4_tracking_row_sums():
    with criterion(4, "tracking row sums equal m+1", 10.0):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(10):
            n = int(rng.integers(5, 40))
            dense = rng.random((n, n))
            dense /= dense.sum(axis=1, keepdims=True)
            operator = sparse.csr_array(dense)
            for m in (0, 1, 5, 20):
                sums = tracking_rows(operator, m, np.arange(n)).sum(axis=1)
                assert np.abs(sums - (m + 1.0)).max() <= 1e-9


def test_criterion_5_pde_markov_validation():
    with criterion(5, "operator-vs-PDE desk-scale validation", 60.0):
        errors = []
        for n in (25, 50, 100):
            grid = StructuredGrid((n, n, 1), (1.0 / n, 1.0 / n, 0.2))
            field = synth_recirculating(grid, [0.005])[0]
            steps = max(1, round(50.0 / (0.05 * admissible_dt(field, 1e-5))))
            dt = 50.0 / steps
            centers = grid.cell_centers()
            phi0 = np.exp(
                -((centers[:, 0] - 0.3) ** 2 + (centers[:, 1] - 0.3) ** 2) / (2 * 0.08**2)
            )
            operator = build_markov(field, 1e-5, dt).matrix
            errors.append(
                compare_operator(field, 1e-5, operator, dt, phi0, steps, VALIDATE_SUBSTEPS)
            )
        assert errors[1] <= 1e-2  # the 50x50 horizon-50s configuration
        assert errors[0] > errors[1] > errors[2]  # joint (dt, dx) refinement


def test_criterion_6_greedy_first_sensor_optimality():
    with criterion(6, "greedy equals exhaustive argmax on 500 instances", 30.0):
        rng = np.random.default_rng(SEED + 3)
        for _ in range(500):
            n = int(rng.integers(2, 21))
            m = int(rng.integers(1, 5))
            mats, weights = random_scaled_matrices(rng, n, m)
            patterns = [pack_pattern(mat.toarray() != 0) for mat in mats]
            plan = place_sensors(patterns, weights, 1.0 / n, k=min(4, n))
            # exhaustive oracle: plain loops over every candidate state
            best_state, best_value = 0, -1.0
            for j in range(n):
                value = 0.0
                for w, mat in zip(weights, mats):
                    dense = mat.toarray()
                    total = 0.0
                    for i in range(n):
                        total += dense[i, j]
                    value += w * total
                if value > best_value + 1e-15:
                    best_state, best_value = j, value
            if not plan.sensors:
                assert best_value <= 1e-15
                continue
            assert plan.sensors[0].state == best_state
            assert plan.sensors[0].expected_marginal == pytest.approx(best_value)
            marginals = [s.expected_marginal for s in plan.sensors]
            assert all(a >= b - 1e-12 for a, b in zip(marginals, marginals[1:]))
            cumulative = np.cumsum(marginals)
            assert np.all(np.diff(cumulative) >= -1e-12)
            assert plan.cumulative_expected_coverage <= 1.0 + 1e-9


def test_criterion_7_expectation_linearity():
    with criterion(7, "expected coverage equals weighted mean", 5.0):
        rng = np.random.default_rng(SEED + 4)
        for _ in range(200):
            count = int(rng.integers(1, 6))
            length = int(rng.integers(1, 50))
            vectors = [rng.random(length) for _ in range(count)]
            weights = rng.random(count)
            weights /= weights.sum()
            manual = np.zeros(length)
            for w, v in zip(weights, vectors):
                manual += w * v
            got = expected_coverage(vectors, weights)
            assert np.abs(got - manual).max() <= 1e-12


def test_criterion_8_constraint_compliance():
    with criterion(8, "constrained placements respect masks", 30.0):
        rng = np.random.default_rng(SEED + 5)
        for _ in range(100):
            n = int(rng.integers(4, 24))
            m = int(rng.integers(1, 4))
            steps = int(rng.integers(0, 6))
            cutoff = float(rng.uniform(0.0, 0.5)) * (steps + 1)
            forbidden = random_mask(rng, n, 1, max(2, n // 2))
            ignore = random_mask(rng, n, 0, max(1, n // 3) + 1)
            free_release = np.ones(n, dtype=bool)
            masked_release = ~ignore
            operators = []
            for _ in range(m):
                dense = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
                dense[np.arange(n), np.arange(n)] += rng.random(n)
                dense /= dense.sum(axis=1, keepdims=True)
                operators.append(sparse.csr_array(dense))
            weights = rng.random(m)
            weights /= weights.sum()
            scaled = []
            for op in operators:
                free = detection_matrix(op, steps, cutoff, free_release, ~forbidden)
                masked = detection_matrix(op, steps, cutoff, masked_release, ~forbidden)
                # row removal never adds coverage
                masked_cover, free_cover = coverage_vectors([masked, free], 1.0 / n)
                assert np.all(masked_cover <= free_cover + 1e-15)
                scaled.append(masked)
            plan = place_sensors(scaled, weights, 1.0 / n, k=4)
            assert not forbidden[[s.state for s in plan.sensors]].any()


def test_criterion_9_sample_count_convergence(tmp_path):
    with criterion(9, "expected-coverage convergence in sample count", 120.0):
        cfg = tmp_path / "converge.cfg"
        cfg.write_text(
            "dims = 20 20 1\n"
            "spacing = 0.05 0.05 0.2\n"
            "diffusivity = 1e-4\n"
            "dt = 0.02\n"
            "steps = 60\n"
            "family = vortex\n"
            "distribution = gaussian 0.5 0.05\n"
            "cdf_points = 0 0.1 0.3 0.5 0.7 0.9 1.0\n"
            "eps_acc = 1e-4\n"
            f"out = {tmp_path / 'out'}\n"
        )
        assert main(["converge", "--config", str(cfg), "--samples", "2", "3", "5", "7", "9"]) == 0
        rows = json.loads((tmp_path / "out" / "convergence.json").read_text())
        errors = [row["error"] for row in rows if not row["reference"]]
        assert len(errors) == 4
        assert all(a > b for a, b in zip(errors, errors[1:]))  # strictly decreasing


def test_criterion_10_end_to_end_determinism(tmp_path):
    with criterion(10, "byte-identical plans from identical configs", 60.0):
        plans = []
        for tag in ("first", "second"):
            out = tmp_path / tag
            cfg = tmp_path / f"{tag}.cfg"
            cfg.write_text(
                "dims = 16 16 1\n"
                "spacing = 0.0625 0.0625 0.2\n"
                "diffusivity = 1e-4\n"
                "dt = 0.01\n"
                "steps = 50\n"
                "family = vortex\n"
                "distribution = gaussian 0.5 0.05\n"
                "cdf_points = 0 0.1 0.3 0.5 0.7 0.9 1.0\n"
                "eps_acc = 1e-4\n"
                "sensors = 4\n"
                f"out = {out}\n"
            )
            assert main(["build", "--config", str(cfg)]) == 0
            assert main(["place", "--config", str(cfg)]) == 0
            plans.append((out / "plan.json").read_bytes())
        assert plans[0] == plans[1]
