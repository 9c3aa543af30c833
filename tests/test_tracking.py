import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from pfsensor.config import ConfigError, RunConfig, apply
from pfsensor.flowfield import FlowScenario, VelocityField, synth_recirculating
from pfsensor.grid import StructuredGrid
from pfsensor.markov import MarkovMatrix, build_markov
from pfsensor import pipeline
from pfsensor.pipeline import detection_patterns, detection_zones
from pfsensor.tracking import BLOCK, detection_matrix

from oracles import admissible_dt


def operator_from_dense(dense):
    return sparse.csr_array(np.asarray(dense, dtype=float))


def random_stochastic(rng, n):
    m = rng.random((n, n))
    m /= m.sum(axis=1, keepdims=True)
    return operator_from_dense(m)


def line_grid(n):
    return StructuredGrid((n, 1, 1), (1.0, 1.0, 1.0))


def tracking_rows(operator, steps, rows):
    """Dense rows Q[rows, :] of the partial Neumann sum Q = I + P + ... + P^steps,
    by the detection kernel's Horner rule acc <- e + P^T acc over the whole
    operator: the dense oracle for the tracking entries."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    rows = np.asarray(rows, dtype=np.int64)
    p_t = sparse.csr_array(operator.T)
    units = (rows, np.arange(rows.size))
    acc = np.zeros((operator.shape[0], rows.size))
    acc[units] = 1.0
    for _ in range(steps):
        acc = p_t @ acc
        acc[units] += 1.0
    return acc.T


def full_q(operator, steps):
    return tracking_rows(operator, steps, np.arange(operator.shape[0]))


def pairs(operator, steps, cutoff, release=None, candidates=None):
    n = operator.shape[0]
    rel = np.ones(n, dtype=bool) if release is None else np.asarray(release)
    cand = np.ones(n, dtype=bool) if candidates is None else np.asarray(candidates)
    coo = detection_matrix(operator, steps, cutoff, rel, cand).tocoo()
    return {(int(r), int(c)) for r, c in zip(coo.coords[0], coo.coords[1])}


def scaled_dense(cfg, grid, operator):
    """The detection matrix with volume-fraction entries: the operator's
    pattern over the config's zones at the eps_acc * (m + 1) cutoff, times
    the cell fraction."""
    release, candidates = detection_zones(cfg, grid)
    cutoff = cfg.eps_acc * (cfg.steps + 1)
    pattern = detection_matrix(operator, cfg.steps, cutoff, release, candidates)
    return pattern.toarray() * (grid.cell_volume / grid.total_volume)


def run_config(**fields):
    return RunConfig(
        family="vortex", distribution=("gaussian", 0.5, 0.05), cdf_points=(0.5,), **fields
    )


def dense_oracle(p, steps, cutoff, release, candidates):
    """Detection pattern from a dense power sum; also returns Q."""
    n = p.shape[0]
    q = np.zeros((n, n))
    power = np.eye(n)
    for _ in range(steps + 1):
        q += power
        power = power @ p
    hit = (q > 0.0) & (q >= cutoff)
    hit &= release[:, None] & candidates[None, :]
    return hit, q


TWO_STATE = [[0.9, 0.1], [0.1, 0.9]]


def test_tracking_zero_steps_is_identity():
    assert np.allclose(full_q(operator_from_dense(TWO_STATE), 0), np.eye(2))


def test_tracking_identity_powers():
    assert np.allclose(full_q(operator_from_dense(np.eye(3)), 3), 4.0 * np.eye(3))


def test_tracking_two_state_hand_value():
    # P^2 = [[0.82, 0.18], [0.18, 0.82]]; Q = I + P + P^2
    q = full_q(operator_from_dense(TWO_STATE), 2)
    assert np.allclose(q, [[2.72, 0.28], [0.28, 2.72]], atol=1e-12)
    assert np.array_equal(tracking_rows(operator_from_dense(TWO_STATE), 2, [1]), q[[1]])


def test_tracking_rejects_negative_steps():
    op = operator_from_dense(TWO_STATE)
    with pytest.raises(ValueError):
        tracking_rows(op, -1, [0])
    with pytest.raises(ValueError):
        detection_matrix(op, -1, 0.0, np.ones(2, dtype=bool), np.ones(2, dtype=bool))


@given(seed=st.integers(0, 2**31 - 1), steps=st.sampled_from([0, 1, 5, 20]))
@settings(max_examples=30, deadline=None)
def test_tracking_row_sums_equal_steps_plus_one(seed, steps):
    rng = np.random.default_rng(seed)
    q = full_q(random_stochastic(rng, 7), steps)
    assert np.allclose(q.sum(axis=1), steps + 1.0, atol=1e-9)


def test_tracking_matches_dense_power_sum():
    rng = np.random.default_rng(17)
    op = random_stochastic(rng, 15)
    dense_p = op.toarray()
    for m in (0, 1, 4, 12):
        expected = np.zeros_like(dense_p)
        acc = np.eye(15)
        for _ in range(m + 1):
            expected += acc
            acc = acc @ dense_p
        assert np.allclose(full_q(op, m), expected, atol=1e-12)


def test_tracking_entry_bounds():
    rng = np.random.default_rng(42)
    steps = 6
    dense = full_q(random_stochastic(rng, 5), steps)
    assert dense.min() >= 0.0
    assert dense.max() <= steps + 1.0
    assert np.all(np.diag(dense) >= 1.0)  # identity term


def test_threshold_zero_keeps_all_stored_entries():
    assert pairs(operator_from_dense(TWO_STATE), 2, 0.0) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    # a zero cutoff still drops pairs the release never reaches
    assert pairs(operator_from_dense(np.eye(2)), 2, 0.0) == {(0, 0), (1, 1)}


def test_threshold_one_keeps_only_isolated_states():
    # only a state retaining all mass reaches m + 1
    assert pairs(operator_from_dense([[1.0, 0.0], [0.5, 0.5]]), 3, 1.0 * 4) == {(0, 0)}


def test_threshold_two_state_hand_values():
    op = operator_from_dense(TWO_STATE)
    # cutoff 0.05 * 3 = 0.15 keeps 0.28 and 2.72
    assert len(pairs(op, 2, 0.05 * 3)) == 4
    # cutoff 0.1 * 3 = 0.3 drops the 0.28 off-diagonals
    assert pairs(op, 2, 0.1 * 3) == {(0, 0), (1, 1)}


def test_threshold_scales_eps_acc_by_horizon(monkeypatch):
    # the still scenario admits any dt; its operator is the hand-valued one
    monkeypatch.setattr(
        pipeline, "build_markov", lambda *args: MarkovMatrix(operator_from_dense(TWO_STATE))
    )
    cfg = run_config(steps=2, eps_acc=0.28, dt=1.0)
    grid = line_grid(2)
    still = FlowScenario(VelocityField(grid, *np.zeros((3, 2))))
    # cutoff 0.28 * 3 = 0.84 drops the 0.28 off-diagonals
    [pattern] = detection_patterns(cfg, [still], detection_zones(cfg, grid))
    assert pattern.nnz == 2


@given(
    seed=st.integers(0, 2**31 - 1),
    eps_lo=st.floats(0.0, 0.5),
    eps_hi=st.floats(0.5, 1.0),
)
@settings(max_examples=30, deadline=None)
def test_threshold_monotone_in_epsilon(seed, eps_lo, eps_hi):
    rng = np.random.default_rng(seed)
    op = random_stochastic(rng, 6)
    assert pairs(op, 3, eps_hi * 4) <= pairs(op, 3, eps_lo * 4)


def test_sensor_spec_bounds():
    # the detection threshold is a fraction of the released mass
    cfg = RunConfig()
    for good in (0.0, 1.0):
        apply(cfg, "eps_acc", repr(good))
        assert cfg.eps_acc == good
    for bad in (-0.1, 1.1, float("nan")):
        with pytest.raises(ConfigError, match="eps_acc"):
            apply(cfg, "eps_acc", repr(bad))


def test_constraints_empty_masks_are_noop():
    rng = np.random.default_rng(1)
    op = random_stochastic(rng, 3)
    assert pairs(op, 2, 0.0) == {(r, c) for r in range(3) for c in range(3)}


def test_constraints_all_forbidden_empties_matrix():
    rng = np.random.default_rng(2)
    none = np.zeros(3, dtype=bool)
    assert pairs(random_stochastic(rng, 3), 2, 0.0, candidates=none) == set()


def test_constraints_enumerated_pairs():
    rng = np.random.default_rng(3)
    got = pairs(
        random_stochastic(rng, 3),
        2,
        0.0,
        release=[True, True, False],  # release state 2 lies outside the zone
        candidates=[True, False, True],  # state 1 cannot host a sensor
    )
    assert got == {(0, 0), (0, 2), (1, 0), (1, 2)}


def test_constraints_idempotent_and_commuting():
    # the row and column masks act independently, and dropping rows or
    # columns that hold no pair changes nothing
    rng = np.random.default_rng(5)
    dense = rng.random((6, 6)) * (rng.random((6, 6)) < 0.4) + np.eye(6)
    op = operator_from_dense(dense / dense.sum(axis=1, keepdims=True))
    rows = np.array([True, False, True, True, False, True])
    cols = np.array([True, True, False, True, False, True])
    both = pairs(op, 3, 0.05, rows, cols)
    assert 0 < len(both) < 16
    assert both == pairs(op, 3, 0.05, release=rows) & pairs(op, 3, 0.05, candidates=cols)
    hit_rows = np.zeros(6, dtype=bool)
    hit_rows[[r for r, _ in both]] = True
    hit_cols = np.zeros(6, dtype=bool)
    hit_cols[[c for _, c in both]] = True
    assert pairs(op, 3, 0.05, hit_rows, hit_cols) == both


def test_constraint_masks_must_share_grid():
    op = operator_from_dense(TWO_STATE)
    with pytest.raises(ValueError):
        detection_matrix(op, 2, 0.0, np.ones(3, dtype=bool), np.ones(2, dtype=bool))
    with pytest.raises(ValueError):
        detection_matrix(op, 2, 0.0, np.ones(2, dtype=bool), np.ones(3, dtype=bool))


# random_stochastic operators have every entry of P, hence of Q, positive


def test_volumetric_scale_uniform_grid():
    rng = np.random.default_rng(4)
    cfg = run_config(steps=2, eps_acc=0.0)
    scaled = scaled_dense(cfg, line_grid(4), random_stochastic(rng, 4))
    assert np.allclose(scaled, np.full((4, 4), 0.25))


def test_volumetric_scale_empty_matrix():
    rng = np.random.default_rng(5)
    op = random_stochastic(rng, 3)
    detection = detection_matrix(op, 2, 0.0, np.zeros(3, dtype=bool), np.ones(3, dtype=bool))
    assert detection.shape == (3, 3) and detection.nnz == 0


def test_volumetric_scale_full_matrix_column_sums_are_one():
    rng = np.random.default_rng(6)
    cfg = run_config(steps=3, eps_acc=0.0)
    scaled = scaled_dense(cfg, line_grid(6), random_stochastic(rng, 6))
    assert np.allclose(scaled.sum(axis=0), 1.0)


def test_volumetric_scale_exit_state_has_zero_volume():
    # one extra absorbing state: it may host a sensor but releases nothing
    rng = np.random.default_rng(7)
    cfg = run_config(steps=2, eps_acc=0.0, outlets=frozenset({"x+"}))
    dense = scaled_dense(cfg, line_grid(3), random_stochastic(rng, 4))
    assert np.allclose(dense[:3], 1.0 / 3.0)
    assert not dense[3].any()


def test_volumetric_scale_grid_size_mismatch():
    rng = np.random.default_rng(8)
    cfg = run_config(steps=2, eps_acc=0.0)
    grid = line_grid(3)
    with pytest.raises(ValueError, match="must both have length 5"):
        scaled_dense(cfg, grid, random_stochastic(rng, 5))


def flow_operator(rng, outlets):
    """A vortex operator on a closed box, or a drift toward an x+ outlet that
    gives the operator a busy exit column."""
    nx, ny = int(rng.integers(2, 16)), int(rng.integers(2, 16))
    grid = StructuredGrid((nx, ny, 1), (1.0 / nx, 1.0 / ny, 0.2))
    if outlets:
        n = grid.n_states
        field = VelocityField(grid, np.full(n, 0.3), np.zeros(n), np.zeros(n))
    else:
        field = synth_recirculating(grid, float(rng.uniform(-1.0, 1.0)))
    sides = frozenset({"x+"} if outlets else ())
    scenario = FlowScenario(field, diffusivity=float(rng.uniform(1e-4, 1e-2)))
    dt = float(rng.uniform(0.3, 0.95)) * admissible_dt(scenario, sides)
    return build_markov(scenario, dt, sides).matrix


@given(
    seed=st.integers(0, 2**31 - 1),
    kind=st.sampled_from(["dense", "closed", "outlet"]),
    steps=st.sampled_from([0, 1, 5, 20]),
    eps=st.sampled_from([0.0, 1e-4, 1e-2, 0.2]),
)
@settings(max_examples=60, deadline=None)
def test_detection_matches_dense_oracle(seed, kind, steps, eps):
    rng = np.random.default_rng(seed)
    if kind == "dense":
        op = random_stochastic(rng, int(rng.integers(2, 21)))
    else:
        op = flow_operator(rng, outlets=kind == "outlet")
    n = op.shape[0]
    release = rng.random(n) < 0.8
    candidates = rng.random(n) < 0.7
    cutoff = eps * (steps + 1)
    got = detection_matrix(op, steps, cutoff, release, candidates).toarray()
    expected, q = dense_oracle(op.toarray(), steps, cutoff, release, candidates)
    settled = np.abs(q - cutoff) > 1e-9
    assert np.array_equal(got[settled], expected[settled])


def test_detection_streams_more_rows_than_one_block():
    # a closed 20x20 vortex: 400 release rows span several blocks, and with
    # few steps each block propagates only through its band of the grid
    rng = np.random.default_rng(11)
    grid = StructuredGrid((20, 20, 1), (0.05, 0.05, 0.2))
    scenario = FlowScenario(synth_recirculating(grid, 0.5), diffusivity=1e-4)
    op = build_markov(scenario, 0.5 * admissible_dt(scenario)).matrix
    n = op.shape[0]
    assert n > 2 * BLOCK
    release = np.ones(n, dtype=bool)
    candidates = rng.random(n) < 0.5
    for steps in (3, 40):
        got = detection_matrix(op, steps, 1e-3 * (steps + 1), release, candidates)
        expected, q = dense_oracle(
            op.toarray(), steps, 1e-3 * (steps + 1), release, candidates
        )
        assert not np.any(np.abs(q - 1e-3 * (steps + 1)) <= 1e-9)
        assert np.array_equal(got.toarray(), expected)


def test_horner_sum_matches_forward_power_sum_at_benchmark_horizon():
    # Horner's rule rounds differently from summing powers; at m = 80 on a
    # closed 20x20 vortex the two must still agree to rounding
    grid = StructuredGrid((20, 20, 1), (0.05, 0.05, 0.2))
    scenario = FlowScenario(synth_recirculating(grid, 0.5), diffusivity=1e-4)
    op = build_markov(scenario, 0.5 * admissible_dt(scenario)).matrix
    steps, n = 80, op.shape[0]
    p_t = sparse.csr_array(op.T)
    x = np.eye(n)
    expected = x.copy()
    for _ in range(steps):
        x = p_t @ x
        expected += x
    gap = np.abs(tracking_rows(op, steps, np.arange(n)) - expected.T).max()
    assert gap <= 1e-12 * (steps + 1)


def closed_vortex_20():
    grid = StructuredGrid((20, 20, 1), (0.05, 0.05, 0.2))
    scenario = FlowScenario(synth_recirculating(grid, 0.5), diffusivity=1e-4)
    return build_markov(scenario, 0.5 * admissible_dt(scenario)).matrix


def drift_to_outlet():
    grid = StructuredGrid((6, 5, 1), (1.0 / 6, 0.2, 0.2))
    n = grid.n_states
    field = VelocityField(grid, np.full(n, 0.3), np.zeros(n), np.zeros(n))
    outlets = frozenset({"x+"})
    scenario = FlowScenario(field, diffusivity=1e-3)
    return build_markov(scenario, 0.5 * admissible_dt(scenario, outlets), outlets).matrix


@pytest.mark.parametrize("case", ["first_block_empty", "no_row_kept", "exit_column"])
def test_pattern_is_boolean_with_int32_indices(case):
    # 5 bytes per pair: no float weight, and no int64 piece (an empty first
    # block included) may promote the index arrays
    steps = 3
    if case == "exit_column":
        op = drift_to_outlet()
        n = op.shape[0]
        release = np.arange(n) < n - 1  # the exit state releases nothing
        candidates = np.ones(n, dtype=bool)
    else:
        op = closed_vortex_20()
        n = op.shape[0]
        release = np.full(n, case == "first_block_empty")
        # the first block's rows reach at most steps * 20 states past state 63
        candidates = np.arange(n) >= BLOCK + steps * 20 + 1
    cutoff = 1e-3 * (steps + 1)
    pattern = detection_matrix(op, steps, cutoff, release, candidates)
    expected, q = dense_oracle(op.toarray(), steps, cutoff, release, candidates)
    assert not np.any(np.abs(q - cutoff) <= 1e-9)
    assert pattern.format == "csc" and pattern.shape == (n, n)
    assert pattern.indices.dtype == np.int32 and pattern.indptr.dtype == np.int32
    assert pattern.data.dtype == bool and pattern.data.all()
    assert np.array_equal(pattern.toarray(), expected)
    if case == "first_block_empty":
        assert not expected[:BLOCK].any() and expected.any()
    elif case == "no_row_kept":
        assert pattern.nnz == 0
    else:
        assert expected[:, n - 1].any() and not expected[n - 1].any()
