import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from pfsensor.config import ConfigError, RunConfig, apply
from pfsensor.flowfield import VelocityField, synth_recirculating
from pfsensor.grid import StructuredGrid
from pfsensor.markov import MarkovMatrix, build_markov
from pfsensor import _compiled, pipeline, tracking
from pfsensor.pipeline import detection_patterns, detection_zones
from pfsensor.placement import coverage_vectors, place_sensors
from pfsensor._compiled import CSR
from pfsensor.tracking import BLOCK, LEAST, _accumulate, _band, _bandwidth, _bound, detection_matrix

from oracles import admissible_dt, scipy_csr, unpack_pattern


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
    p_t = sparse.csr_array(scipy_csr(operator).T)
    units = (rows, np.arange(rows.size))
    acc = np.zeros((operator.shape[0], rows.size))
    acc[units] = 1.0
    for _ in range(steps):
        acc = p_t @ acc
        acc[units] += 1.0
    return acc.T


def full_q(operator, steps):
    return tracking_rows(operator, steps, np.arange(operator.shape[0]))


def pattern_array(operator, steps, cutoff, release, candidates):
    """The detection pattern as a dense boolean matrix by release state and
    sensor column, unpacked from the pair `detection_matrix` returns."""
    return unpack_pattern(*detection_matrix(operator, steps, cutoff, release, candidates))


def pairs(operator, steps, cutoff, release=None, candidates=None):
    n = operator.shape[0]
    rel = np.ones(n, dtype=bool) if release is None else np.asarray(release)
    cand = np.ones(n, dtype=bool) if candidates is None else np.asarray(candidates)
    rows, cols = np.nonzero(pattern_array(operator, steps, cutoff, rel, cand))
    return {(int(r), int(c)) for r, c in zip(rows, cols)}


def scaled_dense(cfg, grid, operator):
    """The detection matrix with volume-fraction entries: the operator's
    pattern over the config's zones at the eps_acc * (m + 1) cutoff, times
    the cell fraction."""
    release, candidates = detection_zones(cfg, grid)
    cutoff = cfg.eps_acc * (cfg.steps + 1)
    pattern = pattern_array(operator, cfg.steps, cutoff, release, candidates)
    return pattern * (grid.cell_volume / grid.total_volume)


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
    still = VelocityField(grid, *np.zeros((3, 2)))
    # cutoff 0.28 * 3 = 0.84 drops the 0.28 off-diagonals
    [pattern] = detection_patterns(cfg, [still], detection_zones(cfg, grid))
    assert np.count_nonzero(unpack_pattern(*pattern)) == 2


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
    kept, masks = detection_matrix(op, 2, 0.0, np.zeros(3, dtype=bool), np.ones(3, dtype=bool))
    assert unpack_pattern(kept, masks).shape == (3, 3) and masks.nnz == 0


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
        [field] = synth_recirculating(grid, [float(rng.uniform(-1.0, 1.0))])
    sides = frozenset({"x+"} if outlets else ())
    diffusivity = float(rng.uniform(1e-4, 1e-2))
    dt = float(rng.uniform(0.3, 0.95)) * admissible_dt(field, diffusivity, sides)
    return build_markov(field, diffusivity, dt, sides).matrix


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
    got = pattern_array(op, steps, cutoff, release, candidates)
    expected, q = dense_oracle(scipy_csr(op).toarray(), steps, cutoff, release, candidates)
    settled = np.abs(q - cutoff) > 1e-9
    assert np.array_equal(got[settled], expected[settled])


def test_detection_streams_more_rows_than_one_block():
    # a closed 20x20 vortex: 400 release rows span several blocks, and with
    # few steps each block propagates only through its band of the grid
    rng = np.random.default_rng(11)
    grid = StructuredGrid((20, 20, 1), (0.05, 0.05, 0.2))
    field = synth_recirculating(grid, [0.5])[0]
    op = build_markov(field, 1e-4, 0.5 * admissible_dt(field, 1e-4)).matrix
    n = op.shape[0]
    assert n > 2 * BLOCK
    release = np.ones(n, dtype=bool)
    candidates = rng.random(n) < 0.5
    for steps in (3, 40):
        got = pattern_array(op, steps, 1e-3 * (steps + 1), release, candidates)
        expected, q = dense_oracle(
            scipy_csr(op).toarray(), steps, 1e-3 * (steps + 1), release, candidates
        )
        assert not np.any(np.abs(q - 1e-3 * (steps + 1)) <= 1e-9)
        assert np.array_equal(got, expected)


def test_horner_sum_matches_forward_power_sum_at_benchmark_horizon():
    # Horner's rule rounds differently from summing powers; at m = 80 on a
    # closed 20x20 vortex the two must still agree to rounding
    grid = StructuredGrid((20, 20, 1), (0.05, 0.05, 0.2))
    field = synth_recirculating(grid, [0.5])[0]
    op = build_markov(field, 1e-4, 0.5 * admissible_dt(field, 1e-4)).matrix
    steps, n = 80, op.shape[0]
    p_t = sparse.csr_array(scipy_csr(op).T)
    x = np.eye(n)
    expected = x.copy()
    for _ in range(steps):
        x = p_t @ x
        expected += x
    gap = np.abs(tracking_rows(op, steps, np.arange(n)) - expected.T).max()
    assert gap <= 1e-12 * (steps + 1)


def closed_vortex_20():
    grid = StructuredGrid((20, 20, 1), (0.05, 0.05, 0.2))
    field = synth_recirculating(grid, [0.5])[0]
    return build_markov(field, 1e-4, 0.5 * admissible_dt(field, 1e-4)).matrix


def drift_to_outlet():
    grid = StructuredGrid((6, 5, 1), (1.0 / 6, 0.2, 0.2))
    n = grid.n_states
    field = VelocityField(grid, np.full(n, 0.3), np.zeros(n), np.zeros(n))
    outlets = frozenset({"x+"})
    return build_markov(field, 1e-3, 0.5 * admissible_dt(field, 1e-3, outlets), outlets).matrix


@pytest.mark.parametrize("case", ["first_block_empty", "no_row_kept", "exit_column"])
def test_pattern_is_boolean_with_int32_indices(case):
    # one bit per pair in uint64 words over int32 cells: no float weight, and
    # no int64 piece (an empty first block included) may promote the indices
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
    kept, masks = detection_matrix(op, steps, cutoff, release, candidates)
    expected, q = dense_oracle(scipy_csr(op).toarray(), steps, cutoff, release, candidates)
    assert not np.any(np.abs(q - cutoff) <= 1e-9)
    # by block: each row of the record holds its cells sorted, once, with no
    # zero word (unpack_pattern asserts both)
    assert masks.shape == (-(-kept.size // BLOCK), n) and np.array_equal(kept, np.flatnonzero(release))
    assert masks.indices.dtype == np.int32 and masks.indptr.dtype == np.int32
    assert kept.dtype == np.int32 and masks.data.dtype == np.uint64 and masks.data.all()
    assert np.array_equal(unpack_pattern(kept, masks), expected)
    if case == "first_block_empty":
        assert not expected[:BLOCK].any() and expected.any()
        assert masks.indptr[1] == 0  # the empty block stores no word
    elif case == "no_row_kept":
        assert masks.nnz == 0
    else:
        assert expected[:, n - 1].any() and not expected[n - 1].any()


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 40),
    density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    exit_column=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_bandwidth_is_the_farthest_stored_entry(seed, n, density, exit_column):
    # empty rows, one-entry rows and a busy last column, as an exit state's
    rng = np.random.default_rng(seed)
    dense = rng.random((n, n)) < density
    for row in np.flatnonzero(rng.random(n) < 0.3):
        dense[row] = False
        dense[row, rng.integers(n)] = True
    dense[rng.random(n) < 0.2] = False
    if exit_column:
        dense[:, n - 1] |= rng.random(n) < 0.5
    rows, cols = np.nonzero(dense)
    expected = int(np.abs(rows - cols).max(initial=0))
    record = sparse.csr_array(dense * rng.uniform(0.1, 1.0, (n, n)))
    matrix = CSR(record.indptr, record.indices, record.data, record.shape)
    assert _bandwidth(matrix) == expected
    assert _bandwidth(_compiled.transpose(matrix)) == expected


@pytest.mark.parametrize("cutoff", [0.0, -1.0])
@pytest.mark.parametrize("case", ["closed", "exit_column"])
def test_zero_cutoff_detects_exactly_the_positive_entries(case, cutoff):
    # a cutoff of 0 (eps_acc = 0) or below admits every entry that reaches it,
    # the exact zeros beyond a block's reach included, but only acc > 0 is a
    # detection; 3 steps leave most of a 20x20 room unreached
    steps = 3
    op = closed_vortex_20() if case == "closed" else drift_to_outlet()
    n = op.shape[0]
    release = np.arange(n) % 7 != 3  # scattered rows and a partial last block
    candidates = np.ones(n, dtype=bool)
    q = np.zeros((n, n))
    q[release] = tracking_rows(op, steps, np.flatnonzero(release))
    got = pattern_array(op, steps, cutoff, release, candidates)
    assert _band(_compiled.transpose(op), steps, cutoff) is None
    assert np.array_equal(got, q > 0.0)
    assert got.any() and not got[release].all()


def line_walk(rng, cells, outlet):
    """A random walk on a line of cells, bandwidth 1, so each block's window
    is its rows +- steps clipped at 0 and n. With an outlet, cell 0's leftward
    mass drains into the absorbing exit state n - 1, whose column's band
    then spans the whole operator."""
    n = cells + outlet
    left, right = rng.uniform(0.0, 0.4, (2, cells))
    left[0] = rng.uniform(0.1, 0.4) if outlet else 0.0
    right[-1] = 0.0
    p = np.zeros((n, n))
    idx = np.arange(cells)
    p[idx[1:], idx[:-1]] = left[1:]
    p[idx[:-1], idx[1:]] = right[:-1]
    if outlet:
        p[0, n - 1] = left[0]
        p[n - 1, n - 1] = 1.0
    p[idx, idx] = 1.0 - left - right
    return sparse.csr_array(p)


@given(
    seed=st.integers(0, 2**31 - 1),
    size=st.sampled_from([1, 63, 64, 65, 128]),
    where=st.sampled_from(["start", "end", "scattered"]),
    outlet=st.booleans(),
    empty_block=st.booleans(),
    steps=st.sampled_from([1, 3, 8]),
    eps=st.sampled_from([0.0, 1e-3, 0.05]),
)
@settings(max_examples=80, deadline=None)
def test_mask_record_matches_dense_oracle_at_block_edges(
    seed, size, where, outlet, empty_block, steps, eps
):
    # kept sizes put bit 63 in use (64, 65, 128), leave a last block partial
    # (1, 63, 65) or fill every block exactly (64, 128)
    rng = np.random.default_rng(seed)
    cells = size + int(rng.integers(0, 40))
    op = line_walk(rng, cells, outlet)
    n = op.shape[0]
    release = np.zeros(n, dtype=bool)
    if where == "start":
        release[:size] = True  # the first window clips at 0
    elif where == "end":
        release[cells - size : cells] = True  # the last window clips at n
    else:
        release[rng.choice(cells, size, replace=False)] = True
    kept = np.flatnonzero(release)
    candidates = rng.random(n) < 0.7
    candidates[n - 1] = True  # the last cell, or the exit column
    if empty_block and size > BLOCK:
        # the second block's rows reach no state below kept[BLOCK] - steps
        candidates[kept[BLOCK] - steps :] = False
    elif size >= BLOCK:
        candidates[kept[BLOCK - 1]] = True  # Q[r, r] >= 1 sets bit 63
    cutoff = eps * (steps + 1)

    got_kept, masks = detection_matrix(op, steps, cutoff, release, candidates)
    q = np.zeros((n, n))
    q[kept] = tracking_rows(op, steps, kept)
    expected = (q > 0.0) & (q >= cutoff) & candidates & release[:, None]
    got = unpack_pattern(got_kept, masks)
    assert np.array_equal(got_kept, kept)
    # tracking_rows runs the kernel's float64 product, so every entry's bits
    # are the kernel's, and those near the cutoff are decided alike
    assert np.array_equal(got, expected)
    # a block stores one word per column its members are detected at
    blocks = [kept[start : start + BLOCK] for start in range(0, size, BLOCK)]
    assert np.diff(masks.indptr).tolist() == [np.count_nonzero(got[b].any(axis=0)) for b in blocks]
    if empty_block and size > BLOCK:
        assert masks.indptr[2] == masks.indptr[1]
    elif size >= BLOCK:
        assert got[kept[BLOCK - 1], kept[BLOCK - 1]]
    if outlet and release[0] and candidates[n - 1]:
        assert got[0, n - 1]  # the exit column: Q[0, exit] >= left[0] >= 0.1


def entry_at(rng, q):
    """A drawn positive entry (r, c) of q."""
    rows, cols = np.nonzero(q > 0.0)
    pick = rng.integers(rows.size)
    return int(rows[pick]), int(cols[pick])


@given(
    seed=st.integers(0, 2**31 - 1),
    case=st.sampled_from(["line", "line_outlet", "closed", "outlet"]),
    steps=st.sampled_from([1, 3, 8, 40]),
    side=st.sampled_from([-1, 0, 1]),
)
@settings(max_examples=60, deadline=None)
def test_cutoff_at_a_tracking_entry_is_exact(seed, case, steps, side):
    # a cutoff equal to a tracking entry, or one float beside it, lies inside
    # the float32 screen's band: that entry's row is rerun in float64, and
    # every pair is decided on the float64 sum's own bits (drift_to_outlet
    # at 40 steps is not certified and reruns every row)
    rng = np.random.default_rng(seed)
    if case in ("line", "line_outlet"):
        op = line_walk(rng, int(rng.integers(1, 150)), case == "line_outlet")
    else:
        op = closed_vortex_20() if case == "closed" else drift_to_outlet()
    n = op.shape[0]
    release = rng.random(n) < 0.8
    release[rng.integers(n)] = True
    candidates = rng.random(n) < 0.7
    kept = np.flatnonzero(release)
    q = np.zeros((n, n))
    q[kept] = tracking_rows(op, steps, kept)
    r, c = entry_at(rng, q)
    candidates[c] = True
    cutoff = float(q[r, c] if side == 0 else np.nextafter(q[r, c], side * np.inf))
    got = pattern_array(op, steps, cutoff, release, candidates)
    expected = (q > 0.0) & (q >= cutoff) & candidates & release[:, None]
    assert np.array_equal(got, expected)
    assert got[r, c] == (side <= 0)


def rerun_rows(monkeypatch):
    """The release rows of every later `tracking._rerun` call, one list a
    call."""
    rerun, calls = tracking._rerun, []

    def counted(p_t, steps, rows, *args):
        calls.append(rows.tolist())
        rerun(p_t, steps, rows, *args)

    monkeypatch.setattr(tracking, "_rerun", counted)
    return calls


def test_screen_reruns_only_the_undecided_rows(monkeypatch):
    # a cutoff at one entry of a closed 20x20 vortex: the float32 screen
    # decides most rows, and the rerun ones include the entry's own
    op = closed_vortex_20()
    n, steps = op.shape[0], 40
    everywhere = np.ones(n, dtype=bool)
    q = full_q(op, steps)
    r, c = 200, 221
    cutoff = float(q[r, c])
    assert _band(_compiled.transpose(op), steps, cutoff) is not None
    calls = rerun_rows(monkeypatch)
    got = pattern_array(op, steps, cutoff, everywhere, everywhere)
    reruns = sum(calls, [])
    assert np.array_equal(got, (q > 0.0) & (q >= cutoff)) and got[r, c]
    assert r in reruns and len(reruns) < n // 4


def stochastic(rng, n, density, exit_row):
    """A random row-stochastic operator whose entries are all at least
    0.05 / (n + 2) > LEAST. With `exit_row`, an absorbing state n collects
    mass from about half of the others, as an outlet's exit state does, so
    its row of P^T holds many entries."""
    size = n + exit_row
    p = rng.uniform(0.05, 1.0, (size, size)) * (rng.random((size, size)) < density)
    p[np.arange(size), np.arange(size)] += 0.5
    if exit_row:
        p[n] = 0.0
        p[n, n] = 1.0
        p[:n, n] = rng.uniform(0.05, 1.0, n) * (rng.random(n) < 0.5)
    return sparse.csr_array(p / p.sum(axis=1, keepdims=True))


@given(
    seed=st.integers(0, 2**31 - 1),
    kind=st.sampled_from(["dense", "exit", "closed", "outlet"]),
    steps=st.sampled_from([1, 5, 20, 80]),
)
@settings(max_examples=60, deadline=None)
def test_float32_sum_stays_within_the_certified_bound(seed, kind, steps):
    # entry by entry, |q32 - q64| <= ((1 + r32)(1 + r64) - 1) q64 + 3 A, the
    # bound `_band` widens the cutoff by; rows of up to 41 entries, and an
    # exit row that sums about half the states
    rng = np.random.default_rng(seed)
    if kind in ("dense", "exit"):
        density = float(rng.choice([0.05, 0.3, 1.0]))
        op = stochastic(rng, int(rng.integers(1, 41)), density, kind == "exit")
    else:
        op = flow_operator(rng, outlets=kind == "outlet")
    p_t = _compiled.transpose(op)
    if not p_t.data.min() >= LEAST:
        assert _band(p_t, steps, 1.0) is None
        return
    n = p_t.shape[0]
    rows, band = np.arange(n), _bandwidth(p_t)
    single = CSR(p_t.indptr, p_t.indices, p_t.data.astype(np.float32), p_t.shape)
    q32 = _accumulate(single, steps, rows, band, 0, n, np.empty((2, n * n), dtype=np.float32))
    q64 = _accumulate(p_t, steps, rows, band, 0, n, np.empty((2, n * n)))
    r32, r64, absolute = _bound(p_t, steps)
    assert q32.dtype == np.float32 and 0.0 < r32 < 1.0 and 0.0 < r64 < r32
    rho = (1.0 + r32) * (1.0 + r64) - 1.0
    assert np.all(np.abs(q32 - q64) <= rho * q64 + 3.0 * absolute)


def test_screen_holds_no_subnormal_float32(monkeypatch):
    # unflushed, the plume's front in a closed 20x20 vortex passes about
    # 12 000 subnormal float32 values through the products of 80 steps,
    # each of which made a float32 product slower than a float64 one
    tiny = np.finfo(np.float32).tiny
    matvecs, screened = _compiled.matvecs, []

    def checked(matrix, a, b, x, y):
        operands = (matrix.data, x)
        matvecs(matrix, a, b, x, y)
        if x.dtype == np.float32:
            screened.append(b - a)
            for operand in (*operands, y):
                assert not np.any((operand > 0.0) & (operand < tiny))

    monkeypatch.setattr(_compiled, "matvecs", checked)
    op = closed_vortex_20()
    n, steps = op.shape[0], 80
    everywhere = np.ones(n, dtype=bool)
    detection_matrix(op, steps, 1e-3 * (steps + 1), everywhere, everywhere)
    assert len(screened) == steps * -(-n // BLOCK)


def tiny_drift():
    """Uniform drift along x with a crosswind of 1e-9 and no diffusion: the
    crosswind's entries of P lie near 1e-9, below LEAST."""
    grid = StructuredGrid((6, 5, 1), (1.0 / 6, 0.2, 0.2))
    n = grid.n_states
    field = VelocityField(grid, np.full(n, 0.3), np.full(n, 1e-9), np.zeros(n))
    return build_markov(field, 0.0, 0.5 * admissible_dt(field, 0.0)).matrix


@pytest.mark.parametrize(
    "case, steps",
    [("zero_cutoff", 8), ("negative_cutoff", 8), ("tiny_entries", 8), ("outlet", 40)],
)
def test_uncertified_screen_reruns_every_row_in_float64(monkeypatch, case, steps):
    # a cutoff of 0 or below, an entry below LEAST, or an exit row whose
    # absolute term R^m outgrows the cutoff: every kept row is rerun, so the
    # pattern is the float64 Horner sum's, entry for entry
    op = tiny_drift() if case == "tiny_entries" else drift_to_outlet()
    n = op.shape[0]
    cutoff = {"zero_cutoff": 0.0, "negative_cutoff": -1.0}.get(case, 1e-3 * (steps + 1))
    release = np.arange(n) % 5 != 2
    release[-1] = case == "tiny_entries"  # an exit state releases nothing
    candidates = np.ones(n, dtype=bool)
    assert _band(_compiled.transpose(op), steps, cutoff) is None
    calls = rerun_rows(monkeypatch)
    got = pattern_array(op, steps, cutoff, release, candidates)
    q = np.zeros((n, n))
    q[release] = tracking_rows(op, steps, np.flatnonzero(release))
    expected = (q > 0.0) & (q >= cutoff) & release[:, None]
    assert sorted(sum(calls, [])) == np.flatnonzero(release).tolist()
    assert np.array_equal(got, expected) and got.any() and not got[release].all()


# traced bytes per detected pair at the peak of the kernel then the greedy on
# the config below: one bit per pair in 12-byte words read about 4.0; a
# boolean pattern of 5 bytes per pair, built from 16-byte COO pieces and
# copied row-major for the greedy, read about 13.2
PEAK_BYTES_PER_PAIR = 7.0


def mid_like(cdf_points):
    """A mid-like family on 1 600 states at 80 steps."""
    return RunConfig(
        dims=(40, 40, 1),
        spacing=(0.0375, 0.0375, 0.2),
        diffusivity=1e-4,
        dt=0.012,
        steps=80,
        family="vortex",
        distribution=("gaussian", 0.5, 0.05),
        cdf_points=cdf_points,
        eps_acc=3e-4,
    )


def test_kernel_and_greedy_peak_memory_per_detected_pair():
    # 3 scenarios, about 870 000 pairs
    cfg = mid_like((0.0, 0.5, 1.0))
    grid, fields, _, weights = pipeline.scenario_set(cfg)
    zones = detection_zones(cfg, grid)
    tracemalloc.start()
    try:
        patterns = detection_patterns(cfg, fields, zones)
        plan = place_sensors(patterns, weights, grid.cell_volume / grid.total_volume, k=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(plan.sensors) == 4
    # at a cell fraction of 1 each column's coverage is its pair count
    pairs = sum(float(vector.sum()) for vector in coverage_vectors(patterns, 1.0))
    assert pairs > 800_000
    assert peak / pairs < PEAK_BYTES_PER_PAIR


def test_kernel_peak_memory_is_one_block_working_set(monkeypatch):
    # one mid-like scenario: every block's window is the whole room, so a
    # float32 Horner buffer and a boolean array are n x BLOCK each. The kernel
    # holds two of each, the two float64 buffers of the rows a block reruns
    # and the pattern it returns; the slack is the transposed operator, its
    # float32 copy and eight n-sized int64 arrays, which hold a block's packed
    # words and stored cells. A block that allocated its own Horner buffers
    # while the previous block's accumulator was alive would hold three.
    cfg = mid_like((0.5,))
    grid, fields, _, _ = pipeline.scenario_set(cfg)
    op = build_markov(fields[0], cfg.diffusivity, cfg.dt).matrix
    release, candidates = detection_zones(cfg, grid)
    cutoff = cfg.eps_acc * (cfg.steps + 1)
    n = op.shape[0]
    calls = rerun_rows(monkeypatch)
    tracemalloc.start()
    try:
        kept, masks = detection_matrix(op, cfg.steps, cutoff, release, candidates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    horner = n * BLOCK * np.dtype(np.float32).itemsize
    most = max(map(len, calls), default=0)
    exact = 2 * n * most * np.dtype(float).itemsize
    pattern = sum(a.nbytes for a in (kept, masks.indptr, masks.indices, masks.data))
    operator = sum(a.nbytes for a in (op.indptr, op.indices, op.data))
    slack = operator + op.data.nbytes // 2 + 8 * n * 8
    assert masks.nnz > 10_000 and most < BLOCK
    assert peak < 2 * horner + 2 * n * BLOCK + exact + pattern + slack
