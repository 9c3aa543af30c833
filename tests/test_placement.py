import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from pfsensor.placement import (
    RECOUNT,
    PlacedSensor,
    SensorPlan,
    coverage_vectors,
    expected_coverage,
    place_sensors,
    sensor_coverage,
)

from oracles import pack_pattern, unpack_pattern


def pattern(dense_bool):
    """Detection pattern on n uniform cells; each pair is worth 1/n."""
    return pack_pattern(dense_bool)


def place(mats, weights, **kwargs):
    """place_sensors on patterns of n uniform cells (cell fraction 1/n)."""
    return place_sensors(mats, weights, 1.0 / mats[0][1].shape[1], **kwargs)


def states(plan):
    return [s.state for s in plan.sensors]


def random_instance(rng, n, m_scenarios, density=0.35):
    mats = [pattern(rng.random((n, n)) < density) for _ in range(m_scenarios)]
    weights = rng.random(m_scenarios)
    weights /= weights.sum()
    return mats, weights


def brute_force_first_sensor(mats, weights):
    """Exhaustive argmax of probability-weighted covered volume, written as
    plain loops over matrix entries (independent of the library path)."""
    n = mats[0][1].shape[1]
    best_state, best_value = 0, -1.0
    for j in range(n):
        value = 0.0
        for w, m in zip(weights, mats):
            dense = unpack_pattern(*m) / n
            col_total = 0.0
            for i in range(n):
                col_total += dense[i, j]
            value += w * col_total
        if value > best_value + 1e-15:
            best_state, best_value = j, value
    return best_state, best_value


def test_coverage_vector_empty_matrix():
    empty = pattern(np.zeros((3, 3), dtype=bool))
    assert coverage_vectors([empty], 1.0 / 3)[0].tolist() == [0.0, 0.0, 0.0]


def test_coverage_vector_full_matrix_is_all_ones():
    assert np.allclose(coverage_vectors([pattern(np.ones((5, 5)))], 0.2)[0], 1.0)


def test_coverage_vector_single_pair():
    dense = np.zeros((10, 10), dtype=bool)
    dense[2, 5] = True
    v = coverage_vectors([pattern(dense)], 0.1)[0]
    assert v[5] == pytest.approx(0.1)
    assert v.sum() == pytest.approx(0.1)


def test_expected_coverage_identical_vectors():
    v = np.array([0.2, 0.5, 0.1])
    assert np.allclose(expected_coverage([v, v, v], [0.2, 0.3, 0.5]), v)


def test_expected_coverage_degenerate_weights():
    a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert np.allclose(expected_coverage([a, b], [1.0, 0.0]), a)


def test_expected_coverage_weighted_mix():
    a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert np.allclose(expected_coverage([a, b], [0.25, 0.75]), [0.25, 0.75])


def test_expected_coverage_length_mismatch():
    with pytest.raises(ValueError):
        expected_coverage([np.zeros(3), np.zeros(4)], [0.5, 0.5])


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_expected_coverage_is_weighted_mean(seed):
    rng = np.random.default_rng(seed)
    vectors = [rng.random(6) for _ in range(4)]
    weights = rng.random(4)
    weights /= weights.sum()
    manual = sum(w * v for w, v in zip(weights, vectors))
    assert np.allclose(expected_coverage(vectors, weights), manual, atol=1e-12)


def test_diagonal_matrix_ties_break_to_lowest_state():
    plan = place([pattern(np.eye(4))], [1.0], k=1)
    assert states(plan) == [0]
    assert plan.sensors[0].expected_marginal == pytest.approx(0.25)


def test_dense_column_wins():
    dense = np.eye(5, dtype=bool)
    dense[:, 3] = True
    plan = place([pattern(dense)], [1.0], k=1)
    assert states(plan) == [3]
    assert plan.sensors[0].expected_marginal == pytest.approx(1.0)


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 14),
    m=st.integers(1, 4),
)
@settings(max_examples=40, deadline=None)
def test_first_sensor_matches_exhaustive_argmax(seed, n, m):
    rng = np.random.default_rng(seed)
    mats, weights = random_instance(rng, n, m)
    plan = place(mats, weights, k=1)
    best_state, best_value = brute_force_first_sensor(mats, weights)
    if not plan.sensors:
        assert best_value == pytest.approx(0.0, abs=1e-12)
        return
    assert states(plan)[0] == best_state
    assert plan.sensors[0].expected_marginal == pytest.approx(best_value)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_marginals_non_increasing_and_cumulative_bounded(seed):
    rng = np.random.default_rng(seed)
    mats, weights = random_instance(rng, 12, 3, density=0.5)
    plan = place(mats, weights, k=6)
    marginals = [s.expected_marginal for s in plan.sensors]
    assert all(a >= b - 1e-12 for a, b in zip(marginals, marginals[1:]))
    assert 0.0 <= plan.cumulative_expected_coverage <= 1.0 + 1e-12
    assert plan.cumulative_expected_coverage == pytest.approx(sum(marginals))
    assert len(set(states(plan))) == len(states(plan))


@given(seed=st.integers(0, 2**31 - 1), m=st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_covered_rows_disjoint_between_sensors(seed, m):
    # each row holds one rank: the first placed sensor whose column covers it
    rng = np.random.default_rng(seed)
    mats, weights = random_instance(rng, 10, m, density=0.3)
    plan = place(mats, weights, k=5)
    placed = states(plan)
    for mat, ranks in zip(mats, plan.covered_by):
        dense = unpack_pattern(*mat)
        for r in range(10):
            first = next((j for j, s in enumerate(placed, start=1) if dense[r, s]), 0)
            assert ranks[r] == first


@given(seed=st.integers(0, 2**31 - 1), scale=st.floats(0.1, 10.0))
@settings(max_examples=20, deadline=None)
def test_weight_scaling_preserves_argmax_sequence(seed, scale):
    rng = np.random.default_rng(seed)
    mats, weights = random_instance(rng, 10, 3, density=0.4)
    base = place(mats, weights, k=4)
    rescaled = place(mats, weights * scale, k=4)
    assert states(base) == states(rescaled)


def test_determinism_identical_plans():
    rng = np.random.default_rng(9)
    mats, weights = random_instance(rng, 12, 2)
    a = place(mats, weights, k=4)
    b = place(mats, weights, k=4)
    assert states(a) == states(b)
    assert a.cumulative_expected_coverage == b.cumulative_expected_coverage


def test_plan_truncated_when_budget_exceeds_coverage():
    dense = np.zeros((4, 4), dtype=bool)
    dense[0, 0] = True
    plan = place([pattern(dense)], [1.0], k=3)
    assert states(plan) == [0]
    assert plan.truncated


def test_min_coverage_stops_early():
    plan = place([pattern(np.eye(4))], [1.0], min_coverage=0.5)
    assert len(states(plan)) == 2  # two diagonal sensors reach 0.5
    assert plan.cumulative_expected_coverage == pytest.approx(0.5)
    assert not plan.truncated


def test_occupied_fraction_reporting():
    occupied = np.arange(10) < 5
    dense = np.zeros((10, 10), dtype=bool)
    dense[:5, 2] = True  # sensor 2 covers exactly the occupied half
    plan = place(
        [pattern(dense)],
        [1.0],
        k=1,
        occupied_volume_fraction=np.count_nonzero(occupied) / occupied.size,
    )
    assert plan.cumulative_expected_coverage == pytest.approx(0.5)
    assert plan.occupied_space_coverage == pytest.approx(1.0)


@pytest.mark.parametrize("target, truncated", [(0.8, False), (0.9, True)])
def test_min_coverage_is_a_fraction_of_the_occupied_zone(target, truncated):
    # releases only in the occupied half; sensor 2 covers 4 of its 5 cells
    dense = np.zeros((10, 10), dtype=bool)
    dense[:4, 2] = True
    plan = place([pattern(dense)], [1.0], min_coverage=target, occupied_volume_fraction=0.5)
    assert states(plan) == [2]
    assert plan.occupied_space_coverage == pytest.approx(0.8)
    assert plan.truncated == truncated


def float_place_sensors(detections, weights, k=None, min_coverage=None):
    """The float greedy that the count greedy replaced, kept as its oracle.

    `detections` hold each pair's volume fraction. Each round recomputes
    per-scenario coverage as the float product row_active @ matrix, masks
    the placed columns, then strikes the chosen column's active rows. Also
    returns each sensor's dense map of the probability that a release at a
    state is newly covered by it.
    """
    mats = [sparse.csc_array(m) for m in detections]
    w = np.asarray(list(weights), dtype=float)
    n = mats[0].shape[0]
    row_active = [np.ones(n) for _ in mats]
    col_active = np.ones(n, dtype=bool)
    sensors, maps = [], []
    cumulative = 0.0
    truncated = False
    while True:
        if k is not None and len(sensors) >= k:
            break
        if min_coverage is not None and cumulative >= min_coverage:
            break
        per_scenario = [row_active[i] @ mats[i] for i in range(len(mats))]
        expected = expected_coverage(per_scenario, w)
        expected[~col_active] = 0.0
        if expected.max() <= 0.0:
            truncated = (k is not None and len(sensors) < k) or (
                min_coverage is not None and cumulative < min_coverage
            )
            break
        best = int(np.argmax(expected))
        marginals = np.empty(len(mats))
        new_cover = np.zeros(n)
        for i, mat in enumerate(mats):
            col = mat[:, [best]].tocoo()
            covered = col.coords[0][row_active[i][col.coords[0]] > 0.0]
            marginals[i] = per_scenario[i][best]
            new_cover[covered] += w[i]
            row_active[i][covered] = 0.0
        col_active[best] = False
        cumulative += float(expected[best])
        sensors.append(PlacedSensor(best, float(expected[best]), marginals))
        maps.append(new_cover)
    return SensorPlan(sensors, cumulative, covered_by=[], truncated=truncated), maps


def bits(value):
    return np.asarray(value, dtype=float).tobytes()


def assert_count_greedy_is_float_greedy(patterns, floats, weights, fraction, k, target):
    """The count greedy on `patterns` places, reports and tables bit for bit
    what the float greedy does on `floats`, the same pairs valued at
    `fraction`."""
    n = floats[0].shape[0]
    got = place_sensors(patterns, weights, fraction, k=k, min_coverage=target)
    want, want_maps = float_place_sensors(floats, weights, k=k, min_coverage=target)
    assert states(got) == states(want)
    assert got.truncated == want.truncated
    assert bits(got.cumulative_expected_coverage) == bits(want.cumulative_expected_coverage)
    for a, b in zip(got.sensors, want.sensors):
        assert bits(a.expected_marginal) == bits(b.expected_marginal)
        assert bits(a.per_scenario_marginal) == bits(b.per_scenario_marginal)
    # the per-sensor table rebuilt as dense maps, one row per rank
    table_states, ranks, probability = sensor_coverage(got.covered_by, weights)
    assert np.all(np.diff(ranks * n + table_states) > 0)  # sorted by rank, then state
    maps = np.zeros((len(got.sensors), n))
    maps[ranks - 1, table_states] = probability
    assert bits(maps) == bits(np.reshape(want_maps, (-1, n)))
    for rank, sensor in enumerate(got.sensors, start=1):
        covered = fraction * probability[ranks == rank].sum()
        assert covered == pytest.approx(sensor.expected_marginal, rel=0.0, abs=1e-12)
    # the expected coverage map written before placement
    ones = [np.ones(n) @ f for f in floats]
    assert bits(expected_coverage(coverage_vectors(patterns, fraction), weights)) == bits(
        expected_coverage(ones, weights)
    )


@given(
    seed=st.integers(0, 2**31 - 1),
    cells=st.integers(1, 14),
    m=st.integers(1, 4),
    exit_state=st.booleans(),
    density=st.sampled_from([0.0, 0.1, 0.35, 0.8, 1.0]),
    stop=st.sampled_from(["k", "min_coverage", "both"]),
)
@settings(max_examples=150, deadline=None)
def test_count_greedy_matches_float_greedy_bitwise(seed, cells, m, exit_state, density, stop):
    rng = np.random.default_rng(seed)
    n = cells + exit_state
    volume = float(rng.uniform(0.001, 2.0))
    fraction = volume / (cells * volume)  # as the pipeline computes it
    patterns, floats = [], []
    for _ in range(m):
        dense = rng.random((n, n)) < density
        dense[rng.random(n) < 0.2] = False  # empty rows
        dense[:, rng.random(n) < 0.2] = False  # empty columns
        a, b = rng.integers(0, n, size=2)
        dense[:, b] = dense[:, a]  # two columns tie in this scenario
        if exit_state:
            dense[n - 1] = False  # the exit state releases nothing
        patterns.append(pattern(dense))
        floats.append(sparse.csc_array(np.where(dense, fraction, 0.0)))
    weights = np.where(rng.random(m) < 0.2, 0.0, rng.random(m))
    if weights.sum() > 0.0:
        weights /= weights.sum()
    k = int(rng.integers(1, n + 2)) if stop != "min_coverage" else None
    target = float(rng.uniform(0.05, 1.0)) if stop != "k" else None

    assert_count_greedy_is_float_greedy(patterns, floats, weights, fraction, k, target)


@given(seed=st.integers(0, 2**31 - 1), m=st.integers(1, 3), ties=st.booleans())
@settings(max_examples=20, deadline=None)
def test_lazy_recount_matches_float_greedy_past_one_batch(seed, m, ties):
    # more columns than one recount batch, so stale bounds are recounted in
    # batches; tied columns must still resolve to the lowest state
    rng = np.random.default_rng(seed)
    n = int(rng.integers(RECOUNT + 1, 4 * RECOUNT))
    fraction = 1.0 / n
    distance = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    patterns, floats = [], []
    for _ in range(m):
        # banded, as a flow detects each release near its own state; a wide
        # band leaves more stale bounds above the best than one batch holds
        dense = (distance <= rng.integers(1, n // 2)) & (rng.random((n, n)) < 0.6)
        if ties:
            dense[:, 1::2] = dense[:, ::2][:, : n // 2]  # odd columns copy their left neighbours
        patterns.append(pattern(dense))
        floats.append(sparse.csc_array(np.where(dense, fraction, 0.0)))
    weights = rng.random(m)
    weights /= weights.sum()
    k = int(rng.integers(1, n))
    assert_count_greedy_is_float_greedy(patterns, floats, weights, fraction, k, None)
