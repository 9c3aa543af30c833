import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from pfsensor import markov
from pfsensor.flowfield import FlowScenario, VelocityField, synth_recirculating
from pfsensor.grid import StructuredGrid
from pfsensor.markov import StabilityError, build_markov, propagate

from oracles import admissible_dt, assert_row_stochastic, zero_field
from pins import csr_sha256


def unit_line_grid(n):
    """1D row of n unit cells: dx = dy = dz = 1, so face area and volume are 1."""
    return StructuredGrid((n, 1, 1), (1.0, 1.0, 1.0))


def uniform_x_flow(grid, speed):
    n = grid.n_states
    return VelocityField(grid, np.full(n, speed), np.zeros(n), np.zeros(n))


def random_stochastic(rng, n):
    m = rng.random((n, n))
    m /= m.sum(axis=1, keepdims=True)
    return sparse.csr_array(m)


def test_no_transport_gives_identity():
    g = unit_line_grid(3)
    op = build_markov(FlowScenario(zero_field(g), diffusivity=0.0), dt=1.0).matrix
    assert np.allclose(op.toarray(), np.eye(3))


def test_two_cell_diffusion_hand_value():
    # G/V = D * A * dt / (d * V) = 0.1 with D = 0.1, unit everything
    g = unit_line_grid(2)
    op = build_markov(FlowScenario(zero_field(g), diffusivity=0.1), dt=1.0).matrix
    assert np.allclose(op.toarray(), [[0.9, 0.1], [0.1, 0.9]], atol=1e-15)


def test_three_cell_uniform_advection_hand_rows():
    # u = 0.25 -> advective fraction 0.25 per unit step; last cell is closed
    g = unit_line_grid(3)
    scenario = FlowScenario(uniform_x_flow(g, 0.25), diffusivity=0.0)
    op = build_markov(scenario, dt=1.0).matrix
    dense = op.toarray()
    assert np.allclose(dense[0], [0.75, 0.25, 0.0], atol=1e-15)
    assert np.allclose(dense[1], [0.0, 0.75, 0.25], atol=1e-15)
    assert np.allclose(dense[2], [0.0, 0.0, 1.0], atol=1e-15)


def test_negative_diffusivity_rejected():
    g = unit_line_grid(2)
    with pytest.raises(ValueError):
        FlowScenario(zero_field(g), diffusivity=-0.1)


def test_stability_error_reports_admissible_dt():
    g = unit_line_grid(2)
    scenario = FlowScenario(zero_field(g), diffusivity=0.4)
    # off-diagonal rate is 0.4/s, so the bound is 1/0.4 = 2.5 s
    assert admissible_dt(scenario) == pytest.approx(2.5)
    with pytest.raises(StabilityError) as err:
        build_markov(scenario, dt=5.0)
    assert err.value.admissible_dt == pytest.approx(2.5)
    rebuilt = build_markov(scenario, dt=err.value.admissible_dt).matrix
    assert_row_stochastic(rebuilt)


@pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf])
def test_build_rejects_a_dt_that_is_not_finite_and_positive_before_any_arithmetic(dt, recwarn):
    # still air admits every finite dt, so only the dt check can refuse it;
    # an infinite dt reaching the rates would warn, then build NaN entries
    g = unit_line_grid(3)
    with pytest.raises(ValueError, match="dt must be .*positive"):
        build_markov(FlowScenario(zero_field(g), diffusivity=0.0), dt)
    assert not recwarn.list


def test_admissible_dt_infinite_for_still_air():
    g = unit_line_grid(4)
    assert admissible_dt(FlowScenario(zero_field(g), diffusivity=0.0)) == np.inf


@settings(max_examples=40, deadline=None)
@given(
    nx=st.integers(2, 12),
    ny=st.integers(2, 12),
    xi=st.floats(-2.0, 2.0),
    diff=st.floats(0.0, 0.05),
    frac=st.floats(0.05, 0.95),
)
# a subnormal strength: the admissible dt over the cell volume overflows
@example(nx=2, ny=2, xi=1.1125369292536007e-308, diff=0.0, frac=0.875)
# a subnormal diffusivity: the oracle's admissible dt overflows to inf
@example(nx=2, ny=2, xi=0.0, diff=2.2250738585e-313, frac=0.5)
def test_built_matrices_row_stochastic(nx, ny, xi, diff, frac):
    g = StructuredGrid((nx, ny, 1), (1.0 / nx, 1.0 / ny, 0.5))
    scenario = FlowScenario(synth_recirculating(g, xi), diffusivity=diff)
    bound = admissible_dt(scenario)
    dt = frac * bound if np.isfinite(bound) else 1.0
    op = build_markov(scenario, dt).matrix
    assert_row_stochastic(op)  # entries in [0, 1], row sums within 1e-12


@settings(max_examples=40, deadline=None)
@given(
    nx=st.integers(2, 12),
    ny=st.integers(2, 12),
    xi=st.floats(-2.0, 2.0),
    diff=st.floats(0.0, 0.05),
    outlets=st.sampled_from([frozenset(), frozenset({"x+"}), frozenset({"x-", "y+"})]),
)
@example(nx=2, ny=2, xi=1.1125369292536007e-308, diff=0.0, outlets=frozenset())
@example(nx=2, ny=2, xi=1.1125369292536007e-308, diff=0.0, outlets=frozenset({"x+"}))
@example(nx=2, ny=2, xi=0.0, diff=2.2250738585e-313, outlets=frozenset())
@example(nx=2, ny=2, xi=0.0, diff=2.2250738585e-313, outlets=frozenset({"x-", "y+"}))
def test_admissible_dt_is_the_oracle_and_the_build_bound(nx, ny, xi, diff, outlets):
    g = StructuredGrid((nx, ny, 1), (1.0 / nx, 1.0 / ny, 0.5))
    scenario = FlowScenario(synth_recirculating(g, xi), diffusivity=diff)
    bound = markov.admissible_dt(scenario, outlets)
    assert bound == admissible_dt(scenario, outlets)
    op = build_markov(scenario, bound if np.isfinite(bound) else 1.0, outlets).matrix
    assert_row_stochastic(op)
    assert op.shape[0] == g.n_states + bool(outlets)
    assert op.indices.dtype == op.indptr.dtype == np.int32
    if np.isfinite(bound):
        with pytest.raises(StabilityError) as err:
            build_markov(scenario, float(np.nextafter(bound, np.inf)), outlets)
        assert err.value.admissible_dt == bound


def test_propagate_zero_steps_returns_input():
    g = unit_line_grid(3)
    op = build_markov(FlowScenario(zero_field(g), diffusivity=0.1), dt=1.0).matrix
    phi = np.array([1.0, 2.0, 3.0])
    out = propagate(phi, op, 0)
    assert np.array_equal(out, phi)


def test_propagate_identity_operator_fixed_point():
    g = unit_line_grid(3)
    op = build_markov(FlowScenario(zero_field(g), diffusivity=0.0), dt=1.0).matrix
    phi = np.array([0.5, 0.0, 2.0])
    out = propagate(phi, op, 7)
    assert np.allclose(out, phi)


def test_propagate_dimension_mismatch():
    # grids differing by one state are indistinguishable from an exit-state
    # operator, so use a clearly incompatible pair
    scenario = FlowScenario(zero_field(unit_line_grid(4)), diffusivity=0.0)
    op = build_markov(scenario, dt=1.0).matrix
    with pytest.raises(ValueError, match="operator size 4 does not match grid with 2 states"):
        propagate(np.zeros(2), op, 1)


@given(seed=st.integers(0, 2**31 - 1), steps=st.integers(1, 50))
def test_propagate_conserves_mass_on_random_stochastic(seed, steps):
    rng = np.random.default_rng(seed)
    op = random_stochastic(rng, 6)
    phi = rng.random(6)
    out = propagate(phi, op, steps)
    assert out.sum() == pytest.approx(phi.sum(), rel=1e-10)


@given(seed=st.integers(0, 2**31 - 1))
def test_single_step_linearity_in_operator_mixture(seed):
    rng = np.random.default_rng(seed)
    ops = [random_stochastic(rng, 5) for _ in range(3)]
    weights = rng.random(3)
    weights /= weights.sum()
    phi = rng.random(5)
    mixed = sparse.csr_array(sum(w * op for w, op in zip(weights, ops)))
    via_mixture = propagate(phi, mixed, 1)
    via_average = sum(w * propagate(phi, op, 1) for w, op in zip(weights, ops))
    assert np.allclose(via_mixture, via_average, atol=1e-12)


def test_outlet_side_routes_mass_to_exit():
    g = unit_line_grid(3)
    scenario = FlowScenario(uniform_x_flow(g, 0.25), diffusivity=0.0)
    op = build_markov(scenario, 1.0, frozenset({"x+"})).matrix
    assert op.shape[0] == 4
    dense = op.toarray()
    assert np.allclose(dense[2], [0.0, 0.0, 0.75, 0.25])  # last cell drains out
    assert np.allclose(dense[3], [0.0, 0.0, 0.0, 1.0])  # absorbing exit
    assert_row_stochastic(op)
    out = propagate(np.ones(3), op, 80)
    assert out.sum() < 1e-6  # the vent empties a closed-inlet domain


def test_outlet_requires_outflow_direction():
    # inflow side as outlet contributes nothing (max(0, -u) = 0)
    g = unit_line_grid(3)
    scenario = FlowScenario(uniform_x_flow(g, 0.25), diffusivity=0.0)
    op = build_markov(scenario, 1.0, frozenset({"x-"})).matrix
    out = propagate(np.ones(3), op, 10)
    assert out.sum() == pytest.approx(3.0, rel=1e-12)


def test_outflow_through_two_sides_is_pinned():
    # u > 0 and v < 0 in every cell, so both outlet walls drain into the exit
    # state; the x+/y- corner cell (state 4) sums one exit entry from each
    g = StructuredGrid((5, 4, 1), (0.25, 0.3, 0.2))
    i, j = np.meshgrid(np.arange(5), np.arange(4))
    u, v = (0.3 + 0.05 * i).ravel(), -(0.2 + 0.04 * j).ravel()
    scenario = FlowScenario(VelocityField(g, u, v, np.zeros(g.n_states)), diffusivity=1e-3)
    op = build_markov(scenario, 0.05, frozenset({"x+", "y-"})).matrix
    n = g.n_states
    dense = op.toarray()
    assert np.array_equal(dense[n], np.eye(n + 1)[n])
    assert np.flatnonzero(dense[:n, n]).tolist() == [0, 1, 2, 3, 4, 9, 14, 19]
    # rates times dt / volume: x+ face 0.5 * 0.06, y- face 0.2 * 0.05
    assert dense[4, n] == pytest.approx((0.5 * 0.06 + 0.2 * 0.05) * 0.05 / 0.015, rel=1e-12)
    assert csr_sha256(op) == "074d23f23990558b60369aab401912f9af96ec08a8ed3f45f1d8e4db3514c870"


@pytest.mark.parametrize("outlets", [frozenset(), frozenset({"x+", "y-"})])
def test_propagate_matches_row_vector_products_bitwise(outlets):
    g = StructuredGrid((15, 12, 1), (0.1, 0.1, 0.2))
    scenario = FlowScenario(synth_recirculating(g, 0.5), diffusivity=1e-3)
    op = build_markov(scenario, 0.8 * admissible_dt(scenario), outlets).matrix
    assert op.shape[0] == g.n_states + bool(outlets)
    values = np.random.default_rng(3).random(g.n_states)
    vec = np.append(values, 0.0) if outlets else values
    for _ in range(30):
        vec = vec @ op
    out = propagate(values, op, 30)
    assert np.array_equal(out, vec[: g.n_states])


