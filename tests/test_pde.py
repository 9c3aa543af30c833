import numpy as np
import pytest

from pfsensor.flowfield import FlowScenario, VelocityField, synth_recirculating, zero_field
from pfsensor.grid import StructuredGrid
from pfsensor.markov import ConcentrationField, admissible_dt
from pfsensor.pde import (
    PdeConfig,
    PdeStabilityError,
    compare_transport,
    solve_pde,
    stable_step,
)


def line_grid(n, dx=1.0):
    return StructuredGrid((n, 1, 1), (dx, 1.0, 1.0))


def delta_field(grid, k=None, value=1.0):
    phi = np.zeros(grid.n_states)
    phi[grid.n_states // 2 if k is None else k] = value
    return ConcentrationField(grid, phi)


def test_config_validation():
    with pytest.raises(ValueError):
        PdeConfig(end_time=0.0)
    with pytest.raises(ValueError):
        PdeConfig(end_time=1.0, cfl_target=0.6)
    with pytest.raises(ValueError):
        PdeConfig(end_time=1.0, fixed_step=-0.1)


def test_still_air_leaves_field_unchanged():
    g = line_grid(5)
    sc = FlowScenario(zero_field(g), diffusivity=0.0)
    phi0 = ConcentrationField(g, np.array([0.0, 1.0, 2.0, 0.0, 0.5]))
    out = solve_pde(sc, phi0, PdeConfig(end_time=3.0))
    assert np.array_equal(out.values, phi0.values)


def test_mass_conserved_with_zero_source():
    g = StructuredGrid((20, 15, 1), (0.05, 0.07, 0.2))
    sc = FlowScenario(synth_recirculating(g, 0.4), diffusivity=1e-3)
    phi0 = delta_field(g)
    out = solve_pde(sc, phi0, PdeConfig(end_time=2.0))
    assert out.total_mass() == pytest.approx(phi0.total_mass(), rel=1e-10)


def test_positivity_preserved():
    g = StructuredGrid((16, 16, 1), (0.1, 0.1, 0.3))
    sc = FlowScenario(synth_recirculating(g, 1.2), diffusivity=5e-3)
    out = solve_pde(sc, delta_field(g), PdeConfig(end_time=1.0, cfl_target=0.5))
    assert out.values.min() >= 0.0


def test_delta_diffuses_to_heat_kernel():
    # sigma = sqrt(2 D T) ~ 11 cells, so the discrete profile should sit on
    # the analytic Gaussian to well under the 5% bound
    n, diff, horizon = 201, 1.0, 60.0
    g = line_grid(n)
    sc = FlowScenario(zero_field(g), diffusivity=diff)
    out = solve_pde(sc, delta_field(g), PdeConfig(end_time=horizon))
    x = np.arange(n) - n // 2
    exact = np.exp(-(x**2) / (4 * diff * horizon)) / np.sqrt(4 * np.pi * diff * horizon)
    err = np.linalg.norm(out.values - exact) / np.linalg.norm(exact)
    assert err <= 0.05


def test_fixed_step_must_be_stable_and_divide_horizon():
    g = line_grid(4)
    sc = FlowScenario(zero_field(g), diffusivity=0.4)
    bound = stable_step(sc)
    with pytest.raises(PdeStabilityError) as err:
        solve_pde(sc, delta_field(g), PdeConfig(end_time=2.0, fixed_step=2 * bound))
    assert err.value.admissible_step == pytest.approx(bound)
    with pytest.raises(ValueError, match="divide"):
        solve_pde(sc, delta_field(g), PdeConfig(end_time=1.0, fixed_step=0.3))


def test_stable_step_matches_operator_bound():
    g = StructuredGrid((12, 9, 1), (0.08, 0.11, 0.2))
    sc = FlowScenario(synth_recirculating(g, 0.6), diffusivity=2e-3)
    assert stable_step(sc) == pytest.approx(admissible_dt(sc), rel=1e-12)


def test_compare_transport_identity_scenario_is_exact():
    g = line_grid(6)
    sc = FlowScenario(zero_field(g), diffusivity=0.0)
    assert compare_transport(sc, delta_field(g), steps=5, dt=0.5) == 0.0


def test_compare_transport_matched_discretizations_coincide():
    # same upwind update on both paths when the oracle runs at exactly dt
    g = line_grid(30)
    u = np.full(30, 0.2)
    sc = FlowScenario(VelocityField(g, u, np.zeros(30), np.zeros(30)), diffusivity=0.0)
    err = compare_transport(sc, delta_field(g), steps=20, dt=1.0, fixed_step=1.0)
    assert err <= 1e-12


def test_compare_transport_vortex_scenario_is_close():
    # operator runs at 5% of the stability bound, the reference at 1%; the
    # gap between the two first-order-in-time paths stays under 1e-2
    n = 24
    g = StructuredGrid((n, n, 1), (1 / n, 1 / n, 0.2))
    sc = FlowScenario(synth_recirculating(g, 0.005), diffusivity=1e-5)
    steps = max(1, round(20.0 / (0.05 * admissible_dt(sc))))
    dt = 20.0 / steps
    centers = g.cell_centers()
    blob = np.exp(-((centers[:, 0] - 0.3) ** 2 + (centers[:, 1] - 0.3) ** 2) / (2 * 0.08**2))
    phi0 = ConcentrationField(g, blob)
    err = compare_transport(sc, phi0, steps=steps, dt=dt, cfl_target=0.01)
    assert err <= 1e-2
