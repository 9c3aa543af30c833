import math

import numpy as np
import pytest

from pfsensor.flowfield import FlowScenario, VelocityField, synth_recirculating
from pfsensor.grid import StructuredGrid
from pfsensor.markov import StabilityError, build_markov
from pfsensor.pde import compare_operator, solve_pde, stable_step
from pfsensor.pipeline import VALIDATE_SUBSTEPS

from oracles import admissible_dt, zero_field


def line_grid(n, dx=1.0):
    return StructuredGrid((n, 1, 1), (dx, 1.0, 1.0))


def delta_field(grid, k=None, value=1.0):
    phi = np.zeros(grid.n_states)
    phi[grid.n_states // 2 if k is None else k] = value
    return phi


def steps_to(scenario, horizon, fraction=0.45):
    """The step and step count that march to horizon at no more than fraction
    of the stable step: n = ceil(T / (f * stable_step)), step = T / n."""
    n = max(1, math.ceil(horizon / (fraction * stable_step(scenario))))
    return horizon / n, n


def flux_loop_solve(scenario, phi0, step, n_steps):
    """The flux-form march the DIA stepper replaced: per interior face, a
    donor-cell advective plus central diffusive flux, taken from the cell
    below the face and given to the cell above it."""
    grid = scenario.field.grid
    nx, ny, nz = grid.dims
    dx, dy, dz = grid.spacing
    comps = {
        2: scenario.field.u.reshape(nz, ny, nx),
        1: scenario.field.v.reshape(nz, ny, nx),
        0: scenario.field.w.reshape(nz, ny, nx),
    }
    area = {2: dy * dz, 1: dx * dz, 0: dx * dy}
    dist = {2: dx, 1: dy, 0: dz}
    stencil = []
    for ax in (2, 1, 0):
        if comps[ax].shape[ax] < 2:
            continue
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[ax] = slice(0, -1)
        hi[ax] = slice(1, None)
        lo, hi = tuple(lo), tuple(hi)
        u_face = 0.5 * (comps[ax][lo] + comps[ax][hi])
        diff_rate = scenario.diffusivity * area[ax] / dist[ax]
        stencil.append(
            (lo, hi, np.maximum(u_face, 0.0), np.minimum(u_face, 0.0), area[ax], diff_rate)
        )
    phi = phi0.reshape(nz, ny, nx).astype(float, copy=True)
    delta = np.empty_like(phi)

    coef = step / grid.cell_volume
    for _ in range(n_steps):
        delta.fill(0.0)
        for lo, hi, u_out, u_in, area, diff_rate in stencil:
            phi_lo = phi[lo]
            phi_hi = phi[hi]
            # mass per second through each interior face, positive lo -> hi
            flux = u_out * phi_lo
            flux += u_in * phi_hi
            flux *= area
            dif = phi_lo - phi_hi
            dif *= diff_rate
            flux += dif
            delta[lo] -= flux
            delta[hi] += flux
        delta *= coef
        phi += delta
    np.maximum(phi, 0.0, out=phi)
    return phi.ravel()


def assert_matches_flux_loop(scenario, phi0, n_steps):
    step = 0.9 * stable_step(scenario)
    out = solve_pde(scenario, phi0, step, n_steps)
    ref = flux_loop_solve(scenario, phi0, step, n_steps)
    assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("dims", [(17, 1, 1), (1, 17, 1), (1, 1, 17)])
def test_stepper_matches_flux_loop_on_lines(dims):
    # a line along each axis: the other two axes are degenerate, and the
    # line's stride is 1 whichever axis it runs along
    g = StructuredGrid(dims, (0.3, 0.5, 0.7))
    rng = np.random.default_rng(1)
    comps = [np.zeros(17) for _ in range(3)]
    comps[next(i for i, n in enumerate(dims) if n > 1)] = rng.uniform(-1.0, 1.0, 17)
    sc = FlowScenario(VelocityField(g, *comps), diffusivity=0.02)
    assert_matches_flux_loop(sc, rng.uniform(0.0, 1.0, 17), 40)


def test_stepper_matches_flux_loop_on_vortex():
    g = StructuredGrid((23, 19, 1), (0.05, 0.07, 0.2))
    sc = FlowScenario(synth_recirculating(g, 0.4), diffusivity=1e-3)
    assert_matches_flux_loop(sc, delta_field(g), 60)


def test_stepper_matches_flux_loop_on_3d_random_field():
    # not divergence-free, so the diagonal differs from cell to cell
    g = StructuredGrid((7, 6, 5), (0.2, 0.3, 0.25))
    rng = np.random.default_rng(7)
    u, v, w = rng.uniform(-0.5, 0.5, (3, g.n_states))
    sc = FlowScenario(VelocityField(g, u, v, w), diffusivity=4e-3)
    phi0 = rng.uniform(0.0, 1.0, g.n_states)
    assert_matches_flux_loop(sc, phi0, 50)


def test_config_validation():
    # a solve is configured by its step and step count, a comparison by its
    # operator steps and reference substeps per operator step
    g = line_grid(4)
    sc = FlowScenario(zero_field(g), diffusivity=0.4)
    for step, n_steps in ((0.0, 1), (-0.1, 1), (math.nan, 1), (0.1, 0), (0.1, -2)):
        with pytest.raises(ValueError, match="need step > 0 and n_steps >= 1"):
            solve_pde(sc, delta_field(g), step, n_steps)
    # the initial field must hold one value per cell of the scenario's grid
    for phi0 in (np.zeros(5), np.zeros((4, 1))):
        with pytest.raises(ValueError, match=r"initial field has shape .*, expected \(4,\)"):
            solve_pde(sc, phi0, 0.1, 1)
    operator = build_markov(sc, 0.5).matrix
    for steps, substeps in ((1, 0), (0, 1)):
        with pytest.raises(ValueError, match="steps and substeps must be >= 1"):
            compare_operator(sc, operator, 0.5, delta_field(g), steps, substeps)


def test_still_air_leaves_field_unchanged():
    g = line_grid(5)
    sc = FlowScenario(zero_field(g), diffusivity=0.0)
    phi0 = np.array([0.0, 1.0, 2.0, 0.0, 0.5])
    out = solve_pde(sc, phi0, *steps_to(sc, 3.0))
    assert np.array_equal(out, phi0)


def test_mass_conserved_with_zero_source():
    g = StructuredGrid((20, 15, 1), (0.05, 0.07, 0.2))
    sc = FlowScenario(synth_recirculating(g, 0.4), diffusivity=1e-3)
    phi0 = delta_field(g)
    out = solve_pde(sc, phi0, *steps_to(sc, 2.0))
    assert out.sum() == pytest.approx(phi0.sum(), rel=1e-10)


def test_positivity_preserved():
    g = StructuredGrid((16, 16, 1), (0.1, 0.1, 0.3))
    sc = FlowScenario(synth_recirculating(g, 1.2), diffusivity=5e-3)
    out = solve_pde(sc, delta_field(g), *steps_to(sc, 1.0, fraction=0.5))
    assert out.min() >= 0.0


def test_delta_diffuses_to_heat_kernel():
    # sigma = sqrt(2 D T) ~ 11 cells, so the discrete profile should sit on
    # the analytic Gaussian to well under the 5% bound
    n, diff, horizon = 201, 1.0, 60.0
    g = line_grid(n)
    sc = FlowScenario(zero_field(g), diffusivity=diff)
    out = solve_pde(sc, delta_field(g), *steps_to(sc, horizon))
    x = np.arange(n) - n // 2
    exact = np.exp(-(x**2) / (4 * diff * horizon)) / np.sqrt(4 * np.pi * diff * horizon)
    err = np.linalg.norm(out - exact) / np.linalg.norm(exact)
    assert err <= 0.05


def test_step_over_bound_raises_stability_error():
    g = line_grid(4)
    sc = FlowScenario(zero_field(g), diffusivity=0.4)
    bound = stable_step(sc)
    with pytest.raises(StabilityError) as err:
        solve_pde(sc, delta_field(g), np.nextafter(bound, np.inf), 1)
    assert err.value.admissible_dt == stable_step(sc)
    assert solve_pde(sc, delta_field(g), bound, 3).min() >= 0.0


def test_stable_step_matches_operator_bound():
    g = StructuredGrid((12, 9, 1), (0.08, 0.11, 0.2))
    sc = FlowScenario(synth_recirculating(g, 0.6), diffusivity=2e-3)
    assert stable_step(sc) == pytest.approx(admissible_dt(sc), rel=1e-12)


def test_compare_transport_identity_scenario_is_exact():
    g = line_grid(6)
    sc = FlowScenario(zero_field(g), diffusivity=0.0)
    assert compare_operator(sc, build_markov(sc, 0.5).matrix, 0.5, delta_field(g), 5, 1) == 0.0


def test_compare_transport_matched_discretizations_coincide():
    # same upwind update on both paths when the oracle runs at exactly dt
    g = line_grid(30)
    u = np.full(30, 0.2)
    sc = FlowScenario(VelocityField(g, u, np.zeros(30), np.zeros(30)), diffusivity=0.0)
    err = compare_operator(sc, build_markov(sc, 1.0).matrix, 1.0, delta_field(g), 20, 1)
    assert err <= 1e-12


def test_compare_transport_vortex_scenario_is_close():
    # operator runs at 5% of the stability bound, the reference at validate's
    # substeps (1%); the gap between the two first-order-in-time paths stays
    # under 1e-2
    n = 24
    g = StructuredGrid((n, n, 1), (1 / n, 1 / n, 0.2))
    sc = FlowScenario(synth_recirculating(g, 0.005), diffusivity=1e-5)
    steps = max(1, round(20.0 / (0.05 * admissible_dt(sc))))
    dt = 20.0 / steps
    centers = g.cell_centers()
    phi0 = np.exp(-((centers[:, 0] - 0.3) ** 2 + (centers[:, 1] - 0.3) ** 2) / (2 * 0.08**2))
    err = compare_operator(sc, build_markov(sc, dt).matrix, dt, phi0, steps, VALIDATE_SUBSTEPS)
    assert err <= 1e-2
