import math

import numpy as np
import pytest

from pfsensor.flowfield import VelocityField, synth_recirculating
from pfsensor.grid import StructuredGrid
from pfsensor.markov import StabilityError, build_markov
from pfsensor import pde
from pfsensor.pde import compare_operator, solve_pde
from pfsensor.pipeline import VALIDATE_SUBSTEPS

from oracles import admissible_dt, zero_field


def line_grid(n, dx=1.0):
    return StructuredGrid((n, 1, 1), (dx, 1.0, 1.0))


def delta_field(grid, k=None, value=1.0):
    phi = np.zeros(grid.n_states)
    phi[grid.n_states // 2 if k is None else k] = value
    return phi


def stable_step(field, diffusivity):
    """The step bound solve_pde checks, from its own face rates."""
    return pde._stable_step(field.grid, pde._rates(field, diffusivity)[1])


def steps_to(field, diffusivity, horizon, fraction=0.45):
    """The step and step count that march to horizon at no more than fraction
    of the stable step: n = ceil(T / (f * stable_step)), step = T / n."""
    n = max(1, math.ceil(horizon / (fraction * stable_step(field, diffusivity))))
    return horizon / n, n


def flux_loop_solve(field, diffusivity, phi0, step, n_steps):
    """The flux-form march the DIA stepper replaced: per interior face, a
    donor-cell advective plus central diffusive flux, taken from the cell
    below the face and given to the cell above it."""
    grid = field.grid
    nx, ny, nz = grid.dims
    dx, dy, dz = grid.spacing
    comps = {
        2: field.u.reshape(nz, ny, nx),
        1: field.v.reshape(nz, ny, nx),
        0: field.w.reshape(nz, ny, nx),
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
        diff_rate = diffusivity * area[ax] / dist[ax]
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


def assert_matches_flux_loop(field, diffusivity, phi0, n_steps):
    step = 0.9 * stable_step(field, diffusivity)
    out = solve_pde(field, diffusivity, phi0, step, n_steps)
    ref = flux_loop_solve(field, diffusivity, phi0, step, n_steps)
    assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("dims", [(17, 1, 1), (1, 17, 1), (1, 1, 17)])
def test_stepper_matches_flux_loop_on_lines(dims):
    # a line along each axis: the other two axes are degenerate, and the
    # line's stride is 1 whichever axis it runs along
    g = StructuredGrid(dims, (0.3, 0.5, 0.7))
    rng = np.random.default_rng(1)
    comps = [np.zeros(17) for _ in range(3)]
    comps[next(i for i, n in enumerate(dims) if n > 1)] = rng.uniform(-1.0, 1.0, 17)
    assert_matches_flux_loop(VelocityField(g, *comps), 0.02, rng.uniform(0.0, 1.0, 17), 40)


def test_stepper_matches_flux_loop_on_vortex():
    g = StructuredGrid((23, 19, 1), (0.05, 0.07, 0.2))
    assert_matches_flux_loop(synth_recirculating(g, [0.4])[0], 1e-3, delta_field(g), 60)


def test_stepper_matches_flux_loop_on_3d_random_field():
    # not divergence-free, so the diagonal differs from cell to cell
    g = StructuredGrid((7, 6, 5), (0.2, 0.3, 0.25))
    rng = np.random.default_rng(7)
    u, v, w = rng.uniform(-0.5, 0.5, (3, g.n_states))
    phi0 = rng.uniform(0.0, 1.0, g.n_states)
    assert_matches_flux_loop(VelocityField(g, u, v, w), 4e-3, phi0, 50)


def test_config_validation():
    # a solve is configured by its step and step count
    g = line_grid(4)
    still = zero_field(g)
    for step, n_steps in ((0.0, 1), (-0.1, 1), (math.nan, 1), (0.1, 0), (0.1, -2)):
        with pytest.raises(ValueError, match="need step > 0 and n_steps >= 1"):
            solve_pde(still, 0.4, delta_field(g), step, n_steps)
    # the initial field must hold one value per cell of the field's grid
    for phi0 in (np.zeros(5), np.zeros((4, 1))):
        with pytest.raises(ValueError, match=r"initial field has shape .*, expected \(4,\)"):
            solve_pde(still, 0.4, phi0, 0.1, 1)


def test_still_air_leaves_field_unchanged():
    g = line_grid(5)
    still = zero_field(g)
    phi0 = np.array([0.0, 1.0, 2.0, 0.0, 0.5])
    out = solve_pde(still, 0.0, phi0, *steps_to(still, 0.0, 3.0))
    assert np.array_equal(out, phi0)


def test_mass_conserved_with_zero_source():
    g = StructuredGrid((20, 15, 1), (0.05, 0.07, 0.2))
    field = synth_recirculating(g, [0.4])[0]
    phi0 = delta_field(g)
    out = solve_pde(field, 1e-3, phi0, *steps_to(field, 1e-3, 2.0))
    assert out.sum() == pytest.approx(phi0.sum(), rel=1e-10)


def test_positivity_preserved():
    g = StructuredGrid((16, 16, 1), (0.1, 0.1, 0.3))
    field = synth_recirculating(g, [1.2])[0]
    out = solve_pde(field, 5e-3, delta_field(g), *steps_to(field, 5e-3, 1.0, fraction=0.5))
    assert out.min() >= 0.0


def test_delta_diffuses_to_heat_kernel():
    # sigma = sqrt(2 D T) ~ 11 cells, so the discrete profile should sit on
    # the analytic Gaussian to well under the 5% bound
    n, diff, horizon = 201, 1.0, 60.0
    g = line_grid(n)
    still = zero_field(g)
    out = solve_pde(still, diff, delta_field(g), *steps_to(still, diff, horizon))
    x = np.arange(n) - n // 2
    exact = np.exp(-(x**2) / (4 * diff * horizon)) / np.sqrt(4 * np.pi * diff * horizon)
    err = np.linalg.norm(out - exact) / np.linalg.norm(exact)
    assert err <= 0.05


def test_step_over_bound_raises_stability_error():
    g = line_grid(4)
    still = zero_field(g)
    bound = stable_step(still, 0.4)
    with pytest.raises(StabilityError) as err:
        solve_pde(still, 0.4, delta_field(g), np.nextafter(bound, np.inf), 1)
    assert err.value.admissible_dt == stable_step(still, 0.4)
    assert solve_pde(still, 0.4, delta_field(g), bound, 3).min() >= 0.0


def test_stable_step_matches_operator_bound():
    g = StructuredGrid((12, 9, 1), (0.08, 0.11, 0.2))
    field = synth_recirculating(g, [0.6])[0]
    assert stable_step(field, 2e-3) == pytest.approx(admissible_dt(field, 2e-3), rel=1e-12)


def test_compare_transport_identity_scenario_is_exact():
    g = line_grid(6)
    still = zero_field(g)
    operator = build_markov(still, 0.0, 0.5).matrix
    assert compare_operator(still, 0.0, operator, 0.5, delta_field(g), 5, 1) == 0.0


def test_compare_transport_matched_discretizations_coincide():
    # same upwind update on both paths when the oracle runs at exactly dt
    g = line_grid(30)
    u = np.full(30, 0.2)
    field = VelocityField(g, u, np.zeros(30), np.zeros(30))
    operator = build_markov(field, 0.0, 1.0).matrix
    err = compare_operator(field, 0.0, operator, 1.0, delta_field(g), 20, 1)
    assert err <= 1e-12


def test_compare_transport_vortex_scenario_is_close():
    # operator runs at 5% of the stability bound, the reference at validate's
    # substeps (1%); the gap between the two first-order-in-time paths stays
    # under 1e-2
    n = 24
    g = StructuredGrid((n, n, 1), (1 / n, 1 / n, 0.2))
    field = synth_recirculating(g, [0.005])[0]
    steps = max(1, round(20.0 / (0.05 * admissible_dt(field, 1e-5))))
    dt = 20.0 / steps
    centers = g.cell_centers()
    phi0 = np.exp(-((centers[:, 0] - 0.3) ** 2 + (centers[:, 1] - 0.3) ** 2) / (2 * 0.08**2))
    operator = build_markov(field, 1e-5, dt).matrix
    err = compare_operator(field, 1e-5, operator, dt, phi0, steps, VALIDATE_SUBSTEPS)
    assert err <= 1e-2
