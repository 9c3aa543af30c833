import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pfsensor.flowfield import (
    FIELD_MAGIC,
    FieldFormatError,
    VelocityField,
    load_field,
    save_field,
    synth_recirculating,
)
from pfsensor.grid import StructuredGrid


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def test_load_minimal_two_state_field(tmp_path):
    p = tmp_path / "f.txt"
    write_lines(
        p,
        [FIELD_MAGIC, "2 1 1", "1.0 1.0 1.0", "0.0 0.0 0.0", "0.1 0.0 0.0", "0.2 0.0 0.0"],
    )
    f = load_field(p)
    assert f.grid.dims == (2, 1, 1)
    assert f.u.tolist() == [0.1, 0.2]


def test_load_truncated_file_errors_with_line(tmp_path):
    p = tmp_path / "f.txt"
    write_lines(p, [FIELD_MAGIC, "2 1 1", "1.0 1.0 1.0", "0.0 0.0 0.0", "0.1 0.0 0.0"])
    with pytest.raises(FieldFormatError, match="expected 2 velocity records"):
        load_field(p)


def test_load_rejects_missing_magic(tmp_path):
    p = tmp_path / "f.txt"
    write_lines(p, ["# wrong", "1 1 1", "1 1 1", "0 0 0", "0 0 0"])
    with pytest.raises(FieldFormatError, match=":1:"):
        load_field(p)


def test_load_rejects_nonfinite_value(tmp_path):
    p = tmp_path / "f.txt"
    write_lines(p, [FIELD_MAGIC, "1 1 1", "1 1 1", "0 0 0", "nan 0 0"])
    with pytest.raises(FieldFormatError, match=":5:"):
        load_field(p)


def test_load_reports_real_line_after_blank_lines(tmp_path):
    p = tmp_path / "f.txt"
    write_lines(p, [FIELD_MAGIC, "2 1 1", "1 1 1", "0 0 0", "0.1 0 0", "", "nan 0 0"])
    with pytest.raises(FieldFormatError, match=":7:"):
        load_field(p)
    with pytest.raises(FieldFormatError, match="cannot read field"):
        load_field(tmp_path / "missing.txt")


def test_load_rejects_a_header_whose_volume_overflows(tmp_path):
    p = tmp_path / "f.txt"
    write_lines(p, [FIELD_MAGIC, "1 1 1", "1e300 1e300 1e300", "0 0 0", "0 0 0"])
    with pytest.raises(FieldFormatError, match=r"f\.txt:2: invalid grid header: grid spacing"):
        load_field(p)


def test_load_rejects_malformed_record(tmp_path):
    p = tmp_path / "f.txt"
    write_lines(p, [FIELD_MAGIC, "1 1 1", "1 1 1", "0 0 0", "0.1 0.2"])
    with pytest.raises(FieldFormatError, match=r"f\.txt:5: not 'u v w'"):
        load_field(p)


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    nx=st.integers(1, 5),
    ny=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
)
def test_save_load_round_trip_bitwise(tmp_path, nx, ny, seed):
    g = StructuredGrid((nx, ny, 1), (0.3, 0.7, 1.1), origin=(-0.5, 2.0, 0.0))
    rng = np.random.default_rng(seed)
    f = VelocityField(
        g,
        rng.standard_normal(g.n_states),
        rng.standard_normal(g.n_states),
        rng.standard_normal(g.n_states),
    )
    p = tmp_path / f"rt-{nx}-{ny}-{seed}.txt"
    save_field(p, f)
    back = load_field(p)
    assert back.grid == g
    assert np.array_equal(back.u, f.u)
    assert np.array_equal(back.v, f.v)
    assert np.array_equal(back.w, f.w)


def test_velocity_field_validates_length_and_finiteness():
    g = StructuredGrid((2, 2, 1), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        VelocityField(g, np.zeros(3), np.zeros(4), np.zeros(4))
    bad = np.zeros(4)
    bad[2] = np.inf
    with pytest.raises(ValueError):
        VelocityField(g, bad, np.zeros(4), np.zeros(4))


def test_synth_zero_strength_is_zero_field():
    g = StructuredGrid((8, 6, 1), (0.25, 0.4, 1.0))
    f = synth_recirculating(g, [0.0])[0]
    assert not f.u.any() and not f.v.any() and not f.w.any()


def test_synth_negation():
    g = StructuredGrid((8, 6, 1), (0.25, 0.4, 1.0))
    f, fneg = synth_recirculating(g, [0.7, -0.7])
    assert np.array_equal(f.u, -fneg.u)
    assert np.array_equal(f.v, -fneg.v)


@given(
    a=st.floats(0.1, 4.0) | st.floats(-4.0, -0.1),
    xi=st.floats(0.1, 2.0),
)
def test_synth_linear_in_strength(a, xi):
    # both fields are one multiply away from the shared unit field, so the
    # mismatch is bounded by a couple of rounding ulps
    g = StructuredGrid((5, 4, 1), (0.2, 0.3, 1.0))
    scaled, base = synth_recirculating(g, [a * xi, xi])
    assert np.allclose(scaled.u, a * base.u, rtol=1e-13, atol=0.0)
    assert np.allclose(scaled.v, a * base.v, rtol=1e-13, atol=0.0)


@given(strengths=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=5))
def test_synth_fields_are_made_on_demand_from_one_unit_field(strengths):
    # 1.0 * x is exact, so the unit strength gives the unit field itself
    g = StructuredGrid((5, 4, 1), (0.2, 0.3, 1.0))
    [unit] = synth_recirculating(g, [1.0])
    fields = synth_recirculating(g, strengths)
    assert len(fields) == len(strengths)
    first, *_ = fields
    assert first.u.tobytes() == fields[0].u.tobytes() == fields[-len(strengths)].u.tobytes()
    for idx, (s, field) in enumerate(zip(strengths, fields)):
        assert field.u.tobytes() == (s * unit.u).tobytes()
        assert field.v.tobytes() == (s * unit.v).tobytes()
        assert field.w.tobytes() == np.zeros(g.n_states).tobytes()
        assert fields[idx - len(strengths)].v.tobytes() == field.v.tobytes()
    with pytest.raises(IndexError):
        fields[len(strengths)]
    with pytest.raises(TypeError):
        fields[0:1]


def _discrete_divergence(field):
    """Central-difference divergence at interior cells."""
    nx, ny, _ = field.grid.dims
    dx, dy, _ = field.grid.spacing
    u = field.u.reshape(ny, nx)
    v = field.v.reshape(ny, nx)
    dudx = (u[1:-1, 2:] - u[1:-1, :-2]) / (2 * dx)
    dvdy = (v[2:, 1:-1] - v[:-2, 1:-1]) / (2 * dy)
    return dudx + dvdy


def test_synth_divergence_second_order():
    # the analytic field is divergence-free; the central-difference residual
    # must shrink by ~4x when the spacing halves. An anisotropic grid keeps
    # the residual finite (isotropic spacing cancels it to machine zero).
    div_coarse = np.abs(_discrete_divergence(
        synth_recirculating(StructuredGrid((16, 32, 1), (1 / 16, 1 / 32, 1.0)), [1.0])[0]
    )).max()
    div_fine = np.abs(_discrete_divergence(
        synth_recirculating(StructuredGrid((32, 64, 1), (1 / 32, 1 / 64, 1.0)), [1.0])[0]
    )).max()
    assert div_fine < div_coarse / 3.0


def test_synth_divergence_machine_zero_on_isotropic_grid():
    g = StructuredGrid((24, 24, 1), (1 / 24, 1 / 24, 1.0))
    residual = np.abs(_discrete_divergence(synth_recirculating(g, [1.0])[0])).max()
    assert residual < 1e-12


def test_synth_vortex_symmetries():
    # sin/cos structure of the stream function: u is even in x and odd in y
    # about the domain mid-planes, v the other way around
    g = StructuredGrid((10, 10, 1), (0.1, 0.1, 1.0))
    f = synth_recirculating(g, [1.0])[0]
    nx, ny, _ = g.dims
    u = f.u.reshape(ny, nx)
    v = f.v.reshape(ny, nx)
    assert np.allclose(u, u[:, ::-1], atol=1e-14)
    assert np.allclose(u, -u[::-1, :], atol=1e-14)
    assert np.allclose(v, -v[:, ::-1], atol=1e-14)
    assert np.allclose(v, v[::-1, :], atol=1e-14)
