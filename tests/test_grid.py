from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfsensor.config import ConfigError, RunConfig
from pfsensor.grid import StructuredGrid, box_mask
from pfsensor.pipeline import detection_zones

dims_st = st.tuples(
    st.integers(1, 6), st.integers(1, 6), st.integers(1, 4)
)


def test_state_index_origin_cell():
    g = StructuredGrid((2, 2, 1), (1.0, 1.0, 1.0))
    assert g.state_index((0, 0, 0)) == 0


def test_state_index_last_cell_2x2():
    g = StructuredGrid((2, 2, 1), (1.0, 1.0, 1.0))
    assert g.state_index((1, 1, 0)) == 3


def test_state_index_hand_evaluated_3d():
    # k = 2 + 3 * (1 + 2 * 1) = 11
    g = StructuredGrid((3, 2, 2), (1.0, 1.0, 1.0))
    assert g.state_index((2, 1, 1)) == 11


def test_state_index_out_of_range():
    g = StructuredGrid((3, 2, 2), (1.0, 1.0, 1.0))
    with pytest.raises(IndexError):
        g.state_index((3, 0, 0))
    with pytest.raises(IndexError):
        g.state_index((0, -1, 0))
    with pytest.raises(IndexError):
        g.ijk_of(12)


def test_invalid_grid_rejected():
    with pytest.raises(ValueError):
        StructuredGrid((0, 2, 1), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        StructuredGrid((2, 2, 1), (1.0, 0.0, 1.0))


@pytest.mark.parametrize(
    "spacing, origin",
    [
        ((1e300, 1e300, 1e300), (0.0, 0.0, 0.0)),  # the cell volume overflows
        ((1e-120, 1e-120, 1e-120), (0.0, 0.0, 0.0)),  # the cell volume underflows to 0
        ((1e154, 1e154, 0.1), (0.0, 0.0, 0.0)),  # only the total volume overflows
        ((1e306, 1e-300, 1.0), (1.79e308, 0.0, 0.0)),  # only the far corner overflows
        ((float("nan"), 1.0, 1.0), (0.0, 0.0, 0.0)),
    ],
    ids=["volume-overflow", "volume-underflow", "total-overflow", "corner-overflow", "nan"],
)
def test_grid_without_finite_volumes_and_corner_is_rejected_naming_spacing(spacing, origin):
    with pytest.raises(ValueError, match="grid spacing"):
        StructuredGrid((6, 6, 1), spacing, origin)


@given(dims=dims_st, data=st.data())
def test_state_index_round_trip(dims, data):
    g = StructuredGrid(dims, (0.5, 0.25, 1.0))
    i = data.draw(st.integers(0, dims[0] - 1))
    j = data.draw(st.integers(0, dims[1] - 1))
    l = data.draw(st.integers(0, dims[2] - 1))
    assert g.ijk_of(g.state_index((i, j, l))) == (i, j, l)


def test_index_is_bijection_and_row_major():
    g = StructuredGrid((3, 4, 2), (1.0, 1.0, 1.0))
    seen = [g.state_index((i, j, l)) for l in range(2) for j in range(4) for i in range(3)]
    assert seen == list(range(g.n_states))  # x fastest, z slowest


def test_volumes():
    g = StructuredGrid((4, 5, 2), (0.5, 0.2, 2.0))
    assert g.cell_volume == pytest.approx(0.2)
    assert g.total_volume == pytest.approx(0.2 * 40)


def test_cell_centers_match_cell_center():
    g = StructuredGrid((3, 2, 2), (0.5, 1.0, 2.0), origin=(1.0, -1.0, 0.0))
    centers = g.cell_centers()
    for k in range(g.n_states):
        assert centers[k] == pytest.approx(g.cell_center(k))


def test_box_mask_full_box():
    g = StructuredGrid((2, 2, 1), (1.0, 1.0, 1.0))
    m = box_mask(g, (0.0, 0.0, 0.0), (2.0, 2.0, 1.0))
    assert m.dtype == bool and m.shape == (4,)
    assert m.all()


def test_box_mask_disjoint_box_is_empty():
    g = StructuredGrid((2, 2, 1), (1.0, 1.0, 1.0))
    m = box_mask(g, (0.0, -5.0, 0.0), (2.0, -3.0, 1.0))
    assert not m.any()


def test_box_mask_enumerated_centers():
    # centers (0.5,0.5),(1.5,0.5),(0.5,1.5),(1.5,1.5) fall inside [0,2]^2
    g = StructuredGrid((4, 4, 1), (1.0, 1.0, 1.0))
    m = box_mask(g, (0.0, 0.0, 0.0), (2.0, 2.0, 1.0))
    expected = {g.state_index(ijk) for ijk in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]}
    assert set(np.flatnonzero(m).tolist()) == expected


def random_box(rng, grid):
    lo = rng.uniform(-0.5, 1.0, 3) * np.asarray(grid.extent())
    hi = lo + rng.uniform(0.0, 1.0, 3) * np.asarray(grid.extent())
    return tuple(lo), tuple(hi)


@given(dims=dims_st, seed=st.integers(0, 2**31 - 1))
def test_mask_complement_partitions_states(dims, seed):
    # the release states are the occupied zone, a union of boxes; the states
    # outside it are the ignored ones, and a zone holding no cell is refused
    g = StructuredGrid(dims, (1.0, 1.0, 1.0))
    rng = np.random.default_rng(seed)
    cfg = RunConfig(occupied_boxes=[random_box(rng, g) for _ in range(rng.integers(1, 4))])
    union = np.zeros(g.n_states, dtype=bool)
    for lo, hi in cfg.occupied_boxes:
        union |= box_mask(g, lo, hi)
    if not union.any():
        with pytest.raises(ConfigError, match="occupied_box contains no cell centers"):
            detection_zones(cfg, g)
        return
    release, _ = detection_zones(cfg, g)
    assert np.array_equal(release, union)


def test_mask_rejects_out_of_range_indices():
    # a mask is one flag per grid state, so a box reaching past the domain
    # still marks only states inside it
    g = StructuredGrid((2, 3, 1), (1.0, 1.0, 1.0))
    m = box_mask(g, (-5.0, -5.0, -5.0), (99.0, 1.0, 99.0))
    assert m.shape == (g.n_states,)
    assert np.flatnonzero(m).tolist() == [0, 1]


def test_empty_mask_and_bool_array():
    # outlets add an exit state after the cells; it never releases but may
    # host a sensor
    g = StructuredGrid((2, 2, 1), (1.0, 1.0, 1.0))
    for exits, outlets in ((0, frozenset()), (1, frozenset({"x+"}))):
        release, candidates = detection_zones(RunConfig(outlets=outlets), g)
        for mask in (release, candidates):
            assert mask.dtype == bool and mask.shape == (4 + exits,)
        assert release.tolist() == [True] * 4 + [False] * exits
        assert candidates.all()


def test_all_forbidden_leaves_only_the_exit_state_a_candidate():
    g = StructuredGrid((2, 2, 1), (1.0, 1.0, 1.0))
    cfg = RunConfig(forbidden_boxes=[((-1.0, -1.0, -1.0), (9.0, 9.0, 9.0))])
    with pytest.raises(ConfigError, match="excludes every candidate column"):
        detection_zones(cfg, g)
    _, candidates = detection_zones(replace(cfg, outlets=frozenset({"y-"})), g)
    assert candidates.tolist() == [False] * 4 + [True]
