"""The shared artifact writer and table reader, the bytes of every text export,
and fuzzed loaders."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pfsensor import flowfield
from pfsensor.cli import main
from pfsensor.config import ConfigError, parse_config
from pfsensor.flowfield import (
    FIELD_MAGIC,
    WRITE_BLOCK,
    FieldFormatError,
    load_field,
    synth_recirculating,
    write_artifact,
)
from pfsensor.grid import StructuredGrid
from pfsensor.pipeline import scenario_set

LOADERS = [(load_field, FIELD_MAGIC, FieldFormatError)]

FUZZ = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def oracle_text(head, columns) -> str:
    """Per-row formatting, the writer's contract: the head lines, then the
    repr of each row's Python scalars joined by spaces."""
    rows = zip(*(col.tolist() for col in columns))
    return "".join(line + "\n" for line in head) + "".join(
        " ".join(map(repr, row)) + "\n" for row in rows
    )


def field_oracle(field) -> str:
    grid = field.grid
    head = [FIELD_MAGIC, "{} {} {}".format(*grid.dims)]
    head += [" ".join(repr(float(x)) for x in v) for v in (grid.spacing, grid.origin)]
    return oracle_text(head, (field.u, field.v, field.w))


def test_failed_write_leaves_previous_file(tmp_path, monkeypatch):
    target = tmp_path / "a.txt"
    write_artifact(target, ["old"])
    before = target.read_bytes()
    writes = []

    def open_failing_second_block(*args, **kwargs):
        fh = open(*args, **kwargs)
        real_write = fh.write

        def write(text):
            writes.append(text)
            if len(writes) == 3:  # the head, the first block, then the second block
                raise OSError("disk full")
            return real_write(text)

        fh.write = write
        return fh

    monkeypatch.setattr(flowfield, "open", open_failing_second_block, raising=False)
    with pytest.raises(OSError, match="disk full"):
        write_artifact(target, ["new"], (np.zeros(WRITE_BLOCK + 1),))
    assert len(writes) == 3
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


def test_write_streams_rows_across_blocks(tmp_path):
    target = tmp_path / "sub" / "t.txt"
    n = 2 * WRITE_BLOCK + 3
    write_artifact(target, ["# head", "x"], (np.arange(n), np.arange(n) / 4))
    lines = target.read_text().splitlines()
    assert lines[:2] == ["# head", "x"]
    assert lines[2:] == [f"{i} {i / 4!r}" for i in range(n)]


# finite floats whose shortest repr sits at a boundary: signed zeros,
# subnormals, the largest float, and both sides of repr's switches to
# exponent notation at 1e16 and below 1e-4
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, 1e16, -1e16, 9999999999999998.0, 1.0000000000000002e16,
    0.0001, 9.999999999999999e-05, 1e-05, 9.999999999999999e-06, 0.1, 1.0,
]


@st.composite
def value_pools(draw):
    """A column's dtype and the values its rows repeat: up to a dozen drawn
    values, or more than WRITE_BLOCK generated ones, so that one table serves
    several blocks. Integers may be state indices below the row count,
    negative or above it; each integer column has its own table."""
    dtype = draw(st.sampled_from(["int32", "int64", "float64"]))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        size = draw(st.integers(WRITE_BLOCK + 1, 2 * WRITE_BLOCK))
        if dtype == "float64":
            values = rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64)
            return np.where(np.isfinite(values), values, -0.0)
        low = draw(st.sampled_from([-3, 0, 3 * WRITE_BLOCK]))
        return rng.integers(low, low + 3 * WRITE_BLOCK, size).astype(dtype)
    if dtype == "float64":
        values = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    else:
        bits = 31 if dtype == "int32" else 63
        values = st.integers(-(2**bits), 2**bits - 1) | st.integers(-3, 3 * WRITE_BLOCK)
    return np.array(draw(st.lists(values, min_size=1, max_size=12)), dtype=dtype)


@st.composite
def file_pools(draw):
    """The pools of one file's columns. A file's float columns share one
    table of magnitudes, so a float pool may come back as one more column
    with a random half of its values negated."""
    pools = draw(st.lists(value_pools(), min_size=1, max_size=3))
    floats = [pool for pool in pools if pool.dtype.kind == "f"]
    if floats and draw(st.booleans()):
        pool = floats[draw(st.integers(0, len(floats) - 1))]
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        signed = np.where(rng.random(len(pool)) < 0.5, -pool, pool)
        pools.insert(draw(st.integers(0, len(pools))), signed)
    return pools


ROWS = st.sampled_from([0, 1, WRITE_BLOCK - 1, WRITE_BLOCK, WRITE_BLOCK + 1, 2 * WRITE_BLOCK + 3])
STATES = np.arange(WRITE_BLOCK + 5)
# a vortex's u on 10 000 cells: its magnitudes repeat across the grid's
# symmetries, and the 5 145 distinct ones are more than WRITE_BLOCK
VORTEX_U = synth_recirculating(StructuredGrid((100, 100, 1), (0.01, 0.01, 0.2)), [0.5])[0].u

# tier-1 runs 60 examples; `pytest --hypothesis-profile=ci` (tests/conftest.py) ten times as many
WRITER_ORACLE = settings(
    max_examples=600 if settings.get_current_profile_name() == "ci" else 60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@WRITER_ORACLE
@given(
    pools=file_pools(),
    n=ROWS | st.integers(0, 3 * WRITE_BLOCK),
    seed=st.integers(0, 2**32 - 1),
)
@example(pools=[np.array([0.0, -0.0, 5e-324, 1e16, 1e-05])], n=WRITE_BLOCK + 7, seed=0)
# state indices below the row count, negative ones, and ones above the row count
@example(
    pools=[STATES, (STATES - 3).astype(np.int32), STATES + 2 * WRITE_BLOCK + 3],
    n=2 * WRITE_BLOCK + 3,
    seed=1,
)
# a zero and a negative zero in two columns of one table
@example(pools=[np.array([0.0, 1.5]), np.array([-0.0, -1.5])], n=9, seed=2)
# floats beside negative integers and state indices
@example(
    pools=[np.array([-0.5, 0.25, -0.0, 3e-7]), np.arange(-5, 0), STATES],
    n=WRITE_BLOCK + 7,
    seed=3,
)
# a vortex field's columns: u, -u and zeros
@example(pools=[VORTEX_U, -VORTEX_U, np.zeros(1)], n=len(VORTEX_U), seed=4)
def test_write_matches_per_row_formatting(tmp_path, pools, n, seed):
    # rows draw from a pool, so values repeat within and across blocks
    rng = np.random.default_rng(seed)
    columns = [pool[rng.integers(0, len(pool), size=n)] for pool in pools]
    path = tmp_path / "t.txt"
    write_artifact(path, ["# head"], columns)
    assert path.read_bytes() == oracle_text(["# head"], columns).encode()


@pytest.mark.parametrize(
    "columns",
    [
        (np.arange(3), np.arange(4)),
        (np.arange(3), np.zeros((3, 1))),
        (np.zeros((2, 2)),),
        (np.float64(1.0),),
    ],
    ids=["unequal", "column-2d", "only-2d", "scalar"],
)
def test_write_refuses_unequal_or_non_1d_columns(tmp_path, columns):
    target = tmp_path / "sub" / "t.txt"
    with pytest.raises(ValueError, match=r"cannot write .*t\.txt: columns must be 1-D"):
        write_artifact(target, ["# head"], columns)
    assert not any(tmp_path.iterdir())


def test_writer_transient_memory_is_bounded(tmp_path):
    # one fine operator's shape: 111 900 (row, col, value) rows over 22 500
    # states, with 16 000 distinct values
    rng = np.random.default_rng(0)
    n = 111_900
    rows = np.sort(rng.integers(0, 22_500, n))
    cols = rng.integers(0, 22_500, n).astype(np.int32)
    values = rng.standard_normal(16_000)[rng.integers(0, 16_000, n)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_artifact(tmp_path / "t.txt", ["# head"], (rows, cols, values))
        transient = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the distinct values' texts and one block's bytes, not a text per row
    assert transient <= 3_000_000
    expected = oracle_text(["# head"], (rows, cols, values))
    assert (tmp_path / "t.txt").read_bytes() == expected.encode()


BUILD_CFG = """\
dims = 7 6 1
spacing = 0.1 0.12 0.2
diffusivity = 2e-4
dt = 0.02
steps = 20
family = vortex
distribution = gaussian 0.5 0.05
cdf_points = 0 0.5 1
eps_acc = 1e-4
sensors = 3
out = {out}
"""


@pytest.mark.parametrize("outlets", ["", "outlets = x+ y-"])
def test_build_and_place_exports_match_per_row_formatting(tmp_path, outlets):
    # pins every text export's bytes without a platform-dependent hash
    out = tmp_path / "out"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(BUILD_CFG.format(out=out) + outlets + "\n")
    assert main(["build", "--config", str(cfg_path)]) == 0
    assert main(["place", "--config", str(cfg_path)]) == 0
    _, fields, _, _ = scenario_set(parse_config(cfg_path))
    for idx, field in enumerate(fields):
        assert (out / f"field-{idx:03d}.txt").read_bytes() == field_oracle(field).encode()
    assert len(list(out.glob("field-*.txt"))) == 3
    assert not list(out.glob("markov-*"))  # no operator file
    # the coverage outputs are not recomputed here: their read-back values
    # must come out as the same text
    expected = out / "coverage-expected.txt"
    assert expected.read_bytes() == field_oracle(load_field(expected)).encode()
    assert sorted(p.name for p in out.glob("coverage-*.txt")) == [
        "coverage-expected.txt",
        "coverage-sensors.txt",
    ]
    table = (out / "coverage-sensors.txt").read_text()
    placed = len(json.loads((out / "plan.json").read_text())["sensors"])
    head = ["# pfsensor-coverage v1", f"42 {placed}"]
    assert table.splitlines()[:2] == head
    rows = np.loadtxt(table.splitlines()[2:], ndmin=2)
    states, ranks = rows[:, 0].astype(np.intp), rows[:, 1].astype(np.intp)
    assert np.all(np.diff(ranks * 42 + states) > 0)  # sorted by rank, then state
    assert set(ranks.tolist()) == set(range(1, placed + 1))
    assert table == oracle_text(head, (states, ranks, rows[:, 2]))


def test_whitespace_lines_keep_real_line_numbers(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text(f"{FIELD_MAGIC}\n  \n2 1 1\n\t\n1 1 1\n0 0 0\n \n0.1 0 0\n1 2\n")
    with pytest.raises(FieldFormatError, match=r"f\.txt:9: not 'u v w'"):
        load_field(path)


@pytest.mark.parametrize("loader, magic, error", LOADERS)
@pytest.mark.parametrize("body", ["", "\n  \n\t\n"])
def test_magic_only_file_raises_loader_error(tmp_path, loader, magic, error, body):
    path = tmp_path / "t.txt"
    path.write_text(f"{magic}\n{body}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match="truncated header"):
            loader(path)


def assert_returns_or_raises(error, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call()
        except error:
            pass


SMALL = st.integers(0, 3).map(str) | st.floats(-1.0, 2.0).map(repr)
NUMBER = st.one_of(
    SMALL,
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "1e400", "0x1", "1_0", "x", "#"]),
)
ROW = st.lists(NUMBER, max_size=4).map(" ".join)
GOOD_ROW = st.lists(SMALL, min_size=3, max_size=3).map(" ".join)
LINE = st.one_of(GOOD_ROW, ROW, st.text(max_size=20), st.sampled_from(["", " \t", "\x0c"]))


@FUZZ
@given(magic=st.booleans(), body=st.lists(LINE, max_size=12))
def test_fuzz_table_loaders(tmp_path, magic, body):
    path = tmp_path / "t.txt"
    path.write_text("\n".join([FIELD_MAGIC] * magic + body) + "\n", encoding="utf-8")
    assert_returns_or_raises(FieldFormatError, lambda: load_field(path))


KEYS = st.sampled_from(
    ["dims", "spacing", "origin", "dt", "steps", "family", "distribution", "cdf_points",
     "field", "eps_acc", "sensors", "min_coverage", "forbidden_box", "outlets", "workers", "x"]
)
NUMBERS = st.lists(SMALL, min_size=1, max_size=6).map(" ".join)
VALUE = st.one_of(
    NUMBERS, ROW, st.text(max_size=15), ROW.map("gaussian {}".format), ROW.map("f.txt {}".format)
)


@FUZZ
@given(lines=st.lists(st.tuples(KEYS, VALUE).map(" = ".join), max_size=10), last=st.text())
@example(lines=["distribution = gaussian abc 1"], last="")
def test_fuzz_parse_config(tmp_path, lines, last):
    # arbitrary text goes last: a line without '=' stops the parse
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines + [last]) + "\n", encoding="utf-8")
    assert_returns_or_raises(ConfigError, lambda: parse_config(path).validate())

