"""The shared artifact writer and table reader, and fuzzed loaders."""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from pfsensor.config import ConfigError, parse_config
from pfsensor.flowfield import (
    FIELD_MAGIC,
    WRITE_BLOCK,
    FieldFormatError,
    load_field,
    write_artifact,
)
from pfsensor.markov import MarkovMatrix, save_markov

LOADERS = [(load_field, FIELD_MAGIC, FieldFormatError)]

FUZZ = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def test_failed_write_leaves_previous_file(tmp_path):
    target = tmp_path / "a.txt"
    write_artifact(target, ["old"])
    before = target.read_bytes()
    # the first block is written before the second one fails to format
    column = np.array([0.5] * WRITE_BLOCK + ["x"], dtype=object)
    with pytest.raises(ValueError):
        write_artifact(target, ["new"], (column,), "{:.3f}\n")
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


def test_write_streams_rows_across_blocks(tmp_path):
    target = tmp_path / "sub" / "t.txt"
    n = 2 * WRITE_BLOCK + 3
    write_artifact(target, ["# head", "x"], (np.arange(n), np.arange(n) / 4), "{} {!r}\n")
    lines = target.read_text().splitlines()
    assert lines[:2] == ["# head", "x"]
    assert lines[2:] == [f"{i} {i / 4!r}" for i in range(n)]


def test_save_markov_refuses_non_stochastic_operator(tmp_path):
    op = MarkovMatrix(sparse.csr_array(np.array([[0.5, 0.4], [0.0, 1.0]])), dt=1.0)
    with pytest.raises(ValueError, match="row sums"):
        save_markov(tmp_path / "m.txt", op)
    assert not any(tmp_path.iterdir())


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

