"""The profile CSV formatter prints every float64 exactly as '%.17g' does."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singular_forge import _csvfmt
from singular_forge._csvfmt import format_rows


def _expected(block):
    return "".join(
        ",".join(format(v + 0.0, ".17g") for v in row) + "\n"
        for row in block.tolist()
    ).encode("ascii")


def _check(values, cols):
    values = np.asarray(values, dtype=np.float64)
    values = np.resize(values, -(-values.size // cols) * cols)
    block = values.reshape(-1, cols) + 0.0
    assert format_rows(block) == _expected(block)


@st.composite
def _blocks(draw, elements):
    cols = draw(st.integers(1, 10))
    values = draw(st.lists(elements, min_size=1, max_size=200))
    return values, cols


def _special_values():
    powers = 10.0 ** np.arange(-300, 301).astype(np.float64)
    switches = np.concatenate([
        np.array([1e-5, 1e-4, 1e16, 1e17]) * f
        for f in (1.0, 0.5, 0.99999999999999995, 0.9999999999999999,
                  1.0000000000000001, 9.9999999999999995, 9.99999999999999)
    ])
    edges = np.array([
        2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, 2.0 ** 53 + 1,
        5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308,
        np.finfo(np.float64).max, 1e-280, 1e290, 0.1, 0.5, 1.0 / 3.0,
        0.0, -0.0, np.nan, np.inf, -np.inf,
        # exact ties at 17 digits, rounded half to even: down, up, down, up
        123456789012345.625, 123456789012345.375, 101 / 2 ** 22,
        103 / 2 ** 22,
    ])
    base = np.concatenate([powers, switches, edges])
    with np.errstate(over="ignore"):  # the largest double steps to inf
        up = np.nextafter(base, np.inf)
    values = np.concatenate([base, np.nextafter(base, 0.0), up])
    return np.concatenate([values, -values])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_blocks(st.integers(0, 2 ** 64 - 1)))
def test_format_rows_random_bit_patterns(case):
    bits, cols = case
    _check(np.array(bits, dtype=np.uint64).view(np.float64), cols)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_blocks(st.floats()))
def test_format_rows_random_floats(case):
    values, cols = case
    _check(values, cols)


@st.composite
def _ordered_blocks(draw):
    """A folded block and an order that repeats any of its columns but the
    last, which ends it."""
    cols = draw(st.integers(1, 8))
    rows = draw(st.integers(1, 30))
    bits = st.integers(0, 2 ** 64 - 1).map(
        lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))
    values = draw(st.lists(st.floats() | bits, min_size=rows * cols,
                           max_size=rows * cols))
    head = draw(st.lists(st.integers(0, max(cols - 2, 0)), max_size=12)) \
        if cols > 1 else []
    block = np.array(values, dtype=np.float64).reshape(rows, cols) + 0.0
    return block, head + [cols - 1]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_ordered_blocks())
def test_format_rows_order_repeats_columns(case):
    block, order = case
    assert format_rows(block, order) == _expected(block[:, order])


def _mixed_values(n, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    special = _special_values()
    values[rng.permutation(n)[:n // 8]] = rng.choice(special, n // 8)
    return values + 0.0


@pytest.mark.parametrize("n", [_csvfmt._GATHER + 1, 2 * _csvfmt._GATHER + 1])
def test_format_rows_across_gather_chunks(n):
    # 1025 and 2049 values: one and two full gathers, then a single value
    block = _mixed_values(n, n).reshape(n, 1)
    assert format_rows(block) == _expected(block)
    assert format_rows(block, [0]) == _expected(block)
    wide = _mixed_values(3 * n, n + 1).reshape(n, 3)
    order = [1, 0, 1, 0, 2]
    assert format_rows(wide, order) == _expected(wide[:, order])


@pytest.mark.parametrize("order", [[0, 1], [2, 0, 2], [0, 1, 2, 2]])
def test_format_rows_order_must_end_with_the_last_column_alone(order):
    # the row's newline is laid out with the block's last column
    block = np.ones((2, 3))
    with pytest.raises(ValueError):
        format_rows(block, order)


def test_format_rows_powers_of_ten_notation_switches_and_edges():
    values = _special_values()
    for cols in (1, 7, 10):
        _check(values, cols)


def test_format_rows_python_fallback_for_every_value(monkeypatch):
    # a tie window wider than any fraction sends every value to '%.17g' %
    monkeypatch.setattr(_csvfmt, "_TIE", 1.0)
    rng = np.random.default_rng(3)
    values = np.concatenate([
        _special_values(),
        rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500),
    ])
    _check(values, 10)
