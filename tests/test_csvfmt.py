"""The profile CSV formatter prints every float64 exactly as '%.17g' does."""

import numpy as np
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
