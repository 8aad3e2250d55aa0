"""Cumulative tail quadrature behind F for the quadrature-defined families:
50-digit mpmath references, F^{-1} roundtrips and the helper's edge cases."""

import functools
import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from singular_forge import (
    Generic,
    PowerExpLog,
    PowerSumLog,
    QuadratureError,
    build_context,
    classify,
)
from singular_forge._special import tail_integrals


def _mp_tail(integrand, a):
    """int_a^inf integrand(u) du at 50 digits, split where it bends."""
    a = mp.mpf(a)
    return mp.quad(integrand, [a, 2 * a, 10 * a, 100 * a, 1e4 * a, mp.inf])


def _F_power_exp_log(s):
    # in y = log u: int_{log s}^inf exp(-y - sqrt(y)) dy, y^(1/2) singular at 0
    x = mp.log(mp.mpf(s))
    return mp.quad(lambda y: mp.exp(-y - mp.sqrt(y)),
                   [x, x + 1, x + 4, x + 16, x + 64, mp.inf])


def _F_power_sum_log(s):
    return _mp_tail(lambda u: 1 / (u ** 2 + u * mp.log(u)), s)


def _F_generic_sum(s):
    return _mp_tail(lambda u: 1 / (u ** 2 + u ** mp.mpf(1.5)), s)


GENERIC_SUM = Generic(
    lambda u: u ** 2 + u ** 1.5,
    lambda u: 2.0 * u + 1.5 * u ** 0.5,
    lambda u: 2.0 + 0.75 * u ** -0.5,
    s_min=0.0,
    qf=2.0,
)

CASES = [
    (PowerExpLog(2.0, 0.5), _F_power_exp_log, 1.0),
    (PowerSumLog(2.0, 1.0, 1.0), _F_power_sum_log, 2.0),
    (GENERIC_SUM, _F_generic_sum, 1e-3),
]
IDS = ["power_exp_log", "power_sum_log", "generic_sum"]


def _points(bottom):
    """From just above the bottom of the range to s = 1e12."""
    return np.concatenate([bottom * (1.0 + np.array([1e-9, 1e-6, 1e-3])),
                           np.geomspace(1.01 * bottom, 1e12, 20)])


@functools.lru_cache(maxsize=None)
def _reference(ref, bottom):
    """The points of _points(bottom) and F at each to 50 digits."""
    s = _points(bottom)
    with mp.workdps(50):
        return s, np.array([float(ref(v)) for v in s])


@pytest.mark.parametrize("nl,ref,bottom", CASES, ids=IDS)
def test_batched_F_matches_50_digit_reference(nl, ref, bottom):
    s, expected = _reference(ref, bottom)
    assert_allclose(nl.F(s), expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("nl,ref,bottom", CASES, ids=IDS)
def test_F_inverse_roundtrip_against_50_digit_reference(nl, ref, bottom):
    s, sigma = _reference(ref, bottom)
    assert_allclose(nl.F_inv(sigma), s, rtol=1e-12, atol=0.0)
    for v, sig in zip(s[::8], sigma[::8]):
        assert_allclose(nl.F_inv(sig), v, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("nl,ref,bottom", CASES[:2], ids=IDS[:2])
def test_point_near_s_min(nl, ref, bottom):
    s = np.array([nl.s_min * (1.0 + 1e-12), 1.5 * nl.s_min, 10.0])
    with mp.workdps(50):
        expected = [float(ref(v)) for v in s]
    assert_allclose(nl.F(s), expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("nl,ref,bottom", CASES, ids=IDS)
def test_scalar_and_single_point_calls(nl, ref, bottom):
    v = 7.5
    scalar = nl.F(v)
    assert np.ndim(scalar) == 0
    assert nl.F(np.float64(v)) == scalar
    one = nl.F(np.array([v]))
    assert one.shape == (1,)
    assert one[0] == scalar


@pytest.mark.parametrize("nl,ref,bottom", CASES, ids=IDS)
def test_point_alone_agrees_with_batch(nl, ref, bottom):
    s = _points(bottom)
    batch = nl.F(s)
    for i in range(0, s.size, 4):
        alone = nl.F(s[i])
        assert abs(batch[i] / alone - 1.0) <= 1e-13


@pytest.mark.parametrize("nl,ref,bottom", CASES, ids=IDS)
def test_shape_order_and_duplicates(nl, ref, bottom):
    rng = np.random.default_rng(3)
    s = np.geomspace(2.5, 1e9, 12)
    flat = nl.F(s)
    grid = nl.F(s.reshape(3, 4))
    assert grid.shape == (3, 4)
    assert np.array_equal(grid.ravel(), flat)
    perm = rng.permutation(s.size)
    assert np.array_equal(nl.F(s[perm]), flat[perm])
    dup = np.repeat(s[[2, 7]], 3)
    vals = nl.F(dup)
    assert np.all(vals[:3] == vals[0]) and np.all(vals[3:] == vals[3])
    assert_allclose(vals[[0, 3]], flat[[2, 7]], rtol=1e-14, atol=0.0)
    assert nl.F(np.array([])).shape == (0,)


def test_helper_scalar_is_the_tail_quad_alone():
    calls = []

    def tail(s):
        calls.append(s)
        return 0.5

    out = tail_integrals(np.float64(3.0), tail, np.ones_like,
                         lambda y: 2.0 * y, 0.0)
    assert out == 0.5 and calls == [3.0]


def test_helper_closed_form_and_single_tail_quad():
    # J(x) = int_x^inf e^{x-y} e^{-y} dy = e^{-x}/2: a weight e^{-y}, psi = y
    calls = []

    def tail(s):
        calls.append(s)
        return 0.5 / s

    s = np.geomspace(1e-3, 1e5, 200)
    out = tail_integrals(s, tail, lambda y: np.exp(-y), lambda y: y, 0.0)
    assert_allclose(out, 0.5 / s, rtol=1e-14, atol=0.0)
    assert calls == [s[-1]]


def test_helper_raises_when_a_panel_never_converges():
    # an inverse square-root singularity inside a panel: eight bisections
    # never bring the 16- and 8-point values together
    def weight(y):
        return 1.0 / np.sqrt(np.abs(y - 1.3))

    with pytest.raises(QuadratureError):
        tail_integrals(np.array([1.0, 10.0]), lambda s: 1.0, weight, None,
                       0.0)


def test_divergent_generic_still_raises():
    nl = Generic(lambda u: u, lambda u: 1.0, lambda u: 0.0, qf=2.0)
    with pytest.raises(QuadratureError):
        nl.F(np.array([2.0, 5.0, 40.0]))
    with pytest.raises(QuadratureError):
        nl.F(3.0)


def test_F_inverse_converges_on_fine_grid():
    nl = PowerExpLog(2.0, 0.5)
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 3.0, 43.0, 16384)
    phi = ctx.phi
    sigma = np.exp(-2.0 * ctx.rho) / cls.b
    assert np.all(np.diff(phi) > 0.0)
    assert np.all(np.abs(nl.F(phi) - sigma) <= 1e-10 * sigma)
    assert math.isclose(float(nl.F(phi[-1])), sigma[-1], rel_tol=1e-12)
