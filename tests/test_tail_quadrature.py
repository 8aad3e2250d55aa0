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
from singular_forge._special import _PANEL_WIDTH, _panel_edges, tail_integrals


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


def test_helper_scalar_is_a_batch_of_one():
    weight, psi = np.ones_like, lambda y: 2.0 * y
    out = tail_integrals(np.float64(3.0), weight, psi, 0.0)
    assert np.ndim(out) == 0
    assert out == tail_integrals(np.array([3.0]), weight, psi, 0.0)[0]
    assert_allclose(out, 0.5, rtol=1e-15, atol=0.0)


def test_helper_closed_form():
    # J(x) = int_x^inf e^{x-y} e^{-y} dy = e^{-x}/2: a weight e^{-y}, psi = y
    s = np.geomspace(1e-3, 1e5, 200)
    out = tail_integrals(s, lambda y: np.exp(-y), lambda y: y, 0.0)
    assert_allclose(out, 0.5 / s, rtol=1e-14, atol=0.0)


def test_helper_closes_a_slow_tail_by_doubling():
    # J(x) = int_x^inf e^{-0.2 y} dy = 5 e^{-0.2 x}: the first closing
    # stretch leaves e^{-0.2 * 64} of the tail, so the sentinel doubles
    s = np.array([0.5, 3.0, 1e10])
    out = tail_integrals(s, lambda y: np.exp(-0.2 * y), None, 0.0)
    assert_allclose(out, 5.0 * s ** -0.2, rtol=1e-14, atol=0.0)


def test_helper_reads_no_weight_as_one():
    s = np.geomspace(1.5, 1e8, 50)
    psi = PowerExpLog(2.0, 0.5)._psi
    assert np.array_equal(tail_integrals(s, None, psi, 1.0),
                          tail_integrals(s, np.ones_like, psi, 1.0))


def _check_panel_edges(x, x_min):
    """_panel_edges(x, x_min) holds every point, ascends, and has pieces at
    most _PANEL_WIDTH wide whose distances to x_min grow by at most 2 (the
    ulp allowances are the rounding of the cuts)."""
    edges = _panel_edges(x, x_min)
    assert np.all(np.isin(x, edges))
    assert edges[0] == x[0] and edges[-1] == x[-1]
    assert np.all(np.diff(edges) > 0.0)
    assert np.all(np.diff(edges) <= _PANEL_WIDTH * (1.0 + 1e-15))
    d = edges - x_min
    assert np.all(d[1:] / d[:-1] <= 2.0 * (1.0 + 1e-15))
    return edges


def test_panel_edges_on_a_grid_that_needs_no_graded_cut():
    # power_exp_log's grid in log u (x_min = 0) with tail_integrals' first
    # sentinel above it: each gap's distance ratio is at most 2, so the
    # edges are the width cuts alone, those of an ungraded batch
    nl = PowerExpLog(2.0, 0.5)
    ctx = build_context(nl, classify(nl, 5), 3.0, 58.0, 192)
    x = np.log(ctx.phi)
    x = np.append(x, x[-1] + 64.0)
    assert np.all(x[1:] / x[:-1] <= 2.0)
    edges = _check_panel_edges(x, 0.0)
    assert np.array_equal(edges, _panel_edges(x, -math.inf))


def test_panel_edges_grade_points_crowded_near_s_min():
    # nine gaps of distance ratio 10 near x_min = log 2 take four graded
    # pieces each; above distance 1 the gaps of ratio 2.5 and 3.6 take two
    # each, and the two pieces above distance 2.5 take 2 and 4 width cuts
    x_min = math.log(2.0)
    x = x_min + np.concatenate([np.geomspace(1e-9, 1.0, 10), [2.5, 9.0]])
    edges = _check_panel_edges(x, x_min)
    assert_allclose(edges[:37], x_min + np.geomspace(1e-9, 1.0, 37),
                    rtol=0.0, atol=4e-16)
    assert edges.size == 37 + 4 + 2 + 4


def test_helper_raises_on_a_tail_that_never_closes():
    # weight 1: the last panel stays 1/R of the tail however far R doubles
    with pytest.raises(QuadratureError):
        tail_integrals(np.array([1.0, 10.0]), np.ones_like, None, 0.0)


def test_helper_raises_when_a_panel_never_converges():
    # an inverse square-root singularity inside a panel: eight bisections
    # never bring the 16- and 8-point values together
    def weight(y):
        return 1.0 / np.sqrt(np.abs(y - 1.3))

    with pytest.raises(QuadratureError):
        tail_integrals(np.array([1.0, 10.0]), weight, None, 0.0)


def test_divergent_generic_still_raises():
    nl = Generic(lambda u: u, lambda u: 1.0, lambda u: 0.0, qf=2.0)
    with pytest.raises(QuadratureError):
        nl.F(np.array([2.0, 5.0, 40.0]))
    with pytest.raises(QuadratureError):
        nl.F(3.0)


@pytest.mark.parametrize("f", [lambda u: u ** 2 + u, lambda u: u * u + u],
                         ids=["power", "product"])
def test_generic_overflow_of_f_raises_quadrature_error(f):
    # u ** 2 raises OverflowError on a Python float and u * u gives inf;
    # either way f reads inf, and du/f(u) = 0 there must not pass for a tail
    nl = Generic(f, lambda u: 2.0 * u + 1.0, lambda u: 2.0, qf=2.0)
    with np.errstate(over="ignore"):
        assert nl.f(1e200) == math.inf
    with pytest.raises(QuadratureError):
        nl.F(1e200)
    with pytest.raises(QuadratureError):
        nl.F_inv(1e-300)
    # below the overflow F = log1p(1/s)
    assert_allclose(nl.F(1e100), 1e-100, rtol=1e-13, atol=0.0)
    assert_allclose(nl.F_inv(1e-100), 1e100, rtol=1e-13, atol=0.0)


def test_F_inverse_converges_on_fine_grid():
    nl = PowerExpLog(2.0, 0.5)
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 3.0, 43.0, 16384)
    phi = ctx.phi
    sigma = np.exp(-2.0 * ctx.rho) / cls.b
    assert np.all(np.diff(phi) > 0.0)
    assert np.all(np.abs(nl.F(phi) - sigma) <= 1e-10 * sigma)
    assert math.isclose(float(nl.F(phi[-1])), sigma[-1], rel_tol=1e-12)


def test_scalar_power_exp_log_near_4p5e17_matches_40_digit_reference():
    # the band where an adaptive quad of the tail was off by 1.7e-13
    nl = PowerExpLog(2.0, 0.5)
    s = np.exp(np.linspace(40.0, 41.5, 31))
    with mp.workdps(40):
        expected = np.array([float(_F_power_exp_log(v)) for v in s])
    alone = np.array([nl.F(v) for v in s])
    assert_allclose(alone, expected, rtol=1e-14, atol=0.0)
    assert_allclose(alone, nl.F(s), rtol=1e-14, atol=0.0)


def test_generic_matches_closed_form():
    # int_s^inf du/(u^1.3 + u) = log1p(s^-0.3)/0.3
    nl = Generic(lambda u: u ** 1.3 + u, lambda u: 1.3 * u ** 0.3 + 1.0,
                 lambda u: 0.39 * u ** -0.7, qf=1.3 / 0.3)
    s = np.geomspace(2.0, 1e60, 41)
    expected = np.log1p(s ** -0.3) / 0.3
    assert_allclose(nl.F(s), expected, rtol=1e-14, atol=0.0)
    for v, e in zip(s[::10], expected[::10]):
        assert_allclose(nl.F(v), e, rtol=1e-14, atol=0.0)


def test_F_sup_power_exp_log_matches_F_at_s_min():
    # F(1+) = int_0^inf exp(-y - sqrt(y)) dy
    nl = PowerExpLog(2.0, 0.5)
    with mp.workdps(40):
        expected = float(_F_power_exp_log(1.0))
    assert_allclose(nl.F_sup, expected, rtol=1e-12, atol=0.0)
