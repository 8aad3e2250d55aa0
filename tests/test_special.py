"""hyp2f1_1c, upper_gamma and the Gauss-Legendre tables against 50-digit
mpmath values, and the continued fraction's batch/lone agreement.

Each BOUND is the largest relative error that scipy 1.17.1 made at the same
points (hyp2f1; gammaincc times exp(gammaln); exp1), rounded down to three
digits: these functions must be at least as accurate.
"""

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from singular_forge import DomainError
from singular_forge._special import (
    GL01_NODES,
    GL01_WEIGHTS,
    GL4_01_NODES,
    GL4_01_WEIGHTS,
    GL8_01_NODES,
    GL8_01_WEIGHTS,
    _upper_gamma_cf,
    hyp2f1_1c,
    upper_gamma,
)


def _max_rel_err(got, ref):
    """Largest |got - ref| / |ref|, exact in the reference's precision."""
    return max(float(abs(mp.mpf(float(g)) - r) / abs(r))
               for g, r in zip(got, ref))


def _mp_gauss_legendre_01(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1] at
    the working precision, ascending: Newton's method on P_n."""
    rule = []
    for i in range(n, 0, -1):
        x = mp.cos(mp.pi * (i - mp.mpf(0.25)) / (n + mp.mpf(0.5)))
        step = 1
        while abs(step) > mp.mpf(10) ** (2 - mp.mp.dps):
            p = mp.legendre(n, x)
            dp = n * (x * p - mp.legendre(n - 1, x)) / (x * x - 1)
            step = p / dp
            x -= step
        rule.append(((1 + x) / 2, 1 / ((1 - x * x) * dp * dp)))
    return rule


@pytest.mark.parametrize("nodes, weights", [
    (GL4_01_NODES, GL4_01_WEIGHTS),
    (GL8_01_NODES, GL8_01_WEIGHTS),
    (GL01_NODES, GL01_WEIGHTS),
], ids=["4", "8", "16"])
def test_gauss_legendre_tables_are_correctly_rounded(nodes, weights):
    # every node and weight within half an ulp of its 50-digit value
    with mp.workdps(50):
        ref = _mp_gauss_legendre_01(len(nodes))
        assert abs(sum(w for _, w in ref) - 1) < mp.mpf(10) ** -45
        for got, want in zip(np.concatenate([nodes, weights]),
                             [t for t, _ in ref] + [w for _, w in ref]):
            assert abs(mp.mpf(got) - want) <= mp.mpf(np.spacing(got)) / 2


# 1e-40 .. 1e12, four points a decade, and the switch at x = 1
HYP_X = np.concatenate([np.logspace(-40, 12, 209), np.linspace(0.5, 4.0, 15)])
HYP_BOUND = {
    1.0: 8e-07,
    15.0: 5.65e-16,
    14.999999999999988: 1.51e-15,  # the PowerSum(1.75, 1.7) cell's c
    10.0: 8.46e-16,
    9.999999999999991: 3.07e-15,  # the PowerSum(2, 1.9) cell's c
    0.6: 6.06e-16,
    2.5: 7.23e-16,
}


@pytest.mark.parametrize("c", list(HYP_BOUND), ids=repr)
def test_hyp2f1_1c_against_50_digit_reference(c):
    with mp.workdps(50):
        C = mp.mpf(c)
        ref = [mp.hyp2f1(1, C, C + 1, -mp.mpf(v)) for v in HYP_X]
        assert _max_rel_err(hyp2f1_1c(c, HYP_X), ref) <= HYP_BOUND[c]


@pytest.mark.parametrize("c", [0.1, 0.3, 0.45])
def test_hyp2f1_1c_reflection_branch(c):
    # c < 1/2 above x = 1: the reflection in 1/x, up to x = 1e300
    x = np.logspace(0.0, 300.0, 61)
    with mp.workdps(50):
        C = mp.mpf(c)
        ref = [mp.hyp2f1(1, C, C + 1, -mp.mpf(v)) for v in x]
        assert _max_rel_err(hyp2f1_1c(c, x), ref) <= 1e-15


def test_hyp2f1_1c_shapes_and_domain():
    assert hyp2f1_1c(2.5, 0.0) == 1.0
    assert hyp2f1_1c(15.0, np.inf) == 0.0
    x = np.array([[0.5, 2.0], [30.0, 1e-3]])
    out = hyp2f1_1c(0.6, x)
    assert out.shape == x.shape
    # a batch sums to the degree its largest x needs: lone points may
    # differ in rounding only
    lone = [hyp2f1_1c(0.6, v) for v in x.ravel()]
    assert_allclose(out.ravel(), lone, rtol=4 * np.finfo(float).eps, atol=0)
    with pytest.raises(DomainError):
        hyp2f1_1c(1.0, np.array([1.0, np.nan]))
    with pytest.raises(DomainError):
        hyp2f1_1c(1.0, -1.0)
    with pytest.raises(ValueError):
        hyp2f1_1c(0.0, 1.0)


GAMMA_X = np.logspace(-3, np.log10(700.0), 200)
GAMMA_BOUND = {
    0.0: 5.82e-16,
    0.25: 8.5e-14,
    0.5: 8.69e-14,
    1.0: 5.61e-14,
    2.3: 6.85e-14,
    7.5: 2.73e-14,
}


@pytest.mark.parametrize("a", list(GAMMA_BOUND))
def test_upper_gamma_against_50_digit_reference(a):
    with mp.workdps(50):
        ref = [mp.gammainc(mp.mpf(a), mp.mpf(v)) for v in GAMMA_X]
        assert _max_rel_err(upper_gamma(a, GAMMA_X), ref) <= GAMMA_BOUND[a]


@pytest.mark.parametrize("a", [0.51, 0.6, 0.75, 0.9, 0.99])
def test_upper_gamma_series_below_the_switch_for_orders_under_one(a):
    # 1/2 < a < 1 and x up to a + 1, where the series loses to the
    # cancellation in Gamma(a) - x^a e^-x sum: worst measured 6.7e-15
    # (a = 0.6 near x = 1.56), bound 1.5 times that
    x = np.linspace(0.05, a + 1.0, 400, endpoint=False)
    with mp.workdps(50):
        ref = [mp.gammainc(mp.mpf(a), mp.mpf(v)) for v in x]
        assert _max_rel_err(upper_gamma(a, x), ref) <= 1e-14


@pytest.mark.parametrize("a", [1e-9, 1e-5, -1e-5, -1.00001, -2.0 + 1e-7])
def test_upper_gamma_near_nonpositive_integer_orders(a):
    # no division by an order near 0: a recursion through one lost up to
    # nine digits here
    x = np.logspace(-3, 0, 40)
    with mp.workdps(50):
        ref = [mp.gammainc(mp.mpf(a), mp.mpf(v)) for v in x]
        assert _max_rel_err(upper_gamma(a, x), ref) <= 4e-15


@pytest.mark.parametrize("a", [0.0, 0.5, 2.3, -1.3])
def test_upper_gamma_cf_batch_matches_lone_points(a):
    # each point leaves the iteration when it converges, so x = 88 does not
    # run x = 4's terms, and a batch gives every point its lone value
    x = np.linspace(4.0, 88.0, 43)
    batch = _upper_gamma_cf(a, x)
    lone = np.array([_upper_gamma_cf(a, np.array([v]))[0] for v in x])
    assert np.all(np.abs(batch - lone) <= 4 * np.spacing(np.abs(lone)))
