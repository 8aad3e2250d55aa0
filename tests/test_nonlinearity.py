import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from singular_forge import (
    ConvergenceError,
    DomainError,
    Generic,
    NoLimitError,
    PowerExpLog,
    PowerLog,
    PowerSum,
    PowerSumLog,
    PurePower,
    build_context,
    classify,
    estimate_qf,
    eval_F,
    evaluate,
    from_spec,
)
from singular_forge._special import upper_gamma
from singular_forge.errors import ConfigError
from singular_forge.nonlinearity import FAMILIES, PARAMS, _invert_F

ALL_FAMILIES = [
    PurePower(2.0),
    PowerSum(2.0, 1.0),
    PowerSum(1.75, 1.0),
    PowerLog(2.0, 1.0),
    PowerExpLog(2.0, 0.5),
    PowerSumLog(2.0, 1.0, 1.0),
]


_P = st.floats(1.05, 6.0)
# (constructor, strategy of its arguments) for every built-in family, the
# arguments drawn within the constructor's hypotheses
_FAMILY_ARGS = {
    "power": (PurePower, st.tuples(_P)),
    "power_sum": (PowerSum, st.tuples(_P, st.floats(0.02, 0.98)).map(
        lambda pt: (pt[0], pt[0] * pt[1]))),
    "power_log": (PowerLog, st.tuples(_P, st.floats(-3.0, 3.0))),
    "power_exp_log": (PowerExpLog, st.tuples(_P, st.floats(0.05, 0.95))),
    "power_sum_log": (PowerSumLog, st.tuples(
        _P, st.floats(0.02, 0.98), st.floats(-3.0, 3.0)).map(
        lambda ptb: (ptb[0], ptb[0] * ptb[1], ptb[2]))),
}


@pytest.mark.parametrize("family", sorted(_FAMILY_ARGS))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_F_inv_round_trip_property(family, data, seed):
    # F(F_inv(F(s))) matches F(s) to _invert_F's own stop test, 1e-13
    # relative, on the whole batch; s itself is not compared, since for
    # power_sum with r < 1 F flattens as s -> 0 and s is ill-conditioned
    make, args = _FAMILY_ARGS[family]
    try:
        nl = make(*data.draw(args))
    except (ValueError, DomainError):
        assume(False)
    lo = max(1.01 * nl.s_min, 1e-6)
    rng = np.random.default_rng(seed)
    s = np.exp(rng.uniform(np.log(lo), np.log(1e12), 64))
    sigma = np.asarray(nl.F(s), dtype=float)
    back = np.asarray(nl.F(nl.F_inv(sigma)), dtype=float)
    assert np.all(np.abs(back - sigma) <= 1e-13 * sigma)


@pytest.mark.parametrize("nl, s", [
    # the pure-power seed lies near 1e154, where F underflows
    (PowerExpLog(1.0625, 0.875), 925830079104.6509),
    # order 1 - r of Gamma(1 - r, x) near -1, just above s_min
    (PowerLog(2.0, 2.00001), 2.1745888991396085),
    # w(s) >> 1, where s^(1-p) (1/(p-1) - R1) cancels
    (PowerSumLog(3.0530458555184232, 2.9811800324112365, 2.6212022585672576),
     3011.4358132215284),
])
def test_F_inv_round_trip_at_former_failures(nl, s):
    # each of these raised ConvergenceError after 100 F passes
    sigma = np.asarray(nl.F(np.array([s])), dtype=float)
    back = np.asarray(nl.F(nl.F_inv(sigma)), dtype=float)
    assert np.all(np.abs(back - sigma) <= 1e-13 * sigma)


def test_evaluate_pure_power():
    assert evaluate(PurePower(2.0), 3.0) == (9.0, 6.0, 2.0)


def test_evaluate_power_sum():
    f, f1, f2 = evaluate(PowerSum(2.0, 1.0), 3.0)
    assert (f, f1, f2) == (12.0, 7.0, 2.0)


def test_evaluate_power_log_at_e():
    # symbolic oracle: f = s^2 log s, f' = 2 s log s + s, f'' = 2 log s + 3
    f, f1, f2 = evaluate(PowerLog(2.0, 1.0), np.e)
    assert_allclose(f, np.e ** 2, rtol=1e-14)
    assert_allclose(f1, 3.0 * np.e, rtol=1e-14)
    assert_allclose(f2, 5.0, rtol=1e-14)


@pytest.mark.parametrize("nl", [PowerExpLog(2.0, 0.5), PowerSumLog(2.0, 1.0, 1.0)])
def test_derivatives_match_finite_differences(nl):
    # independent FD oracle for f' and f''
    for s in (3.0, 7.5, 40.0):
        h = 1e-5 * s
        fd1 = (nl.f(s + h) - nl.f(s - h)) / (2 * h)
        fd2 = (nl.f(s + h) - 2 * nl.f(s) + nl.f(s - h)) / (h * h)
        assert_allclose(nl.f1(s), fd1, rtol=1e-8)
        assert_allclose(nl.f2(s), fd2, rtol=1e-4)


# largest |f''(s) - ref| / max(|ref|, f(s)/s^2) measured at the points of
# the test below; each bound is that value times _F2_MARGIN.  The scale
# f(s)/s^2 holds the error relative where f'' crosses zero
# (power_exp_log 2,.5 does at log s = 0.085)
_F2_MARGIN = 1.2
F2_ORACLE_MEASURED = [
    (PowerExpLog(2.0, 0.5), 2.438e-15),
    (PowerExpLog(1.75, 0.3), 7.976e-16),
    (PowerLog(2.0, 1.0), 2.757e-16),
    (PowerLog(2.0, -1.0), 7.336e-16),
    (PowerSumLog(2.0, 1.0, 1.0), 1.183e-16),
]


@pytest.mark.parametrize("nl,measured", F2_ORACLE_MEASURED, ids=[
    "power_exp_log_2_0.5", "power_exp_log_1.75_0.3", "power_log_2_1",
    "power_log_2_-1", "power_sum_log_2_1_1"])
def test_f2_against_40_digit_reference(nl, measured):
    # 200 points, log s - log s_min geometric from 1e-6 to 110 - log s_min;
    # the reference differentiates the 40-digit f' in log s
    x0 = math.log(nl.s_min)
    s = np.exp(x0 + np.geomspace(1e-6, 110.0 - x0, 200))
    assert np.all(s > nl.s_min)
    with mp.workdps(40):
        f, f1, _ = _mp_family(nl)
        us = [mp.mpf(v) for v in s]
        ref = [mp.diff(lambda y: f1(u * mp.exp(y)), 0) / u for u in us]
        scale = [max(abs(r), f(u) / u ** 2) for r, u in zip(ref, us)]
        err = max(float(abs(mp.mpf(float(g)) - r) / c)
                  for g, r, c in zip(nl.f2(s), ref, scale))
    assert err <= measured * _F2_MARGIN


def test_domain_error_below_smin():
    with pytest.raises(DomainError):
        evaluate(PowerLog(2.0, 1.0), 1.5)
    with pytest.raises(DomainError):
        eval_F(PowerSumLog(2.0, 1.0, 0.5), 2.0)


def test_eval_F_closed_forms():
    assert_allclose(eval_F(PurePower(2.0), 4.0), 0.25, rtol=1e-15)
    assert_allclose(eval_F(PowerSum(2.0, 1.0), 1.0), np.log(2.0), rtol=1e-14)
    assert_allclose(
        eval_F(PowerSum(2.0, 1.0), 10.0), 0.09531017980432486, rtol=1e-13
    )


# frozen with mpmath quadrature of int_s^inf du/f(u)
F_ORACLES = [
    (PowerSum(1.75, 1.0), 10.0, 0.21822935239094997),
    (PowerLog(2.0, 1.0), 10.0, 0.032389789593291024),
    (PowerExpLog(2.0, 0.5), 10.0, 0.017000409715666406),
    (PowerSumLog(2.0, 1.0, 1.0), 10.0, 0.08797998076926755),
]


@pytest.mark.parametrize("nl,s,expected", F_ORACLES)
def test_eval_F_against_quadrature_oracle(nl, s, expected):
    assert_allclose(eval_F(nl, s), expected, rtol=1e-11)


@pytest.mark.parametrize("r", [1.0, 1.5, 2.3])
def test_power_log_F_against_40_digit_reference(r):
    # F = Gamma(1 - r, log s) for p = 2; log s in [21, 600] is the continued
    # fraction's range.  s = e^L keeps log s exact to rounding, so the
    # check measures the incomplete gamma itself.
    nl = PowerLog(2.0, r)
    s = np.exp(np.linspace(21.0, 600.0, 60))
    with mp.workdps(40):
        expected = [float(mp.gammainc(1.0 - r, mp.log(mp.mpf(v))))
                    for v in s]
    assert_allclose(nl.F(s), expected, rtol=4e-15, atol=0.0)


def _mp_power_sum_F(p, r, s):
    """PowerSum's F at the working precision: s^(1-p)/(p-1) 2F1(1, c; c+1;
    -s^(r-p)), c = (p-1)/(p-r) from the float p and r."""
    P, R = mp.mpf(p), mp.mpf(r)
    C = (P - 1) / (P - R)
    return (s ** (1 - P) / (P - 1)
            * mp.hyp2f1(1, C, C + 1, -s ** (R - P)))


def _max_rel_err(got, ref):
    """Largest |got - ref| / |ref| over paired values, at 50 digits."""
    with mp.workdps(50):
        return max(float(abs(mp.mpf(float(g)) - v) / abs(v))
                   for g, v in zip(got, ref))


# measured at most 3.95e-16 (at (2, 1.9); 1.4-3.3e-16 on the others), so
# the bound is 1.5x that
POWER_SUM_F_BOUND = 6e-16


@pytest.mark.parametrize("p,r", [(1.75, 1.0), (1.75, 1.7), (1.8, 1.0),
                                 (2.0, 1.0), (2.0, 1.9), (2.0, 0.5)])
def test_power_sum_F_against_50_digit_reference(p, r):
    s = np.logspace(-12, 300, 313)
    with mp.workdps(50):
        ref = [_mp_power_sum_F(p, r, mp.mpf(v)) for v in s]
    assert _max_rel_err(PowerSum(p, r).F(s), ref) <= POWER_SUM_F_BOUND


@pytest.mark.parametrize("p", [1.5, 1.75, 1.8, 2.0, 3.0])
def test_pure_power_F_against_50_digit_reference(p):
    # F = s^(1-p)/(p-1) over 200 decades; measured at most 1.74e-16 (at
    # p = 1.8), and the bound is twice that
    s = np.logspace(-100, 100, 201)
    with mp.workdps(50):
        P = mp.mpf(p)
        ref = [mp.mpf(v) ** (1 - P) / (P - 1) for v in s]
    assert _max_rel_err(PurePower(p).F(s), ref) <= 3.5e-16


@pytest.mark.parametrize("p,r", [
    (2.4632013295154604, 0.4338847720311839),
    (3.1803861840192464, 0.7324765890564015),
    (1.8, 0.9), (2.0, 0.5), (1.5, 0.99), (3.0, 0.1),
])
def test_power_sum_F_sup_against_50_digit_reference(p, r):
    # F_sup = pi/((p - r) sin(pi c)), c = (p-1)/(p-r): sin(pi c) near c = 1
    # lost up to 5.4e-15 (at (1.5, 0.99)); 1 - c = (1 - r)/(p - r) in its
    # place measures at most 2.04e-16 (at (1.8, 0.9)), bound 1.5x that
    with mp.workdps(50):
        P, R = mp.mpf(p), mp.mpf(r)
        ref = mp.pi / ((P - R) * mp.sin(mp.pi * (P - 1) / (P - R)))
    assert _max_rel_err([PowerSum(p, r).F_sup], [ref]) <= 3e-16


def test_power_sum_F_where_it_underflows():
    # s^(1-p) underflows to 0 at s = 1e100 for p = 5; no warning, F = 0
    F = PowerSum(5.0, 2.0).F(np.array([1e100, 1e10]))
    assert F[0] == 0.0
    assert_allclose(F[1], 2.5e-41, rtol=1e-14)


@pytest.mark.parametrize("p,r", [
    (2.4632013295154604, 0.4338847720311839),  # s^(r-p) overflowed to nan
    (3.1803861840192464, 0.7324765890564015),  # F rounded 2 ulp past F_sup
])
def test_power_sum_F_near_zero_stays_at_most_F_sup(p, r):
    nl = PowerSum(p, r)
    s = np.array([0.0, 1e-300, 1e-200, 1e-100, 1e-50, 1e-20])
    got = nl.F(s)
    assert got[0] == nl.F_sup
    assert np.all(got <= nl.F_sup)
    with mp.workdps(50):
        ref = [_mp_power_sum_F(p, r, mp.mpf(v)) for v in s[1:]]
    # measured 2.7e-16 and 1.7e-16 at these (p, r), F_sup's own rounding
    # included; the bound is 1.5x the larger
    assert _max_rel_err(got[1:], ref) <= 4e-16


def test_power_sum_F_near_zero_for_r_above_1_is_inf():
    # s^(1-p) and s^(r-p) both overflow: F has passed the largest float
    F = PowerSum(3.18, 1.5).F(np.array([0.0, 1e-300, 1e-10]))
    assert F[0] == F[1] == np.inf
    assert np.isfinite(F[2])


@pytest.mark.parametrize("p,r", [(1.75, 1.0), (1.75, 1.7)])
def test_power_sum_F_inverse_near_1e_minus_9(p, r):
    # F lost relative accuracy as s -> 0, so F_inv missed its 1e-13 stop
    nl = PowerSum(p, r)
    sigma = 0.999999999 * float(nl.F(1e-9))
    with mp.workdps(50):
        root = mp.findroot(
            lambda u: _mp_power_sum_F(p, r, u) - sigma, mp.mpf(1e-9),
            solver="newton", df=lambda u: -1 / (u ** p + u ** r), tol=1e-40,
            verify=False)
    assert abs(nl.F_inv(sigma) - float(root)) <= 1e-13 * float(root)


@pytest.mark.parametrize("a", [0.0, -0.5, -1.0, -1.3, -2.3, -3.7])
def test_upper_gamma_against_40_digit_reference(a):
    # x in [1, 21] is where lifting the order and recursing down cancels
    x = np.linspace(1.0, 21.0, 81)
    with mp.workdps(40):
        expected = [float(mp.gammainc(a, mp.mpf(v))) for v in x]
    assert_allclose(upper_gamma(a, x), expected, rtol=2e-14, atol=0.0)


@pytest.mark.parametrize("r", [1.5, 2.3])
def test_power_log_context_builds_from_rho0_3(r):
    # an inaccurate F kept Newton in F^{-1} from its 1e-13 stop here
    nl = PowerLog(2.0, r)
    ctx = build_context(nl, classify(nl, 5), 3.0, 43.0, 257)
    assert np.all(np.isfinite(ctx.phi))


GENERIC_SUM = Generic(lambda u: u * u + u, lambda u: 2.0 * u + 1.0,
                      lambda u: 2.0, qf=2.0)


@pytest.mark.parametrize(
    "nl", [PowerExpLog(2.0, 0.5), PowerSumLog(2.0, 1.0, 1.0), GENERIC_SUM],
    ids=["power_exp_log", "power_sum_log", "generic"],
)
@pytest.mark.parametrize("call", [
    lambda nl: eval_F(nl, np.inf),
    lambda nl: eval_F(nl, np.nan),
    lambda nl: nl.F(np.array([0.0, 2.0])),
    lambda nl: nl.F_inv(np.nan),
    lambda nl: nl.F_inv(1e-320),
], ids=["F_inf", "F_nan", "F_zero", "F_inv_nan", "F_inv_1e-320"])
def test_quadrature_families_raise_domain_error(nl, call):
    with pytest.raises(DomainError):
        call(nl)


@pytest.mark.parametrize("nl", ALL_FAMILIES)
def test_F_strictly_decreasing(nl):
    rng = np.random.default_rng(11)
    lo = nl.s_min + 0.25
    s = np.sort(lo + 10.0 ** rng.uniform(-1, 6, size=40))
    vals = np.array([float(eval_F(nl, v)) for v in s])
    assert np.all(np.diff(vals) < 0.0)


@pytest.mark.parametrize("nl", ALL_FAMILIES)
def test_roundtrip_invariant(nl):
    hi = float(nl.F(max(2.0 * nl.s_min, nl.s_min + 0.5)))
    sigmas = np.logspace(-8, np.log10(hi), 25)
    for sig in sigmas:
        s = nl.F_inv(sig)
        assert abs(float(nl.F(s)) - sig) <= 1e-10 * sig


def _count_F_passes(monkeypatch, nl):
    """A list whose length grows by one per call of type(nl).F."""
    nl.F_sup  # cached on first use; not part of any inversion
    calls, F = [], type(nl).F

    def counting(self, s):
        calls.append(None)
        return F(self, s)

    monkeypatch.setattr(type(nl), "F", counting)
    return calls


# F passes per inversion, measured: 3 (power_sum 1.8,1 and 1.75,1), 4
# (power_sum 1.75,1.7 and power_exp_log), 5 (power_log r = 1 and 2.3) and 3
# (power_sum_log) on the M = 4096 grids; 5-6 at worst on the roundtrip
# sigmas.  Each budget is the largest of these plus 2.
GRID_PASS_BUDGET = 7
ROUNDTRIP_PASS_BUDGET = 8


@pytest.mark.parametrize("nl", [
    PowerSum(1.8, 1.0), PowerSum(1.75, 1.0), PowerSum(1.75, 1.7),
    PowerLog(2.0, 1.0), PowerLog(2.0, 2.3), PowerExpLog(2.0, 0.5),
    PowerSumLog(2.0, 1.0, 1.0),
], ids=repr)
def test_F_inverse_pass_budget_on_a_4096_grid(monkeypatch, nl):
    # the sigmas build_context inverts at rho0 = 3, rho_max = 43, M = 4096
    sigma = np.exp(-2.0 * np.linspace(3.0, 43.0, 4096)) / classify(nl, 5).b
    calls = _count_F_passes(monkeypatch, nl)
    phi = nl.F_inv(sigma)
    assert len(calls) <= GRID_PASS_BUDGET
    assert np.all(np.abs(nl.F(phi) - sigma) <= 1e-10 * sigma)


@pytest.mark.parametrize("nl", ALL_FAMILIES[2:], ids=repr)  # no closed form
def test_F_inverse_pass_budget_on_roundtrip_sigmas(monkeypatch, nl):
    hi = float(nl.F(max(2.0 * nl.s_min, nl.s_min + 0.5)))
    calls = _count_F_passes(monkeypatch, nl)
    for sig in np.logspace(-8, np.log10(hi), 25):
        del calls[:]
        nl.F_inv(sig)
        assert len(calls) <= ROUNDTRIP_PASS_BUDGET, sig


def test_F_inverse_roundtrip_where_f_overflows():
    # the root is near 4e214, where f = s^1.81 + s overflows
    nl = PowerSum(1.81, 1.0)
    sigma = np.exp(-400.0) / classify(nl, 5).b
    s = nl.F_inv(sigma)
    with np.errstate(over="ignore"):
        assert np.isinf(nl.f(s))
    assert abs(float(nl.F(s)) - sigma) <= 1e-10 * sigma


def test_F_inverse_bisects_where_newton_misleads():
    # F is 3x that of s^1.5, so f F/s is 3x its log slope and Newton
    # overshoots; the bracket's geometric bisection carries the root.  Near
    # 1e200 the product of the bracket's ends overflows.
    class Misled(PurePower):
        def F(self, s):
            return 3.0 * super().F(s)

    nl = Misled(1.5)
    for root in (1e100, 1e200):
        assert_allclose(_invert_F(nl, nl.F(root)), root, rtol=1e-12)


def test_F_inverse_raises_once_the_bracket_collapses():
    # F jumps by 2e-11 relative across s0, so no float meets the 1e-13 stop
    # test at sigma = F(s0): the bracket closes on s0 within a few dozen
    # passes, and the inversion then raises at once with the residual
    # instead of re-evaluating F at the same float up to its pass cap
    s0 = 3011.0
    passes = []

    class Jump(PowerExpLog):
        def F(self, s):
            passes.append(1)
            jump = np.where(np.asarray(s) < s0, 1.0 + 1e-11, 1.0 - 1e-11)
            return np.asarray(super().F(s)) * jump

    sigma = float(PowerExpLog(2.0, 0.5).F(s0))
    with pytest.raises(ConvergenceError, match=r"collapsed at s = 30(10\.99"
                       r"|11\.0).*\|F - sigma\|/sigma = 1e-11 "):
        _invert_F(Jump(2.0, 0.5), sigma)
    assert len(passes) < 30


def _mp_F(f, s):
    """int_s^inf du/f(u), in y = log(u/s)."""
    return s * mp.quad(lambda y: mp.exp(y) / f(s * mp.exp(y)), [0, mp.inf])


@pytest.mark.parametrize("nl,f", [
    (PowerSum(1.75, 1.0), lambda u: u ** 1.75 + u),
    (PowerSum(1.75, 1.7), lambda u: u ** 1.75 + u ** 1.7),
    (PowerLog(2.0, 1.0), lambda u: u ** 2 * mp.log(u)),
    (PowerLog(2.0, 2.3), lambda u: u ** 2 * mp.log(u) ** 2.3),
], ids=["power_sum_1.75_1", "power_sum_1.75_1.7", "power_log_2_1",
        "power_log_2_2.3"])
def test_F_inverse_against_50_digit_reference(nl, f):
    # sigma = F(s) rounded to a float; the reference is the root of
    # F = sigma at 50 digits, by Newton (F' = -1/f) from s, where F is known
    bottom = max(nl.s_min, 1e-3)
    s = np.concatenate([bottom * (1.0 + np.array([1e-9, 1e-3])),
                        np.geomspace(1.01 * bottom, 1e12, 4)])
    sigma, expected = [], []
    with mp.workdps(50):
        F = functools.lru_cache(maxsize=None)(lambda u: _mp_F(f, u))
        for v in map(mp.mpf, s):
            sig = float(F(v))
            root = mp.findroot(lambda u: F(u) - sig, v, solver="newton",
                               df=lambda u: -1 / f(u), tol=1e-30,
                               verify=False)
            sigma.append(sig)
            expected.append(float(root))
    assert_allclose(nl.F_inv(np.array(sigma)), expected, rtol=1e-12, atol=0.0)


def test_F_inverse_closed_forms():
    assert_allclose(PurePower(2.0).F_inv(0.25), 4.0, rtol=1e-14)
    assert_allclose(PowerSum(2.0, 1.0).F_inv(np.log(2.0)), 1.0, rtol=1e-14)
    assert_allclose(
        PowerSum(2.0, 1.0).F_inv(0.5), 1.5414940825367983, rtol=1e-14
    )


def test_F_inverse_domain():
    nl = PowerSum(2.0, 0.5)  # r < 1: F bounded at 0+
    with pytest.raises(DomainError):
        nl.F_inv(nl.F_sup * 1.01)
    with pytest.raises(DomainError):
        nl.F_inv(-1.0)


def test_qf_exact_for_builtins():
    for nl in ALL_FAMILIES:
        est = estimate_qf(nl)
        assert est.converged
        assert_allclose(est.value, nl.p / (nl.p - 1.0), rtol=1e-15)


def test_qf_generic_sum():
    g = Generic(lambda s: s * s + s, lambda s: 2 * s + 1, lambda s: 2.0)
    est = estimate_qf(g)
    assert est.converged
    assert abs(est.value - 2.0) <= 1e-4
    assert len(est.history) == 7


def test_qf_no_limit():
    # f'(s)F(s) oscillates persistently in log s: no classification limit
    def f(s):
        return s ** 2 * np.exp(np.sin(np.log(s)))

    def f1(s):
        return f(s) * (2.0 + np.cos(np.log(s))) / s

    def f2(s):
        t = np.log(s)
        return f(s) * (
            (2.0 + np.cos(t)) * (1.0 + np.cos(t)) - np.sin(t)
        ) / s ** 2

    with pytest.raises(NoLimitError):
        estimate_qf(Generic(f, f1, f2, s_min=0.5))


def test_pure_power_deficits_vanish():
    # f'F = p/(p-1) = q_f and fF/s = 1/(p-1) exactly for s^p
    nl = PurePower(2.0)
    s = np.logspace(-3, 12, 16)
    assert (nl.qf, 1.0 / (nl.pf - 1.0)) == (2.0, 1.0)
    fpF, fF = nl.deficits(s)
    assert not np.any(fpF) and not np.any(fF)


def test_degenerate_leading_term_flag():
    # p - r = 1: the k = 1 coefficient of f'F - q_f vanishes, so the
    # forcing decays at the k = 2 rate (test_deficit_tail_tracks_asymptotics)
    assert PowerSum(2.0, 1.0).degenerate_leading_term
    assert not PowerSum(2.0, 1.5).degenerate_leading_term


@pytest.mark.parametrize(
    "nl",
    [
        PurePower(2.0),
        PowerSum(2.0, 1.0),
        PowerLog(2.0, 0.01),
        PowerExpLog(2.0, 0.01),
        PowerSumLog(2.0, 1.0, 1.0),
    ],
)
def test_limit_consistency_fF_over_s(nl):
    # f F / s -> 1/(p_f - 1), Cauchy on s = 10^k, within 1e-3 by s = 1e6.
    # The log families carry O(1/log s) corrections, so their parameters
    # here are small enough for the stated tolerance to be attainable.
    m1 = 1.0 / (nl.p - 1.0)
    vals = [float(nl.f(10.0 ** k) * nl.F(10.0 ** k) / 10.0 ** k)
            for k in range(2, 7)]
    diffs = np.abs(np.diff(vals))
    assert np.all(diffs[1:] <= diffs[:-1] * (1.0 + 1e-9) + 1e-15)
    assert abs(vals[-1] - m1) <= 1e-3


def _mp_family(nl):
    """(f, f', F) of nl at the working precision, from the float parameters
    the code uses; F by the 2F1 closed form for PowerSum, else by _mp_F."""
    p = mp.mpf(nl.p)
    if isinstance(nl, PowerSum):
        r = mp.mpf(nl.r)
        return (lambda u: u ** p + u ** r,
                lambda u: p * u ** (p - 1) + r * u ** (r - 1),
                lambda u: _mp_power_sum_F(nl.p, nl.r, u))
    if isinstance(nl, PowerLog):
        r = mp.mpf(nl.r)

        def f(u):
            return u ** p * mp.log(u) ** r

        def f1(u):
            return u ** (p - 1) * mp.log(u) ** (r - 1) * (p * mp.log(u) + r)
    elif isinstance(nl, PowerExpLog):
        r = mp.mpf(nl.r)

        def f(u):
            return u ** p * mp.exp(mp.log(u) ** r)

        def f1(u):
            return (u ** (p - 1) * mp.exp(mp.log(u) ** r)
                    * (p + r * mp.log(u) ** (r - 1)))
    else:
        r, b = mp.mpf(nl.r), mp.mpf(nl.log_exp)

        def f(u):
            return u ** p + u ** r * mp.log(u) ** b

        def f1(u):
            t = mp.log(u)
            return p * u ** (p - 1) + u ** (r - 1) * t ** (b - 1) * (r * t + b)
    return f, f1, lambda u: _mp_F(f, u)


# worst relative error measured on these points (f'F - q_f, fF/s - 1/(p-1)):
# power_sum 2,1 9.2e-16, 1.0e-16; 1.75,1.7 6.4e-15, 3.8e-15; 2,0.5 2.3e-15,
# 7.1e-16; power_log 5.5e-14, 2.9e-14; power_exp_log 3.4e-14, 1.7e-14;
# power_sum_log 2.0e-14, 1.4e-15.  Each bound is twice the larger, rounded
# up.  power_log and power_exp_log subtract q_f from f'F directly, and
# their deficits fall only like a power of 1/log s, so up to two digits
# cancel on this range.
DEFICIT_ORACLE_BOUND = [
    (PowerSum(2.0, 1.0), 2e-15),
    (PowerSum(1.75, 1.7), 1.3e-14),
    (PowerSum(2.0, 0.5), 5e-15),
    (PowerLog(2.0, 1.0), 1.2e-13),
    (PowerExpLog(2.0, 0.5), 7e-14),
    (PowerSumLog(2.0, 1.0, 1.0), 5e-14),
]


@pytest.mark.parametrize("nl,bound", DEFICIT_ORACLE_BOUND, ids=[
    "power_sum_2_1", "power_sum_1.75_1.7", "power_sum_2_0.5", "power_log_2_1",
    "power_exp_log_2_0.5", "power_sum_log_2_1_1"])
def test_deficits_against_50_digit_reference(nl, bound):
    # seven points from just above s_min (0.5 where s_min = 0) to 1e12; the
    # reference subtracts q_f and 1/(p_f - 1) from f'F and fF/s at 50 digits
    lo = nl.s_min * (1.0 + 1e-3) if nl.s_min > 0.0 else 0.5
    s = np.geomspace(lo, 1e12, 7)
    with mp.workdps(50):
        f, f1, F = _mp_family(nl)
        q = mp.mpf(nl.p) / (mp.mpf(nl.p) - 1)
        us = [mp.mpf(v) for v in s]
        ref_fpF = [f1(u) * F(u) - q for u in us]
        ref_fF = [f(u) * F(u) / u - 1 / (q / (q - 1) - 1) for u in us]
    fpF, fF = nl.deficits(s)
    assert _max_rel_err(fpF, ref_fpF) <= bound
    assert _max_rel_err(fF, ref_fF) <= bound


def _mp_deficit_series(p, r, s, fpF):
    """sum_{k>=1} (-1)^(k-1) coef(k) s^(-k(p-r)) at 50 digits, 1200 terms
    (below 1e-80 of the sum at x = 0.85), with the coefficients of
    PowerSum._coef_fpF or _coef_fF in exact p and r."""
    with mp.workdps(50):
        p, r = mp.mpf(p), mp.mpf(r)
        d = p - r
        x = mp.mpf(s) ** (r - p)
        total, xk = mp.mpf(0), mp.mpf(1)
        for k in range(1, 1200):
            xk *= x
            c = d / ((p - 1 + k * d) * (p - 1 + (k - 1) * d))
            total += (-1) ** (k - 1) * (c * (1 - k * d) if fpF else c) * xk
        return total


# measured at most 2.7e-16 (1.75, 1.7; fF); the bound is about twice that
DEFICIT_SERIES_BOUND = 6e-16


@pytest.mark.parametrize("p,r", [(2.0, 1.0), (1.75, 1.7), (2.0, 0.5),
                                 (2.0, 1.9), (3.0, 2.0)])
def test_deficit_series_against_50_digit_sums(p, r):
    # one call from the series' threshold, where x = s^(r-p) is largest
    # (0.85 or 2^(r-p)) and sets the Horner degree, to s = 1e8 times it;
    # p - r = 1 has coef_fpF(1) = 0
    nl = PowerSum(p, r)
    s = nl._s_series * np.array([1.0, 1.01, 1.5, 10.0, 1e3, 1e8])
    for fpF, coef in ((True, nl._coef_fpF), (False, nl._coef_fF)):
        ref = [_mp_deficit_series(p, r, v, fpF) for v in s]
        assert _max_rel_err(nl._deficit_series(s, coef), ref) \
            <= DEFICIT_SERIES_BOUND


def test_deficits_match_direct_in_safe_range():
    # below the cancellation threshold the direct formulas are exact oracles
    for nl in [PowerSum(1.75, 1.0), PowerSumLog(2.0, 1.0, 1.0)]:
        s = np.array([nl.s_min + 1.5, 10.0, 50.0])
        direct_fpF = nl.f1(s) * nl.F(s) - nl.qf
        direct_fF = nl.f(s) * nl.F(s) / s - 1.0 / (nl.p - 1.0)
        fpF, fF = nl.deficits(s)
        assert_allclose(fpF, direct_fpF, rtol=2e-9, atol=1e-13)
        assert_allclose(fF, direct_fF, rtol=2e-9, atol=1e-13)


def test_deficit_tail_tracks_asymptotics():
    # degenerate sum family: f'F - q_f ~ 1/(6 s^2) far beyond the float64
    # cancellation floor of the direct subtraction
    nl = PowerSum(2.0, 1.0)
    for s in (1e8, 1e15):
        assert_allclose(float(nl.deficits(s)[0]), 1.0 / (6.0 * s * s),
                        rtol=1e-6)


def test_from_spec_roundtrip():
    nl = from_spec({"family": "power_sum", "p": 2.0, "r": 1.0})
    assert isinstance(nl, PowerSum)
    assert nl.spec() == {"family": "power_sum", "p": 2.0, "r": 1.0}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_from_spec_round_trips_every_family_and_checks_its_parameters(name):
    nl = next(n for n in ALL_FAMILIES if n.name == name)
    spec = nl.spec()
    back = from_spec(spec)
    assert type(back) is FAMILIES[name]
    assert back.spec() == spec and repr(back) == repr(nl)
    unread = [k for k in PARAMS if k not in FAMILIES[name].params]
    for key in unread:
        with pytest.raises(ConfigError,
                           match=f"^{key}: family '{name}' does not read"):
            from_spec({**spec, key: 1.0})
        # a None value counts as unset
        assert from_spec({**spec, key: None}).spec() == spec
    for key in FAMILIES[name].params:
        with pytest.raises(ConfigError, match=f"^{key}: required for"):
            from_spec({k: v for k, v in spec.items() if k != key})


def test_powerlog_smin_guards_f_prime_positivity():
    nl = PowerLog(2.0, -3.0)  # f' changes sign at s = e^{3/2} > 2
    assert nl.s_min > 2.0
    s = nl.s_min * 1.001
    assert nl.f1(s) > 0.0
