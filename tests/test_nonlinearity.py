import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from singular_forge import (
    DomainError,
    Generic,
    NoLimitError,
    PowerExpLog,
    PowerLog,
    PowerSum,
    PowerSumLog,
    PurePower,
    UnsupportedFamilyError,
    build_context,
    classify,
    estimate_qf,
    eval_F,
    eval_F_inverse,
    evaluate,
    from_spec,
    series_diagnostics,
)
from singular_forge._special import upper_gamma

ALL_FAMILIES = [
    PurePower(2.0),
    PowerSum(2.0, 1.0),
    PowerSum(1.75, 1.0),
    PowerLog(2.0, 1.0),
    PowerExpLog(2.0, 0.5),
    PowerSumLog(2.0, 1.0, 1.0),
]


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
        s = eval_F_inverse(nl, sig)
        assert abs(float(nl.F(s)) - sig) <= 1e-10 * sig


def test_F_inverse_closed_forms():
    assert_allclose(eval_F_inverse(PurePower(2.0), 0.25), 4.0, rtol=1e-14)
    assert_allclose(
        eval_F_inverse(PowerSum(2.0, 1.0), np.log(2.0)), 1.0, rtol=1e-14
    )
    assert_allclose(
        eval_F_inverse(PowerSum(2.0, 1.0), 0.5),
        1.5414940825367983,
        rtol=1e-14,
    )


def test_F_inverse_domain():
    nl = PowerSum(2.0, 0.5)  # r < 1: F bounded at 0+
    with pytest.raises(DomainError):
        eval_F_inverse(nl, nl.F_sup * 1.01)
    with pytest.raises(DomainError):
        eval_F_inverse(nl, -1.0)


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


def test_series_diagnostics_power_sum():
    nl = PowerSum(2.0, 1.0)
    sd = series_diagnostics(nl, 100.0, 3)
    # degenerate: k=1 coefficient of f'F - q_f vanishes since p - r = 1,
    # leaving the k=2 term 1/(6 s^2)
    assert sd.degenerate_leading_term
    assert_allclose(sd.fpF_truncated - 2.0, 1.650000000008589e-05, rtol=1e-10)
    # coefficients 1/(k(k+1)): 1/2 s^-1 - 1/6 s^-2 + 1/12 s^-3
    assert_allclose(
        sd.fF_over_s_truncated - 1.0, 1.0 / 200 - 1.0 / 6e4 + 1.0 / 12e6,
        rtol=1e-9,
    )
    # truncation honest: |true - truncated| below twice the first omitted
    true_F = float(nl.F(100.0))
    assert abs(true_F - sd.F_truncated) <= 2.0 * sd.F_first_omitted
    assert not series_diagnostics(PowerSum(2.0, 1.5), 50.0, 2).degenerate_leading_term


def test_series_diagnostics_rejects_generic():
    g = Generic(lambda s: s * s, lambda s: 2 * s, lambda s: 2.0)
    with pytest.raises(UnsupportedFamilyError):
        series_diagnostics(g, 100.0, 2)


def test_series_diagnostics_pure_power_zero_corrections():
    sd = series_diagnostics(PurePower(2.0), 50.0, 4)
    assert sd.fpF_truncated == 2.0
    assert sd.fF_over_s_truncated == 1.0
    assert sd.F_first_omitted == 0.0


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


@pytest.mark.parametrize(
    "nl", [PowerSum(2.0, 1.0), PowerSum(1.75, 1.7), PowerLog(2.0, 1.0),
           PowerExpLog(2.0, 0.5), PowerSumLog(2.0, 1.0, 1.0)]
)
def test_series_vs_F_consistency(nl):
    for s in (100.0, 400.0):
        sd = series_diagnostics(nl, s, 2)
        true_F = float(nl.F(s))
        assert abs(true_F - sd.F_truncated) <= 2.0 * abs(sd.F_first_omitted)


def test_deficits_match_direct_in_safe_range():
    # below the cancellation threshold the direct formulas are exact oracles
    for nl in [PowerSum(1.75, 1.0), PowerSumLog(2.0, 1.0, 1.0)]:
        s = np.array([nl.s_min + 1.5, 10.0, 50.0])
        direct_fpF = nl.f1(s) * nl.F(s) - nl.qf
        direct_fF = nl.f(s) * nl.F(s) / s - 1.0 / (nl.p - 1.0)
        assert_allclose(nl.deficit_fpF(s), direct_fpF, rtol=2e-9, atol=1e-13)
        assert_allclose(nl.deficit_fF(s), direct_fF, rtol=2e-9, atol=1e-13)


def test_deficit_tail_tracks_asymptotics():
    # degenerate sum family: f'F - q_f ~ 1/(6 s^2) far beyond the float64
    # cancellation floor of the direct subtraction
    nl = PowerSum(2.0, 1.0)
    for s in (1e8, 1e15):
        assert_allclose(float(nl.deficit_fpF(s)), 1.0 / (6.0 * s * s), rtol=1e-6)


def test_from_spec_roundtrip():
    nl = from_spec({"family": "power_sum", "p": 2.0, "r": 1.0})
    assert isinstance(nl, PowerSum)
    assert nl.spec() == {"family": "power_sum", "p": 2.0, "r": 1.0}


def test_powerlog_smin_guards_f_prime_positivity():
    nl = PowerLog(2.0, -3.0)  # f' changes sign at s = e^{3/2} > 2
    assert nl.s_min > 2.0
    s = nl.s_min * 1.001
    assert nl.f1(s) > 0.0
