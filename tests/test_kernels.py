import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from singular_forge import (
    KernelSet,
    OrderError,
    PurePower,
    PowerSum,
    build_context,
    classify,
    convolve_cumulative,
    convolve_Q_cumulative,
    fundamental_pair,
    homogeneous_coeffs,
    homogeneous_pair,
    kernel_values,
    solve_linear_volterra,
    super_kernel,
    weight_P,
    wronskian,
)
from singular_forge import cli, kernels
from singular_forge.kernels import _BLOCK, _CHUNK, _scan, _scan_plan

from direct_sums import convolve_cumulative_direct

CLS_REAL = classify(PowerSum(1.75, 1.0), 5)     # lam1 = 1/3, lam2 = 2
CLS_DOUBLE = classify(PurePower(1.8), 5)        # lam* = 1
CLS_COMPLEX = classify(PurePower(2.0), 5)       # a/2 = 1/2, k = sqrt7/2
ALL_CLS = [CLS_REAL, CLS_DOUBLE, CLS_COMPLEX]


def test_fundamental_pair_examples():
    p1, p2, d1, d2 = fundamental_pair(CLS_REAL, 0.0)
    assert_allclose([p1, p2, d1, d2], [1.0, 1.0, -1.0 / 3.0, -2.0], atol=1e-14)
    p1, p2, d1, d2 = fundamental_pair(CLS_DOUBLE, 1.0)
    e = np.exp(-1.0)
    assert_allclose([p1, p2, d1, d2], [e, e, -e, 0.0], atol=1e-12)
    p1, p2, d1, d2 = fundamental_pair(CLS_COMPLEX, 0.0)
    assert_allclose([p1, p2, d1, d2], [1.0, 0.0, -0.5, CLS_COMPLEX.regime.k],
                    atol=1e-14)


def test_kernel_normalization_random():
    rng = np.random.default_rng(2)
    for cls in ALL_CLS:
        rho = rng.uniform(0.0, 50.0, size=100)
        K, dK = kernel_values(cls, rho, rho)
        assert np.max(np.abs(K)) <= 1e-14
        assert np.max(np.abs(dK - 1.0)) <= 1e-14


def test_kernel_value_oracles():
    K, _ = kernel_values(CLS_REAL, 2.0, 1.0)
    assert_allclose(K, 0.34871761640230594, rtol=1e-12)
    K, dK = kernel_values(CLS_DOUBLE, 2.0, 1.0)
    assert_allclose(K, 0.36787944117144233, rtol=1e-12)
    assert_allclose(dK, 0.0, atol=1e-12)
    K, dK = kernel_values(CLS_COMPLEX, 2.0, 1.0)
    assert_allclose(K, 0.4444755161333574, rtol=1e-12)
    assert_allclose(dK, -0.07340196466362296, rtol=1e-10)


def test_kernel_order_error():
    with pytest.raises(OrderError):
        kernel_values(CLS_REAL, 1.0, 2.0)
    with pytest.raises(OrderError):
        super_kernel(CLS_REAL, 1.0, 2.0)


def test_super_kernel_values():
    for cls in ALL_CLS:
        assert_allclose(super_kernel(cls, 3.0, 3.0), 1.0, atol=1e-15)
    assert_allclose(super_kernel(CLS_DOUBLE, 2.0, 1.0), 2.0 * np.exp(-1.0),
                    rtol=1e-13)


def test_weight_P_identity():
    rng = np.random.default_rng(3)
    for cls in ALL_CLS:
        s = rng.uniform(0.2, 0.9, size=50)
        r = s * rng.uniform(0.05, 1.0, size=50)
        P = weight_P(cls, r, s)
        Q = super_kernel(cls, np.log(1.0 / r), np.log(1.0 / s))
        assert_allclose(P, Q, rtol=1e-14)


def test_kernel_bounded_by_super_kernel():
    # |K| + |dK| <= C Q with a finite constant over a wide offset sweep
    d = np.linspace(0.0, 30.0, 3001)
    for cls in ALL_CLS:
        K, dK = kernel_values(cls, d, 0.0)
        Q = super_kernel(cls, d, 0.0)
        ratio = (np.abs(K) + np.abs(dK)) / Q
        assert np.all(np.isfinite(ratio))
        assert np.max(ratio) < 10.0


def test_homogeneous_coeffs_example():
    c1, c2 = homogeneous_coeffs(CLS_REAL, 0.0, 0.01, 0.005)
    assert_allclose(c1, 0.015, rtol=1e-12)
    assert_allclose(c2, -0.005, rtol=1e-12)
    # reconstruction: C1 Phi1 + C2 Phi2 == (alpha, beta) at rho0
    rng = np.random.default_rng(4)
    for cls in ALL_CLS:
        for _ in range(20):
            rho0 = float(rng.uniform(0.0, 20.0))
            alpha, beta = rng.uniform(-1.0, 1.0, size=2)
            c1, c2 = homogeneous_coeffs(cls, rho0, alpha, beta)
            p1, p2, d1, d2 = fundamental_pair(cls, rho0)
            assert_allclose(c1 * p1 + c2 * p2, alpha, rtol=0, atol=1e-13)
            assert_allclose(c1 * d1 + c2 * d2, beta, rtol=0, atol=1e-13)


def test_homogeneous_pair_matches_coefficient_form():
    rng = np.random.default_rng(5)
    for cls in ALL_CLS:
        rho0 = 2.0
        alpha, beta = 0.37, 0.81
        c1, c2 = homogeneous_coeffs(cls, rho0, alpha, beta)
        delta = rng.uniform(0.0, 10.0, size=30)
        p1, p2, _, _ = fundamental_pair(cls, rho0 + delta)
        phi, _ = homogeneous_pair(cls, delta, alpha, beta)
        assert_allclose(phi, c1 * p1 + c2 * p2, rtol=1e-11, atol=1e-14)
    # boundary data exact at delta = 0
    for cls in ALL_CLS:
        phi, dphi = homogeneous_pair(cls, 0.0, 1e-3, 2e-3)
        assert phi == 1e-3 and dphi == 2e-3


def test_wronskian_values():
    assert_allclose(wronskian(CLS_REAL, 1.0),
                    -(2.0 - 1.0 / 3.0) * np.exp(-(1 / 3 + 2.0)), rtol=1e-12)
    assert_allclose(wronskian(CLS_DOUBLE, 1.5), np.exp(-3.0), rtol=1e-12)


def test_convolve_zero_forcing():
    rho = np.linspace(0.0, 5.0, 257)
    for cls in ALL_CLS:
        ik, idk = convolve_cumulative(KernelSet(cls), rho, np.zeros_like(rho))
        assert np.all(ik == 0.0) and np.all(idk == 0.0)


def test_convolve_constant_forcing_value():
    # closed form at Delta = 1 for the (1/3, 2) pair
    rho = np.linspace(0.0, 1.0, 20001)
    ik, _ = convolve_cumulative(KernelSet(CLS_REAL), rho, np.ones_like(rho))
    assert_allclose(ik[-1], 0.25084422593816316, rtol=1e-8)


def test_convolve_steady_state_g_over_b():
    # particular solution of y'' + a y' + b y = 1 with zero data tends to 1/b
    for cls in ALL_CLS:
        rho = np.linspace(0.0, 75.0, 2 ** 18 + 1)
        ik, idk = convolve_cumulative(KernelSet(cls), rho, np.ones_like(rho))
        assert abs(ik[-1] - 1.0 / cls.b) <= 1e-8
        assert abs(idk[-1]) <= 5e-8


def test_recurrence_matches_direct():
    rng = np.random.default_rng(6)
    for cls in ALL_CLS:
        for M in (257, 1025, 4097):
            rho = np.linspace(1.0, 17.0, M)
            g = np.sin(1.7 * rho) + 0.25 * rng.standard_normal(M)
            ks = KernelSet(cls)
            i1, d1 = convolve_cumulative(ks, rho, g)
            i2, d2 = convolve_cumulative_direct(cls, rho, g)
            scale = max(np.max(np.abs(i2)), np.max(np.abs(d2)))
            assert np.max(np.abs(i1 - i2)) <= 1e-12 * scale
            assert np.max(np.abs(d1 - d2)) <= 1e-12 * scale


def _sequential(T, e0, R, c, g):
    """The readouts R P_i - (c/2) (R e0) g_i of P_0 = (c/2) e0 g_0,
    P_{i+1} = T P_i + c e0 g_{i+1}, one node at a time and 0 at node 0: the
    two-state loop the blocked _scan replaced, kept as its reference."""
    (t00, t01), (t10, t11) = T
    own = [0.5 * c * (r0 * e0[0] + r1 * e0[1]) for r0, r1 in R]
    x = g.tolist()
    a, b = 0.5 * c * e0[0] * x[0], 0.5 * c * e0[1] * x[0]
    out = [[0.0] * len(R)]
    for gi in x[1:]:
        a, b = (t00 * a + t01 * b + c * e0[0] * gi,
                t10 * a + t11 * b + c * e0[1] * gi)
        out.append([r0 * a + r1 * b - d * gi for (r0, r1), d in zip(R, own)])
    return np.array(out).T


def _error_scale(majorant, R, c, q, g):
    """eps (1 + sqrt(m_i)) W_i per readout and node: W_i = |R| S_i, where
    S_i = sum_j c |g_j| T+^(i-j) e+ bounds the terms of the state entrywise
    (majorant = (T+, e+), |T^m e0| <= T+^m e+), and m_i = min(i,
    1 / (1 - |q|)) terms in memory, over which rounding errors of either
    evaluation accumulate."""
    ((t00, t01), (t10, t11)), (ea, eb) = majorant
    a = b = 0.0
    w = []
    for gi in np.abs(g).tolist():
        a, b = (t00 * a + t01 * b + c * ea * gi,
                t10 * a + t11 * b + c * eb * gi)
        w.append((a, b))
    W = np.abs(np.array(R)) @ np.array(w).T
    m = np.minimum(np.arange(g.size), 1.0 / (1.0 - abs(q)))
    return np.finfo(float).eps * (1.0 + np.sqrt(m)) * W


def _transitions(q, h=0.05):
    """The three two-states of the regimes, built on the modulus of the
    pole q: {name: ((T, e0, R), (T+, e+))}.  Diagonal diag(|q|, |q|^2) read
    by rows like the two real roots', the Jordan block of |q| with step h
    read like the double root's, and the rotation by q (by |q| e^{0.07i}
    for a real pole) read like the complex pair's."""
    r = abs(q)
    z = q if isinstance(q, complex) else r * cmath.exp(0.07j)
    diagonal = ((r, 0.0), (0.0, r * r)), (1.0, 1.0)
    jordan = ((r, 0.0), (h * r, r)), (1.0, 0.0)
    rotation = ((z.real, -z.imag), (z.imag, z.real)), (1.0, 0.0)
    return {
        "diagonal": ((*diagonal, ((1.0, -1.0), (-0.5, 2.0))), diagonal),
        "jordan": ((*jordan, ((0.0, 1.0), (1.0, -1.0))), jordan),
        "rotation": ((*rotation, ((0.0, 1.0), (1.3, 0.5))),
                     (((r, 0.0), (0.0, r)), (1.0, 1.0))),
    }


# Largest |blocked - sequential| / _error_scale over the cases below, at
# B = 6: 1.57 (the Jordan block of the complex pole's modulus 0.975,
# same-sign drive; 1.55 at q = 1 - 1e-6, at most 1.00 for the others).
# Against 40 digits the scan reads at most 0.68 (Jordan), the sequential
# loop 0.29.  The bound is 3, a margin of 1.9.
_RECURRENCE_ERROR = 3.0
_DRIVE_WEIGHT = 0.05
RECURRENCE_POLES = {
    "1e-3": 1e-3,
    "q^B=0": math.exp(-200.0),       # large mu h: q^B underflows to 0
    "0.5": 0.5,
    "1-1e-6": 1.0 - 1e-6,
    "complex": cmath.exp(-complex(0.5, -math.sqrt(7.0) / 2.0) * 0.05),
}
# Steps after node 0: none, around one block, around one chunk, and two
# long runs.
RECURRENCE_LENGTHS = (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                      (_CHUNK - 1) * _BLOCK, (_CHUNK + 1) * _BLOCK,
                      4095, 2 ** 14)


def _drive(n, kind, rng):
    """n drive values, of mixed sign or all in [0.5, 1.5]."""
    if kind == "signed":
        return rng.standard_normal(n)
    return rng.uniform(0.5, 1.5, n)


def _scan_of(data, g):
    return _scan(_scan_plan(*data, _DRIVE_WEIGHT), g)


@pytest.mark.parametrize("kind", ["signed", "positive"])
@pytest.mark.parametrize("q", RECURRENCE_POLES.values(),
                         ids=RECURRENCE_POLES.keys())
def test_recurrence_matches_the_sequential_loop(q, kind):
    rng = np.random.default_rng(8)
    for data, majorant in _transitions(q).values():
        for steps in RECURRENCE_LENGTHS:
            g = _drive(steps + 1, kind, rng)
            s = _scan_of(data, g)
            ref = _sequential(*data, _DRIVE_WEIGHT, g)
            assert s.shape == ref.shape and np.all(s[:, 0] == 0.0)
            scale = _error_scale(majorant, data[2], _DRIVE_WEIGHT, q, g)
            assert np.all(np.abs(s - ref) <= _RECURRENCE_ERROR * scale)
        if abs(q) < 1e-40:
            assert _scan_plan(*data, _DRIVE_WEIGHT)[3] == [[0.0, 0.0]] * 2


def test_recurrence_runs_several_poles_at_once():
    # one state of two poles, as for two real roots, read mode by mode
    rng = np.random.default_rng(9)
    T, e0, R = ((0.5, 0.0), (0.0, 1.0 - 1e-6)), (1.0, 1.0), ((1.0, 0.0),
                                                            (0.0, 1.0))
    g = rng.standard_normal(5000)
    s = _scan_of((T, e0, R), g)
    for row, q in zip(s, (0.5, 1.0 - 1e-6)):
        ref = _sequential(((q, 0.0), (0.0, q)), (1.0, 0.0), ((1.0, 0.0),),
                          _DRIVE_WEIGHT, g)[0]
        scale = _error_scale((((q, 0.0), (0.0, q)), (1.0, 0.0)),
                             ((1.0, 0.0),), _DRIVE_WEIGHT, q, g)[0]
        assert row[0] == 0.0
        assert np.all(np.abs(row - ref) <= _RECURRENCE_ERROR * scale)


def test_recurrence_against_40_digit_sums():
    # |q| near 1 and a same-sign drive, where rounding errors accumulate
    # most: the blocked form stays within the bound of the exact value
    q = 1.0 - 1e-6
    g = np.random.default_rng(10).uniform(0.5, 1.5, 4096)
    for (T, e0, R), majorant in _transitions(q).values():
        s = _scan_of((T, e0, R), g)
        with mp.workdps(40):
            Tm, Rm = mp.matrix(T), mp.matrix(R)
            ce0 = mp.mpf(_DRIVE_WEIGHT) * mp.matrix(e0)
            state = ce0 * (g[0] / 2)
            exact = [[0.0] * len(R)]
            for x in g[1:].tolist():
                state = Tm * state + ce0 * x
                exact.append([float(v) for v in Rm * (state - ce0 * (x / 2))])
        scale = _error_scale(majorant, R, _DRIVE_WEIGHT, q, g)
        assert np.all(np.abs(s - np.array(exact).T)
                      <= _RECURRENCE_ERROR * scale)


def test_convolutions_start_at_zero_bitwise():
    # node 0 holds the empty integral in every regime, also on grids whose
    # step does not survive (h / denom) * denom
    rng = np.random.default_rng(12)
    inexact = 0
    for cls in ALL_CLS:
        ks = KernelSet(cls)
        for rho0, span, M in ((0.0, 1.0, 9), (3.0, 7.0, 4096),
                              (3.0, 7.0, 17), (1.1, 0.3, 17)):
            rho = np.linspace(rho0, rho0 + span, M)
            h = float(rho[1] - rho[0])
            inexact += h / ks.denom * ks.denom != h
            g = rng.uniform(0.5, 1.5, M)
            ik, idk = convolve_cumulative(ks, rho, g)
            q = convolve_Q_cumulative(ks, rho, g)
            for first in (ik[0], idk[0], q[0]):
                assert first == 0.0 and not math.copysign(1.0, first) < 0
    assert inexact


def test_convolution_solves_ode():
    # y = int K g must satisfy y'' + a y' + b y = g, y(rho0) = y'(rho0) = 0
    h = 1e-3
    rho = np.arange(0.0, 3.0 + h / 2, h)
    polys = 1.0 + rho - 0.1 * rho ** 2
    for cls in ALL_CLS:
        for g in (np.sin(rho), polys):
            ik, idk = convolve_cumulative(KernelSet(cls), rho, g)
            d1 = (ik[2:] - ik[:-2]) / (2 * h)
            d2 = (ik[2:] - 2 * ik[1:-1] + ik[:-2]) / (h * h)
            res = d2 + cls.a * d1 + cls.b * ik[1:-1] - g[1:-1]
            assert np.max(np.abs(res)) <= 1e-6 * np.max(np.abs(g))
            # the dK channel is the derivative of the K channel
            assert np.max(np.abs(idk[1:-1] - d1)) <= 1e-6 * np.max(np.abs(g))


def test_convolve_Q_cumulative_basic():
    rho = np.linspace(0.0, 20.0, 4001)
    g = np.exp(-0.5 * rho)
    for cls in ALL_CLS:
        q = convolve_Q_cumulative(KernelSet(cls), rho, g)
        assert q[0] == 0.0
        assert np.all(q >= 0.0)
        # exponential-forcing integral stays bounded
        assert np.max(q) < 10.0


def test_diagonal_and_boundary_data_bitwise():
    # a spread of roots: normalised residues -lam1/(lam2 - lam1) and
    # lam2/(lam2 - lam1) sum to 1 only up to rounding for 10 of the 44
    # two-real-root classes here
    spread = [
        classify(family(p), N)
        for N in range(3, 10)
        for p in np.linspace(N / (N - 2.0), (N + 2.0) / (N - 2.0), 17)[1:-1]
        for family in (PurePower, lambda p: PowerSum(p, 1.0))
    ]
    assert {cls.regime.kind for cls in spread} == {
        "two_real_roots", "complex_roots"}
    alphas_betas = [(0.0, 0.0), (1e-3, 2e-3), (0.37, 0.81), (5.0, 1e-9),
                    (1e-300, 3.0), (-2.5, 0.125)]
    for cls in ALL_CLS + spread:
        for rho in (0.0, 1.0, 3.0, 17.25, 40.0):
            K, dK = kernel_values(cls, rho, rho)
            assert (K, dK) == (0.0, 1.0)
        for alpha, beta in alphas_betas:
            phi, dphi = homogeneous_pair(cls, 0.0, alpha, beta)
            assert (phi, dphi) == (alpha, beta)


@st.composite
def pure_power_cases(draw):
    """(N, p) with p strictly between p_c = N/(N-2) and p_S = (N+2)/(N-2)."""
    N = draw(st.integers(3, 9))
    t = draw(st.floats(0.01, 0.99))
    p_c, p_S = N / (N - 2.0), (N + 2.0) / (N - 2.0)
    return N, p_c + t * (p_S - p_c)


def _direct_Q_and_scale(cls, rho, g):
    """Direct trapezoid sum of Q g, and per-node sums of (|K|+|dK|+Q)|g|
    that bound the rounding of every convolution at that node."""
    h = rho[1] - rho[0]
    q = np.zeros(len(rho))
    scale = np.zeros(len(rho))
    for i in range(1, len(rho)):
        w = np.ones(i + 1)
        w[0] = w[-1] = 0.5
        kv, dkv = kernel_values(cls, rho[i], rho[: i + 1])
        Q = super_kernel(cls, rho[i], rho[: i + 1])
        q[i] = h * np.sum(w * Q * g[: i + 1])
        scale[i] = h * np.sum(w * (np.abs(kv) + np.abs(dkv) + Q)
                              * np.abs(g[: i + 1]))
    return q, max(float(np.max(scale)), 1e-300)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(case=pure_power_cases(), M=st.integers(3, 257),
       rho0=st.floats(0.0, 20.0), span=st.floats(0.5, 40.0),
       seed=st.integers(0, 2 ** 32 - 1))
@example(case=(5, 1.8), M=257, rho0=3.0, span=20.0, seed=0)
@example(case=(5, 1.8), M=3, rho0=0.0, span=0.5, seed=1)
def test_recurrences_match_direct_sums(case, M, rho0, span, seed):
    N, p = case
    cls = classify(PurePower(p), N)
    ks = KernelSet(cls)
    rho = np.linspace(rho0, rho0 + span, M)
    g = np.random.default_rng(seed).standard_normal(M)
    i1, d1 = convolve_cumulative(ks, rho, g)
    i2, d2 = convolve_cumulative_direct(cls, rho, g)
    q1 = convolve_Q_cumulative(ks, rho, g)
    q2, scale = _direct_Q_and_scale(cls, rho, g)
    assert np.max(np.abs(i1 - i2)) <= 1e-12 * scale
    assert np.max(np.abs(d1 - d2)) <= 1e-12 * scale
    assert np.max(np.abs(q1 - q2)) <= 1e-12 * scale


def _linear_problem(cls, M=257):
    """A grid, the homogeneous pair of (1e-3, 2e-3), and seeded nodewise
    c, p, l2 for solve_linear_volterra."""
    rho = np.linspace(3.0, 23.0, M)
    rng = np.random.default_rng(5)
    c = 1e-3 * rng.standard_normal(M)
    p = 0.3 * rng.standard_normal(M)
    l2 = 0.1 * rng.standard_normal(M)
    return rho, homogeneous_pair(cls, rho - rho[0], 1e-3, 2e-3), c, p, l2


@pytest.mark.parametrize("cls", ALL_CLS, ids=lambda c: c.regime.kind)
def test_march_solves_the_linear_scheme(cls):
    # the march's (eta, eta') reproduce themselves through the direct
    # O(M^2) trapezoid sum of g = c + p eta + l2 eta'
    ks = KernelSet(cls)
    rho, (phi, dphi), c, p, l2 = _linear_problem(cls)
    eta, deta = solve_linear_volterra(ks, rho, (phi, dphi), c, p, l2)
    assert eta[0] == 1e-3 and deta[0] == 2e-3
    ik, idk = convolve_cumulative_direct(cls, rho, c + p * eta + l2 * deta)
    assert np.max(np.abs(phi - ik - eta)) <= 1e-12
    assert np.max(np.abs(dphi - idk - deta)) <= 1e-12


def test_step_reads_K_and_dK_off_the_drive():
    # a unit drive at its own node adds 0 to K and denom to dK
    for cls in ALL_CLS:
        ks = KernelSet(cls)
        T, e0, R = ks.step(0.01).state
        assert np.dot(R[0], e0) == 0.0
        assert np.dot(R[1], e0) == ks.denom


def test_one_step_memo_serves_both_convolutions_and_the_march(monkeypatch):
    # what a step fixes is built once: one two-state for (K, dK), one for
    # Q, and their plans, however often the three readers are called
    counts = {"_two_state": 0, "_scan_plan": 0}
    for name in counts:
        original = getattr(kernels, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(kernels, name, counted)
    ks = KernelSet(CLS_COMPLEX)
    rho, pair, c, p, l2 = _linear_problem(CLS_COMPLEX)
    for _ in range(2):
        convolve_cumulative(ks, rho, c)
        convolve_Q_cumulative(ks, rho, c)
        solve_linear_volterra(ks, rho, pair, c, p, l2)
    assert counts["_two_state"] == 2
    assert counts["_scan_plan"] <= 2


@pytest.mark.parametrize("cls", ALL_CLS, ids=lambda c: c.regime.kind)
def test_scan_and_march_read_one_end_weight(cls, monkeypatch):
    # under another end weight the march still solves the scan's scheme,
    # which holds only if both read the same constant
    monkeypatch.setattr(kernels, "_END_WEIGHT", 0.3)
    ks = KernelSet(cls)
    rho, (phi, dphi), c, p, l2 = _linear_problem(cls)
    eta, deta = solve_linear_volterra(ks, rho, (phi, dphi), c, p, l2)
    ik, idk = convolve_cumulative(ks, rho, c + p * eta + l2 * deta)
    assert np.max(np.abs(phi - ik - eta)) <= 1e-12
    assert np.max(np.abs(dphi - idk - deta)) <= 1e-12


def test_one_shared_kernel_set_per_regime(tmp_path, monkeypatch):
    # contexts, probes and runs of a regime share its KernelSet, so a
    # second tables run in one process builds no KernelSet and no plan
    kernels._KERNEL_SETS.clear()
    counts = {"KernelSet": 0, "_scan_plan": 0}
    init, plan = kernels.KernelSet.__init__, kernels._scan_plan

    def counted_init(self, cls):
        counts["KernelSet"] += 1
        init(self, cls)

    def counted_plan(*args):
        counts["_scan_plan"] += 1
        return plan(*args)

    monkeypatch.setattr(kernels.KernelSet, "__init__", counted_init)
    monkeypatch.setattr(kernels, "_scan_plan", counted_plan)
    runs = []
    for i in range(2):
        assert cli.main(["tables", "--N", "5", "--out",
                         str(tmp_path / str(i))]) == 0
        runs.append(dict(counts))
        counts.update(KernelSet=0, _scan_plan=0)
    # the five default cells fall in three regimes, one per p
    assert runs[0]["KernelSet"] == 3 and 0 < runs[0]["_scan_plan"] <= 16
    assert runs[1] == {"KernelSet": 0, "_scan_plan": 0}


def test_shared_kernel_sets_stay_within_their_bounds():
    kernels._KERNEL_SETS.clear()
    exponents = np.linspace(1.7, 2.3, kernels._SHARED_REGIMES + 3)
    for p in exponents:
        nl = PurePower(p)
        build_context(nl, classify(nl, 5), 3.0, 13.0, 9)
    assert len(kernels._KERNEL_SETS) == kernels._SHARED_REGIMES
    assert classify(PurePower(exponents[-1]), 5).regime in kernels._KERNEL_SETS
    assert classify(PurePower(exponents[0]), 5).regime \
        not in kernels._KERNEL_SETS
    ks = KernelSet(CLS_COMPLEX)
    for h in np.linspace(0.01, 0.02, kernels._SHARED_STEPS + 3):
        ks.step(h)
    assert len(ks._steps) == kernels._SHARED_STEPS
