import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

import singular_forge.nonlinearity as nonlinearity
from singular_forge import (
    DomainError,
    Generic,
    GridError,
    PowerExpLog,
    PowerLog,
    PowerSum,
    PowerSumLog,
    PurePower,
    build_context,
    classify,
    nonlinear_term,
    tilde_u,
    to_radial,
)
from singular_forge.profile import _RULES, _SERIES_CAP, _gauss_rule


def test_tilde_u_pure_power_closed_form():
    nl = PurePower(2.0)
    cls = classify(nl, 5)
    rng = np.random.default_rng(1)
    r = rng.uniform(0.01, 1.0, size=20)
    # b = 2, F^-1(sig) = 1/sig: tilde_u = 2/r^2 = L_p r^{-2/(p-1)}, L_p = 2
    assert_allclose(tilde_u(nl, cls, r), 2.0 / r ** 2, rtol=1e-13)


def test_tilde_u_model_identity():
    # G(v_pf(r)) = r^2 / (2N - 4 q_f) with G(s) = s^{1-p}/(p-1)
    for p, N in [(2.0, 5), (1.75, 5), (2.2, 6)]:
        nl = PurePower(p)
        cls = classify(nl, N)
        if not cls.in_scope:
            continue
        L = (2.0 / (p - 1.0) * (N - 2.0 - 2.0 / (p - 1.0))) ** (1.0 / (p - 1.0))
        rng = np.random.default_rng(2)
        r = rng.uniform(0.05, 0.9, size=15)
        v = L * r ** (-2.0 / (p - 1.0))
        G = v ** (1.0 - p) / (p - 1.0)
        assert_allclose(G, r ** 2 / cls.b, rtol=1e-12)


def test_tilde_u_power_sum_value():
    nl = PowerSum(2.0, 1.0)
    cls = classify(nl, 5)
    assert_allclose(tilde_u(nl, cls, 1.0), 1.5414940825367983, rtol=1e-13)


def test_tilde_u_domain_error():
    nl = PowerLog(2.0, 1.0)  # F bounded: F(2) ~ 0.377
    cls = classify(nl, 5)
    with pytest.raises(DomainError):
        tilde_u(nl, cls, 2.0)  # r^2/b = 2 >> F_sup


def test_build_context_pure_power_degeneracy():
    nl = PurePower(2.0)
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 2.0, 30.0, 257)
    assert np.max(np.abs(ctx.I)) + np.max(np.abs(ctx.L1)) + np.max(
        np.abs(ctx.L2)
    ) <= 1e-10


def test_build_context_hand_chain_at_rho_zero():
    # frozen chain for f = s^2 + s at rho = 0, N = 5 (phi = F^-1(1/2))
    nl = PowerSum(2.0, 1.0)
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 0.0, 10.0, 501)
    assert_allclose(ctx.phi[0], 1.5414940825367983, rtol=1e-12)
    assert_allclose(ctx.I[0], 0.21091393045513268, rtol=1e-10)
    assert_allclose(ctx.L1[0], -0.24759198700806904, rtol=1e-10)
    assert_allclose(ctx.L2[0], 1.08298816507359657, rtol=1e-10)
    # phi' = 2 f F
    assert_allclose(
        ctx.dphi[0],
        2.0 * float(nl.f(ctx.phi[0])) * float(nl.F(ctx.phi[0])),
        rtol=1e-11,
    )


def test_build_context_grid_error_near_smin():
    nl = PowerLog(2.0, 1.0)
    cls = classify(nl, 5)
    with pytest.raises(GridError):
        build_context(nl, cls, 0.05, 10.0, 101)


def test_forcing_decay_slope_matches_prediction():
    # I ~ e^{-2(p-r) rho/(p-1)}; nondegenerate case p - r = 0.1.  On
    # [10, 20] the k = 2 series correction still biases the local slope by
    # ~3%; it settles onto -0.2 further out.
    nl = PowerSum(2.0, 1.9)
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 10.0, 20.0, 401)
    slope = np.polyfit(ctx.rho, np.log(np.abs(ctx.I)), 1)[0]
    assert abs(slope - (-0.2)) <= 0.04 * 0.2
    ctx = build_context(nl, cls, 30.0, 45.0, 401)
    deep = np.polyfit(ctx.rho, np.log(np.abs(ctx.I)), 1)[0]
    assert abs(deep - (-0.2)) <= 0.005 * 0.2


def test_degenerate_forcing_decays_at_doubled_rate():
    # p - r = 1: leading series coefficient vanishes, I ~ e^{-4(p-r)rho/(p-1)}
    nl = PowerSum(2.0, 1.0)
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 5.0, 12.0, 301)
    slope = np.polyfit(ctx.rho, np.log(np.abs(ctx.I)), 1)[0]
    assert abs(slope - (-4.0)) <= 0.02


def test_nonlinear_term_zero_and_closed_form():
    nl = PurePower(2.0)
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 2.0, 12.0, 101)
    assert np.all(nonlinear_term(ctx, np.zeros(101)) == 0.0)
    # N[eta] = b ((1+eta)^2 - 1 - 2 eta)/(p-1) = 2 eta^2 for p = 2, N = 5
    eta = np.full(101, 0.1)
    assert_allclose(nonlinear_term(ctx, eta), 0.02, rtol=1e-12)
    assert_allclose(nonlinear_term(ctx, 0.1, nodes=7), 0.02, rtol=1e-12)


def test_nonlinear_term_quadratic_smallness():
    nl = PowerSum(2.0, 1.0)
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 3.0, 23.0, 257)
    for ev in (1e-2, 1e-4):
        vals = nonlinear_term(ctx, np.full(257, ev))
        assert np.max(np.abs(vals)) <= 10.0 * ev ** 2


def test_nonlinear_term_domain_error():
    nl = PowerLog(2.0, 1.0)
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 1.0, 6.0, 101)
    # phi(rho0) ~ 3.1; eta = -0.9 pulls phi(1+eta) well below s_min = 2
    with pytest.raises(DomainError):
        nonlinear_term(ctx, np.full(101, -0.9))


def test_phi_log_ratio_tail():
    # phi'/phi -> 2/(p_f - 1) (within 1e-2 on the tail for rho_max >= 20)
    for nl in [PowerSum(2.0, 1.0), PowerSum(1.75, 1.0), PowerLog(2.0, 0.1)]:
        cls = classify(nl, 5)
        if not cls.in_scope:
            continue
        ctx = build_context(nl, cls, 2.0, 26.0, 513)
        tail = ctx.rho >= 0.9 * ctx.rho[-1]
        ratio = ctx.dphi[tail] / ctx.phi[tail]
        assert np.max(np.abs(ratio - cls.m)) <= 1e-2


def test_to_radial_trivial_remainder():
    nl = PurePower(2.0)
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 3.0, 20.0, 2049)
    z = np.zeros(2049)
    prof = to_radial(ctx, z, z)
    assert np.all(prof.u == prof.tilde_u)
    assert np.all(np.diff(prof.r) < 0.0)
    # exact solution: residual is pure differencing error
    assert float(np.max(prof.residual[2:-2])) <= 1e-6
    # u' = tilde_u' = -2 L_p r^{-3} here
    assert_allclose(prof.u_prime, -4.0 / prof.r ** 3, rtol=1e-11)


def test_to_radial_boundary_data():
    nl = PowerSum(2.0, 1.0)
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 3.0, 23.0, 513)
    rng = np.random.default_rng(8)
    eta = 1e-3 * rng.standard_normal(513)
    deta = 1e-3 * rng.standard_normal(513)
    prof = to_radial(ctx, eta, deta)
    # theta(r0) = eta(rho0) and r0 theta'(r0) = -eta'(rho0)
    assert prof.theta[0] == eta[0]
    assert prof.rtheta_prime[0] == -deta[0]
    assert_allclose(prof.u, prof.tilde_u * (1.0 + eta), rtol=1e-14)


def test_to_radial_shares_the_read_only_phi():
    # tilde_u is the context's own phi, which no caller can write into
    nl = PowerSum(2.0, 1.0)
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 3.0, 23.0, 513)
    z = np.zeros(513)
    prof = to_radial(ctx, z, z)
    assert prof.tilde_u is ctx.phi
    with pytest.raises(ValueError):
        ctx.phi[0] = 1.0
    with pytest.raises(ValueError):
        prof.tilde_u += 1.0


def _generic_power_sum():
    # s^2 + s^1.5 without declared exponents: it keeps the Gauss rule, and
    # s_min = 0, so zeta = eta
    return Generic(
        lambda u: u * u + u ** 1.5,
        lambda u: 2.0 * u + 1.5 * u ** 0.5,
        lambda u: 2.0 + 0.75 * u ** -0.5,
        qf=2.0,
    )


GENERIC_POWER_SUM = _generic_power_sum()
REMAINDER_FAMILIES = [
    PurePower(2.0),
    PowerSum(1.75, 1.7),
    PowerLog(2.0, 1.0),
    PowerExpLog(2.0, 0.5),
    PowerSumLog(2.0, 1.0, 1.0),
    GENERIC_POWER_SUM,
]


def test_build_context_reuses_the_qf_estimate(monkeypatch):
    # a Generic without qf estimates it once, in classify; build_context
    # reads the same estimate through qf and pf
    nl = Generic(lambda s: s * s + s, lambda s: 2.0 * s + 1.0,
                 lambda s: 2.0)
    estimate_qf, calls = nonlinearity.estimate_qf, []
    monkeypatch.setattr(nonlinearity, "estimate_qf",
                        lambda nl: calls.append(nl) or estimate_qf(nl))
    cls = classify(nl, 5)
    assert len(calls) == 1
    build_context(nl, cls, 3.0, 43.0, 257)
    assert len(calls) == 1


@pytest.mark.parametrize("nl,M", [
    (PowerLog(2.0, 1.0), 801),
    (PowerExpLog(2.0, 0.5), 801),
    (PowerSumLog(2.0, 1.0, 1.0), 801),
    (GENERIC_POWER_SUM, 257),
], ids=lambda v: getattr(v, "name", str(v)))
def test_build_context_runs_the_inversions_F_passes_alone(monkeypatch, nl, M):
    # the deficits take F(phi) from F_inv's last pass: a context runs the
    # inversion's F passes and no other, and power_sum_log's two deficits
    # share one tail pass of R1
    cls = classify(nl, 5)
    nl.F_sup  # cached before counting, as in any run after classify
    calls = {"F": 0, "tail": 0}
    F, tail = nl.F, nonlinearity.tail_integrals

    def counted_F(s):
        calls["F"] += 1
        return F(s)

    def counted_tail(*args):
        calls["tail"] += 1
        return tail(*args)

    monkeypatch.setattr(nl, "F", counted_F)
    monkeypatch.setattr(nonlinearity, "tail_integrals", counted_tail)
    ctx = build_context(nl, cls, 3.0, 43.0, M)
    built = dict(calls)
    calls.update(F=0, tail=0)
    nl.F_inv(np.exp(-2.0 * ctx.rho) / cls.b)
    passes = calls["F"]
    assert passes >= 2 and built["F"] == passes
    by_quadrature = 0 if nl.name == "power_log" else passes
    assert calls["tail"] == by_quadrature
    assert built["tail"] == by_quadrature + (nl.name == "power_sum_log")


def test_quad_verify_context_makes_five_tail_passes(monkeypatch):
    # the benchmark's quad_verify grid, built once per process: F_sup's one
    # pass (kept on the nonlinearity) and four inversion passes, where the
    # two deficits added two more before they took F(phi) from the inversion
    nl = PowerExpLog(2.0, 0.5)
    cls = classify(nl, 5)
    tail, calls = nonlinearity.tail_integrals, []
    monkeypatch.setattr(nonlinearity, "tail_integrals",
                        lambda *args: calls.append(1) or tail(*args))
    build_context(nl, cls, 3.0, 58.0, 192)
    assert len(calls) == 5


def _per_node_remainder(ctx, nodes, eta, derivative=False):
    # one f2 call per Gauss node of the rule the call picks, accumulated in
    # node order; with derivative the wd rows too, in the same order
    eta = np.asarray(eta, dtype=float)
    phi = ctx.phi[nodes]
    gauss_t, _, (gauss_w, gauss_wd) = _gauss_rule(
        ctx, *np.broadcast_arrays(phi, eta))
    acc = dacc = 0.0
    for t, w, wd in zip(gauss_t, gauss_w, gauss_wd):
        f2 = np.asarray(ctx.nl.f2(phi * (1.0 + t * eta)), dtype=float)
        acc = acc + w * f2
        dacc = dacc + wd * f2
    value = ctx.cls.b * ctx.Fphi[nodes] * phi * eta * eta * acc
    if not derivative:
        return value
    return value, ctx.cls.b * ctx.Fphi[nodes] * phi * eta * dacc


def _gauss_twin(nl):
    """nl itself, or for a sum of powers, which sums its remainder as a
    series, a Generic with the same f, f', f'' and q_f, which takes the
    Gauss rule and the same f'' calls."""
    if nl.exponents is None:
        return nl
    return Generic(nl.f, nl.f1, nl.f2, qf=nl.qf_exact)


@pytest.mark.parametrize("nl", REMAINDER_FAMILIES,
                         ids=lambda nl: nl.name)
def test_grouped_remainder_equals_per_node_loop_bitwise(nl):
    nl = _gauss_twin(nl)
    cls = classify(nl, 5)
    for M in (9, 192, 256, 257, 801, 4096):
        ctx = build_context(nl, cls, 3.0, 43.0, M)
        rng = np.random.default_rng(M)
        # the index-array and eta-array shapes lipschitz_check passes
        tail = rng.integers(M // 2, M, size=2000)
        cases = [
            (slice(None), rng.uniform(-0.1, 0.1, M)),
            (slice(None), 0.05),
            (slice(None), 1e-3),
            (M // 2, 0.03),
            (M // 2, np.array(-0.02)),
            (tail, rng.uniform(-0.1, 0.1, tail.size)),
            (tail, -0.07),
            (tail, 0.4),
        ]
        for nodes, eta in cases:
            got = nonlinear_term(ctx, eta, nodes=nodes)
            want = _per_node_remainder(ctx, nodes, eta)
            assert np.shape(got) == np.shape(want), (M, nodes)
            assert (np.asarray(got).tobytes()
                    == np.asarray(want).tobytes()), (M, nodes)
            # the derivative path: N' from the same rows, summed with the
            # plain weights in node order, and N as without it
            got = nonlinear_term(ctx, eta, nodes=nodes, derivative=True)
            want = _per_node_remainder(ctx, nodes, eta, derivative=True)
            for g, w in zip(got, want):
                assert np.shape(g) == np.shape(w), (M, nodes)
                assert (np.asarray(g).tobytes()
                        == np.asarray(w).tobytes()), (M, nodes)


def _mp_f(nl):
    """f of a REMAINDER_FAMILIES member as an mpmath function."""
    p = mp.mpf(nl.p) if nl.p is not None else None
    r = mp.mpf(nl.r) if nl.r is not None else None
    return {
        "power": lambda s: s ** p,
        "power_sum": lambda s: s ** p + s ** r,
        "power_log": lambda s: s ** p * mp.log(s) ** r,
        "power_exp_log": lambda s: s ** p * mp.exp(mp.log(s) ** r),
        "power_sum_log": lambda s: (
            s ** p + s ** r * mp.log(s) ** mp.mpf(nl.log_exp)),
        "generic": lambda s: s * s + s ** mp.mpf(1.5),
    }[nl.name]


# measured at most 6.5e-16 relative (4 points, power_exp_log, zeta < 0):
# the quadrature adds nothing visible to the few roundings of f2 and the
# scale b F(phi) phi eta
REMAINDER_RTOL = 1.3e-15


@pytest.mark.parametrize("nl", REMAINDER_FAMILIES,
                         ids=lambda nl: nl.name)
def test_remainder_against_50_digit_taylor_remainder(nl):
    # N and N' where each rule is picked at its largest zeta on either side
    # of 0, against b F(phi)/phi (f(phi(1+eta)) - f(phi) - f'(phi) phi eta)
    # and b F(phi) (f'(phi(1+eta)) - f'(phi)) at 50 digits; b, F(phi) and
    # phi are the context's floats, so only the quadrature is under test
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 3.0, 43.0, 257)
    nodes = np.linspace(0, 256, 9).astype(int)
    phi = ctx.phi[nodes]
    f = _mp_f(nl)

    def f1(s):  # d/ds f = d/dy f(s e^y) / s at y = 0, at any scale of s
        return mp.diff(lambda y: f(s * mp.exp(y)), 0) / s

    for rule, up_cut, down_cut in _RULES:
        for zeta in (up_cut, -down_cut):
            eta = zeta * (1.0 - 1e-12) * (phi - nl.s_min) / phi
            assert _gauss_rule(ctx, phi, eta) is rule
            n, dn = nonlinear_term(ctx, eta, nodes=nodes, derivative=True)
            with mp.workdps(50):
                for k, node in enumerate(nodes):
                    s, e = mp.mpf(phi[k]), mp.mpf(eta[k])
                    scale = mp.mpf(cls.b) * mp.mpf(ctx.Fphi[node])
                    want = scale / s * (f(s * (1 + e)) - f(s) - f1(s) * s * e)
                    dwant = scale * (f1(s * (1 + e)) - f1(s))
                    for got, ref in ((n[k], want), (dn[k], dwant)):
                        assert abs(got - ref) <= REMAINDER_RTOL * abs(ref), (
                            zeta, node)


def _count_f2(nl, M, eta):
    """Sizes of the f2 calls one nonlinear_term makes at constant eta; nl
    is an instance of the test's own."""
    ctx = build_context(nl, classify(nl, 5), 3.0, 43.0, M)
    seen = []

    def f2(s):
        seen.append(np.size(s))
        return type(nl).f2(nl, s)

    nl.f2 = f2
    nonlinear_term(ctx, np.full(M, eta))
    return seen


@pytest.mark.parametrize("M, calls", [(192, 1), (801, 4), (4096, 16)])
def test_nonlinear_term_groups_f2_calls(M, calls):
    # the 16 Gauss nodes in groups of about 4096 points: one call at
    # M <= 256, one call per node at M=4096, where a 16-row batch falls
    # out of cache
    seen = _count_f2(_generic_power_sum(), M, 0.4)
    assert len(seen) == calls
    assert sum(seen) == 16 * M


@pytest.mark.parametrize("eta, points", [
    (1e-3, 4), (-0.02, 4), (0.1, 8), (0.3, 8), (-0.25, 8), (0.4, 16),
    (-0.3, 16),
])
def test_nonlinear_term_rule_follows_eta(eta, points):
    # s_min = 0, so zeta = eta: 4 points up to 0.0223 (0.0219 below 0),
    # 8 up to 0.347 (0.258), else 16; one f2 call per point at M=4096
    seen = _count_f2(_generic_power_sum(), 4096, eta)
    assert seen == [4096] * points


@pytest.mark.parametrize("nl", [PurePower(2.0), PowerSum(1.75, 1.7),
                                PowerExpLog(2.0, 0.5)],
                         ids=lambda nl: nl.name)
def test_nonlinear_term_derivative_from_the_same_pass(nl):
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 3.0, 23.0, 257)
    eta = 0.2 * np.sin(ctx.rho)
    n, dn = nonlinear_term(ctx, eta, derivative=True)
    assert n.tobytes() == nonlinear_term(ctx, eta).tobytes()
    # N'[eta] = b F(phi) (f'(phi(1+eta)) - f'(phi)), differenced directly
    # where eta is large enough that the difference keeps its digits
    direct = cls.b * ctx.Fphi * (nl.f1(ctx.phi * (1.0 + eta))
                                 - nl.f1(ctx.phi))
    big = np.abs(eta) > 0.05
    assert_allclose(dn[big], direct[big], rtol=1e-12, atol=0.0)
    with pytest.raises(DomainError):
        nonlinear_term(ctx, np.full_like(eta, -2.0), derivative=True)


SERIES_FAMILIES = [PurePower(1.8), PowerSum(1.75, 1.7), PowerSum(1.75, 1.0),
                   PowerSum(2.0, 0.5)]


def _series_reach(series):
    """The largest |eta| (to rounding) whose degree stays within the cap."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if series.degree(mid) is None else (mid, hi)
    return lo


# measured at most 4.5e-16 relative (power_sum 1.75,1.7, N at eta = -1e-4;
# 3.8e-16 for N') at every |eta| below, degrees up to 40; twice that
SERIES_RTOL = 8.9e-16


@pytest.mark.parametrize("nl", SERIES_FAMILIES, ids=repr)
def test_series_remainder_against_50_digit_sum_of_powers(nl):
    # N and N' of f = sum_j s^{a_j} at |eta| from 1e-6 to the cap, both
    # signs, against sum_j s^{a_j} ((1+eta)^{a_j} - 1 - a_j eta) at 50
    # digits; power_sum 1.75,1 has a linear s^r, and power_sum 2,0.5 a
    # negative C(r, 2)
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 3.0, 43.0, 257)
    series = ctx.power_series
    reach = _series_reach(series)
    assert 0.4 < reach < 1.0
    nodes = np.linspace(0, 256, 9).astype(int)
    phi = ctx.phi[nodes]
    mags = [1e-6, 1e-4, 1e-2, 0.1, 0.2, 0.3, 0.4, reach]
    with mp.workdps(50):
        a = [mp.mpf(e) for e in nl.exponents]
        for mag in mags:
            for eta in (mag, -mag):
                assert series.degree(mag) <= _SERIES_CAP
                n, dn = nonlinear_term(ctx, np.full(9, eta), nodes=nodes,
                                       derivative=True)
                e = mp.mpf(eta)
                for k, node in enumerate(nodes):
                    s = mp.mpf(phi[k])
                    scale = mp.mpf(cls.b) * mp.mpf(ctx.Fphi[node]) / s
                    want = scale * sum(
                        s ** aj * ((1 + e) ** aj - 1 - aj * e) for aj in a)
                    dwant = scale * sum(
                        aj * s ** aj * ((1 + e) ** (aj - 1) - 1) for aj in a)
                    for got, ref in ((n[k], want), (dn[k], dwant)):
                        assert abs(got - ref) <= SERIES_RTOL * abs(ref), (
                            eta, node)


@pytest.mark.parametrize("nl", [PurePower(2.0), PowerSum(2.0, 1.0)],
                         ids=repr)
def test_series_is_exact_at_degree_two(monkeypatch, nl):
    # C(2, k) = 0 past k = 2 and s^1 leaves no remainder: N = b F phi eta^2
    # and N' = 2 b F phi eta for every |eta| < 1, with no f'' call
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 3.0, 43.0, 257)
    monkeypatch.setattr(nl, "f2", None)
    eta = 0.9 * np.sin(ctx.rho)
    assert ctx.power_series.degree(0.999) == 2
    n, dn = nonlinear_term(ctx, eta, derivative=True)
    w = cls.b * ctx.Fphi * ctx.phi
    assert n.tobytes() == (w * eta * eta).tobytes()
    assert dn.tobytes() == (w * eta * 2.0).tobytes()
    assert len(ctx.power_series._coef) == 1  # a_2 alone was made


def test_series_coefficients_are_made_as_far_as_calls_need():
    nl = PowerSum(1.75, 1.7)
    ctx = build_context(nl, classify(nl, 5), 3.0, 43.0, 257)
    series = ctx.power_series
    made = series._coef
    assert len(made) == 1  # a_2, which the tail bound reads
    for eta, more in ((1e-3, True), (0.2, True), (0.05, False),
                      (0.4, True)):
        before = len(made)
        nonlinear_term(ctx, np.full(257, eta))
        assert len(made) == max(before, series.degree(eta) - 1)
        assert (len(made) > before) == more
    assert len(made) <= _SERIES_CAP - 1


@pytest.mark.parametrize("eta, calls", [
    (0.3, 0), (-0.3, 0), (0.6, 16), (-0.5, 16), (1.5, 16), (np.nan, 16),
])
def test_series_past_its_reach_takes_the_gauss_rule(monkeypatch, eta, calls):
    # the series serves |eta| up to about 0.45 here; past the cap, at
    # |eta| >= 1 or for a nan, the call is the Gauss rule's 16 f'' calls
    # of 4096 points
    nl = PowerSum(1.75, 1.7)
    ctx = build_context(nl, classify(nl, 5), 3.0, 43.0, 4096)
    seen = []
    monkeypatch.setattr(nl, "f2", lambda s: seen.append(np.size(s))
                        or type(nl).f2(nl, s))
    e = np.full(4096, 0.01)
    e[17] = eta
    n = nonlinear_term(ctx, e)
    assert seen == [4096] * calls
    assert np.isnan(eta) == np.isnan(n[17])


@pytest.mark.parametrize("nl", SERIES_FAMILIES[:2], ids=repr)
def test_series_value_does_not_depend_on_the_derivative(nl):
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 3.0, 43.0, 801)
    rng = np.random.default_rng(3)
    tail = rng.integers(400, 801, size=2000)
    for mag in (1e-6, 1e-3, 0.05, 0.3, 0.44):
        eta = mag * np.sin(ctx.rho)
        n, _ = nonlinear_term(ctx, eta, derivative=True)
        assert n.tobytes() == nonlinear_term(ctx, eta).tobytes()
        e = rng.uniform(-mag, mag, tail.size)
        n, _ = nonlinear_term(ctx, e, nodes=tail, derivative=True)
        assert n.tobytes() == nonlinear_term(ctx, e, nodes=tail).tobytes()


def test_series_at_the_shapes_lipschitz_check_passes():
    nl = PowerSum(1.75, 1.7)
    ctx = build_context(nl, classify(nl, 5), 3.0, 43.0, 801)
    rng = np.random.default_rng(7)
    ii = rng.integers(400, 801, size=2000)
    e = rng.uniform(-0.1, 0.1, size=2000)
    got = nonlinear_term(ctx, e, nodes=ii)
    assert got.shape == (2000,)
    one = [nonlinear_term(ctx, float(v), nodes=int(i)) for i, v in zip(ii, e)]
    assert all(np.shape(v) == () for v in one)
    assert_allclose(got, one, rtol=SERIES_RTOL, atol=0.0)
    # at one degree a node's value is the full grid's, bitwise
    full = nonlinear_term(ctx, np.full(801, 0.07))
    assert nonlinear_term(ctx, 0.07, nodes=600) == full[600]
    assert (nonlinear_term(ctx, 0.07, nodes=ii).tobytes()
            == full[ii].tobytes())


def test_series_domain_error_as_before():
    nl = PowerSum(1.75, 1.7)
    ctx = build_context(nl, classify(nl, 5), 3.0, 43.0, 257)
    eta = np.full(257, 0.01)
    eta[5] = -1.0  # phi (1 + eta) = 0 = s_min
    for derivative in (False, True):
        with pytest.raises(DomainError, match="node 5:"):
            nonlinear_term(ctx, eta, derivative=derivative)
    with pytest.raises(DomainError, match="node 9:"):
        nonlinear_term(ctx, np.array([0.1, -1.5, 0.2]),
                       nodes=np.array([3, 9, 9]))
    with pytest.raises(DomainError, match="node 200:"):
        nonlinear_term(ctx, -2.0, nodes=200)
