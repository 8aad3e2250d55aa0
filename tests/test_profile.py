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
    nonlinear_term_and_derivative,
    nonlinear_term_at,
    tilde_u,
    to_radial,
)
from singular_forge.profile import _RULES, _gauss_rule, _remainder


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
    assert_allclose(nonlinear_term_at(ctx, 7, 0.1), 0.02, rtol=1e-12)


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


GENERIC_POWER_SUM = Generic(
    lambda u: u * u + u ** 1.5,
    lambda u: 2.0 * u + 1.5 * u ** 0.5,
    lambda u: 2.0 + 0.75 * u ** -0.5,
    qf=2.0,
)
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


def _per_node_remainder(ctx, nodes, eta):
    # one f2 call per Gauss node of the rule the call picks, accumulated in
    # node order
    eta = np.asarray(eta, dtype=float)
    phi = ctx.phi[nodes]
    gauss_t, gauss_w, _ = _gauss_rule(ctx, *np.broadcast_arrays(phi, eta))
    acc = 0.0
    for t, w in zip(gauss_t, gauss_w):
        acc = acc + w * np.asarray(ctx.nl.f2(phi * (1.0 + t * eta)),
                                   dtype=float)
    return ctx.cls.b * ctx.Fphi[nodes] * phi * eta * eta * acc


@pytest.mark.parametrize("nl", REMAINDER_FAMILIES,
                         ids=lambda nl: nl.name)
def test_grouped_remainder_equals_per_node_loop_bitwise(nl):
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
            got = _remainder(ctx, nodes, eta)
            want = _per_node_remainder(ctx, nodes, eta)
            assert np.shape(got) == np.shape(want), (M, nodes)
            assert (np.asarray(got).tobytes()
                    == np.asarray(want).tobytes()), (M, nodes)


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
            n, dn = _remainder(ctx, nodes, eta, derivative=True)
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
    """Sizes of the f2 calls one nonlinear_term makes at constant eta."""
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
    seen = _count_f2(PowerSum(1.75, 1.7), M, 0.4)
    assert len(seen) == calls
    assert sum(seen) == 16 * M


@pytest.mark.parametrize("eta, points", [
    (1e-3, 4), (-0.02, 4), (0.1, 8), (0.3, 8), (-0.25, 8), (0.4, 16),
    (-0.3, 16),
])
def test_nonlinear_term_rule_follows_eta(eta, points):
    # s_min = 0, so zeta = eta: 4 points up to 0.0223 (0.0219 below 0),
    # 8 up to 0.347 (0.258), else 16; one f2 call per point at M=4096
    seen = _count_f2(PowerSum(1.75, 1.7), 4096, eta)
    assert seen == [4096] * points


@pytest.mark.parametrize("nl", [PurePower(2.0), PowerSum(1.75, 1.7),
                                PowerExpLog(2.0, 0.5)],
                         ids=lambda nl: nl.name)
def test_nonlinear_term_derivative_from_the_same_pass(nl):
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 3.0, 23.0, 257)
    eta = 0.2 * np.sin(ctx.rho)
    n, dn = nonlinear_term_and_derivative(ctx, eta)
    assert n.tobytes() == nonlinear_term(ctx, eta).tobytes()
    # N'[eta] = b F(phi) (f'(phi(1+eta)) - f'(phi)), differenced directly
    # where eta is large enough that the difference keeps its digits
    direct = cls.b * ctx.Fphi * (nl.f1(ctx.phi * (1.0 + eta))
                                 - nl.f1(ctx.phi))
    big = np.abs(eta) > 0.05
    assert_allclose(dn[big], direct[big], rtol=1e-12, atol=0.0)
    with pytest.raises(DomainError):
        nonlinear_term_and_derivative(ctx, np.full_like(eta, -2.0))
