import hashlib
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from singular_forge import (
    ConvergenceError,
    DomainError,
    GridError,
    IterateOutOfDomainError,
    KernelSet,
    NoContractionError,
    PowerExpLog,
    PowerLog,
    PowerSum,
    PurePower,
    QuadratureError,
    apply_T,
    build_context,
    case_classify,
    classify,
    convolve_cumulative,
    fundamental_pair,
    homogeneous_coeffs,
    homogeneous_pair,
    picard_solve,
    select_rho0,
    solve_linear_volterra,
    sweep,
    weighted_norm,
)
from singular_forge import profile, solver
from singular_forge.solver import RemainderSolution


def _setup(nl, N=5, rho0=3.0, span=20.0, M=513):
    cls = classify(nl, N)
    ctx = build_context(nl, cls, rho0, rho0 + span, M)
    return cls, ctx, KernelSet(cls)


def test_pure_power_trivial_fixed_point():
    cls, ctx, ks = _setup(PurePower(2.0))
    sol = picard_solve(ctx, 0.0, 0.0)
    assert sol.converged and sol.iterations == 1
    assert np.all(sol.eta == 0.0) and np.all(sol.deta == 0.0)


def test_boundary_data_bitwise():
    cls, ctx, ks = _setup(PowerSum(2.0, 1.0))
    sol = picard_solve(ctx, 1e-3, 2e-3)
    assert sol.eta[0] == 1e-3
    assert sol.deta[0] == 2e-3


def test_apply_T_preserves_boundary_for_any_input():
    cls, ctx, ks = _setup(PowerSum(2.0, 1.0))
    rng = np.random.default_rng(3)
    eta = 1e-3 * rng.standard_normal(ctx.grid.M)
    deta = 1e-3 * rng.standard_normal(ctx.grid.M)
    pair = homogeneous_pair(cls, ctx.rho - ctx.grid.rho0, 5e-4, 8e-4)
    Te, Td = apply_T(ctx, pair, eta, deta)
    assert Te[0] == 5e-4 and Td[0] == 8e-4


def test_picard_computes_the_homogeneous_part_once(monkeypatch):
    cls, ctx, ks = _setup(PowerSum(2.0, 1.0))
    calls = []
    original = solver.homogeneous_pair

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(solver, "homogeneous_pair", counted)
    sol = picard_solve(ctx, 1e-3, 2e-3)
    assert sol.iterations > 1
    assert len(calls) == 1


def test_power_sum_contraction_metadata():
    cls, ctx, ks = _setup(PowerSum(2.0, 1.0), span=40.0, M=2049)
    sol = picard_solve(ctx, 1e-3, 1e-3)
    assert sol.converged
    assert sol.iterations <= 60
    assert all(r < 0.9 for r in sol.ratios)
    assert sol.weighted_norm_value <= 2.0
    assert sol.case_tag == "A"


def _linear_T(ctx, ks, pair, eta, deta):
    """T with N[eta] off: Phi - K*(I + L1 eta + L2 eta')."""
    ik, idk = convolve_cumulative(ks, ctx.rho,
                                  ctx.I + ctx.L1 * eta + ctx.L2 * deta)
    return pair[0] - ik, pair[1] - idk


def test_linear_consistency_fixed_point():
    # with N[eta] off, the fixed point solves the linear integral equation,
    # i.e. the ODE eta'' + a eta' + b eta + I + L1 eta + L2 eta' = 0
    nl = PowerSum(2.0, 1.9)
    cls, ctx, ks = _setup(nl, rho0=6.0, span=24.0, M=8193)
    pair = homogeneous_pair(cls, ctx.rho - ctx.grid.rho0, 1e-3, 1e-3)
    eta, _ = solve_linear_volterra(ks, ctx.rho, pair, ctx.I, ctx.L1, ctx.L2)
    h = ctx.grid.h
    d1 = (eta[2:] - eta[:-2]) / (2 * h)
    d2 = (eta[2:] - 2 * eta[1:-1] + eta[:-2]) / (h * h)
    res = (
        d2 + cls.a * d1 + cls.b * eta[1:-1]
        + ctx.I[1:-1] + ctx.L1[1:-1] * eta[1:-1] + ctx.L2[1:-1] * d1
    )
    assert float(np.max(np.abs(res))) <= 1e-6


def test_homogeneous_exactness():
    # zero forcing (pure power) with nonzero data: the linear equation's
    # solution is exactly the homogeneous combination C1 Phi1 + C2 Phi2
    for p in (1.75, 1.8, 2.0):
        cls, ctx, ks = _setup(PurePower(p), rho0=2.0, span=18.0, M=513)
        pair = homogeneous_pair(cls, ctx.rho - ctx.grid.rho0, 1e-3, 2e-3)
        eta, _ = solve_linear_volterra(ks, ctx.rho, pair, ctx.I, ctx.L1,
                                       ctx.L2)
        c1, c2 = homogeneous_coeffs(cls, 2.0, 1e-3, 2e-3)
        p1, p2, _, _ = fundamental_pair(cls, ctx.rho)
        assert_allclose(eta, c1 * p1 + c2 * p2, rtol=0, atol=1e-12)


def test_select_rho0_pure_power_immediate():
    nl = PurePower(2.0)
    cls = classify(nl, 5)
    assert select_rho0(nl, cls, 1e-3, 1e-3, 3.0) == 3.0


def test_select_rho0_slow_decay_needs_larger():
    nl_fast = PowerSum(2.0, 1.0)
    nl_slow = PowerSum(2.0, 1.9)
    cls_f = classify(nl_fast, 5)
    cls_s = classify(nl_slow, 5)
    r_fast = select_rho0(nl_fast, cls_f, 1e-3, 1e-3, 1.0)
    r_slow = select_rho0(nl_slow, cls_s, 1e-3, 1e-3, 1.0)
    assert r_slow >= r_fast
    # the returned rho0 admits a fully converged run
    ctx = build_context(nl_slow, cls_s, r_slow, r_slow + 40.0, 1025)
    sol = picard_solve(ctx, 1e-3, 1e-3)
    assert sol.converged


def test_select_rho0_rejects_huge_data():
    nl = PowerSum(2.0, 1.0)
    cls = classify(nl, 5)
    with pytest.raises(NoContractionError):
        select_rho0(nl, cls, 5.0, 5.0, 3.0)


def test_select_rho0_propagates_programming_errors(monkeypatch):
    nl = PowerSum(2.0, 1.0)
    cls = classify(nl, 5)

    def broken(*args, **kwargs):
        raise TypeError("not a numerical failure")

    monkeypatch.setattr(solver, "build_context", broken)
    with pytest.raises(TypeError):
        select_rho0(nl, cls, 1e-3, 1e-3, 3.0)


def test_picard_failure_carries_diagnostics():
    nl = PowerSum(2.0, 1.0)
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 3.0, 23.0, 257)
    with pytest.raises(ConvergenceError) as err:
        picard_solve(ctx, 2.0, 2.0, max_iter=50)
    assert err.value.solution is not None


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float)).hexdigest()


# per failing exit: (alpha, beta, max_iter), the error it raises, and the
# partial solution's fields, with sha256 digests of eta and eta'
_PARTIAL_SOLUTIONS = {
    "domain": ((2.0, 2.0, 50), IterateOutOfDomainError, dict(
        iterations=2, ratios=[], final_change=math.inf, newton_steps=0,
        eta="aa6408dfe523f74922ce61e63f47b9804651c58de97adfead6494997eafbd8a3",
        deta="27edb71bcf30b6119506dd1b96d4e7ab0e3a020c10ee4d8c0ddbc0d88c69d780",
    )),
    "max_iter": ((0.05, 0.05, 3), ConvergenceError, dict(
        iterations=3, ratios=[0.047271539898775555, 0.023733739700227432],
        final_change=5.974809276980452e-06, newton_steps=0,
        eta="d511b79b7ddf88c5dd06e7f44f5c823a81538a8d6b213d401aff8133304ac18d",
        deta="3c60e09a66ec7a962ce8ed0f6c1201de4cf1b1e602109be238011d8e5fab3b9a",
    )),
    "no_contraction": ((1e-3, 2e-3, 200), ConvergenceError, dict(
        iterations=4, ratios=[2.0, 1.9999999999999525, 2.0],
        final_change=1.600000000000001e-05, newton_steps=0,
        eta="e7e3cc628f5bbe47bcab45a5b1ceef9244c2c3dc73f67de03ed708c771534601",
        deta="83819899823d6dcafa6169f59292d403260eb155ab631158903abe8fa3c7559c",
    )),
}


@pytest.mark.parametrize("exit_", sorted(_PARTIAL_SOLUTIONS))
def test_picard_failures_hand_back_their_partial_solution(exit_, monkeypatch):
    # each failing exit returns the state the solve had when it stopped:
    # the iterate it last accepted, its counts and ratios, and the last
    # change (inf when T left the domain)
    (alpha, beta, max_iter), error, want = _PARTIAL_SOLUTIONS[exit_]
    nl = PowerSum(2.0, 1.0)
    ctx = build_context(nl, classify(nl, 5), 3.0, 23.0, 257)
    if exit_ == "no_contraction":
        # no natural case is known: a map whose change doubles each step
        def doubling(ctx, homogeneous, eta, deta):
            doubling.calls += 1
            return eta + 1e-6 * 2.0 ** doubling.calls, deta

        doubling.calls = 0
        monkeypatch.setattr(solver, "apply_T", doubling)
    with pytest.raises(ConvergenceError) as err:
        picard_solve(ctx, alpha, beta, max_iter=max_iter)
    assert type(err.value) is error and err.value.ratios == want["ratios"]
    sol = err.value.solution
    got = dict(iterations=sol.iterations, ratios=sol.ratios,
               final_change=sol.final_change, newton_steps=sol.newton_steps,
               eta=_digest(sol.eta), deta=_digest(sol.deta))
    assert got == want and not sol.converged


def test_weighted_norm_trivial_cases():
    cls, ctx, ks = _setup(PurePower(2.0))
    z = np.zeros(ctx.grid.M)
    sol = RemainderSolution(z, z, 0.0, 0.0, 1e-6)
    assert weighted_norm(sol, ctx) == 0.0
    # eta = delta Q(., rho0), eta' = 0, I = 0 -> norm exactly 1
    from singular_forge import super_kernel

    delta = 0.25
    eta = delta * np.asarray(super_kernel(cls, ctx.rho, ctx.rho[0]))
    sol = RemainderSolution(eta, z, 0.0, 0.0, delta)
    assert_allclose(weighted_norm(sol, ctx), 1.0, rtol=1e-12)


def test_case_classify_examples():
    nl = PurePower(2.0)
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 3.0, 43.0, 513)
    assert case_classify(ctx)[0] == "A"

    nl = PowerSum(2.0, 1.0)  # I ~ e^{-4 rho} (degenerate), Lambda = 1/2
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 3.0, 43.0, 513)
    assert case_classify(ctx)[0] == "A"

    nl = PowerSum(2.0, 1.9)  # I ~ e^{-0.2 rho} slower than Lambda = 1/2
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 3.0, 43.0, 513)
    assert case_classify(ctx)[0] == "B"


def test_sweep_distinctness_and_failures():
    nl = PowerSum(2.0, 1.0)
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 3.0, 33.0, 769)
    pairs = [(1e-4 * (i + 1), 1e-4 * (10 - i)) for i in range(10)]
    result = sweep(ctx, pairs)
    assert len(result.solutions) == 10 and not result.failures
    for i, p1 in enumerate(pairs):
        for p2 in pairs[i + 1:]:
            s1, s2 = result.solutions[p1], result.solutions[p2]
            assert abs(s1.eta[0] - s2.eta[0]) == abs(p1[0] - p2[0])
            assert abs(s1.deta[0] - s2.deta[0]) == abs(p1[1] - p2[1])
    # a hopeless pair is reported, not raised
    result = sweep(ctx, [(1e-4, 1e-4), (3.0, 3.0)])
    assert len(result.solutions) == 1 and len(result.failures) == 1
    assert result.max_converged_size == 2e-4


def test_alpha_beta_sign_rejected():
    cls, ctx, ks = _setup(PurePower(2.0))
    with pytest.raises(ValueError):
        picard_solve(ctx, -1e-3, 0.0)


@pytest.mark.parametrize("bad_index", [1, 2])
@pytest.mark.parametrize("error", [GridError, DomainError, QuadratureError])
def test_sweep_records_library_errors_per_pair(monkeypatch, error, bad_index):
    # the failing pair sits in the middle (1) or last (2) of the sweep
    nl = PowerSum(2.0, 1.0)
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 3.0, 23.0, 257)
    pairs = [(1e-4, 2e-4), (5e-4, 1e-4), (2e-4, 2e-4)]
    bad = pairs[bad_index]
    real = solver.picard_solve

    def picard_failing_on_bad(ctx, alpha, beta, **kwargs):
        if (alpha, beta) == bad:
            raise error("failure in one pair")
        return real(ctx, alpha, beta, **kwargs)

    monkeypatch.setattr(solver, "picard_solve", picard_failing_on_bad)
    result = sweep(ctx, pairs)
    assert result.failures == {bad: "failure in one pair"}
    assert sorted(result.solutions) == sorted(p for p in pairs if p != bad)
    assert all(sol.converged for sol in result.solutions.values())


# -- Newton finishing slow solves ------------------------------------------

# power_exp_log and power_log (complex pair) switch to Newton on their own;
# the two-real-root and double-root cells, at ratio 0.08, only when forced
NEWTON_CELLS = {
    "power_exp_log": (PowerExpLog(2.0, 0.5), False),
    "power_log": (PowerLog(2.0, 1.0), False),
    "two_real": (PowerSum(1.75, 1.7), True),
    "double": (PowerSum(1.8, 1.7), True),
}


@pytest.mark.parametrize("name", list(NEWTON_CELLS))
def test_newton_agrees_with_pure_picard(monkeypatch, name):
    nl, forced = NEWTON_CELLS[name]
    if forced:
        monkeypatch.setattr(solver, "_SWITCH_RATIO", 0.0)
    cls, ctx, ks = _setup(nl, span=60.0, M=1025)
    pure = picard_solve(ctx, 3e-4, 5e-4, _newton=False)
    sol = picard_solve(ctx, 3e-4, 5e-4)
    assert sol.converged and sol.newton_steps > 0
    assert sol.iterations == solver._TRANSIENT + 2 < pure.iterations
    # ratios are those of the T steps before the switch
    assert sol.ratios == pure.ratios[:solver._TRANSIENT]
    assert sol.final_change < 1e-10
    assert max(np.max(np.abs(sol.eta - pure.eta)),
               np.max(np.abs(sol.deta - pure.deta))) <= 1e-10
    # boundary data stay bitwise
    assert sol.eta[0] == 3e-4 and sol.deta[0] == 5e-4
    assert sol.weighted_norm_value == pytest.approx(
        pure.weighted_norm_value, rel=1e-8)


@pytest.mark.parametrize("nl", [PowerSum(1.75, 1.0), PowerSum(1.8, 1.0),
                                PowerSum(2.0, 1.0)],
                         ids=["two_real", "double", "complex"])
def test_march_is_the_fixed_point_of_linear_T(nl):
    cls, ctx, ks = _setup(nl, span=40.0, M=2049)
    pair = homogeneous_pair(cls, ctx.rho - ctx.grid.rho0, 1e-3, 2e-3)
    eta, deta = solve_linear_volterra(ks, ctx.rho, pair, ctx.I, ctx.L1,
                                      ctx.L2)
    Te, Td = _linear_T(ctx, ks, pair, eta, deta)
    assert np.max(np.abs(Te - eta)) <= 1e-12
    assert np.max(np.abs(Td - deta)) <= 1e-12


def test_newton_is_deterministic():
    cls, ctx, ks = _setup(PowerExpLog(2.0, 0.5), span=60.0, M=257)
    s1 = picard_solve(ctx, 3e-4, 5e-4)
    s2 = picard_solve(ctx, 3e-4, 5e-4)
    assert s1.newton_steps > 0
    assert s1.eta.tobytes() == s2.eta.tobytes()
    assert s1.deta.tobytes() == s2.deta.tobytes()


def test_fast_contraction_stays_on_picard(monkeypatch):
    # power_sum 1.75,1.7 contracts at ratio 0.08, below the switch
    cls, ctx, ks = _setup(PowerSum(1.75, 1.7), span=60.0, M=1025)
    called = []
    monkeypatch.setattr(solver, "solve_linear_volterra",
                        lambda *a: called.append(a))
    sol = picard_solve(ctx, 3e-4, 5e-4)
    assert sol.converged and sol.newton_steps == 0 and not called


def _assert_bitwise_same_solve(a, b):
    assert a.eta.tobytes() == b.eta.tobytes()
    assert a.deta.tobytes() == b.deta.tobytes()
    assert (a.iterations, a.ratios, a.final_change, a.contraction_ratio) \
        == (b.iterations, b.ratios, b.final_change, b.contraction_ratio)


def test_newton_failure_hands_back_to_picard(monkeypatch):
    cls, ctx, ks = _setup(PowerExpLog(2.0, 0.5), span=60.0, M=257)
    pure = picard_solve(ctx, 3e-4, 5e-4, _newton=False)
    real = solver.solve_linear_volterra

    def growing(*args):
        # each march moves farther from its start: no step shrinks
        growing.scale *= 10.0
        eta, deta = real(*args)
        return eta * (1.0 + growing.scale * 1e-6), deta

    growing.scale = 1.0
    monkeypatch.setattr(solver, "solve_linear_volterra", growing)
    sol = picard_solve(ctx, 3e-4, 5e-4)
    assert sol.newton_steps >= 2
    _assert_bitwise_same_solve(sol, pure)


def test_newton_leaving_the_domain_hands_back_to_picard(monkeypatch):
    cls, ctx, ks = _setup(PowerExpLog(2.0, 0.5), span=60.0, M=257)
    pure = picard_solve(ctx, 3e-4, 5e-4, _newton=False)
    real = solver.solve_linear_volterra

    def outside(*args):
        eta, deta = real(*args)
        return np.full_like(eta, -2.0), deta  # phi(1 + eta) < 0

    monkeypatch.setattr(solver, "solve_linear_volterra", outside)
    sol = picard_solve(ctx, 3e-4, 5e-4)
    assert sol.newton_steps == 1
    _assert_bitwise_same_solve(sol, pure)


def test_select_rho0_probes_with_T_alone(monkeypatch):
    nl = PowerExpLog(2.0, 0.5)
    cls = classify(nl, 5)

    def no_newton(*args):
        raise AssertionError("select_rho0 must probe T, not Newton")

    monkeypatch.setattr(solver, "_newton_phase", no_newton)
    assert select_rho0(nl, cls, 3e-4, 5e-4, 3.0) == 3.0


def test_sweep_computes_context_terms_once(monkeypatch):
    nl = PowerSum(2.0, 1.0)
    cls = classify(nl, 5)
    pairs = [(1e-4, 2e-4), (5e-4, 1e-4), (2e-4, 2e-4)]
    # each pair solved alone on a fresh context, as the parent code did
    solo = {}
    for pair in pairs:
        ctx = build_context(nl, cls, 3.0, 33.0, 769)
        solo[pair] = picard_solve(ctx, *pair)
    counts = {}
    for name in ("super_kernel", "convolve_Q_cumulative", "case_classify"):
        real = getattr(profile, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _real(*args)

        monkeypatch.setattr(profile, name, counted)
    ctx = build_context(nl, cls, 3.0, 33.0, 769)
    result = sweep(ctx, pairs)
    assert counts == {"super_kernel": 1, "convolve_Q_cumulative": 1,
                      "case_classify": 1}
    for pair in pairs:
        got, want = result.solutions[pair], solo[pair]
        assert got.eta.tobytes() == want.eta.tobytes()
        assert got.weighted_norm_value == want.weighted_norm_value
        assert got.case_tag == want.case_tag
