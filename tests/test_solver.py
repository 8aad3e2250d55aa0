import numpy as np
import pytest
from numpy.testing import assert_allclose

from singular_forge import (
    ConvergenceError,
    DomainError,
    GridError,
    KernelSet,
    NoContractionError,
    PowerSum,
    PurePower,
    QuadratureError,
    apply_T,
    build_context,
    case_classify,
    classify,
    fundamental_pair,
    homogeneous_coeffs,
    picard_solve,
    select_rho0,
    sweep,
    weighted_norm,
)
from singular_forge import solver
from singular_forge.solver import RemainderSolution


def _setup(nl, N=5, rho0=3.0, span=20.0, M=513):
    cls = classify(nl, N)
    ctx = build_context(nl, cls, rho0, rho0 + span, M)
    return cls, ctx, KernelSet(cls)


def test_pure_power_trivial_fixed_point():
    cls, ctx, ks = _setup(PurePower(2.0))
    sol = picard_solve(ctx, ks, 0.0, 0.0)
    assert sol.converged and sol.iterations == 1
    assert np.all(sol.eta == 0.0) and np.all(sol.deta == 0.0)


def test_boundary_data_bitwise():
    cls, ctx, ks = _setup(PowerSum(2.0, 1.0))
    sol = picard_solve(ctx, ks, 1e-3, 2e-3)
    assert sol.eta[0] == 1e-3
    assert sol.deta[0] == 2e-3


def test_apply_T_preserves_boundary_for_any_input():
    cls, ctx, ks = _setup(PowerSum(2.0, 1.0))
    rng = np.random.default_rng(3)
    eta = 1e-3 * rng.standard_normal(ctx.grid.M)
    deta = 1e-3 * rng.standard_normal(ctx.grid.M)
    Te, Td = apply_T(ctx, ks, 5e-4, 8e-4, eta, deta)
    assert Te[0] == 5e-4 and Td[0] == 8e-4


def test_power_sum_contraction_metadata():
    cls, ctx, ks = _setup(PowerSum(2.0, 1.0), span=40.0, M=2049)
    sol = picard_solve(ctx, ks, 1e-3, 1e-3)
    assert sol.converged
    assert sol.iterations <= 60
    assert all(r < 0.9 for r in sol.ratios)
    assert sol.weighted_norm_value <= 2.0
    assert sol.case_tag == "A"


def test_linear_consistency_fixed_point():
    # with N[eta] off, the fixed point solves the linear integral equation,
    # i.e. the ODE eta'' + a eta' + b eta + I + L1 eta + L2 eta' = 0
    nl = PowerSum(2.0, 1.9)
    cls, ctx, ks = _setup(nl, rho0=6.0, span=24.0, M=8193)
    sol = picard_solve(ctx, ks, 1e-3, 1e-3, linear_only=True, max_iter=400)
    h = ctx.grid.h
    eta = sol.eta
    d1 = (eta[2:] - eta[:-2]) / (2 * h)
    d2 = (eta[2:] - 2 * eta[1:-1] + eta[:-2]) / (h * h)
    res = (
        d2 + cls.a * d1 + cls.b * eta[1:-1]
        + ctx.I[1:-1] + ctx.L1[1:-1] * eta[1:-1] + ctx.L2[1:-1] * d1
    )
    assert float(np.max(np.abs(res))) <= 1e-6


def test_homogeneous_exactness():
    # zero forcing (pure power) with nonzero data: the converged solution
    # is exactly the homogeneous combination C1 Phi1 + C2 Phi2
    for p in (1.75, 1.8, 2.0):
        cls, ctx, ks = _setup(PurePower(p), rho0=2.0, span=18.0, M=513)
        sol = picard_solve(ctx, ks, 1e-3, 2e-3, linear_only=True)
        c1, c2 = homogeneous_coeffs(cls, 2.0, 1e-3, 2e-3)
        p1, p2, _, _ = fundamental_pair(cls, ctx.rho)
        assert_allclose(sol.eta, c1 * p1 + c2 * p2, rtol=0, atol=1e-12)


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
    sol = picard_solve(ctx, KernelSet(cls_s), 1e-3, 1e-3)
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
        picard_solve(ctx, KernelSet(cls), 2.0, 2.0, max_iter=50)
    assert err.value.solution is not None


def test_weighted_norm_trivial_cases():
    cls, ctx, ks = _setup(PurePower(2.0))
    z = np.zeros(ctx.grid.M)
    sol = RemainderSolution(z, z, 0.0, 0.0, 1e-6)
    assert weighted_norm(sol, ctx, ks, 1e-6) == 0.0
    # eta = delta Q(., rho0), eta' = 0, I = 0 -> norm exactly 1
    from singular_forge import super_kernel

    delta = 0.25
    eta = delta * np.asarray(super_kernel(cls, ctx.rho, ctx.rho[0]))
    sol = RemainderSolution(eta, z, 0.0, 0.0, delta)
    assert_allclose(weighted_norm(sol, ctx, ks, delta), 1.0, rtol=1e-12)


def test_case_classify_examples():
    nl = PurePower(2.0)
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 3.0, 43.0, 513)
    assert case_classify(ctx, cls.Lambda)[0] == "A"

    nl = PowerSum(2.0, 1.0)  # I ~ e^{-4 rho} (degenerate), Lambda = 1/2
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 3.0, 43.0, 513)
    assert case_classify(ctx, cls.Lambda)[0] == "A"

    nl = PowerSum(2.0, 1.9)  # I ~ e^{-0.2 rho} slower than Lambda = 1/2
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 3.0, 43.0, 513)
    assert case_classify(ctx, cls.Lambda)[0] == "B"


def test_sweep_distinctness_and_failures():
    nl = PowerSum(2.0, 1.0)
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 3.0, 33.0, 769)
    ks = KernelSet(cls)
    pairs = [(1e-4 * (i + 1), 1e-4 * (10 - i)) for i in range(10)]
    result = sweep(ctx, ks, pairs)
    assert len(result.solutions) == 10 and not result.failures
    for i, p1 in enumerate(pairs):
        for p2 in pairs[i + 1:]:
            s1, s2 = result.solutions[p1], result.solutions[p2]
            assert abs(s1.eta[0] - s2.eta[0]) == abs(p1[0] - p2[0])
            assert abs(s1.deta[0] - s2.deta[0]) == abs(p1[1] - p2[1])
    # a hopeless pair is reported, not raised
    result = sweep(ctx, ks, [(1e-4, 1e-4), (3.0, 3.0)])
    assert len(result.solutions) == 1 and len(result.failures) == 1
    assert result.max_converged_size == 2e-4


def test_sweep_deterministic_across_worker_counts():
    nl = PowerSum(2.0, 1.0)
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 3.0, 23.0, 257)
    ks = KernelSet(cls)
    pairs = [(1e-4, 2e-4), (5e-4, 1e-4), (2e-4, 2e-4)]
    r1 = sweep(ctx, ks, pairs, max_workers=1)
    r3 = sweep(ctx, ks, pairs, max_workers=3)
    for pair in pairs:
        assert np.array_equal(r1.solutions[pair].eta, r3.solutions[pair].eta)


def test_alpha_beta_sign_rejected():
    cls, ctx, ks = _setup(PurePower(2.0))
    with pytest.raises(ValueError):
        picard_solve(ctx, ks, -1e-3, 0.0)


@pytest.mark.parametrize("max_workers", [1, 2])
@pytest.mark.parametrize("error", [GridError, DomainError, QuadratureError])
def test_sweep_records_library_errors_per_pair(monkeypatch, error,
                                               max_workers):
    nl = PowerSum(2.0, 1.0)
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 3.0, 23.0, 257)
    ks = KernelSet(cls)
    pairs = [(1e-4, 2e-4), (5e-4, 1e-4), (2e-4, 2e-4)]
    bad = pairs[1]
    real = solver.picard_solve

    def picard_failing_on_bad(ctx, ks, alpha, beta, **kwargs):
        if (alpha, beta) == bad:
            raise error("failure in one pair")
        return real(ctx, ks, alpha, beta, **kwargs)

    monkeypatch.setattr(solver, "picard_solve", picard_failing_on_bad)
    result = sweep(ctx, ks, pairs, max_workers=max_workers)
    assert result.failures == {bad: "failure in one pair"}
    assert sorted(result.solutions) == sorted([pairs[0], pairs[2]])
    assert all(sol.converged for sol in result.solutions.values())
