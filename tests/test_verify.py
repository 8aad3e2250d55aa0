import numpy as np
import pytest
from numpy.testing import assert_allclose

from singular_forge import (
    FitError,
    KernelSet,
    PowerExpLog,
    PowerLog,
    PowerSum,
    PowerSumLog,
    PurePower,
    appendix_check,
    build_context,
    classify,
    decay_fit,
    grid_span,
    limit_diagnostics,
    lipschitz_check,
    ode_residual_eta,
    ode_residual_radial,
    picard_solve,
    predicted_decay,
    table_report,
    to_radial,
)
from singular_forge.cli import DEFAULT_CELLS
from singular_forge.solver import RemainderSolution


def _fit_synthetic(cls, rho0, span, M, eta_fn, deta_fn):
    nl = PurePower(2.0) if cls.regime.kind == "complex_roots" else PowerSum(
        1.75, 1.0
    )
    ctx = build_context(nl, cls, rho0, rho0 + span, M)
    sol = RemainderSolution(
        eta_fn(ctx.rho), deta_fn(ctx.rho), 0.0, 0.0, 1e-6
    )
    return decay_fit(sol, ctx)


def test_fit_pure_exponential():
    cls = classify(PowerSum(1.75, 1.0), 5)
    fit = _fit_synthetic(
        cls, 2.0, 30.0, 2001,
        lambda rho: np.exp(-0.5 * rho), lambda rho: np.zeros_like(rho),
    )
    assert abs(fit.lambda_fit - 0.5) <= 1e-3
    assert abs(fit.power_fit) <= 1e-3


def test_fit_polynomial_exponential():
    cls = classify(PowerSum(1.75, 1.0), 5)
    fit = _fit_synthetic(
        cls, 2.0, 30.0, 2001,
        lambda rho: rho * np.exp(-rho), lambda rho: np.zeros_like(rho),
    )
    assert abs(fit.lambda_fit - 1.0) <= 1e-2
    assert abs(fit.power_fit - 1.0) <= 1e-2


def test_fit_oscillatory_uses_maxima():
    cls = classify(PurePower(2.0), 5)
    k = cls.regime.k
    fit = _fit_synthetic(
        cls, 3.0, 55.0, 4001,
        lambda rho: np.exp(-0.5 * rho) * np.cos(k * rho),
        lambda rho: np.exp(-0.5 * rho) * np.sin(k * rho),
    )
    assert fit.used_envelope_maxima
    assert abs(fit.lambda_fit - 0.5) <= 0.02


def test_fit_complex_nonoscillatory_falls_back_to_nodes():
    cls = classify(PurePower(2.0), 5)
    fit = _fit_synthetic(
        cls, 3.0, 55.0, 2001,
        lambda rho: np.exp(-0.2 * rho), lambda rho: np.zeros_like(rho),
    )
    assert not fit.used_envelope_maxima
    assert abs(fit.lambda_fit - 0.2) <= 1e-3


def test_fit_too_few_points():
    cls = classify(PowerSum(1.75, 1.0), 5)
    nl = PowerSum(1.75, 1.0)
    ctx = build_context(nl, cls, 2.0, 12.0, 17)
    sol = RemainderSolution(
        np.exp(-ctx.rho), np.zeros(17), 0.0, 0.0, 1e-6
    )
    with pytest.raises(FitError):
        decay_fit(sol, ctx)


DEFECT_FAMILIES = [
    PowerSum(2.0, 1.0),
    PowerSum(1.75, 1.0),
    PowerLog(2.0, 1.0),
    PowerExpLog(2.0, 0.5),
    PowerSumLog(2.0, 1.0, 1.0),
]


@pytest.mark.parametrize("nl", DEFECT_FAMILIES)
def test_tilde_u_defect_identity(nl):
    # the radial residual of u = tilde_u alone equals the defect
    # I_tilde(r) = tilde_u I(rho) / r^2, i.e. relative residual
    # |I| / (b fF/phi); exact identity, checked within 1% where it
    # stands clear of the differencing noise floor
    cls = classify(nl, 5)
    rho0 = 1.0 if nl.s_min < 2.0 else 1.2
    ctx = build_context(nl, cls, rho0, rho0 + 6.0, 2049)
    z = np.zeros(ctx.grid.M)
    prof = to_radial(ctx, z, z)
    m1 = 1.0 / (nl.p - 1.0)
    pred = np.abs(ctx.I) / (cls.b * (m1 + np.asarray(nl.deficit_fF(ctx.phi))))
    mask = pred > 1e-8
    mask[:2] = mask[-2:] = False
    assert np.count_nonzero(mask) > 100
    ratio = prof.residual[mask] / pred[mask]
    assert np.max(np.abs(ratio - 1.0)) <= 0.01


def test_lipschitz_pure_power_exact_bound():
    # N[eta] = 2 eta^2 for p = 2, N = 5: the ratio is
    # 2|eta1 + eta2| / (|eta1| + |eta2|) <= 2
    nl = PurePower(2.0)
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 3.0, 23.0, 513)
    rep = lipschitz_check(ctx, samples=4000)
    assert rep["max_ratio"] <= 2.0 + 1e-9
    assert rep["bounded"]


def test_lipschitz_power_sum_bounded():
    nl = PowerSum(2.0, 1.0)
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 3.0, 23.0, 513)
    rep = lipschitz_check(ctx, samples=10000)
    assert rep["max_ratio"] <= 6.0


def test_limit_diagnostics_monotone_smoke():
    nl = PowerSum(2.0, 1.0)
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 2.0, 18.0, 1025)
    diag = limit_diagnostics(nl, cls, ctx)
    for key in ("fpF_minus_qf", "fF_over_phi_minus_m", "I", "dI_drho"):
        assert diag[key]["monotone_decrease"], key
    assert diag["tail_phi_ratio_deficit"] <= 1e-2


def test_appendix_expansion_degenerate_sum():
    # p = 2, r = 1: F^-1(sigma) = 1/(e^sigma - 1) = 1/sigma - 1/2 + sigma/12...
    nl = PowerSum(2.0, 1.0)
    out = appendix_check(nl, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    assert out["max_R"] <= 0.1
    # R -> 1/12 (frozen Laurent values); at sigma = 1e-6 the subtraction
    # |F^-1 - 1/sigma| leaves ~0.3% of float64 noise in R, so the tight
    # comparison sits at 1e-2 and 1e-4
    assert_allclose(out["R"][0], 0.08333319444477513, rtol=1e-6)
    assert_allclose(out["R"][2], 1.0 / 12.0, rtol=1e-6)
    assert_allclose(out["R"][-1], 1.0 / 12.0, rtol=5e-3)


def test_appendix_boundedness_generic_exponents():
    nl = PowerSum(2.0, 1.5)
    out = appendix_check(nl, [1e-4, 1e-6])
    assert out["R"][1] <= 2.0 * out["R"][0] + 1e-12
    assert out["R"][0] <= 2.0 * out["R"][1] + 1e-12


def test_appendix_rejects_pure_power():
    with pytest.raises(ValueError):
        appendix_check(PurePower(2.0), [1e-3])


def test_predicted_decay_rows():
    cls = classify(PurePower(2.0), 5)  # complex, Lambda = 0.5, r* = 1.75
    assert predicted_decay(cls, 2.0, 1.0) == (0.5, 0.0)
    assert predicted_decay(cls, 2.0, 1.75) == (0.5, 1.0)
    lam, w = predicted_decay(cls, 2.0, 1.9)
    assert_allclose(lam, 0.2, rtol=1e-12) and w == 0.0
    cls = classify(PurePower(1.8), 5)  # double root
    assert predicted_decay(cls, 1.8, 1.0)[1] == 1.0
    lam, w = predicted_decay(cls, 1.8, cls.r_star(1.8))
    assert w == 2.0
    # log-power family shifts the fitted log exponent by log_exp
    assert predicted_decay(cls, 1.8, 1.7, log_exp=2.0)[1] == 2.0


def test_residual_eta_refinement_rate():
    nl = PowerSum(2.0, 1.0)
    cls = classify(nl, 5)
    ks = KernelSet(cls)
    res = {}
    for M in (1024, 2047):
        ctx = build_context(nl, cls, 3.0, 23.0, M)
        sol = picard_solve(ctx, ks, 1e-3, 1e-3)
        res[M] = ode_residual_eta(sol, ctx)
    assert 3.4 <= res[1024] / res[2047] <= 4.6


def test_table_report_single_cell():
    reports = table_report(5, [(1.75, 1.0)], M=1025)
    (cell,) = reports
    assert "error" not in cell
    assert cell["within_tolerance"]
    assert cell["case"] == "A"
    assert cell["supports"] == "corrected"
    assert abs(cell["lambda_fit"] - 1.0 / 3.0) <= 0.0334


def test_table_report_slow_forced_cells_fit_on_the_default_grid():
    # 22 pi / k and 14 / lambda lengthen these grids past the complex floor
    reports = table_report(5, [(1.9, 1.0), (1.85, 1.0), (1.81, 1.0)], M=4096)
    for cell in reports:
        assert "error" not in cell, cell
        assert cell["within_tolerance"], cell
        assert cell["supports"] == "corrected", cell


def test_default_table_cells_keep_their_grid_ends():
    # the ends tables --N 5 has always written; M does not move them
    ends = [cell["rho_max"] for cell in table_report(5, DEFAULT_CELLS, M=257)]
    assert ends == [48.0, 107.99999999999991, 31.0, 58.0, 72.99999999999994]


def test_grid_span_takes_the_largest_of_its_three_rules():
    # floor: the complex pair of p = 2 has 22 pi / k = 52.25 and 14 / 0.5
    cls = classify(PurePower(2.0), 5)
    assert grid_span(PurePower(2.0), cls) == 55.0
    # eight maxima pi / k apart in the fit window, 0.4 S wide
    nl = PowerSum(1.81, 1.0)
    cls = classify(nl, 5)
    span = grid_span(nl, cls)
    assert span == 22.0 * np.pi / cls.regime.k
    assert 0.4 * span >= 8.0 * np.pi / cls.regime.k
    # fourteen e-foldings of the forced rate 0.2
    nl = PowerSum(2.0, 1.9)
    cls = classify(nl, 5)
    assert grid_span(nl, cls) == 14.0 / predicted_decay(cls, 2.0, 1.9)[0]


def test_table_report_isolates_cell_failures():
    reports = table_report(5, [(3.0, 1.0)], M=257)  # supercritical
    assert "error" in reports[0]


def test_table_report_bad_parameters_become_cell_errors():
    # p <= 1 is rejected by the family constructor: a configuration error
    reports = table_report(5, [(0.5, 0.25), (1.75, 1.0)], M=257)
    assert reports[0]["error"].startswith("ConfigError: p must exceed 1")
    assert "error" not in reports[1]


def test_radial_residual_refinement_on_fixed_point():
    # full fixed-point solution: residual decays at least quadratically
    # under refinement (the 5-point stencil component starts at O(h^4),
    # so coarse grids shrink faster than 4x before settling onto the
    # solver's O(h^2))
    nl = PowerSum(2.0, 1.0)
    cls = classify(nl, 5)
    ks = KernelSet(cls)
    res = {}
    for M in (512, 1023, 2045):
        ctx = build_context(nl, cls, 2.0, 10.0, M)
        sol = picard_solve(ctx, ks, 1e-3, 1e-3)
        prof = to_radial(ctx, sol.eta, sol.deta)
        res[M] = ode_residual_radial(prof)
    assert res[512] / res[1023] >= 3.4
    assert res[1023] / res[2045] >= 3.4
