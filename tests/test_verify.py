import itertools
import json
from dataclasses import asdict

import numpy as np
import pytest
from numpy.testing import assert_allclose

from singular_forge import (
    FitError,
    Generic,
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
    table_cell,
    to_radial,
)
from singular_forge import solver, verify
from singular_forge.cli import DEFAULT_CELLS, _clean, main
from singular_forge.solver import RemainderSolution, select_rho0, sweep
from singular_forge.verify import (FAILED, OK, OUT_OF_SCOPE, UNVERIFIED,
                                   run_report, sweep_report)


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
    pred = np.abs(ctx.I) / (cls.b * (m1 + np.asarray(nl.deficits(ctx.phi)[1])))
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


@pytest.mark.parametrize("N, p", [(5, 2.0), (3, 4.5), (3, 4.7)])
def test_lipschitz_check_meets_the_pure_power_supremum(N, p):
    # N[eta] = b ((1+eta)^p - 1 - p eta)/(p-1) for s^p, whose ratio over
    # |eta| <= 0.1 is largest as eta1, eta2 -> 0.1:
    # S = b p (1.1^(p-1) - 1) / (0.2 (p-1)); 2000 samples (run_report's)
    # read 0.9964-1 of it here
    nl = PurePower(p)
    cls = classify(nl, N)
    sup = cls.b * p * (1.1 ** (p - 1.0) - 1.0) / (0.2 * (p - 1.0))
    rep = lipschitz_check(build_context(nl, cls, 3.0, 23.0, 513),
                          samples=2000)
    assert 0.99 * sup <= rep["max_ratio"] <= sup * (1.0 + 1e-6)
    if p == 4.7:
        # the heuristic cap is below the supremum: not a bound
        assert rep["heuristic_cap"] < sup
        assert not rep["bounded"]


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
    diag = limit_diagnostics(ctx)
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
    assert predicted_decay(PowerSum(2.0, 1.0), cls) == (0.5, 0.0)
    assert predicted_decay(PowerSum(2.0, 1.75), cls) == (0.5, 1.0)
    lam, w = predicted_decay(PowerSum(2.0, 1.9), cls)
    assert_allclose(lam, 0.2, rtol=1e-12) and w == 0.0
    cls = classify(PurePower(1.8), 5)  # double root
    assert predicted_decay(PowerSum(1.8, 1.0), cls)[1] == 1.0
    lam, w = predicted_decay(PowerSum(1.8, cls.r_star(1.8)), cls)
    assert w == 2.0
    # log-power family shifts the fitted log exponent by log_exp
    assert predicted_decay(PowerSumLog(1.8, 1.7, 2.0), cls)[1] == 2.0


def test_predicted_decay_is_none_without_a_sum_family():
    for nl in (PurePower(2.0), PowerLog(2.0, 1.0), PowerExpLog(2.0, 0.5)):
        assert predicted_decay(nl, classify(nl, 5)) is None


def test_residual_eta_refinement_rate():
    nl = PowerSum(2.0, 1.0)
    cls = classify(nl, 5)
    res = {}
    for M in (1024, 2047):
        ctx = build_context(nl, cls, 3.0, 23.0, M)
        sol = picard_solve(ctx, 1e-3, 1e-3)
        res[M] = ode_residual_eta(sol, ctx)
    assert 3.4 <= res[1024] / res[2047] <= 4.6


def _cells(cells, family=PowerSum, M=4096, **params):
    # table_cell's dict for each (p, r) of cells, in order
    return [table_cell(5, p, r, family(p, r, **params), M=M).body
            for p, r in cells]


def test_table_report_single_cell():
    reports = _cells([(1.75, 1.0)], M=1025)
    (cell,) = reports
    assert "error" not in cell
    assert cell["within_tolerance"]
    assert cell["supports"] == "corrected"
    assert abs(cell["lambda_fit"] - 1.0 / 3.0) <= 0.0334


def test_table_report_slow_forced_cells_fit_on_the_default_grid():
    # 22 pi / k and 14 / lambda lengthen these grids past the complex floor
    reports = _cells([(1.9, 1.0), (1.85, 1.0), (1.81, 1.0)], M=4096)
    for cell in reports:
        assert "error" not in cell, cell
        assert cell["within_tolerance"], cell
        assert cell["supports"] == "corrected", cell


def test_default_table_cells_keep_their_grid_ends():
    # the ends tables --N 5 has always written; M does not move them
    ends = [cell["rho_max"] for cell in _cells(DEFAULT_CELLS, M=257)]
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
    assert grid_span(nl, cls) == 14.0 / predicted_decay(nl, cls)[0]


def test_table_report_isolates_cell_failures():
    rep = table_cell(5, 3.0, 1.0, PowerSum(3.0, 1.0), M=257)  # supercritical
    assert rep.body == {"p": 3.0, "r": 1.0,
                        "error": "out of scope: Supercritical"}
    assert rep.verdict == "out_of_scope" and rep.solved is None
    # a cell that cannot be solved records its typed error
    rep = table_cell(5, 2.0, 1.0, PowerSum(2.0, 1.0), M=257, max_iter=1)
    assert rep.body["error"].startswith("ConvergenceError: ")
    assert rep.verdict == "failed" and rep.solved is None


def test_table_report_needs_a_family_with_a_predicted_rate():
    rep = table_cell(5, 2.0, 1.0, PowerLog(2.0, 1.0), M=257)
    assert rep.body["error"] == (
        "ConfigError: family: 'power_log' has no predicted decay rate")
    assert rep.verdict == "failed"


def test_table_report_power_sum_log_needs_log_exp():
    # the cell solves with its log power; without one the CLI refuses the
    # run before any cell (test_tables_power_sum_log_needs_log_exp)
    (cell,) = _cells([(2.0, 1.0)], family=PowerSumLog, M=257, log_exp=1.0)
    assert "error" not in cell


def test_radial_residual_refinement_on_fixed_point():
    # full fixed-point solution: residual decays at least quadratically
    # under refinement (the 5-point stencil component starts at O(h^4),
    # so coarse grids shrink faster than 4x before settling onto the
    # solver's O(h^2))
    nl = PowerSum(2.0, 1.0)
    cls = classify(nl, 5)
    res = {}
    for M in (512, 1023, 2045):
        ctx = build_context(nl, cls, 2.0, 10.0, M)
        sol = picard_solve(ctx, 1e-3, 1e-3)
        prof = to_radial(ctx, sol.eta, sol.deta)
        res[M] = ode_residual_radial(prof)
    assert res[512] / res[1023] >= 3.4
    assert res[1023] / res[2045] >= 3.4


def test_limit_diagnostics_reuses_the_context_deficits(monkeypatch):
    # the context's deficits, which take F(phi) from F_inv's last pass (or
    # share power_sum_log's R1 pass), equal the deficits evaluated afresh;
    # the power_sum grid has 8 nodes below _s_series, where F is direct
    for other, grid in [
        (PowerLog(2.0, 1.0), (3.0, 63.0, 193)),
        (PowerSumLog(2.0, 1.0, 1.0), (3.0, 63.0, 193)),
        (Generic(lambda s: s * s + s, lambda s: 2.0 * s + 1.0,
                 lambda s: 2.0), (3.0, 43.0, 129)),
        (PowerSum(1.75, 1.7), (1.0, 21.0, 257)),
    ]:
        ctx = build_context(other, classify(other, 5), *grid)
        if other.name == "power_sum":
            assert np.count_nonzero(ctx.phi < other._s_series) == 8
        fpF, fF = other.deficits(ctx.phi)
        assert ctx.deficit_fpF.tobytes() == np.asarray(
            fpF, dtype=float).tobytes(), other
        assert ctx.deficit_fF.tobytes() == np.asarray(
            fF, dtype=float).tobytes(), other

    nl = PowerExpLog(2.0, 0.5)
    cls = classify(nl, 5)
    ctx = build_context(nl, cls, 3.0, 63.0, 193)
    fpF, fF = nl.deficits(ctx.phi)
    assert ctx.deficit_fpF.tobytes() == np.asarray(fpF, dtype=float).tobytes()
    assert ctx.deficit_fF.tobytes() == np.asarray(fF, dtype=float).tobytes()

    def no_pass(*args):
        raise AssertionError("the deficits were evaluated again")

    monkeypatch.setattr(nl, "deficits", no_pass)
    diag = limit_diagnostics(ctx)
    assert diag["fpF_minus_qf"]["windows"][0] == float(
        np.max(np.abs(ctx.deficit_fpF[(ctx.rho >= 33.0) & (ctx.rho <= 48.0)])))


def _json(body):
    # the body as a JSON file holds it
    return json.loads(json.dumps(_clean(body), sort_keys=True))


def test_sweep_report_out_of_regime_is_the_classification_alone():
    nl = PowerSum(3.0, 1.0)  # supercritical in N = 5
    rep = sweep_report(nl, classify(nl, 5), [(1e-4, 1e-4)])
    assert rep.verdict == OUT_OF_SCOPE and rep.solved is None
    assert list(rep.body) == ["classification"]
    assert rep.body["classification"]["regime"]["reason"] == "Supercritical"


def test_sweep_report_with_every_pair_failing_is_failed():
    # one iteration cannot converge: each pair's failure is recorded
    nl = PowerSum(2.0, 1.0)
    pairs = [(1e-4, 1e-4), (2e-4, 1e-4)]
    rep = sweep_report(nl, classify(nl, 5), pairs, max_iter=1, M=129,
                       rho_max=16.0)
    assert rep.verdict == FAILED
    assert rep.body["solutions"] == {} and rep.body["sup_separations"] == {}
    assert set(rep.body["failures"]) == {"0.0001:0.0001", "0.0002:0.0001"}
    for msg in rep.body["failures"].values():
        assert msg == "tolerance 1e-10 not reached in 1 iterations"
    assert rep.body["max_converged_alpha_plus_beta"] == 0.0
    ctx, result = rep.solved
    assert ctx.grid.M == 129 and result.pairs == pairs


@pytest.mark.parametrize("nl, N, run, verdict, reason", [
    (PowerSum(3.0, 1.0), 5, {}, OUT_OF_SCOPE, "Supercritical"),
    # the CLI's boundary data on a grid ending at rho0 + 40: only six
    # envelope maxima
    (PowerSum(2.0, 1.0), 5,
     {"alpha": 1e-3, "beta": 1e-3, "M": 1025, "rho_max": 43.0}, UNVERIFIED,
     "only 6 envelope maxima in the fit window"),
    # the fit, 0.292, is more than 10% below the predicted 1/3
    (PowerSum(2.5, 1.0), 4, {}, UNVERIFIED, "lambda_within_10pct"),
    # faster than predicted: the rate flag alone fails, and is excused
    (PowerSum(2.0, 1.75), 5, {}, OK, None),
    (PowerSum(2.0, 1.0), 5, {"M": 1025}, OK, None),
], ids=["out_of_regime", "fit_error", "rate_flag", "rate_flag_excused",
        "ok"])
def test_run_report_says_why_its_verdict_is_not_ok(nl, N, run, verdict,
                                                   reason):
    rep = run_report(nl, classify(nl, N), full_verify=True, **run)
    assert (rep.verdict, rep.reason) == (verdict, reason)


@pytest.mark.parametrize("norm, verdict, reason", [
    (None, OK, None), (3.0, UNVERIFIED, "weighted_norm_at_most_2")],
    ids=["as_solved", "norm_forced_to_3"])
def test_run_report_checks_a_family_without_a_predicted_rate(
        monkeypatch, norm, verdict, reason):
    # power_exp_log has no predicted rate, yet its checks decide its verdict
    # as a sum family's do; at M = 192 its weighted norm reads 0.76-1.28
    # for alpha = beta from 3e-4 to 5e-2
    if norm is not None:
        monkeypatch.setattr(solver, "weighted_norm", lambda sol, ctx: norm)
    nl = PowerExpLog(2.0, 0.5)
    rep = run_report(nl, classify(nl, 5), full_verify=True, alpha=3e-4,
                     beta=5e-4, M=192, auto_rho0=False)
    assert (rep.verdict, rep.reason) == (verdict, reason)
    assert [row["ok"] for row in rep.body["verification"]] == [
        norm is None, True, True]


@pytest.mark.parametrize("rise, verdict, reason", [
    (False, OK, None), (True, UNVERIFIED, "limits_decrease_in_tail")],
    ids=["as_built", "one_window_rises"])
def test_run_report_fails_a_tail_limit_that_rises(monkeypatch, rise, verdict,
                                                 reason):
    # the last window of f'F - q_f, the first quantity limit_diagnostics
    # reads, made twice the largest value over the grid: its flag alone
    # fails, and that fails the row
    if rise:
        real, calls = verify._window_max, itertools.count()

        def window_max(values, rho, lo, hi):
            if next(calls) == 2:
                return 2.0 * real(values, rho, rho[0], hi)
            return real(values, rho, lo, hi)

        monkeypatch.setattr(verify, "_window_max", window_max)
    nl = PowerSum(2.0, 1.0)
    rep = run_report(nl, classify(nl, 5), full_verify=True, M=1025)
    assert (rep.verdict, rep.reason) == (verdict, reason)
    flags = {k: v["monotone_decrease"]
             for k, v in rep.body["limit_diagnostics"].items()
             if isinstance(v, dict)}
    assert flags == {"fpF_minus_qf": not rise, "fF_over_phi_minus_m": True,
                     "I": True, "dI_drho": True}
    assert rep.body["verification"][-1] == {
        "name": "limits_decrease_in_tail", "bound": 1e-9, "ok": not rise}


def test_sweep_report_reason_is_the_regime_s_alone():
    # out of regime, the regime's reason; no pair solved is FAILED, and
    # the failures are in the body
    nl = PowerSum(3.0, 1.0)
    assert sweep_report(nl, classify(nl, 5), [(1e-4, 1e-4)]).reason == (
        "Supercritical")
    nl = PowerSum(2.0, 1.0)
    rep = sweep_report(nl, classify(nl, 5), [(1e-4, 1e-4)], max_iter=1,
                       M=129, rho_max=16.0)
    assert (rep.verdict, rep.reason) == (FAILED, None)


def test_sweep_report_is_the_readme_sweep_json(tmp_path, capsys):
    # README's sweep line: the body sweep.json records beside its config,
    # as the CLI assembled it from select_rho0 and grid_span for the
    # largest alpha and beta, one context of 4096 nodes and solver.sweep
    nl = PowerSum(2.0, 1.0)
    cls = classify(nl, 5)
    pairs = [(1e-4, 1e-4), (2e-4, 1e-4), (5e-4, 5e-4)]
    rep = sweep_report(nl, cls, pairs)
    assert rep.verdict == OK
    rho0 = select_rho0(nl, cls, 5e-4, 5e-4, 3.0)
    ctx = build_context(nl, cls, rho0, rho0 + grid_span(nl, cls), 4096)
    result = sweep(ctx, pairs)
    expected = {
        "classification": cls.as_dict(),
        "grid": asdict(ctx.grid),
        "pairs": [list(p) for p in pairs],
        "failures": {},
        "max_converged_alpha_plus_beta": result.max_converged_size,
        "boundary_distinct": result.boundary_distinct,
        "sup_separations": result.sup_separations,
        "solutions": {f"{a}:{b}": result.solutions[(a, b)].as_dict()
                      for a, b in pairs},
    }
    assert _json(rep.body) == _json(expected)
    assert main(["sweep", "--N", "5", "--family", "power_sum", "--p", "2",
                 "--r", "1", "--pairs", "1e-4:1e-4,2e-4:1e-4,5e-4:5e-4",
                 "--format", "json", "--out", str(tmp_path)]) == 0
    written = json.loads((tmp_path / "sweep.json").read_text())
    assert written.pop("config")["pairs"] == [list(p) for p in pairs]
    assert written == _json(rep.body)
