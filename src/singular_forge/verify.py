"""Verification harness: run_report, the one report of a solved run, and
sweep_report, that of a sweep on one context; ODE residuals, limit
diagnostics over the tail's dyadic windows (one row of run_report's checks),
decay-rate fits and the sum family's check.

Residual conventions.  The radial operator is evaluated through the Emden
chain rule, -u'' - (N-1)/r u' = e^{2 rho} ((N-2) u_rho - u_rhorho), with
u_rho assembled analytically from the cached phi' and the iterated eta'
(halving the differencing noise) and u_rhorho from a 5-point centered
stencil.  The remainder-equation residual uses plain 3-point stencils so
grid refinement shows the solver's own O(h^2) rate.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .classification import REGIME_COMPLEX, REGIME_DOUBLE, classify
from .errors import ConfigError, FitError, SingularForgeError
from .nonlinearity import PowerSum, PowerSumLog
from .profile import build_context, nonlinear_term, to_radial
from .solver import picard_solve, select_rho0, sweep

# a fitted decay rate within this fraction of the predicted one matches it
_RATE_TOLERANCE = 0.10
# a window maximum may exceed the one before it by this fraction and still
# count as decreasing
_TAIL_SLACK = 1e-9


def ode_residual_radial(prof):
    """Max relative radial residual over interior nodes, for the
    nonlinearity of the profile's context."""
    return float(np.max(prof.residual[2:-2]))


def ode_residual_eta(sol, ctx):
    """Max absolute residual of the remainder equation
    eta'' + a eta' + b eta + I + L1 eta + L2 eta' + N[eta] = 0,
    with eta'' and eta' from centered 3-point stencils of the eta grid."""
    h = ctx.grid.h
    eta = sol.eta
    d1 = (eta[2:] - eta[:-2]) / (2.0 * h)
    d2 = (eta[2:] - 2.0 * eta[1:-1] + eta[:-2]) / (h * h)
    a, b = ctx.cls.a, ctx.cls.b
    nterm = nonlinear_term(ctx, eta)[1:-1]
    res = (
        d2
        + a * d1
        + b * eta[1:-1]
        + ctx.I[1:-1]
        + ctx.L1[1:-1] * eta[1:-1]
        + ctx.L2[1:-1] * d1
        + nterm
    )
    return float(np.max(np.abs(res)))


def _window_max(values, rho, lo, hi):
    mask = (rho >= lo) & (rho <= hi)
    if not np.any(mask):
        return 0.0
    return float(np.max(np.abs(values[mask])))


def limit_diagnostics(ctx):
    """Tail behavior of the classification limits on the context grid.

    Returns per-quantity window maxima over the last three dyadic windows
    and flags whether each decreases monotonically, up to _TAIL_SLACK (the
    zero case of the pure power passes trivially).  The deficits are the
    ones build_context evaluated for ctx.
    """
    rho = ctx.rho
    span = rho[-1] - rho[0]
    dI = np.gradient(ctx.I, rho)
    quantities = {
        "fpF_minus_qf": ctx.deficit_fpF,
        "fF_over_phi_minus_m": ctx.deficit_fF,
        "I": ctx.I,
        "dI_drho": dI,
    }
    edges = [rho[0] + w * span for w in (0.5, 0.75, 0.875, 1.0)]
    bounds = list(zip(edges[:-1], edges[1:]))
    out = {}
    for name, vals in quantities.items():
        wins = [_window_max(vals, rho, lo, hi) for lo, hi in bounds]
        mono = all(
            wins[i + 1] <= wins[i] * (1.0 + _TAIL_SLACK) + 1e-300
            for i in range(len(wins) - 1)
        )
        out[name] = {"windows": wins, "monotone_decrease": mono}
    # tail values (last 10% of the grid)
    tail = rho >= rho[-1] - 0.1 * span
    out["tail_phi_ratio_deficit"] = float(
        np.max(np.abs(ctx.dphi[tail] / ctx.phi[tail] - ctx.cls.m))
    )
    return out


def lipschitz_check(ctx, samples=10000):
    """Empirical bound for |N[eta1]-N[eta2]| / ((|eta1|+|eta2|) |eta1-eta2|)
    over random pairs (seeded, |eta| <= 0.1) at tail nodes; reports the
    heuristic cap 2 p_f b /(p_f-1).
    """
    rng = np.random.default_rng(7)
    n = ctx.grid.M
    tail_lo = int(0.5 * n)
    worst = 0.0
    pf = ctx.nl.pf
    cap = 2.0 * pf * ctx.cls.b / (pf - 1.0)
    idx = rng.integers(tail_lo, n, size=samples)
    e1 = rng.uniform(-0.1, 0.1, size=samples)
    e2 = rng.uniform(-0.1, 0.1, size=samples)
    same = np.abs(e1 - e2) < 1e-12
    e2[same] += 2e-3
    for start in range(0, samples, 2000):
        sl = slice(start, min(start + 2000, samples))
        ii = idx[sl]
        sub = (nonlinear_term(ctx, e1[sl], nodes=ii)
               - nonlinear_term(ctx, e2[sl], nodes=ii))
        denom = (np.abs(e1[sl]) + np.abs(e2[sl])) * np.abs(e1[sl] - e2[sl])
        worst = max(worst, float(np.max(np.abs(sub) / denom)))
    return {"max_ratio": worst, "heuristic_cap": cap, "bounded": worst <= cap}


@dataclass
class FitResult:
    lambda_fit: float
    power_fit: float
    stderr_lambda: float
    stderr_power: float
    n_points: int
    window: tuple
    used_envelope_maxima: bool = False


def _strict_local_maxima(vals):
    idx = np.where((vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:]))[0] + 1
    return idx


def decay_fit(sol, ctx):
    """Least-squares fit of log E = c - lambda rho + w log rho on the window
    [rho0 + S/2, rho0 + 0.9 S], where E is |eta| + |eta'| (node values), or
    its strict local maxima in the oscillatory regime.

    A complex-regime tail that has stopped oscillating (at most two strict
    maxima in the window) falls back to node values; between three and
    seven maxima the fit refuses (FitError) rather than fit through
    oscillation zeros.
    """
    rho = ctx.rho
    rho0, span = rho[0], rho[-1] - rho[0]
    lo, hi = rho0 + 0.5 * span, rho0 + 0.9 * span
    mask = (rho >= lo) & (rho <= hi)
    env = np.abs(sol.eta) + np.abs(sol.deta)
    used_maxima = False
    if ctx.cls.regime.kind == REGIME_COMPLEX:
        win_vals = env[mask]
        win_rho = rho[mask]
        midx = _strict_local_maxima(win_vals)
        if len(midx) >= 8:
            x, y = win_rho[midx], win_vals[midx]
            used_maxima = True
        elif len(midx) <= 2:
            x, y = win_rho, win_vals
        else:
            raise FitError(
                f"only {len(midx)} envelope maxima in the fit window"
            )
    else:
        x, y = rho[mask], env[mask]
    good = y > 0.0
    x, y = x[good], y[good]
    if len(x) < 8:
        raise FitError(f"only {len(x)} envelope points in the fit window")

    A = np.column_stack([np.ones_like(x), -x, np.log(x)])
    z = np.log(y)
    coef, *_ = np.linalg.lstsq(A, z, rcond=None)
    resid = z - A @ coef
    dof = max(len(x) - 3, 1)
    s2 = float(resid @ resid) / dof
    cov = s2 * np.linalg.inv(A.T @ A)
    return FitResult(
        lambda_fit=float(coef[1]),
        power_fit=float(coef[2]),
        stderr_lambda=math.sqrt(max(cov[1, 1], 0.0)),
        stderr_power=math.sqrt(max(cov[2, 2], 0.0)),
        n_points=len(x),
        window=(float(lo), float(hi)),
        used_envelope_maxima=used_maxima,
    )


# the families predicted_decay predicts a rate for: s^p + s^r and
# s^p + s^r (log s)^b
RATE_FAMILIES = (PowerSum, PowerSumLog)


def predicted_decay(nl, cls):
    """(lambda, log-power) upper-bound prediction for a sum-type family,
    using the corrected threshold r*; None for any other family."""
    if not isinstance(nl, RATE_FAMILIES):
        return None
    p, r, log_exp = nl.p, nl.r, nl.log_exp or 0.0
    rstar = cls.r_star(p)
    double = cls.regime.kind == REGIME_DOUBLE
    lam_slow = cls.Lambda
    forced_rate = 2.0 * (p - r) / (p - 1.0)
    if abs(r - rstar) < 1e-9:
        return lam_slow, (2.0 if double else 1.0) + log_exp
    if r < rstar:
        return lam_slow, (1.0 if double else 0.0)
    return forced_rate, log_exp


def rate_report(nl, cls, fit):
    """The fitted decay rate against predicted_decay(nl, cls), as the fields
    of a tables cell and the flags of run_report's rate check; None when
    the family has no prediction.  Beside the fit, the prediction and both
    r* candidates it holds two flags for the caller to word:
    "within_tolerance", the fit is within 10% of the prediction, and
    "faster", the fit decays more than 10% faster, which the prediction,
    an upper bound, allows."""
    pred = predicted_decay(nl, cls)
    if pred is None:
        return None
    lam_pred, w_pred = pred
    return {
        "lambda_fit": fit.lambda_fit,
        "lambda_stderr": fit.stderr_lambda,
        "power_fit": fit.power_fit,
        "power_stderr": fit.stderr_power,
        "lambda_pred": lam_pred,
        "power_pred": w_pred,
        "r_star": cls.r_star(nl.p),
        "r_star_literal": cls.r_star_literal(nl.p),
        "within_tolerance": bool(
            abs(fit.lambda_fit - lam_pred) <= _RATE_TOLERANCE * lam_pred),
        "faster": bool(fit.lambda_fit > lam_pred * (1.0 + _RATE_TOLERANCE)),
    }


def grid_span(nl, cls):
    """Length S of the default grid [rho0, rho0 + S]: the largest of a
    per-regime floor; 22 pi/k for the complex pair, so decay_fit's window,
    0.4 S wide, holds eight maxima pi/k apart; and 14/lambda, enough
    e-foldings of the rate (predicted_decay's for the sum families, Lambda
    otherwise) to separate it from the log-power."""
    reg = cls.regime
    if reg.kind == REGIME_DOUBLE:
        floor = 28.0
    elif reg.kind == REGIME_COMPLEX:
        floor = max(55.0, 22.0 * math.pi / reg.k)
    else:
        floor = 45.0
    pred = predicted_decay(nl, cls)
    lam = cls.Lambda if pred is None else pred[0]
    return max(floor, 14.0 / lam)


def run_context(nl, cls, alpha, beta, rho0=3.0, rho_max=None, *,
                auto_rho0=True, M=4096):
    """The context of M nodes a run solves boundary data up to (alpha, beta)
    on: rho0 from select_rho0 starting at the given one when auto_rho0, and
    rho_max as given or else rho0 + grid_span."""
    if auto_rho0:
        rho0 = select_rho0(nl, cls, alpha, beta, rho0)
    if rho_max is None:
        rho_max = rho0 + grid_span(nl, cls)
    return build_context(nl, cls, rho0, rho_max, M)


def run_cell(nl, cls, alpha=1e-3, beta=2e-3, rho0=3.0, rho_max=None, *,
             auto_rho0=True, M=4096, tol=1e-10, max_iter=200):
    """(ctx, sol) of one run: run_context's context and picard_solve for
    (alpha, beta) at tol and max_iter.  The defaults are a table cell's."""
    ctx = run_context(nl, cls, alpha, beta, rho0, rho_max,
                      auto_rho0=auto_rho0, M=M)
    return ctx, picard_solve(ctx, alpha, beta, tol=tol, max_iter=max_iter)


# a run's verdicts, each its own exit code in the CLI: solved (and, when
# verified, fitted and checked); failed (a cell not solved or fitted, no
# pair solved, a run that raised); out of regime; and, when verified,
# solved but not fitted or failing a check
OK, FAILED = "ok", "failed"
OUT_OF_SCOPE, UNVERIFIED = "out_of_scope", "unverified"


# one row of a run's verification; the rate row also carries its excuse
def _check(name, bound, ok, **excuse):
    return {"name": name, "bound": bound, "ok": bool(ok), **excuse}


@dataclass
class RunReport:
    """What a run found: ``body``, its JSON-ready report; ``verdict``;
    ``reason``, the one line saying why the verdict is not OK (verified,
    the fit error or the failed checks of the body's list), or None;
    ``solved``, what its profile CSVs are written from, or None; and
    ``fit``, decay_fit's result, or None."""
    body: dict
    verdict: str = OK
    reason: str = None
    solved: tuple = None
    fit: FitResult = None


def run_report(nl, cls, full_verify=False, **run):
    """The report of run_cell(nl, cls, **run): out of regime, the
    classification alone; else also the grid, the solve, both residuals
    and decay_fit's rate or error.  ``full_verify`` adds the limit
    diagnostics, lipschitz_check (recorded, deciding nothing), the
    prediction where the family has one and the verification, one list of
    checks for every family: the rate and eta-residual rows where there is
    a prediction, then the weighted norm, the boundary data and the tail
    limits' decrease.  A failed fit, or else a failed check without an
    excuse, is then UNVERIFIED, its reason the fit error or the failed
    checks' names.  Out of regime, the reason is the regime's.  A failed
    solve raises."""
    body = {"classification": cls.as_dict()}
    if not cls.in_scope:
        return RunReport(body, OUT_OF_SCOPE, cls.regime.reason)
    ctx, sol = run_cell(nl, cls, **run)
    prof = to_radial(ctx, sol.eta, sol.deta)
    res_radial, res_eta = ode_residual_radial(prof), ode_residual_eta(sol, ctx)
    body.update(grid=asdict(ctx.grid), solver=sol.as_dict(), residuals={
        "radial_max_relative": res_radial, "eta_equation_max": res_eta})
    rep = RunReport(body, solved=(ctx, sol, prof))
    try:
        fit = rep.fit = decay_fit(sol, ctx)
        body["fit"] = {
            "lambda": fit.lambda_fit, "power": fit.power_fit,
            "stderr_lambda": fit.stderr_lambda,
            "stderr_power": fit.stderr_power, "n_points": fit.n_points,
            "used_envelope_maxima": fit.used_envelope_maxima,
        }
    except FitError as exc:
        body["fit"] = {"error": str(exc)}
        if full_verify:
            rep.verdict, rep.reason = UNVERIFIED, str(exc)
    if not full_verify:
        return rep
    limits = body["limit_diagnostics"] = limit_diagnostics(ctx)
    body["lipschitz"] = lipschitz_check(ctx, samples=2000)
    checks = []
    pred = predicted_decay(nl, cls)
    if pred:
        body["prediction"] = {"lambda": pred[0], "power": pred[1]}
        if rep.fit:
            rate = rate_report(nl, cls, rep.fit)
            # the prediction is an upper bound: a faster fit is consistent
            checks.append(_check(
                "lambda_within_10pct", _RATE_TOLERANCE,
                rate["within_tolerance"], excuse=(
                    "consistent with bound (faster decay than predicted)"
                    if rate["faster"] else None)))
        checks.append(_check("eta_residual_below_1e-5", 1e-5, res_eta <= 1e-5))
    checks += [
        _check("weighted_norm_at_most_2", 2.0, sol.weighted_norm_value <= 2.0),
        _check("boundary_data_exact", 0.0,
               sol.eta[0] == sol.alpha and sol.deta[0] == sol.beta),
        _check("limits_decrease_in_tail", _TAIL_SLACK,
               all(q["monotone_decrease"] for q in limits.values()
                   if isinstance(q, dict)))]
    body["verification"] = checks
    failed = [c["name"] for c in checks if not (c["ok"] or c.get("excuse"))]
    if failed and rep.verdict == OK:
        rep.verdict, rep.reason = UNVERIFIED, ", ".join(failed)
    return rep


def sweep_report(nl, cls, pairs, tol=1e-10, max_iter=200, **grid):
    """The report of solver.sweep over the (alpha, beta) pairs on the one
    run_context (``grid``: rho0, rho_max, auto_rho0, M) of their largest
    alpha and beta; out of regime, or raising, as run_report does.  FAILED
    when no pair converged; solved is (ctx, SweepResult)."""
    body = {"classification": cls.as_dict()}
    if not cls.in_scope:
        return RunReport(body, OUT_OF_SCOPE, cls.regime.reason)
    ctx = run_context(nl, cls, max(a for a, _ in pairs),
                      max(b for _, b in pairs), **grid)
    result = sweep(ctx, pairs, tol=tol, max_iter=max_iter)
    body.update(
        grid=asdict(ctx.grid),
        pairs=[list(p) for p in result.pairs],
        failures={f"{a}:{b}": msg for (a, b), msg in result.failures.items()},
        max_converged_alpha_plus_beta=result.max_converged_size,
        boundary_distinct=result.boundary_distinct,
        sup_separations=result.sup_separations,
        solutions={f"{a}:{b}": sol.as_dict()
                   for (a, b), sol in result.solutions.items()},
    )
    return RunReport(body, OK if result.solutions else FAILED,
                     solved=(ctx, result))


def table_cell(N, p, r, nl, M=4096, tol=1e-10, max_iter=200):
    """One decay-rate table cell: run_report of nl, the family's
    nonlinearity for (p, r), in dimension N from run_cell's defaults, its
    fitted rate against rate_report's prediction, and which r* candidate
    the rate supports, as a RunReport whose body is the cell.  A cell out of
    regime, unsolved or unfitted (or of a family without a predicted rate)
    records its error instead of raising it, and solved is then None."""
    cell = {"p": p, "r": r}
    try:
        if not isinstance(nl, RATE_FAMILIES):
            raise ConfigError(
                f"family: {nl.name!r} has no predicted decay rate")
        cls = classify(nl, N)
        rep = run_report(nl, cls, M=M, tol=tol, max_iter=max_iter)
    except SingularForgeError as exc:  # per-cell isolation
        cell["error"] = f"{type(exc).__name__}: {exc}"
        return RunReport(cell, FAILED)
    if rep.verdict == OUT_OF_SCOPE:
        cell["error"] = f"out of scope: {rep.reason}"
        return RunReport(cell, OUT_OF_SCOPE)
    if rep.fit is None:
        cell["error"] = f"FitError: {rep.body['fit']['error']}"
        return RunReport(cell, FAILED)
    ctx, sol, _ = rep.solved
    rate = rate_report(nl, cls, rep.fit)
    # the rate the literal threshold would have predicted
    lam_lit = (cls.Lambda if r < rate["r_star_literal"]
               else 2.0 * (p - r) / (p - 1.0))
    corrected = (abs(rep.fit.lambda_fit - rate["lambda_pred"])
                 <= abs(rep.fit.lambda_fit - lam_lit))
    faster = rate.pop("faster")
    cell.update(
        rate,
        rho0=ctx.grid.rho0,
        rho_max=ctx.grid.rho_max,
        lambda_pred_literal=lam_lit,
        iterations=sol.iterations,
        weighted_norm=sol.weighted_norm_value,
        supports="corrected" if corrected else "literal",
        degenerate_p_minus_r_1=nl.degenerate_leading_term,
        label=("consistent with bound (faster decay)" if faster
               else "matches predicted rate"),
    )
    if nl.degenerate_leading_term:
        # forcing decays at the k=2 series rate, twice the nominal one
        cell["I_rate_annotation"] = 4.0 * (p - r) / (p - 1.0)
    rep.body = cell
    return rep


def appendix_check(nl, sigmas):
    """Scaled remainder of the two-term inverse expansion for f = s^p + s^r:

        R(sigma) = |F^{-1}(sigma) - (((p-1)sigma)^{-1/(p-1)}
                    - ((p-1)sigma)^{(p-r-1)/(p-1)} / (2p-r-1))|
                   / sigma^{(2(p-r)-1)/(p-1)}

    which must stay bounded as sigma decreases.
    """
    if not isinstance(nl, PowerSum):
        raise ValueError("appendix expansion applies to the sum family only")
    p, r = nl.p, nl.r
    out = {"sigma": [], "R": []}
    for sig in sigmas:
        s_true = float(nl.F_inv(sig))
        lead = ((p - 1.0) * sig) ** (-1.0 / (p - 1.0))
        second = ((p - 1.0) * sig) ** ((p - r - 1.0) / (p - 1.0)) / (
            2.0 * p - r - 1.0
        )
        rem = abs(s_true - (lead - second))
        out["sigma"].append(float(sig))
        out["R"].append(rem / sig ** ((2.0 * (p - r) - 1.0) / (p - 1.0)))
    out["max_R"] = max(out["R"])
    return out
