"""Picard iteration for the remainder integral equation.

The map is

    T[eta](rho) = Phi(rho)
        - int_{rho0}^{rho} K(rho,tau) {I + L1 eta + L2 eta' + N[eta]} dtau,

with the derivative obtained from the same integrand against dK (valid
because K vanishes on the diagonal).  Phi is the homogeneous part pinned to
the boundary data (alpha, beta) at rho0; it is evaluated in shifted form so
eta(rho0) = alpha and eta'(rho0) = beta hold bitwise for every iterate.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    InconclusiveError,
    IterateOutOfDomainError,
    NoContractionError,
    SingularForgeError,
)
from .kernels import (
    KernelSet,
    convolve_cumulative,
    convolve_Q_cumulative,
    homogeneous_pair,
    super_kernel,
)
from .profile import build_context, nonlinear_term


@dataclass
class RemainderSolution:
    eta: np.ndarray
    deta: np.ndarray
    alpha: float
    beta: float
    delta: float
    iterations: int = 0
    final_change: float = math.inf
    contraction_ratio: float = math.nan
    ratios: list = field(default_factory=list)
    weighted_norm_value: float = math.nan
    case_tag: str = ""
    converged: bool = False


def apply_T(ctx, ks, alpha, beta, eta, deta, linear_only=False):
    """One application of the fixed-point map; returns (T eta, (T eta)')."""
    g = ctx.I + ctx.L1 * eta + ctx.L2 * deta
    if not linear_only:
        try:
            g = g + nonlinear_term(ctx, eta)
        except DomainError as exc:
            raise IterateOutOfDomainError(str(exc)) from exc
    ik, idk = convolve_cumulative(ks, ctx.rho, g)
    delta_rho = ctx.rho - ctx.grid.rho0
    phi_h, dphi_h = homogeneous_pair(ctx.cls, delta_rho, alpha, beta)
    return phi_h - ik, dphi_h - idk


def _sup_change(e1, d1, e0, d0):
    return float(np.max(np.abs(e1 - e0)) + np.max(np.abs(d1 - d0)))


def picard_solve(
    ctx,
    ks=None,
    alpha=0.0,
    beta=0.0,
    tol=1e-10,
    max_iter=200,
    delta=None,
    linear_only=False,
):
    """Iterate eta_{k+1} = T[eta_k] from eta_0 = Phi until the sup change of
    (eta, eta') drops below tol.

    Divergence is declared after three consecutive non-contracting steps
    (ratio >= 1), which tolerates transient ratio noise near rounding.
    Raises ConvergenceError carrying the partial solution and ratios.
    """
    if alpha < 0.0 or beta < 0.0:
        raise ValueError("alpha and beta must be nonnegative")
    if ks is None:
        ks = KernelSet(ctx.cls)
    if delta is None:
        delta = max(4.0 * (alpha + beta), 1e-6)

    delta_rho = ctx.rho - ctx.grid.rho0
    eta, deta = homogeneous_pair(ctx.cls, delta_rho, alpha, beta)
    eta = np.asarray(eta, dtype=float)
    deta = np.asarray(deta, dtype=float)

    ratios = []
    prev_change = None
    noncontract = 0
    sol = RemainderSolution(eta, deta, alpha, beta, delta)

    for it in range(1, max_iter + 1):
        try:
            new_eta, new_deta = apply_T(
                ctx, ks, alpha, beta, eta, deta, linear_only=linear_only
            )
        except IterateOutOfDomainError as exc:
            sol.eta, sol.deta, sol.iterations = eta, deta, it
            sol.ratios = ratios
            raise IterateOutOfDomainError(
                f"iterate left the nonlinearity domain: {exc}",
                solution=sol, ratios=ratios,
            )
        change = _sup_change(new_eta, new_deta, eta, deta)
        eta, deta = new_eta, new_deta
        if prev_change is not None and prev_change > 0.0:
            ratio = change / prev_change
            ratios.append(ratio)
            if ratio >= 1.0:
                noncontract += 1
                if noncontract >= 3:
                    sol.eta, sol.deta = eta, deta
                    sol.iterations, sol.ratios = it, ratios
                    sol.final_change = change
                    raise ConvergenceError(
                        f"no contraction after {it} iterations "
                        f"(last ratios {ratios[-3:]})",
                        solution=sol, ratios=ratios,
                    )
            else:
                noncontract = 0
        prev_change = change
        if change < tol:
            sol.eta, sol.deta = eta, deta
            sol.iterations = it
            sol.final_change = change
            sol.ratios = ratios
            sol.converged = True
            break
    else:
        sol.eta, sol.deta = eta, deta
        sol.iterations, sol.ratios = max_iter, ratios
        sol.final_change = prev_change if prev_change is not None else math.inf
        raise ConvergenceError(
            f"tolerance {tol} not reached in {max_iter} iterations",
            solution=sol, ratios=ratios,
        )

    # reported contraction ratio: worst ratio once the transient has passed
    # and while changes are still meaningfully above the noise floor
    meaningful = [
        r for i, r in enumerate(ratios) if i >= 2 and r > 0.0
    ]
    if meaningful:
        sol.contraction_ratio = max(meaningful)
    elif ratios:
        sol.contraction_ratio = max(ratios)
    sol.weighted_norm_value = weighted_norm(sol, ctx, ks, delta)
    try:
        sol.case_tag = case_classify(ctx, ctx.cls.Lambda)[0]
    except InconclusiveError:
        sol.case_tag = "?"
    return sol


def weighted_norm(sol, ctx, ks, delta):
    """sup over nodes of (|eta|+|eta'|) / (delta Q(rho,rho0) + int Q |I|)."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    delta_rho = ctx.rho - ctx.grid.rho0
    q0 = super_kernel(ctx.cls, delta_rho, 0.0)
    qint = convolve_Q_cumulative(ks, ctx.rho, np.abs(ctx.I))
    denom = delta * q0 + qint
    return float(np.max((np.abs(sol.eta) + np.abs(sol.deta)) / denom))


def case_classify(ctx, Lambda):
    """Tag A when J(rho) = int e^{Lambda tau}|I| has geometrically decaying
    per-width increments over the last three dyadic windows, else B.
    """
    rho = ctx.rho
    rho0 = rho[0]
    span = rho[-1] - rho0
    h = ctx.grid.h
    weight = np.exp(Lambda * (rho - rho0)) * np.abs(ctx.I)
    pieces = 0.5 * (weight[1:] + weight[:-1]) * h
    J_total = float(np.sum(pieces))
    bounds = [
        rho0 + 0.5 * span,
        rho0 + 0.75 * span,
        rho0 + 0.875 * span,
        rho0 + span,
    ]
    idx = [min(int(np.searchsorted(rho, bv)), len(rho) - 1) for bv in bounds]
    if idx[3] - idx[2] < 4:
        raise InconclusiveError("grid too short for three dyadic windows")
    # window increments summed directly (a converged J would cancel to
    # rounding noise if differenced), normalized by window width
    incs = []
    for a, b in zip(idx[:-1], idx[1:]):
        width = rho[b] - rho[a]
        incs.append(float(np.sum(pieces[a:b])) / width)
    trace = {"J_total": J_total, "window_increments": incs}
    if J_total < 1e-280 or all(
        inc * span <= 1e-12 * J_total for inc in incs
    ):
        # the integral has already converged on this grid
        return "A", trace
    r1 = incs[1] / incs[0] if incs[0] > 0.0 else math.inf
    r2 = incs[2] / incs[1] if incs[1] > 0.0 else math.inf
    tag = "A" if (r1 <= 0.5 and r2 <= 0.5) else "B"
    trace["ratios"] = [r1, r2]
    return tag, trace


def select_rho0(
    nl,
    cls,
    alpha,
    beta,
    rho0_initial,
    probe_span=20.0,
    probe_M=801,
    step=2.0,
    tries=9,
):
    """Smallest rho0 in {rho0_initial + 2j} whose 10-iteration probe run
    contracts monotonically.  Raises NoContractionError past the cap."""
    if alpha + beta < 0.0:
        raise ValueError("alpha + beta must be nonnegative")
    last_err = None
    for j in range(tries):
        rho0 = rho0_initial + step * j
        try:
            ctx = build_context(nl, cls, rho0, rho0 + probe_span, probe_M)
        except SingularForgeError as exc:  # e.g. GridError near s_min
            last_err = exc
            continue
        ks = KernelSet(cls)
        try:
            picard_solve(ctx, ks, alpha, beta, tol=1e-10, max_iter=10)
            return rho0
        except IterateOutOfDomainError as exc:
            last_err = exc
        except ConvergenceError as exc:
            # a clean partial run that was still contracting is acceptable:
            # ten iterations just did not reach tol yet
            if exc.ratios and all(r < 1.0 for r in exc.ratios):
                return rho0
            last_err = exc
    raise NoContractionError(
        f"no contracting rho0 in probe window starting at {rho0_initial}"
        + (f" (last: {last_err})" if last_err else "")
    )


@dataclass
class SweepResult:
    pairs: list
    solutions: dict
    failures: dict
    max_converged_size: float
    boundary_distinct: bool = True
    sup_separations: dict = field(default_factory=dict)


def sweep(ctx, ks, pairs, tol=1e-10, max_iter=200, max_workers=None):
    """Run picard_solve for each (alpha, beta) pair; failures are collected,
    not raised.  Deterministic for any worker count (results keyed by pair).
    """
    if ks is None:
        ks = KernelSet(ctx.cls)
    if max_workers is None:
        env = os.environ.get("SINGULAR_FORGE_THREADS", "")
        max_workers = int(env) if env.strip().isdigit() else 1
    max_workers = max(1, int(max_workers))

    def run(pair):
        a, b = pair
        return picard_solve(ctx, ks, a, b, tol=tol, max_iter=max_iter)

    solutions, failures = {}, {}
    if max_workers == 1:
        for pair in pairs:
            try:
                solutions[pair] = run(pair)
            except (SingularForgeError, ValueError) as exc:
                failures[pair] = str(exc)
    else:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            futs = {pair: pool.submit(run, pair) for pair in pairs}
            for pair, fut in futs.items():
                try:
                    solutions[pair] = fut.result()
                except (SingularForgeError, ValueError) as exc:
                    failures[pair] = str(exc)

    sizes = [a + b for (a, b) in solutions]
    converged_pairs = [p for p in pairs if p in solutions]
    distinct = True
    separations = {}
    for i, p1 in enumerate(converged_pairs):
        for p2 in converged_pairs[i + 1:]:
            s1, s2 = solutions[p1], solutions[p2]
            distinct &= abs(s1.eta[0] - s2.eta[0]) == abs(p1[0] - p2[0])
            separations[f"{p1[0]}:{p1[1]}|{p2[0]}:{p2[1]}"] = float(
                np.max(np.abs(s1.eta - s2.eta))
            )
    return SweepResult(
        pairs=list(pairs),
        solutions=solutions,
        failures=failures,
        max_converged_size=max(sizes) if sizes else 0.0,
        boundary_distinct=bool(distinct),
        sup_separations=separations,
    )
