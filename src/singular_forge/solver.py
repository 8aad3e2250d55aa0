"""Fixed point of the remainder integral equation: Picard, finished by
Newton where Picard contracts slowly.

The map is

    T[eta](rho) = Phi(rho)
        - int_{rho0}^{rho} K(rho,tau) {I + L1 eta + L2 eta' + N[eta]} dtau,

with the derivative obtained from the same integrand against dK (valid
because K vanishes on the diagonal).  Phi is the homogeneous part pinned to
the boundary data (alpha, beta) at rho0; it is evaluated in shifted form so
eta(rho0) = alpha and eta'(rho0) = beta hold bitwise for every iterate.

picard_solve iterates eta_{k+1} = T[eta_k] from eta_0 = Phi.  T is a
Volterra map: its error moves along rho as a front, so where T contracts
weakly (ratios 0.25-0.6 on the quadrature families) Picard needs 15-25
steps and neither Anderson mixing nor an exact linear part helps.  Once
_TRANSIENT ratios are known and the last is above _SWITCH_RATIO (and below
1), the solve turns to Newton-Kantorovich on the discrete equation: each
step linearises N at the iterate, N[eta] ~ N[eta_k] + N'[eta_k](eta -
eta_k), and solves the linear equation exactly by one forward march
(kernels.solve_linear_volterra), so its changes fall quadratically.  A
final T application certifies the result with the same stop test as
Picard, change < tol, and is what the solve returns.  A Newton step that
leaves the nonlinearity's domain or stops shrinking hands back to Picard
from the last T iterate, which then ends exactly as pure Picard would.
Below the switch Picard converges in a few more steps, each cheaper than
a march.

RemainderSolution reports the work and the evidence of contraction:
``iterations`` counts the applications of T (the Newton steps are not
among them), ``newton_steps`` the marches, ``ratios`` the ratios of
successive changes of consecutive T steps only, and ``contraction_ratio``
the worst of those after the first two.  select_rho0 probes with T alone,
so its verdict is one about T.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    IterateOutOfDomainError,
    NoContractionError,
    SingularForgeError,
)
from .kernels import convolve_cumulative, homogeneous_pair, solve_linear_volterra
from .profile import build_context, check_domain, nonlinear_term

# Newton takes over after this many ratios of T steps (so one ratio past
# the first two reaches contraction_ratio), when the last is above
# _SWITCH_RATIO: the slow families read 0.25-0.6, the table and sweep
# cells at most 0.094 (CHANGES.md has the measurements)
_TRANSIENT = 3
_SWITCH_RATIO = 0.2
_NEWTON_MAX = 12


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
    newton_steps: int = 0

    def as_dict(self):
        """The solve as summary.json and sweep.json record it."""
        return {
            "alpha": self.alpha, "beta": self.beta, "delta": self.delta,
            "iterations": self.iterations, "newton_steps": self.newton_steps,
            "final_change": self.final_change,
            "contraction_ratio": self.contraction_ratio,
            "weighted_norm": self.weighted_norm_value, "case": self.case_tag,
            "converged": self.converged,
        }


def apply_T(ctx, homogeneous, eta, deta):
    """One application of the fixed-point map; returns (T eta, (T eta)').

    ``homogeneous`` is the pair (Phi, Phi') of the boundary data on this
    grid, the same at every step (picard_solve passes the pair it starts
    from).  An iterate that takes phi (1 + eta) out of the nonlinearity's
    domain raises nonlinear_term's DomainError.  The linear part of T alone
    (N off) is one kernels.convolve_cumulative of I + L1 eta + L2 eta', and
    its fixed point is kernels.solve_linear_volterra.
    """
    g = ctx.I + ctx.L1 * eta + ctx.L2 * deta + nonlinear_term(ctx, eta)
    ik, idk = convolve_cumulative(ctx.ks, ctx.rho, g)
    phi_h, dphi_h = homogeneous
    return phi_h - ik, dphi_h - idk


def _sup_change(e1, d1, e0, d0):
    return float(np.max(np.abs(e1 - e0)) + np.max(np.abs(d1 - d0)))


def _newton_phase(ctx, homogeneous, eta, deta, tol):
    """Newton steps on the discrete equation from the T iterate (eta, eta').

    Each step solves eta = Phi - K*(c + (L1 + N'[eta_k]) eta + L2 eta'),
    c = I + N[eta_k] - N'[eta_k] eta_k, by one march, N and N' from one
    nonlinear_term pass.  Returns ((eta, eta'), steps) once a change falls
    below tol or the quadratic rate puts the next one (about change^3 /
    previous^2) a hundredfold below it, or (None, steps) when a step
    leaves the domain, stops shrinking, or _NEWTON_MAX steps pass.
    """
    prev = math.inf
    for step in range(1, _NEWTON_MAX + 1):
        try:
            n, dn = nonlinear_term(ctx, eta, derivative=True)
        except DomainError:
            return None, step - 1
        c, p = ctx.I + (n - dn * eta), ctx.L1 + dn
        new_eta, new_deta = solve_linear_volterra(
            ctx.ks, ctx.rho, homogeneous, c, p, ctx.L2)
        change = _sup_change(new_eta, new_deta, eta, deta)
        if not change < prev:
            return None, step
        eta, deta = new_eta, new_deta
        if change < tol or (
                step > 1 and change ** 3 < 1e-2 * tol * prev ** 2):
            try:
                check_domain(ctx, slice(None), eta)
            except DomainError:
                return None, step
            return (eta, deta), step
        prev = change
    return None, _NEWTON_MAX


def picard_solve(ctx, alpha, beta, tol=1e-10, max_iter=200, *,
                 _newton=True):
    """Iterate eta_{k+1} = T[eta_k] from eta_0 = Phi until the sup change of
    (eta, eta') drops below tol, finishing a slowly contracting solve by
    Newton steps (module docstring); ``_newton=False`` applies T alone.

    Divergence is declared after three consecutive non-contracting steps
    (ratio >= 1), which tolerates transient ratio noise near rounding.
    Raises ConvergenceError carrying the partial solution and ratios.  The
    weighted norm is taken with delta = max(4 (alpha + beta), 1e-6).
    """
    if alpha < 0.0 or beta < 0.0:
        raise ValueError("alpha and beta must be nonnegative")
    delta = max(4.0 * (alpha + beta), 1e-6)

    homogeneous = homogeneous_pair(ctx.cls, ctx.rho - ctx.grid.rho0,
                                   alpha, beta)
    # every exit hands back sol, which holds the solve's state as it stands
    sol = RemainderSolution(*homogeneous, alpha, beta, delta)
    ratios = sol.ratios
    change, prev_change, noncontract = math.inf, None, 0
    for sol.iterations in range(1, max_iter + 1):
        try:
            eta, deta = apply_T(ctx, homogeneous, sol.eta, sol.deta)
        except DomainError as exc:
            raise IterateOutOfDomainError(
                f"iterate left the nonlinearity domain: {exc}",
                solution=sol, ratios=ratios,
            ) from exc
        change = _sup_change(eta, deta, sol.eta, sol.deta)
        sol.eta, sol.deta = eta, deta
        if prev_change is not None and prev_change > 0.0:
            ratios.append(change / prev_change)
            noncontract = noncontract + 1 if ratios[-1] >= 1.0 else 0
            if noncontract >= 3:
                break
        prev_change = change
        sol.converged = change < tol
        if sol.converged:
            break
        if _newton and len(ratios) >= _TRANSIENT \
                and sol.iterations < max_iter \
                and _SWITCH_RATIO < ratios[-1] < 1.0:
            _newton = False  # one Newton phase per solve
            found, sol.newton_steps = _newton_phase(
                ctx, homogeneous, eta, deta, tol)
            if found is not None:
                # the next T step certifies; its change has no T predecessor
                sol.eta, sol.deta = found
                prev_change = None
    sol.final_change = change
    if not sol.converged:
        raise ConvergenceError(
            f"no contraction after {sol.iterations} iterations "
            f"(last ratios {ratios[-3:]})" if noncontract >= 3 else
            f"tolerance {tol} not reached in {max_iter} iterations",
            solution=sol, ratios=ratios,
        )

    # reported contraction ratio: worst ratio once the transient has passed
    # and while changes are still meaningfully above the noise floor
    sol.contraction_ratio = max([r for r in ratios[2:] if r > 0.0] or ratios,
                                default=math.nan)
    sol.weighted_norm_value = weighted_norm(sol, ctx)
    sol.case_tag = ctx.case_tag
    return sol


def weighted_norm(sol, ctx):
    """sup over nodes of (|eta|+|eta'|) / (delta Q(rho,rho0) + int Q |I|),
    delta = sol.delta."""
    if sol.delta <= 0.0:
        raise ValueError("delta must be positive")
    q0, qint = ctx.weighted_norm_terms
    denom = sol.delta * q0 + qint
    return float(np.max((np.abs(sol.eta) + np.abs(sol.deta)) / denom))


def select_rho0(nl, cls, alpha, beta, rho0_initial):
    """Smallest rho0 in {rho0_initial + 2j : j = 0..8} whose 10-iteration
    probe run, on [rho0, rho0 + 20] with 801 nodes, contracts monotonically.
    Raises NoContractionError past the cap."""
    if alpha + beta < 0.0:
        raise ValueError("alpha + beta must be nonnegative")
    last_err = None
    for j in range(9):
        rho0 = rho0_initial + 2.0 * j
        try:
            ctx = build_context(nl, cls, rho0, rho0 + 20.0, 801)
        except SingularForgeError as exc:  # e.g. GridError near s_min
            last_err = exc
            continue
        try:
            picard_solve(ctx, alpha, beta, tol=1e-10, max_iter=10,
                         _newton=False)
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


def sweep(ctx, pairs, tol=1e-10, max_iter=200):
    """Run picard_solve for each (alpha, beta) pair; failures are collected,
    not raised.  Results are keyed by pair.
    """
    solutions, failures = {}, {}
    for pair in pairs:
        try:
            solutions[pair] = picard_solve(
                ctx, *pair, tol=tol, max_iter=max_iter
            )
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
