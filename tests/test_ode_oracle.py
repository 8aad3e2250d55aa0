"""The whole solution against an independent oracle: the radial ODE.

With t = rho = log(1/r), a radial solution of -Laplace(u) = f(u) in
dimension N solves

    u_tt - (N - 2) u_t + e^{-2t} f(u) = 0.

The oracle integrates it in (log u, u_t / u), so nothing overflows, with
log f(u) in closed form per family (logaddexp for the sums), by DOP853
(Hairer, Norsett & Wanner, Solving Ordinary Differential Equations I,
1993).  It starts at rho0 from u = phi (1 + alpha), u_t = phi' (1 + alpha)
+ phi beta, with phi(rho0) = F^{-1}(e^{-2 rho0} / b) from a 50-digit
mpmath F and phi' = 2 f(phi) sigma, so it shares no code with the
pipeline.  The pipeline's u = phi (1 + eta) carries the trapezoid rule's
O(h^2) error, so each row is checked at M and 2M - 1 nodes: the largest
|u_ode / u - 1| against the value measured at the time the test was
written, times _MARGIN, and the observed order log2 of their ratio
against _ORDER_BAND.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from singular_forge import classify, from_spec, run_cell, to_radial

N, RHO0, ALPHA, BETA = 5, 3.0, 1e-3, 1e-3
_MARGIN = 1.2
_ORDER_BAND = (1.95, 2.05)

# (spec, largest |u_ode / u - 1| measured at M = 1025 and 2049)
ROWS = [
    ({"family": "power_sum", "p": 2.0, "r": 1.0}, 9.822e-10, 2.458e-10),
    ({"family": "power_sum", "p": 1.8, "r": 1.0}, 4.801e-8, 1.200e-8),
    ({"family": "power_sum", "p": 1.75, "r": 1.0}, 2.377e-7, 5.944e-8),
    ({"family": "power_sum", "p": 1.75, "r": 1.7}, 1.579e-4, 3.950e-5),
    ({"family": "power_log", "p": 2.0, "r": 1.0}, 1.253e-4, 3.131e-5),
    ({"family": "power_exp_log", "p": 2.0, "r": 0.5}, 1.822e-4, 4.555e-5),
    ({"family": "power_sum_log", "p": 2.0, "r": 1.0, "log_exp": 1.0},
     5.212e-7, 1.303e-7),
]


def _log_f(spec, y):
    """log f(e^y), elementwise in float64."""
    fam, p, r = spec["family"], spec["p"], spec["r"]
    if fam == "power_sum":
        return np.logaddexp(p * y, r * y)
    if fam == "power_log":
        return p * y + r * np.log(y)
    if fam == "power_exp_log":
        return p * y + y ** r
    return np.logaddexp(p * y, r * y + spec["log_exp"] * np.log(y))


def _f_mp(spec, s):
    fam, p, r = spec["family"], mp.mpf(spec["p"]), mp.mpf(spec["r"])
    if fam == "power_sum":
        return s ** p + s ** r
    if fam == "power_log":
        return s ** p * mp.log(s) ** r
    if fam == "power_exp_log":
        return s ** p * mp.exp(mp.log(s) ** r)
    return s ** p + s ** r * mp.log(s) ** mp.mpf(spec["log_exp"])


def _phi0(spec, b):
    """(phi, phi') at rho0: Newton in x = log s on log F(e^x) = log sigma,
    F(e^x) = int_x^inf e^t / f(e^t) dt, from the pure power's root."""
    with mp.workdps(50):
        p = mp.mpf(spec["p"])
        sigma = mp.exp(-2 * mp.mpf(RHO0)) / b

        def g(t):
            return mp.exp(t) / _f_mp(spec, mp.exp(t))

        x = -mp.log((p - 1) * sigma) / (p - 1)
        for _ in range(40):
            F = mp.quad(g, [x, x + 4, mp.inf])
            step = (mp.log(F) - mp.log(sigma)) * F / g(x)
            x += step
            if abs(step) < mp.mpf(10) ** -40:
                break
        else:
            raise AssertionError("F^{-1} did not converge")
        s = mp.exp(x)
        return float(s), float(2 * _f_mp(spec, s) * sigma)


def _ode_error(spec, phi, dphi, M):
    """Largest |u_ode / u - 1| over the pipeline's grid of M nodes."""
    nl = from_spec(spec)
    ctx, sol = run_cell(nl, classify(nl, N), ALPHA, BETA, RHO0,
                        auto_rho0=False, M=M)
    u = to_radial(ctx, sol.eta, sol.deta).u
    rho = ctx.rho

    def rhs(t, z):
        y, v = z
        return [v, v * (N - 2 - v) - math.exp(-2.0 * t + _log_f(spec, y) - y)]

    u0 = phi * (1.0 + ALPHA)
    z0 = [math.log(u0), (dphi * (1.0 + ALPHA) + phi * BETA) / u0]
    ode = solve_ivp(rhs, (rho[0], rho[-1]), z0, method="DOP853",
                    rtol=1e-13, atol=1e-14, t_eval=rho)
    assert ode.success, ode.message
    return float(np.max(np.abs(np.expm1(ode.y[0] - np.log(u)))))


@pytest.mark.parametrize("row", ROWS, ids=lambda row: "-".join(
    str(v) for v in row[0].values()))
def test_solution_matches_the_radial_ode(row):
    spec, measured_1025, measured_2049 = row
    p = spec["p"]
    phi, dphi = _phi0(spec, 2.0 * N - 4.0 * p / (p - 1.0))
    err_1025 = _ode_error(spec, phi, dphi, 1025)
    err_2049 = _ode_error(spec, phi, dphi, 2049)
    assert err_1025 <= _MARGIN * measured_1025
    assert err_2049 <= _MARGIN * measured_2049
    order = math.log2(err_1025 / err_2049)
    assert _ORDER_BAND[0] <= order <= _ORDER_BAND[1]
