"""Emden-side profile context and conversion back to radial variables.

The approximate solution in Emden variables is phi(rho) = F^{-1}(sigma),
sigma = e^{-2rho}/b.  Where F(phi) is needed, sigma stands in for it: F^{-1}
stops once |F(phi) - sigma| <= 1e-13 sigma, so the two agree to that bound,
not exactly.  The forcing and linear coefficients

    I  = 4 (fF/phi) (f'F - q_f)
    L1 = b [ (f'F - q_f) - (fF/phi - 1/(p_f-1)) ] + I
    L2 = 4 (fF/phi - 1/(p_f-1))

are assembled from the nonlinearity's deficit evaluations.  The quadratic
remainder is

    N[eta] = b (F(phi)/phi) (f(phi(1+eta)) - f(phi) - f'(phi) phi eta),

taken in a form that keeps it relatively accurate where the direct
difference of near-equal f values would drown in rounding, with its
derivative in eta, N'[eta] = b F(phi) (f'(phi(1+eta)) - f'(phi)), from the
same pass.  nonlinear_term is its one entry, on every node or on a
selection of nodes, with or without N'.

For a sum of powers f = sum_j s^{a_j} (``nl.exponents``, leading exponent
p first) the remainder is a series in eta with coefficients fixed per grid,

    N  = w eta^2 sum_{k>=2} a_k eta^(k-2),
    N' = w eta sum_{k>=2} k a_k eta^(k-2),
    w = b F(phi) phi^(p-1),   a_k = sum_j C(a_j, k) x_j,   x_j = phi^(a_j-p),

summed by one Horner pass (Higham, Accuracy and Stability of Numerical
Algorithms, 2002, Sec. 5.1) to the first degree n where a bound on the rest
of both series is below 2^-54 of their leading terms at the call's largest
|eta|.  With m_j = max over the grid of |x_j|/|a_2|, and k |C(a, k)|
non-increasing for k >= a/2, the rest after degree n is at most

    (n+1) |eta|^(n-1) / (2 (1-|eta|)) * sum_j m_j |C(a_j, n+1)|

of the leading term of N' (and less for N), so N does not depend on
whether N' is asked for.  The coefficient arrays are made on first use, up
to the highest degree a call has needed.  A call whose degree would pass
_SERIES_CAP (|eta| near 0.45 for the exponents here), whose |eta| is not
below 1, or on a grid where w or a_2 is not finite or a_2 is zero, takes
the Gauss rule below, as every other family does.

The Gauss rule takes the exact integral form of the Taylor remainder

    f(phi(1+eta)) - f(phi) - f'(phi) phi eta
        = (phi eta)^2 int_0^1 (1-t) f''(phi(1+t eta)) dt,

and N' = b F(phi) phi eta int_0^1 f''(phi(1+t eta)) dt from the same f''
values with the plain Gauss weights, so a Newton step pays for one pass and
no difference of f' values.  The integral is taken by a Gauss-Legendre
rule of 4, 8 or 16 points, the fewest that serve every node of the call.
f'' is taken to be analytic off s_min, which phi(1 + t eta) reaches at
t = -1/zeta, zeta = eta phi/(phi - s_min); the n-point rule serves while
its Bernstein-ellipse bound rho^-2n is below 2^-60.  That is zeta up to
z4 = 0.0223 for 4 points and z8 = 0.347 for 8 (0.0219 and 0.258 for
zeta < 0, whose singularity lies beyond t = 1, nearer the segment).  f'' is
evaluated for several Gauss nodes in one call, as many as keep a call near
_GROUP_POINTS points: a whole rule on a grid of up to 256 nodes, one node
at a time on a 4096-node grid.  The call keeps each f'' row times its
weights and sums them by one reduction in Gauss-node order, bitwise the
sum a loop over the rows would make.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._special import (
    _SERIES_TOL,
    GL01_NODES,
    GL01_WEIGHTS,
    GL4_01_NODES,
    GL4_01_WEIGHTS,
    GL8_01_NODES,
    GL8_01_WEIGHTS,
)
from .errors import DomainError, GridError
from .kernels import convolve_Q_cumulative, kernel_set, super_kernel


def _rule(points, nodes, weights):
    """((nodes, [w], [w, wd]), largest zeta > 0, largest -zeta < 0) of a
    remainder rule and the zeta it serves: w the weights folded with (1-t),
    wd the weights, stacked once for N and for (N, N').

    The singularity at t = -1/zeta lies at x = |1 + 2/zeta| in u = 2t - 1,
    and the n-point error falls like rho^-2n, rho = x + sqrt(x^2 - 1)
    (Trefethen, ATAP, Thm 19.3); rho^-2n <= 2^-60 bounds x from below.
    """
    rho = 2.0 ** (30.0 / points)
    x = 0.5 * (rho + 1.0 / rho)
    stack = np.stack((weights * (1.0 - nodes), weights))
    stack.flags.writeable = False  # shared by every call, and [w] is a view
    return ((nodes, stack[:1], stack), 2.0 / (x - 1.0), 2.0 / (x + 1.0))


# fewest points first; the 16-point rule also takes any zeta beyond its own
_RULES = (
    _rule(4, GL4_01_NODES, GL4_01_WEIGHTS),
    _rule(8, GL8_01_NODES, GL8_01_WEIGHTS),
    _rule(16, GL01_NODES, GL01_WEIGHTS),
)
# points per f2 call, whichever rule the call picks: one (nodes, points)
# batch near this size stays in cache; a full 16-row batch at M=4096 is
# slower than one call per node
_GROUP_POINTS = 4096
# highest degree of the sum-of-powers series.  Degree 40 serves |eta| up to
# 0.4-0.45 for the exponents here; at M=4096 it costs 170-270 us for N
# (with N'), against 700-880 us for the 16-point rule those calls would
# take.  Past it the degree climbs like log(2^-54)/log|eta| (near 60 at
# 0.6, 100 at 0.7) while the Gauss rule's cost stays fixed, and each degree
# keeps one more grid array in the context.
_SERIES_CAP = 40


def _coefficient(terms, k):
    """a_k = sum_j C(a_j, k) x_j over (binomials, x_j) terms: a float when
    every x_j with C(a_j, k) != 0 is 1, else a grid array."""
    acc = 0.0
    for binom, x in terms:
        if binom[k] != 0.0:
            acc = acc + binom[k] * x
    return acc


class _PowerSeries:
    """The remainder of a sum of powers on one grid as a series in eta: the
    weight w, the coefficient arrays a_k made as far as a call has needed,
    and per degree n the tail factor (n+1)/2 sum_j m_j |C(a_j, n+1)|.
    """

    def __init__(self, w, terms, tail, a2):
        self.w = w
        self._terms = terms  # (binomials C(a_j, k) for k <= cap+1, x_j)
        self._tail = tail
        self._coef = [a2]  # a_2, a_3, ...

    @classmethod
    def of(cls, ctx):
        """The series of ctx, or None when its family is not a sum of
        powers or w, a_2 are not finite or a_2 vanishes on the grid."""
        exponents = ctx.nl.exponents
        if exponents is None:
            return None
        p = exponents[0]
        with np.errstate(all="ignore"):
            w = ctx.cls.b * ctx.Fphi * ctx.phi ** (p - 1.0)
            terms = []
            for a in exponents:
                if a in (0.0, 1.0):
                    continue  # linear in s: no remainder
                binom = [1.0]
                for k in range(_SERIES_CAP + 1):
                    binom.append(binom[-1] * (a - k) / (k + 1))
                terms.append((binom, 1.0 if a == p else ctx.phi ** (a - p)))
            a2 = _coefficient(terms, 2)
            m = [float(np.max(np.abs(x) / np.abs(a2))) for _, x in terms]
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(a2))
                and np.all(a2 != 0.0)):
            return None
        tail = [(n + 1) / 2.0 * sum(mj * abs(binom[n + 1])
                                    for mj, (binom, _) in zip(m, terms))
                if 2 * (n + 1) >= max(exponents) else math.inf
                for n in range(_SERIES_CAP + 1)]
        return cls(w, terms, tail, a2)

    def coefficients(self, n):
        """[a_2, ..., a_n], each a float or a grid array."""
        while len(self._coef) < n - 1:
            self._coef.append(_coefficient(self._terms, len(self._coef) + 2))
        return self._coef[:n - 1]

    def degree(self, eta_max):
        """The first degree whose tail bound at |eta| <= eta_max is below
        _SERIES_TOL, or None past _SERIES_CAP or when eta_max >= 1."""
        if not eta_max < 1.0:
            return None
        scale = 1.0 / (1.0 - eta_max)
        for n in range(2, _SERIES_CAP + 1):
            if self._tail[n] * eta_max ** (n - 1) * scale <= _SERIES_TOL:
                return n
        return None

    def remainder(self, nodes, eta, n, derivative):
        """N[eta] (and N'[eta]) to degree n at the grid nodes ``nodes``."""
        coef = [c if np.ndim(c) == 0 else c[nodes]
                for c in self.coefficients(n)]
        w = self.w[nodes]
        s = np.empty(np.broadcast_shapes(np.shape(w), eta.shape))
        s[...] = coef[-1]
        ds = np.zeros_like(s) if derivative else None
        for c in reversed(coef[:-1]):
            if derivative:
                ds *= eta
                ds += s
            s *= eta
            s += c
        w_eta = w * eta
        value = w_eta * eta * s
        if not derivative:
            return value
        ds *= eta
        ds += 2.0 * s
        return value, w_eta * ds


@dataclass(frozen=True)
class Grid:
    rho0: float
    rho_max: float
    M: int

    def __post_init__(self):
        if not self.rho0 < self.rho_max:
            raise GridError("rho0 must be below rho_max")
        if self.M < 9:
            raise GridError("grid needs at least 9 nodes")

    @property
    def h(self):
        return (self.rho_max - self.rho0) / (self.M - 1)

    @cached_property
    def rho(self):
        """The nodes, built once per grid and read-only."""
        rho = np.linspace(self.rho0, self.rho_max, self.M)
        rho.flags.writeable = False
        return rho


@dataclass(frozen=True)
class ProfileContext:
    """One Emden grid of one nonlinearity: the cached profile arrays, the
    shared KernelSet of the classification's regime (kernels.kernel_set),
    and what a solver derives from them alone (the weighted norm's terms,
    the remainder's series), each computed on first use and kept for every
    later solve."""

    nl: object
    cls: object
    ks: object
    grid: Grid
    phi: np.ndarray
    dphi: np.ndarray
    Fphi: np.ndarray
    I: np.ndarray
    L1: np.ndarray
    L2: np.ndarray
    deficit_fpF: np.ndarray  # f'F - q_f at phi
    deficit_fF: np.ndarray  # fF/phi - 1/(p_f-1) at phi

    @property
    def rho(self):
        return self.grid.rho

    @cached_property
    def weighted_norm_terms(self):
        """(Q(rho, rho0), int_{rho0}^{rho} Q |I|): the weighted norm's
        denominator is delta times the first plus the second."""
        return (super_kernel(self.cls, self.rho - self.grid.rho0, 0.0),
                convolve_Q_cumulative(self.ks, self.rho, np.abs(self.I)))

    @cached_property
    def power_series(self):
        """The remainder's series in eta for a sum of powers, else None."""
        return _PowerSeries.of(self)


def tilde_u(nl, cls, r):
    """Approximate singular solution F^{-1}(r^2 / b)."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError("r must be positive")
    sigma = r * r / cls.b
    if np.any(sigma >= nl.F_sup):
        raise DomainError("r too large: r^2/b must stay below F(s_min)")
    return nl.F_inv(sigma)


def build_context(nl, cls, rho0, rho_max, M):
    """Cache phi, phi', I, L1, L2 on the uniform rho-grid; ks is shared.
    Fphi is sigma = e^{-2rho}/b, which F(phi) matches within F_inv's stop
    test.  The deficits take F(phi) from F_inv's last pass, so the
    inversion's F passes are the context's (PowerSumLog adds one pass of
    R1).  GridError where sigma underflows to 0 or phi(rho0) is not above
    s_min."""
    if not cls.in_scope:
        raise GridError(f"regime out of scope: {cls.regime.reason}")
    grid = Grid(float(rho0), float(rho_max), int(M))
    rho = grid.rho
    b = cls.b
    sigma = np.exp(-2.0 * rho) / b
    if sigma[-1] == 0.0:
        raise GridError(
            f"sigma = e^(-2 rho)/b underflows to 0 from rho = "
            f"{float(rho[np.argmax(sigma == 0.0)])!r} on; the grid runs to "
            f"rho_max = {grid.rho_max!r}")
    if sigma[0] >= nl.F_sup:
        raise GridError(
            "phi(rho0) would fall below s_min; increase rho0"
        )
    phi, F = nl.F_inv(sigma, with_F=True)
    phi = np.asarray(phi, dtype=float)
    if phi[0] <= nl.s_min:
        raise GridError("phi(rho0) <= s_min; increase rho0")
    phi.flags.writeable = False  # to_radial hands it out as tilde_u

    d1, d2 = (np.asarray(d, dtype=float) for d in nl.deficits(phi, F))
    m_half = 1.0 / (nl.pf - 1.0)
    fF_over_phi = m_half + d2
    I = 4.0 * fF_over_phi * d1
    L1 = b * (d1 - d2) + I
    L2 = 4.0 * d2
    dphi = 2.0 * phi * fF_over_phi
    return ProfileContext(nl, cls, kernel_set(cls), grid, phi, dphi, sigma, I,
                          L1, L2, d1, d2)


def check_domain(ctx, nodes, eta):
    """Raise DomainError where phi(1+eta) leaves (s_min, inf) at the grid
    nodes selected by ``nodes``."""
    outside = (1.0 + eta) * ctx.phi[nodes] <= ctx.nl.s_min
    if np.any(outside):
        index = np.atleast_1d(np.arange(len(ctx.phi))[nodes])
        bad = int(index[np.argmax(outside)])
        raise DomainError(
            f"iterate leaves domain at node {bad}: phi(1+eta) <= s_min"
        )


def _gauss_rule(ctx, phi, eta):
    """(nodes, [w], [w, wd]) of the rule of _RULES with the fewest points
    that serves every (phi, eta) pair; a pure function of phi, eta and
    s_min."""
    zeta = eta * phi / (phi - ctx.nl.s_min)
    up, down = np.max(zeta, initial=0.0), -np.min(zeta, initial=0.0)
    for rule, up_cut, down_cut in _RULES:
        if up <= up_cut and down <= down_cut:
            return rule
    return _RULES[-1][0]


def nonlinear_term(ctx, eta, nodes=slice(None), derivative=False):
    """N[eta] = b (F(phi)/phi) (f(phi(1+eta)) - f(phi) - f'(phi) phi eta)
    at the grid nodes selected by ``nodes`` (an index, an index array or a
    slice; every node by default), eta broadcasting against them.  With
    ``derivative`` the pair (N[eta], N'[eta]) from the same pass, N'[eta] =
    b F(phi) (f'(phi(1+eta)) - f'(phi)) the derivative of N in eta, and N
    the same as without it.  A sum of powers sums its series where the
    degree stays within _SERIES_CAP; otherwise the Gauss rule.  Raises
    DomainError when phi(1+eta) leaves (s_min, inf).
    """
    eta = np.asarray(eta, dtype=float)
    check_domain(ctx, nodes, eta)
    series = ctx.power_series
    if series is not None:
        n = series.degree(float(np.max(np.abs(eta), initial=0.0)))
        if n is not None:
            return series.remainder(nodes, eta, n, derivative)
    return _gauss_remainder(ctx, nodes, eta, derivative)


def _gauss_remainder(ctx, nodes, eta, derivative):
    """nonlinear_term by the Gauss rule.  One f2 call takes a group of Gauss
    nodes, a (group, points) array, and the call keeps each row times its
    weight (and derivative weight).  One reduction then sums them in
    Gauss-node order from 0.0, as a loop over the rows would, so the value
    does not depend on the grouping."""
    phi = ctx.phi[nodes]
    phi_b, eta_b = np.broadcast_arrays(phi, eta)
    shape = phi_b.shape
    phi_b, eta_b = phi_b.reshape(-1), eta_b.reshape(-1)
    gauss_t, value_w, both_w = _gauss_rule(ctx, phi_b, eta_b)
    group = max(1, _GROUP_POINTS // max(phi_b.size, 1))
    weights = both_w if derivative else value_w
    # (weight sets, Gauss nodes, points)
    terms = np.empty((len(weights), len(gauss_t), phi_b.size))
    for start in range(0, len(gauss_t), group):
        stop = start + group
        rows = ctx.nl.f2(phi_b * (1.0 + gauss_t[start:stop, None] * eta_b))
        np.multiply(weights[:, start:stop, None], rows,
                    out=terms[:, start:stop])
    if phi_b.size > 1:
        sums = np.add.reduce(terms, axis=1, initial=0.0)
    else:
        # over one point numpy would sum the Gauss nodes pairwise;
        # accumulate adds them in order (the + 0.0 is the loop's start,
        # which turns a sum of -0.0 terms into 0.0)
        sums = np.add.accumulate(terms, axis=1)[:, -1] + 0.0
    scale = ctx.cls.b * ctx.Fphi[nodes] * phi * eta
    value = scale * eta * np.reshape(sums[0], shape)
    if not derivative:
        return value
    return value, scale * np.reshape(sums[1], shape)


@dataclass(frozen=True)
class SolutionProfile:
    """Radial-variable view of a remainder solution (descending r)."""

    ctx: ProfileContext
    r: np.ndarray
    tilde_u: np.ndarray
    theta: np.ndarray
    rtheta_prime: np.ndarray
    u: np.ndarray
    u_prime: np.ndarray
    residual: np.ndarray


def radial_residual_grid(ctx, r, u, u_prime):
    """Nodewise relative residual |-u'' - (N-1)/r u' - f(u)| / f(u) of the
    radial profile (r, u, u') on the grid of ctx.

    Interior nodes use the 5-point second difference in rho; the two nodes
    at each end copy the nearest interior value.  Where f(u) or e^{2 rho}
    overflows a double (long grids) the residual is NaN, without a warning.
    """
    rho = ctx.rho
    h = ctx.grid.h
    N = ctx.cls.N
    # analytic u_rho = phi'(1+eta) + phi eta'  ==  -r u'(r)
    u_rho = -r * u_prime
    u_rhorho = np.empty_like(u)
    u_rhorho[2:-2] = (
        -u[4:] + 16.0 * u[3:-1] - 30.0 * u[2:-2] + 16.0 * u[1:-3] - u[:-4]
    ) / (12.0 * h * h)
    res = np.empty_like(u)
    with np.errstate(over="ignore", invalid="ignore"):
        fu = np.asarray(ctx.nl.f(u), dtype=float)
        core = np.exp(2.0 * rho[2:-2]) * (
            (N - 2.0) * u_rho[2:-2] - u_rhorho[2:-2]
        )
        res[2:-2] = np.abs(core - fu[2:-2]) / fu[2:-2]
    res[:2] = res[2]
    res[-2:] = res[-3]
    return res


def to_radial(ctx, eta, deta):
    """Convert a remainder grid pair (eta, eta') to the radial profile.

    r_i = e^{-rho_i} (descending), theta = eta, r theta' = -eta',
    u = tilde_u (1 + theta); u' is assembled analytically from
    tilde_u' = -(2/r) f F and the chain rule.
    """
    eta = np.asarray(eta, dtype=float)
    deta = np.asarray(deta, dtype=float)
    r = np.exp(-ctx.rho)
    phi = ctx.phi
    u = phi * (1.0 + eta)
    # u'(r) = -e^rho (phi'(1+eta) + phi eta')
    u_prime = -(ctx.dphi * (1.0 + eta) + phi * deta) / r
    return SolutionProfile(
        ctx=ctx,
        r=r,
        tilde_u=phi,
        theta=eta.copy(),
        rtheta_prime=-deta,
        u=u,
        u_prime=u_prime,
        residual=radial_residual_grid(ctx, r, u, u_prime),
    )
