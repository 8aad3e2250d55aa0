"""Nonlinearity families: f, its derivatives, the decreasing primitive F,
its inverse, and the classification limit.

Each family's ``deficits(s)`` returns the two combinations that drive the
whole construction,

    (f'(s) F(s) - q_f,  f(s) F(s) / s - 1/(p_f - 1)),

evaluated in cancellation-free form (series / one-sided quadrature) where a
direct float64 subtraction would lose all digits on the far tail.  The
direct formulas and these forms are algebraically identical.  One call
makes both, so they share its F (or remainder) pass.

PowerExpLog, PowerSumLog and Generic have no closed form for F.  Their F
goes through ``_special.tail_integrals``, a scalar being a batch of one:
Gauss-Legendre panels in log u between neighbouring points, summed
cumulatively from the largest point down, and panels above it until the
rest of the tail is below rounding.  A lone point and the same point in a
batch differ only by rounding.  F^{-1} is Newton on log F against
log(s - s_min), nearly linear for every family here, in a per-node bracket.
Its last pass evaluates F at the root it returns, and ``F_inv(sigma,
with_F=True)`` hands that array back, so ``deficits(s, F)`` at the root
runs no F pass of its own: a context costs the inversion's passes alone
(PowerSumLog's two deficits add one pass of their shared remainder R1).
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._special import (
    _SERIES_TOL,
    horner,
    hyp2f1_1c,
    tail_integrals,
    upper_gamma,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    NoLimitError,
    QuadratureError,
)


class Nonlinearity:
    """Base class; concrete families override the evaluation methods.

    ``exponents`` is (a_1, a_2, ...) when f(s) = sum_j s^{a_j}, leading
    exponent p first: (p,) for PurePower, (p, r) for PowerSum.  profile
    then sums the quadratic remainder as a series in eta, to a degree set by
    a tail bound and capped at 40, and takes the Gauss rule over f'' past
    the cap.  It is None for every other family, Generic included, which
    always takes the Gauss rule.

    ``params`` names the spec keys a family's constructor reads, in spec
    order; ``spec()``, ``repr`` and ``from_spec`` read it.
    """

    name = "base"
    params = ()
    p = None
    r = None
    log_exp = None
    s_min = 0.0
    #: exact classification limit, or None when it must be estimated
    qf_exact = None
    exponents = None

    # -- evaluation ---------------------------------------------------------
    def f(self, s):
        raise NotImplementedError

    def f1(self, s):
        raise NotImplementedError

    def f2(self, s):
        raise NotImplementedError

    def F(self, s):
        raise NotImplementedError

    @cached_property
    def F_sup(self):
        """Least upper bound of F on (s_min, inf), i.e. lim_{s->s_min+} F,
        taken as F(s_min (1 + 1e-13)) when s_min > 0."""
        if self.s_min > 0.0:
            return float(self.F(self.s_min * (1.0 + 1e-13)))
        return math.inf

    @cached_property
    def qf_estimate(self):
        """estimate_qf(self), made once per nonlinearity."""
        return estimate_qf(self)

    @property
    def qf(self):
        return self.qf_estimate.value

    @property
    def pf(self):
        q = self.qf
        return q / (q - 1.0)

    @property
    def degenerate_leading_term(self):
        return False

    # -- deficits -----------------------------------------------------------
    def deficits(self, s, F=None):
        """(f'F - q_f, fF/s - 1/(p_f - 1)) at s.  ``F``, when given, is F(s)
        (F_inv's last pass at its root), and no F pass is run."""
        s = np.asarray(s, dtype=float)
        F = self.F(s) if F is None else F
        fpF = self.f1(s) * F - self.qf
        fF = self.f(s) * F / s - 1.0 / (self.pf - 1.0)
        return fpF, fF

    # -- inverse ------------------------------------------------------------
    def F_inv(self, sigma, with_F=False):
        """Unique s > s_min with F(s) = sigma (F is strictly decreasing);
        with ``with_F`` the pair (s, F(s)), F(s) from the inversion's last
        pass, or None where the inverse is a closed form."""
        return _invert_F(self, sigma, with_F)

    def _check_domain(self, s):
        s = np.asarray(s, dtype=float)
        if not np.all(np.isfinite(s) & (s > self.s_min)):
            raise DomainError(
                f"{self.name}: argument must be finite and exceed "
                f"s_min = {self.s_min}"
            )
        return s

    def spec(self):
        return {"family": self.name,
                **{k: getattr(self, k) for k in self.params}}

    def __repr__(self):
        parts = ", ".join(f"{k}={getattr(self, k)}" for k in self.params)
        return f"{type(self).__name__}({parts})"

    def _set_p(self, p):
        """The leading exponent p > 1 of a built-in family, which fixes
        its classification limit q_f = p/(p-1)."""
        if p <= 1.0:
            raise ValueError("p must exceed 1")
        self.p = float(p)
        self.qf_exact = self.p / (self.p - 1.0)

    def _validate_positive(self, samples):
        for s in samples:
            if not (self.f(s) > 0.0 and self.f1(s) > 0.0):
                raise DomainError(
                    f"{self.name}: f or f' not positive at s = {s}; "
                    "parameters violate the standing hypotheses"
                )


class PurePower(Nonlinearity):
    """f(s) = s^p, the model nonlinearity; all deficits vanish identically."""

    name = "power"
    params = ("p",)

    def __init__(self, p):
        self._set_p(p)
        self.exponents = (self.p,)

    def f(self, s):
        return np.asarray(s, float) ** self.p

    def f1(self, s):
        s = np.asarray(s, float)
        return self.p * s ** (self.p - 1.0)

    def f2(self, s):
        s = np.asarray(s, float)
        return self.p * (self.p - 1.0) * s ** (self.p - 2.0)

    def F(self, s):
        s = np.asarray(s, float)
        return s ** (1.0 - self.p) / (self.p - 1.0)

    def F_inv(self, sigma, with_F=False):
        sigma = check_sigma(self, sigma)
        s = ((self.p - 1.0) * sigma) ** (-1.0 / (self.p - 1.0))
        return (s, None) if with_F else s

    def deficits(self, s, F=None):
        s = np.asarray(s, dtype=float)
        return np.zeros_like(s), np.zeros_like(s)


class PowerSum(Nonlinearity):
    """f(s) = s^p + s^r with 0 < r < p.

    F has the closed form s^(1-p)/(p-1) * 2F1(1, c; c+1; -s^(r-p)) with
    c = (p-1)/(p-r); at r = 1 (c = 1) it is log1p(s^(1-p))/(p-1), and so
    is F^{-1}.  The deficit series are the expansions in powers of
    s^(r-p), summed directly so the far tail keeps relative accuracy.
    """

    name = "power_sum"
    params = ("p", "r")

    def __init__(self, p, r):
        self._set_p(p)
        if not 0.0 < r < p:
            raise ValueError("r: must satisfy 0 < r < p")
        self.r = float(r)
        self.exponents = (self.p, self.r)
        self._c = (self.p - 1.0) / (self.p - self.r)
        # below this the deficit series converges too slowly; evaluate direct
        self._s_series = max(2.0, 0.85 ** (-1.0 / (self.p - self.r)))

    @property
    def degenerate_leading_term(self):
        return abs(self.p - self.r - 1.0) < 1e-12

    def f(self, s):
        s = np.asarray(s, float)
        return s ** self.p + s ** self.r

    def f1(self, s):
        s = np.asarray(s, float)
        return self.p * s ** (self.p - 1.0) + self.r * s ** (self.r - 1.0)

    def f2(self, s):
        s = np.asarray(s, float)
        return self.p * (self.p - 1.0) * s ** (self.p - 2.0) + self.r * (
            self.r - 1.0
        ) * s ** (self.r - 2.0)

    def F(self, s):
        s = np.asarray(s, float)
        p, r = self.p, self.r
        if r == 1.0:
            return np.log1p(s ** (1.0 - p)) / (p - 1.0)
        # x^-c = s^(p-1), exact in s where c = (p-1)/(p-r) is rounded; it is
        # read only where x > 1, that is s < 1, so sp = 0 (huge s) is harmless
        with np.errstate(over="ignore", divide="ignore"):
            sp = s ** (1.0 - p)
            x = s ** (r - p)
            x_pow_c = 1.0 / sp
        # where x = s^(r-p) overflows, F has reached its limit at s = 0:
        # F_sup for r < 1, inf for r > 1 (which is F_sup too)
        at_zero = np.isinf(x)
        sp, x = np.where(at_zero, 0.0, sp), np.where(at_zero, 0.0, x)
        F = sp / (p - 1.0) * hyp2f1_1c(self._c, x, x_pow_c)
        return np.where(at_zero, self.F_sup, np.minimum(F, self.F_sup))[()]

    @property
    def F_sup(self):
        if self.r >= 1.0:
            return math.inf
        # sin(pi c) = sin(pi (1 - c)); near c = 1 sin(pi c) magnifies the
        # rounding of c by c/(1 - c), so above 1/2 the sine takes 1 - c,
        # computed as (1 - r)/(p - r) rather than by a subtraction
        c = self._c if self._c <= 0.5 else (1.0 - self.r) / (self.p - self.r)
        return math.pi / ((self.p - self.r) * math.sin(math.pi * c))

    def F_inv(self, sigma, with_F=False):
        if self.r != 1.0:
            return _invert_F(self, sigma, with_F)
        sigma = check_sigma(self, sigma)
        p = self.p
        s = np.expm1((p - 1.0) * sigma) ** (-1.0 / (p - 1.0))
        return (s, None) if with_F else s

    def _deficit_series(self, s, coef):
        """Sum_{k>=1} (-1)^(k-1) coef(k) x^k with x = s^(r-p) <= 0.85, by
        Horner to the degree the largest x needs.

        With d = p - r, every |coef(j)| for j >= k is at most
        m d / (p - 1 + (k-1) d), m = max(1, 1/(p-1)), so the rest after
        degree n is below m d / (p - 1 + n d) x^(n+1) / (1 - x).  The degree
        is the first n where that is below _SERIES_TOL of the first nonzero
        term, which is the second where coef_fpF(1) = 0 (p - r = 1).
        """
        x = np.asarray(s, dtype=float) ** (self.r - self.p)
        xmax = float(np.max(x))
        p, d = self.p, self.p - self.r
        m = max(1.0, 1.0 / (p - 1.0))
        b = []
        lead = 0.0
        while True:
            k = len(b) + 1
            b.append((-1.0) ** (k - 1) * coef(k))
            lead = lead or abs(b[-1]) * xmax ** k
            rest = m * d / (p - 1.0 + k * d) * xmax ** (k + 1) / (1.0 - xmax)
            if rest <= _SERIES_TOL * lead:
                break
        return horner(b, x) * x

    def _coef_fpF(self, k):
        p, r = self.p, self.r
        d = p - r
        return d * (1.0 - k * d) / ((p - 1.0 + k * d) * (p - 1.0 + (k - 1) * d))

    def _coef_fF(self, k):
        p, r = self.p, self.r
        d = p - r
        return d / ((p - 1.0 + k * d) * (p - 1.0 + (k - 1) * d))

    def deficits(self, s, F=None):
        """Direct below _s_series, F evaluated there on that subset alone
        (hyp2f1_1c picks its degree from the call's largest argument, so a
        slice of a full-grid F could differ by rounding); the series at
        and above it.  ``F`` is not read."""
        s = np.asarray(s, dtype=float)
        fpF, fF = np.empty_like(s), np.empty_like(s)
        small = s < self._s_series
        if np.any(small):
            t = s[small]
            Ft = self.F(t)
            fpF[small] = self.f1(t) * Ft - self.qf_exact
            fF[small] = self.f(t) * Ft / t - 1.0 / (self.p - 1.0)
        if np.any(~small):
            fpF[~small] = self._deficit_series(s[~small], self._coef_fpF)
            fF[~small] = self._deficit_series(s[~small], self._coef_fF)
        return fpF, fF


class PowerLog(Nonlinearity):
    """f(s) = s^p (log s)^r for s > 2, p > 1, real r.

    F reduces to an upper incomplete gamma of order 1 - r.  The deficits
    decay only like 1/log s, so direct evaluation never loses precision in
    any reachable range.
    """

    name = "power_log"
    params = ("p", "r")

    def __init__(self, p, r):
        self._set_p(p)
        self.r = float(r)
        # keep f' = s^(p-1)(log s)^(r-1)(p log s + r) positive
        self.s_min = max(2.0, math.exp(-self.r / self.p) * (1.0 + 1e-9))
        self._validate_positive(
            [self.s_min * 1.0001, self.s_min + 1.0, 10.0, 1e4, 1e8]
        )

    def f(self, s):
        s = np.asarray(s, float)
        return s ** self.p * np.log(s) ** self.r

    def f1(self, s):
        s = np.asarray(s, float)
        t = np.log(s)
        return s ** (self.p - 1.0) * t ** (self.r - 1.0) * (self.p * t + self.r)

    def f2(self, s):
        s = np.asarray(s, float)
        p, r = self.p, self.r
        t = np.log(s)
        poly = p * (p - 1.0) * t * t + r * (2.0 * p - 1.0) * t + r * (r - 1.0)
        return s ** (p - 2.0) * t ** (r - 2.0) * poly

    def F(self, s):
        s = np.asarray(s, float)
        x = (self.p - 1.0) * np.log(s)
        return (self.p - 1.0) ** (self.r - 1.0) * upper_gamma(1.0 - self.r, x)


class PowerExpLog(Nonlinearity):
    """f(s) = s^p exp((log s)^r) for s > 1, p > 1, 0 < r < 1."""

    name = "power_exp_log"
    params = ("p", "r")

    def __init__(self, p, r):
        self._set_p(p)
        if not 0.0 < r < 1.0:
            raise ValueError("r: must satisfy 0 < r < 1")
        self.r = float(r)
        self.s_min = 1.0

    def f(self, s):
        s = np.asarray(s, float)
        return s ** self.p * np.exp(np.log(s) ** self.r)

    def f1(self, s):
        s = np.asarray(s, float)
        t = np.log(s)
        return (
            s ** (self.p - 1.0)
            * np.exp(t ** self.r)
            * (self.p + self.r * t ** (self.r - 1.0))
        )

    def f2(self, s):
        # s^(p-2) e^(t^r) ((p + g)(p - 1 + g) + (r - 1) g/t), t = log s and
        # g = r t^(r-1) = r t^r/t: one log, two powers and one exp per point
        s = np.asarray(s, float)
        p, r = self.p, self.r
        t = np.log(s)
        tr = t ** r
        g = r * tr / t
        return (
            s ** (p - 2.0)
            * np.exp(tr)
            * ((p + g) * (p - 1.0 + g) + (r - 1.0) * g / t)
        )

    def _psi(self, x):
        # F = exp(-psi(x)) * int_x^inf exp(psi(x) - psi(y)) dy with x = log s;
        # the prefactor keeps the integral O(1)
        return (self.p - 1.0) * x + x ** self.r

    def F(self, s):
        s = np.asarray(s, dtype=float)
        J = tail_integrals(s, None, self._psi, self.s_min)
        return np.exp(-self._psi(np.log(s))) * J


class PowerSumLog(Nonlinearity):
    """f(s) = s^p + s^r (log s)^b for s > 2 with 0 < r < p, real b.

    The secondary log-power is called ``log_exp`` to avoid a clash with the
    initial-slope parameter beta of the boundary data.
    """

    name = "power_sum_log"
    params = ("p", "r", "log_exp")

    def __init__(self, p, r, log_exp):
        self._set_p(p)
        if not 0.0 < r < p:
            raise ValueError("r: must satisfy 0 < r < p")
        self.r = float(r)
        self.log_exp = float(log_exp)
        self.s_min = 2.0
        self._validate_positive(
            [self.s_min * 1.0001, self.s_min + 1.0, 10.0, 1e4, 1e8]
        )

    @property
    def degenerate_leading_term(self):
        return abs(self.p - self.r - 1.0) < 1e-12

    def _w(self, s):
        # lower-order part relative to s^p: f = s^p (1 + w)
        return s ** (self.r - self.p) * np.log(s) ** self.log_exp

    def _sw1(self, s):
        # s * w'(s)
        b = self.log_exp
        t = np.log(s)
        return s ** (self.r - self.p) * t ** (b - 1.0) * (
            b - (self.p - self.r) * t
        )

    def f(self, s):
        s = np.asarray(s, float)
        return s ** self.p * (1.0 + self._w(s))

    def f1(self, s):
        s = np.asarray(s, float)
        b = self.log_exp
        t = np.log(s)
        return self.p * s ** (self.p - 1.0) + s ** (self.r - 1.0) * t ** (
            b - 1.0
        ) * (self.r * t + b)

    def f2(self, s):
        s = np.asarray(s, float)
        r, b = self.r, self.log_exp
        t = np.log(s)
        poly = r * (r - 1.0) * t * t + b * (2.0 * r - 1.0) * t + b * (b - 1.0)
        return self.p * (self.p - 1.0) * s ** (self.p - 2.0) + s ** (
            r - 2.0
        ) * t ** (b - 2.0) * poly

    def _R1_weight(self, x):
        # w/(1+w) at u = e^x
        w = np.exp((self.r - self.p) * x) * x ** self.log_exp
        return w / (1.0 + w)

    def _R1(self, s):
        """s^(p-1) * int_s^inf u^-p w/(1+w) du  (positive, O(w(s)))."""
        return tail_integrals(
            s, self._R1_weight, lambda x: (self.p - 1.0) * x, self.s_min
        )

    def _F_weight(self, x):
        # 1/(1+w) at u = e^x
        return 1.0 / (1.0 + np.exp((self.r - self.p) * x) * x ** self.log_exp)

    def F(self, s):
        # F = s^(1-p) * s^(p-1) int_s^inf u^-p/(1+w) du: a positive
        # integrand, where 1/(p-1) - R1 would cancel once w(s) >> 1
        s = np.asarray(s, dtype=float)
        J = tail_integrals(
            s, self._F_weight, lambda x: (self.p - 1.0) * x, self.s_min
        )
        return s ** (1.0 - self.p) * J

    def deficits(self, s, F=None):
        """Both deficits from one pass of R1; ``F`` is not read."""
        s = np.asarray(s, dtype=float)
        R1 = self._R1(s)
        w = self._w(s)
        sw1 = self._sw1(s)
        m1 = 1.0 / (self.p - 1.0)
        return (-self.p * R1 + (self.p * w + sw1) * (m1 - R1),
                w / (self.p - 1.0) - (1.0 + w) * R1)


class Generic(Nonlinearity):
    """Wraps user callables for f, f', f''; F by quadrature in log u."""

    name = "generic"

    def __init__(self, f, f1, f2, s_min=0.0, qf=None):
        self._f, self._f1, self._f2 = f, f1, f2
        self.s_min = float(s_min)
        self.qf_exact = qf

    def f(self, s):
        def f_or_inf(u):  # f > 0, so a Python OverflowError means +inf
            try:
                return self._f(u)
            except OverflowError:
                return math.inf
        return np.vectorize(f_or_inf, otypes=[float])(s)[()]

    def f1(self, s):
        return np.vectorize(self._f1, otypes=[float])(s)[()]

    def f2(self, s):
        return np.vectorize(self._f2, otypes=[float])(s)[()]

    def _weight(self, x):
        # du/f(u) = e^x/f(e^x) dx; where u or f(u) overflows the value is
        # nan, which tail_integrals raises as QuadratureError
        with np.errstate(over="ignore", invalid="ignore"):
            u = np.exp(x)
            fu = self.f(u)
            return np.where(np.isfinite(fu), u / fu, np.nan)

    def F(self, s):
        return tail_integrals(s, self._weight, None, self.s_min)

    @cached_property
    def F_sup(self):
        try:
            return float(self.F(max(self.s_min * (1 + 1e-10),
                                    self.s_min + 1e-10)))
        except QuadratureError:
            return math.inf


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def evaluate(nl, s):
    """Return the triple (f(s), f'(s), f''(s)); DomainError when s <= s_min."""
    s = nl._check_domain(s)
    return nl.f(s), nl.f1(s), nl.f2(s)


def eval_F(nl, s):
    """F(s) = int_s^inf dtau / f(tau)."""
    s = nl._check_domain(s)
    return nl.F(s)


def check_sigma(nl, sigma):
    """sigma as an array; DomainError unless each lies in (0, F_sup)."""
    sigma = np.asarray(sigma, dtype=float)
    if not np.all((sigma > 0.0) & (sigma < nl.F_sup)):
        raise DomainError(
            f"{nl.name}: sigma must lie in (0, F_sup = {nl.F_sup})"
        )
    return sigma


def _invert_F(nl, sigma, with_F=False):
    """F(s) = sigma, vectorized in sigma, by Newton on log F against log d,
    d = s - s_min: d <- d exp(log(F/sigma) f F/d), exact for a pure power,
    until |F - sigma| <= 1e-13 sigma at every node (at most 100 F passes).
    Where f F/d is not finite or positive, the seed's 1/(p_f - 1) stands in.
    Each F pass narrows a per-node bracket, first (s_min, inf); a step out
    of it bisects geometrically in d, or moves 16x toward an open side, to
    sqrt(d) toward s_min when that is farther (a seed far above the root,
    where F underflows, comes down in a few passes).  A node whose bracket
    holds no float any more, where F's own rounding exceeds the stop test,
    raises ConvergenceError at once with its residual.  The last pass
    evaluates F at the root itself; ``with_F`` hands it back beside the
    root, (s, F(s)), so a caller needs no pass of its own."""
    sigma = check_sigma(nl, sigma)
    scalar = sigma.ndim == 0
    sig = np.atleast_1d(sigma).astype(float)

    pf = nl.pf
    with np.errstate(over="ignore"):
        seed = ((pf - 1.0) * sig) ** (-1.0 / (pf - 1.0))
    if not np.all(np.isfinite(seed)):
        raise DomainError(f"{nl.name}: sigma too small, F inverse overflows")
    smin = nl.s_min
    x = np.maximum(seed, smin + np.maximum(1e-8 * max(smin, 1.0), 1e-12))
    lo, hi = np.full_like(x, smin), np.full_like(x, math.inf)
    for _ in range(100):
        F = np.asarray(nl.F(x))
        g = F - sig
        done = np.abs(g) <= 1e-13 * sig
        if np.all(done):
            break
        above = g > 0.0  # F(x) too large -> root lies to the right
        lo = np.where(above, x, lo)
        hi = np.where(above, hi, x)
        stuck = ~done & (np.nextafter(lo, hi) >= hi)
        if np.any(stuck):
            i = int(np.argmax(stuck))
            raise ConvergenceError(
                f"{nl.name}: F inverse bracket collapsed at "
                f"s = {float(x[i])!r}, |F - sigma|/sigma = "
                f"{abs(g[i]) / sig[i]:.3g} above 1e-13")
        d, dlo, dhi = x - smin, lo - smin, hi - smin
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            slope = np.asarray(nl.f(x)) * F / d
            slope = np.where(np.isfinite(slope) & (slope > 0.0), slope,
                             1.0 / (pf - 1.0))
            xn = smin + d * np.exp(np.log1p(g / sig) * slope)
            # sqrt(dlo) sqrt(dhi): the product itself can overflow
            mid = np.where(dlo == 0.0, np.minimum(dhi / 16.0, np.sqrt(dhi)),
                           np.where(np.isinf(dhi), 16.0 * dlo,
                                    np.sqrt(dlo) * np.sqrt(dhi)))
        xn = np.where((xn > lo) & (xn < hi), xn, smin + mid)  # nan: bisect
        # converged nodes stay put: their step can round to x itself, which
        # the bracket test would take for a step outside
        x = np.where(done, x, xn)
    else:
        raise ConvergenceError("F inverse root finder exceeded iteration cap")
    if scalar:
        x, F = float(x[0]), float(F[0])
    return (x, F) if with_F else x


@dataclass
class QfEstimate:
    value: float
    converged: bool
    history: list = field(default_factory=list)


def _aitken(seq):
    """One Aitken delta-squared acceleration of the last triple."""
    x0, x1, x2 = seq[-3], seq[-2], seq[-1]
    den = (x2 - x1) - (x1 - x0)
    if den == 0.0:
        return x2
    return x2 - (x2 - x1) ** 2 / den


def estimate_qf(nl):
    """Estimate q_f = lim f'F = lim f'^2/(f f'') on u = 10^k, k = 2..8.

    Exact for the built-in families.  For Generic both estimator sequences
    are accelerated (Aitken on the geometric nodes); converged requires the
    accelerated values to agree within 1e-4 and the raw sequences to be
    Cauchy.
    """
    if nl.qf_exact is not None:
        return QfEstimate(nl.qf_exact, True, [])

    us = 10.0 ** np.arange(2, 9)
    hist = []
    e1_seq, e2_seq = [], []
    for u in us:
        e1 = float(nl.f1(u)) * float(nl.F(u))
        e2 = float(nl.f1(u)) ** 2 / (float(nl.f(u)) * float(nl.f2(u)))
        e1_seq.append(e1)
        e2_seq.append(e2)
        hist.append((float(u), e1, e2))

    a1, a2 = _aitken(e1_seq), _aitken(e2_seq)
    d1 = [abs(b - a) for a, b in zip(e1_seq, e1_seq[1:])]
    d2 = [abs(b - a) for a, b in zip(e2_seq, e2_seq[1:])]
    scale = max(1.0, abs(a1), abs(a2))
    cauchy = (
        d1[-1] <= max(1.5 * d1[-2], 1e-12 * scale)
        and d2[-1] <= max(1.5 * d2[-2], 1e-12 * scale)
        and d1[-1] <= 1e-4 * scale
        and d2[-1] <= 1e-4 * scale
    )
    agree = abs(a1 - a2) <= 1e-4 * scale
    converged = bool(cauchy and agree)
    if not converged and abs(a1 - a2) > 1e-2 * scale:
        raise NoLimitError(
            f"classification limit did not stabilize: {a1} vs {a2}"
        )
    return QfEstimate(0.5 * (a1 + a2), converged, hist)


#: the built-in families by name, each declaring the parameters it reads
FAMILIES = {c.name: c for c in (PurePower, PowerSum, PowerLog, PowerExpLog,
                                PowerSumLog)}
#: every parameter some family reads, in spec order
PARAMS = tuple(dict.fromkeys(k for c in FAMILIES.values() for k in c.params))


def from_spec(spec):
    """Build a Nonlinearity from a config mapping like
    {"family": "power_sum", "p": 2.0, "r": 1.0}.

    ConfigError, naming the field, unless the family is known, each of
    PARAMS it reads is set, none it does not read is (a None value counts
    as unset), and its constructor takes the values; keys outside PARAMS
    are not read."""
    kind = spec.get("family")
    if kind not in FAMILIES:
        raise ConfigError(
            f"family: unknown family {kind!r}; expected one of "
            f"{sorted(FAMILIES)}"
        )
    cls = FAMILIES[kind]
    for key in PARAMS:
        if key in cls.params and spec.get(key) is None:
            raise ConfigError(f"{key}: required for family {kind!r}")
        if key not in cls.params and spec.get(key) is not None:
            raise ConfigError(f"{key}: family {kind!r} does not read it")
    kwargs = {key: float(spec[key]) for key in cls.params}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
