"""Nonlinearity families: f, its derivatives, the decreasing primitive F,
its inverse, and the classification limit.

Each family also exposes the two "deficit" combinations that drive the
whole construction,

    deficit_fpF(s) = f'(s) F(s) - q_f
    deficit_fF(s)  = f(s) F(s) / s - 1/(p_f - 1),

evaluated in cancellation-free form (series / one-sided quadrature) where a
direct float64 subtraction would lose all digits on the far tail.  The
direct formulas and these forms are algebraically identical.

PowerExpLog, PowerSumLog and Generic have no closed form for F.  Their F
goes through ``_special.tail_integrals``, a scalar being a batch of one:
Gauss-Legendre panels in log u between neighbouring points, summed
cumulatively from the largest point down, and panels above it until the
rest of the tail is below rounding.  A lone point and the same point in a
batch differ only by rounding.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import special

from ._special import tail_integrals, upper_gamma
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    NoLimitError,
    QuadratureError,
    UnsupportedFamilyError,
)


class Nonlinearity:
    """Base class; concrete families override the evaluation methods."""

    name = "base"
    p = None
    r = None
    log_exp = None
    s_min = 0.0
    #: exact classification limit, or None when it must be estimated
    qf_exact = None

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

    @property
    def qf(self):
        if self.qf_exact is not None:
            return self.qf_exact
        return estimate_qf(self).value

    @property
    def pf(self):
        q = self.qf
        return q / (q - 1.0)

    @property
    def degenerate_leading_term(self):
        return False

    # -- deficits -----------------------------------------------------------
    def deficit_fpF(self, s):
        s = np.asarray(s, dtype=float)
        return self.f1(s) * self.F(s) - self.qf

    def deficit_fF(self, s):
        s = np.asarray(s, dtype=float)
        return self.f(s) * self.F(s) / s - 1.0 / (self.pf - 1.0)

    # -- inverse ------------------------------------------------------------
    def F_inv(self, sigma):
        """Unique s > s_min with F(s) = sigma (F is strictly decreasing)."""
        return _invert_F(self, sigma)

    def _check_domain(self, s):
        s = np.asarray(s, dtype=float)
        if not np.all(np.isfinite(s) & (s > self.s_min)):
            raise DomainError(
                f"{self.name}: argument must be finite and exceed "
                f"s_min = {self.s_min}"
            )
        return s

    def spec(self):
        out = {"family": self.name}
        for key in ("p", "r", "log_exp"):
            v = getattr(self, key)
            if v is not None:
                out[key] = v
        return out

    def __repr__(self):
        parts = ", ".join(
            f"{k}={getattr(self, k)}"
            for k in ("p", "r", "log_exp")
            if getattr(self, k) is not None
        )
        return f"{type(self).__name__}({parts})"

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

    def __init__(self, p):
        if p <= 1.0:
            raise ValueError("p must exceed 1")
        self.p = float(p)
        self.s_min = 0.0
        self.qf_exact = self.p / (self.p - 1.0)

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

    def F_inv(self, sigma):
        sigma = _check_sigma(self, sigma)
        return ((self.p - 1.0) * sigma) ** (-1.0 / (self.p - 1.0))

    def deficit_fpF(self, s):
        return np.zeros_like(np.asarray(s, dtype=float))

    def deficit_fF(self, s):
        return np.zeros_like(np.asarray(s, dtype=float))


class PowerSum(Nonlinearity):
    """f(s) = s^p + s^r with 0 < r < p.

    F has the closed form s^(1-p)/(p-1) * 2F1(1, c; c+1; -s^(r-p)) with
    c = (p-1)/(p-r); the deficit series are the expansions in powers of
    s^(r-p), summed directly so the far tail keeps relative accuracy.
    """

    name = "power_sum"

    def __init__(self, p, r):
        if p <= 1.0:
            raise ValueError("p must exceed 1")
        if not 0.0 < r < p:
            raise ValueError("r must satisfy 0 < r < p")
        self.p = float(p)
        self.r = float(r)
        self.s_min = 0.0
        self.qf_exact = self.p / (self.p - 1.0)
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
        p, r, c = self.p, self.r, self._c
        if abs(p - 2.0) < 1e-14 and abs(r - 1.0) < 1e-14:
            return np.log1p(1.0 / s)
        x = s ** (r - p)
        return s ** (1.0 - p) / (p - 1.0) * special.hyp2f1(1.0, c, c + 1.0, -x)

    @property
    def F_sup(self):
        if self.r >= 1.0:
            return math.inf
        return math.pi / ((self.p - self.r) * math.sin(math.pi * self._c))

    def F_inv(self, sigma):
        sigma = _check_sigma(self, sigma)
        if abs(self.p - 2.0) < 1e-14 and abs(self.r - 1.0) < 1e-14:
            return 1.0 / np.expm1(sigma)
        return _invert_F(self, sigma)

    def _deficit_series(self, s, coef):
        """Sum_{k>=1} (-1)^(k-1) coef(k) s^(-k(p-r)), vectorized in s."""
        s = np.asarray(s, dtype=float)
        x = s ** (self.r - self.p)
        acc = np.zeros_like(s)
        xk = np.ones_like(s)
        scale = np.full_like(s, 1e-300)
        small_streak = 0
        for k in range(1, 20001):
            xk = xk * x
            term = ((-1.0) ** (k - 1)) * coef(k) * xk
            acc += term
            scale = np.maximum(scale, np.abs(acc))
            # a single coefficient may vanish (degenerate p - r = 1), so only
            # stop after two consecutive negligible terms
            if np.max(np.abs(term) / scale) < 1e-17:
                small_streak += 1
                if small_streak >= 2:
                    break
            else:
                small_streak = 0
        return acc

    def _coef_fpF(self, k):
        p, r = self.p, self.r
        d = p - r
        return d * (1.0 - k * d) / ((p - 1.0 + k * d) * (p - 1.0 + (k - 1) * d))

    def _coef_fF(self, k):
        p, r = self.p, self.r
        d = p - r
        return d / ((p - 1.0 + k * d) * (p - 1.0 + (k - 1) * d))

    def deficit_fpF(self, s):
        s = np.asarray(s, dtype=float)
        out = np.empty_like(s)
        small = s < self._s_series
        if np.any(small):
            ss = s[small]
            out[small] = self.f1(ss) * self.F(ss) - self.qf_exact
        if np.any(~small):
            out[~small] = self._deficit_series(s[~small], self._coef_fpF)
        return out

    def deficit_fF(self, s):
        s = np.asarray(s, dtype=float)
        out = np.empty_like(s)
        small = s < self._s_series
        if np.any(small):
            ss = s[small]
            out[small] = self.f(ss) * self.F(ss) / ss - 1.0 / (self.p - 1.0)
        if np.any(~small):
            out[~small] = self._deficit_series(s[~small], self._coef_fF)
        return out


class PowerLog(Nonlinearity):
    """f(s) = s^p (log s)^r for s > 2, p > 1, real r.

    F reduces to an upper incomplete gamma of order 1 - r.  The deficits
    decay only like 1/log s, so direct evaluation never loses precision in
    any reachable range.
    """

    name = "power_log"

    def __init__(self, p, r):
        if p <= 1.0:
            raise ValueError("p must exceed 1")
        self.p = float(p)
        self.r = float(r)
        # keep f' = s^(p-1)(log s)^(r-1)(p log s + r) positive
        self.s_min = max(2.0, math.exp(-self.r / self.p) * (1.0 + 1e-9))
        self.qf_exact = self.p / (self.p - 1.0)
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

    def __init__(self, p, r):
        if p <= 1.0:
            raise ValueError("p must exceed 1")
        if not 0.0 < r < 1.0:
            raise ValueError("r must satisfy 0 < r < 1")
        self.p = float(p)
        self.r = float(r)
        self.s_min = 1.0
        self.qf_exact = self.p / (self.p - 1.0)

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
        s = np.asarray(s, float)
        p, r = self.p, self.r
        t = np.log(s)
        rt = r * t ** (r - 1.0)
        return (
            s ** (p - 2.0)
            * np.exp(t ** r)
            * ((p + rt) * (p - 1.0 + rt) + r * (r - 1.0) * t ** (r - 2.0))
        )

    def _psi(self, x):
        # F = exp(-psi(x)) * int_x^inf exp(psi(x) - psi(y)) dy with x = log s;
        # the prefactor keeps the integral O(1)
        return (self.p - 1.0) * x + x ** self.r

    def F(self, s):
        s = np.asarray(s, dtype=float)
        J = tail_integrals(s, np.ones_like, self._psi, self.s_min)
        return np.exp(-self._psi(np.log(s))) * J


class PowerSumLog(Nonlinearity):
    """f(s) = s^p + s^r (log s)^b for s > 2 with 0 < r < p, real b.

    The secondary log-power is called ``log_exp`` to avoid a clash with the
    initial-slope parameter beta of the boundary data.
    """

    name = "power_sum_log"

    def __init__(self, p, r, log_exp):
        if p <= 1.0:
            raise ValueError("p must exceed 1")
        if not 0.0 < r < p:
            raise ValueError("r must satisfy 0 < r < p")
        self.p = float(p)
        self.r = float(r)
        self.log_exp = float(log_exp)
        self.s_min = 2.0
        self.qf_exact = self.p / (self.p - 1.0)
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

    def F(self, s):
        s = np.asarray(s, dtype=float)
        R1 = self._R1(s)  # first: it rejects points outside the domain
        # F = s^(1-p) (1/(p-1) - R1), exact splitting of the pure-power tail
        return s ** (1.0 - self.p) * (1.0 / (self.p - 1.0) - R1)

    def deficit_fpF(self, s):
        s = np.asarray(s, dtype=float)
        R1 = self._R1(s)
        w = self._w(s)
        sw1 = self._sw1(s)
        m1 = 1.0 / (self.p - 1.0)
        return -self.p * R1 + (self.p * w + sw1) * (m1 - R1)

    def deficit_fF(self, s):
        s = np.asarray(s, dtype=float)
        R1 = self._R1(s)
        w = self._w(s)
        return w / (self.p - 1.0) - (1.0 + w) * R1


class Generic(Nonlinearity):
    """Wraps user callables for f, f', f''; F by quadrature in log u."""

    name = "generic"

    def __init__(self, f, f1, f2, s_min=0.0, qf=None):
        self._f, self._f1, self._f2 = f, f1, f2
        self.s_min = float(s_min)
        self.qf_exact = qf

    def f(self, s):
        return np.vectorize(self._f, otypes=[float])(s)[()]

    def f1(self, s):
        return np.vectorize(self._f1, otypes=[float])(s)[()]

    def f2(self, s):
        return np.vectorize(self._f2, otypes=[float])(s)[()]

    def _weight(self, x):
        # du/f(u) = e^x/f(e^x) dx; where u overflows the value is not finite,
        # which tail_integrals raises as QuadratureError
        with np.errstate(over="ignore", invalid="ignore"):
            u = np.exp(x)
            return u / self.f(u)

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


def eval_F_inverse(nl, sigma):
    """The unique s with F(s) = sigma; round trip |F(s) - sigma| <= 1e-10 sigma."""
    return nl.F_inv(sigma)


def _check_sigma(nl, sigma):
    sigma = np.asarray(sigma, dtype=float)
    if not np.all((sigma > 0.0) & (sigma < nl.F_sup)):
        raise DomainError(
            f"{nl.name}: sigma must lie in (0, F_sup = {nl.F_sup})"
        )
    return sigma


def _invert_F(nl, sigma, rtol=1e-13, max_iter=100):
    """Safeguarded (bracketed) Newton for F(s) = sigma, vectorized in sigma."""
    sigma = _check_sigma(nl, sigma)
    scalar = sigma.ndim == 0
    sig = np.atleast_1d(sigma).astype(float)

    pf = nl.pf
    with np.errstate(over="ignore"):
        seed = ((pf - 1.0) * sig) ** (-1.0 / (pf - 1.0))
    if not np.all(np.isfinite(seed)):
        raise DomainError(f"{nl.name}: sigma too small, F inverse overflows")
    smin = nl.s_min
    seed = np.maximum(seed, smin + np.maximum(1e-8 * max(smin, 1.0), 1e-12))

    lo = smin + (seed - smin) / 4.0
    hi = smin + (seed - smin) * 4.0
    # expand until F(lo) >= sigma >= F(hi) (F is decreasing)
    for _ in range(200):
        bad = np.asarray(nl.F(lo)) < sig
        if not np.any(bad):
            break
        lo[bad] = smin + (lo[bad] - smin) / 4.0
    else:
        raise DomainError(f"{nl.name}: failed to bracket F inverse from below")
    for _ in range(200):
        bad = np.asarray(nl.F(hi)) > sig
        if not np.any(bad):
            break
        hi[bad] = smin + (hi[bad] - smin) * 4.0
    else:
        raise DomainError(f"{nl.name}: failed to bracket F inverse from above")

    x = np.clip(seed, lo, hi)
    for _ in range(max_iter):
        g = np.asarray(nl.F(x)) - sig
        done = np.abs(g) <= rtol * sig
        if np.all(done):
            break
        above = g > 0.0  # F(x) too large -> root lies to the right
        lo = np.where(above, x, lo)
        hi = np.where(above, hi, x)
        # Newton step: dF/ds = -1/f; a step that overflows is not finite
        # and falls back to bisection
        with np.errstate(over="ignore", invalid="ignore"):
            xn = x + g * np.asarray(nl.f(x))
        outside = (xn <= lo) | (xn >= hi) | ~np.isfinite(xn)
        xn = np.where(outside, 0.5 * (lo + hi), xn)
        # converged nodes stay put: their Newton step can round to x itself,
        # which the bracket test would take for a step outside
        x = np.where(done, x, xn)
    else:
        raise ConvergenceError("F inverse root finder exceeded iteration cap")
    return float(x[0]) if scalar else x


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


@dataclass
class SeriesDiagnostics:
    F_truncated: float
    fpF_truncated: float
    fF_over_s_truncated: float
    F_first_omitted: float
    fpF_first_omitted: float
    fF_first_omitted: float
    terms_used: int
    degenerate_leading_term: bool


def series_diagnostics(nl, s, K_terms):
    """Truncated large-s expansion values of F, f'F and fF/s.

    ``K_terms`` counts correction terms past the leading constant.  Flags
    the degenerate sum family p - r = 1, where the leading f'F correction
    coefficient vanishes and the true forcing decay is one order faster.
    """
    s = float(s)
    if isinstance(nl, Generic):
        raise UnsupportedFamilyError("series diagnostics need a closed family")
    if s <= nl.s_min:
        raise DomainError("s must exceed s_min")
    p = nl.p
    m1 = 1.0 / (p - 1.0)

    if isinstance(nl, PurePower):
        return SeriesDiagnostics(
            float(nl.F(s)), nl.qf_exact, m1, 0.0, 0.0, 0.0, K_terms, False
        )

    if isinstance(nl, PowerSum):
        r = nl.r
        d = p - r
        F_tr = sum(
            (-1.0) ** k * s ** (1.0 - p - k * d) / (p - 1.0 + k * d)
            for k in range(K_terms + 1)
        )
        fpF_tr = nl.qf_exact + sum(
            (-1.0) ** (k - 1) * nl._coef_fpF(k) * s ** (-k * d)
            for k in range(1, K_terms + 1)
        )
        fF_tr = m1 + sum(
            (-1.0) ** (k - 1) * nl._coef_fF(k) * s ** (-k * d)
            for k in range(1, K_terms + 1)
        )
        ko = K_terms + 1
        return SeriesDiagnostics(
            F_tr,
            fpF_tr,
            fF_tr,
            s ** (1.0 - p - ko * d) / (p - 1.0 + ko * d),
            abs(nl._coef_fpF(ko)) * s ** (-ko * d),
            abs(nl._coef_fF(ko)) * s ** (-ko * d),
            K_terms,
            nl.degenerate_leading_term,
        )

    L = math.log(s)
    if isinstance(nl, PowerLog):
        r = nl.r
        A = s ** (1.0 - p) * L ** (-r) / (p - 1.0)
        used = min(K_terms, 2)
        F_tr = A if used < 2 else A * (1.0 - r / ((p - 1.0) * L))
        fpF_tr = nl.qf_exact - (r / (p - 1.0) ** 2) / L * (used >= 1)
        fF_tr = m1 - (r / (p - 1.0) ** 2) / L * (used >= 1)
        om = abs(r * (r + 1.0)) / (p - 1.0) ** 2 * A / L ** 2
        om_ratio = (r / (p - 1.0)) ** 2 / L ** 2
        return SeriesDiagnostics(
            F_tr, fpF_tr, fF_tr, om, om_ratio, om_ratio, used, False
        )

    if isinstance(nl, PowerExpLog):
        r = nl.r
        B = s ** (1.0 - p) * math.exp(-(L ** r)) / (p - 1.0)
        used = min(K_terms, 2)
        corr = r * L ** (r - 1.0) / (p - 1.0)
        F_tr = B if used < 2 else B * (1.0 - corr)
        fpF_tr = nl.qf_exact - r * L ** (r - 1.0) / (p - 1.0) ** 2 * (used >= 1)
        fF_tr = m1 - r * L ** (r - 1.0) / (p - 1.0) ** 2 * (used >= 1)
        om = (r ** 2 * L ** (2 * r - 2) + abs(r * (r - 1)) * L ** (r - 2)) * B / (
            p - 1.0
        ) ** 2
        om_ratio = (r / (p - 1.0)) ** 2 * L ** (2 * r - 2)
        return SeriesDiagnostics(
            F_tr, fpF_tr, fF_tr, om, om_ratio, om_ratio, used, False
        )

    if isinstance(nl, PowerSumLog):
        r, b = nl.r, nl.log_exp
        d = p - r
        used = min(K_terms, 2)
        # Gamma-form terms of F = sum (-1)^k A_k (exact partial sums)
        terms = []
        for k in range(used + 1):
            qk = p - 1.0 + k * d
            ak = qk ** (-1.0 - k * b) * upper_gamma(k * b + 1.0, qk * L)
            terms.append((-1.0) ** k * float(ak))
        F_tr = sum(terms)
        c_fpF = -d * (d - 1.0) / ((p - 1.0) * (2 * p - r - 1.0))
        c_fF = d / ((p - 1.0) * (2 * p - r - 1.0))
        fpF_tr = nl.qf_exact + c_fpF * L ** b * s ** (-d) * (used >= 1)
        fF_tr = m1 + c_fF * L ** b * s ** (-d) * (used >= 1)
        ko = used + 1
        qko = p - 1.0 + ko * d
        F_om = float(
            qko ** (-1.0 - ko * b) * upper_gamma(ko * b + 1.0, qko * L)
        )
        om_ratio = abs(b) * L ** (b - 1.0) * s ** (-d) + L ** (2 * b) * s ** (
            -2.0 * d
        )
        return SeriesDiagnostics(
            F_tr,
            fpF_tr,
            fF_tr,
            F_om,
            om_ratio,
            om_ratio,
            used,
            nl.degenerate_leading_term,
        )

    raise UnsupportedFamilyError(type(nl).__name__)


_FAMILIES = {
    "power": (PurePower, ("p",)),
    "power_sum": (PowerSum, ("p", "r")),
    "power_log": (PowerLog, ("p", "r")),
    "power_exp_log": (PowerExpLog, ("p", "r")),
    "power_sum_log": (PowerSumLog, ("p", "r", "log_exp")),
}


def from_spec(spec):
    """Build a Nonlinearity from a config mapping like
    {"family": "power_sum", "p": 2.0, "r": 1.0}."""
    kind = spec.get("family")
    if kind not in _FAMILIES:
        raise ConfigError(
            f"family: unknown family {kind!r}; expected one of "
            f"{sorted(_FAMILIES)}"
        )
    cls, keys = _FAMILIES[kind]
    kwargs = {}
    for key in keys:
        if spec.get(key) is None:
            raise ConfigError(f"{key}: required for family {kind!r}")
        kwargs[key] = float(spec[key])
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
