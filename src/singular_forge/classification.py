"""Critical exponents, the characteristic quadratic and its regime.

The linearized remainder equation is y'' + a y' + b y = 0 with

    a = 4/(p_f - 1) - N + 2,        b = 2N - 4 q_f,

whose roots -lambda_1, -lambda_2 (or the double root -lambda_*, or the
conjugate pair -a/2 +- i k) have negative real parts exactly when
p_c < p_f < p_S.  The decay threshold r* for sum-type families is defined
by the relation 2(p - r*)/(p - 1) = Lambda.  An alternative closed formula
(kept as r_star_literal) contradicts that relation, so both candidates are
computed and carried through all reports; the measured decay rates decide
between them.
"""

import math
from dataclasses import dataclass, field

from .errors import NoLimitError

REGIME_TWO_REAL = "two_real_roots"
REGIME_DOUBLE = "double_root"
REGIME_COMPLEX = "complex_roots"
REGIME_OUT = "out_of_scope"


@dataclass(frozen=True)
class Regime:
    kind: str
    lam1: float = math.nan
    lam2: float = math.nan
    lam_star: float = math.nan
    a_half: float = math.nan
    k: float = math.nan
    reason: str = ""

    def as_dict(self):
        out = {"kind": self.kind}
        if self.kind == REGIME_TWO_REAL:
            out.update(lambda1=self.lam1, lambda2=self.lam2)
        elif self.kind == REGIME_DOUBLE:
            out.update(lambda_star=self.lam_star)
        elif self.kind == REGIME_COMPLEX:
            out.update(a_half=self.a_half, k=self.k)
        else:
            out.update(reason=self.reason)
        return out


@dataclass(frozen=True)
class Classification:
    N: float
    qf: float
    pf: float
    m: float
    p_c: float
    p_S: float
    p_star: float
    a: float
    b: float
    regime: Regime
    family_spec: dict = field(default_factory=dict)

    @property
    def in_scope(self):
        return self.regime.kind != REGIME_OUT

    @property
    def Lambda(self):
        """Decay exponent of the super-kernel Q (real part of the slow root)."""
        reg = self.regime
        if reg.kind == REGIME_TWO_REAL:
            return reg.lam1
        if reg.kind == REGIME_DOUBLE:
            return reg.lam_star
        if reg.kind == REGIME_COMPLEX:
            return reg.a_half
        raise ValueError("Lambda undefined out of scope")

    def r_star(self, p):
        """Threshold r* from 2(p - r*)/(p - 1) = Lambda."""
        return p - (p - 1.0) * self.Lambda / 2.0

    def r_star_literal(self, p):
        """Alternative closed-form threshold, kept for comparison only;
        diagnostics report which candidate the measured rates support."""
        N = self.N
        if self.pf < self.p_star:
            disc = (N - 2.0 - 4.0 / (p - 1.0)) ** 2 - 8.0 * (
                N - 2.0 - 2.0 / (p - 1.0)
            )
            return (p - 1.0) / 4.0 * (N - 2.0 - math.sqrt(max(disc, 0.0)))
        return (p - 1.0) * (N - 2.0) / 4.0

    def as_dict(self):
        out = {
            "N": self.N,
            "q_f": self.qf,
            "p_f": self.pf,
            "m": self.m,
            "p_c": self.p_c,
            "p_S": self.p_S,
            "p_star": self.p_star,
            "a": self.a,
            "b": self.b,
            "regime": self.regime.as_dict(),
        }
        if self.family_spec:
            out["family"] = self.family_spec
        if self.in_scope:
            p = self.family_spec.get("p", self.pf)
            out["Lambda"] = self.Lambda
            out["r_star"] = self.r_star(p)
            out["r_star_literal"] = self.r_star_literal(p)
        return out


def critical_exponents(N):
    p_c = N / (N - 2.0)
    p_S = (N + 2.0) / (N - 2.0)
    p_star = 1.0 + 4.0 / (N - 4.0 + 2.0 * math.sqrt(N - 1.0))
    return p_c, p_S, p_star


def classify(nl, N):
    """Populate the Classification for nonlinearity nl in dimension N, an
    integer >= 3."""
    if int(N) != N or N < 3:
        raise ValueError("N must be an integer >= 3")
    N = float(int(N))

    est = nl.qf_estimate  # exact, and converged, where the family knows it
    if not est.converged:
        raise NoLimitError("q_f estimate did not converge")
    qf = est.value

    p_c, p_S, p_star = critical_exponents(N)
    spec = nl.spec()

    if qf <= 1.0:
        regime = Regime(REGIME_OUT, reason="NonSuperlinear")
        return Classification(
            N, qf, math.inf, 0.0, p_c, p_S, p_star, math.nan, math.nan,
            regime, spec,
        )

    pf = qf / (qf - 1.0)
    m = 2.0 / (pf - 1.0)
    a = 4.0 / (pf - 1.0) - N + 2.0
    b = 2.0 * N - 4.0 * qf

    tol = 1e-12
    if pf <= p_c * (1.0 + tol):
        regime = Regime(REGIME_OUT, reason="Subcritical")
    elif abs(pf - p_S) <= tol * p_S:
        regime = Regime(REGIME_OUT, reason="Sobolev-critical")
    elif pf > p_S:
        regime = Regime(REGIME_OUT, reason="Supercritical")
    else:
        disc = a * a - 4.0 * b
        if abs(disc) <= 1e-12 * a * a:
            regime = Regime(REGIME_DOUBLE, lam_star=a / 2.0)
        elif disc > 0.0:
            root = math.sqrt(disc)
            regime = Regime(
                REGIME_TWO_REAL, lam1=(a - root) / 2.0, lam2=(a + root) / 2.0
            )
        else:
            regime = Regime(
                REGIME_COMPLEX, a_half=a / 2.0, k=math.sqrt(-disc) / 2.0
            )

    return Classification(N, qf, pf, m, p_c, p_S, p_star, a, b, regime, spec)
