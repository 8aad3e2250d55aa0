"""Special functions of the nonlinearity families, and tail quadrature.

``hyp2f1_1c(c, x)`` is the Gauss function 2F1(1, c; c+1; -x), which gives
PowerSum's F in closed form.  ``upper_gamma(a, x)`` is Gamma(a, x) for any
real order a, which gives PowerLog's F; Gamma(0, x) is E1(x).  Both are
built from series, a continued fraction and Gauss-Legendre panels, with the
choice of method made per point from x (DLMF 15.8, 8.7, 8.9; Numerical
Recipes 6.2).

``tail_integrals`` evaluates tail integrals int_s^inf at many points s at
once: Gauss-Legendre panels in log u between neighbouring points, summed
cumulatively from the top, and more panels above the largest point until
the rest of the tail is below rounding.
"""

import math

import numpy as np

from .errors import DomainError, QuadratureError

# The 16-point Gauss-Legendre rule on [0, 1], nodes and weights correctly
# rounded (from 50-digit values).  numpy's leggauss weights are off by up to
# 3e-14 relative, a bias that shows in any integrand peaked in one panel.
GL01_NODES = np.array([
    0.005299532504175033, 0.02771248846338371, 0.06718439880608412,
    0.12229779582249849, 0.19106187779867811, 0.2709916111713863,
    0.35919822461037054, 0.4524937450811813, 0.5475062549188188,
    0.6408017753896295, 0.7290083888286137, 0.8089381222013219,
    0.8777022041775016, 0.9328156011939158, 0.9722875115366163,
    0.994700467495825,
])
_GL01_HALF_WEIGHTS = [
    0.013576229705877048, 0.031126761969323947, 0.04757925584124639,
    0.06231448562776694, 0.07479799440828837, 0.08457825969750127,
    0.09130170752246179, 0.09472530522753425,
]
GL01_WEIGHTS = np.array(_GL01_HALF_WEIGHTS + _GL01_HALF_WEIGHTS[::-1])
# The 8- and 4-point rules on [0, 1], rounded the same way (leggauss(8)
# weights are off by up to 8e-15 relative).  The 8-point rule is the error
# estimate of every 16-point panel; both serve profile's remainder.
GL8_01_NODES = np.array([
    0.019855071751231884, 0.10166676129318664, 0.2372337950418355,
    0.4082826787521751, 0.591717321247825, 0.7627662049581645,
    0.8983332387068134, 0.9801449282487681,
])
GL8_01_WEIGHTS = np.array([
    0.05061426814518813, 0.11119051722668724, 0.15685332293894363,
    0.181341891689181, 0.181341891689181, 0.15685332293894363,
    0.11119051722668724, 0.05061426814518813,
])
GL4_01_NODES = np.array([
    0.06943184420297371, 0.33000947820757187, 0.6699905217924281,
    0.9305681557970263,
])
GL4_01_WEIGHTS = np.array([
    0.17392742256872692, 0.32607257743127305, 0.32607257743127305,
    0.17392742256872692,
])
# every node of a tail panel: the 16-point rule's, then the 8-point rule's
_GL24_NODES = np.concatenate([GL01_NODES, GL8_01_NODES])

# A panel is accepted when its 16- and 8-point values agree to _PANEL_RTOL
# (the 8-point error bounds the far smaller 16-point one); the absolute floor
# keeps subnormal rounding in underflowed panels from reading as error.
_PANEL_RTOL = 1e-12
_PANEL_ATOL = np.finfo(float).tiny / _PANEL_RTOL
_PANEL_WIDTH = 1.0  # widest initial panel in x = log u
_PANEL_DEPTH = 8  # bisections of a panel before QuadratureError
# Panels above the largest point x_top run to x_top + R; R starts at
# _CLOSE_SPAN and doubles at most _CLOSE_DOUBLINGS times, to 2048, more
# than the span of log u over the positive floats.
_CLOSE_SPAN = 64.0
_CLOSE_DOUBLINGS = 5
_CLOSE_RTOL = 2.0 ** -54

# Series are cut where the rest is below _SERIES_TOL of a sum >= 1.
_SERIES_TOL = np.finfo(float).eps / 4
# 2F1(1, c; c+1; -x) takes the Pfaff series up to _PFAFF_X, where its
# variable w = x/(1+x) reaches 1/2: at most ~55 terms.
_PFAFF_X = 1.0
# Above _PFAFF_X the reflection formula serves c < _REFLECT_C only.  Each
# of its two terms has a pole at every integer c = m >= 1, which cancel
# (4 ulp lost at c = 0.74), and for c > 1 its own series alternates.
# Gauss-Legendre panels in log t, within about an ulp for every c, take the
# rest; for small c they would need a panel per unit of log x.
_REFLECT_C = 0.5
# In the panels the integrand of c > 1 falls like e^((c-1) tau) away from
# tau = 0; below tau = -_TAU_CUT/(c-1) it adds less than e^-40 relative.
_TAU_CUT = 40.0
# Panels are at most _PANEL_RATE/(c-1) wide: across one, e^((c-1) tau)
# changes by e^8, which the 16-point rule integrates to below 1e-20.
_PANEL_RATE = 8.0
# log of the largest float, rounded up: no finite x needs more unit panels
_LOG_MAX = math.ceil(math.log(np.finfo(float).max))


def horner(coefs, x):
    """sum_k coefs[k] x^k at each point of the float array x, by Horner
    from the last coefficient down."""
    acc = np.full_like(x, coefs[-1])
    for c in reversed(coefs[:-1]):
        acc *= x
        acc += c
    return acc


def _pfaff_sum(c, w):
    """sum_n n!/(c+1)_n w^n for 0 <= w < 1 (nonempty, 1-d), c + 1 not zero
    or a negative integer.

    Horner to the degree the largest w needs: from the first degree n with
    c + n + 1 > 0, term ratios are at most q = w max(1, (n+1)/(c+n+1)), so
    the rest is below the last term times q/(1-q).
    """
    wmax = float(np.max(w))
    b = [1.0]
    n = 0
    while True:
        n += 1
        b.append(b[-1] * n / (c + n))
        if c + n + 1.0 > 0.0:
            q = wmax * max(1.0, (n + 1.0) / (c + n + 1.0))
            rest = abs(b[-1]) * wmax ** n * q
            if q < 1.0 and rest <= _SERIES_TOL * (1.0 - q):
                break
    return horner(b, w)


def _hyp2f1_1c_pfaff(c, x):
    """2F1(1, c; c+1; -x) = (1+x)^-1 2F1(1, 1; c+1; w), w = x/(1+x)
    (DLMF 15.8.1), for 0 <= x <= 2."""
    return _pfaff_sum(c, x / (1.0 + x)) / (1.0 + x)


def _hyp2f1_1c_panels(c, x, x_pow_c):
    """2F1(1, c; c+1; -x) = c int_0^1 t^(c-1)/(1 + x t) dt for x > 1 and
    c >= _REFLECT_C; ``x_pow_c`` is x^-c or None (hyp2f1_1c).

    Split at t0 = e^(-n h), n h >= log x: below t0 the integral is
    t0^c 2F1(1, c; c+1; -x t0) with x t0 <= 1 (Pfaff); above it, n panels
    of width h in tau = log t.  The panels are anchored at the end where the
    integrand peaks, tau = 0 for c > 1 and tau = log t0 for c <= 1, so the
    nodes that matter carry no rounding of n h.  For c > 1 the integrand
    falls like e^((c-1) tau) from tau = 0: the panels are at most
    _PANEL_RATE/(c-1) wide, and stop at tau = -_TAU_CUT/(c-1), below which
    the integral is dropped.  t0^c, the factor that varies like x^-c, is
    (x t0)^c x^-c when x^-c is given.
    """
    h = min(1.0, _PANEL_RATE / (c - 1.0)) if c > 1.0 else 1.0
    n = np.minimum(np.ceil(np.log(x) / h), _LOG_MAX)
    if c > 1.0:
        n = np.minimum(n, math.ceil(_TAU_CUT / ((c - 1.0) * h)))
    t0 = np.exp(-n * h)
    xt = x * t0
    tc = t0 ** c if x_pow_c is None else xt ** c * x_pow_c
    below = np.zeros_like(x)
    # x t0 exceeds 1 by rounding only, unless n was capped: then the part
    # below t0 is negligible (c > 1) or zero (x = inf)
    low = xt <= 2.0
    if np.any(low):
        below[low] = tc[low] * _hyp2f1_1c_pfaff(c, xt[low])
    if c > 1.0:
        scale, xa, sign = 1.0, x, -h
    else:
        scale, xa, sign = tc, xt, h
    xa = xa[:, None]
    acc = np.zeros_like(x)
    comp = np.zeros_like(x)  # up to _LOG_MAX panels: compensated sum
    for j in range(int(n.max())):
        u = sign * (j + GL01_NODES)
        # e^(cu)/(1 + xa e^u); the exponent (c-1)u rounds far less than cu
        with np.errstate(over="ignore"):  # e^-u = inf only where x = inf
            v = np.exp((c - 1.0) * u) / (xa + np.exp(-u))
        y = np.where(j < n, v @ GL01_WEIGHTS, 0.0) - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
    return below + c * h * scale * acc


def hyp2f1_1c(c, x, x_pow_c=None):
    """2F1(1, c; c+1; -x) for c > 0 and x in [0, inf], vectorized in x.

    Per point: the Pfaff series for x <= _PFAFF_X.  Above it, for
    c < _REFLECT_C, the reflection in 1/x (DLMF 15.8.2),

        c pi / sin(pi c) x^-c + c/(c-1) x^-1 2F1(1, 1-c; 2-c; -1/x),

    whose own Pfaff series has w = 1/(1+x) < 1/2 and positive terms; for
    larger c Gauss-Legendre panels in log t (_hyp2f1_1c_panels).

    ``x_pow_c``, shaped like x, is x^-c where the caller has it more
    accurately than x ** -c: a rounded c errs by log(x) times its rounding.
    """
    c = float(c)
    if not c > 0.0:
        raise ValueError("hyp2f1_1c requires c > 0")
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    if not np.all(flat >= 0.0):
        raise DomainError("hyp2f1_1c requires x >= 0")
    out = np.empty_like(flat)
    low = flat <= _PFAFF_X
    if np.all(low):
        return _hyp2f1_1c_pfaff(c, flat).reshape(x.shape)[()]
    if np.any(low):
        out[low] = _hyp2f1_1c_pfaff(c, flat[low])
    xh = flat[~low]
    xc = None if x_pow_c is None else np.ravel(x_pow_c)[~low]
    if c >= _REFLECT_C:
        out[~low] = _hyp2f1_1c_panels(c, xh, xc)
    else:
        if xc is None:
            xc = xh ** -c
        v = 1.0 / (1.0 + xh)
        out[~low] = (c * math.pi / math.sin(math.pi * c) * xc
                     + c / (c - 1.0) * v * _pfaff_sum(1.0 - c, v))
    return out.reshape(x.shape)[()]


def _upper_gamma_cf(a, x):
    """Gamma(a, x) = x^a e^-x / K for 1-d x > 0, K the continued fraction
    (x+1-a) - 1(1-a)/((x+3-a) - 2(2-a)/((x+5-a) - ...)).

    Steed's method sums K from its differences, compensated, to about an
    ulp (the product form of Lentz's method gathers ~20 ulp at x near 1).
    Larger x converges in fewer terms, so with x sorted the points still
    running are a prefix, cut after the last one whose difference is above
    _SERIES_TOL of K: a batch spanning x in [4, 88] does not pay x = 4's
    terms at x = 88, and each point gets its lone value to within rounding.
    """
    tiny = 1e-300
    order = np.argsort(x)
    xs = x[order]
    b = xs + 3.0 - a
    D = 1.0 / b
    dK = (a - 1.0) * D
    K = xs + 1.0 - a
    comp = np.zeros_like(xs)
    k = xs.size
    for i in range(2, 1002):  # 1000 terms at most
        Kk, ck, dk = K[:k], comp[:k], dK[:k]
        y = dk - ck  # K += dK, compensated
        t = Kk + y
        ck[...] = (t - Kk) - y
        Kk[...] = t
        live = np.flatnonzero(np.abs(dk) > _SERIES_TOL * np.abs(t))
        if live.size == 0:
            break
        k = live[-1] + 1
        bk = b[:k]
        bk += 2.0
        den = bk - i * (i - a) * D[:k]
        D[:k] = 1.0 / np.where(np.abs(den) < tiny, tiny, den)
        dK[:k] = (bk * D[:k] - 1.0) * dK[:k]
    out = np.empty_like(x)
    out[order] = K
    return x ** a * np.exp(-x) / out


# 1/Gamma(1 + a) = 1 + sum_(k>=1) _RGAMMA1P[k-1] a^k (the Taylor series of
# 1/Gamma, Abramowitz & Stegun 6.1.34); 22 terms reach rounding at |a| = 1/2
_RGAMMA1P = [
    0.5772156649015329, -0.6558780715202539, -0.04200263503409524,
    0.16653861138229148, -0.04219773455554433, -0.009621971527876973,
    0.0072189432466631, -0.0011651675918590652, -0.00021524167411495098,
    0.0001280502823881162, -2.013485478078824e-05, -1.2504934821426706e-06,
    1.133027231981696e-06, -2.056338416977607e-07, 6.116095104481416e-09,
    5.002007644469223e-09, -1.18127457048702e-09, 1.0434267116911005e-10,
    7.782263439905071e-12, -3.696805618642206e-12, 5.100370287454476e-13,
    -2.0583260535665066e-14,
]
# terms of the series in x below: 24 reach rounding at x = 3/2
_SMALL_ORDER_TERMS = 24


def _upper_gamma_small(a, x):
    """Gamma(a, x) for |a| <= 1/2 and 1-d 0 < x < 3/2:

        ((Gamma(1+a) - 1) - (x^a - 1))/a - x^a sum_(k>=1) (-x)^k/(k! (a+k)),

    Gamma(a) - gamma(a, x) with the 1/a terms of both taken together, each
    difference evaluated without cancellation: Gamma(1+a) - 1 from the
    series of 1/Gamma(1+a), x^a - 1 by expm1.  At a = 0 it is E1(x) =
    -gamma_E - log x + Ein(x)."""
    S = 0.0
    for coef in reversed(_RGAMMA1P):
        S = S * a + coef
    lx = np.log(x)
    head = -S / (1.0 + a * S) - (np.expm1(a * lx) / a if a != 0.0 else lx)
    coefs = [(-1.0) ** k / (math.factorial(k) * (a + k))
             for k in range(1, _SMALL_ORDER_TERMS + 1)]
    return head - np.exp(a * lx) * (horner(coefs, x) * x)


def _upper_gamma_series(a, x):
    """Gamma(a, x) for a > 1/2 and 1-d 0 < x < a + 1 from a series in x:
    Gamma(a) - x^a e^-x sum_n x^n/(a)_(n+1)."""
    term = np.full_like(x, 1.0 / a)
    acc = term.copy()
    n = 0
    while np.any(term > _SERIES_TOL * acc):
        n += 1
        term *= x / (a + n)
        acc += term
    return math.gamma(a) - x ** a * np.exp(-x) * acc


def upper_gamma(a, x):
    """Upper incomplete gamma Gamma(a, x) for real a and x > 0.

    Vectorized in x; a is scalar.  The continued fraction serves
    x >= max(a + 1, 1), stable for any a.  Below that a > 1/2 takes the
    series in x, |a| <= 1/2 the small-order series, and a < -1/2 takes the
    small-order series at a + m in [-1/2, 1/2] and recurses back down by
    Gamma(a, x) = (Gamma(a+1, x) - x^a e^-x)/a, each division by an order
    of at least 1/2, so an order near a negative integer loses no digits.
    """
    a = float(a)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x).astype(float)
    if np.any(x <= 0.0):
        raise ValueError("upper_gamma requires x > 0")
    out = np.empty_like(x)
    cf = x >= max(a + 1.0, 1.0)
    if np.any(cf):
        out[cf] = _upper_gamma_cf(a, x[cf])
    if not np.all(cf):
        xs = x[~cf]
        if a > 0.5:
            out[~cf] = _upper_gamma_series(a, xs)
        else:
            m = max(round(-a), 0)
            g = _upper_gamma_small(a + m, xs)
            for j in range(m - 1, -1, -1):
                aj = a + j
                g = (g - xs ** aj * np.exp(-xs)) / aj
            out[~cf] = g
    return out[0] if scalar else out


def _interior_cuts(n):
    """Interior cuts of pieces split into n_k equal parts: the piece index
    and the fraction j/n_k of every cut, j = 1 .. n_k - 1."""
    piece = np.repeat(np.arange(n.size), n - 1)
    first = np.cumsum(n - 1) - (n - 1)
    j = np.arange(piece.size) - first[piece] + 1
    return piece, j / n[piece]


def _panel_edges(x, x_min):
    """Sorted panel edges covering [x[0], x[-1]] (x sorted).

    Each gap is first cut geometrically toward x_min, ratio at most 2 in
    the distance to x_min, so a gap close to x_min costs log2 of its gap
    ratio in panels (a gap of ratio at most 2 is not cut); the pieces are
    then cut to width at most _PANEL_WIDTH.
    """
    edges = x
    if np.isfinite(x_min) and x.size > 1:
        tiny = np.finfo(float).tiny
        d = np.maximum(x - x_min, tiny)
        ratio = d[1:] / d[:-1]
        if np.max(ratio) > 2.0:  # else every gap is one piece: no cuts
            n = np.maximum(np.ceil(np.log2(ratio)), 1.0).astype(np.int64)
            piece, t = _interior_cuts(n)
            cuts = x_min + d[piece] * ratio[piece] ** t
            edges = np.sort(np.concatenate([edges, cuts]))
    width = np.diff(edges)
    n = np.maximum(np.ceil(width / _PANEL_WIDTH), 1.0).astype(np.int64)
    piece, t = _interior_cuts(n)
    cuts = edges[piece] + width[piece] * t
    return np.sort(np.concatenate([edges, cuts]))


def _panel_sums(edges, owner, size, weight, psi, psi_ref):
    """Per-owner sums of 16-point Gauss-Legendre panels between consecutive
    edges, scaled by exp(psi_ref[owner] - psi(y)); ``size`` owner slots.

    Each panel is evaluated once, at the 24 nodes of the 16- and 8-point
    rules.  A panel whose 8-point estimate misses _PANEL_RTOL is bisected,
    up to _PANEL_DEPTH times, then QuadratureError is raised; at once when
    a value is not finite (say u = e^y overflowed in ``weight``).
    """
    a, b = edges[:-1], edges[1:]
    seg = np.zeros(size)
    for depth in range(_PANEL_DEPTH + 1):
        h = b - a
        y = a[:, None] + h[:, None] * _GL24_NODES
        if psi is None:
            vals = np.ones_like(y) if weight is None else weight(y)
        else:
            vals = np.exp(psi_ref[owner][:, None] - psi(y))
            if weight is not None:
                vals = weight(y) * vals
        q16 = h * (vals[:, :16] @ GL01_WEIGHTS)
        q8 = h * (vals[:, 16:] @ GL8_01_WEIGHTS)
        ok = np.abs(q16 - q8) <= _PANEL_RTOL * np.abs(q16) + _PANEL_ATOL
        seg += np.bincount(owner[ok], q16[ok], minlength=size)
        if ok.all():
            return seg
        if depth == _PANEL_DEPTH or not np.isfinite(q16).all():
            bad = np.flatnonzero(~ok)[0]
            raise QuadratureError(
                f"tail panel [{a[bad]:.17g}, {b[bad]:.17g}] in log u: value "
                f"{q16[bad]:.3g} missed tolerance after {depth} bisections"
            )
        a, b, owner = a[~ok], b[~ok], owner[~ok]
        mid = 0.5 * (a + b)
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        owner = np.concatenate([owner, owner])


def tail_integrals(s, weight, psi, s_min):
    """J(s) = int_x^inf exp(psi(x) - psi(y)) weight(y) dy, x = log s, at
    every point of ``s`` (any shape, 0-d being a batch of one; the result
    has the same shape); DomainError for a point not finite or not above
    s_min and 0.

    ``weight`` and ``psi`` are vectorized functions of y = log u;
    ``weight=None`` means weight = 1 and ``psi=None`` means psi = 0.
    s_min <= 0 means no grading (below).

    The points are sorted and J is summed from the largest point x_top
    down, J_i = seg_i + exp(psi_i - psi_{i+1}) J_{i+1}, where seg_i covers
    the gap to the next point up with _panel_sums.  Every term is positive,
    so the sum neither cancels nor (psi being F's log-prefactor)
    underflows.  Panels are at most _PANEL_WIDTH wide and graded
    geometrically in log s - log s_min near s_min (_panel_edges).

    Above x_top the panels run to a sentinel x_top + R.  The last one has
    its own owner slot; while it adds more than _CLOSE_RTOL of the top
    point's J, R doubles and the new stretch's panels are added; after
    _CLOSE_DOUBLINGS doublings QuadratureError is raised (the tail decays
    too slowly or diverges).  A lone point and the same point in a batch
    differ only by rounding.
    """
    s = np.asarray(s, dtype=float)
    flat = s.ravel()
    out = np.empty(flat.shape)
    if flat.size == 0:
        return out.reshape(s.shape)
    if not np.all(np.isfinite(flat) & (flat > max(s_min, 0.0))):
        raise DomainError(f"points must be finite and exceed s_min = {s_min}")
    order = np.argsort(flat, kind="stable")
    x = np.log(flat[order])
    x_min = math.log(s_min) if s_min > 0.0 else -math.inf
    psi_x = psi(x) if psi is not None else np.zeros_like(x)
    # slot x.size: the last panel above x_top, scaled like x_top
    psi_ref = np.append(psi_x, psi_x[-1])

    seg = np.zeros(x.size + 1)
    lo, R = x, _CLOSE_SPAN
    for doubling in range(_CLOSE_DOUBLINGS + 1):
        hi = x[-1] + R
        edges = _panel_edges(np.append(lo, hi), x_min)
        owner = np.searchsorted(x, edges[:-1], side="right") - 1
        owner[-1] = x.size
        part = _panel_sums(edges, owner, x.size + 1, weight, psi, psi_ref)
        seg += part
        if part[-1] <= _CLOSE_RTOL * (seg[-2] + seg[-1]):
            break
        if doubling == _CLOSE_DOUBLINGS:
            raise QuadratureError(
                f"tail above log u = {x[-1]:.17g} still adds {part[-1]:.3g} "
                f"of {seg[-2] + seg[-1]:.3g} at log u = {hi:.17g}"
            )
        lo, R = hi, 2.0 * R

    decay = np.exp(psi_x[:-1] - psi_x[1:]).tolist()
    segs = seg.tolist()
    J = [0.0] * x.size
    acc = J[-1] = segs[-2] + segs[-1]
    for i in range(x.size - 2, -1, -1):
        acc = J[i] = segs[i] + decay[i] * acc
    out[order] = J
    return out.reshape(s.shape)[()]
