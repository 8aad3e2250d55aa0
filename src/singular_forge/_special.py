"""Small numerical helpers: incomplete gamma for arbitrary order, quadrature.

scipy's regularized gammaincc requires a positive order; the log-weighted
nonlinearity families need Gamma(a, x) for arbitrary real a (including
a <= 0).  For large x a Lentz continued fraction is used (stable for any a);
for small x the order is lifted to the positive range and recursed back down,
which is safe there because the recurrence subtraction only cancels when
x >> |a|.

``tail_integrals`` evaluates tail integrals int_s^inf at many points s at
once: Gauss-Legendre panels in log u between neighbouring points, summed
cumulatively from the top, and more panels above the largest point until
the rest of the tail is below rounding.
"""

import math

import numpy as np
from scipy import special

from .errors import QuadratureError

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# Gauss-Legendre rule mapped onto [0, 1]
GL01_NODES = 0.5 * (_GL_NODES + 1.0)
GL01_WEIGHTS = 0.5 * _GL_WEIGHTS
# the 8-point rule on [0, 1], the error estimate of every 16-point panel
_GL8_NODES, _GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL8_01_NODES = 0.5 * (_GL8_NODES + 1.0)
_GL8_01_WEIGHTS = 0.5 * _GL8_WEIGHTS

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


def _upper_gamma_cf(a, x, max_iter=300, tol=4 * np.finfo(float).eps):
    """Gamma(a, x) by modified Lentz continued fraction; x must be > 0."""
    x = np.asarray(x, dtype=float)
    tiny = 1e-300
    b = x + 1.0 - a
    c = np.full_like(x, 1e300)
    d = 1.0 / np.where(np.abs(b) < tiny, tiny, b)
    h = d.copy()
    for i in range(1, max_iter + 1):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = b + an / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        if np.all(np.abs(delta - 1.0) < tol):
            break
    return x ** a * np.exp(-x) * h


def upper_gamma(a, x):
    """Upper incomplete gamma Gamma(a, x) for real a and x > 0.

    Vectorized in x; a is scalar.
    """
    a = float(a)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x).astype(float)
    if np.any(x <= 0.0):
        raise ValueError("upper_gamma requires x > 0")
    out = np.empty_like(x)

    if a > 0.0:
        out[:] = special.gammaincc(a, x) * np.exp(special.gammaln(a))
    else:
        big = x >= max(1.5 * abs(a) + 10.0, 20.0)
        if np.any(big):
            out[big] = _upper_gamma_cf(a, x[big])
        small = ~big
        if np.any(small):
            xs = x[small]
            # lift order to a + n in (0, 1], recurse down:
            #   Gamma(a, x) = (Gamma(a+1, x) - x^a e^-x) / a
            n = int(np.ceil(-a)) + 1
            atop = a + n
            g = special.gammaincc(atop, xs) * np.exp(special.gammaln(atop))
            for j in range(n - 1, -1, -1):
                aj = a + j
                if abs(aj) < 1e-12:
                    # Gamma(0, x) = E1(x); resume the downward pass from it
                    g = special.exp1(xs)
                    continue
                g = (g - xs ** aj * np.exp(-xs)) / aj
            out[small] = g
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
    ratio in panels; the pieces are then cut to width at most _PANEL_WIDTH.
    """
    edges = x
    if np.isfinite(x_min) and x.size > 1:
        tiny = np.finfo(float).tiny
        d = np.maximum(x - x_min, tiny)
        ratio = d[1:] / d[:-1]
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

    A panel whose 8-point estimate misses _PANEL_RTOL is bisected, up to
    _PANEL_DEPTH times, then QuadratureError is raised; at once when a
    value is not finite (say u = e^y overflowed in ``weight``).
    """
    a, b = edges[:-1], edges[1:]

    def rule(a, h, owner, nodes, weights):
        y = a[:, None] + h[:, None] * nodes
        vals = weight(y)
        if psi is not None:
            vals = vals * np.exp(psi_ref[owner][:, None] - psi(y))
        return h * (vals @ weights)

    seg = np.zeros(size)
    for depth in range(_PANEL_DEPTH + 1):
        q16 = rule(a, b - a, owner, GL01_NODES, GL01_WEIGHTS)
        q8 = rule(a, b - a, owner, _GL8_01_NODES, _GL8_01_WEIGHTS)
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
    has the same shape).

    ``weight`` and ``psi`` are vectorized functions of y = log u, and
    ``psi=None`` means psi = 0; s_min <= 0 means no grading (below).

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
