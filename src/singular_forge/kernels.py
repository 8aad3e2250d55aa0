"""Kernel of the linearised equation y'' + a y' + b y = 0 in modal form.

In every in-scope regime the kernel is a short sum of exponential modes
in the shifted difference d = rho - tau, with e = e^{-mu d}:

    two real roots   mu = lam1, lam2           K = (e_1 - e_2) / (lam2 - lam1)
    double root      mu = lam, plus d e        K = d e
    complex pair     one mode mu = a/2 - i k   K = Im(e) / k

KernelSet is the only place that reads the regime.  It turns it into mode
data: the exponents mu (real, or one complex), a confluent flag for the
double root's d e^{-mu d} column, coefficient rows that map the mode
columns to K and dK over a common denominator, a row that maps the
columns of Lambda to the super-kernel Q, and the constants a, b, Lambda
and W(0).  Every public function is regime-free algebra on that
data, and every evaluation uses d, so nothing over- or underflows for
large rho.  The common denominator keeps the diagonal exact: at d = 0
every column is 1 or 0, so the rows give exactly 0 for K and exactly
the denominator for dK, and K(rho, rho) = 0, dK(rho, rho) = 1 hold
bitwise.

The cumulative convolution implements the trapezoid rule exactly: per
mode, with q = e^{-mu h},

    A_{i+1} = q A_i + (q g_i + g_{i+1}) / 2

reproduces sum_j w_j e^{-mu(rho_i - rho_j)} g_j with trapezoid weights,
and the confluent column B_i = sum_j w_j (rho_i - rho_j) e^{-mu(...)} g_j
is the same recurrence driven by h q (A_i + g_i / 2).  The result agrees
with the direct O(M^2) sum to rounding.

Each recurrence s_{i+1} = q s_i + u_i is evaluated in blocks of B nodes
(_recurrence; Blelloch, "Prefix sums and their applications", 1990): one
matrix product per call with a cached B x B triangular Toeplitz block
of powers of q gives every block's own prefix, all modes of a call
at once, and a scalar loop over the M/B blocks carries the state from
block to block by q^B.  Re mu > 0 in every regime, so |q| < 1 and no
entry of the block exceeds 1: the result stays within rounding of the
sequential sum, with the same form of error bound (see _recurrence).
The per-node loops left are solve_linear_volterra's march and the
downward sum of _special.tail_integrals.

In every regime the mode sums are two reals: (A_1, A_2), (A, B) or
(Re A, Im A).  KernelSet.march_data gives the 2x2 transition of that state
over one step, the state a unit drive adds at its own node, and the real
(K, dK) readout rows.  On the drive the K row has weight 0 and the dK row
weight denom, so the linear Volterra equation with nodewise coefficients,
eta = Phi - int K (c + p eta + l2 eta'), is solved by one forward march
(solve_linear_volterra): eta_{i+1} is explicit and eta'_{i+1} solves one
scalar linear equation (Linz, Analytical and Numerical Methods for
Volterra Equations, 1985, ch. 7).
"""

import functools

import numpy as np

from .classification import REGIME_DOUBLE, REGIME_TWO_REAL
from .errors import OrderError


class KernelSet:
    """Mode data of the kernel for a Classification (immutable).

    mu: mode exponents of the K/dK columns; confluent: a d e^{-mu d}
    column follows (double root); rows: the (K, dK) coefficients of the
    columns over the common denominator denom; Q_row: the coefficients of
    the super-kernel on the columns of Lambda, so Q = (1 + d) e^{-Lambda d}
    for the double root and e^{-Lambda d} otherwise; a, b: the equation's
    coefficients as the roots give them; W0: the Wronskian of
    fundamental_pair at 0.
    """

    def __init__(self, cls):
        if not cls.in_scope:
            raise ValueError("kernels undefined out of scope")
        self.cls = cls
        reg = cls.regime
        if reg.kind == REGIME_TWO_REAL:
            l1, l2 = reg.lam1, reg.lam2
            roots = (l1, l2)
            self.mu = (l1, l2)
            rows = [(1.0, -1.0), (-l1, l2)]
            self.denom = l2 - l1
            self.W0 = -(l2 - l1)
        elif reg.kind == REGIME_DOUBLE:
            lam = reg.lam_star
            roots = (lam, lam)
            self.mu = (lam,)
            rows = [(0.0, 1.0), (1.0, -lam)]
            self.denom = 1.0
            self.W0 = 1.0
        else:
            mu = complex(reg.a_half, -reg.k)
            roots = (mu, mu.conjugate())
            self.mu = (mu,)
            rows = [(complex(0.0, -1.0),), (complex(reg.k, reg.a_half),)]
            self.denom = reg.k
            self.W0 = reg.k
        self.confluent = reg.kind == REGIME_DOUBLE
        self.rows = np.array(rows)
        self.Q_row = np.ones(2 if self.confluent else 1)
        self.Lambda = cls.Lambda
        self.a = (roots[0] + roots[1]).real
        self.b = (roots[0] * roots[1]).real

    def march_data(self, h):
        """The mode sums as a real two-state over a step h: (T, e0, R).

        T (2x2) carries the state from one node to the next, e0 is the state
        a unit drive adds at its own node (the columns at d = 0), and R
        (2x2) reads the (K, dK) sums over denom off the state.  A complex
        mode's state is its real and imaginary part.
        """
        q = [np.exp(-m * h).item() for m in self.mu]
        rows = self.rows
        if self.confluent:  # (A, B): B_{i+1} = q B_i + h q A_i
            T, e0 = [[q[0], 0.0], [h * q[0], q[0]]], [1.0, 0.0]
        elif len(q) == 2:
            T, e0 = [[q[0], 0.0], [0.0, q[1]]], [1.0, 1.0]
        else:  # (Re A, Im A); Re(c A) = Re c Re A - Im c Im A
            z = q[0]
            T, e0 = [[z.real, -z.imag], [z.imag, z.real]], [1.0, 0.0]
            rows = [[row[0].real, -row[0].imag] for row in rows]
        return T, e0, [[float(v) for v in row] for row in rows]


def _columns(mu, confluent, d):
    """Mode columns e^{-mu d} per exponent, then d e^{-mu d} if confluent."""
    cols = [np.exp(-m * d) for m in mu]
    if confluent:
        cols.append(d * cols[-1])
    return cols


def _combine(row, cols, divisor):
    """Re(sum_j row_j cols_j) / divisor, one coefficient per column."""
    acc = row[0] * cols[0]
    for c, col in zip(row[1:], cols[1:]):
        acc = acc + c * col
    return np.real(acc) / divisor


def _real_parts(col):
    return (col.real, col.imag) if np.iscomplexobj(col) else (col,)


def fundamental_pair(cls, rho):
    """(Phi1, Phi2, Phi1', Phi2') at rho: the real mode columns, a complex
    column split into its real and imaginary parts."""
    ks = KernelSet(cls)
    rho = np.asarray(rho, dtype=float)
    cols = _columns(ks.mu, ks.confluent, rho)
    dcols = [-m * col for m, col in zip(ks.mu, cols)]
    if ks.confluent:
        dcols.append((1.0 - ks.mu[-1] * rho) * cols[0])
    phi = [p for col in cols for p in _real_parts(col)]
    dphi = [p for col in dcols for p in _real_parts(col)]
    return phi[0], phi[1], dphi[0], dphi[1]


def wronskian(cls, tau):
    ks = KernelSet(cls)
    return ks.W0 * np.exp(-ks.a * np.asarray(tau, dtype=float))


def _check_order(rho, tau):
    if np.any(np.asarray(rho) < np.asarray(tau)):
        raise OrderError("kernel requires rho >= tau")


def _kernel(ks, d):
    cols = _columns(ks.mu, ks.confluent, d)
    return (_combine(ks.rows[0], cols, ks.denom),
            _combine(ks.rows[1], cols, ks.denom))


def kernel_values(cls, rho, tau):
    """(K, dK/drho) for rho >= tau; K(rho, rho) = 0, dK at tau = rho is 1."""
    _check_order(rho, tau)
    d = np.asarray(rho, dtype=float) - np.asarray(tau, dtype=float)
    return _kernel(KernelSet(cls), d)


def super_kernel(cls, rho, tau):
    """Positive envelope Q dominating |K| + |dK| (Case A/B weight)."""
    _check_order(rho, tau)
    d = np.asarray(rho, dtype=float) - np.asarray(tau, dtype=float)
    ks = KernelSet(cls)
    return _combine(ks.Q_row, _columns((ks.Lambda,), ks.confluent, d), 1.0)


def weight_P(cls, r, s):
    """Radial-variable form of the super-kernel: P(r, s) = Q(log 1/r, log 1/s)."""
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(r <= 0.0) or np.any(r > s):
        raise OrderError("weight_P requires 0 < r <= s")
    return super_kernel(cls, np.log(1.0 / r), np.log(1.0 / s))


def homogeneous_coeffs(cls, rho0, alpha, beta):
    """C1, C2 with C1 Phi1 + C2 Phi2 matching (alpha, beta) at rho0."""
    p1, p2, d1, d2 = fundamental_pair(cls, rho0)
    w = wronskian(cls, rho0)
    c1 = (d2 * alpha - p2 * beta) / w
    c2 = (-d1 * alpha + p1 * beta) / w
    return c1, c2


def homogeneous_pair(cls, delta, alpha, beta):
    """(Phi, Phi') of the homogeneous part with data (alpha, beta) at rho0,
    evaluated at delta = rho - rho0 in shifted (overflow-free) form.

    Phi = alpha (K' + a K) + beta K, since K' + a K solves the equation with
    data (1, 0) and K with data (0, 1).  Identical to C1 Phi1 + C2 Phi2 with
    the coefficients of homogeneous_coeffs; at delta = 0 returns exactly
    (alpha, beta).
    """
    ks = KernelSet(cls)
    K, dK = _kernel(ks, np.asarray(delta, dtype=float))
    return alpha * (dK + ks.a * K) + beta * K, alpha * (-ks.b * K) + beta * dK


# Nodes per block of the blocked recurrence.  A call costs about 15 us of
# numpy calls plus about 100 ns per block and mode in the carry loop; at
# 4 the loop still outweighs the fixed part at 2048 nodes, as criterion
# 8's O(M) timing slope needs (best of 9, 2^11..2^14 nodes, on a 2-vCPU
# Xeon VM: 0.87-0.89 at 8, 0.90-0.96 at 4).
_BLOCK = 4
# Blocks per matrix product.  OpenBLAS splits a product across threads
# from about 2^16 complex or 2^20 real multiply-adds, which there cost
# milliseconds per call.
_CHUNK = 1024


@functools.lru_cache(maxsize=64)
def _block_plan(q):
    """(T, ends, qB) for the pole tuple q, one entry per pole: the B x B
    block T[r, c] = q^(c - r) on and above the diagonal and 0 below it,
    the column ends[r] = q^(B - r) that maps a block to q times its last
    prefix, and q^B as a Python scalar.  Powers by repeated multiplication;
    the arrays carry a unit chunk axis and are read-only, as they are
    shared."""
    column = np.array(q)[:, None]
    powers = np.cumprod(np.hstack([np.ones_like(column)]
                                  + [column] * _BLOCK), axis=1)
    lag = np.arange(_BLOCK) - np.arange(_BLOCK)[:, None]
    T = np.where(lag >= 0, powers[:, np.maximum(lag, 0)], 0.0)[:, None]
    ends = powers[:, _BLOCK:0:-1, None][:, None].copy()
    for a in (T, ends):
        a.flags.writeable = False
    return T, ends, powers[:, _BLOCK].tolist()


def _recurrence(q, u):
    """s_0 = 0, s_{i+1} = q_m s_i + u_{m,i} for each pole q_m of the tuple q
    (all |q_m| < 1), as rows: u is (len(q), n), the result (len(q), n + 1).

    Blocked: the drive with a leading 0 is padded to chunks of blocks of B
    nodes.  One product gives q times each block's last own prefix, a
    scalar loop over the blocks turns those into the state t_b = q s_{bB}
    entering block b (t_{b+1} = q^B t_b + q e_b), t_b is added to the
    block's first drive entry, and one product with T gives every s_i.

    Every entry of T is a power of q, at most 1 in modulus, so each s_i is
    the sum of the terms u_j q^(i-1-j) with a bounded number of roundings
    per block and per carry step: in the worst case |s_i - exact| is of
    order (B + m_i / B) eps W_i, where W_i = sum_j |u_j| |q|^(i-1-j) and
    m_i = min(i, 1 / (1 - |q|)) counts the terms q still remembers; the
    sequential loop's worst case is of order m_i eps W_i.
    tests/test_kernels.py bounds the difference between the two.  No
    product spans more than _CHUNK blocks, so BLAS runs each on one thread.
    """
    T, ends, qB = _block_plan(q)
    k, n = u.shape
    chunks = -(-(n // _BLOCK + 1) // _CHUNK)
    per = -(-(n // _BLOCK + 1) // chunks)
    v = np.zeros((k, chunks, per, _BLOCK), np.promote_types(u.dtype, T.dtype))
    v.reshape(k, -1)[:, 1:n + 1] = u
    carry = []
    append = carry.append
    for qb, e in zip(qB, (v @ ends).reshape(k, -1).tolist()):
        t = 0.0
        for x in e:
            append(t)
            t = qb * t + x
    first = v[..., 0]
    first += np.array(carry).reshape(first.shape)
    return (v @ T).reshape(k, -1)[:, :n + 1]


@functools.lru_cache(maxsize=64)
def _poles(mu, h):
    """The poles e^{-mu h} of the exponents mu, as a tuple and a read-only
    column."""
    q = tuple(np.exp(-m * h).item() for m in mu)
    column = np.array(q)[:, None]
    column.flags.writeable = False
    return q, column


def _trapezoid_sums(mu, confluent, rho, g, denom=1.0):
    """The mode columns convolved with g by the trapezoid rule, cumulatively,
    over denom: A_i = (h / denom) sum_j w_j e^{-mu(rho_i - rho_j)} g_j per
    exponent, then the confluent B_i of the last exponent, as rows."""
    h = float(rho[1] - rho[0])
    half = (0.5 * h / denom) * np.asarray(g, dtype=float)
    q, q_col = _poles(mu, h)
    sums = _recurrence(q, q_col * half[:-1] + half[1:])
    if confluent:
        qc = q[-1]
        b = _recurrence((qc,), (h * qc) * (sums[-1:, :-1] + half[:-1]))
        sums = np.concatenate((sums, b))
    return sums


def convolve_cumulative(ks, rho, g):
    """Cumulative trapezoid integrals (int K g, int dK g) on a uniform grid.

    Returns grid functions y1(rho_i) = int_{rho_0}^{rho_i} K(rho_i, tau) g
    and y2 with the dK kernel, in O(M) total work.
    """
    sums = _trapezoid_sums(ks.mu, ks.confluent, rho, g, ks.denom)
    ik, idk = (ks.rows @ sums).real
    return ik, idk


def solve_linear_volterra(ks, rho, homogeneous, c, p, l2):
    """(eta, eta') solving the trapezoid scheme of

        eta  = Phi  - int_{rho_0}^{rho} K(rho, tau) g,
        eta' = Phi' - int_{rho_0}^{rho} dK(rho, tau) g,
        g = c + p eta + l2 eta',

    with nodewise c, p, l2 and (Phi, Phi') = ``homogeneous``, in one forward
    pass: the fixed point of convolve_cumulative's map to rounding.

    The state carried across a step is the mode sums plus the node's own
    half-drive.  At the next node the K readout of the carried state is
    eta (the K row weighs the new drive by 0), and eta' solves
    eta' = Phi' - dK readout - (h/2) g, one scalar linear equation.
    """
    h = float(rho[1] - rho[0])
    ((t00, t01), (t10, t11)), (ea, eb), (k_row, dk_row) = ks.march_data(h)
    scale = h / ks.denom
    ka, kb = (scale * v for v in k_row)
    da, db = (scale * v for v in dk_row)
    hh = 0.5 * h
    phi, dphi, c, p, l2 = (np.asarray(v, dtype=float)
                           for v in (*homogeneous, c, p, l2))
    # eta'_{i+1} = (u_i - dK readout - v_i eta_{i+1}) w_i
    u = dphi - hh * c
    v = hh * p
    w = 1.0 / (1.0 + hh * l2)
    e, de = float(phi[0]), float(dphi[0])
    g = float(c[0] + p[0] * e + l2[0] * de)
    sa, sb = 0.5 * g * ea, 0.5 * g * eb
    eta, deta = [e], [de]
    for ph, ui, vi, wi, ci, pi, li in zip(
            *(x[1:].tolist() for x in (phi, u, v, w, c, p, l2))):
        a = t00 * sa + t01 * sb
        b = t10 * sa + t11 * sb
        e = ph - (ka * a + kb * b)
        de = (ui - (da * a + db * b) - vi * e) * wi
        g = ci + pi * e + li * de
        sa = a + g * ea
        sb = b + g * eb
        eta.append(e)
        deta.append(de)
    return np.array(eta), np.array(deta)


def convolve_cumulative_direct(ks, rho, g):
    """O(M^2) reference with the same trapezoid rule (testing only)."""
    rho = np.asarray(rho, dtype=float)
    g = np.asarray(g, dtype=float)
    h = rho[1] - rho[0]
    n = len(rho)
    ik = np.zeros(n)
    idk = np.zeros(n)
    for i in range(1, n):
        kv, dkv = kernel_values(ks.cls, rho[i], rho[: i + 1])
        w = np.ones(i + 1)
        w[0] = w[-1] = 0.5
        ik[i] = h * np.sum(w * kv * g[: i + 1])
        idk[i] = h * np.sum(w * dkv * g[: i + 1])
    return ik, idk


def convolve_Q_cumulative(ks, rho, g):
    """Cumulative trapezoid of the super-kernel: int_{rho0}^rho Q(rho,tau) g."""
    return ks.Q_row @ _trapezoid_sums((ks.Lambda,), ks.confluent, rho, g)
