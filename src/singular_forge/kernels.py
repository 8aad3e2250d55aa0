"""Kernel of the linearised equation y'' + a y' + b y = 0 in modal form.

In every in-scope regime the kernel is a short sum of exponential modes
in the shifted difference d = rho - tau, with e = e^{-mu d}:

    two real roots   mu = lam1, lam2           K = (e_1 - e_2) / (lam2 - lam1)
    double root      mu = lam, plus d e        K = d e
    complex pair     one mode mu = a/2 - i k   K = Im(e) / k

KernelSet is the only place that reads the regime.  It turns it into mode
data: the exponents mu (real, or one complex), a confluent flag for the
double root's d e^{-mu d} column, coefficient rows that map the mode
columns to K and dK over a common denominator, a row that maps the columns
of Lambda to the super-kernel Q, and the constants a, b, Lambda and W(0).
Every public function is regime-free algebra on that data, and every
evaluation uses d, so nothing over- or underflows for large rho.  The
common denominator keeps the diagonal exact: at d = 0 every column is 1 or
0, so the rows give exactly 0 for K and exactly the denominator for dK,
and K(rho, rho) = 0, dK(rho, rho) = 1 hold bitwise.

The regime alone fixes that data, and kernel_set(cls) owns the one shared
KernelSet of cls.regime, built on first use: every context, select_rho0
probe and run of a regime reads its step memo.  It keeps _SHARED_REGIMES
regimes (about 8.6 KB each with two steps) and each KernelSet
_SHARED_STEPS steps, dropping the oldest past either bound.  A step is a
pure function of (regime, h), so no result depends on what the caches
hold.

In every regime the mode sums are two reals: (A_1, A_2), (A, B) or
(Re A, Im A).  KernelSet.step(h), built once per h, holds the 2x2
transition T of that state over one step, the state e0 a unit drive adds
at its own node, the real (K, dK) readout rows R (on the drive the K row
has weight 0 and the dK row weight denom), the drive weight c = h / denom,
and the scan plans; both convolutions and the march read only that, and
every trapezoid end weight is _END_WEIGHT.  The cumulative convolution
implements the trapezoid rule exactly: with P_i the state plus the node's
own half-drive,

    P_0 = (c/2) e0 g_0,    P_{i+1} = T P_i + c e0 g_{i+1},

the readouts R P_i - (c/2) (R e0) g_i (that is, R_K P_i and
R_dK P_i - (h/2) g_i) reproduce sum_j w_j K(rho_i - rho_j) g_j and its dK
twin with trapezoid weights, and are 0 at node 0 by construction.  The
super-kernel Q is the same scan over the state of Lambda (with its
confluent column for the double root).  The result agrees with the
direct O(M^2) sum to rounding.

The scan runs in blocks of B nodes (_scan; Blelloch, "Prefix sums and
their applications", 1990): per call, one matrix product with cached
B x B blocks of R T^m e0 gives every block's readouts from its own drive,
one with the columns T^m e0 its own end state, a Python loop over the M/B
blocks carries the state by T^B, and one more product adds each entering
state's readouts.  Re mu > 0 in every regime, so T^m decays and the
result stays within rounding of the sequential two-state loop, with the
same form of error bound.  The per-node loops left are the march below
and the downward sum of _special.tail_integrals.

The same two-state solves the linear Volterra equation with nodewise
coefficients, eta = Phi - int K (c + p eta + l2 eta'), by one forward
march (solve_linear_volterra): eta_{i+1} is explicit and eta'_{i+1}
solves one scalar linear equation (Linz, Analytical and Numerical Methods
for Volterra Equations, 1985, ch. 7).
"""

from collections import namedtuple

import numpy as np

from .classification import REGIME_DOUBLE, REGIME_TWO_REAL
from .errors import OrderError

Step = namedtuple("Step", "state c plan Q_plan")


class KernelSet:
    """Mode data of the kernel of a Classification's regime (immutable but
    for the memo of step); kernel_set(cls) hands out the shared instance.

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
        self._steps = {}

    def step(self, h):
        """What a step h fixes, built once per h: the Step of the real
        two-state (T, e0, R), its drive weight c = h / denom and _scan_plan,
        and the _scan_plan of the super-kernel's two-state with weight h."""
        return _memo(self._steps, h, _SHARED_STEPS, self._build_step)

    def _build_step(self, h):
        kd, q = (_two_state(mu, self.confluent, rows, h)
                 for mu, rows in ((self.mu, self.rows),
                                  ((self.Lambda,), [self.Q_row])))
        c = h / self.denom
        return Step(kd, c, _scan_plan(*kd, c), _scan_plan(*q, h))


_SHARED_REGIMES = 64
_SHARED_STEPS = 16
_KERNEL_SETS = {}


def _memo(cache, key, bound, build):
    """cache[key], or build(key) stored there, dropping the oldest at bound."""
    if key not in cache:
        if len(cache) >= bound:
            del cache[next(iter(cache))]
        cache[key] = build(key)
    return cache[key]


def kernel_set(cls):
    """The shared KernelSet of cls.regime (hashable, unlike cls)."""
    return _memo(_KERNEL_SETS, cls.regime, _SHARED_REGIMES,
                 lambda _: KernelSet(cls))


def _two_state(mu, confluent, rows, h):
    """(T, e0, R) of the columns of the exponents mu (at most two, or one
    with its confluent column) read by the coefficient rows, over a step h.
    A single real exponent is a complex one whose imaginary part stays 0."""
    q = [np.exp(-m * h).item() for m in mu]
    if confluent:  # (A, B): B_{i+1} = q B_i + h q A_i
        T, e0 = ((q[0], 0.0), (h * q[0], q[0])), (1.0, 0.0)
    elif len(q) == 2:
        T, e0 = ((q[0], 0.0), (0.0, q[1])), (1.0, 1.0)
    else:  # (Re A, Im A); Re(c A) = Re c Re A - Im c Im A
        z = q[0]
        T, e0 = ((z.real, -z.imag), (z.imag, z.real)), (1.0, 0.0)
        rows = [(row[0].real, -row[0].imag) for row in rows]
    return T, e0, tuple(tuple(float(v) for v in row) for row in rows)


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
    ks = kernel_set(cls)
    rho = np.asarray(rho, dtype=float)
    cols = _columns(ks.mu, ks.confluent, rho)
    dcols = [-m * col for m, col in zip(ks.mu, cols)]
    if ks.confluent:
        dcols.append((1.0 - ks.mu[-1] * rho) * cols[0])
    phi = [p for col in cols for p in _real_parts(col)]
    dphi = [p for col in dcols for p in _real_parts(col)]
    return phi[0], phi[1], dphi[0], dphi[1]


def wronskian(cls, tau):
    ks = kernel_set(cls)
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
    return _kernel(kernel_set(cls), d)


def super_kernel(cls, rho, tau):
    """Positive envelope Q dominating |K| + |dK| (Case A/B weight)."""
    _check_order(rho, tau)
    d = np.asarray(rho, dtype=float) - np.asarray(tau, dtype=float)
    ks = kernel_set(cls)
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
    ks = kernel_set(cls)
    K, dK = _kernel(ks, np.asarray(delta, dtype=float))
    return alpha * (dK + ks.a * K) + beta * K, alpha * (-ks.b * K) + beta * dK


# Nodes per block of the scan.  A call costs about 10 us of numpy calls at
# any M, plus about 200 ns per block in the carry loop and a few ns per
# node in the products.  Criterion 8's O(M) timing slope (best of 9,
# 2^11..2^14 nodes) reads the fixed part as sub-linearity, so it caps the
# block: on a 2-vCPU Xeon VM, interleaved in one process, B = 16 read
# 0.76-0.87, 12 read 0.86-0.94, 8 read 0.82-0.95 and 6 read 0.92-1.00;
# seven full-suite runs at 8 read 0.85-0.93, one failing, five at 6
# 0.92-0.98.
_BLOCK = 6
# Blocks per matrix product.  OpenBLAS splits a product across threads
# from about 2^20 multiply-adds, which there costs up to milliseconds per
# call; 2048 blocks of 6 nodes stay far below that.
_CHUNK = 2048
# The trapezoid end weight, a fraction of the drive weight: the drive at
# node 0 and each node's own drive, in the scan and in the march alike.
_END_WEIGHT = 0.5


def _scan_plan(T, e0, R, c):
    """The block matrices of the scan of the two-state (T, e0, R) with drive
    weight c: (W, E, P, T^B).

    W[o] (B x B) maps the drive of one block to its readouts o,
    W[o][s, r] = c (R T^(r-s) e0)_o for s < r, _END_WEIGHT of that at s = r
    (the node's own trapezoid weight) and 0 for s > r; E (B x 2) maps it to
    the block's own end state, E[s] = c T^(B-1-s) e0; P[o] (2 x B) maps the
    state entering a block to its readouts, P[o][:, r] = (R T^(r+1))_o.
    Powers by repeated multiplication; the arrays carry a unit chunk axis
    and are read-only, as KernelSet.step shares them.
    """
    Tm = np.array(T)
    powers = [np.eye(2)]
    for _ in range(_BLOCK):
        powers.append(Tm @ powers[-1])
    powers = np.array(powers)
    R = np.array(R)
    drive = powers[:_BLOCK] @ (c * np.array(e0))
    read = R @ drive.T
    read[:, 0] *= _END_WEIGHT
    lag = np.arange(_BLOCK) - np.arange(_BLOCK)[:, None]
    W = np.where(lag >= 0, read[:, np.maximum(lag, 0)], 0.0)[:, None]
    E = drive[::-1].copy()
    P = (R @ powers[1:]).transpose(1, 2, 0)[:, None].copy()
    for a in (W, E, P):
        a.flags.writeable = False
    return W, E, P, powers[_BLOCK].tolist()


def _scan(plan, g):
    """The k readouts R P_i - (c/2) (R e0) g_i of the state
    P_0 = (c/2) e0 g_0, P_{i+1} = T P_i + c e0 g_{i+1}, as a (k, n) array
    whose first column is 0: the trapezoid sums of the readouts' kernels
    against g on nodes 0..i.

    Blocked (Blelloch, 1990): g, with node 0 at _END_WEIGHT, is padded to
    chunks of blocks of B nodes.  One product with W gives every block's
    readouts from its own drive and one with E its own end state; a
    Python loop over the blocks carries the state by T^B, and one product
    with P adds each entering state's readouts.  Every entry of the plan
    is a power of T of at most B steps, so each readout is the sequential
    sum with a bounded number of roundings per block and per carry step;
    tests/test_kernels.py bounds the difference between the two.  No
    product spans more than _CHUNK blocks, so BLAS runs each on one
    thread.
    """
    W, E, P, ((t00, t01), (t10, t11)) = plan
    n = len(g)
    blocks = -(-n // _BLOCK)
    chunks = -(-blocks // _CHUNK)
    per = -(-blocks // chunks)
    v = np.zeros((chunks, per, _BLOCK))
    flat = v.reshape(-1)
    flat[:n] = g
    flat[0] *= _END_WEIGHT
    y = v @ W
    a = b = 0.0
    carry = []
    push = carry.append
    ends = iter(np.dot(flat.reshape(-1, _BLOCK), E).ravel().tolist())
    for ea, eb in zip(ends, ends):
        push(a)
        push(b)
        a, b = t00 * a + t01 * b + ea, t10 * a + t11 * b + eb
    y += np.fromiter(carry, float, len(carry)).reshape(chunks, per, 2) @ P
    y = y.reshape(len(W), -1)
    y[:, 0] = 0.0
    return y[:, :n]


def convolve_cumulative(ks, rho, g):
    """Cumulative trapezoid integrals (int K g, int dK g) on a uniform grid.

    Returns grid functions y1(rho_i) = int_{rho_0}^{rho_i} K(rho_i, tau) g
    and y2 with the dK kernel, in O(M) total work.
    """
    sums = _scan(ks.step(float(rho[1] - rho[0])).plan, g)
    return sums[0], sums[1]


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
    eta' = Phi' - dK readout - (h/2) g, one scalar linear equation.  The
    two-state, its drive weight and the end weight are the scan's.
    """
    h = float(rho[1] - rho[0])
    step = ks.step(h)
    ((t00, t01), (t10, t11)), (ea, eb), rows = step.state
    (ka, kb), (da, db) = ([step.c * v for v in row] for row in rows)
    hh = _END_WEIGHT * h
    phi, dphi, c, p, l2 = (np.asarray(v, dtype=float)
                           for v in (*homogeneous, c, p, l2))
    # eta'_{i+1} = (u_i - dK readout - v_i eta_{i+1}) w_i
    u = dphi - hh * c
    v = hh * p
    w = 1.0 / (1.0 + hh * l2)
    e, de = float(phi[0]), float(dphi[0])
    g = float(c[0] + p[0] * e + l2[0] * de)
    sa, sb = _END_WEIGHT * g * ea, _END_WEIGHT * g * eb
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


def convolve_Q_cumulative(ks, rho, g):
    """Cumulative trapezoid of the super-kernel: int_{rho0}^rho Q(rho,tau) g."""
    return _scan(ks.step(float(rho[1] - rho[0])).Q_plan, g)[0]
