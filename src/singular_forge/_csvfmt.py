"""Vectorised ``'%.17g'`` for the profile CSV: the exact bytes CPython
prints, without one Python format call per value.

For a finite ``v`` with ``|v|`` in [1e-280, 1e290] the 17 significant
digits are the integer ``D = round(|v| * 10**(16 - e))``, where
``e = floor(log10 |v|)``.  ``D`` is computed exactly in float64: ``10**k``
is held as a (hi, lo) pair, and ``|v| * hi`` as an exact double-double by
Veltkamp's split and Dekker's TwoProduct (T. J. Dekker, "A floating-point
technique for extending the available precision", Numer. Math. 18, 1971),
which leaves an error near 1e-15 in units of the last digit.  A value whose
fraction lies within 1e-6 of one half is too close to a rounding tie to be
decided that way; it goes, with zero, nan, +-inf and the values outside
that range, through Python's own ``'%.17g' %``, and its bytes are spliced
in.  The digits of ``D`` come from a 4-digit lookup table, and one gather
per value lays them out as ``%g`` does: fixed notation for -4 <= e < 17,
else ``d.ddde+XX``, trailing zeros stripped, a leading ``-`` when negative.

The tables are built on first use, never at import.
"""

import functools

import numpy as np

_LOW, _HIGH = 1e-280, 1e290  # every operand below stays normal and finite
_K_MIN, _K_MAX = -282, 297  # powers of ten: 10**e and 10**(16 - e)
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for float64
_TIE = 1e-6
_D_MAX = 10 ** 17

# Per-value source row of 28 bytes, a layout being a row of indices into
# it: constants, the 17 digits (the last 16 as four aligned uint32 groups),
# the separator, and the exponent's sign and three digits (the sign
# overwrites the leading '0' of its four-digit group).
_MINUS, _POINT, _ZERO, _DIGITS, _E, _SEP, _ESIGN = 0, 1, 2, 3, 20, 21, 24
_SRC = 28
_CONST = b"-.0" + b"0" * 17 + b"e," + b"\0" * 6
_OUT = 25  # "-d.dddddddddddddddde-ddd" is 24 bytes, then the separator
_FIXED = range(-4, 17)  # exponents printed in fixed notation
_NCLS = len(_FIXED) + 2  # fixed e, then e+dd, then e+ddd
_GATHER = 256  # values per gather: 50 kB of byte indices


def _layout(neg, ecls, nd):
    """Source indices of one printed value, its separator last."""
    digit = [_DIGITS + j for j in range(17)]
    out = [_MINUS] if neg else []
    if ecls < len(_FIXED):
        e = _FIXED[ecls]
        if e >= 0:
            out += digit[:e + 1]
            if nd > e + 1:
                out += [_POINT] + digit[e + 1:nd]
        else:
            out += [_ZERO, _POINT] + [_ZERO] * (-e - 1) + digit[:nd]
    else:
        out.append(digit[0])
        if nd > 1:
            out += [_POINT] + digit[1:nd]
        out += [_E, _ESIGN]
        out += range(_ESIGN + 1 + (ecls == len(_FIXED)), _SRC)
    return out + [_SEP]


@functools.cache
def _powers():
    """10**k for k in [_K_MIN, _K_MAX] as hi + lo, the nearest double and
    the nearest double to the rest (exact integer arithmetic: int / int
    rounds correctly), the least double >= 10**k, and Veltkamp's split of
    hi."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi, lo = np.array(hi), np.array(lo)
    ceil = np.where(lo > 0.0, np.nextafter(hi, np.inf), hi)
    c = _SPLIT * hi
    hi_h = c - (c - hi)
    return hi, lo, ceil, hi_h, hi - hi_h


@functools.cache
def _layouts():
    """The digits of "%04d" % i as one uint32 of four bytes and their count
    of trailing zeros, for i < 10000; the source indices of every layout
    and which of its _OUT bytes are printed; each exponent's layout class."""
    q = (np.arange(10000, dtype=np.int16)[:, None]
         // np.array([1000, 100, 10, 1], dtype=np.int16) % 10).astype(np.uint8)
    digits4 = (q + np.uint8(ord("0"))).view(np.uint32).ravel()
    zeros4 = np.cumprod(q[:, ::-1] == 0, axis=1, dtype=np.uint8).sum(
        axis=1, dtype=np.uint8)
    layouts = [_layout(neg, ecls, nd)
               for neg in (0, 1) for ecls in range(_NCLS)
               for nd in range(1, 18)]
    index = np.full((len(layouts), _OUT), _SEP, dtype=np.uint8)
    for row, lay in zip(index, layouts):
        row[:len(lay)] = lay
    keep = np.arange(_OUT) < np.array([len(lay) for lay in layouts])[:, None]
    e = np.arange(_K_MIN, _K_MAX + 1)
    ecls = np.where((e >= _FIXED[0]) & (e <= _FIXED[-1]), e - _FIXED[0],
                    len(_FIXED) + (np.abs(e) >= 100)) * 17
    return digits4, zeros4, index, keep, ecls


def _significand(a):
    """For float64 a in [_LOW, _HIGH]: e = floor(log10 a) of the value
    rounded to 17 digits, d = round(a * 10**(16 - e)) in [1e16, 1e17),
    and whether that rounding is settled (false near a tie)."""
    hi, lo, ceil, hi_h, hi_l = _powers()
    # Next to a power of ten the rounded log10 may land on the wrong side
    # of the integer (below it too, where numpy's log10 is not correctly
    # rounded), so both neighbours are checked.
    e = np.floor(np.log10(a)).astype(np.intp)
    i = e - _K_MIN
    e += a >= ceil.take(i + 1)
    e -= a < ceil.take(i)

    # a * 10**(16 - e) = p + s to within ~1e-15, with p an integer-valued
    # double in [1e16, 1e17] and |s| < 20
    i = 16 - e - _K_MIN
    p = a * hi.take(i)
    c = _SPLIT * a
    a_h = c - (c - a)
    a_l = a - a_h
    t_h = hi_h.take(i)
    t_l = hi_l.take(i)
    s = (((a_h * t_h - p) + a_h * t_l + a_l * t_h) + a_l * t_l) \
        + a * lo.take(i)
    s_int = np.floor(s)
    frac = s - s_int
    d = p.astype(np.int64) + s_int.astype(np.int64) + (frac > 0.5)
    carry = d == _D_MAX  # rounded up to the next power of ten
    d[carry] = _D_MAX // 10
    e += carry
    return e, d, np.abs(frac - 0.5) >= _TIE


def _source(e, d, cols):
    """The source rows of values with exponents e and significands d in
    rows of cols, and the number of significant digits of each."""
    digits4, zeros4 = _layouts()[:2]
    n = d.size
    src = np.empty((n, _SRC), dtype=np.uint8)
    src[:] = np.frombuffer(_CONST, dtype=np.uint8)
    src[cols - 1::cols, _SEP] = ord("\n")
    lead, rest = np.divmod(d, 10 ** 16)
    # the 16 digits after the first as four groups of four, one per row
    groups = np.empty((4, n), dtype=np.int64)
    groups[0], rest = np.divmod(rest, 10 ** 12)
    groups[1], rest = np.divmod(rest, 10 ** 8)
    groups[2], groups[3] = np.divmod(rest, 10 ** 4)
    words = src.view(np.uint32)
    words[:, 1:5] = digits4.take(groups).T
    words[:, 6] = digits4.take(np.abs(e))
    src[:, _DIGITS] = lead + ord("0")
    src[:, _ESIGN] = np.where(e < 0, ord("-"), ord("+"))
    z = zeros4.take(groups)  # trailing zeros, group by group from the right
    return src, 17 - (z[3] + (z[3] == 4) * (z[2] + (z[2] == 4) * (
        z[1] + (z[1] == 4) * z[0])))


def _laid_out(v, cols):
    """Each value's bytes in the layout of its class, padded to _OUT bytes,
    which of them are printed, and the indices of the values whose bytes
    are left to Python.  The gather runs a slice of values at a time, so
    that the byte indices stay small."""
    index, keep, ecls = _layouts()[2:]
    a = np.abs(v)
    ok = (a >= _LOW) & (a <= _HIGH)  # false for zero, nan and inf
    a[~ok] = 1.0
    e, d, settled = _significand(a)
    ok &= settled
    src, nd = _source(e, d, cols)
    cls = ecls.take(e - _K_MIN) + np.signbit(v) * (_NCLS * 17) + (nd - 1)
    out = np.empty((v.size, _OUT), dtype=np.uint8)
    flat_src = src.ravel()
    for lo in range(0, v.size, _GATHER):
        part = cls[lo:lo + _GATHER]
        flat = index.take(part, axis=0) \
            + _SRC * np.arange(lo, lo + part.size)[:, None]
        flat_src.take(flat, out=out[lo:lo + _GATHER])
    return out, keep.take(cls, axis=0), np.flatnonzero(~ok)


def format_rows(block):
    """Bytes of a 2-D float64 block as CSV: each value as ``'%.17g' % v``,
    values joined by ``,`` and every row ended by ``\\n``.

    -0.0 prints as ``-0``, as Python's does; fold it first if unwanted.
    """
    v = block.ravel()
    cols = block.shape[1]
    out, mask, hard = _laid_out(v, cols)
    if hard.size:
        text = ["%.17g" % x for x in v[hard].tolist()]
        out[hard, :_OUT - 1] = np.array(text, dtype="S%d" % (_OUT - 1)) \
            .view(np.uint8).reshape(-1, _OUT - 1)
        width = np.array([len(t) for t in text])
        out[hard, width] = np.where(hard % cols == cols - 1, ord("\n"),
                                    ord(","))
        mask[hard] = np.arange(_OUT) <= width[:, None]
    return out[mask].tobytes()
