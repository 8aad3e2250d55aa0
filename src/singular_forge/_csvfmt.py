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
else ``d.ddde+XX``, trailing zeros stripped, a leading ``-`` when negative,
padded to a fixed width with NUL bytes that one ``bytes.translate`` drops.

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
# the separator, a NUL that pads a layout to _OUT bytes and is dropped from
# the text, and the exponent's sign and three digits (the sign overwrites
# the leading '0' of its four-digit group).
_MINUS, _POINT, _ZERO, _DIGITS, _E, _SEP, _NUL, _ESIGN = \
    0, 1, 2, 3, 20, 21, 22, 24
_SRC = 28
_CONST = b"-.0" + b"0" * 17 + b"e," + b"\0" * 6
_OUT = 25  # "-d.dddddddddddddddde-ddd" is 24 bytes, then the separator
_FIXED = range(-4, 17)  # exponents printed in fixed notation
_NCLS = len(_FIXED) + 2  # fixed e, then e+dd, then e+ddd
_GATHER = 1024  # values per gather: 200 kB of intp byte indices


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
    of trailing zeros, for i < 10000; the source indices of every layout,
    padded with _NUL; each exponent's layout class; the offset of each
    value's source row within one gather."""
    q = (np.arange(10000, dtype=np.int16)[:, None]
         // np.array([1000, 100, 10, 1], dtype=np.int16) % 10).astype(np.uint8)
    digits4 = (q + np.uint8(ord("0"))).view(np.uint32).ravel()
    zeros4 = np.cumprod(q[:, ::-1] == 0, axis=1, dtype=np.uint8).sum(
        axis=1, dtype=np.uint8)
    layouts = [_layout(neg, ecls, nd)
               for neg in (0, 1) for ecls in range(_NCLS)
               for nd in range(1, 18)]
    index = np.full((len(layouts), _OUT), _NUL, dtype=np.intp)
    for row, lay in zip(index, layouts):
        row[:len(lay)] = lay
    e = np.arange(_K_MIN, _K_MAX + 1)
    ecls = np.where((e >= _FIXED[0]) & (e <= _FIXED[-1]), e - _FIXED[0],
                    len(_FIXED) + (np.abs(e) >= 100)) * 17
    return digits4, zeros4, index, ecls, _SRC * np.arange(_GATHER)[:, None]


def _significand(a):
    """For float64 a in [_LOW, _HIGH]: e = floor(log10 a) of the value
    rounded to 17 digits, d = round(a * 10**(16 - e)) in [1e16, 1e17),
    and whether that rounding is settled (false near a tie)."""
    hi, lo, ceil, hi_h, hi_l = _powers()
    # Next to a power of ten the rounded log10 may land on the wrong side
    # of the integer (below it too, where numpy's log10 is not correctly
    # rounded), so both neighbours are checked.
    e = np.log10(a)
    e = np.floor(e, out=e).astype(np.intp)
    i = e - _K_MIN
    e += a >= ceil.take(i + 1)
    e -= a < ceil.take(i)

    # a * 10**(16 - e) = p + s to within ~1e-15, with p an integer-valued
    # double in [1e16, 1e17] and |s| < 20: s sums, in this order,
    # a_h t_h - p, a_h t_l, a_l t_h, a_l t_l and a lo, each product formed
    # in place in an array it no longer needs
    np.subtract(16 - _K_MIN, e, out=i)
    p = hi.take(i)
    p *= a
    a_h = _SPLIT * a
    a_h -= a_h - a
    a_l = a - a_h
    t_h = hi_h.take(i)
    t_l = hi_l.take(i)
    s = a_h * t_h
    s -= p
    s += np.multiply(a_h, t_l, out=a_h)
    s += np.multiply(a_l, t_h, out=t_h)
    s += np.multiply(a_l, t_l, out=t_l)
    s += a * lo.take(i)
    d = p.astype(np.int64)
    np.floor(s, out=p)
    d += p.astype(np.int64)
    s -= p  # the fraction
    d += s > 0.5
    carry = d == _D_MAX  # rounded up to the next power of ten
    d[carry] = _D_MAX // 10
    e += carry
    s -= 0.5
    return e, d, np.abs(s, out=s) >= _TIE


def _source(e, d, cols):
    """The source rows of values with exponents e and significands d in
    rows of cols, and the number of significant digits of each."""
    digits4, zeros4 = _layouts()[:2]
    n = d.size
    src = np.empty((n, _SRC), dtype=np.uint8)
    src[:] = np.frombuffer(_CONST, dtype=np.uint8)
    src[cols - 1::cols, _SEP] = ord("\n")
    words = src.view(np.uint32)
    words[:, 6] = digits4.take(np.abs(e))
    src[:, _ESIGN] = np.where(e < 0, ord("-"), ord("+"))
    # the 16 digits after the first as four groups of four, from the right,
    # counting trailing zeros while every group to the right is all zeros
    rest, group = np.divmod(d, 10 ** 4)
    words[:, 4] = digits4.take(group)
    zeros = zeros4.take(group)
    all_zero = zeros == 4
    for j in (3, 2, 1):
        rest, group = np.divmod(rest, 10 ** 4)
        words[:, j] = digits4.take(group)
        z = zeros4.take(group)
        z *= all_zero
        zeros += z
        all_zero &= z == 4
    src[:, _DIGITS] = rest + ord("0")
    return src, 17 - zeros


def _laid_out(v, cols):
    """Each value's bytes in the layout of its class, padded to _OUT bytes
    with NUL, and the indices of the values whose bytes are left to
    Python.  The gather runs a slice of values at a time, so that the byte
    indices stay small; they are in range by construction, so the take
    clips instead of checking them.  Each array is dropped once read, so
    that the gather does not hold the digit arithmetic's."""
    index, ecls, offsets = _layouts()[2:]
    a = np.abs(v)
    ok = (a >= _LOW) & (a <= _HIGH)  # false for zero, nan and inf
    a[~ok] = 1.0
    e, d, settled = _significand(a)
    del a
    ok &= settled
    src, nd = _source(e, d, cols)
    cls = ecls.take(e - _K_MIN)
    cls += np.signbit(v) * (_NCLS * 17) + (nd - 1)
    del e, d, nd
    out = np.empty((v.size, _OUT), dtype=np.uint8)
    flat_src = src.ravel()
    flat = np.empty((min(v.size, _GATHER), _OUT), dtype=np.intp)
    for lo in range(0, v.size, _GATHER):
        part = cls[lo:lo + _GATHER]
        chunk = flat[:len(part)]
        index.take(part, axis=0, out=chunk, mode="clip")
        chunk += offsets[:len(part)]
        flat_src[lo * _SRC:].take(chunk, out=out[lo:lo + _GATHER],
                                  mode="clip")
    return out, np.flatnonzero(~ok)


def format_rows(block, order=None):
    """Bytes of a 2-D float64 block as CSV: each value as ``'%.17g' % v``,
    values joined by ``,`` and every row ended by ``\\n``.

    With ``order``, the bytes are those of ``block[:, order]``, but each
    value of ``block`` is formatted once: ``order`` repeats the columns
    that are printed more than once.  A row's ``\\n`` is laid out with the
    block's last column, so ``order`` must end with it and name it nowhere
    else.

    -0.0 prints as ``-0``, as Python's does; fold it first if unwanted.
    """
    v = block.ravel()
    cols = block.shape[1]
    if order is not None:
        order = np.asarray(order, dtype=np.intp)
        if order[-1] != cols - 1 or np.count_nonzero(order == cols - 1) > 1:
            raise ValueError("order must end with the block's last column, "
                             "and name it only there")
    out, hard = _laid_out(v, cols)
    if hard.size:
        # each value's text and separator, padded with NUL by "S25"
        text = ["%.17g%s" % (x, "\n" if i % cols == cols - 1 else ",")
                for x, i in zip(v[hard].tolist(), hard.tolist())]
        out[hard] = np.array(text, dtype="S%d" % _OUT).view(np.uint8) \
            .reshape(-1, _OUT)
    if order is not None:
        out = out.reshape(-1, cols, _OUT).take(order, axis=1)
    text = out.tobytes()
    del out
    return text.translate(None, b"\0")
