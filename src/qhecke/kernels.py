"""Hot kernels for dense truncated series arithmetic.

All functions work on plain lists of coefficients: ints and Fractions,
or ints and ZPolys (Laurent series in Z[z, 1/z][[q]]).  A list of ints
and Fractions is multiplied as integer numerators over one common
denominator, as FLINT's fmpq_poly stores it; an int list is the case
where that denominator is 1.  Long integer lists go through one big-integer
multiply by Kronecker substitution: each list is packed into a single int
with one fixed-width slot per coefficient, so CPython's Karatsuba does
the convolution.  Lists holding a ZPoly are packed one operand at a
time: each entry of the one with more monomials c z^t q^i becomes one
int with z^t in a fixed-width slot.  One loop, _sparse_mul, serves short
or sparse int lists and those packed rows alike: it adds one scaled copy
of one operand per nonzero entry of the other, shifted by whole slots
for a monomial's z^t, a C-level big-int shift and add per entry.  A
Fraction has no product with a ZPoly there: such a pair raises
TypeError.  Every unit is inverted by Newton iteration on those
products.  This module owns the packed
format, each int v_i in k-byte two's complement slot i: _slot_bytes is
the one width rule (the fewest whole bytes), pack_signed the one writer,
unpack_signed reads an int product and unpack_rows every packed Laurent
row, those of the products here, of series.geometric_sum's packed sums
(_packed_sum) and of mock.py's F4/F8.  Every width below 8 bytes is
written and read at C speed: 1, 2, 4 and 8 bytes by native casts, and
3, 5, 6 and 7 through the next castable width by strided byte copies; a
wider slot, or any slot on a big-endian host, goes one at a time.
"""

import struct
import sys
from array import array
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import add, lshift, mul, sub

from .rings import ZPoly, _raw

BACKEND = "python"

# Fewest nonzero entries both int lists need before packing pays off.
# Measured on CPython 3.11: dense lists cross over at about 10 nonzero
# entries, but the packed cost grows with length times coefficient size:
# 64-bit entries pack 3.4x slower than the schoolbook loop at length 200
# with 16 nonzeros, and 3.7x at length 800 with 24.  Replaying every int
# product of the registry, 16 stays within 8% of the best fixed threshold
# (8) and leaves more margin on such lists.
KRONECKER_MIN_NNZ = 16


def _over_ints(a, types):
    """``a``, whose entries are of ``types``, ints and Fractions, as
    integers over one denominator: (ints, d), ints[i] = a[i]*d.

    d is the lcm of the denominators.
    """
    if Fraction not in types:
        return a, 1
    d = lcm(*[x.denominator for x in a])
    return [x.numerator * (d // x.denominator) for x in a], d


def _divide(out, d):
    """``out`` divided by d, with every exact quotient an int."""
    if d == 1:
        return out
    res = []
    for c in out:
        x = Fraction(c, d) if c else 0
        res.append(x if x.denominator != 1 else x.numerator)
    return res


# slot width in bytes -> the memoryview/array format of a native signed
# int that wide; on a little-endian host these read and write whole slots
# at C speed.  A narrower width goes through the next of them (_wider),
# and a width above 8 bytes, or any width on a big-endian host, one slot
# at a time.
_CAST = {k: c for k, c in ((1, "b"), (2, "h"), (4, "i"), (8, "q"))
         if sys.byteorder == "little" and struct.calcsize(c) == k}

# byte -> 0xff when its top bit is set, else 0: the sign extension of a
# slot whose highest byte it is
_SIGN = bytes(128) + b"\xff" * 128


def _wider(k):
    """The narrowest castable slot width above k bytes, or None."""
    return next((c for c in _CAST if c > k), None)


def _bias(k, n):
    """2^(8k-1) in each of n k-byte slots."""
    return int.from_bytes((bytes(k - 1) + b"\x80") * n, "little")


def pack_signed(vals, k):
    """sum vals[i] * 2^(8k*i) for ints with every |v| < 2^(8k-1).

    It packs the operands of the int and Laurent products here and the
    numerators of _packed_sum's rows.  Each slot is
    written in two's complement, as v mod 2^(8k); xor-ing the bias into
    every slot and subtracting it turns that back into v.  Every width
    below 8 bytes runs at C speed: one with no native cast is written at
    the next castable width w and cut down to its k low bytes by k
    strided slice copies, as v mod 2^(8k) is the low k bytes of
    v mod 2^(8w).
    """
    code = _CAST.get(k)
    wide = None if code else _wider(k)
    if code:
        data = array(code, vals).tobytes()
    elif wide:
        src = array(_CAST[wide], vals).tobytes()
        data = bytearray(k * len(vals))
        for j in range(k):
            data[j::k] = src[j::wide]
    else:
        data = b"".join([v.to_bytes(k, "little", signed=True) for v in vals])
    bias = _bias(k, len(vals))
    return (int.from_bytes(data, "little") ^ bias) - bias


def _twos(rows, k, n):
    """The n lowest k-byte slots of each row in two's complement, as ints >= 0.

    A row is a sum of v_i * 2^(8k*i) with every |v_i| < 2^(8k-1).  The
    bias, built once per list, makes every slot nonnegative without a
    carry, and xor-ing it back leaves v_i mod 2^(8k) in slot i.
    """
    bias = _bias(k, n)
    mask = (1 << 8 * k * n) - 1
    return [((x + bias) & mask) ^ bias if x else 0 for x in rows]


def _slots(y, k, n):
    """The n k-byte two's complement slots of y >= 0 as signed ints.

    A width below 8 bytes with no native cast is widened to the next
    castable width w: k strided slice copies move the bytes, and the
    top byte of each slot, mapped through one translate table, fills
    the w - k bytes above it with its sign.
    """
    data = y.to_bytes(k * n, "little")
    code = _CAST.get(k)
    if code:
        return memoryview(data).cast(code).tolist()
    wide = _wider(k)
    if wide:
        out = bytearray(wide * n)
        for j in range(k):
            out[j::wide] = data[j::k]
        sign = data[k - 1::k].translate(_SIGN)
        for j in range(k, wide):
            out[j::wide] = sign
        return memoryview(out).cast(_CAST[wide]).tolist()
    fb = int.from_bytes
    return [fb(data[i:i + k], "little", signed=True) for i in range(0, k * n, k)]


def unpack_signed(x, k, n):
    """The n lowest k-byte slots of x as signed ints, lowest first.

    x is a sum of v_i * 2^(8k*i) with every |v_i| < 2^(8k-1), as a
    packed product is; higher slots are dropped.
    """
    return _slots(_twos([x], k, n)[0], k, n)


def unpack_rows(rows, k, lo, n):
    """Each packed row as sum_i v_i z^(lo + i) over its n lowest k-byte
    slots v_i: the one reader of every packed Laurent row, those of the
    products here, of mock's F4/F8 and of _packed_sum.

    The zero slots at both ends of a row are trimmed, by its trailing
    zero bits and its bit length, before anything is read: a row comes
    back as a ZPoly window, or as the scalar 0.
    """
    w = 8 * k

    def window(y):
        first = ((y & -y).bit_length() - 1) // w
        y >>= w * first
        return _raw(lo + first, tuple(_slots(y, k, (y.bit_length() + w - 1) // w)))
    return [window(y) if y else 0 for y in _twos(rows, k, n)]


def _slot_bytes(bits):
    """The fewest whole bytes holding ``bits`` bits: the one slot width
    of every packed product and row."""
    return (bits + 7) // 8


def _kron_mul(a, b, n):
    """The first n coefficients of a*b for int lists, by one packed multiply.

    Requires 1 <= n <= len(a) + len(b) - 1.
    """
    bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + min(len(a), len(b)).bit_length() + 1)
    k = _slot_bytes(bits)
    return unpack_signed(pack_signed(a, k) * pack_signed(b, k), k, n)


def _windows(a):
    """Each entry of ``a`` as (lowest z-exponent, coefficient tuple)."""
    return [(x.lo, x.coeffs) if type(x) is ZPoly else (0, (x,) if x else ()) for x in a]


def _monomials(windows):
    """The number of nonzero monomials c z^t q^i in a list of windows."""
    return sum(len(cs) - cs.count(0) for _, cs in windows)


def _laurent_mul(a, b, n):
    """The first n coefficients of a*b for lists of ints and ZPolys, on
    packed ints.

    The operand with more monomials c z^t q^i is b: each of its entries
    becomes one int, z^t in k-byte slot t - lb.  Each monomial of a adds
    one copy of that packed list, shifted by t - la slots and scaled by c,
    into out[i:] (one _sparse_mul term).  Every output coefficient is at
    most max|b| * l1(a), the sum of |c| over a's monomials (the triangle
    inequality), so a slot of that bit length plus a sign bit holds it.
    The output window is z^(la + lb) .. z^(ha + hb), so no shift goes
    right and no slot carries.
    """
    wa, wb = _windows(a), _windows(b)
    if _monomials(wb) < _monomials(wa):
        wa, wb = wb, wa
    terms = [(i, lo + j, c) for i, (lo, cs) in enumerate(wa) for j, c in enumerate(cs) if c]
    full = [(lo, cs) for lo, cs in wb if cs]
    if not terms or not full:
        return [0] * n
    top = max([max(max(cs), -min(cs)) for _, cs in full]) * sum([abs(c) for _, _, c in terms])
    k = _slot_bytes(top.bit_length() + 1)
    w = 8 * k
    la = min([t for _, t, _ in terms])
    ha = max([t for _, t, _ in terms])
    lb = min([lo for lo, _ in full])
    hb = max([lo + len(cs) for lo, cs in full]) - 1
    packed = [pack_signed(cs, k) << w * (lo - lb) if cs else 0 for lo, cs in wb]
    out = _sparse_mul([(i, w * (t - la), c) for i, t, c in terms], packed, n)
    return unpack_rows(out, k, la + lb, ha - la + hb - lb + 1)


def _packed_sum(terms, lo, n):
    """The coefficients of q^lo..q^n of a sum of c*q^e/(1 - r*q^d) terms,
    with c an int or a ZPoly and r = s*z^k, on packed ints.

    The terms are series._one_minus_form's, with e in [lo, n] and d >= 0.
    A term c*z^t writes c*s^j*z^(t + kj) at q^(e + jd) for j = 0..J,
    J = (n - e)/d (J = 0 at d = 0), so one z-window L..H holds every
    term's window swept by k*J.  An output coefficient takes at most one
    copy of each term, so it is at most the sum over terms of
    max|c| * |s|^J, and a slot of that bit length plus a sign bit holds
    it.  Each c is packed once; step j adds it times s^j, shifted by
    t + kj - L >= 0 slots, into its row with one big-int add.

    A Fraction c, or a ratio at d >= 1 that is not a monomial s*z^k,
    raises TypeError.
    """
    steps = []
    for c, e, r, d in terms:
        t, cs = (c.lo, c.coeffs) if type(c) is ZPoly else (0, (c,))
        s, k, j = 1, 0, 0  # d = 0: c alone at q^e
        if d:
            s, k = (r.coeffs[0], r.lo) if type(r) is ZPoly and len(r.coeffs) == 1 else (r, 0)
            j = (n - e) // d
        if type(c) not in (int, ZPoly) or type(s) is not int:
            raise TypeError(f"({c})/(1 - ({r})*q^{d}) is not a term of Z[z, 1/z][[q]]"
                            " with a ratio s*z^k")
        steps.append((cs, t, e - lo, d or 1, s, k, j))
    low = min([t + min(k * j, 0) for _, t, _, _, _, k, j in steps])
    high = max([t + len(cs) - 1 + max(k * j, 0) for cs, t, _, _, _, k, j in steps])
    top = sum([max(map(abs, cs)) * abs(s) ** j for cs, _, _, _, s, _, j in steps])
    size = _slot_bytes(top.bit_length() + 1)
    w = 8 * size
    out = [0] * (n + 1 - lo)
    for cs, t, i, d, s, k, j in steps:
        x = pack_signed(cs, size)
        base, stride = w * (t - low), w * k
        row = slice(i, i + d * j + 1, d)
        out[row] = map(add, out[row], [x * s ** m << base + stride * m for m in range(j + 1)])
    return unpack_rows(out, size, low, high - low + 1)


def _conv(a, b, keep):
    """The body of conv_trunc.

    Newton inversion calls this directly, so a wrapper around the public
    conv_trunc (perfbench/tracer.py) counts only the series products.
    """
    la, lb = len(a), len(b)
    n = min(keep, la + lb - 1) if la and lb else 0
    if n <= 0:
        return []
    a, b = a[:n], b[:n]
    ta, tb = set(map(type, a)), set(map(type, b))
    if ZPoly in ta or ZPoly in tb:
        if Fraction in ta or Fraction in tb:
            raise TypeError("a Fraction has no product with a ZPoly in Z[z, 1/z][[q]]")
        return _laurent_mul(a, b, n)
    (a, da), (b, db) = _over_ints(a, ta), _over_ints(b, tb)
    nnz_a, nnz_b = len(a) - a.count(0), len(b) - b.count(0)
    if min(nnz_a, nnz_b) >= KRONECKER_MIN_NNZ:
        out = _kron_mul(a, b, n)
    else:
        if nnz_b < nnz_a:
            a, b = b, a
        out = _sparse_mul([(i, 0, c) for i, c in enumerate(a) if c], b, n)
    return _divide(out, da * db)


def _sparse_mul(terms, b, n):
    """The first n entries of the sum over (i, s, c) terms, i < n, of
    c * (b << s) added into out[i:]: the one add loop of the int products,
    with s = 0, and of _laurent_mul, whose s shifts packed rows by slots."""
    out = [0] * n
    for i, s, c in terms:
        m = min(len(b), n - i)
        copy = b[:m]
        if s:
            copy = map(lshift, copy, repeat(s))
        if c == 1:
            out[i:i + m] = map(add, out[i:i + m], copy)
        elif c == -1:
            out[i:i + m] = map(sub, out[i:i + m], copy)
        else:
            out[i:i + m] = map(add, out[i:i + m], map(mul, copy, repeat(c)))
    return out


def conv_trunc(a, b, keep):
    """Truncated convolution: out[k] = sum a[i]*b[k-i] for k < keep."""
    return _conv(a, b, keep)


def inv_unit(g, keep, one):
    """Inverse of a series with g[0] == one, to keep coefficients, by
    Newton iteration from h = [one].

    Each step doubles the known prefix m of h = 1/g: with
    e = g*h - 1 = O(q^m), the update h - h*e is exact to q^(2m).
    Every caller passes one = 1, the one of Q and of Z[z, 1/z] alike.
    """
    if keep <= 0:
        return [0] * keep
    h, m = [one], 1
    while m < keep:
        m2 = min(2 * m, keep)
        e = _conv(g[:m2], h, m2)[m:]
        if any(e):
            corr = _conv(h, e, m2 - m)
            h.extend(-c for c in corr)
        h.extend([0] * (m2 - len(h)))
        m = m2
    return h


def mul_linear(f, c, d):
    """Multiply in place by (1 - c*q^d) with d >= 1: f[i] -= c*f[i-d]."""
    for i in range(len(f) - 1, d - 1, -1):
        t = f[i - d]
        if t:
            f[i] = f[i] - c * t
    return f


def div_linear(f, c, d):
    """Divide in place by (1 - c*q^d) with d >= 1: f[i] += c*f[i-d]."""
    for i in range(d, len(f)):
        t = f[i - d]
        if t:
            f[i] = f[i] + c * t
    return f
