"""Hot kernels for dense truncated series arithmetic.

All functions work on plain lists of coefficients (ints, Fractions and
ZPolys, mixed freely) and rely only on + - *.  A list of ints and
Fractions is multiplied as integer numerators over one common denominator, as
FLINT's fmpq_poly stores it; an int list is the case where that
denominator is 1.  Long integer lists go through one
big-integer multiply by Kronecker substitution: each list is packed into
a single int with one fixed-width slot per coefficient, so CPython's
Karatsuba does the convolution.  Every other product, on any coefficients,
adds one scaled copy of one operand per nonzero entry of the sparser
one.  Every unit is inverted by Newton iteration on those products.
"""

from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import add, mul, sub

BACKEND = "python"

# Fewest nonzero entries both int lists need before packing pays off.
# Measured on CPython 3.11: dense lists cross over at about 10 nonzero
# entries, but the packed cost grows with length times coefficient size:
# 64-bit entries pack 3.4x slower than the schoolbook loop at length 200
# with 16 nonzeros, and 3.7x at length 800 with 24.  Replaying every int
# product of the registry, 16 stays within 8% of the best fixed threshold
# (8) and leaves more margin on such lists.
KRONECKER_MIN_NNZ = 16


_RATIONAL = {int, Fraction}


def _over_ints(a):
    """``a`` as integers over one denominator: (ints, d), ints[i] = a[i]*d.

    d is the lcm of the denominators.  None when ``a`` holds anything but
    ints and Fractions.
    """
    types = set(map(type, a))
    if not types <= _RATIONAL:
        return None
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


def _pack(a, k):
    """Nonnegative and negative parts of ``a`` as ints in k-byte slots."""
    zero = bytes(k)
    pos = b"".join([x.to_bytes(k, "little") if x > 0 else zero for x in a])
    neg = b"".join([(-x).to_bytes(k, "little") if x < 0 else zero for x in a])
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _kron_mul(a, b, n):
    """The first n coefficients of a*b for int lists, by one packed multiply.

    Requires 1 <= n <= len(a) + len(b) - 1.
    """
    bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + min(len(a), len(b)).bit_length() + 1)
    k = (bits + 7) // 8
    return unpack_signed(_pack(a, k) * _pack(b, k), k, n)


def unpack_signed(x, k, n):
    """The n lowest k-byte slots of x as signed ints, lowest first.

    x is a sum of v_i * 2^(8k*i) with every |v_i| < 2^(8k-1), as a
    packed product or a packed series is; higher slots are dropped.
    """
    # a bias of 0x80.. per slot makes every slot nonnegative and below 2^(8k)
    slot_bias = bytes(k - 1) + b"\x80"
    x += int.from_bytes(slot_bias * n, "little")
    data = (x & ((1 << (8 * k * n)) - 1)).to_bytes(k * n, "little")
    half = 1 << (8 * k - 1)
    fb = int.from_bytes
    return [fb(data[i:i + k], "little") - half for i in range(0, k * n, k)]


def _conv(a, b, keep):
    """The body of conv_trunc.

    Newton inversion calls this directly, so a wrapper around the public
    conv_trunc (perfbench/tracer.py) counts only the series products.
    """
    la, lb = len(a), len(b)
    n = min(keep, la + lb - 1) if la and lb else 0
    if n <= 0:
        return []
    a, b, d = a[:n], b[:n], 1
    sa = _over_ints(a)
    sb = sa and _over_ints(b)
    if sb:
        (a, da), (b, db) = sa, sb
        d = da * db
    nnz_a, nnz_b = len(a) - a.count(0), len(b) - b.count(0)
    if sb and min(nnz_a, nnz_b) >= KRONECKER_MIN_NNZ:
        out = _kron_mul(a, b, n)
    else:
        out = _sparse_mul(a, b, n) if nnz_a <= nnz_b else _sparse_mul(b, a, n)
    return _divide(out, d)


def _sparse_mul(a, b, n):
    """The first n coefficients of a*b, one scaled copy of b added per
    nonzero entry of a (the sparser operand)."""
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if not ai:
            continue
        m = min(len(b), n - i)
        if ai == 1:
            out[i:i + m] = map(add, out[i:i + m], b[:m])
        elif ai == -1:
            out[i:i + m] = map(sub, out[i:i + m], b[:m])
        else:
            out[i:i + m] = map(add, out[i:i + m], map(mul, repeat(ai, m), b[:m]))
    return out


def conv_trunc(a, b, keep):
    """Truncated convolution: out[k] = sum a[i]*b[k-i] for k < keep."""
    return _conv(a, b, keep)


def _inv_newton(g, keep, known):
    """Inverse of a list with g[0] == 1, by Newton iteration.

    Each step doubles the known prefix m of h = 1/g: with
    e = g*h - 1 = O(q^m), the update h - h*e is exact to q^(2m).
    ``known``, a list holding the first len(known) >= 1 coefficients of
    1/g, is extended in place from there.
    """
    h = known
    m = len(h)
    while m < keep:
        m2 = min(2 * m, keep)
        e = _conv(g[:m2], h, m2)[m:]
        if any(e):
            corr = _conv(h, e, m2 - m)
            h.extend(-c for c in corr)
        h.extend([0] * (m2 - len(h)))
        m = m2
    return h


def inv_unit(g, keep, one):
    """Inverse of a series with g[0] == one, to keep coefficients.

    ``one`` seeds the Newton iteration.  Every caller passes 1, which is
    the one of Q and of Q[z, 1/z] alike.
    """
    if keep <= 0:
        return [0] * keep
    return _inv_newton(g, keep, [one])


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
