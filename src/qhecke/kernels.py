"""Hot kernels for dense truncated series arithmetic.

All functions work on plain lists of ring elements (ints, Fractions,
GaussianRationals or ZPolys) and rely only on + - *.  Products and
inverses of lists of plain ints go through one big-integer multiply by
Kronecker substitution: each list is packed into a single int with one
fixed-width slot per coefficient, so CPython's Karatsuba does the
convolution.  Every other list takes the schoolbook loop.
"""

BACKEND = "python"

# Fewest nonzero entries both int lists need before packing pays off.
# Measured on CPython 3.11: dense lists cross over at about 10 nonzero
# entries, but the packed cost grows with length times coefficient size:
# 64-bit entries pack 3.4x slower than the schoolbook loop at length 200
# with 16 nonzeros, and 3.7x at length 800 with 24.  Replaying every int
# product of the registry, 16 stays within 8% of the best fixed threshold
# (8) and leaves more margin on such lists.
KRONECKER_MIN_NNZ = 16


def _all_int(a):
    return type(a[0]) is int and len(set(map(type, a))) == 1


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
    c = _pack(a, k) * _pack(b, k)
    # a bias of 0x80.. per slot makes every slot nonnegative and below 2^(8k)
    slot_bias = bytes(k - 1) + b"\x80"
    c += int.from_bytes(slot_bias * n, "little")
    data = (c & ((1 << (8 * k * n)) - 1)).to_bytes(k * n, "little")
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
    if _all_int(a) and _all_int(b):
        a, b = a[:n], b[:n]
        if (len(a) - a.count(0) >= KRONECKER_MIN_NNZ
                and len(b) - b.count(0) >= KRONECKER_MIN_NNZ):
            return _kron_mul(a, b, n)
    out = [0] * n
    for i in range(min(la, n)):
        ai = a[i]
        if not ai:
            continue
        jmax = min(lb, n - i)
        for j in range(jmax):
            bj = b[j]
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out


def conv_trunc(a, b, keep):
    """Truncated convolution: out[k] = sum a[i]*b[k-i] for k < keep."""
    return _conv(a, b, keep)


def _inv_newton(g, keep):
    """Inverse of an int list with g[0] == 1, by Newton iteration.

    Each step doubles the known prefix m of h = 1/g: with
    e = g*h - 1 = O(q^m), the update h - h*e is exact to q^(2m).
    """
    h = [1]
    m = 1
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
    """Inverse of a series with g[0] == 1, to keep coefficients.

    ``one`` is the ring's multiplicative identity (used to seed out[0]).
    """
    if keep <= 0:
        return [0] * keep
    if type(one) is int and one == 1 and _all_int(g):
        return _inv_newton(g, keep)
    out = [0] * keep
    out[0] = one
    lg = len(g)
    for k in range(1, keep):
        acc = 0
        for i in range(1, min(k, lg - 1) + 1):
            gi = g[i]
            if gi:
                acc = acc + gi * out[k - i]
        out[k] = -acc if acc else 0
    return out


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
