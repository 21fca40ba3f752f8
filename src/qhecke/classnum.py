"""Hurwitz class numbers from reduced binary quadratic forms.

H(N) counts classes of positive definite forms of discriminant -N, with
forms equivalent to a multiple of x^2+y^2 weighted 1/2 and of
x^2+xy+y^2 weighted 1/3; H(0) = -1/12 and H(N) = 0 for N = 1,2 mod 4.
All internal arithmetic is on 12*H(N), which is an integer.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import UndefinedResidueError
from .series import QSeries


def reduced_forms(n):
    """Reduced positive definite forms (a, b, c) of discriminant -n.

    Conditions: b^2 - 4ac = -n, |b| <= a <= c, and b >= 0 whenever
    |b| = a or a = c.  Runs for any n >= 1 (empty when none exist).
    """
    out = []
    for a in range(1, isqrt(n // 3) + 1):
        b = -a + 1 if (a + n) % 2 else -a
        while b <= a:
            t = b * b + n
            if t % (4 * a) == 0:
                c = t // (4 * a)
                if c >= a and not (b < 0 and (-b == a or a == c)):
                    out.append((a, b, c))
            b += 2
    return out


def _form_weight12(a, b, c):
    """Weight of one reduced form in units of 1/12."""
    if b == 0 and a == c:
        return 6   # multiple of x^2 + y^2
    if a == b == c:
        return 4   # multiple of x^2 + xy + y^2
    return 12


def hurwitz12(n):
    """12*H(n) as an integer."""
    if n < 0:
        raise ValueError("n must be a non-negative integer")
    if n == 0:
        return -1
    if n % 4 in (1, 2):
        return 0
    return sum(_form_weight12(*f) for f in reduced_forms(n))


def hurwitz12_table(limit, known=()):
    """12*H(n) for all 0 <= n <= limit, by one sieve over reduced forms.

    ``known`` holds 12*H(n) for n < len(known) (a table this function
    returned); only the n above it are sieved, into a new list.

    Each reduced form (a, b, c) with c >= a lies on the progression
    n = 4a^2 - b^2 + 4a*j (c = a + j), which is written as one strided
    slice from its first term past len(known).  The term c = a has its
    own weight: 6 for b = 0, 4 for b = a, 12 for b > 0 and none for
    b < 0.  Every later term has weight 12, so for 0 < b < a the
    progressions of b and -b, which share their n, count 24 together.
    """
    start = len(known)
    table = list(known) + [0] * (limit + 1 - start)
    if start == 0 and limit >= 0:
        table[0] = -1
    a = 1
    while 3 * a * a <= limit:
        step = 4 * a
        for b in range(a + 1):
            n = a * step - b * b
            if n > limit:
                continue
            if n >= start:
                table[n] += 6 if b == 0 else 4 if b == a else 12
            n += step
            if n < start:
                n -= (n - start) // step * step
            v = 24 if 0 < b < a else 12
            table[n:limit + 1:step] = map(v.__add__, table[n:limit + 1:step])
        a += 1
    return table


def hurwitz(n):
    """H(n) as an exact rational."""
    return Fraction(hurwitz12(n), 12)


def kronecker_F(m, _h12=None):
    """Kronecker's F: F(8n+7) = H(8n+7), F(8n+3) = 3*H(8n+3).

    Defined only for m = 3 (mod 4); other residues raise.
    """
    if m % 4 != 3:
        raise UndefinedResidueError(f"F({m}) undefined: need m = 3 (mod 4)")
    h12 = hurwitz12(m) if _h12 is None else _h12
    if m % 8 == 7:
        assert h12 % 12 == 0
        return h12 // 12
    assert h12 % 4 == 0
    return h12 // 4


_table_cache = []


def _h12_upto(limit):
    """hurwitz12_table(L) for some L >= limit, shared by every caller.

    A longer request extends the cached table to exactly its limit and
    rebinds the name to the new list.
    """
    global _table_cache
    if len(_table_cache) <= limit:
        _table_cache = hurwitz12_table(limit, _table_cache)
    return _table_cache


def genfun_F(a, b, n):
    """Generating function sum_{k>=0} F(a*k+b) q^k to order n, integers.

    Requires a*k+b = 3 (mod 4) for every k (terms with a*k+b < 0 are
    omitted).
    """
    if a % 4 != 0 or b % 4 != 3:
        raise UndefinedResidueError(
            f"F({a}n{b:+d}) leaves the residues where F is defined")
    return _genfun(a, b, n, lambda m, h12: kronecker_F(m, _h12=h12))


def genfun_H(a, b, n):
    """Generating function sum_{k>=0} H(a*k+b) q^k to order n, rationals."""
    return _genfun(a, b, n, lambda m, h12: h12 // 12 if h12 % 12 == 0 else Fraction(h12, 12))


def _genfun(a, b, n, value):
    """sum_{k=0..n} value(m, 12*H(m)) q^k over the m = a*k+b >= 0.

    Those k are one run lo..hi: k >= -b/a for a > 0, k <= b/-a for
    a < 0, and every k or none for a = 0.  The largest such m is b or
    a*n+b, whichever the slope makes larger.
    """
    lo, hi = 0, n
    if a > 0:
        lo = max(lo, -(b // a))
    elif a < 0:
        hi = min(hi, b // -a)
    elif b < 0:
        hi = -1
    table = _h12_upto(max(b, a * n + b, 0))
    return QSeries(lo, [value(m, table[m]) for m in (a * k + b for k in range(lo, hi + 1))], n)
