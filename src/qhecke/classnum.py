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
from .rings import QQ, ZZ
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


def hurwitz12_table(limit):
    """12*H(n) for all 0 <= n <= limit, by one sieve over reduced forms.

    Enumerates (a, b, c) with 4ac - b^2 <= limit directly; much faster
    than calling hurwitz12 per value.
    """
    table = [0] * (limit + 1)
    if limit >= 0:
        table[0] = -1
    # reduced forms: |b| <= a <= c, 3a^2 <= n; c = a first, then c > a,
    # where b > -a excludes nothing and every form has weight 12
    a = 1
    while 3 * a * a <= limit:
        step = 4 * a
        for b in range(-a + 1, a + 1):
            n = a * step - b * b
            if n > limit:
                continue
            if b >= 0:
                table[n] += 6 if b == 0 else 4 if b == a else 12
            for n in range(n + step, limit + 1, step):
                table[n] += 12
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


_table_cache = [0]


def _h12_upto(limit):
    global _table_cache
    if len(_table_cache) <= limit:
        _table_cache = hurwitz12_table(max(limit, 4 * len(_table_cache), 1024))
    return _table_cache


def genfun_F(a, b, n):
    """Generating function sum_{k>=0} F(a*k+b) q^k to order n, integers.

    Requires a*k+b = 3 (mod 4) for every k (terms with a*k+b < 0 are
    omitted).
    """
    if a % 4 != 0 or b % 4 != 3:
        raise UndefinedResidueError(
            f"F({a}n{b:+d}) leaves the residues where F is defined")
    table = _h12_upto(a * n + b if a * n + b >= 0 else 0)
    terms = []
    for k in range(n + 1):
        m = a * k + b
        if m < 0:
            continue
        terms.append((k, kronecker_F(m, _h12=table[m])))
    return QSeries.from_terms(ZZ, terms, n)


def genfun_H(a, b, n):
    """Generating function sum_{k>=0} H(a*k+b) q^k to order n, rationals."""
    top = a * n + b
    table = _h12_upto(top if top >= 0 else 0)
    terms = []
    for k in range(n + 1):
        m = a * k + b
        if m < 0:
            continue
        terms.append((k, Fraction(table[m], 12)))
    return QSeries.from_terms(QQ, terms, n)
