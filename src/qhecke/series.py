"""Truncated q-Laurent series with exact coefficients.

A QSeries stores dense coefficients for exponents min_exp..top together
with a certification order: every coefficient of q^e with e <= order is
known exactly (coefficients outside the stored window but below the
order are exactly zero).  order = INF marks a series known in full
(e.g. a Laurent polynomial).  Each coefficient is a rational or a
Laurent polynomial in Z[z, 1/z] (see rings.py), and one series may
hold ints beside ZPolys: Z is a subring of Z[z, 1/z].  An operation
that would put a Fraction into a ZPoly raises TypeError.

Every operation propagates the tightest provable order, so negative
exponents and monomial shifts never silently lose validity.

One rule reads every linear denominator 1 - c*q^d: for d >= 1 it
expands geometrically, for d <= -1 it rewrites 1/(1 - u) as
-u^-1/(1 - u^-1), and for d = 0 it scales by 1/(1 - c), raising
PoleError when 1 - c is not a unit; c = 0 is the factor 1 for every d.
div_one_minus applies it to a whole series; geometric_sum, used by
every Appell- and Lambert-type sum, applies it term by term and writes
each term c*q^e/(1 - r*q^d) along its own stride e, e + d, ... of one
dense list.  A sum with a ZPoly in it, every z-analogue's Appell-Lerch
sum among them, keeps that list on packed ints (kernels._packed_sum, in
the packed row format kernels owns): each q-coefficient is one int with
z^t in a fixed-width slot, and a stride step is one shift and one
big-int add.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from operator import add

from . import kernels
from .errors import NonConvergentError, NonUnitError, PoleError
from .rings import ZPoly, _point, invert

INF = float("inf")


@dataclass(frozen=True)
class Monomial:
    """+-z^zdeg * q^qdeg, coef the int 1 or -1: every theta, Appell-Lerch
    and f_{a,b,c} argument."""

    coef: int
    zdeg: int = 0
    qdeg: int = 0

    def __post_init__(self):
        if type(self.coef) is not int or self.coef not in (1, -1):
            raise ValueError(f"monomial coefficient must be the int 1 or -1, got {self.coef!r}")

    def __mul__(self, other):
        return Monomial(self.coef * other.coef, self.zdeg + other.zdeg, self.qdeg + other.qdeg)

    def inv(self):
        return Monomial(self.coef, -self.zdeg, -self.qdeg)

    def __pow__(self, k):
        return Monomial(self.coef ** (k % 2), self.zdeg * k, self.qdeg * k)

    def neg(self):
        return Monomial(-self.coef, self.zdeg, self.qdeg)

    def qshift(self, d):
        return Monomial(self.coef, self.zdeg, self.qdeg + d)


def monomial(coef=1, zdeg=0, qdeg=0):
    return Monomial(coef, zdeg, qdeg)


class QSeries:
    __slots__ = ("min_exp", "coeffs", "order")

    def __init__(self, min_exp, coeffs, order, _trusted=False):
        if not _trusted:
            # trim zeros at both ends; clip stored window to the order
            lo, hi = 0, len(coeffs)
            while lo < hi and not coeffs[lo]:
                lo += 1
            while hi > lo and not coeffs[hi - 1]:
                hi -= 1
            # a list slice is already a fresh list, so the pop() below
            # never touches the caller's
            coeffs = coeffs[lo:hi]
            if type(coeffs) is not list:
                coeffs = list(coeffs)
            min_exp += lo
            if order is not INF and min_exp + len(coeffs) - 1 > order:
                keep = order - min_exp + 1
                coeffs = coeffs[: max(keep, 0)]
                while coeffs and not coeffs[-1]:
                    coeffs.pop()
            if not coeffs:
                min_exp = 0
        self.min_exp = min_exp
        self.coeffs = coeffs
        self.order = order

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, order=INF):
        return cls(0, [], order, _trusted=True)

    @classmethod
    def one(cls, order=INF):
        return cls.monomial(1, 0, order)

    @classmethod
    def monomial(cls, c, d, order=INF):
        """c * q^d, certified through q^order (zero when d lies above it)."""
        if not c or d > order:
            return cls.zero(order)
        return cls(d, [c], order, _trusted=True)

    @classmethod
    def from_terms(cls, terms, order):
        """Build from an iterable of (exponent, coefficient) pairs."""
        d = {}
        for e, c in terms:
            if e <= order:
                d[e] = d.get(e, 0) + c
        if not d:
            return cls.zero(order)
        lo, hi = min(d), max(d)
        coeffs = [d.get(e, 0) for e in range(lo, hi + 1)]
        return cls(lo, coeffs, order)

    # -- basic queries -----------------------------------------------------

    @property
    def top(self):
        """Highest stored exponent (min_exp - 1 when the window is empty)."""
        return self.min_exp + len(self.coeffs) - 1

    def effective_min(self):
        """Lowest exponent that can carry a nonzero coefficient."""
        if self.coeffs:
            return self.min_exp
        return self.order + 1 if self.order is not INF else INF

    def coeff(self, e):
        if self.order is not INF and e > self.order:
            raise ValueError(f"coefficient of q^{e} not certified (order {self.order})")
        if self.min_exp <= e <= self.top:
            return self.coeffs[e - self.min_exp]
        return 0

    def nonzero_terms(self):
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.min_exp + i, c

    def valuation(self):
        """Exponent of the lowest nonzero certified term, or None if zero."""
        for e, _ in self.nonzero_terms():
            return e
        return None

    def truncate(self, n):
        if n >= self.order:
            return self
        return QSeries(self.min_exp, self.coeffs, n)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        order = min(self.order, other.order)
        if not self.coeffs:
            return other.truncate(order)
        if not other.coeffs:
            return self.truncate(order)
        lo = min(self.min_exp, other.min_exp)
        hi = min(order, max(self.top, other.top))
        if hi < lo:
            return QSeries.zero(order)
        out = [0] * (hi - lo + 1)
        for f in (self, other):
            # clip at hi; a bare negative bound would keep terms when
            # f.min_exp lies above hi
            cs = f.coeffs[:max(hi - f.min_exp + 1, 0)]
            s = f.min_exp - lo
            out[s:s + len(cs)] = map(add, out[s:s + len(cs)], cs)
        return QSeries(lo, out, order)

    def __neg__(self):
        return QSeries(self.min_exp, [-c for c in self.coeffs], self.order, _trusted=True)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """Multiply by a coefficient: a rational, or an int or a ZPoly for a
        series in Z[z, 1/z] (a Fraction times a ZPoly raises TypeError)."""
        if c == 0:
            return QSeries.zero(self.order)
        return QSeries(self.min_exp, [c * x for x in self.coeffs], self.order)

    def shift(self, c, d):
        """Multiply by the exact monomial c * q^d."""
        order = self.order if self.order is INF else self.order + d
        scaled = self.scale(c)
        return scaled._with_min(scaled.min_exp + d, order)

    def _with_min(self, min_exp, order):
        return QSeries(min_exp, self.coeffs, order, _trusted=True)

    def __mul__(self, other):
        fl = min(self.effective_min(),
                 self.order + 1 if self.order is not INF else INF)
        gl = min(other.effective_min(),
                 other.order + 1 if other.order is not INF else INF)
        order = min(self.order + gl if self.order is not INF else INF,
                    other.order + fl if other.order is not INF else INF)
        if not self.coeffs or not other.coeffs:
            return QSeries.zero(order)
        base = self.min_exp + other.min_exp
        keep = len(self.coeffs) + len(other.coeffs) - 1
        if order is not INF:
            keep = min(keep, order - base + 1)
        if keep <= 0:
            return QSeries.zero(order)
        out = kernels.conv_trunc(self.coeffs, other.coeffs, keep)
        return QSeries(base, out, order)

    def __pow__(self, k):
        if k < 0:
            return self.invert() ** (-k)
        out = QSeries.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def invert(self):
        """Multiplicative inverse, certified to order - 2*valuation."""
        if self.order is INF:
            raise NonUnitError("truncate before inverting an exact series")
        v = self.valuation()
        if v is None:
            raise NonUnitError("cannot invert a series that is zero to its order")
        inv_lead = invert(self.coeff(v))
        m = self.order - v  # normalized series known through q^m
        g = [1]
        base = v - self.min_exp
        for i in range(1, m + 1):
            c = self.coeffs[base + i] if base + i < len(self.coeffs) else 0
            g.append(inv_lead * c)
        out = kernels.inv_unit(g, m + 1, 1)
        out = [inv_lead * c if c else 0 for c in out]
        return QSeries(-v, out, self.order - 2 * v)

    # -- linear-factor helpers (the builders' workhorses) -------------------

    def mul_one_minus(self, c, d):
        """Multiply by (1 - c*q^d) for any integer d.

        A zero window is returned as it is only when the factor cannot
        lower its order: c = 0 or d >= 0.
        """
        if not c or (not self.coeffs and d >= 0):
            return self
        if d >= 1 and self.order is not INF:
            hi = min(self.order, self.top + d)
            pad = hi - self.top
            out = list(self.coeffs) + [0] * max(pad, 0)
            kernels.mul_linear(out, c, d)
            return QSeries(self.min_exp, out, self.order)
        return self - self.shift(c, d)

    def div_one_minus(self, c, d):
        """Divide by (1 - c*q^d) for any integer d, by _one_minus_form."""
        a, s, c, d = _one_minus_form(c, d)
        f = self if a is None else self.shift(a, s)
        if d == 0:
            return f
        if f.order is INF:
            raise NonUnitError("truncate before geometric division")
        if not f.coeffs:
            return f
        pad = f.order - f.top
        out = list(f.coeffs) + [0] * max(pad, 0)
        kernels.div_linear(out, c, d)
        return QSeries(f.min_exp, out, f.order)

    # -- restructuring -----------------------------------------------------

    def sift(self, p):
        """U_p operator: coefficient of q^n in the result is coeff(p*n)."""
        if p < 1:
            raise ValueError("p must be a positive integer")
        if p == 1:
            return self
        order = self.order if self.order is INF else self.order // p
        lo = -((-self.min_exp) // p)  # ceil(min_exp / p)
        return QSeries(lo, self.coeffs[lo * p - self.min_exp::p], order)

    def dissect(self, p):
        """Components f_0..f_{p-1} with f(q) = sum_i q^i * f_i(q^p);
        f_i = U_p(q^-i f) is certified through (order - i) // p."""
        if p < 1:
            raise ValueError("p must be a positive integer")
        return [self.shift(1, -i).sift(p) for i in range(p)]

    def inflate(self, p):
        """Substitute q -> q^p."""
        if p < 1:
            raise ValueError("p must be a positive integer")
        order = self.order if self.order is INF else p * self.order + p - 1
        out = [0] * ((len(self.coeffs) - 1) * p + 1 if self.coeffs else 0)
        out[::p] = self.coeffs
        return QSeries(p * self.min_exp, out, order, _trusted=True)

    def alternate(self):
        """Substitute q -> -q (negate coefficients at odd exponents)."""
        coeffs = [(-c if (self.min_exp + i) % 2 else c)
                  for i, c in enumerate(self.coeffs)]
        return QSeries(self.min_exp, coeffs, self.order, _trusted=True)

    # -- z handling ---------------------------------------------------------

    def eval_z(self, z0):
        """Specialize at an exact nonzero rational z0 (an int or a Fraction;
        TypeError otherwise); a scalar coefficient is its own value."""
        z0 = _point(z0)
        return QSeries(self.min_exp, [c.eval(z0) if type(c) is ZPoly else c
                                      for c in self.coeffs], self.order)

    def subs_z_one(self):
        """z -> 1: a ZPoly becomes the sum of its coefficients, a scalar itself."""
        return QSeries(self.min_exp, [c.at_one() if type(c) is ZPoly else c
                                      for c in self.coeffs], self.order)

    def dz_at_one(self):
        """d/dz at z = 1: sum c_k z^k becomes sum k*c_k, a scalar 0."""
        return QSeries(self.min_exp, [c.dz_at_one() if type(c) is ZPoly else 0
                                      for c in self.coeffs], self.order)

    # -- output -------------------------------------------------------------

    def to_json(self):
        """Each coefficient as a string, or, when any is a ZPoly, each as
        a {z-exponent: rational} dict: a scalar c is {"0": c}, zero {}."""
        coeffs = self.coeffs
        if any(type(c) is ZPoly for c in coeffs):
            coeffs = [c if type(c) is ZPoly else ZPoly.const(c) for c in coeffs]
            coeffs = [{str(k): str(v) for k, v in c.c.items()} for c in coeffs]
        else:
            coeffs = [str(c) for c in coeffs]
        return {
            "min_exp": self.min_exp if self.coeffs else 0,
            "order": self.order if self.order is not INF else "exact",
            "coeffs": coeffs,
        }

    def __str__(self):
        parts = []
        for e, c in self.nonzero_terms():
            if len(parts) >= 10:
                parts.append("...")
                break
            cs = str(c)
            if "+" in cs[1:] or "-" in cs[1:] or "*" in cs:
                cs = f"({cs})"
            if e == 0:
                parts.append(cs)
            else:
                qs = "q" if e == 1 else f"q^{e}" if e > 0 else f"q^({e})"
                parts.append(qs if cs == "1" else f"-{qs}" if cs == "-1" else f"{cs}*{qs}")
        body = " + ".join(parts).replace("+ -", "- ") if parts else "0"
        tail = "" if self.order is INF else f" + O(q^{self.order + 1})"
        return body + tail

    def __repr__(self):
        return f"<QSeries {self}>"


def _one_minus_form(c, d):
    """1/(1 - c*q^d) as a*q^s/(1 - c'*q^d'), returned as (a, s, c', d').

    d >= 1 is already of that form, with a = None for "no factor".
    d <= -1 rewrites 1/(1 - u) as -u^-1/(1 - u^-1), so d' = -d >= 1.
    d = 0 gives the constant a = 1/(1 - c) with d' = 0, and PoleError
    when 1 - c is not a unit (rings.invert).  c = 0 is the factor 1 for
    every d: no factor, with d' = 0.
    """
    if not c:
        return None, 0, c, 0
    if d > 0:
        return None, 0, c, d
    if d == 0:
        try:
            return invert(1 - c), 0, c, 0
        except NonUnitError:
            raise PoleError(f"1 - ({c}) is not a unit") from None
    c = invert(c)
    return -c, -d, c, -d


def geometric_sum(terms, n):
    """Sum of c*q^e/(1 - r*q^d) over (c, e, r, d) terms, certified through q^n.

    Each term is first read by _one_minus_form, in the order the terms
    come, so a pole raises PoleError whether or not its term reaches
    q^n.  A term that does is written into one dense list along its own
    stride: c*r^j at e + j*d for every such exponent up to n, so it costs
    (n - e)/d updates.  When any of those terms holds a ZPoly, in c or in
    a ratio r at d >= 1, the whole sum is taken by kernels._packed_sum
    instead.
    """
    landing, packed = [], False
    for c, e, r, d in terms:
        a, s, r, d = _one_minus_form(r, d)
        if e + s > n or not c:
            continue
        if a is not None:
            c, e = a * c, e + s
        landing.append((c, e, r, d))
        packed = packed or type(c) is ZPoly or (d > 0 and type(r) is ZPoly)
    lo = min([e for _, e, _, _ in landing], default=n + 1)
    if packed:
        return QSeries(lo, kernels._packed_sum(landing, lo, n), n)
    out = [0] * (n + 1 - lo)
    for c, e, r, d in landing:
        i = e - lo
        if d == 0:
            out[i] = out[i] + c
        elif r == 1:
            out[i::d] = [x + c for x in out[i::d]]
        else:
            for k in range(i, len(out), d):
                out[k] = out[k] + c
                c = r * c
    return QSeries(lo, out, n)


def lattice_range(a, b, c, lo=None, hi=None):
    """The integers k with a*k*k + b*k + c <= 0, clipped to [lo, hi].

    Every truncated theta, Appell-Lerch and Hecke-Rogers sum iterates
    such ranges.  The ends are exact in closed form: k lies between the
    roots iff u = 2ak + b has |u| <= sqrt(D), D = b^2 - 4ac, and for an
    integer u that holds iff |u| <= isqrt(D).  A linear form (a = 0)
    needs the side it falls towards clipped.  Any other form does not
    grow on [lo, hi], so the sum it indexes cannot be truncated, and
    NonConvergentError is raised.
    """
    if a == 0 and b and (lo if b > 0 else hi) is not None:
        kmin, kmax = (lo, (-c) // b) if b > 0 else (-(c // b), hi)
    elif a <= 0:
        raise NonConvergentError(f"{a}k^2 + {b}k + {c} does not grow on [{lo}, {hi}]")
    else:
        disc = b * b - 4 * a * c
        if disc < 0:
            return range(0)
        s = isqrt(disc)
        kmin, kmax = -((b + s) // (2 * a)), (s - b) // (2 * a)
    if lo is not None:
        kmin = max(kmin, lo)
    if hi is not None:
        kmax = min(kmax, hi)
    return range(kmin, kmax + 1)


def appell_range(a, b, c, d, e, n, lo=None):
    """The k >= lo whose term q^Q(k)/(1 - r*q^(dk+e)), with
    Q(k) = (a*k*k + b*k + c)/2, has lowest exponent at most n.

    That exponent is Q(k) + max(0, -(dk+e)), so it is at most n exactly
    when both Q(k) <= n and Q(k) - (dk+e) <= n.  Every Appell-type sum,
    Appell-Lerch sums and their jets included, runs over this range.
    """
    ks = lattice_range(a, b, c - 2 * n, lo)
    return lattice_range(a, b - 2 * d, c - 2 * e - 2 * n, ks.start, ks.stop - 1)


def geom_ratio(a, b):
    """(z^a - z^b) / (1 - z) as an exact Laurent polynomial.

    Equals sum_{i=a}^{b-1} z^i for a < b, the negated mirror for a > b,
    and 0 for a == b; its value at z = 1 is b - a.
    """
    if a == b:
        return ZPoly({})
    if a < b:
        return ZPoly({i: 1 for i in range(a, b)})
    return ZPoly({i: -1 for i in range(b, a)})


def pochhammer(x: Monomial, step, count, n):
    """Truncated q-Pochhammer (x; q^step)_count to order n.

    count may be an integer or None for the infinite product.  The
    coefficients are integers for z-free x and otherwise Laurent
    polynomials in z, but for the int 1 at q^0.
    """
    if step < 1:
        raise ValueError("step must be a positive integer")
    c = x.coef if x.zdeg == 0 else ZPoly.monomial(x.coef, x.zdeg)
    out = QSeries.one(n)
    if count is None:  # the factors 1 - x q^(k*step) with a term through q^n
        count = max(0, (n - x.qdeg) // step + 1)
    for k in range(count):
        out = out.mul_one_minus(c, x.qdeg + k * step)
    return out


def grown(cache, key, n, build):
    """cache[key] to order n, first rebuilt as build(max(n, 64), cached)
    when it is missing or certifies less than q^n; cached is the entry
    being replaced (None when there is none), which build may extend."""
    cached = cache.get(key)
    if cached is None or cached.order < n:
        cache[key] = cached = build(max(n, 64), cached)
    return cached.truncate(n)


_eta_cache = {}


def etaq(k, n):
    """(q^k; q^k)_infinity to order n, integral, by Euler's pentagonal theorem."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return grown(_eta_cache, k, n, lambda top, _: QSeries.from_terms(
        ((k * m * (3 * m - 1) // 2, -1 if m % 2 else 1)
         for m in lattice_range(3 * k, -k, -2 * top)), top))


_eta_inv_cache = {}


def _eta_inv_build(k, top, cached):
    """1/(q^k; q^k)_infinity to order top.  Only k = 1 runs Newton
    iteration, resumed from the cached inverse, whose trimmed window is
    padded back to its order; k > 1 inflates the k = 1 inverse."""
    if k > 1:
        return etaq_inv(1, top // k).inflate(k).truncate(top)
    if cached is None:
        return etaq(k, top).invert()
    known = cached.coeffs + [0] * (cached.order + 1 - len(cached.coeffs))
    h = kernels._inv_newton(etaq(k, top).coeffs, top + 1, known)
    return QSeries(0, h, top)


def etaq_inv(k, n):
    """1/(q^k; q^k)_infinity to order n."""
    return grown(_eta_inv_cache, k, n, lambda top, cached: _eta_inv_build(k, top, cached))


_eta_quotient_cache = {}


def eta_quotient(powers, n):
    """Product of J_k^e over (k, e) pairs, to order n, integral.

    powers maps k -> exponent e (negative e for denominators).  The
    quotient is 1 + O(q), so below q^0 it is zero.  With g the gcd of
    the levels, it is the quotient of the levels k/g built to n // g and
    inflated by g, which certifies g*(n // g) + g - 1 >= n.  A quotient
    of gcd 1 is cached per exponent vector as the product of the
    inflated J_1^e(q^k), each J_1^e itself the cached quotient {1: e}.
    """
    key = tuple(sorted((k, e) for k, e in powers.items() if e))
    if any(k < 1 for k, _ in key):
        raise ValueError("eta quotient levels must be positive integers")
    if n < 0:
        return QSeries.zero(n)
    g = gcd(*(k for k, _ in key))
    if g > 1:
        return eta_quotient({k // g: e for k, e in key}, n // g).inflate(g).truncate(n)
    return grown(_eta_quotient_cache, key, n, lambda top, _: _eta_product(key, top))


def _eta_product(key, n):
    if len(key) == 1:  # gcd 1, so J_1^e: binary powering at length n
        e = key[0][1]
        return (etaq(1, n) if e > 0 else etaq_inv(1, n)) ** abs(e)
    out = QSeries.one(n)
    for k, e in key:
        out = out * eta_quotient({1: e}, n // k).inflate(k)
    return out
