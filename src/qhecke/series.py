"""Truncated q-Laurent series over exact coefficient rings.

A QSeries stores dense coefficients for exponents min_exp..top together
with a certification order: every coefficient of q^e with e <= order is
known exactly (coefficients outside the stored window but below the
order are exactly zero).  order = INF marks a series known in full
(e.g. a Laurent polynomial).

Every operation propagates the tightest provable order, so negative
exponents and monomial shifts never silently lose validity.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from . import kernels
from .errors import NonUnitError, RingMismatchError
from .rings import QQ, QQI, ZPOLY, ZZ, GaussianRational, ZPoly, specialise

INF = float("inf")


@dataclass(frozen=True)
class SignedMonomial:
    """The term sign * z^zdeg * q^qdeg with sign in {+1, -1}."""

    sign: int
    zdeg: int
    qdeg: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    def qshift(self, d):
        return SignedMonomial(self.sign, self.zdeg, self.qdeg + d)


def monomial(sign=1, zdeg=0, qdeg=0):
    return SignedMonomial(sign, zdeg, qdeg)


class QSeries:
    __slots__ = ("ring", "min_exp", "coeffs", "order")

    def __init__(self, ring, min_exp, coeffs, order, _trusted=False):
        if not _trusted:
            # trim zeros at both ends; clip stored window to the order
            lo, hi = 0, len(coeffs)
            while lo < hi and ring.is_zero(coeffs[lo]):
                lo += 1
            while hi > lo and ring.is_zero(coeffs[hi - 1]):
                hi -= 1
            coeffs = list(coeffs[lo:hi])
            min_exp += lo
            if order is not INF and min_exp + len(coeffs) - 1 > order:
                keep = order - min_exp + 1
                coeffs = coeffs[: max(keep, 0)]
                while coeffs and ring.is_zero(coeffs[-1]):
                    coeffs.pop()
            if not coeffs:
                min_exp = 0
        self.ring = ring
        self.min_exp = min_exp
        self.coeffs = coeffs
        self.order = order

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, ring, order=INF):
        return cls(ring, 0, [], order, _trusted=True)

    @classmethod
    def one(cls, ring, order=INF):
        return cls(ring, 0, [ring.one], order, _trusted=True)

    @classmethod
    def monomial(cls, ring, c, d, order=INF):
        if ring.is_zero(c):
            return cls.zero(ring, order)
        return cls(ring, d, [c], order, _trusted=True)

    @classmethod
    def from_coeffs(cls, ring, min_exp, coeffs, order):
        return cls(ring, min_exp, list(coeffs), order)

    @classmethod
    def from_terms(cls, ring, terms, order):
        """Build from an iterable of (exponent, coefficient) pairs."""
        d = {}
        for e, c in terms:
            if e <= order:
                d[e] = d.get(e, ring.zero) + c
        if not d:
            return cls.zero(ring, order)
        lo, hi = min(d), max(d)
        coeffs = [d.get(e, ring.zero) for e in range(lo, hi + 1)]
        return cls(ring, lo, coeffs, order)

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

    def is_zero_through_order(self):
        return not self.coeffs

    def coeff(self, e):
        if self.order is not INF and e > self.order:
            raise ValueError(f"coefficient of q^{e} not certified (order {self.order})")
        if self.min_exp <= e <= self.top:
            return self.coeffs[e - self.min_exp]
        return self.ring.zero

    def __getitem__(self, e):
        return self.coeff(e)

    def nonzero_terms(self):
        for i, c in enumerate(self.coeffs):
            if not self.ring.is_zero(c):
                yield self.min_exp + i, c

    def valuation(self):
        """Exponent of the lowest nonzero certified term, or None if zero."""
        for e, _ in self.nonzero_terms():
            return e
        return None

    # -- ring/why helpers --------------------------------------------------

    def _check(self, other):
        if self.ring is not other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def over(self, ring):
        """Lift this series into a larger coefficient ring."""
        if ring is self.ring:
            return self
        coeffs = [ring.coerce(c, self.ring) for c in self.coeffs]
        return QSeries(ring, self.min_exp, coeffs, self.order)

    def truncate(self, n):
        if n >= self.order:
            return self
        return QSeries(self.ring, self.min_exp, self.coeffs, n)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        order = min(self.order, other.order)
        if not self.coeffs:
            return other.truncate(order)
        if not other.coeffs:
            return self.truncate(order)
        lo = min(self.min_exp, other.min_exp)
        hi = min(order, max(self.top, other.top))
        if hi < lo:
            return QSeries.zero(self.ring, order)
        out = [self.ring.zero] * (hi - lo + 1)
        for f in (self, other):
            # clip at hi; a bare negative bound would keep terms when
            # f.min_exp lies above hi
            cs = f.coeffs[:max(hi - f.min_exp + 1, 0)]
            s = f.min_exp - lo
            out[s:s + len(cs)] = map(add, out[s:s + len(cs)], cs)
        return QSeries(self.ring, lo, out, order)

    def __neg__(self):
        return QSeries(self.ring, self.min_exp, [-c for c in self.coeffs],
                       self.order, _trusted=True)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """Multiply by a scalar (ring element or int)."""
        if c == 0:
            return QSeries.zero(self.ring, self.order)
        return QSeries(self.ring, self.min_exp, [c * x for x in self.coeffs],
                       self.order)

    def shift(self, c, d):
        """Multiply by the exact monomial c * q^d."""
        order = self.order if self.order is INF else self.order + d
        scaled = self.scale(c)
        return scaled._with_min(scaled.min_exp + d, order)

    def _with_min(self, min_exp, order):
        return QSeries(self.ring, min_exp, self.coeffs, order, _trusted=True)

    def __mul__(self, other):
        self._check(other)
        fl = min(self.effective_min(),
                 self.order + 1 if self.order is not INF else INF)
        gl = min(other.effective_min(),
                 other.order + 1 if other.order is not INF else INF)
        order = min(self.order + gl if self.order is not INF else INF,
                    other.order + fl if other.order is not INF else INF)
        if not self.coeffs or not other.coeffs:
            return QSeries.zero(self.ring, order)
        base = self.min_exp + other.min_exp
        keep = len(self.coeffs) + len(other.coeffs) - 1
        if order is not INF:
            keep = min(keep, order - base + 1)
        if keep <= 0:
            return QSeries.zero(self.ring, order)
        out = kernels.conv_trunc(self.coeffs, other.coeffs, keep)
        return QSeries(self.ring, base, out, order)

    def __pow__(self, k):
        if k < 0:
            return self.invert() ** (-k)
        out = QSeries.one(self.ring)
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
        lead = self.coeff(v)
        inv_lead = self.ring.invert(lead)
        m = self.order - v  # normalized series known through q^m
        g = [self.ring.one]
        base = v - self.min_exp
        for i in range(1, m + 1):
            c = self.coeffs[base + i] if base + i < len(self.coeffs) else self.ring.zero
            g.append(inv_lead * c)
        out = kernels.inv_unit(g, m + 1, self.ring.one)
        out = [inv_lead * c if c else self.ring.zero for c in out]
        return QSeries(self.ring, -v, out, self.order - 2 * v)

    # -- linear-factor helpers (the builders' workhorses) -------------------

    def mul_one_minus(self, c, d):
        """Multiply by (1 - c*q^d) for any integer d."""
        if not self.coeffs:
            return self
        if d >= 1 and self.order is not INF:
            hi = min(self.order, self.top + d)
            pad = hi - self.top
            out = list(self.coeffs) + [self.ring.zero] * max(pad, 0)
            kernels.mul_linear(out, c, d)
            return QSeries(self.ring, self.min_exp, out, self.order)
        return self - self.shift(c, d)

    def div_one_minus(self, c, d):
        """Divide by (1 - c*q^d), d >= 1 (geometric expansion)."""
        if d < 1:
            raise ValueError("div_one_minus requires positive q-degree")
        if self.order is INF:
            raise NonUnitError("truncate before geometric division")
        if not self.coeffs:
            return self
        pad = self.order - self.top
        out = list(self.coeffs) + [self.ring.zero] * max(pad, 0)
        kernels.div_linear(out, c, d)
        return QSeries(self.ring, self.min_exp, out, self.order)

    # -- restructuring -----------------------------------------------------

    def sift(self, p):
        """U_p operator: coefficient of q^n in the result is coeff(p*n)."""
        if p == 1:
            return self
        order = self.order if self.order is INF else self.order // p
        lo = -((-self.min_exp) // p)  # ceil(min_exp / p)
        terms = []
        e = lo * p
        while e <= self.top:
            if self.min_exp <= e:
                terms.append((e // p, self.coeffs[e - self.min_exp]))
            e += p
        return QSeries.from_terms(self.ring, terms, order)

    def dissect(self, p):
        """Components f_0..f_{p-1} with f(q) = sum_i q^i * f_i(q^p)."""
        out = []
        for i in range(p):
            order = self.order if self.order is INF else (self.order - i) // p
            terms = []
            lo = -((i - self.min_exp) // p)  # smallest m with p*m+i >= min_exp
            e = lo * p + i
            while e <= self.top:
                terms.append(((e - i) // p, self.coeffs[e - self.min_exp]))
                e += p
            out.append(QSeries.from_terms(self.ring, terms, order))
        return out

    def inflate(self, p):
        """Substitute q -> q^p."""
        order = self.order if self.order is INF else p * self.order + p - 1
        terms = [(p * e, c) for e, c in self.nonzero_terms()]
        return QSeries.from_terms(self.ring, terms, order)

    def alternate(self):
        """Substitute q -> -q (negate coefficients at odd exponents)."""
        coeffs = [(-c if (self.min_exp + i) % 2 else c)
                  for i, c in enumerate(self.coeffs)]
        return QSeries(self.ring, self.min_exp, coeffs, self.order, _trusted=True)

    # -- z handling ---------------------------------------------------------

    def eval_z(self, z0):
        """Specialize a Zpoly-coefficient series at an exact nonzero z0."""
        if self.ring is not ZPOLY:
            raise RingMismatchError("eval_z requires Zpoly coefficients")
        ring = QQI if isinstance(z0, GaussianRational) else QQ
        return QSeries(ring, self.min_exp, specialise(self.coeffs, z0), self.order)

    def subs_z_one(self):
        if self.ring is not ZPOLY:
            raise RingMismatchError("subs_z_one requires Zpoly coefficients")
        return QSeries(QQ, self.min_exp, [c.at_one() for c in self.coeffs],
                       self.order)

    def zcoeff_series(self, k):
        """The q-series multiplying z^k (Zpoly coefficients only)."""
        if self.ring is not ZPOLY:
            raise RingMismatchError("zcoeff_series requires Zpoly coefficients")
        coeffs = [c.coeffs[k - c.lo] if 0 <= k - c.lo < len(c.coeffs) else 0
                  for c in self.coeffs]
        return QSeries(QQ, self.min_exp, coeffs, self.order)

    def zrange(self):
        lo, hi = 0, 0
        for _, c in self.nonzero_terms():
            lo, hi = min(lo, c.lo), max(hi, c.lo + len(c.coeffs) - 1)
        return lo, hi

    # -- comparison ---------------------------------------------------------

    def first_mismatch(self, other):
        """(certified_order, None) if equal through the certified order,
        else (certified_order, (exponent, self_coeff, other_coeff))."""
        self._check(other)
        order = min(self.order, other.order)
        lo = min(self.effective_min(), other.effective_min())
        if lo is INF:
            return order, None
        hi = min(order, max(self.top, other.top))
        e = lo
        while e <= hi:
            a, b = self.coeff(e), other.coeff(e)
            if a != b:
                return order, (e, a, b)
            e += 1
        return order, None

    def same(self, other, through=None):
        order, bad = self.first_mismatch(other)
        if through is not None and order < through:
            return False
        return bad is None

    # -- output -------------------------------------------------------------

    def to_json(self):
        return {
            "min_exp": self.min_exp if self.coeffs else 0,
            "order": self.order if self.order is not INF else "exact",
            "coeffs": [self.ring.to_json(c) for c in self.coeffs],
        }

    def __str__(self, max_terms=10):
        parts = []
        for e, c in self.nonzero_terms():
            if len(parts) >= max_terms:
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
        return f"<QSeries {self.ring} {self}>"


def series_arith(a, b, op, scalar=None):
    """Spec-shaped dispatcher over the basic series operations."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "neg":
        return -a
    if op == "scale":
        return a.scale(scalar)
    raise ValueError(f"unknown op {op!r}")


def series_invert(f):
    return f.invert()


def u_p(f, p):
    return f.sift(p)


def dissect(f, p):
    return f.dissect(p)


def eval_z(f, z0):
    return f.eval_z(z0)


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


def _mono_coeff(x: SignedMonomial, ring):
    if x.zdeg == 0:
        return ring.from_int(x.sign)
    if ring is not ZPOLY:
        raise RingMismatchError("z-bearing monomial needs Zpoly coefficients")
    return ZPoly.monomial(x.sign, x.zdeg)


def pochhammer(x: SignedMonomial, step, count, n, ring=None):
    """Truncated q-Pochhammer (x; q^step)_count to order n.

    count may be an integer or None for the infinite product.  The
    coefficient ring is ZZ for z-free x and Zpoly otherwise unless
    overridden.
    """
    if step < 1:
        raise ValueError("step must be a positive integer")
    if ring is None:
        ring = ZZ if x.zdeg == 0 else ZPOLY
    out = QSeries.one(ring, n)
    k = 0
    while True:
        if count is not None and k >= count:
            break
        d = x.qdeg + k * step
        if count is None and d > n:
            break
        c = _mono_coeff(x, ring)
        out = out.mul_one_minus(c, d)
        k += 1
    return out


_eta_cache = {}


def etaq(k, n):
    """(q^k; q^k)_infinity to order n, with integer coefficients."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    cached = _eta_cache.get(k)
    if cached is None or cached.order < n:
        top = max(n, 64)
        out = QSeries.one(ZZ, top)
        for m in range(1, top // k + 1):
            out = out.mul_one_minus(1, k * m)
        _eta_cache[k] = cached = out
    return cached.truncate(n)


_eta_inv_cache = {}


def etaq_inv(k, n):
    cached = _eta_inv_cache.get(k)
    if cached is None or cached.order < n:
        _eta_inv_cache[k] = cached = etaq(k, max(n, 64)).invert()
    return cached.truncate(n)


def eta_quotient(powers, n, ring=ZZ):
    """Product of J_k^e over (k, e) pairs, to order n.

    powers maps k -> exponent e (negative e for denominators).
    """
    out = QSeries.one(ZZ, n)
    for k, e in sorted(powers.items()):
        if e == 0:
            continue
        base = etaq(k, n) if e > 0 else etaq_inv(k, n)
        out = out * base ** abs(e)
    return out if ring is ZZ else out.over(ring)
