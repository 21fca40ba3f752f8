"""First-order jets at z = 1.

A Jet1 carries (f(1,q), d/dz f(z,q)|_{z=1}) as a pair of rational
q-series and propagates both through ring operations: products use the
product rule, quotients (u'v - uv')/v^2.  This is the carrier for every
derivative-of-theta identity in the registry: theta functions and
Appell-Lerch sums enter as term sums differentiated termwise, over the
same exact index ranges (theta_terms, appell_range) as the scalar
evaluators in theta.py.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PoleError
from .rings import QQ
from .series import INF, QSeries
from .theta import appell_range, theta_terms


@dataclass(frozen=True)
class Jet1:
    f0: QSeries
    f1: QSeries

    @classmethod
    def constant(cls, series):
        """Jet of a z-independent series."""
        return cls(series, QSeries.zero(QQ, series.order))

    @classmethod
    def of_int(cls, n):
        return cls(QSeries.monomial(QQ, n, 0) if n else QSeries.zero(QQ),
                   QSeries.zero(QQ))

    @classmethod
    def z_power(cls, k):
        """Jet of z^k: value 1, derivative k."""
        return cls(QSeries.one(QQ), QSeries.monomial(QQ, k, 0) if k else QSeries.zero(QQ))

    @classmethod
    def of_monomial(cls, c, zdeg, qdeg, order=INF):
        """Jet of c * z^zdeg * q^qdeg."""
        f0 = QSeries.monomial(QQ, c, qdeg, order)
        f1 = QSeries.monomial(QQ, c * zdeg, qdeg, order) if zdeg else QSeries.zero(QQ, order)
        return cls(f0, f1)

    def __add__(self, other):
        return Jet1(self.f0 + other.f0, self.f1 + other.f1)

    def __sub__(self, other):
        return Jet1(self.f0 - other.f0, self.f1 - other.f1)

    def __neg__(self):
        return Jet1(-self.f0, -self.f1)

    def scale(self, c):
        return Jet1(self.f0.scale(c), self.f1.scale(c))

    def __mul__(self, other):
        return Jet1(self.f0 * other.f0,
                    self.f0 * other.f1 + self.f1 * other.f0)

    def invert(self):
        inv0 = self.f0.invert()
        return Jet1(inv0, -(self.f1 * inv0 * inv0))

    def __truediv__(self, other):
        return self * other.invert()

    def truncate(self, n):
        return Jet1(self.f0.truncate(n), self.f1.truncate(n))

    @property
    def order(self):
        return min(self.f0.order, self.f1.order)


def jet_of_termsum(terms, n):
    """Jet of sum c * z^zdeg * q^qdeg over the given (c, zdeg, qdeg) terms.

    Terms with qdeg > n are ignored; the caller must supply every term
    at or below the order.
    """
    t0, t1 = {}, {}
    for c, zdeg, qdeg in terms:
        if qdeg > n:
            continue
        t0[qdeg] = t0.get(qdeg, 0) + c
        if zdeg:
            t1[qdeg] = t1.get(qdeg, 0) + c * zdeg
    return Jet1(QSeries.from_terms(QQ, t0.items(), n),
                QSeries.from_terms(QQ, t1.items(), n))


def jet_theta(sign, a, b, base, n, zshift=0, scalar=1):
    """Jet of scalar * z^zshift * j(sign * z^a q^b; q^base) to order n."""
    return jet_of_termsum(theta_terms(sign, a, b, base, n, zshift, scalar), n)


def jet_appell(x, base, w, n):
    """Jet of the Appell-Lerch sum m(x(z), q^base, w(z)) at z = 1.

    x and w are triples (sign, zdeg, qdeg) describing sign * z^zdeg * q^qdeg;
    either may depend on z.  Denominators 1 - q^{base(r-1)} x w expand
    geometrically after rewriting negative q-degrees, exactly as in the
    scalar evaluator.
    """
    sx, ax, bx = x
    sw, aw, bw = w
    theta = jet_theta(sw, aw, bw, base, n)
    pref = theta.invert()

    total = None
    s = sx * sw
    alpha = ax + aw

    def term(r):
        # numerator (-1)^r q^{base r(r-1)/2} w^r; (-1)^r sw^r == (-sw)^r
        c = 1 if (-sw == 1 or r % 2 == 0) else -1
        numer = Jet1.of_monomial(c, aw * r, base * r * (r - 1) // 2 + bw * r, n)
        delta = base * (r - 1) + bx + bw
        if delta > 0:
            denom = Jet1.of_monomial(1, 0, 0, n) - Jet1.of_monomial(s, alpha, delta, n)
            return numer * denom.invert()
        if delta == 0:
            if s == 1:
                raise PoleError("Appell-Lerch denominator vanishes at z=1")
            denom = Jet1.of_monomial(1, 0, 0, n) + Jet1.of_monomial(1, alpha, 0, n)
            return numer * denom.invert()
        # 1/(1-u) = -u^{-1} / (1 - u^{-1}) for u of negative q-degree
        uinv = Jet1.of_monomial(s, -alpha, -delta, n)
        denom = Jet1.of_monomial(1, 0, 0, n) - uinv
        return numer.scale(-1) * uinv * denom.invert()

    for r in appell_range(base, bw, bx + bw, n):
        t = term(r)
        total = t if total is None else total + t
    if total is None:
        total = Jet1(QSeries.zero(QQ, n), QSeries.zero(QQ, n))
    return pref * total
