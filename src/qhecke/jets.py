"""First-order jets at z = 1.

A Jet1 carries (f(1,q), d/dz f(z,q)|_{z=1}) as a pair of rational
q-series: the image of a series in z under z -> 1 + eps, eps^2 = 0.
Every jet starts as the image of a series (Jet1.of, so theta functions
come from theta.jtheta), whose z-free coefficients have derivative 0,
and propagates through ring operations: products use the product rule,
quotients (u'v - uv')/v^2, and it shifts like a series, so a
theta.Deferred carries jets as well.  Appell-Lerch sums divide each term by
1 - c z^k q^d with two passes of the exact denominator rule
QSeries.div_one_minus, over the same index range (series.appell_range)
as every other Appell-type sum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import ZPoly
from .series import QSeries, appell_range, monomial
from .theta import _integral, jtheta


@dataclass(frozen=True)
class Jet1:
    f0: QSeries
    f1: QSeries

    @classmethod
    def of(cls, series):
        """Jet of a series: its value and z-derivative at 1."""
        return cls(series.subs_z_one(), series.dz_at_one())

    @classmethod
    def z_power(cls, k):
        """Jet of z^k: value 1, derivative k."""
        return cls.of(QSeries.monomial(ZPoly.monomial(1, k), 0))

    def __add__(self, other):
        return Jet1(self.f0 + other.f0, self.f1 + other.f1)

    def __sub__(self, other):
        return Jet1(self.f0 - other.f0, self.f1 - other.f1)

    def scale(self, c):
        return Jet1(self.f0.scale(c), self.f1.scale(c))

    def shift(self, c, d):
        return Jet1(self.f0.shift(c, d), self.f1.shift(c, d))

    def __mul__(self, other):
        return Jet1(self.f0 * other.f0,
                    self.f0 * other.f1 + self.f1 * other.f0)

    def invert(self):
        inv0 = self.f0.invert()
        return Jet1(inv0, -(self.f1 * inv0 * inv0))

    def __truediv__(self, other):
        return self * other.invert()

    def div_one_minus(self, c, k, d):
        """Divide by (1 - c * z^k * q^d) for any integer d.

        With g = f / (1 - c z^k q^d): g0 = f0 / (1 - c q^d) and, from
        g (1 - c z^k q^d) = f, g1 = (f1 + c k q^d g0) / (1 - c q^d).
        """
        g0 = self.f0.div_one_minus(c, d)
        f1 = self.f1 + g0.shift(c * k, d) if k else self.f1
        return Jet1(g0, f1.div_one_minus(c, d))


def jet_of_termsum(terms, n):
    """Jet of sum c * z^zdeg * q^qdeg over the given (c, zdeg, qdeg) terms.

    Terms with qdeg > n are ignored; the caller must supply every term
    at or below the order.
    """
    return Jet1.of(_integral(terms, n))


def jet_theta(sign, a, b, base, n, zshift=0):
    """Jet of z^zshift * j(sign * z^a q^b; q^base) to order n."""
    jet = Jet1.of(jtheta(monomial(sign, a, b), base, n))
    return Jet1.z_power(zshift) * jet if zshift else jet


def jet_appell(x, base, w, n):
    """Jet of the Appell-Lerch sum m(x(z), q^base, w(z)) at z = 1.

    x and w are triples (sign, zdeg, qdeg) describing sign * z^zdeg * q^qdeg;
    either may depend on z.  Term r is (-w)^r q^{base r(r-1)/2} over
    1 - x w q^{base(r-1)}, divided out by Jet1.div_one_minus.
    """
    w = monomial(*w)
    xw = monomial(*x) * w
    neg = -w.coef  # (-w)^r has sign neg^r
    total = Jet1.of(QSeries.zero(n))
    for r in appell_range(base, 2 * w.qdeg - base, 0, base, xw.qdeg - base, n):
        numer = Jet1.of(QSeries.monomial(ZPoly.monomial(neg ** (r % 2), w.zdeg * r),
                                         base * r * (r - 1) // 2 + w.qdeg * r, n))
        total = total + numer.div_one_minus(xw.coef, xw.zdeg, base * (r - 1) + xw.qdeg)
    return jet_theta(w.coef, w.zdeg, w.qdeg, base, n).invert() * total
