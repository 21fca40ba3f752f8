"""First-order jets at z = 1.

A Jet1 carries (f(1,q), d/dz f(z,q)|_{z=1}) as a pair of rational
q-series: the image (Jet1.of) of a series in z under z -> 1 + eps,
eps^2 = 0.  Every jet starts as the image of a series the package
builds: a theta function from theta.jtheta, an Appell-Lerch sum from
theta.appell_cleared.  Jets propagate through sums, products (the
product rule) and inverses ((1/v)' = -v'/v^2), and shift like a
series, so a theta.Deferred carries jets as well.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PoleError
from .rings import ZPoly
from .series import Monomial, QSeries, monomial
from .theta import Deferred, _coef, _integral, appell_cleared, jtheta


@dataclass(frozen=True)
class Jet1:
    f0: QSeries
    f1: QSeries

    @classmethod
    def of(cls, series):
        """Jet of a series: its value and z-derivative at 1."""
        return cls(series.subs_z_one(), series.dz_at_one())

    def __add__(self, other):
        return Jet1(self.f0 + other.f0, self.f1 + other.f1)

    def shift(self, c, d):
        return Jet1(self.f0.shift(c, d), self.f1.shift(c, d))

    def __mul__(self, other):
        return Jet1(self.f0 * other.f0,
                    self.f0 * other.f1 + self.f1 * other.f0)

    def invert(self):
        inv0 = self.f0.invert()
        return Jet1(inv0, -(self.f1 * inv0 * inv0))


def jet_of_termsum(terms, n):
    """Jet of sum c * z^zdeg * q^qdeg over the given (c, zdeg, qdeg) terms.

    Terms with qdeg > n are ignored; the caller must supply every term
    at or below the order.
    """
    return Jet1.of(_integral(terms, n))


def jet_theta(sign, a, b, base, n, zshift=0):
    """Jet of z^zshift * j(sign * z^a q^b; q^base) to order n."""
    return Jet1.of(jtheta(monomial(sign, a, b), base, n).scale(_coef(1, zshift)))


def jet_appell(x: Monomial, base, w: Monomial, n):
    """Jet of the Appell-Lerch sum m(x, q^base, w) to order n: that of
    theta.appell_cleared's numerator over that of p j(w; q^base), and
    PoleError if p vanishes at z = 1."""
    p, numer = appell_cleared(x, base, w)
    if type(p) is ZPoly and not p.at_one():
        raise PoleError(f"m(x, q^{base}, w) has a pole at z = 1")
    den = Deferred.theta(w, base).map(lambda f: Jet1.of(f.scale(p)))
    return (numer.map(Jet1.of) / den).build(n)
