"""Theta functions, Appell-Lerch sums and indefinite-theta building blocks.

j(x;q) follows the triple-product convention
    j(x;q) = (x, q/x, q; q)_inf = sum_{n} (-1)^n q^{n(n-1)/2} x^n,
m(x,q,z) the bilateral Appell-Lerch sum, and f_{a,b,c} / g_{a,b,c} the
indefinite-theta blocks they decompose into.  Every argument is one
series.Monomial +-z^k q^d (z-free for g_abc and theta_1_4).  j and
f_{a,b,c} have integral Laurent coefficients; appell_m divides by a
theta function, and appell_cleared multiplies it and the pole factor of
the numerator's term at q^0 out.

Every bilateral sum is truncated by an exact index range from
series.lattice_range: the indices whose lowest q-exponent is at most
the order, and no others.  jtheta is the one term sum of j.  An
Appell-Lerch sum is one mock.AppellRhsSpec run by mock.appell_rhs, over
series.appell_range, with each term over its own denominator summed by
series.geometric_sum; jets.py takes images of jtheta and appell_cleared.

Deferred is a series, or a jet, not yet built, with a lower bound on its
valuation.  Its steps are the one place the orders of operands are
chosen: g_abc, theta_1_4 and every registry side are Deferred
expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from .errors import PoleError
from .mock import AppellRhsSpec, appell_rhs
from .rings import ZPoly
from .series import Monomial, QSeries, eta_quotient, lattice_range, monomial


def _z_free(*xs):
    """Raise ValueError unless every monomial is free of z."""
    if any(x.zdeg for x in xs):
        raise ValueError("z-bearing monomial where a scalar was expected")


def theta_low(d, base):
    """Lowest exponent of j(+-z^k q^d; q^base): min over m of base*m(m-1)/2 + d*m.

    It is the valuation of j unless j vanishes (x = q^d with base | d).
    """
    m = (base - 2 * d) // (2 * base)  # floor of the real minimiser 1/2 - d/base
    return min(base * k * (k - 1) // 2 + d * k for k in (m, m + 1))


def jtheta(x: Monomial, base, n):
    """j(x; q^base) to order n by the bilateral sum, for x = +-z^k q^d.

    Coefficients are integers, and Laurent polynomials in z where a term
    carries a power of z.
    """
    if base < 1:
        raise ValueError("theta base must be >= 1")
    neg = -x.coef  # (-1)^m x^m has sign neg^m
    terms = ((neg ** (m % 2), x.zdeg * m, base * m * (m - 1) // 2 + x.qdeg * m)
             for m in lattice_range(base, 2 * x.qdeg - base, -2 * n))
    return _integral(terms, n)


theta_sum_scaled = jtheta  # the name perfbench/tracer.py wraps


def _coef(v, k):
    """v z^k as a coefficient, the int v when k = 0."""
    return ZPoly.monomial(v, k) if k else v


def _integral(terms, n):
    """The series of (coef, zdeg, qdeg) terms, a z-free coef kept an int."""
    return QSeries.from_terms(((e, _coef(v, k)) for v, k, e in terms), n)


def _numerator(x, base, w, pole=None, p=1):
    """p times sum_r (-w)^r q^{base r(r-1)/2} / (1 - x w q^{base(r-1)}), the
    term r = pole left out: j(w; q^base) m(x, q^base, w) as one Appell-type sum."""
    xw = x * w
    return AppellRhsSpec((base, 2 * w.qdeg - base, 0),
                         lambda r: 0 if r == pole else p * _coef((-w.coef) ** (r % 2), w.zdeg * r),
                         _coef(xw.coef, xw.zdeg), (base, xw.qdeg - base))


def appell_m(x, base, z, n):
    """Appell-Lerch m(x, q^base, z) to order n: its numerator divided by
    j(z; q^base), whose lowest coefficient must be a unit."""
    return appell_rhs(_numerator(x, base, z), n) * jtheta(z, base, n).invert()


def appell_cleared(x: Monomial, base, w: Monomial):
    """(p, N): N = p j(w; q^base) m(x, q^base, w), unbuilt and integral.

    p = 1 - c z^k when the numerator's term r0 is over 1 - c z^k at q^0,
    and N is p times the other terms plus that term's numerator; p = 0
    is a pole of m, PoleError.  With no such term p = 1.
    """
    xw = x * w
    r0, off = divmod(base - xw.qdeg, base)
    p = 1 if off else 1 - _coef(xw.coef, xw.zdeg)
    if not p:
        raise PoleError(f"m(x, q^{base}, w) has a pole: x w = q^{xw.qdeg}")
    head = QSeries.zero() if off else QSeries.monomial(
        _coef((-w.coef) ** (r0 % 2), w.zdeg * r0), base * r0 * (r0 - 1) // 2 + w.qdeg * r0)
    spec = _numerator(x, base, w, None if off else r0, p)
    # no term starts below its numerator, the theta term of the same r
    return p, Deferred(theta_low(w.qdeg, base), lambda n: appell_rhs(spec, n) + head)


def f_abc_terms(a, b, c, x: Monomial, y: Monomial, n):
    """Terms (coef, zdeg, qdeg) of f_{a,b,c}(x,y,q) with q-degree <= n.

    f_{a,b,c}(x,y,q) = sum_{sg(r)=sg(s)} sg(r) (-1)^{r+s} x^r y^s
                       q^{a r(r-1)/2 + b rs + c s(s-1)/2},
    for x = +-z^k q^d and y likewise.
    """
    if a <= 0 or c <= 0 or b < 0:
        raise ValueError("f_{a,b,c} needs a > 0, c > 0 and b >= 0")
    xq, yq = x.qdeg, y.qdeg
    neg_x, neg_y = -x.coef, -y.coef  # (-1)^r x^r has sign neg_x^r
    # b*r*s >= 0 on both quadrants, so row r holds a term only if
    # a*r(r-1)/2 + xq*r + min_s(c*s(s-1)/2 + yq*s) <= n (doubled below)
    out = []
    for r in lattice_range(a, 2 * xq - a, 2 * (theta_low(yq, c) - n)):
        row2 = a * r * (r - 1) + 2 * xq * r
        quadrant = (0, None) if r >= 0 else (None, -1)
        row_sign = (1 if r >= 0 else -1) * neg_x ** (r % 2)
        for s in lattice_range(c, 2 * (b * r + yq) - c, row2 - 2 * n, *quadrant):
            e = (row2 + c * s * (s - 1)) // 2 + b * r * s + yq * s
            out.append((row_sign * neg_y ** (s % 2), x.zdeg * r + y.zdeg * s, e))
    return out


def f_abc(a, b, c, x: Monomial, y: Monomial, n):
    """The indefinite-theta block f_{a,b,c}(x,y,q), exact to order n."""
    return _integral(f_abc_terms(a, b, c, x, y, n), n)


def _g_abc_deferred(a, b, c, x: Monomial, y: Monomial, z1, z0):
    """g_{a,b,c}(x,y,q,z1,z0), unbuilt: two t-sums of theta times
    Appell-Lerch terms, the second the first with (a, x, z0) and
    (c, y, z1) swapped.  An Appell-Lerch factor m(x, q^base, z) has low 0,
    as its numerator starts no lower than j(z; q^base) (see appell_cleared).
    """
    _z_free(x, y, z1, z0)
    mbase = a * (b * b - a * c)

    def t_sum(a, c, xm, ym, z):
        out = Deferred(0, QSeries.zero)
        for t in range(a):
            pref = (ym.neg() ** t).qshift(c * t * (t - 1) // 2)
            marg = ((ym.neg() ** a) * (xm.neg() ** (-b))).neg().qshift(
                a * b * (b + 1) // 2 - c * a * (a + 1) // 2 - t * (b * b - a * c))
            term = (Deferred.theta(xm.qshift(b * t), a)
                    * Deferred(0, partial(appell_m, marg, mbase, z)))
            out = out + term.shift(pref.coef, pref.qdeg)
        return out

    return t_sum(a, c, x, y, z0) + t_sum(c, a, y, x, z1)


def g_abc(a, b, c, x: Monomial, y: Monomial, z1, z0, n):
    """The indefinite-theta block g_{a,b,c}(x,y,q,z1,z0) to order n."""
    return _g_abc_deferred(a, b, c, x, y, z1, z0).build(n)


@dataclass(frozen=True)
class Deferred:
    """A series, or a jets.Jet1, not yet built: build(n) certifies it
    through q^n, and its valuation is at least low (exactly low where it
    is inverted).  A leaf is a builder with its low; every step below
    builds its operands once, to the orders the QSeries operation needs.

    This is the builder contract of every registry side, each a
    Deferred: asked for order n, a side certifies at least q^n, starts no
    lower than its low and builds only its own terms, with no padding.  A
    factor q^d or of valuation v < 0 means the other is built to n - d or
    n - v; U_p needs its operand to p*n, a p-dissection to p*n + p - 1,
    and q -> q^p only to n // p.  A positive valuation is not used to
    build less, but a factor is built through q^(low - 1) at least, so
    that its order shows that it has no term below low.
    """

    low: int
    fn: Callable

    def build(self, n):
        return self.fn(n)

    def _factor(self, n):
        return self.build(max(n, self.low - 1))

    def __mul__(self, other):
        a, b = min(self.low, 0), min(other.low, 0)
        return Deferred(self.low + other.low, lambda n: self._factor(n - b) * other._factor(n - a))

    def __truediv__(self, other):
        return self * other.invert()

    def __pow__(self, k):
        return Deferred(k * self.low, lambda n: self._factor(n - (k - 1) * min(self.low, 0)) ** k)

    def __add__(self, other):
        return Deferred(min(self.low, other.low), lambda n: self.build(n) + other.build(n))

    def __sub__(self, other):
        return self + other.shift(-1, 0)

    def shift(self, c, d):
        return Deferred(self.low + d, lambda n: self.build(n - d).shift(c, d))

    def invert(self):
        # 1/f is certified through f.order - 2v, and f must reach q^v
        v = self.low
        return Deferred(-v, lambda n: self.build(max(n + 2 * v, v)).invert())

    def map(self, f):
        """f of the build, for an f that keeps its order and lowers no
        valuation: alternate, scale, Jet1.of, the jet's f1."""
        return Deferred(self.low, lambda n: f(self.build(n)))

    def sift(self, p):
        """U_p: the coefficient of q^n is that of q^(p n)."""
        return Deferred(-(-self.low // p), lambda n: self.build(p * n).sift(p))

    def dissect(self, p):
        """The tuple (f_0, ..., f_{p-1}) with f = sum_i q^i f_i(q^p)."""
        return Deferred(self.low // p, lambda n: tuple(
            f.truncate(n) for f in self.build(p * n + p - 1).dissect(p)))

    def inflate(self, p):
        """q -> q^p."""
        return Deferred(p * self.low, lambda n: self.build(n // p).inflate(p))

    @classmethod
    def theta(cls, x: Monomial, base=1):
        """j(x; q^base)."""
        return cls(theta_low(x.qdeg, base), lambda n: jtheta(x, base, n))

    @classmethod
    def eta(cls, powers):
        """The eta quotient prod J_k^e over powers {k: e}."""
        return cls(0, lambda n: eta_quotient(powers, n))

    @classmethod
    def eta_sum(cls, terms):
        """sum c q^s prod J_delta^r over (c, s, {delta: r}) terms."""
        return sum((cls.eta(powers).shift(c, s) for c, s, powers in terms),
                   cls(0, QSeries.zero))


def _theta_1_4_deferred(xm: Monomial, ym: Monomial):
    """S1, S2 and the whole theta correction, unbuilt."""
    _z_free(xm, ym)
    j, J = Deferred.theta, Deferred.eta

    y_over_x = ym * xm.inv()
    xy = xm * ym
    x2y2 = xy * xy
    y2_over_x2 = y_over_x * y_over_x

    s1_pref = (j(x2y2.qshift(22), 24) * j(y_over_x.neg().qshift(12), 24)
               * j(xy.qshift(5), 12) * J({12: -3, 48: -1}))
    s1_inner = (j(x2y2.neg().qshift(10), 24) * j(y2_over_x2.qshift(12), 24) * J({24: 2})
                + (j(x2y2.neg().qshift(22), 24) * j(y_over_x.qshift(12), 24) ** 2
                   * j(y_over_x.neg(), 24) ** 2 * J({24: -1})
                   ).shift((xm * xm).coef, (xm * xm).qdeg + 5))
    s1 = s1_pref * s1_inner

    s2_pref = (j(x2y2.qshift(10), 24) * j(y_over_x.neg(), 24)
               * j(xy.qshift(11), 12) * J({12: -2}))
    s2_inner = ((j(x2y2.neg().qshift(10), 24) * j(y2_over_x2.qshift(12), 24)
                 * J({48: 1, 24: -1})).shift(ym.inv().coef, ym.inv().qdeg + 2)
                + (j(x2y2.neg().qshift(22), 24) * j(y2_over_x2.qshift(24), 48) ** 2
                   * J({48: -1})).shift(xm.coef, xm.qdeg + 1))
    s2 = s2_pref * s2_inner

    front = (j(y_over_x, 24)
             * (j(y_over_x, 24) * j((xm ** 4).neg().qshift(10), 24)
                * j((ym ** 4).neg().qshift(10), 24)).invert()
             ).shift(-xy.coef, xy.qdeg + 1)
    return s1, s2, front * (j(monomial(1, 0, 4), 16) * s1
                            - (j(monomial(1, 0, 8), 16) * s2).shift(1, 1))


def theta_1_4(x: Monomial, y: Monomial, n):
    """The printed theta correction for f_{1,5,1}, transcribed verbatim.

    The leading j(y/x;q^24) appears both in the numerator and in the
    denominator exactly as displayed; see the registry notes on the
    expected-fail status of the identity using it.
    """
    return _theta_1_4_deferred(x, y)[2].build(n)
