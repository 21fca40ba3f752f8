"""Theta functions, Appell-Lerch sums and indefinite-theta building blocks.

j(x;q) follows the triple-product convention
    j(x;q) = (x, q/x, q; q)_inf = sum_{n} (-1)^n q^{n(n-1)/2} x^n,
m(x,q,z) the bilateral Appell-Lerch sum, and f_{a,b,c} / g_{a,b,c} the
indefinite-theta blocks they decompose into.  Exact arguments are
scaled q-monomials c*q^d (c a nonzero rational), which covers every
witness instance in the registry; z-free scalars are the degenerate
case d = 0.

Every bilateral sum is truncated by an exact index range from
series.lattice_range: the indices whose lowest q-exponent is at most
the order, and no others.  jtheta is the one term sum of j with a
z-bearing argument (jets.py takes its image at z = 1).  An Appell-Lerch
sum is one mock.AppellRhsSpec run by mock.appell_rhs, over
series.appell_range, with each term over its own denominator summed by
series.geometric_sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .mock import AppellRhsSpec, appell_rhs
from .rings import QQ, ZPOLY, ZZ, ZPoly
from .series import INF, QSeries, SignedMonomial, eta_quotient, lattice_range


@dataclass(frozen=True)
class QMono:
    """A scaled q-monomial coef * q^qdeg with nonzero rational coef."""

    coef: Fraction
    qdeg: int

    def __post_init__(self):
        if self.coef == 0:
            raise ValueError("monomial coefficient must be nonzero")

    @classmethod
    def of(cls, value):
        if isinstance(value, QMono):
            return value
        if isinstance(value, SignedMonomial):
            if value.zdeg != 0:
                raise ValueError("z-bearing monomial where a scalar was expected")
            return cls(value.sign, value.qdeg)
        return cls(Fraction(value), 0)

    def __mul__(self, other):
        other = QMono.of(other)
        return QMono(self.coef * other.coef, self.qdeg + other.qdeg)

    def inv(self):
        return QMono(Fraction(1) / self.coef, -self.qdeg)

    def __pow__(self, k):
        c = Fraction(self.coef) ** k
        return QMono(c, self.qdeg * k)

    def neg(self):
        return QMono(-self.coef, self.qdeg)

    def qshift(self, d):
        return QMono(self.coef, self.qdeg + d)

    def as_series(self, n=INF):
        return QSeries.monomial(QQ, self.coef, self.qdeg, n)


@dataclass(frozen=True)
class ThetaArg:
    monomial: SignedMonomial
    base: int

    def __post_init__(self):
        if self.base < 1:
            raise ValueError("theta base must be >= 1")


def theta_sum_scaled(x: QMono, base, n):
    """j(c*q^d; q^base) by the bilateral sum, rational coefficients."""
    c = Fraction(x.coef)
    return QSeries.from_terms(
        QQ, ((base * m * (m - 1) // 2 + x.qdeg * m, c ** m if m % 2 == 0 else -(c ** m))
             for m in lattice_range(base, 2 * x.qdeg - base, -2 * n)), n)


def theta_low(d, base):
    """Lowest exponent of j(c*q^d; q^base): min over m of base*m(m-1)/2 + d*m.

    It is the valuation of j unless j vanishes (c = 1 and base | d).
    """
    m = (base - 2 * d) // (2 * base)  # floor of the real minimiser 1/2 - d/base
    return min(base * k * (k - 1) // 2 + d * k for k in (m, m + 1))


def jtheta(arg: ThetaArg, n):
    """j(x; q^base) to order n by the bilateral sum.

    Coefficients are integers for z-free x and Laurent polynomials in z
    otherwise.
    """
    x, base = arg.monomial, arg.base
    neg = -x.sign  # (-1)^m sign^m == neg^m, and neg^m depends only on parity
    terms = ((base * m * (m - 1) // 2 + x.qdeg * m, 1 if neg == 1 or m % 2 == 0 else -1,
              x.zdeg * m) for m in lattice_range(base, 2 * x.qdeg - base, -2 * n))
    if x.zdeg == 0:
        return QSeries.from_terms(ZZ, ((e, c) for e, c, _ in terms), n)
    return QSeries.from_terms(ZPOLY, ((e, ZPoly.monomial(c, k)) for e, c, k in terms), n)


def appell_m(x, base, z, n):
    """Appell-Lerch m(x, q^base, z) to order n, rational coefficients.

    x and z are scaled q-monomials (rationals allowed for z, including
    plain numbers).  The bilateral sum of (-z)^r q^{base r(r-1)/2} over
    1 - x z q^{base(r-1)} is one Appell-type sum, divided by j(z; q^base).
    """
    x = QMono.of(x)
    z = QMono.of(z)
    xz = x * z
    minus_cz = -Fraction(z.coef)
    spec = AppellRhsSpec((base, 2 * z.qdeg - base, 0), lambda r: minus_cz ** r, xz.coef,
                         (base, xz.qdeg - base), ring=QQ)
    return appell_rhs(spec, n) * theta_sum_scaled(z, base, n).invert()


def f_abc_terms(a, b, c, x: SignedMonomial, y: SignedMonomial, n):
    """Terms (coef, zdeg, qdeg) of f_{a,b,c}(x,y,q) with q-degree <= n.

    f_{a,b,c}(x,y,q) = sum_{sg(r)=sg(s)} sg(r) (-1)^{r+s} x^r y^s
                       q^{a r(r-1)/2 + b rs + c s(s-1)/2}.
    """
    if a <= 0 or c <= 0 or b < 0:
        raise ValueError("f_{a,b,c} needs a > 0, c > 0 and b >= 0")
    xq, yq = x.qdeg, y.qdeg

    def coef(r, s):
        sg = 1 if r >= 0 else -1
        neg = (r + s) % 2
        sgn_x = 1 if (x.sign == 1 or r % 2 == 0) else -1
        sgn_y = 1 if (y.sign == 1 or s % 2 == 0) else -1
        v = sg * sgn_x * sgn_y
        return -v if neg else v

    # b*r*s >= 0 on both quadrants, so row r holds a term only if
    # a*r(r-1)/2 + xq*r + min_s(c*s(s-1)/2 + yq*s) <= n (doubled below)
    out = []
    for r in lattice_range(a, 2 * xq - a, 2 * (theta_low(yq, c) - n)):
        row2 = a * r * (r - 1) + 2 * xq * r
        quadrant = (0, None) if r >= 0 else (None, -1)
        for s in lattice_range(c, 2 * (b * r + yq) - c, row2 - 2 * n, *quadrant):
            e = (row2 + c * s * (s - 1)) // 2 + b * r * s + yq * s
            out.append((coef(r, s), x.zdeg * r + y.zdeg * s, e))
    return out


def f_abc(a, b, c, x: SignedMonomial, y: SignedMonomial, n):
    """The indefinite-theta block f_{a,b,c}(x,y,q), exact to order n."""
    terms = f_abc_terms(a, b, c, x, y, n)
    if x.zdeg == 0 and y.zdeg == 0:
        return QSeries.from_terms(ZZ, ((e, v) for v, _, e in terms), n)
    return QSeries.from_terms(
        ZPOLY, ((e, ZPoly.monomial(v, zd)) for v, zd, e in terms), n)


def g_abc(a, b, c, x: SignedMonomial, y: SignedMonomial, z1, z0, n):
    """g_{a,b,c}(x,y,q,z1,z0): two t-sums of theta times Appell-Lerch terms.

    The second t-sum is the first with (a, x, z0) and (c, y, z1) swapped.
    Each factor of a term is built to n minus the other's valuation when
    that is negative: theta_low gives the theta's, the built series the
    Appell-Lerch sum's.
    """
    mbase = a * (b * b - a * c)

    def t_sum(a, c, xm, ym, z):
        out = QSeries.zero(QQ, n)
        for t in range(a):
            pref = (ym.neg() ** t).qshift(c * t * (t - 1) // 2)
            jarg = QMono(xm.coef, xm.qdeg + b * t)
            marg = ((ym.neg() ** a) * (xm.neg() ** (-b))).neg().qshift(
                a * b * (b + 1) // 2 - c * a * (a + 1) // 2 - t * (b * b - a * c))
            m = n - min(pref.qdeg, 0)
            mser = appell_m(marg, mbase, z, m - min(theta_low(jarg.qdeg, a), 0))
            jfac = theta_sum_scaled(jarg, a, m - min(mser.valuation() or 0, 0))
            out = out + (jfac * mser).shift(pref.coef, pref.qdeg)
        return out

    xm, ym = QMono.of(x), QMono.of(y)
    return t_sum(a, c, xm, ym, QMono.of(z0)) + t_sum(c, a, ym, xm, QMono.of(z1))


@dataclass(frozen=True)
class _Deferred:
    """A series not yet built: build(n) certifies it through q^n, and its
    valuation is at least low (exactly low where it is inverted).

    Operands are built to the orders QSeries.__mul__, .shift and .invert
    need: a factor q^d or of valuation v < 0 means the other is built to
    n - d or n - v.  A positive valuation is not used to build less, as a
    factor built below it is zero and __mul__ cannot see where it starts.
    """

    low: int
    build: Callable

    def __mul__(self, other):
        a, b = min(self.low, 0), min(other.low, 0)
        return _Deferred(self.low + other.low, lambda n: self.build(n - b) * other.build(n - a))

    def __pow__(self, k):
        return _Deferred(k * self.low, lambda n: self.build(n - (k - 1) * min(self.low, 0)) ** k)

    def __add__(self, other):
        return _Deferred(min(self.low, other.low), lambda n: self.build(n) + other.build(n))

    def __sub__(self, other):
        return self + other.shift(-1, 0)

    def shift(self, c, d):
        return _Deferred(self.low + d, lambda n: self.build(n - d).shift(c, d))

    def invert(self):
        # 1/f is certified through f.order - 2v, and f must reach q^v
        v = self.low
        return _Deferred(-v, lambda n: self.build(max(n + 2 * v, v)).invert())


def _theta_1_4_deferred(x: SignedMonomial, y: SignedMonomial):
    """S1, S2 and the whole theta correction, unbuilt."""
    xm, ym = QMono.of(x), QMono.of(y)

    def j(mono, base):
        return _Deferred(theta_low(mono.qdeg, base), lambda n: theta_sum_scaled(mono, base, n))

    def J(powers):
        return _Deferred(0, lambda n: eta_quotient(powers, n, QQ))

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
    return s1, s2, front * (j(QMono(1, 4), 16) * s1 - (j(QMono(1, 8), 16) * s2).shift(1, 1))


def theta_1_4_parts(x: SignedMonomial, y: SignedMonomial, n):
    """The two inner sums S1, S2 of the theta correction, as displayed."""
    s1, s2, _ = _theta_1_4_deferred(x, y)
    return s1.build(n), s2.build(n)


def theta_1_4(x: SignedMonomial, y: SignedMonomial, n):
    """The printed theta correction for f_{1,5,1}, transcribed verbatim.

    The leading j(y/x;q^24) appears both in the numerator and in the
    denominator exactly as displayed; see the registry notes on the
    expected-fail status of the identity using it.
    """
    return _theta_1_4_deferred(x, y)[2].build(n)
