"""The identities in z certified with their denominators cleared.

``numz-f4-appell``, ``numz-f8-appell``, ``mrel-evenodd`` and the 14
Appell-Lerch relation cases ``mrel-<relation>-w1/w2`` state identities
with z in a denominator.  The registry certifies each one multiplied
through by a series whose q^0 coefficient is a nonzero Laurent
polynomial, so that both sides have Laurent-polynomial coefficients.
The printed statements are kept here as an oracle: the builders below
take rational points, evaluate m(x, q, z) by the rational Appell-Lerch
sum that the package once had (copied below as it was), and check each
printed identity at the points it was once certified at.  Each cleared
side, evaluated at the same z, must equal the multiplier times the
printed pieces.
"""

from dataclasses import dataclass
from fractions import Fraction

import pytest

from qhecke import mock
from qhecke.mock import AppellRhsSpec, appell_rhs
from qhecke.registry import cases_by_id
from qhecke.rings import ZPoly
from qhecke.series import QSeries, eta_quotient, lattice_range
from qhecke.verify import _compare

ORDER = 30


# -- the rational regime, as the package had it: arguments c*q^d, c rational --

@dataclass(frozen=True)
class Monomial:
    """coef * z^zdeg * q^qdeg with a nonzero int or Fraction coef: every
    theta, Appell-Lerch and f_{a,b,c} argument."""

    coef: int | Fraction
    zdeg: int = 0
    qdeg: int = 0

    def __post_init__(self):
        if self.coef == 0:
            raise ValueError("monomial coefficient must be nonzero")

    def __mul__(self, other):
        return Monomial(self.coef * other.coef, self.zdeg + other.zdeg, self.qdeg + other.qdeg)

    def inv(self):
        return Monomial(Fraction(1) / self.coef, -self.zdeg, -self.qdeg)

    def __pow__(self, k):
        # Fraction, as an int to a negative power is a float
        return Monomial(Fraction(self.coef) ** k, self.zdeg * k, self.qdeg * k)

    def neg(self):
        return Monomial(-self.coef, self.zdeg, self.qdeg)

    def qshift(self, d):
        return Monomial(self.coef, self.zdeg, self.qdeg + d)


def monomial(coef=1, zdeg=0, qdeg=0):
    return Monomial(coef, zdeg, qdeg)


def _z_free(*xs):
    """Raise ValueError unless every monomial is free of z."""
    if any(x.zdeg for x in xs):
        raise ValueError("z-bearing monomial where a scalar was expected")


def theta_sum_scaled(x: Monomial, base, n):
    """j(c*q^d; q^base) by the bilateral sum, rational coefficients, each
    integral one an int (which the kernels multiply as integers)."""
    _z_free(x)
    minus_c = -Fraction(x.coef)  # (-1)^m x^m = (-c)^m q^(dm)
    f = QSeries.from_terms(((base * m * (m - 1) // 2 + x.qdeg * m, minus_c ** m)
                            for m in lattice_range(base, 2 * x.qdeg - base, -2 * n)), n)
    return QSeries(f.min_exp, [c.numerator if c.denominator == 1 else c
                               for c in f.coeffs], f.order, _trusted=True)


def appell_m(x, base, z, n):
    """Appell-Lerch m(x, q^base, z) to order n, rational coefficients.

    x and z are z-free monomials c*q^d.  The bilateral sum of
    (-z)^r q^{base r(r-1)/2} over 1 - x z q^{base(r-1)} is one
    Appell-type sum, divided by j(z; q^base).
    """
    _z_free(x, z)
    xz = x * z
    minus_cz = -Fraction(z.coef)
    spec = AppellRhsSpec((base, 2 * z.qdeg - base, 0), lambda r: minus_cz ** r, xz.coef,
                         (base, xz.qdeg - base))
    return appell_rhs(spec, n) * theta_sum_scaled(z, base, n).invert()


def _m(x, z, n, base=1):
    return appell_m(x, base, z, n)


def _change_z_rhs(n, x, z, w):
    num = (eta_quotient({1: 3}, n) * theta_sum_scaled(z * w.inv(), 1, n)
           * theta_sum_scaled(x * w * z, 1, n))
    den = (theta_sum_scaled(w, 1, n) * theta_sum_scaled(z, 1, n)
           * theta_sum_scaled(x * w, 1, n) * theta_sum_scaled(x * z, 1, n))
    return (num * den.invert()).shift(w.coef, w.qdeg)


def _quartic_rhs(n, x, z):
    # middle z-argument reconstructed as z^4 (the printed q^4 makes
    # j(q^4;q^4) = 0); theta term exactly as displayed
    w = z ** 4
    t1 = appell_m(monomial(-x.coef * x.coef, 0, 2 * x.qdeg + 1), 4, w, n)
    t2 = appell_m(monomial(-x.coef * x.coef, 0, 2 * x.qdeg - 1), 4, w, n
                  ).shift(x.coef, x.qdeg - 1)
    num = (eta_quotient({2: 1, 4: 1}, n)
           * theta_sum_scaled((x * z * z).neg(), 1, n)
           * theta_sum_scaled((x * z * z * z).neg(), 1, n))
    den = (theta_sum_scaled(x * z, 1, n) * theta_sum_scaled(z ** 4, 4, n)
           * theta_sum_scaled((x * x * z ** 4).neg().qshift(1), 2, n))
    xi = x.inv()
    theta_term = (num * den.invert()).shift(xi.coef, xi.qdeg)
    return t1 - t2 - theta_term


# -- the F4/F8 bridges and the even/odd split at a rational z0 ---------------

CLEARED = ("numz-f4-appell", "numz-f8-appell", "mrel-evenodd")

WITNESSES = {
    "mrel-evenodd": (Fraction(2), Fraction(3), Fraction(1, 2)),
    "numz-f4-appell": (Fraction(2), Fraction(3), Fraction(-2), Fraction(1, 2),
                       Fraction(-1, 3)),
    "numz-f8-appell": (Fraction(2), Fraction(3), Fraction(-2), Fraction(1, 2),
                       Fraction(-1, 3)),
}


def _m_minus_z(n, z0):
    return appell_m(monomial(-z0), 1, monomial(-1), n)


def _theta_correction(n, z0):
    """j(q;q^2)^2 / (2 j(z0;q)), the theta term of the F8 and even/odd relations."""
    return (theta_sum_scaled(monomial(1, 0, 1), 2, n) ** 2
            * theta_sum_scaled(monomial(z0), 1, n).invert()).scale(Fraction(1, 2))


def _f8_appell_rhs(n, z0):
    return (_m_minus_z(n, z0) - _theta_correction(n, z0)).scale(Fraction(-z0, 1) / (1 - z0))


def _m_evenodd_rhs(n, z0):
    t1 = appell_m(monomial(-z0 * z0, 0, 1), 4, monomial(Fraction(1, z0 * z0), 0, 2), n)
    t2 = appell_m(monomial(-Fraction(1, z0 * z0), 0, 1), 4,
                  monomial(z0 * z0, 0, 2), n).scale(Fraction(1, z0))
    return t1 - t2 + _theta_correction(n, z0)


def printed(cid, n, z0):
    """(lhs, rhs) of the printed statement at z0."""
    if cid == "numz-f4-appell":
        return (mock.F4_series(n).eval_z(z0).scale(1 - Fraction(1) / z0),
                appell_m(monomial(-z0), 2, monomial(-1, 0, 1), n))
    if cid == "numz-f8-appell":
        return mock.F8_series(n).eval_z(z0), _f8_appell_rhs(n, z0)
    return _m_minus_z(n, z0), _m_evenodd_rhs(n, z0)


def cleared_from_printed(cid, n, z0):
    """(lhs, rhs) of the cleared identity at z0, from the printed pieces:
    with jz = j(z0;q), jm1 = j(-1;q), m = m(-z0,q,-1), the theta term
    tc and pole = 1/(1 - z0), the sum S' is jm1 m - pole."""
    j = theta_sum_scaled
    if cid == "numz-f4-appell":
        mult = j(monomial(-1, 0, 1), 2, n)
        lhs, rhs = printed(cid, n, z0)
        return mult * lhs, mult * rhs
    jz, jm1 = j(monomial(z0), 1, n), j(monomial(-1), 1, n)
    tc = _theta_correction(n, z0)
    pole = QSeries.monomial(Fraction(1) / (1 - z0), 0, n)
    s_prime = jm1 * _m_minus_z(n, z0) - pole
    theta_side = (jm1 * tc - pole).scale(2) * jz  # j(-1;q) j(q;q^2)^2 - 2J
    if cid == "numz-f8-appell":
        f8 = mock.F8_series(n).eval_z(z0)
        return (jz * ((jm1 * f8).scale(2 * (1 - z0)) + s_prime.scale(2 * z0)),
                theta_side.scale(z0))
    d = j(monomial(1 / (z0 * z0), 0, 2), 4, n)
    split = (_m_evenodd_rhs(n, z0) - tc) * d  # A_- - A_+/z
    return ((jz * (s_prime * d - jm1 * split)).scale(2), theta_side * d)


WITNESS_POINTS = [(cid, z0) for cid in CLEARED for z0 in WITNESSES[cid]]


@pytest.mark.parametrize("cid, z0", WITNESS_POINTS)
def test_printed_statement_holds_at_its_witnesses(cid, z0):
    lhs, rhs = printed(cid, ORDER, z0)
    assert _compare(lhs, rhs, ORDER) is None, (cid, z0)


@pytest.mark.parametrize("cid, z0", WITNESS_POINTS)
def test_cleared_sides_at_a_witness_are_the_printed_pieces(cid, z0):
    # each side on its own, so a wrong term is caught on the side it is in
    case = cases_by_id()[cid]
    want = cleared_from_printed(cid, ORDER, z0)
    for side, expected in zip((case.lhs, case.rhs), want):
        assert _compare(side.build(ORDER).eval_z(z0), expected, ORDER) is None, (cid, z0)


@pytest.mark.parametrize("cid", CLEARED)
def test_cleared_sides_hold_int_laurent_coefficients(cid):
    case = cases_by_id()[cid]
    for side in (case.lhs.build(ORDER), case.rhs.build(ORDER)):
        # every nonzero coefficient a ZPoly: a gap holds the scalar 0
        assert side.order == ORDER and all(type(c) is ZPoly for c in side.coeffs if c)
        assert all(type(v) is int for c in side.coeffs if c for v in c.coeffs)


# -- the Appell-Lerch relations ------------------------------------------------

# the points each relation was certified at: (x, z), or (x, z1, z0) for
# change-z, whose statement is m(x,q,z1) - m(x,q,z0) = ...
MREL_WITNESSES = {
    "zshift": ((monomial(1, 0, 3), monomial(2)), (monomial(-1, 0, 2), monomial(-3))),
    "xinverse": ((monomial(-1, 0, 1), monomial(2)),
                 (monomial(1, 0, 2), monomial(Fraction(3, 2)))),
    "change-z": ((monomial(1, 0, 3), monomial(-1), monomial(2)),
                 (monomial(-1, 0, 2), monomial(3), monomial(Fraction(1, 2)))),
    "quartic": ((monomial(-1, 0, 1), monomial(3)), (monomial(1, 0, 3), monomial(2))),
}
for _rel in ("xshift-up", "xshift-down", "reflect"):
    MREL_WITNESSES[_rel] = MREL_WITNESSES["zshift"]

# the cleared cases keep x (and z1) and make z (z0) formal; change-z at
# x = -q^2 has no z1 = +-q^e with j(z1;q) and j(x z1;q) both nonzero, so
# its second case is x = q^2, z1 = -q, evaluated here at the old z0
CLEARED_POINTS = {(rel, i): point for rel, points in MREL_WITNESSES.items()
                  for i, point in enumerate(points, 1)}
CLEARED_POINTS["change-z", 2] = (monomial(1, 0, 2), monomial(-1, 0, 1), monomial(Fraction(1, 2)))


def printed_mrel(rel, n, x, z, w=None):
    """(lhs, rhs) of the printed relation at a rational point."""
    if rel == "zshift":
        return _m(x, z, n), _m(x, z.qshift(1), n)
    if rel == "xinverse":
        xi = x.inv()
        return _m(x, z, n), _m(xi, z.inv(), n - xi.qdeg).shift(xi.coef, xi.qdeg)
    if rel == "xshift-up":
        return _m(x.qshift(1), z, n), QSeries.one(n) - _m(x, z, n).shift(x.coef, x.qdeg)
    if rel == "xshift-down":
        return _m(x, z, n), (QSeries.one(n)
                             - _m(x.qshift(-1), z, n).shift(x.coef, x.qdeg - 1))
    if rel == "reflect":
        xi = x.inv()
        return _m(x, z, n), (QSeries.monomial(xi.coef, xi.qdeg, n)
                             - _m(x.qshift(1), z, n - xi.qdeg).shift(xi.coef, xi.qdeg))
    if rel == "change-z":
        return _m(x, z, n) - _m(x, w, n), _change_z_rhs(n, x, z, w)
    return _m(x, z, n), _quartic_rhs(n, x, z)


def multiplier(rel, n, x, z, w=None):
    """The relation's multiplier at a rational point: its theta denominators
    times each pole factor 1 - c z^k of a numerator term at q^0."""
    def j(y, base=1):
        return theta_sum_scaled(y, base, n)

    if rel == "change-z":  # z is z1 = u, a monomial; w is the formal z0
        return (j(z) * j(w) * j(x * z) * j(x * w)).scale(
            (1 - x.coef * z.coef) * (1 - x.coef * w.coef))
    p = 1 - x.coef * z.coef
    if rel == "zshift":
        return (j(z) * j(z.qshift(1))).scale(p)
    if rel == "xinverse":
        return (j(z) * j(z.inv())).scale(p * (1 - Fraction(x.coef) / z.coef))
    if rel == "quartic":
        return (j(z) * j(z ** 4, 4) * j(x * z) * j((x * x * z ** 4).neg().qshift(1), 2)).scale(p)
    return j(z).scale(p)


@pytest.mark.parametrize("rel, point", [(rel, point) for rel, points in MREL_WITNESSES.items()
                                        for point in points])
def test_printed_relation_holds_at_its_witnesses(rel, point):
    lhs, rhs = printed_mrel(rel, ORDER, *point)
    assert _compare(lhs, rhs, ORDER) is None


@pytest.mark.parametrize("rel, i", sorted(CLEARED_POINTS))
def test_cleared_relation_sides_are_the_multiplier_times_the_printed_pieces(rel, i):
    # the printed pieces are built deeper, as some start below q^0
    case = cases_by_id()[f"mrel-{rel}-w{i}"]
    point = CLEARED_POINTS[rel, i]
    z0 = point[-1].coef
    mult, pieces = multiplier(rel, ORDER + 12, *point), printed_mrel(rel, ORDER + 12, *point)
    for side, piece in zip((case.lhs.build(ORDER), case.rhs.build(ORDER)), pieces):
        assert all(type(v) is int for c in side.coeffs
                   for v in (c.coeffs if type(c) is ZPoly else (c,)))
        assert _compare(side.eval_z(z0), mult * piece, ORDER) is None, (rel, i)
