"""The three identities in z certified with their denominators cleared.

``numz-f4-appell``, ``numz-f8-appell`` and ``mrel-evenodd`` state
identities with z in a denominator.  The registry certifies each one
multiplied through by a series whose q^0 coefficient is a nonzero
Laurent polynomial, so that both sides have Laurent-polynomial
coefficients.  The printed statements are kept here as an oracle: the
builders below take a rational witness z0, evaluate m(x, q, z) by
``theta.appell_m`` (which divides by the theta function) and check
each printed identity at the points it was once certified at.  Each
cleared side, evaluated at the same points, must equal the multiplier
times the printed pieces.
"""

from fractions import Fraction

import pytest

from qhecke import mock
from qhecke.registry import get_case
from qhecke.rings import ZPoly
from qhecke.series import QSeries, monomial
from qhecke.theta import appell_m, theta_sum_scaled

CLEARED = ("numz-f4-appell", "numz-f8-appell", "mrel-evenodd")

WITNESSES = {
    "mrel-evenodd": (Fraction(2), Fraction(3), Fraction(1, 2)),
    "numz-f4-appell": (Fraction(2), Fraction(3), Fraction(-2), Fraction(1, 2),
                       Fraction(-1, 3)),
    "numz-f8-appell": (Fraction(2), Fraction(3), Fraction(-2), Fraction(1, 2),
                       Fraction(-1, 3)),
}

ORDER = 30


# -- the printed statements at a rational z0, as the numeric builders were --

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
    assert lhs.order >= ORDER and rhs.order >= ORDER
    assert lhs.truncate(ORDER).same(rhs.truncate(ORDER)), (cid, z0)


@pytest.mark.parametrize("cid, z0", WITNESS_POINTS)
def test_cleared_sides_at_a_witness_are_the_printed_pieces(cid, z0):
    # each side on its own, so a wrong term is caught on the side it is in
    case = get_case(cid)
    want = cleared_from_printed(cid, ORDER, z0)
    for build, expected in zip((case.build_lhs, case.build_rhs), want):
        got = build(ORDER).eval_z(z0)
        assert got.order >= ORDER
        assert got.truncate(ORDER).same(expected.truncate(ORDER)), (cid, z0)


@pytest.mark.parametrize("cid", CLEARED)
def test_cleared_sides_hold_int_laurent_coefficients(cid):
    case = get_case(cid)
    for build in (case.build_lhs, case.build_rhs):
        side = build(ORDER)
        # every nonzero coefficient a ZPoly: a gap holds the scalar 0
        assert side.order == ORDER and all(type(c) is ZPoly for c in side.coeffs if c)
        assert all(type(v) is int for c in side.coeffs if c for v in c.coeffs)
