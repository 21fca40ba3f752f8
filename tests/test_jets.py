"""First-order jet arithmetic at z = 1."""

import random
from fractions import Fraction

import pytest

from qhecke.errors import NonUnitError
from qhecke.jets import Jet1, jet_of_termsum, jet_theta
from qhecke.rings import ZPoly
from qhecke.series import QSeries, monomial
from qhecke.theta import jtheta
from qhecke.verify import _compare


def test_constant_jet_has_zero_derivative():
    c = Jet1.of(QSeries(0, [3, 1], 10))
    assert not c.f1.coeffs
    u = jet_of_termsum([(1, 2, 0), (1, -1, 1)], 10)
    scaled = u.scale(5)
    assert _compare(scaled.f1, u.f1.scale(5), 10) is None


def test_z_squared_derivative():
    z = Jet1.z_power(1)
    z2 = z * z
    assert z2.f0.coeff(0) == 1
    assert z2.f1.coeff(0) == 2


def test_product_rule_against_expanded_termsum():
    rng = random.Random(42)
    for _ in range(6):
        factors = []
        for _ in range(rng.randint(2, 3)):
            sign = rng.choice((1, -1))
            a = rng.randint(1, 4)
            b = rng.randint(0, 2)
            base = rng.choice((1, 2, 3))
            factors.append((sign, a, b, base))
        jet = None
        for sign, a, b, base in factors:
            f = jet_theta(sign, a, b, base, 25)
            jet = f if jet is None else jet * f
        # expand the product of theta term sums explicitly
        terms = [(1, 0, 0)]
        for sign, a, b, base in factors:
            new = []
            theta = jtheta(monomial(sign, a, b), base, 25)
            # the z^0 term of j is the scalar 1
            theta_terms = [(c1, z1, q1) for q1, p in theta.nonzero_terms()
                           for z1, c1 in (p.c if type(p) is ZPoly else {0: p}).items()]
            for c0, z0, q0 in terms:
                for c1, z1, q1 in theta_terms:
                    if q0 + q1 <= 25:
                        new.append((c0 * c1, z0 + z1, q0 + q1))
            terms = new
        expanded = jet_of_termsum(terms, 25)
        for lhs, rhs in ((jet.f0, expanded.f0), (jet.f1, expanded.f1)):
            assert _compare(lhs, rhs, min(lhs.order, 25)) is None


def test_quotient_rule():
    u = jet_of_termsum([(1, 1, 0), (2, 0, 1)], 20)  # z + 2q
    v = jet_of_termsum([(1, 0, 0), (1, 2, 1)], 20)  # 1 + z^2 q
    w = (u / v) * v
    for lhs, rhs in ((w.f0, u.f0), (w.f1, u.f1)):
        assert _compare(lhs, rhs, 20) is None


def test_division_requires_invertible_value_part():
    v = jet_of_termsum([(1, 1, 0), (-1, 0, 0)], 10)  # z - 1: vanishes at z=1
    with pytest.raises(NonUnitError):
        v.invert()


def test_termsum_edge_cases():
    empty = jet_of_termsum([], 10)
    assert not empty.f0.coeffs and not empty.f1.coeffs
    single = jet_of_termsum([(1, 3, 5)], 10)
    assert single.f0.coeff(5) == 1 and single.f1.coeff(5) == 3
    # terms above the order are ignored
    high = jet_of_termsum([(1, 3, 50)], 10)
    assert not high.f0.coeffs


def test_alternating_theta_derivative_vanishes():
    # d/dz j(zq; q^2)|_1 = sum (-1)^n n q^(n^2) = 0
    assert not jet_theta(1, 1, 1, 2, 40).f1.coeffs


def test_eval_z_at_one_agrees_with_jet_value():
    # the f0 route and the Zpoly-evaluation route must agree (order 25)
    from qhecke.series import monomial
    for sign, zdeg, qdeg, base in ((1, 1, 1, 2), (-1, 2, 0, 2), (1, 6, 1, 3)):
        via_poly = jtheta(monomial(sign, zdeg, qdeg), base, 25).eval_z(1)
        via_jet = jet_theta(sign, zdeg, qdeg, base, 25).f0
        assert _compare(via_poly, via_jet, 25) is None


def test_jet_appell_keeps_terms_past_empty_rows():
    # the same Appell-Lerch sum as the scalar regression, at z = 1
    from qhecke.jets import jet_appell
    low = jet_appell((1, 0, -260), 1, (-1, 1, -20), 50)
    high = jet_appell((1, 0, -260), 1, (-1, 1, -20), 500)
    assert high.f0.coeff(260) == 1
    for lo, hi in ((low.f0, high.f0), (low.f1, high.f1)):
        assert _compare(lo, hi, 50) is None
