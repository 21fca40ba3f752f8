"""Theta function and Appell-Lerch sum tests."""

from fractions import Fraction

import pytest

from qhecke.errors import NonUnitError, PoleError
from qhecke.rings import ZPoly
from qhecke.series import etaq, monomial, pochhammer
from qhecke.theta import (_theta_1_4_deferred, appell_cleared, appell_m, f_abc, f_abc_terms,
                          g_abc, jtheta, theta_1_4, theta_low)
from qhecke.verify import _compare

# every theta argument shape the registry builders touch
REGISTRY_THETA_ARGS = [
    (1, 0, 1, 2), (-1, 0, 1, 2), (1, 1, 1, 2), (-1, 1, 1, 2), (-1, 2, 0, 1),
    (1, 6, 1, 3), (-1, 6, 1, 3), (1, 4, 1, 4), (-1, 4, 1, 4), (1, 3, 1, 6),
    (-1, 3, 1, 6), (-1, 12, 5, 12), (-1, 12, 1, 12), (1, 12, 5, 12),
    (1, 12, 1, 12), (-1, 2, 0, 2), (1, 4, 1, 2), (1, 2, -1, 6), (1, 2, 0, 6),
    (-1, 2, -1, 6), (-1, 2, 0, 6), (-1, 4, 4, 6), (1, 2, 4, 6), (-1, 2, 5, 6),
    (1, 6, 3, 6), (-1, 0, 5, 6), (1, 4, 5, 6), (-1, 4, 1, 12), (-1, 8, 0, 12),
    (-1, 8, 4, 12), (1, 8, 14, 24), (1, 8, 8, 12), (1, 8, 5, 12), (1, 4, 1, 12),
    (1, 12, 6, 12), (-1, 4, 2, 12), (-1, 0, 11, 12), (-1, 4, 6, 12),
    (-1, 0, 5, 12), (-1, 1, 1, 1), (1, 2, 2, 4),
]


def test_jtheta_sum_examples():
    assert [jtheta(monomial(1, 0, 1), 2, 9).coeff(e) for e in range(10)] \
        == [1, -2, 0, 0, 2, 0, 0, 0, 0, -2]
    assert not jtheta(monomial(1, 0, 1), 1, 12).coeffs
    t = jtheta(monomial(-1, 2, 0), 2, 4)
    assert t.coeff(0) == ZPoly({0: 1, 2: 1})


def jtheta_product(x, base, n):
    """j(x; q^base) as the triple product (x; q^b)_inf (q^b/x; q^b)_inf (q^b; q^b)_inf."""
    qbase_over_x = monomial(x.coef, -x.zdeg, base - x.qdeg)
    return (pochhammer(x, base, None, n) * pochhammer(qbase_over_x, base, None, n)
            * etaq(base, n))


def test_jtheta_product_matches_sum_everywhere():
    for sign, zdeg, qdeg, base in REGISTRY_THETA_ARGS:
        x = monomial(sign, zdeg, qdeg)
        # negative-degree factors cost the product route one certified
        # order per factor, so build with a little slack
        got = jtheta(x, base, 64).truncate(60)
        want = jtheta_product(x, base, 64).truncate(60)
        assert _compare(got, want, 60) is None, (sign, zdeg, qdeg, base)


def test_jtheta_x_to_q_over_x_symmetry():
    # j(x;q) = j(q/x;q) at monomial arguments
    for coef, d, base in ((1, 1, 3), (-1, 2, 5), (1, 3, 4), (-1, 1, 1)):
        a = jtheta(monomial(coef, 0, d), base, 40)
        b = jtheta(monomial(coef, 0, base - d), base, 40)
        assert _compare(a, b, 40) is None


def test_appell_translation_invariance():
    # x z = +q^d is a pole and j(q^d;q) = 0, so x = q^d and z = -q^e
    for x, z in ((monomial(1, 0, 3), monomial(-1)), (monomial(1, 0, 1), monomial(-1, 0, 1)),
                 (monomial(1, 0, 2), monomial(-1, 0, -1)), (monomial(1, 0, -2), monomial(-1))):
        lhs = appell_m(x, 1, z, 30)
        rhs = appell_m(x, 1, z.qshift(1), 30)
        assert _compare(lhs, rhs, 30) is None


def test_appell_pole_detected():
    # x z = 1 with zero q-degree is the excluded pole
    with pytest.raises(PoleError):
        appell_m(monomial(1, 0, 1), 1, monomial(1, 0, -1), 20)


def test_appell_f8_bridge_example():
    # 2 F4(-1, q) = m(1, q^2, -q)
    from qhecke.mock import F4_series
    lhs = F4_series(30).eval_z(-1).scale(2)
    rhs = appell_m(monomial(1), 2, monomial(-1, 0, 1), 30)
    assert _compare(lhs, rhs, 30) is None


def test_f_abc_brute_force_cross_check():
    # independent double loop over a fixed box
    for a, b, c, x, y in ((1, 2, 1, monomial(1, 0, 3), monomial(1, 0, 4)),
                          (1, 5, 1, monomial(1, 0, 2), monomial(1, 0, 3)),
                          (2, 4, 2, monomial(1, 0, 3), monomial(-1, 0, 4))):
        n = 25
        box = {}
        for r in range(-30, 31):
            for s in range(-30, 31):
                if (r >= 0) != (s >= 0):
                    continue
                e = (a * r * (r - 1) // 2 + b * r * s + c * s * (s - 1) // 2
                     + x.qdeg * r + y.qdeg * s)
                if e > n:
                    continue
                sg = 1 if r >= 0 else -1
                v = sg * (-1) ** ((r + s) % 2) * (x.coef ** (r % 2)) * (y.coef ** (s % 2))
                box[e] = box.get(e, 0) + v
        got = f_abc(a, b, c, x, y, n)
        assert {e: v for e, v in box.items() if v} == dict(got.nonzero_terms())


def test_f_abc_term_pins():
    f = f_abc(1, 2, 1, monomial(1, 0, 1), monomial(1, 0, 1), 6)
    assert f.coeff(0) == 1 and f.coeff(1) == -2
    # the (0,0) term alone contributes +1
    assert any(c == 1 and zd == 0 and qd == 0
               for c, zd, qd in f_abc_terms(1, 2, 1, monomial(1, 0, 1),
                                            monomial(1, 0, 1), 0))


def test_f151_symmetric_in_x_y():
    a = f_abc(1, 5, 1, monomial(1, 0, 2), monomial(1, 0, 3), 30)
    b = f_abc(1, 5, 1, monomial(1, 0, 3), monomial(1, 0, 2), 30)
    assert _compare(a, b, 30) is None


def test_g_abc_single_t_terms_when_a_c_one():
    # for a = c = 1 each t-sum has exactly the t = 0 term; the whole value
    # must then equal f_{1,2,1} at a generic witness
    x, y = monomial(1, 0, 3), monomial(1, 0, 4)
    g = g_abc(1, 2, 1, x, y, monomial(1, 0, 1), monomial(1, 0, -1), 30)
    f = f_abc(1, 2, 1, x, y, 30)
    assert _compare(f, g, 30) is None


def test_negative_valuation_factors_still_certify_the_order():
    # j(-q^2; q) and j(-q^4; q) start at q^-1 and q^-6, and the theta
    # factors of Theta_{1,4} at x = q^2, y = q^3 as low as q^-8
    g = g_abc(1, 2, 1, monomial(-1, 0, 2), monomial(-1, 0, 4),
              monomial(1, 0, 2), monomial(1, 0, -2), 40)
    assert g.order >= 40
    assert theta_1_4(monomial(1, 0, 2), monomial(1, 0, 3), 40).order >= 40
    s1, s2, _ = _theta_1_4_deferred(monomial(1, 0, 2), monomial(1, 0, 3))
    assert s1.build(40).order >= 40 and s2.build(40).order >= 40


def test_theta_low_is_the_lowest_exponent_of_the_sum():
    for d in range(-30, 31):
        for base in (1, 2, 3, 12, 24):
            # x = -q^d: every term is +1, so no two cancel
            s = jtheta(monomial(-1, 0, d), base, 40)
            assert theta_low(d, base) == s.valuation()


def test_theta_1_4_part_sums_are_integral():
    s1, s2, _ = _theta_1_4_deferred(monomial(1, 0, 2), monomial(1, 0, 3))
    for series in (s1.build(20), s2.build(20)):
        assert series.coeffs, "part sum should be nonzero"
        for _, coeff in series.nonzero_terms():
            assert Fraction(coeff).denominator == 1


def test_theta_1_4_regression_pin():
    # frozen from the implementation after cross-validation against
    # g_{1,5,1} - f_{1,5,1} (which the printed formula matches up to sign)
    from qhecke.theta import theta_1_4
    th = theta_1_4(monomial(1, 0, 2), monomial(1, 0, 3), 26).truncate(20)
    g = g_abc(1, 5, 1, monomial(1, 0, 2), monomial(1, 0, 3),
              monomial(1, 0, 1), monomial(1, 0, -1), 20)
    f = f_abc(1, 5, 1, monomial(1, 0, 2), monomial(1, 0, 3), 20)
    assert _compare(th, f - g, 20) is None, \
        "printed correction agrees with f - g (sign-flipped identity)"
    pinned = [1, 0, -2, -1, 0, 1, 1, 2, 0, -1, 1, -1, -1, -1, 1, 0, -1, 1, 0, -1, 0]
    assert [th.coeff(e) for e in range(21)] == pinned


def test_appell_x_inverse_at_base_two():
    # m(x, q^2, z) = x^-1 m(x^-1, q^2, z^-1) at x = -q, z = -1
    x, z = monomial(-1, 0, 1), monomial(-1)
    lhs = appell_m(x, 2, z, 30)
    # the factor x^-1 = -q^-1 lowers the order by one
    rhs = appell_m(x.inv(), 2, z.inv(), 31).shift(x.inv().coef, x.inv().qdeg)
    assert _compare(lhs, rhs, 30) is None


def test_appell_m_keeps_terms_past_empty_rows():
    # rows r = 0..20 lie above q^50 at their lowest exponent; r = 21, 22
    # reach q^260, which the inverted theta quotient certifies
    x, z = monomial(1, 0, -260), monomial(-1, 0, -20)
    low, high = appell_m(x, 1, z, 50), appell_m(x, 1, z, 500)
    assert low.order == 260 and _compare(low, high, 260) is None
    assert high.coeff(260) == 1


def test_appell_cleared_is_m_times_its_denominators():
    # z-free: N / (p j(w;q^base)) is m, with p = 2 when a term has its
    # denominator 1 + 1 at q^0 and p = 1 when none has
    for x, base, w, p_want in ((monomial(1, 0, 3), 1, monomial(-1), 2),
                               (monomial(-1, 0, 1), 2, monomial(-1), 1),
                               (monomial(1, 0, 1), 2, monomial(-1, 0, 1), 2)):
        p, numer = appell_cleared(x, base, w)
        got = (numer.build(40) * jtheta(w, base, 40).invert()).scale(Fraction(1, p))
        assert p == p_want and _compare(got, appell_m(x, base, w, 40), 40) is None
    # with z: the pole factor p = 1 - x w at q^0, and x w = 1 is a pole of m
    p, numer = appell_cleared(monomial(-1, 0, 2), 1, monomial(1, 1))
    assert p == ZPoly({0: 1, 1: 1})
    assert all(type(v) is int for c in numer.build(20).coeffs if c for v in c.coeffs)
    with pytest.raises(PoleError):
        appell_cleared(monomial(1, 1, 1), 1, monomial(1, -1, -1))


def test_f_abc_refuses_forms_outside_its_definition():
    x = monomial(1, 0, 1)
    for a, b, c in ((0, 1, 1), (1, 1, 0), (1, -1, 1)):
        with pytest.raises(ValueError):
            f_abc_terms(a, b, c, x, x, 10)


def test_monomial_contract():
    # a monomial is +-z^k q^d: any other coefficient is refused where it is made
    for coef in (0, 2, -3, Fraction(1, 2), Fraction(1), 1.0, True):
        with pytest.raises(ValueError):
            monomial(coef, 1, 2)
    p = monomial(-1, 1, 1) ** -3
    assert p == monomial(-1, -3, -3) and type(p.coef) is int
    assert monomial(-1, 1, 1) ** -2 == monomial(1, -2, -2)
    x = monomial(-1, 1, 2)
    assert x * x.inv() == monomial(1, 0, 0)
    assert x.neg().qshift(5) == monomial(1, 1, 7)


def test_integral_builders_need_a_unit_coefficient():
    one = monomial(1, 0, 1)
    for coef in (2, -2, Fraction(3, 2)):
        with pytest.raises(ValueError):
            jtheta(monomial(coef, 0, 1), 2, 10)
    with pytest.raises(ValueError):
        jtheta(one, 0, 10)


def test_rational_builders_refuse_z():
    # g_abc and theta_1_4 take z-free arguments only; appell_m divides by
    # j(z;q^2), which it cannot invert, as its lowest coefficient is 1 - z
    zx, x = monomial(1, 1, 1), monomial(-1, 0, 1)
    for build in (lambda: g_abc(1, 2, 1, zx, x, x, x, 10),
                  lambda: g_abc(1, 2, 1, x, x, zx, x, 10), lambda: theta_1_4(x, zx, 10)):
        with pytest.raises(ValueError):
            build()
    with pytest.raises(NonUnitError):
        appell_m(x, 2, monomial(1, 1), 10)
