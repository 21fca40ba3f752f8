"""Coefficients: rationals and Laurent polynomials in z."""

from fractions import Fraction

import pytest

from qhecke.errors import NonUnitError
from qhecke.rings import ZPoly, invert


def test_zpoly_ops():
    p = ZPoly({1: 1, -1: 1})  # z + 1/z
    q = ZPoly({0: 1, 1: -1})  # 1 - z
    # direct expansion: (z + z^-1)(1 - z) = z + z^-1 - z^2 - 1
    assert p * q == ZPoly({1: 1, -1: 1, 2: -1, 0: -1})
    assert p.eval(2) == Fraction(5, 2)
    assert p.at_one() == 2
    assert (p - p) == 0 and not (p - p)
    assert ZPoly({2: 3}).unit_part() == (3, 2)
    assert p.unit_part() is None


def test_zpoly_never_stores_zeros():
    p = ZPoly({0: 1, 3: 0})
    assert p.c == {0: 1}
    assert (ZPoly({1: 2}) + ZPoly({1: -2})).c == {}


def test_zpoly_zero_values_normalise():
    for zero in (ZPoly({0: 0}), ZPoly({-2: 0, 5: Fraction(0)}), ZPoly.monomial(0, 4)):
        assert not zero
        assert zero == 0 and zero == ZPoly()
        assert hash(zero) == hash(0)
    assert ZPoly({-1: 0, 0: 2, 3: 0}) == ZPoly.const(2)


def test_zpoly_hash_agrees_with_eq():
    assert hash(ZPoly.const(3)) == hash(3)
    assert {ZPoly.const(3): "x"}.get(3) == "x"
    assert hash(ZPoly.const(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert hash(ZPoly({-1: 2, 1: Fraction(4, 2)})) == hash(ZPoly({-1: Fraction(2), 1: 2}))


def test_zpoly_c_is_read_only():
    p = ZPoly({-1: 1, 2: 3})
    with pytest.raises(TypeError):
        p.c[0] = 5
    assert p == ZPoly({-1: 1, 2: 3})


def test_ring_invert_rules():
    assert invert(2) == Fraction(1, 2)
    for unit in (1, -1, Fraction(1), Fraction(-1)):
        assert type(invert(unit)) is int and invert(unit) == unit
    for x, inv in ((Fraction(1, 2), 2), (Fraction(-1, 3), -3), (Fraction(2, 3), Fraction(3, 2))):
        assert invert(x) == inv and type(invert(x)) is type(inv)
    for zero in (0, Fraction(0), ZPoly()):
        with pytest.raises(NonUnitError):
            invert(zero)
    assert invert(ZPoly({3: -2})) == ZPoly({-3: Fraction(-1, 2)})
    for sign in (1, -1):
        inv = invert(ZPoly({3: sign}))
        assert inv == ZPoly({-3: sign}) and type(inv.unit_part()[0]) is int
    # a constant ZPoly inverts to a ZPoly, a scalar to a scalar
    assert type(invert(ZPoly.const(2))) is ZPoly and invert(ZPoly.const(2)) == Fraction(1, 2)
    with pytest.raises(NonUnitError):
        invert(ZPoly({0: 1, 1: -1}))


@pytest.mark.parametrize("zero", [0, Fraction(0)])
def test_zpoly_plus_minus_scalar_zero(zero):
    # series pad with the scalar 0, so 0 + p must give p back unchanged
    p = ZPoly({-1: 3, 2: Fraction(1, 2)})
    for got, want in ((zero + p, p), (p + zero, p), (p - zero, p), (zero - p, -p)):
        assert type(got) is ZPoly and got == want
        assert (got.lo, got.coeffs) == (want.lo, want.coeffs)
    assert type(zero + ZPoly()) is ZPoly and not zero + ZPoly()
    assert (1 + p) - 1 == p and 1 - p == -(p - 1)


@pytest.mark.parametrize("n", [40, 130])
def test_integral_builders_stay_int_typed(n):
    # an integral series holds plain ints, the denominator-1 case that the
    # kernels multiply as integers
    from qhecke import classnum, mock, series, theta

    eulerian = ("A", "V1", "sigma", "phi_minus")
    built = {
        "etaq": series.etaq(2, n),
        "etaq_inv": series.etaq_inv(3, n),
        "eta_quotient": series.eta_quotient({1: 2, 2: -1}, n),
        "eta_quotient gcd 6": series.eta_quotient({6: 2, 12: -1}, n),
        "unit fraction inverse": series.QSeries(0, [Fraction(1, 2)], n).invert(),
        "genfun_H": classnum.genfun_H(24, 7, n),
        **{f"eulerian {w}": mock.eulerian(w, n) for w in eulerian},
        **{f"eulerian_residues {w}": mock.eulerian_residues(w, n, 4) for w in eulerian},
        "genfun_F": classnum.genfun_F(24, -1, n),
        "jtheta": theta.jtheta(series.monomial(-1, 0, 1), 2, n),
        "theta_sum_scaled j(-1;q)": theta.theta_sum_scaled(series.monomial(-1), 1, n),
        "theta_sum_scaled j(q;q^2)": theta.theta_sum_scaled(series.monomial(1, 0, 1), 2, n),
        "hecke_rogers": mock.hecke_rogers(mock.HR_HF8, n),
        "appell_rhs": mock.appell_rhs(mock.AP_HF8, n),
        "humbert_series": mock.humbert_series(n),
        "c_sum": mock.c_sum(1, n),
    }
    for name, got in built.items():
        # every coefficient an int, so in particular none is a ZPoly
        assert got.order == n, name
        assert got.coeffs and all(type(c) is int for c in got.coeffs), name
