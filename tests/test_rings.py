"""Coefficients: rationals and Laurent polynomials in Z[z, 1/z]."""

from fractions import Fraction

import pytest

from qhecke.errors import NonUnitError, PoleError
from qhecke.rings import ZPoly, invert
from qhecke.series import QSeries, geometric_sum


def test_zpoly_ops():
    p = ZPoly({1: 1, -1: 1})  # z + 1/z
    q = ZPoly({0: 1, 1: -1})  # 1 - z
    # direct expansion: (z + z^-1)(1 - z) = z + z^-1 - z^2 - 1
    assert p * q == ZPoly({1: 1, -1: 1, 2: -1, 0: -1})
    assert p.eval(2) == Fraction(5, 2)
    assert p.at_one() == 2
    assert (p - p) == 0 and not (p - p)


def test_zpoly_never_stores_zeros():
    p = ZPoly({0: 1, 3: 0})
    assert p.c == {0: 1}
    assert (ZPoly({1: 2}) + ZPoly({1: -2})).c == {}


def test_zpoly_zero_values_normalise():
    for zero in (ZPoly({0: 0}), ZPoly({-2: 0, 5: 0}), ZPoly.monomial(0, 4)):
        assert not zero
        assert zero == 0 and zero == ZPoly()
        assert hash(zero) == hash(0)
    assert ZPoly({-1: 0, 0: 2, 3: 0}) == ZPoly.const(2)


def test_zpoly_hash_agrees_with_eq():
    assert hash(ZPoly.const(3)) == hash(3)
    assert {ZPoly.const(3): "x"}.get(3) == "x"
    assert hash(ZPoly({-1: 2, 1: 2})) == hash(ZPoly.monomial(2, 1) + ZPoly.monomial(2, -1))


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
    for sign in (1, -1):
        inv = invert(ZPoly({3: sign}))
        assert inv == ZPoly({-3: sign}) and type(inv.coeffs[0]) is int
    # a constant ZPoly inverts to a ZPoly, a scalar to a scalar
    assert type(invert(ZPoly.const(-1))) is ZPoly and invert(ZPoly.const(-1)) == -1
    # the units of Z[z, 1/z] are the +-z^k: 2, 2z and -2z^3 are not
    for x in (ZPoly({0: 1, 1: -1}), ZPoly.const(2), ZPoly.monomial(2, 1), ZPoly({3: -2})):
        with pytest.raises(NonUnitError):
            invert(x)


@pytest.mark.parametrize("zero", [0])
def test_zpoly_plus_minus_scalar_zero(zero):
    # series pad with the scalar 0, so 0 + p must give p back unchanged
    p = ZPoly({-1: 3, 2: 5})
    for got, want in ((zero + p, p), (p + zero, p), (p - zero, p), (zero - p, -p)):
        assert type(got) is ZPoly and got == want
        assert (got.lo, got.coeffs) == (want.lo, want.coeffs)
    assert type(zero + ZPoly()) is ZPoly and not zero + ZPoly()
    assert (1 + p) - 1 == p and 1 - p == -(p - 1)


def test_zpoly_refuses_a_fraction():
    # a ZPoly lies in Z[z, 1/z]: every way of putting a Fraction into one
    # raises TypeError, Fraction(0) and Fraction(2) included
    half = Fraction(1, 2)
    for build in (lambda: ZPoly({0: half}), lambda: ZPoly({-1: 1, 3: Fraction(2)}),
                  lambda: ZPoly.const(half), lambda: ZPoly.monomial(half, 3)):
        with pytest.raises(TypeError):
            build()
    p = ZPoly({-1: 3, 2: 5})
    for op in (lambda: p + half, lambda: half + p, lambda: p - half, lambda: half - p,
               lambda: p * half, lambda: half * p, lambda: p + Fraction(0)):
        with pytest.raises(TypeError):
            op()
    f = QSeries(0, [p, 0, 1], 5)
    with pytest.raises(TypeError):
        f.scale(Fraction(-3, 2))
    # c/(1 - r) at d = 0 with r = -1 would be c/2
    with pytest.raises(TypeError):
        geometric_sum(iter([(p, 0, -1, 0)]), 5)
    # with r = z instead it is c/(1 - z), which no Laurent polynomial is
    with pytest.raises(PoleError):
        geometric_sum(iter([(p, 0, ZPoly.monomial(1, 1), 0)]), 5)


def test_eval_z_passes_scalars_through():
    # a scalar entry is its own value at any z0, with its type kept
    z0 = Fraction(2, 3)
    f = QSeries(-1, [Fraction(1, 2), 0, 3, Fraction(-5, 4)], 4)
    got = f.eval_z(z0)
    assert (got.min_exp, got.order, got.coeffs) == (-1, 4, f.coeffs)
    assert [type(c) for c in got.coeffs] == [Fraction, int, int, Fraction]
    # beside a ZPoly: 3z + 5z^-2 at 2/3 is 2 + 45/4
    half = Fraction(1, 2)
    got = QSeries(0, [half, 7, ZPoly({1: 3, -2: 5})], 2).eval_z(z0)
    assert got.coeffs == [half, 7, Fraction(53, 4)]
    assert [type(c) for c in got.coeffs] == [Fraction, int, Fraction]


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
        "jtheta j(-1;q)": theta.jtheta(series.monomial(-1), 1, n),
        "jtheta j(q;q^2)": theta.jtheta(series.monomial(1, 0, 1), 2, n),
        "hecke_rogers": mock.hecke_rogers(mock.HR_HF8, n),
        "appell_rhs": mock.appell_rhs(mock.AP_HF8, n),
        "humbert_series": mock.humbert_series(n),
        "c_sum": mock.c_sum(1, n),
    }
    for name, got in built.items():
        # every coefficient an int, so in particular none is a ZPoly
        assert got.order == n, name
        assert got.coeffs and all(type(c) is int for c in got.coeffs), name
