"""Property tests for the exact denominator rule and jets as images at z = 1.

QSeries.div_one_minus is checked by multiplying back with mul_one_minus,
and Jet1.of against sums read off the ZPoly ``.c`` dict.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qhecke.errors import PoleError
from qhecke.jets import Jet1
from qhecke.rings import ZPoly
from qhecke.series import QSeries
from qhecke.verify import _compare

# no deadline: the shared test hosts' speed varies too much for one
prop = settings(deadline=None, max_examples=150)

ints = st.integers(-4, 4)
rationals = st.one_of(ints, st.fractions(min_value=-3, max_value=3, max_denominator=5))


@st.composite
def series(draw, coeffs, min_order=0):
    """A finite-order series with coefficients drawn from coeffs."""
    min_exp = draw(st.integers(-4, 4))
    cs = draw(st.lists(coeffs, max_size=10))
    order = max(min_exp + len(cs) + draw(st.integers(-2, 5)), min_order)
    return QSeries(min_exp, cs, order)


zpolys = st.dictionaries(st.integers(-4, 4), ints, max_size=4).map(ZPoly)


def restores(f, c, d):
    back = f.div_one_minus(c, d).mul_one_minus(c, d)
    return back.order >= f.order and _compare(back, f, f.order) is None


@prop
@given(f=series(rationals), c=rationals, d=st.integers(-6, 6))
def test_div_one_minus_over_qq(f, c, d):
    if d == 0 and c == 1:
        with pytest.raises(PoleError):
            f.div_one_minus(c, d)
    else:
        assert restores(f, c, d)


@prop
@given(f=series(zpolys))
def test_jet_of_zpoly_series(f):
    jet = Jet1.of(f)
    assert jet.f0.order == jet.f1.order == f.order
    for e in range(f.min_exp - 1, f.order + 1):
        p = f.coeff(e) or ZPoly()  # outside the window it is the scalar 0
        assert jet.f0.coeff(e) == sum(p.c.values())
        assert jet.f1.coeff(e) == sum(k * v for k, v in p.c.items())


@prop
@given(f=series(rationals))
def test_jet_of_z_free_series(f):
    jet = Jet1.of(f)
    assert all(type(c) in (int, Fraction) for c in jet.f0.coeffs)
    assert jet.f0.order == f.order and _compare(jet.f0, f, f.order) is None
    assert not jet.f1.coeffs and jet.f1.order == f.order
