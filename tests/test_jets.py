"""First-order jet arithmetic at z = 1."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from qhecke.errors import NonUnitError, PoleError
from qhecke.jets import Jet1, jet_appell, jet_of_termsum, jet_theta
from qhecke.rings import ZPoly
from qhecke.series import QSeries, appell_range, monomial
from qhecke.theta import jtheta
from qhecke.verify import _compare


def test_constant_jet_has_zero_derivative():
    c = Jet1.of(QSeries(0, [3, 1], 10))
    assert not c.f1.coeffs


def test_z_squared_derivative():
    z = jet_of_termsum([(1, 1, 0)], 10)
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
    w = u * v.invert() * v
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
    x, w = monomial(1, 0, -260), monomial(-1, 1, -20)
    low = jet_appell(x, 1, w, 50)
    high = jet_appell(x, 1, w, 500)
    assert high.f0.coeff(260) == 1
    for lo, hi in ((low.f0, high.f0), (low.f1, high.f1)):
        assert _compare(lo, hi, 50) is None


# -- the per-term Appell-Lerch jet, as an oracle ------------------------------
# Each term of the sum is divided by its own 1 - c z^k q^d with the exact
# jet rule below.  It shares no code with jet_appell's route through
# theta.appell_cleared, so the two check each other.


def div_one_minus(self, c, k, d):
    """Divide by (1 - c * z^k * q^d) for any integer d.

    With g = f / (1 - c z^k q^d): g0 = f0 / (1 - c q^d) and, from
    g (1 - c z^k q^d) = f, g1 = (f1 + c k q^d g0) / (1 - c q^d).
    """
    g0 = self.f0.div_one_minus(c, d)
    f1 = self.f1 + g0.shift(c * k, d) if k else self.f1
    return Jet1(g0, f1.div_one_minus(c, d))


def jet_appell_per_term(x, base, w, n):
    """Jet of the Appell-Lerch sum m(x(z), q^base, w(z)) at z = 1.

    x and w are triples (sign, zdeg, qdeg) describing sign * z^zdeg * q^qdeg;
    either may depend on z.  Term r is (-w)^r q^{base r(r-1)/2} over
    1 - x w q^{base(r-1)}, divided out by Jet1.div_one_minus.
    """
    w = monomial(*w)
    xw = monomial(*x) * w
    neg = -w.coef  # (-w)^r has sign neg^r
    total = Jet1.of(QSeries.zero(n))
    for r in appell_range(base, 2 * w.qdeg - base, 0, base, xw.qdeg - base, n):
        numer = Jet1.of(QSeries.monomial(ZPoly.monomial(neg ** (r % 2), w.zdeg * r),
                                         base * r * (r - 1) // 2 + w.qdeg * r, n))
        total = total + div_one_minus(numer, xw.coef, xw.zdeg, base * (r - 1) + xw.qdeg)
    return jet_theta(w.coef, w.zdeg, w.qdeg, base, n).invert() * total


triples = st.tuples(st.sampled_from((1, -1)), st.integers(-6, 6), st.integers(-6, 6))


@settings(deadline=None, max_examples=100)
@given(triples, st.sampled_from((1, 2, 3, 6)), triples)
def test_jet_appell_matches_the_per_term_oracle(x, base, w):
    if w[0] == 1 and w[2] % base == 0:
        return  # j(w; q^base) vanishes at z = 1
    xw = monomial(*x) * monomial(*w)
    for n in (5, 40, 80):
        if xw.coef == 1 and xw.qdeg % base == 0:
            # a term is over 1 - z^k q^0, a pole at z = 1 at every order;
            # the oracle sees it only at orders that reach its numerator
            with pytest.raises(PoleError):
                jet_appell(monomial(*x), base, monomial(*w), n)
            continue
        got = jet_appell(monomial(*x), base, monomial(*w), n)
        want = jet_appell_per_term(x, base, w, n)
        for g, v in ((got.f0, want.f0), (got.f1, want.f1)):
            assert g.order >= n
            assert _compare(g, v, min(n, v.order)) is None


def test_jet_appell_pole_at_one():
    # x w = z^3 q^0: the term over 1 - z^3 has a pole at z = 1
    for base in (1, 2, 6):
        with pytest.raises(PoleError):
            jet_appell(monomial(1, 1, 1), base, monomial(1, 2, -1), 20)
