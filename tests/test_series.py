"""Core series engine tests.

Expected values marked as oracle-derived are recomputed here with naive
dict-based polynomial arithmetic that shares no code with the package.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qhecke import kernels, series
from qhecke.errors import NonUnitError, PoleError
from qhecke.jets import Jet1
from qhecke.rings import ZPoly
from qhecke.series import (INF, QSeries, eta_quotient, etaq, etaq_inv, geom_ratio,
                           geometric_sum, monomial, pochhammer)
from qhecke.theta import Deferred
from qhecke.verify import _compare


# -- naive oracle helpers (independent of the package internals) ------------

def naive_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def naive_eta(k, n):
    out = {0: 1}
    m = 1
    while k * m <= n:
        out = naive_mul(out, {0: 1, k * m: -1})
        out = {e: c for e, c in out.items() if e <= n}
        m += 1
    return out


def naive_partitions(n):
    # count partitions of n by exhaustive recursion
    def count(n, maxp):
        if n == 0:
            return 1
        return sum(count(n - p, p) for p in range(min(n, maxp), 0, -1))
    return count(n, n)


def as_dict(series):
    return dict(series.nonzero_terms())


def rand_series(rng, kind, n, min_exp=-3):
    """Random coefficients in -4..4 as kind makes them: int or ZPoly.const."""
    coeffs = [kind(rng.randint(-4, 4)) for _ in range(n - min_exp + 1)]
    return QSeries(min_exp, coeffs, n)


def is_rational(series):
    """Every coefficient an int or a Fraction: no ZPoly among them."""
    return all(type(c) in (int, Fraction) for c in series.coeffs)


# -- arithmetic --------------------------------------------------------------

def test_add_cancellation():
    f = QSeries(0, [1, 1], INF)
    g = QSeries(0, [1, -1], INF)
    assert as_dict(f + g) == {0: 2}


def test_mul_telescoping():
    g = QSeries(0, [1, -1], INF)
    h = QSeries(0, [1, 1, 1, 1], INF)
    assert as_dict(g * h) == {0: 1, 4: -1}
    assert as_dict((g * h).truncate(3)) == {0: 1}


def test_monomial_above_its_order_is_zero():
    # q^5 is not certified by a series known only through q^3
    m = QSeries.monomial(1, 5, 3)
    assert m.valuation() is None and m.order == 3
    assert str(m) == "0 + O(q^4)"
    with pytest.raises(NonUnitError):
        m.invert()
    assert not (QSeries.zero(3) + m).coeffs
    assert not QSeries.one(-1).coeffs
    e = eta_quotient({1: 2, 2: -1}, -1)
    assert e.order == -1 and not e.coeffs


def test_monomial_shift():
    f = QSeries(1, [1, 1], INF)  # q + q^2
    assert as_dict(QSeries.monomial(1, -1) * f) == {0: 1, 1: 1}


def test_series_arith_dispatch():
    f = QSeries(0, [1, 2], 5)
    g = QSeries(0, [0, 1], 5)
    assert as_dict(f + g) == {0: 1, 1: 3}
    assert as_dict(f - g) == {0: 1, 1: 1}
    assert as_dict(f * g) == {1: 1, 2: 2}
    assert as_dict(-f) == {0: -1, 1: -2}
    assert as_dict(f.scale(3)) == {0: 3, 1: 6}


def test_constructor_does_not_alias_the_input_list():
    xs = [1, 2, 3]
    f = QSeries(0, xs, 5)
    g = QSeries(0, xs, 1)  # clipped at the order
    xs[0] = 7
    xs.pop()
    assert as_dict(f) == {0: 1, 1: 2, 2: 3}
    assert as_dict(g) == {0: 1, 1: 2}


_int_coeffs = st.integers(-4, 4)
_laurent_coeffs = st.one_of(
    _int_coeffs, st.builds(ZPoly, st.dictionaries(st.integers(-3, 3), _int_coeffs, max_size=3)))


@st.composite
def _finite_series(draw, coeffs):
    min_exp = draw(st.integers(-3, 3))
    cs = draw(st.lists(coeffs, max_size=8))
    return QSeries(min_exp, cs, draw(st.integers(min_exp, min_exp + 10)))


def _lifted(f):
    """f with every coefficient a constant ZPoly."""
    return QSeries(f.min_exp, [ZPoly.const(c) for c in f.coeffs], f.order)


def _same_window(got, want):
    assert (got.min_exp, got.order, got.coeffs) == (want.min_exp, want.order, want.coeffs)


@settings(deadline=None, max_examples=150)
@given(_finite_series(_int_coeffs), _finite_series(_laurent_coeffs))
def test_rational_series_mix_with_laurent_series(f, g):
    # Z is a subring of Z[z, 1/z]: an integral series meets a Laurent one
    # as the series of constant Laurent polynomials it equals
    lf = _lifted(f)
    _same_window(f * g, lf * g)
    _same_window(g * f, g * lf)
    _same_window(f + g, lf + g)
    _same_window(g - f, g - lf)
    jet = Jet1.of(f)
    _same_window(jet.f0, f)
    assert not jet.f1.coeffs and jet.f1.order == f.order


def test_gapped_laurent_product_reads_its_scalar_zeros():
    # the product has a gap at q^3, where the kernel leaves the scalar 0;
    # each reader of Laurent coefficients must take it as the zero ZPoly
    z = ZPoly.monomial(1, 1)
    f = QSeries(0, [z, ZPoly(), ZPoly(), ZPoly(), z], 10)
    h = f * QSeries(0, [z, z, z], 10)
    assert h.coeffs[3] == 0
    every_zpoly = QSeries(h.min_exp, [ZPoly.const(c) if type(c) is not ZPoly else c
                                      for c in h.coeffs], h.order)
    z2 = {"2": "1"}
    assert h.to_json() == every_zpoly.to_json() == {
        "min_exp": 0, "order": 10, "coeffs": [z2, z2, z2, {}, z2, z2, z2]}
    at_one = {0: 1, 1: 1, 2: 1, 4: 1, 5: 1, 6: 1}
    for got, want in ((h.subs_z_one(), at_one), (h.dz_at_one(), {e: 2 for e in at_one})):
        assert as_dict(got) == want and got.order == 10
    _same_window(h.subs_z_one(), every_zpoly.subs_z_one())
    _same_window(h.dz_at_one(), every_zpoly.dz_at_one())
    jet, want = Jet1.of(h), Jet1.of(every_zpoly)
    _same_window(jet.f0, want.f0)
    _same_window(jet.f1, want.f1)


def test_order_propagation_mul():
    f = QSeries(0, [1, 1], 4)   # known through q^4
    g = QSeries(2, [1], 6)      # q^2, known through q^6
    assert (f * g).order == 6   # min(4+2, 6+0)
    assert (f + g).order == 4


def test_ring_axioms_randomized():
    rng = random.Random(20240811)
    for kind in (int, ZPoly.const):
        for _ in range(12):
            a = rand_series(rng, kind, 30)
            b = rand_series(rng, kind, 30)
            c = rand_series(rng, kind, 30)
            for lhs, rhs in ((a + b, b + a), ((a + b) + c, a + (b + c)), (a * b, b * a),
                             (a * (b + c), a * b + a * c)):
                assert _compare(lhs, rhs, min(lhs.order, rhs.order)) is None


# -- inversion ---------------------------------------------------------------

def test_invert_geometric():
    f = QSeries(0, [1, -1], 10)
    assert as_dict(f.invert()) == {e: 1 for e in range(11)}


def test_invert_partition_oracle():
    inv = etaq(1, 5).invert()
    expected = [1, 1, 2, 3, 5, 7]
    assert [inv.coeff(e) for e in range(6)] == expected
    assert expected == [naive_partitions(n) for n in range(6)]


def test_invert_integer_lead_over_qq():
    # 1/(2 + q) = sum (-1)^k q^k / 2^(k+1): an integral series with a
    # non-unit lead inverts to rationals
    f = QSeries(0, [2, 1], 10)
    assert as_dict(f.invert()) == {k: Fraction((-1) ** k, 2 ** (k + 1)) for k in range(11)}


def test_invert_round_trip_randomized():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(5, 25)
        min_exp = rng.randint(-4, 3)
        coeffs = [rng.choice((1, -1))] + [rng.randint(-3, 3) for _ in range(n - min_exp)]
        f = QSeries(min_exp, coeffs, n)
        g = f * f.invert()
        lo = min(g.effective_min(), 0)
        assert all(g.coeff(e) == (1 if e == 0 else 0)
                   for e in range(lo, g.order + 1))


def test_invert_zero_window_raises():
    with pytest.raises(NonUnitError):
        QSeries.zero(10).invert()


def test_invert_negative_valuation_gains_order():
    # f = q^-1 (1 - q): inverse q/(1-q) is certified beyond f's own order
    f = QSeries(-1, [1, -1], 8)
    inv = f.invert()
    assert inv.min_exp == 1 and inv.order == 10
    assert all(inv.coeff(e) == 1 for e in range(1, 11))


# -- pochhammer / eta ---------------------------------------------------------

def test_pochhammer_finite():
    got = pochhammer(monomial(1, 0, 1), 1, 2, 10)
    assert as_dict(got) == {0: 1, 1: -1, 2: -1, 3: 1}
    assert as_dict(pochhammer(monomial(-1, 0, 1), 2, 1, 10)) == {0: 1, 1: 1}


def test_pochhammer_bivariate():
    got = (pochhammer(monomial(1, 1, 1), 2, 1, 10)
           * pochhammer(monomial(1, -1, 1), 2, 1, 10))
    assert got.coeff(0) == ZPoly.const(1)
    assert got.coeff(1) == ZPoly({1: -1, -1: -1})
    assert got.coeff(2) == ZPoly.const(1)


def test_pochhammer_consistency():
    # (x; q)_{n+1} = (x; q)_n (1 - x q^n)
    x = monomial(-1, 0, 2)
    for n in range(21):
        lhs = pochhammer(x, 3, n + 1, 40)
        rhs = pochhammer(x, 3, n, 40).mul_one_minus(-1, 2 + 3 * n)
        assert _compare(lhs, rhs, 40) is None


def test_etaq_pins_match_naive_oracle():
    for k, n in ((1, 7), (2, 5), (1, 0), (3, 17)):
        assert as_dict(etaq(k, n)) == naive_eta(k, n)


@pytest.mark.parametrize("build, cache, invert", [(etaq, "_eta_cache", False),
                                                  (etaq_inv, "_eta_inv_cache", True)])
@pytest.mark.parametrize("k", [1, 3])
def test_eta_caches_grow_to_each_request(monkeypatch, build, cache, invert, k):
    monkeypatch.setattr(series, cache, {})
    small = build(k, 10)
    entry = getattr(series, cache)[k]
    assert build(k, 30).order == 30 and getattr(series, cache)[k] is entry
    large = build(k, 100)
    want = pochhammer(monomial(1, 0, k), k, None, 100)
    want = want.invert() if invert else want
    assert (small.order, large.order) == (10, 100)
    assert _compare(small, want, 10) is None and _compare(large, want, 100) is None


def test_eta_quotient_is_cached_but_exact():
    a = eta_quotient({1: 2, 2: -1}, 25)
    b = naive_mul(naive_eta(1, 25), naive_eta(1, 25))
    inv2 = as_dict(etaq(2, 25).invert())
    b = {e: c for e, c in naive_mul(b, inv2).items() if e <= 25}
    assert as_dict(a) == b


@pytest.mark.parametrize("k, first, second", [(1, 70, 150), (3, 71, 200), (7, 64, 65),
                                               (2, 130, 131)])
def test_eta_inverse_resumes_from_the_cached_one(monkeypatch, k, first, second):
    # k = 3 at order 71 and k = 7 at 64 leave trailing zeros the cached
    # window trims, which the resumed Newton iteration must pad back
    monkeypatch.setattr(series, "_eta_inv_cache", {})
    etaq_inv(k, first)
    entry = series._eta_inv_cache[k]
    got = etaq_inv(k, second)
    assert series._eta_inv_cache[k] is not entry
    fresh = etaq(k, second).invert()
    assert got.order == fresh.order == second
    assert (got.min_exp, got.coeffs) == (fresh.min_exp, fresh.coeffs)


def naive_inv(g, n):
    """1/g through q^n for a dict g with g[0] == 1, term by term."""
    h = {}
    for m in range(n + 1):
        c = (1 if m == 0 else 0) - sum(g.get(i, 0) * h.get(m - i, 0)
                                       for i in range(1, m + 1))
        if c:
            h[m] = c
    return h


def naive_eta_quotient(powers, n):
    out = {0: 1}
    for k, e in powers.items():
        base = naive_eta(k, n) if e > 0 else naive_inv(naive_eta(k, n), n)
        for _ in range(abs(e)):
            out = {x: c for x, c in naive_mul(out, base).items() if x <= n}
    return out


@settings(deadline=None, max_examples=40)
@given(st.dictionaries(st.sampled_from((1, 2, 3, 4, 6)), st.integers(-3, 3), max_size=3),
       st.lists(st.integers(0, 90), min_size=1, max_size=5))
def test_eta_quotient_grows_and_shrinks_exactly(powers, orders):
    # rising then falling orders: growths rebuild, shrinks cut the cache
    series._eta_quotient_cache.clear()
    orders = sorted(orders) + sorted(orders, reverse=True)
    want = naive_eta_quotient(powers, max(orders))
    for n in orders:
        got = eta_quotient(powers, n)
        assert is_rational(got) and got.order == n
        assert as_dict(got) == {e: c for e, c in want.items() if e <= n}


_SHARED = (2, 4, 6, 8, 12, 18, 24)


def _dense(terms, n):
    """Coefficients of q^0..q^n from an exponent -> coefficient dict, trimmed."""
    out = [terms.get(e, 0) for e in range(n + 1)]
    while out and not out[-1]:
        out.pop()
    return out


@settings(deadline=None, max_examples=30)
@given(st.lists(st.tuples(st.dictionaries(st.sampled_from(_SHARED), st.integers(-3, 3),
                                          min_size=1, max_size=3),
                          st.dictionaries(st.sampled_from((1, 2, 3, 4, 6)), st.integers(-3, 3),
                                          max_size=3),
                          st.integers(0, 60)),
                min_size=1, max_size=4))
def test_eta_quotients_with_shared_levels_match_naive_oracle(requests):
    # levels with a common factor are built from the reduced quotient;
    # asking for them between gcd-1 keys must not disturb either cache
    series._eta_quotient_cache.clear()
    oracle = {}
    for shared, coprime, n in requests:
        for powers in (shared, coprime):
            key = tuple(sorted(powers.items()))
            if key not in oracle:
                oracle[key] = naive_eta_quotient(powers, 60)
            got = eta_quotient(powers, n)
            assert is_rational(got) and got.order == n
            assert (got.min_exp, got.coeffs) == (0, _dense(oracle[key], n))
            assert all(type(c) is int for c in got.coeffs)


@pytest.mark.parametrize("powers", [{0: 1}, {-2: 1}, {0: 1, 2: 1}, {4: 2, -4: -1}])
@pytest.mark.parametrize("n", [-1, 0, 30])
def test_eta_quotient_rejects_levels_below_one(powers, n):
    with pytest.raises(ValueError, match="positive"):
        eta_quotient(powers, n)


@pytest.mark.parametrize("powers", [{}, {2: 0}, {0: 0, 6: 0}])
def test_empty_eta_quotient_is_one(powers):
    got = eta_quotient(powers, 20)
    assert (got.min_exp, got.coeffs, got.order) == (0, [1], 20)


def test_only_the_j1_inverse_runs_newton(monkeypatch):
    # every 1/J_k and every quotient with a denominator is an inflated
    # power of 1/J_1, whose Newton iteration runs once per growth
    seen = []
    newton = kernels._inv_newton

    def spy(g, keep, known):
        seen.append(g[:6])
        return newton(g, keep, known)

    monkeypatch.setattr(kernels, "_inv_newton", spy)
    monkeypatch.setattr(series, "_eta_inv_cache", {})
    monkeypatch.setattr(series, "_eta_quotient_cache", {})
    for n in (40, 100, 300):
        for k in (1, 2, 3, 5, 12):
            etaq_inv(k, n)
        eta_quotient({2: -2, 4: 1}, n)
        eta_quotient({1: 1, 3: -3, 6: -1}, n)
    assert seen == [[1, -1, -1, 0, 0, 1]] * 3


_DELTAS = (1, 2, 3, 4, 6, 12)


def _eta_terms(coef):
    powers = st.dictionaries(st.sampled_from(_DELTAS), st.integers(-3, 3), max_size=3)
    return st.lists(st.tuples(coef, st.integers(-3, 3), powers), max_size=4)


_small = st.integers(-5, 5)


@settings(deadline=None, max_examples=150)
@given(_eta_terms(st.one_of(_small, st.fractions(-5, 5, max_denominator=9))),
       st.one_of(st.integers(0, 2), st.integers(0, 60)))
@example([(1, 3, {1: 3, 2: -2}), (-2, -3, {4: 2})], 0)
@example([(Fraction(1, 3), 2, {3: -3, 6: 2})], 1)
def test_eta_sum_certifies_exactly_n(terms, n):
    # the terms with s > n (drawn at n <= 2, and in the examples) are
    # built below q^0 and must still come back certified through q^n
    got = Deferred.eta_sum(terms).build(n)
    assert got.order == n
    want = QSeries.zero(n)
    for c, s, powers in terms:
        want = want + eta_quotient(powers, n + 3).shift(c, s)
    assert _compare(got, want, n) is None


# -- geometric sums -------------------------------------------------------------

_z_monomials = st.builds(ZPoly.monomial, st.sampled_from([1, -1]), st.integers(-2, 2))

# coefficient kind -> (coefficient strategy, ratio strategy)
_GEOMETRIC = {
    "rational": (st.one_of(_small, st.fractions(-5, 5, max_denominator=9)),
         st.one_of(st.sampled_from([1, -1]),
                   st.fractions(-3, 3, max_denominator=4).filter(bool))),
    "laurent": (st.builds(ZPoly, st.dictionaries(st.integers(-3, 3), _small, max_size=3)),
                st.one_of(st.sampled_from([1, -1]), _z_monomials)),
}


@st.composite
def _geometric_case(draw):
    coef, ratio = _GEOMETRIC[draw(st.sampled_from(sorted(_GEOMETRIC)))]
    n = draw(st.integers(-3, 24))
    term = st.tuples(coef, st.integers(-10, n + 3), ratio, st.integers(-5, 5))
    return draw(st.lists(term, max_size=6)), n


def _div_one_minus_route(terms, n):
    out = QSeries.zero(n)
    for c, e, r, d in terms:
        out = out + QSeries.monomial(c, e, n).div_one_minus(r, d)
    return out


@settings(deadline=None, max_examples=300)
@given(_geometric_case())
@example(([(1, 9, 1, 3), (2, -4, -1, 2), (-1, 0, -1, -3)], 12))
@example(([(Fraction(1, 2), 5, Fraction(-2, 3), -2), (3, -10, 2, 5)], 8))
@example(([(ZPoly({1: 1}), 2, ZPoly.monomial(1, 1), 1),
           (ZPoly({0: -1}), -3, ZPoly.monomial(-1, -1), -4)], 10))
def test_geometric_sum_matches_div_one_minus(case):
    # the terms go in as a stream, in drawn order, so lower exponents
    # arriving later grow the list leftwards
    terms, n = case
    try:
        want = _div_one_minus_route(terms, n)
    except (PoleError, TypeError) as exc:
        # a pole, or a Laurent c/(1 - r) = c/2 at d = 0 that Z[z, 1/z]
        # does not hold: both routes refuse it alike
        with pytest.raises(type(exc)):
            geometric_sum(iter(terms), n)
        return
    got = geometric_sum(iter(terms), n)
    assert (got.min_exp, got.order, got.coeffs) == (want.min_exp, want.order, want.coeffs)


# ring0 gives the pole a rational coefficient, ring1 a Laurent one
@pytest.mark.parametrize("one", [1, ZPoly.const(1)], ids=["ring0", "ring1"])
def test_geometric_sum_pole_at_r_one_d_zero(one):
    with pytest.raises(PoleError):
        geometric_sum(iter([(one, 0, 1, 0)]), 5)
    # the pole is the denominator's, whether or not the term lands
    with pytest.raises(PoleError):
        geometric_sum(iter([(one, 9, 1, 0)]), 5)


# z-bearing sums take the packed route: numerators of up to 70 bits, so
# that its slots come out 1, 2, 4, 8 and more than 8 bytes wide, and
# ratios s*z^k with |s| <= 2, whose powers widen them further
_ratios = st.one_of(st.sampled_from([1, -1, 2, -2]),
                    st.builds(ZPoly.monomial, st.sampled_from([1, -1, 2, -2]),
                              st.integers(-3, 3)))


@st.composite
def _packed_case(draw):
    bits = draw(st.one_of(st.integers(0, 70), st.integers(60, 70)))
    big = st.integers(-(1 << bits), 1 << bits)
    laurent = st.builds(ZPoly, st.dictionaries(st.integers(-3, 3), big, max_size=3))
    n = draw(st.integers(-3, 24))
    # an int ratio +-2 at d < 0, and an int c over 1 - r at d = 0 with
    # r = -1 or -2, give a rational numerator, which no z-bearing sum
    # holds (see the test below)
    term = st.tuples(st.one_of(big, laurent), st.integers(-10, n + 3), _ratios,
                     st.integers(-5, 5)).filter(lambda t: type(t[2]) is not int or not (
                         t[3] < 0 and abs(t[2]) == 2 or t[3] == 0 and t[2] < 0
                         and type(t[0]) is int))
    terms = draw(st.lists(term, max_size=6))
    # one Laurent term that lands makes the sum z-bearing
    landing = (draw(laurent.filter(bool)), draw(st.integers(-10, n)), draw(_ratios),
               draw(st.integers(1, 5)))
    terms.insert(draw(st.integers(0, len(terms))), landing)
    return terms, n


@settings(deadline=None, max_examples=200)
@given(_packed_case())
@example(([(ZPoly({-3: 1 << 70, 3: -(1 << 70)}), -10, ZPoly.monomial(-2, -3), 1),
           (5, 0, -2, 3), (ZPoly({1: 1}), 3, ZPoly.monomial(1, 2), -2), (1, 30, 1, 1)], 24))
def test_packed_geometric_sum_matches_div_one_minus(case):
    terms, n = case
    try:
        want = _div_one_minus_route(terms, n)
    except (NonUnitError, PoleError, TypeError) as exc:
        # a ratio 2z^k at d < 0, a pole at d = 0, or a Laurent c/2 at d = 0
        with pytest.raises(type(exc)):
            geometric_sum(iter(terms), n)
        return
    got = geometric_sum(iter(terms), n)
    assert (got.min_exp, got.order, got.coeffs) == (want.min_exp, want.order, want.coeffs)
    assert all(type(c) in (int, ZPoly) for c in got.coeffs)


@pytest.mark.parametrize("bits, size", [(5, 1), (14, 2), (20, 3), (30, 4), (36, 5),
                                        (44, 6), (52, 7), (62, 8), (70, 9)])
def test_packed_geometric_sum_slot_widths(bits, size, monkeypatch):
    # one term's rows need bits + 1 bits, in the fewest whole bytes: 1, 2,
    # 4 and 8 go through native casts, 3, 5, 6 and 7 through the next
    # castable width, 9 one slot at a time
    seen = set()
    unpack = kernels.unpack_rows

    def spy(rows, k, lo, n):
        seen.add(k)
        return unpack(rows, k, lo, n)

    monkeypatch.setattr(kernels, "unpack_rows", spy)
    top = (1 << bits) - 1
    terms = [(ZPoly({-1: top, 2: -top}), 0, ZPoly.monomial(-1, 1), 1)]
    got = geometric_sum(iter(terms), 12)
    assert seen == {size}
    assert got.coeffs == _div_one_minus_route(terms, 12).coeffs


def test_geometric_sum_refuses_a_ratio_that_is_not_a_monomial():
    # d >= 1 moves a ZPoly ratio by z^k slots; 1 + z is no such ratio
    with pytest.raises(TypeError):
        geometric_sum(iter([(1, 0, ZPoly({0: 1, 1: 1}), 1)]), 5)
    with pytest.raises(TypeError):
        geometric_sum(iter([(ZPoly({2: 3}), 0, ZPoly({0: 1, 1: 1}), 2)]), 5)


def test_z_bearing_geometric_sum_refuses_a_fraction():
    # 1/(1 + q^0) = 1/2 beside a power of z
    with pytest.raises(TypeError):
        geometric_sum(iter([(1, 0, -1, 0), (ZPoly({1: 1}), 1, 1, 1)]), 5)
    # a scalar sum keeps its rationals
    assert geometric_sum(iter([(1, 0, -1, 0)]), 5).coeffs == [Fraction(1, 2)]


@pytest.mark.parametrize("d", [-3, -1, 0, 2])
def test_one_minus_zero_is_the_factor_one(d):
    f = QSeries(0, [1, 2, 3], 5)
    assert f.div_one_minus(0, d) is f
    assert f.mul_one_minus(0, d) is f
    for zero in (0, ZPoly()):
        got = geometric_sum(iter([(7, 2, zero, d), (ZPoly({1: 1}), 0, zero, d)]), 5)
        assert (got.min_exp, got.coeffs) == (0, [ZPoly({1: 1}), 0, 7])


# -- restructuring ------------------------------------------------------------

def test_u_p_examples():
    f = QSeries(0, [1, 2, 3, 4], 3)
    assert as_dict(f.sift(2)) == {0: 1, 1: 3}
    assert f.sift(1) is f


def test_dissect_geometric():
    f = QSeries(0, [1] * 11, 10)
    parts = f.dissect(2)
    assert as_dict(parts[0]) == {e: 1 for e in range(6)}
    assert as_dict(parts[1]) == {e: 1 for e in range(5)}


def test_dissect_reassembles_randomized():
    rng = random.Random(5)
    for p in (2, 3, 5):
        for _ in range(10):
            f = rand_series(rng, int, 24)
            back = QSeries.zero(f.order)
            for i, comp in enumerate(f.dissect(p)):
                back = back + comp.inflate(p).shift(1, i)
            assert _compare(back, f, min(back.order, f.order)) is None
            sift, first = f.sift(p), f.dissect(p)[0]
            assert _compare(sift, first, min(sift.order, first.order)) is None


def test_inflate_and_alternate():
    f = QSeries(-1, [1, 0, 3], 4)
    assert as_dict(f.inflate(2)) == {-2: 1, 2: 3}
    assert f.inflate(2).order == 9
    assert as_dict(f.alternate()) == {-1: -1, 1: -3}


def test_inflate_on_zpoly_series_with_negative_min_exp():
    z = ZPoly.monomial
    f = QSeries(-2, [z(1, 1), ZPoly(), z(-2, -1), z(3, 0)], 3)
    g = f.inflate(3)
    assert (g.min_exp, g.order) == (-6, 11)
    assert as_dict(g) == {-6: z(1, 1), 0: z(-2, -1), 3: z(3, 0)}
    # the gaps inflate opens hold the scalar 0
    assert len(g.coeffs) == 10 and all(type(c) is ZPoly for c in g.coeffs[::3])
    assert all(c == 0 for i, c in enumerate(g.coeffs) if i % 3)
    assert QSeries.zero(4).inflate(2).coeffs == []


# -- geom_ratio ----------------------------------------------------------------

def test_geom_ratio_examples():
    assert geom_ratio(0, 1) == ZPoly.const(1)
    assert geom_ratio(-1, 2) == ZPoly({-1: 1, 0: 1, 1: 1})
    assert geom_ratio(2, -2) == ZPoly({-2: -1, -1: -1, 0: -1, 1: -1})
    assert geom_ratio(3, 3) == ZPoly({})


def test_geom_ratio_defining_identity():
    one_minus_z = ZPoly({0: 1, 1: -1})
    for a in range(-6, 7):
        for b in range(-6, 7):
            g = geom_ratio(a, b)
            assert one_minus_z * g == ZPoly({a: 1}) - ZPoly({b: 1})
            assert g.at_one() == b - a


# -- z evaluation ---------------------------------------------------------------

def test_eval_z_scalars():
    f = QSeries.from_terms([(0, ZPoly({1: 1, -1: 1}))], 5)
    assert f.eval_z(1).coeff(0) == 2
    assert f.eval_z(Fraction(1, 2)).coeff(0) == Fraction(5, 2)


def test_eval_z_rejects_zero():
    f = QSeries.from_terms([(0, ZPoly({1: 1}))], 5)
    with pytest.raises(ZeroDivisionError):
        f.eval_z(0)


@pytest.mark.parametrize("z0", [0.1, 2.0, 1j, "1/2"])
def test_eval_z_rejects_inexact_points(z0):
    # a float would be read as its binary expansion: only ints and
    # Fractions are exact points
    from qhecke.mock import F4_series

    p = ZPoly({-1: 1, 2: 3})
    for evaluate in (lambda: p.eval(z0), lambda: F4_series(5).eval_z(z0),
                     lambda: QSeries.zero(5).eval_z(z0)):
        with pytest.raises(TypeError):
            evaluate()


# -- comparison and serialization ------------------------------------------------

def test_first_mismatch_reports_certified_order():
    # the comparison of verify: equal through the order, or certified below it
    f = QSeries(0, [1, 2, 3], 9)
    g = QSeries(0, [1, 2, 3], 5)
    assert _compare(f, g, 5) is None
    assert _compare(f, g, 6)["rhs"] == "certified only to 5"
    h = QSeries(0, [1, 2, 4], 5)
    assert _compare(f, h, 5) == {"exp": 2, "lhs": "3", "rhs": "4", "slot": None}


def test_coeff_beyond_order_raises():
    f = QSeries(0, [1], 3)
    assert f.coeff(3) == 0
    with pytest.raises(ValueError):
        f.coeff(4)


def test_json_shapes():
    f = QSeries(-1, [Fraction(1, 2), 0, 3], 4)
    js = f.to_json()
    assert js["min_exp"] == -1 and js["order"] == 4
    assert js["coeffs"] == ["1/2", "0", "3"]
    h = QSeries.from_terms([(1, ZPoly({-1: 1, 2: 5}))], 2)
    assert h.to_json()["coeffs"][0] == {"-1": "1", "2": "5"}
    # beside a ZPoly, a scalar c is its z^0 term and zero is empty
    m = QSeries(0, [ZPoly({1: 2}), 0, -3, ZPoly()], 5)
    assert m.to_json()["coeffs"] == [{"1": "2"}, {}, {"0": "-3"}]


def test_pochhammer_step_must_be_positive():
    with pytest.raises(ValueError):
        pochhammer(monomial(1, 0, 1), 0, 3, 10)


@pytest.mark.parametrize("op", ["sift", "dissect", "inflate"])
@pytest.mark.parametrize("p", [0, -1])
def test_restructuring_rejects_p_below_one(op, p):
    # p < 1 would loop forever (sift), give no components to compare
    # (dissect) or certify a negative order (inflate)
    f = QSeries(0, [1, 2, 3, 4, 5], 4)
    with pytest.raises(ValueError, match="positive"):
        getattr(f, op)(p)


def test_alternate_on_bivariate_series():
    from qhecke.mock import F4_series
    f = F4_series(6)
    g = f.alternate()
    for e in range(1, 7):
        want = f.coeff(e) * (-1 if e % 2 else 1)
        assert g.coeff(e) == want
