"""Order soundness: a series operation claims no more than its inputs know.

Each operation is run twice: on series certified through some finite
order, and on longer series that agree with them through that order and
carry random coefficients beyond it.  Through the order the first result
claims, both results must have the same coefficients, and the longer
inputs must certify at least as far.  A jet is checked the same way, each
of its two series a truncated pair.  The builders geometric_sum and
Deferred.eta_sum take exact terms and an order instead: the same terms
summed to a longer order must agree with them through the order they
claim.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qhecke.jets import Jet1
from qhecke.rings import ZPoly
from qhecke.series import INF, QSeries, geometric_sum
from qhecke.theta import Deferred

prop = settings(deadline=None, max_examples=150)

# coefficient kinds: rationals, or Laurent polynomials in Z[z, 1/z]
all_kinds = st.sampled_from(["rational", "laurent"])

ints = st.integers(-3, 3)
rationals = st.one_of(ints, st.fractions(min_value=-4, max_value=4, max_denominator=50))


def coeffs_of(kind):
    if kind == "laurent":
        return st.dictionaries(st.integers(-3, 3), ints, max_size=3).map(ZPoly)
    return rationals


# z-monomials +-z^k
z_units = st.builds(ZPoly.monomial, st.sampled_from([1, -1]), st.integers(-2, 2))


@st.composite
def truncated_pair(draw, kind, unit=False):
    """(f, longer): f certified through a finite order, and a longer
    series with the same coefficients through it.

    With ``unit``, f has a nonzero term through its order whose
    coefficient is a unit, so that f can be inverted: any nonzero
    rational, or +-z^k among Laurent coefficients.
    """
    coeff = coeffs_of(kind)
    min_exp = draw(st.integers(-6, 8))
    coeffs = draw(st.lists(coeff, max_size=12))
    if unit:
        lead = z_units if kind == "laurent" else coeff.filter(bool)
        coeffs = [draw(lead)] + coeffs
        order = draw(st.integers(min_exp, min_exp + 14))
    else:
        order = draw(st.integers(min_exp - 2, min_exp + 14))
    f = QSeries(min_exp, coeffs, order)
    extra = draw(st.lists(coeff, min_size=1, max_size=12))
    beyond = [(order + 1 + i, c) for i, c in enumerate(extra)]
    longer_order = order + len(extra) + draw(st.integers(0, 3))
    longer = QSeries.from_terms(list(f.nonzero_terms()) + beyond, longer_order)
    return f, longer


def has_kind(series, kind):
    """Every coefficient an int or a Fraction (rational), or every
    nonzero one a ZPoly of ints (laurent: a gap may hold the scalar 0)."""
    if kind == "rational":
        return all(type(c) in (int, Fraction) for c in series.coeffs)
    return all(type(c) is ZPoly and all(type(v) is int for v in c.coeffs)
               for c in series.coeffs if c)


def assert_agree(r, longer):
    assert longer.order >= r.order
    through = {e: c for e, c in longer.nonzero_terms() if e <= r.order}
    assert dict(r.nonzero_terms()) == through


@prop
@given(all_kinds.flatmap(lambda k: st.tuples(truncated_pair(k), truncated_pair(k))))
def test_mul_claims_no_more_than_its_inputs_know(pairs):
    (f, f_long), (g, g_long) = pairs
    assert_agree(f * g, f_long * g_long)


@prop
@given(all_kinds.flatmap(lambda k: truncated_pair(k, unit=True)))
def test_invert_claims_no_more_than_its_input_knows(pair):
    f, f_long = pair
    inv = f.invert()
    assert inv.order is not INF
    assert_agree(inv, f_long.invert())


@prop
@given(all_kinds.flatmap(lambda k: truncated_pair(k)), st.integers(0, 4))
def test_positive_pow_claims_no_more_than_its_input_knows(pair, k):
    f, f_long = pair
    assert_agree(f ** k, f_long ** k)


@prop
@given(all_kinds.flatmap(lambda k: truncated_pair(k, unit=True)), st.integers(-4, -1))
def test_negative_pow_claims_no_more_than_its_input_knows(pair, k):
    f, f_long = pair
    assert_agree(f ** k, f_long ** k)


@prop
@given(all_kinds.flatmap(lambda k: st.tuples(truncated_pair(k), truncated_pair(k))))
def test_add_claims_no_more_than_its_inputs_know(pairs):
    (f, f_long), (g, g_long) = pairs
    assert_agree(f + g, f_long + g_long)


@prop
@given(all_kinds.flatmap(lambda k: st.tuples(truncated_pair(k), truncated_pair(k))))
def test_sub_claims_no_more_than_its_inputs_know(pairs):
    (f, f_long), (g, g_long) = pairs
    assert_agree(f - g, f_long - g_long)


def linear_factor(kind, d, divide):
    """c for a factor 1 - c*q^d; when dividing, one that div_one_minus
    accepts: c a unit or 0 for d < 0, and 1 - c a unit for d = 0.  For
    Laurent coefficients c is +-z^k, or 0 for d < 0, and for d = 0 it is
    1 - (+-z^k), as the units of Z[z, 1/z] are the +-z^k."""
    if kind == "laurent":
        if divide and d < 0:
            return st.one_of(z_units, st.just(ZPoly()))
        return z_units.map(lambda u: 1 - u) if divide and d == 0 else z_units
    if divide and d == 0:
        return coeffs_of(kind).filter(lambda c: c != 1)
    return coeffs_of(kind)


def linear_case(divide):
    """(kind, (f, longer), c, d) with d < 0, d = 0 and d > 0 all drawn."""
    return st.tuples(all_kinds, st.sampled_from([-1, 0, 1]), st.integers(1, 5)).flatmap(
        lambda t: st.tuples(st.just(t[0]), truncated_pair(t[0]),
                            linear_factor(t[0], t[1] * t[2], divide),
                            st.just(t[1] * t[2])))


@prop
@given(linear_case(divide=False))
def test_mul_one_minus_claims_no_more_than_its_input_knows(case):
    _, (f, f_long), c, d = case
    assert_agree(f.mul_one_minus(c, d), f_long.mul_one_minus(c, d))


@prop
@given(linear_case(divide=True))
def test_div_one_minus_claims_no_more_than_its_input_knows(case):
    _, (f, f_long), c, d = case
    assert_agree(f.div_one_minus(c, d), f_long.div_one_minus(c, d))


@prop
@given(all_kinds.flatmap(lambda k: truncated_pair(k)), st.integers(1, 4))
def test_sift_claims_no_more_than_its_input_knows(pair, p):
    f, f_long = pair
    assert_agree(f.sift(p), f_long.sift(p))


@prop
@given(all_kinds.flatmap(lambda k: truncated_pair(k)), st.integers(1, 4))
def test_dissect_claims_no_more_than_its_input_knows(pair, p):
    f, f_long = pair
    parts, long_parts = f.dissect(p), f_long.dissect(p)
    assert len(parts) == len(long_parts) == p
    for part, long_part in zip(parts, long_parts):
        assert_agree(part, long_part)


@prop
@given(all_kinds.flatmap(lambda k: truncated_pair(k)))
def test_alternate_claims_no_more_than_its_input_knows(pair):
    f, f_long = pair
    assert_agree(f.alternate(), f_long.alternate())


@prop
@given(truncated_pair("laurent"), rationals.filter(bool))
def test_eval_z_claims_no_more_than_its_input_knows(pair, z0):
    f, f_long = pair
    assert_agree(f.eval_z(z0), f_long.eval_z(z0))


@prop
@given(truncated_pair("laurent"))
def test_z_at_one_claims_no_more_than_its_input_knows(pair):
    f, f_long = pair
    assert_agree(f.subs_z_one(), f_long.subs_z_one())
    assert_agree(f.dz_at_one(), f_long.dz_at_one())


@prop
@given(all_kinds.flatmap(lambda k: st.tuples(truncated_pair(k), coeffs_of(k))),
       st.integers(-6, 6))
def test_shift_claims_no_more_than_its_input_knows(pair_c, d):
    (f, f_long), c = pair_c
    assert_agree(f.shift(c, d), f_long.shift(c, d))


@prop
@given(all_kinds.flatmap(lambda k: st.tuples(truncated_pair(k), coeffs_of(k))))
def test_scale_claims_no_more_than_its_input_knows(pair_c):
    (f, f_long), c = pair_c
    assert_agree(f.scale(c), f_long.scale(c))


@prop
@given(all_kinds.flatmap(lambda k: truncated_pair(k)), st.integers(-8, 24))
def test_truncate_claims_no_more_than_its_input_knows(pair, n):
    f, f_long = pair
    got = f.truncate(n)
    assert got.order == min(f.order, n)
    assert_agree(got, f_long.truncate(n))


@prop
@given(all_kinds.flatmap(lambda k: truncated_pair(k)), st.integers(1, 4))
def test_inflate_claims_no_more_than_its_input_knows(pair, p):
    f, f_long = pair
    assert_agree(f.inflate(p), f_long.inflate(p))


@st.composite
def jet_pair(draw, unit=False):
    """(jet, longer): a Jet1 of two truncated rational series, and the jet of
    their longer partners.  With ``unit``, the value series can be
    inverted."""
    (f0, f0_long), (f1, f1_long) = draw(truncated_pair("rational", unit)), draw(truncated_pair("rational"))
    return Jet1(f0, f1), Jet1(f0_long, f1_long)


def assert_jets_agree(r, longer):
    assert_agree(r.f0, longer.f0)
    assert_agree(r.f1, longer.f1)


@prop
@given(all_kinds.flatmap(lambda k: truncated_pair(k)))
def test_jet_of_claims_no_more_than_its_input_knows(pair):
    f, f_long = pair
    assert_jets_agree(Jet1.of(f), Jet1.of(f_long))


@prop
@given(jet_pair(), jet_pair())
def test_jet_mul_claims_no_more_than_its_inputs_know(pair, other):
    (j, j_long), (k, k_long) = pair, other
    assert_jets_agree(j * k, j_long * k_long)


@prop
@given(jet_pair(), jet_pair(unit=True))
def test_jet_div_claims_no_more_than_its_inputs_know(pair, other):
    (j, j_long), (k, k_long) = pair, other
    assert_jets_agree(j * k.invert(), j_long * k_long.invert())


@st.composite
def geometric_terms(draw, kind):
    """Up to four (c, e, r, d) terms of c q^e/(1 - r q^d) that geometric_sum
    accepts: r as linear_factor draws it for d < 0, d = 0 and d > 0, so
    rational r with rational c, and r = +-z^k, or 1 - (+-z^k) at d = 0,
    with Laurent c."""
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        d = draw(st.integers(-4, 4))
        r = draw(linear_factor(kind, d, divide=True))
        terms.append((draw(coeffs_of(kind)), draw(st.integers(-8, 12)), r, d))
    return terms


@prop
@given(all_kinds.flatmap(lambda k: st.tuples(st.just(k), geometric_terms(k))),
       st.integers(-4, 16), st.integers(1, 8))
def test_geometric_sum_claims_no_more_than_its_terms_know(case, n, more):
    kind, terms = case
    got = geometric_sum(terms, n)
    assert has_kind(got, kind) and got.order == n
    assert_agree(got, geometric_sum(terms, n + more))


# (c, s, {delta: r}) terms of c q^s prod J_delta^r
eta_terms = st.lists(st.tuples(st.integers(-6, 6),
                               st.dictionaries(st.integers(1, 6), st.integers(-3, 3),
                                               max_size=3)),
                     max_size=3)


@prop
@given(st.lists(rationals, min_size=3, max_size=3), eta_terms, st.integers(-4, 30),
       st.integers(1, 8))
def test_eta_sum_claims_no_more_than_its_terms_know(cs, shifts_powers, n, more):
    terms = [(c, s, powers) for c, (s, powers) in zip(cs, shifts_powers)]
    got = Deferred.eta_sum(terms).build(n)
    assert has_kind(got, "rational") and got.order == n
    assert_agree(got, Deferred.eta_sum(terms).build(n + more))


# -- Deferred steps ----------------------------------------------------------
# A leaf is an exact series with its valuation as low, built by truncation
# to the order it is asked for.  A step built at n must certify at least
# q^n, start no lower than its low, and agree through q^n with its build at
# 2n + 7.

step_prop = settings(deadline=None, max_examples=50)
step_orders = st.integers(-4, 20)


@st.composite
def leaf(draw, kind, lows=st.integers(-6, 8)):
    coeff = coeffs_of(kind)
    lead = z_units if kind == "laurent" else coeff.filter(bool)
    min_exp = draw(lows)
    f = QSeries(min_exp, [draw(lead)] + draw(st.lists(coeff, max_size=16)), INF)
    return Deferred(min_exp, f.truncate)


def assert_step(step, n):
    short, deep = step.build(n), step.build(2 * n + 7)
    if not isinstance(short, tuple):
        short, deep = (short,), (deep,)
    assert len(short) == len(deep)
    for f, g in zip(short, deep):
        for a, b in ((f.f0, g.f0), (f.f1, g.f1)) if isinstance(f, Jet1) else ((f, g),):
            assert a.order >= n
            low = a.valuation()
            assert low is None or low >= step.low
            assert_agree(a.truncate(n), b)


@step_prop
@given(all_kinds.flatmap(leaf), st.integers(1, 4), step_orders)
def test_deferred_sift_builds_what_it_claims(f, p, n):
    assert_step(f.sift(p), n)


@step_prop
@given(all_kinds.flatmap(leaf), st.integers(1, 4), step_orders)
def test_deferred_inflate_builds_what_it_claims(f, p, n):
    assert_step(f.inflate(p), n)


@step_prop
@given(all_kinds.flatmap(leaf), st.integers(1, 4), step_orders)
def test_deferred_dissect_builds_what_it_claims(f, p, n):
    assert_step(f.dissect(p), n)


def scale(f):
    # a ZPoly refuses a Fraction, so a Laurent series is scaled by an int
    return f.scale(-3 if any(type(c) is ZPoly for c in f.coeffs) else Fraction(-3, 2))


MAPS = {"alternate": QSeries.alternate, "scale": scale,
        "eval_z": lambda f: f.eval_z(Fraction(2, 3)), "Jet1.of": Jet1.of,
        "f1": lambda f: Jet1.of(f).f1}


@step_prop
@given(all_kinds.flatmap(leaf), st.sampled_from(sorted(MAPS)), step_orders)
def test_deferred_map_builds_what_it_claims(f, name, n):
    assert_step(f.map(MAPS[name]), n)


@step_prop
@given(leaf("laurent"), rationals.filter(bool), st.integers(-6, 6), step_orders)
def test_deferred_jet_shift_builds_what_it_claims(f, c, d, n):
    # Deferred.shift of a jet runs Jet1.shift on both of its series
    assert_step(f.map(Jet1.of).shift(c, d), n)


# products and powers asked for less than their low still certify what they
# are asked for: each factor is built far enough to show where it starts
def small_leaf(kind):
    return leaf(kind, st.integers(-3, 3))


wide_orders = st.integers(-6, 40)


@step_prop
@given(all_kinds.flatmap(lambda k: st.tuples(small_leaf(k), small_leaf(k))), wide_orders)
def test_deferred_mul_builds_what_it_claims(fg, n):
    # both factors of one kind: a Fraction has no product with a ZPoly
    f, g = fg
    assert_step(f * g, n)


@step_prop
@given(all_kinds.flatmap(small_leaf), st.integers(1, 3), wide_orders)
def test_deferred_pow_builds_what_it_claims(f, k, n):
    assert_step(f ** k, n)


def test_shifted_product_and_power_certify_their_order():
    # q^3 (1 * 1) built at 1 builds the product at -2, below both factors' low
    one = Deferred(0, lambda n: QSeries.one(n))
    for step in (one * one, one ** 2):
        assert step.shift(1, 3).build(1).order >= 1
