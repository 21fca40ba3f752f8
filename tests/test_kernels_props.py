"""Property tests for the dense series kernels and the aligned series sum.

Every expected value comes from naive oracles in this file (a double loop
over all index pairs, the schoolbook inverse recurrence, a dict keyed by
exponent) that share no code with the package.  The int lists straddle
``KRONECKER_MIN_NNZ`` so that both the packed and the schoolbook product
are exercised.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qhecke import kernels
from qhecke.rings import QQ, ZZ
from qhecke.series import INF, QSeries

# no deadline: the shared test hosts' speed varies too much for one
prop = settings(deadline=None, max_examples=120)

T = kernels.KRONECKER_MIN_NNZ


# -- naive oracles (independent of the package internals) ---------------------

def naive_conv(a, b, keep):
    n = min(keep, len(a) + len(b) - 1) if a and b else 0
    out = [0] * max(n, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                out[i + j] += x * y
    return out


def naive_inv(g, keep):
    out = [0] * keep
    if keep:
        out[0] = 1
    for k in range(1, keep):
        out[k] = -sum(g[i] * out[k - i] for i in range(1, min(k, len(g) - 1) + 1))
    return out


def terms(f):
    return dict(f.nonzero_terms())


# -- strategies ----------------------------------------------------------------

@st.composite
def int_lists(draw, max_len=3 * T):
    """Signed ints of 1 to 300 bits: dense, mostly zero, or all zero."""
    n = draw(st.integers(0, max_len))
    bits = draw(st.integers(1, 300))
    value = st.integers(-(1 << bits), 1 << bits)
    kind = draw(st.sampled_from(["dense", "sparse", "zero"]))
    if kind == "dense":
        return draw(st.lists(value, min_size=n, max_size=n))
    out = [0] * n
    if kind == "sparse" and n:
        for i in draw(st.lists(st.integers(0, n - 1), max_size=n // 4 + 1)):
            out[i] = draw(value)
    return out


def keeps(la, lb):
    """keep below, equal to and above la + lb - 1."""
    return st.integers(0, la + lb + 2)


mixed = st.one_of(st.integers(-7, 7),
                  st.fractions(min_value=-4, max_value=4, max_denominator=9))


@st.composite
def mixed_lists(draw, max_len=2 * T + 4):
    """QQ coefficient lists: mostly ints, with a few Fractions among them."""
    out = draw(st.lists(st.integers(-7, 7), max_size=max_len))
    if out:
        for i in draw(st.lists(st.integers(0, len(out) - 1), max_size=3)):
            out[i] = draw(st.fractions(min_value=-4, max_value=4, max_denominator=9))
    return out


@st.composite
def series(draw, ring):
    coeff = st.integers(-3, 3) if ring is ZZ else mixed
    min_exp = draw(st.integers(-8, 12))
    coeffs = draw(st.lists(coeff, max_size=20))
    order = draw(st.one_of(st.just(INF), st.integers(-10, 30)))
    return QSeries(ring, min_exp, coeffs, order)


# -- conv_trunc ------------------------------------------------------------------

@prop
@given(st.data())
def test_conv_trunc_int_matches_double_loop(data):
    a = data.draw(int_lists())
    b = data.draw(int_lists())
    keep = data.draw(keeps(len(a), len(b)))
    out = kernels.conv_trunc(a, b, keep)
    assert out == naive_conv(a, b, keep)
    assert all(type(x) is int for x in out)


@prop
@given(st.data())
def test_conv_trunc_mixed_int_fraction_matches_double_loop(data):
    a = data.draw(mixed_lists())
    b = data.draw(mixed_lists())
    keep = data.draw(keeps(len(a), len(b)))
    assert kernels.conv_trunc(a, b, keep) == naive_conv(a, b, keep)


def test_conv_trunc_packed_path_signs_and_carries():
    # every slot negative, every slot at the top of its range, and a mixed run
    for a, b in (([-1] * (2 * T), [-1] * (2 * T)),
                 ([(1 << 200) - 1] * (2 * T), [-(1 << 100)] * (3 * T)),
                 ([(-1) ** i * (i + 1) ** 7 for i in range(4 * T)],
                  [(-1) ** (i // 3) * 3 ** i for i in range(2 * T)])):
        for keep in (1, len(a), len(a) + len(b) - 1, len(a) + len(b) + 5):
            assert kernels.conv_trunc(a, b, keep) == naive_conv(a, b, keep)


# -- inv_unit --------------------------------------------------------------------

@prop
@given(st.data())
def test_inv_unit_int_is_the_inverse(data):
    g = [1] + data.draw(int_lists())
    keep = data.draw(st.integers(0, 4 * T))
    h = kernels.inv_unit(g, keep, 1)
    assert h == naive_inv(g, keep)
    assert all(type(x) is int for x in h)
    # h * g == 1 + O(q^keep)
    assert naive_conv(h, g, keep) == ([1] + [0] * (keep - 1) if keep else [])


@prop
@given(mixed_lists(), st.integers(0, 2 * T))
def test_inv_unit_mixed_matches_recurrence(tail, keep):
    g = [1] + tail
    assert kernels.inv_unit(g, keep, 1) == naive_inv(g, keep)


# -- QSeries.__add__ ---------------------------------------------------------------

@prop
@given(st.sampled_from([ZZ, QQ]).flatmap(lambda r: st.tuples(series(r), series(r))))
def test_series_add_matches_dict(pair):
    f, g = pair
    order = min(f.order, g.order)
    expected = dict(terms(f))
    for e, c in terms(g).items():
        expected[e] = expected.get(e, 0) + c
    expected = {e: c for e, c in expected.items() if c and e <= order}
    s = f + g
    assert s.order == order
    assert terms(s) == expected


def test_series_add_clips_operand_above_the_other_order():
    # q^10 + ... + q^20 lies wholly above the order of 1 + q + q^2 + q^3 + O(q^4)
    f = QSeries(ZZ, 0, [1, 1, 1, 1], 3)
    g = QSeries(ZZ, 10, list(range(1, 12)), INF)
    for s in (f + g, g + f):
        assert s.order == 3
        assert terms(s) == {0: 1, 1: 1, 2: 1, 3: 1}
    h = QSeries(QQ, 2, [Fraction(1, 2)] * 12, INF)
    assert terms(f.over(QQ) + h) == {0: 1, 1: 1, 2: Fraction(3, 2), 3: Fraction(3, 2)}
