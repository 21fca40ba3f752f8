"""Property tests for the dense series kernels and the aligned series sum.

Every expected value comes from naive oracles in this file (a double loop
over all index pairs, the schoolbook inverse recurrence, a dict keyed by
exponent) that share no code with the package.  The int and rational
lists straddle ``KRONECKER_MIN_NNZ`` so that both the packed and the
sparse-copy product are exercised; ZPoly lists, alone and with plain
ints beside their entries, take the sparse-copy product and the Newton
inverse.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qhecke import kernels
from qhecke.rings import ZPoly
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
    """Rational coefficient lists: mostly ints, with a few Fractions among them."""
    out = draw(st.lists(st.integers(-7, 7), max_size=max_len))
    if out:
        for i in draw(st.lists(st.integers(0, len(out) - 1), max_size=3)):
            out[i] = draw(st.fractions(min_value=-4, max_value=4, max_denominator=9))
    return out


@st.composite
def series(draw, coeff):
    """A series with coefficients drawn from coeff."""
    min_exp = draw(st.integers(-8, 12))
    coeffs = draw(st.lists(coeff, max_size=20))
    order = draw(st.one_of(st.just(INF), st.integers(-10, 30)))
    return QSeries(min_exp, coeffs, order)


# Primes of 100 to 200 bits, for denominators no witness shares.
BIG_PRIMES = (2**100 - 15, 2**107 - 1, 2**127 - 1, 2**130 - 5, 2**150 - 3,
              2**192 - 2**64 - 1, 2**200 - 75)

# 2^i 3^j 5^k, as the rational witnesses z0 = p/q with |p|, |q| <= 5 and
# their powers produce, up to about 5^60
smooth = st.builds(lambda i, j, k: 2**i * 3**j * 5**k,
                   st.integers(0, 40), st.integers(0, 40), st.integers(0, 60))
denominators = st.one_of(smooth, st.sampled_from(BIG_PRIMES),
                         st.builds(lambda p, d: p * d, st.sampled_from(BIG_PRIMES), smooth))


@st.composite
def rational_lists(draw, max_len=3 * T):
    """Hard rational lists: all Fractions, ints among Fractions, or ints with
    one entry over a huge denominator."""
    n = draw(st.one_of(st.integers(0, T - 1), st.integers(T, max_len)))
    num = st.integers(-(1 << 64), 1 << 64)
    kind = draw(st.sampled_from(["fraction", "mixed", "one-huge"]))
    if kind == "one-huge":
        out = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
        if n:
            huge = 5**60 * draw(st.sampled_from(BIG_PRIMES))
            out[draw(st.integers(0, n - 1))] = Fraction(draw(num), huge)
        return out
    dens = draw(st.lists(denominators, min_size=1, max_size=4))
    frac = st.builds(Fraction, num, st.sampled_from(dens))
    if kind == "fraction":
        return draw(st.lists(frac, min_size=n, max_size=n))
    return draw(st.lists(st.one_of(num, frac), min_size=n, max_size=n))


small = st.one_of(st.integers(-5, 5),
                  st.fractions(min_value=-3, max_value=3, max_denominator=7))
zpoly_entries = st.builds(ZPoly, st.dictionaries(st.integers(-2, 2), small, max_size=2))


@st.composite
def ring_lists(draw, entries, max_len=2 * T + 4):
    """ZPoly lists: all ZPoly entries (zeros among them), or a sparse
    int list, +-1 included, with a few ZPoly entries beside its ints."""
    n = draw(st.integers(0, max_len))
    if draw(st.booleans()):
        return draw(st.lists(entries, min_size=n, max_size=n))
    out = [0] * n
    for i in draw(st.lists(st.integers(0, n - 1), max_size=n // 3 + 1)) if n else ():
        out[i] = draw(st.one_of(st.sampled_from([1, -1, 2, -3]), entries))
    return out


def rational(out):
    """Every entry an int, or a Fraction that is not an integer."""
    return all(type(x) is int or (type(x) is Fraction and x.denominator != 1)
               for x in out)


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


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_conv_trunc_rational_matches_double_loop(data):
    a = data.draw(rational_lists())
    b = data.draw(st.one_of(rational_lists(), int_lists()))
    keep = data.draw(keeps(len(a), len(b)))
    for x, y in ((a, b), (b, a)):
        out = kernels.conv_trunc(x, y, keep)
        assert out == naive_conv(x, y, keep)
        assert rational(out)


def test_one_huge_denominator_anywhere_in_the_list():
    huge = 5**60 * BIG_PRIMES[-1]
    for n in (T - 1, 3 * T):
        base = [(-1) ** i * (i % 7 + 1) for i in range(n)]
        for pos in (0, n // 2, n - 1):
            a = list(base)
            a[pos] = Fraction(2 * pos + 1, huge)
            for b in (base, a):
                for keep in (n, 2 * n - 1):
                    out = kernels.conv_trunc(a, b, keep)
                    assert out == naive_conv(a, b, keep)
                    assert rational(out)
            h = kernels.inv_unit([1] + a, n + 4, 1)
            assert h == naive_inv([1] + a, n + 4)
            assert rational(h)


def test_conv_trunc_packed_path_signs_and_carries():
    # every slot negative, every slot at the top of its range, and a mixed run
    for a, b in (([-1] * (2 * T), [-1] * (2 * T)),
                 ([(1 << 200) - 1] * (2 * T), [-(1 << 100)] * (3 * T)),
                 ([(-1) ** i * (i + 1) ** 7 for i in range(4 * T)],
                  [(-1) ** (i // 3) * 3 ** i for i in range(2 * T)])):
        for keep in (1, len(a), len(a) + len(b) - 1, len(a) + len(b) + 5):
            assert kernels.conv_trunc(a, b, keep) == naive_conv(a, b, keep)


@prop
@given(st.data())
def test_conv_trunc_sparse_int_operand_on_either_side(data):
    # one operand below KRONECKER_MIN_NNZ nonzeros, of +-1 and larger
    # entries, against a longer and denser one, in both argument orders
    n = data.draw(st.integers(1, 4 * T))
    sparse = [0] * n
    for i in data.draw(st.lists(st.integers(0, n - 1), max_size=T - 1)):
        sparse[i] = data.draw(st.sampled_from([1, -1, 2, -3, 1 << 70, -(1 << 65)]))
    dense = data.draw(st.lists(st.integers(-(1 << 80), 1 << 80), min_size=1, max_size=4 * T))
    keep = data.draw(keeps(n, len(dense)))
    for x, y in ((sparse, dense), (dense, sparse)):
        out = kernels.conv_trunc(x, y, keep)
        assert out == naive_conv(x, y, keep)
        assert all(type(v) is int for v in out)


@settings(deadline=None, max_examples=60)
@given(st.tuples(ring_lists(zpoly_entries), ring_lists(zpoly_entries)), st.data())
def test_conv_trunc_zpoly_and_gaussian_match_double_loop(pair, data):
    a, b = pair
    keep = data.draw(keeps(len(a), len(b)))
    for x, y in ((a, b), (b, a)):
        assert kernels.conv_trunc(x, y, keep) == naive_conv(x, y, keep)


def test_conv_trunc_int_entries_beside_ring_entries():
    # the sparser operand's ints, +-1 and larger, scale ZPoly copies of
    # the denser one
    entry = ZPoly({-1: 2, 1: Fraction(1, 3)})
    dense = [entry * k + 1 for k in range(3 * T)]
    sparse = [0] * (2 * T)
    sparse[0], sparse[3], sparse[5], sparse[T] = 1, -1, 7, entry
    for keep in (1, T, 5 * T - 1, 6 * T):
        for x, y in ((sparse, dense), (dense, sparse)):
            assert kernels.conv_trunc(x, y, keep) == naive_conv(x, y, keep)


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


@settings(deadline=None, max_examples=60)
@given(rational_lists(max_len=2 * T), st.integers(0, 2 * T + 4))
def test_inv_unit_rational_matches_recurrence(tail, keep):
    g = [1] + tail
    h = kernels.inv_unit(g, keep, 1)
    assert h == naive_inv(g, keep)
    assert rational(h)


@settings(deadline=None, max_examples=60)
@given(ring_lists(zpoly_entries, max_len=T + 4), st.integers(0, T + 4))
def test_inv_unit_zpoly_and_gaussian_match_recurrence(tail, keep):
    # the seed 1 is the one of Q[z, 1/z] as well
    g = [1] + tail
    assert kernels.inv_unit(g, keep, 1) == naive_inv(g, keep)


@prop
@given(st.data())
def test_inv_newton_resumes_from_a_known_prefix(data):
    g = [1] + data.draw(st.one_of(int_lists(), mixed_lists()))
    keep = data.draw(st.integers(1, 4 * T))
    m = data.draw(st.integers(1, keep))
    known = naive_inv(g, m)
    assert kernels._inv_newton(g, keep, known) == naive_inv(g, keep)


# -- QSeries.__add__ ---------------------------------------------------------------

@prop
@given(st.sampled_from([st.integers(-3, 3), mixed]).flatmap(
    lambda c: st.tuples(series(c), series(c))))
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
    f = QSeries(0, [1, 1, 1, 1], 3)
    g = QSeries(10, list(range(1, 12)), INF)
    for s in (f + g, g + f):
        assert s.order == 3
        assert terms(s) == {0: 1, 1: 1, 2: 1, 3: 1}
    h = QSeries(2, [Fraction(1, 2)] * 12, INF)
    assert terms(f + h) == {0: 1, 1: 1, 2: Fraction(3, 2), 3: Fraction(3, 2)}
