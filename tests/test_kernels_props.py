"""Property tests for the dense series kernels and the aligned series sum.

Every expected value comes from naive oracles in this file (a double loop
over all index pairs, the schoolbook inverse recurrence, a dict keyed by
exponent) that share no code with the package.  The int and rational
lists straddle ``KRONECKER_MIN_NNZ`` so that both the packed and the
sparse-copy product are exercised.  ZPoly lists, alone and with plain
ints beside their entries, take the packed Laurent product, with
coefficient sizes drawn so that its slots come out 1, 2, 4, 8 and more
than 8 bytes wide, and feed the Newton inverse; a Fraction beside a
ZPoly is refused.
Fixed cases put an output coefficient exactly on the slot bound, and the
shared slot writer and reader are round-tripped at every width up to 17
bytes, on the native casts, through a wider cast, and one slot at a time.
"""

from fractions import Fraction

import pytest
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


zpoly_entries = st.builds(ZPoly, st.dictionaries(st.integers(-2, 2), st.integers(-5, 5),
                                                  max_size=2))


def integral_entries(bits):
    """Entries of Z[z, 1/z]: ZPolys with z-exponents in -40..40, plain ints
    and both zeros, coefficients up to 2^bits."""
    coeff = st.integers(-(1 << bits), 1 << bits)
    return st.one_of(st.builds(ZPoly, st.dictionaries(st.integers(-40, 40), coeff,
                                                      min_size=1, max_size=3)),
                     coeff, st.sampled_from([0, ZPoly()]))


# coefficient sizes whose products need slots of 1, 2, 4, 8 and more bytes:
# the slot holds max|b| * l1(a), about twice the bits plus the log of the
# number of monomials
entry_kinds = st.sampled_from([zpoly_entries]
                              + [integral_entries(bits) for bits in (1, 3, 10, 25, 60)])


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


@settings(deadline=None, max_examples=100)
@given(entry_kinds, st.data())
def test_conv_trunc_zpoly_and_gaussian_match_double_loop(entries, data):
    a = data.draw(ring_lists(entries))
    b = data.draw(ring_lists(entries))
    keep = data.draw(keeps(len(a), len(b)))
    for x, y in ((a, b), (b, a)):
        assert kernels.conv_trunc(x, y, keep) == naive_conv(x, y, keep)


def at_the_bound(cs, big, sign):
    """(a, b) whose product has sign * big * sum|c| at q^(r-1) z^0, r = len(cs).

    a holds c_j z^(t_j) at q^j; b holds sign*sgn(c_j)*big z^(-t_j) at
    q^(r-1-j), so every term of that coefficient has the same sign, then
    denser entries of +-1 at q^r and up, which reach only higher q.
    """
    r = len(cs)
    ts = [3 * j - 5 for j in range(r)]
    a = [ZPoly({t: c}) for t, c in zip(ts, cs)]
    b = [ZPoly({-t: sign * (1 if c > 0 else -1) * big}) for t, c in zip(ts, cs)][::-1]
    b += [ZPoly({t: (-1) ** (t + i) for t in range(-i, i + 3)}) for i in range(r + 2)]
    return a, b


def test_conv_trunc_laurent_packed_slots_at_their_bound():
    # an output coefficient equal to the slot bound max|b| * l1(a), of
    # bit length 8k - 1 (the top of a k-byte slot) and 8k (one byte more),
    # of either sign, at every width up to 9 bytes
    for k in range(1, 10):
        for cs, big in (((1,), (1 << 8 * k - 1) - 1),
                        ((1, -1), (1 << 8 * k - 2) - 1),
                        ((1, -1), 1 << 8 * k - 2),
                        ((2, -1, 1), 1 << 8 * k - 3)):
            for sign in (1, -1):
                a, b = at_the_bound(cs, big, sign)
                top = sign * big * sum(map(abs, cs))
                assert naive_conv(a, b, len(cs))[-1].c[0] == top
                for x, y in ((a, b), (b, a)):
                    for keep in (len(cs), len(a) + len(b) - 1):
                        assert kernels.conv_trunc(x, y, keep) == naive_conv(x, y, keep)


def test_conv_trunc_laurent_packed_signs_and_theta_entries():
    # every output slot negative, then theta-like entries +-(z^m - z^(1-m))
    # at q^(m(m-1)/2) against a dense operand with growing coefficients
    neg = [ZPoly({t: -(t + 4) for t in range(-3, 2)})] * T
    pos = [ZPoly({t: 3 ** (i + t + 2) for t in range(-2, 3)}) for i in range(2 * T)]
    theta = [0] * (4 * T)
    for m in range(1, 10):
        e = m * (m - 1) // 2
        if e < len(theta):
            theta[e] = ZPoly({m: (-1) ** m, 1 - m: -(-1) ** m})
    dense = [ZPoly({t: (-1) ** (i * t % 2) * 5 ** i for t in range(-i - 1, i + 2)})
             for i in range(3 * T)]
    for a, b in ((neg, pos), (theta, dense), (theta, pos)):
        for keep in (1, T, len(a) + len(b) - 1, len(a) + len(b) + 3):
            for x, y in ((a, b), (b, a)):
                assert kernels.conv_trunc(x, y, keep) == naive_conv(x, y, keep)
    out = kernels.conv_trunc(neg, pos, T)
    assert all(v < 0 for p in out for v in p.coeffs if v) and all(out)


# True: the host's casts; False: none, as on a big-endian host, so that
# every width goes one slot at a time; b-q: only the 1- and 8-byte ones,
# so that every width from 2 to 7 bytes is widened from and cut to 8
@pytest.mark.parametrize("cast", [True, False, {1: "b", 8: "q"}], ids=["True", "False", "b-q"])
@pytest.mark.parametrize("k", range(1, 18))
def test_pack_unpack_round_trip(k, cast, monkeypatch):
    # the slot writer and readers of the packed products, of F4/F8 and of
    # the packed rows of geometric_sum
    if cast is not True:
        monkeypatch.setattr(kernels, "_CAST", cast or {})
    top = (1 << 8 * k - 1) - 1
    values = [0, 1, -1, top, -top]
    lists, rows = [], []
    for n in (0, 1, 50):
        for shift in range(len(values)):
            vals = [values[(i + shift) % len(values)] for i in range(n)]
            x = kernels.pack_signed(vals, k)
            assert x == sum(v << 8 * k * i for i, v in enumerate(vals))
            assert kernels.unpack_signed(x, k, n) == vals
            # higher slots are dropped
            assert kernels.unpack_signed(x, k, n // 2) == vals[:n // 2]
            lists.append(vals)
            rows.append(x)
    # every list of this width, its zero rows (n = 0, and [0] at n = 1)
    # included, read in one call over the 50 slots of the longest
    windows = kernels.unpack_rows(rows, k, -7, 50)
    assert len(windows) == len(lists)
    for vals, window in zip(lists, windows):
        want = {i - 7: v for i, v in enumerate(vals) if v}
        if want:
            assert type(window) is ZPoly and window == ZPoly(want)
        else:
            assert window == 0 and type(window) is int


def test_conv_trunc_int_entries_beside_ring_entries():
    # the sparser operand's ints, +-1 and larger, scale ZPoly copies of
    # the denser one
    entry = ZPoly({-1: 2, 1: 3})
    dense = [entry * k + 1 for k in range(3 * T)]
    sparse = [0] * (2 * T)
    sparse[0], sparse[3], sparse[5], sparse[T] = 1, -1, 7, entry
    for keep in (1, T, 5 * T - 1, 6 * T):
        for x, y in ((sparse, dense), (dense, sparse)):
            assert kernels.conv_trunc(x, y, keep) == naive_conv(x, y, keep)


def test_conv_trunc_refuses_a_fraction_beside_a_zpoly():
    # Z[z, 1/z] holds no 1/2: a Fraction against a ZPoly, in either list
    # or beside it in one list, is refused rather than multiplied
    z, half = ZPoly({1: 1}), Fraction(1, 2)
    for a, b in (([half], [z]), ([z], [half]), ([1, half], [0, z]), ([z, half], [1])):
        for keep in (2, 5):
            with pytest.raises(TypeError):
                kernels.conv_trunc(a, b, keep)


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


@settings(deadline=None, max_examples=100)
@given(entry_kinds, st.data())
def test_inv_unit_zpoly_and_gaussian_match_recurrence(entries, data):
    # the seed 1 is the one of Z[z, 1/z] as well
    g = [1] + data.draw(ring_lists(entries, max_len=T + 4))
    keep = data.draw(st.integers(0, T + 4))
    assert kernels.inv_unit(g, keep, 1) == naive_inv(g, keep)


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
