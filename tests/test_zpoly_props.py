"""Property tests for the dense-window ZPoly and z-specialisation.

Every expected value comes from naive dict-based Laurent-polynomial
arithmetic (exponent -> nonzero coefficient) that shares no code with the
package, from term-by-term evaluation sum(v * z0**k) (also of the value at
z = -1 read by residues mod 4), and, for the value at z = i split into
real and imaginary parts, from sum(v * i**k) with i as the pair (0, 1) of
Fractions.  Coefficients are ints, as a ZPoly refuses any other.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qhecke.registry import _at_fourth_roots, _at_i
from qhecke.rings import ZPoly
from qhecke.series import QSeries

# no deadline: the shared test hosts' speed varies too much for one
prop = settings(deadline=None, max_examples=150)


# -- naive oracle (independent of the package internals) ---------------------

def naive_add(a, b, sign=1):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
    return {k: v for k, v in out.items() if v}


def naive_mul(a, b):
    out = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + v1 * v2
    return {k: v for k, v in out.items() if v}


def naive_str(a):
    if not a:
        return "0"
    parts = []
    for k in sorted(a):
        v = a[k]
        if k == 0:
            parts.append(str(v))
        else:
            zs = "z" if k == 1 else f"z^{k}"
            parts.append(zs if v == 1 else f"-{zs}" if v == -1 else f"{v}*{zs}")
    return " + ".join(parts).replace("+ -", "- ")


def naive_eval(a, z0):
    return sum(v * Fraction(z0) ** k for k, v in a.items())


def naive_at_i(a):
    """sum(v * i**k) as a (real, imaginary) pair of Fractions: each term
    is (v, 0) times i, as (x, y) -> (-y, x), k mod 4 times."""
    re = im = Fraction(0)
    for k, v in a.items():
        x, y = Fraction(v), Fraction(0)
        for _ in range(k % 4):
            x, y = -y, x
        re, im = re + x, im + y
    return re, im


# -- strategies ----------------------------------------------------------------

coeffs = st.integers(-5, 5)


@st.composite
def laurent(draw):
    """(dict with zero values kept, nonzero-only oracle dict).

    Windows start at negative or positive exponents and may hold interior
    and end zeros; an empty or all-zero window is the zero polynomial.
    """
    lo = draw(st.integers(-6, 6))
    window = draw(st.one_of(st.lists(coeffs, max_size=8),
                            coeffs.map(lambda v: [v])))
    raw = {lo + i: v for i, v in enumerate(window)}
    return raw, {k: v for k, v in raw.items() if v}


nonzero_rationals = st.fractions(min_value=-4, max_value=4,
                                 max_denominator=5).filter(bool)
points = st.one_of(st.sampled_from([-1, 1, 2, Fraction(-1, 3)]), nonzero_rationals)


# -- properties ----------------------------------------------------------------

@prop
@given(laurent(), laurent())
def test_ring_ops_match_dict_oracle(p, q):
    (pr, pd), (qr, qd) = p, q
    a, b = ZPoly(pr), ZPoly(qr)
    assert a.c == pd and b.c == qd
    assert (a + b).c == naive_add(pd, qd)
    assert (a - b).c == naive_add(pd, qd, -1)
    assert (-a).c == naive_add({}, pd, -1)
    assert (a * b).c == naive_mul(pd, qd)
    assert (a == b) == (pd == qd)
    if pd == qd:
        assert hash(a) == hash(b)


@prop
@given(laurent(), coeffs)
def test_scalar_ops_match_dict_oracle(p, s):
    raw, d = p
    a = ZPoly(raw)
    const = {0: s} if s else {}
    assert (a + s).c == (s + a).c == naive_add(d, const)
    assert (a - s).c == naive_add(d, const, -1)
    assert (s - a).c == naive_add(const, d, -1)
    assert (a * s).c == (s * a).c == naive_mul(d, const)
    assert (a == s) == (d == const)
    assert (ZPoly.const(s) == s) and hash(ZPoly.const(s)) == hash(s)


@prop
@given(laurent())
def test_queries_match_dict_oracle(p):
    raw, d = p
    a = ZPoly(raw)
    assert bool(a) == bool(d)
    assert str(a) == naive_str(d)
    assert a.at_one() == sum(d.values())
    if d:
        lo, hi = min(d), max(d)
        assert a.lo == lo and len(a.coeffs) == hi - lo + 1
        assert a.coeffs[0] and a.coeffs[-1]
    else:
        assert a.lo == 0 and a.coeffs == ()


@prop
@given(laurent(), points)
def test_eval_matches_termwise_sum(p, z0):
    raw, d = p
    got = ZPoly(raw).eval(z0)
    assert got == naive_eval(d, z0)


def zpoly_series(polys, min_exp):
    """(series, oracle dicts, order): the polys as the coefficients of
    q^min_exp, q^(min_exp + 1), ..., certified one past the last."""
    # an interior plain 0, as the convolution kernel leaves where no pair lands
    coeffs = [ZPoly(raw) for raw, _ in polys]
    dicts = [d for _, d in polys]
    if len(coeffs) > 2:
        coeffs[1], dicts[1] = 0, {}
    order = min_exp + len(coeffs) + 1
    return QSeries(min_exp, coeffs, order), dicts, order


@prop
@given(st.lists(laurent(), min_size=1, max_size=6), st.integers(-3, 3), points)
def test_eval_z_matches_termwise_sum(polys, min_exp, z0):
    f, dicts, order = zpoly_series(polys, min_exp)
    g = f.eval_z(z0)
    assert g.order == order
    for i, d in enumerate(dicts):
        assert g.coeff(min_exp + i) == naive_eval(d, z0)
    assert g.coeff(order) == 0


@prop
@given(st.lists(laurent(), min_size=1, max_size=6), st.integers(-5, 3))
def test_at_i_matches_termwise_sum(polys, min_exp):
    f, dicts, order = zpoly_series(polys, min_exp)
    re, im = _at_i(f)
    assert all(type(c) is int for c in re.coeffs + im.coeffs)
    assert re.order == im.order == order
    for i, d in enumerate(dicts):
        assert (re.coeff(min_exp + i), im.coeff(min_exp + i)) == naive_at_i(d)
    assert re.coeff(order) == im.coeff(order) == 0


@prop
@given(st.lists(laurent(), min_size=1, max_size=6), st.integers(-5, 3))
def test_at_minus_one_matches_termwise_sum(polys, min_exp):
    f, dicts, order = zpoly_series(polys, min_exp)
    (g,) = _at_fourth_roots(f, (1, -1, 1, -1))
    assert all(type(c) is int for c in g.coeffs)
    assert g.order == order
    for i, d in enumerate(dicts):
        assert g.coeff(min_exp + i) == naive_eval(d, -1)
    assert g.coeff(order) == 0
