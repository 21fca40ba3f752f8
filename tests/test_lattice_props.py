"""Exact index ranges of the truncated sums, against brute force.

``lattice_range`` is compared with a scan over a box that contains every
solution, and the theta, Appell-Lerch and Appell-type sums built on it
with hand-expanded sums over a box.  Each box is derived in this file
from the coefficients alone (a bound on where the quadratic exceeds the
order), never from the code under test.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from qhecke.errors import NonConvergentError, PoleError
from qhecke.mock import AppellRhsSpec, HeckeRogersSpec, appell_rhs, hecke_rogers
from qhecke.series import QSeries, lattice_range, monomial
from qhecke.theta import appell_m, jtheta
from qhecke.verify import _compare

# no deadline: the shared test hosts' speed varies too much for one
prop = settings(deadline=None, max_examples=150)

ends = st.none() | st.integers(-120, 120)
units = st.sampled_from([1, -1])  # a theta or Appell-Lerch argument is +-q^d


def brute(a, b, c, box, lo, hi):
    return [k for k in box if a * k * k + b * k + c <= 0
            and (lo is None or k >= lo) and (hi is None or k <= hi)]


def check_range(got, want):
    assert isinstance(got, range) and got.step == 1
    assert list(got) == want


# -- lattice_range ---------------------------------------------------------------

@prop
@given(st.integers(1, 50), st.integers(-2000, 2000), st.integers(-2000, 2000), ends, ends)
def test_lattice_range_small_coefficients(a, b, c, lo, hi):
    # a >= 1: a k^2 + b k + c > 0 once |k| > |b| + |c|
    box = range(-abs(b) - abs(c) - 1, abs(b) + abs(c) + 2)
    check_range(lattice_range(a, b, c, lo, hi), brute(a, b, c, box, lo, hi))


@prop
@given(st.integers(1, 200).flatmap(lambda bits: st.integers(1, 1 << bits)),
       st.integers(-(1 << 200), 1 << 200), st.integers(0, 12),
       st.sampled_from([0, 1, -1, "big"]), st.integers(-(1 << 200), 1 << 200),
       st.none() | st.integers(-3, 15), st.none() | st.integers(-3, 15))
def test_lattice_range_wide_coefficients(a, r1, width, offset, big, lo, hi):
    # a (k - r1)(k - r2) + delta with |delta| < a keeps every solution in
    # [r1, r2]: one point at delta = 0 and width 0, none for delta > 0 and
    # width 0 (negative discriminant), integer roots at delta = 0
    r2 = r1 + width
    delta = offset if offset != "big" else big % (2 * a - 1) - (a - 1)
    assume(abs(delta) < a)
    b, c = -a * (r1 + r2), a * r1 * r2 + delta
    lo = None if lo is None else r1 + lo
    hi = None if hi is None else r1 + hi
    check_range(lattice_range(a, b, c, lo, hi), brute(a, b, c, range(r1 - 2, r2 + 3), lo, hi))


@prop
@given(st.integers(-50, 50), st.integers(-2000, 2000), ends, ends)
def test_lattice_range_linear_forms(b, c, lo, hi):
    # b k + c <= 0 is finite once lo (b > 0) or hi (b < 0) clips the
    # side it falls towards; every solution then lies between that end
    # (|lo|, |hi| <= 120) and -c/b (|-c/b| <= |c|)
    if b == 0 or (lo if b > 0 else hi) is None:
        with pytest.raises(NonConvergentError):
            lattice_range(0, b, c, lo, hi)
        return
    box = range(-abs(c) - 121, abs(c) + 122)
    check_range(lattice_range(0, b, c, lo, hi), brute(0, b, c, box, lo, hi))


def test_lattice_range_fixed_cases():
    assert list(lattice_range(1, 0, -4)) == [-2, -1, 0, 1, 2]     # integer roots
    assert list(lattice_range(1, -6, 9)) == [3]                   # double root
    assert list(lattice_range(1, 0, 1)) == []                     # negative discriminant
    assert list(lattice_range(4, 0, -1)) == [0]                   # roots +-1/2
    assert list(lattice_range(1, 0, -4, lo=1, hi=1)) == [1]
    assert list(lattice_range(1, 0, -4, lo=3)) == []
    assert list(lattice_range(0, 4, -40, lo=1)) == list(range(1, 11))
    for a, lo, hi in ((0, None, 5), (-1, None, None), (-1, 0, 10)):
        with pytest.raises(NonConvergentError):
            lattice_range(a, 1, -10, lo, hi)


# -- theta and Appell-Lerch sums --------------------------------------------------

def theta_box(d, n):
    """|m| bound past which base*m(m-1)/2 + d*m > n for every base >= 1.

    For |m| = t >= 1 the exponent is at least t*((t-1)/2 - |d|).
    """
    return 2 * (abs(d) + abs(n)) + 3


def brute_theta(coef, d, base, n):
    out = {}
    box = theta_box(d, n)
    for m in range(-box, box + 1):
        e = base * m * (m - 1) // 2 + d * m
        if e <= n:
            out[e] = out.get(e, 0) + (-1) ** (m % 2) * Fraction(coef) ** m
    return {e: v for e, v in out.items() if v}


@prop
@given(units, st.integers(-40, 40), st.integers(1, 5), st.integers(-5, 60))
def test_theta_sum_scaled_matches_box(coef, d, base, n):
    got = jtheta(monomial(coef, 0, d), base, n)
    assert got.order == n
    assert dict(got.nonzero_terms()) == brute_theta(coef, d, base, n)


@settings(deadline=None, max_examples=60)
@given(units, st.integers(-60, 60), st.integers(1, 4),
       units, st.integers(-20, 20), st.integers(0, 30))
def test_appell_m_matches_box(cx, xq, base, cz, zq, n):
    x, z = monomial(cx, 0, xq), monomial(cz, 0, zq)
    cx, cz = Fraction(cx), Fraction(cz)  # exact powers below, negative ones too
    cxz = cx * cz
    assume(cxz != 1 or (xq + zq) % base)  # the pole at d(r) = 0
    jz = brute_theta(cz, zq, base, n)
    assume(jz)  # j(z; q^base) vanishes identically
    # term r: (-1)^r cz^r q^Q(r) / (1 - cxz q^D(r)); every exponent is >= Q(r)
    inner = {}
    box = theta_box(zq, n)
    for r in range(-box, box + 1):
        q0 = base * r * (r - 1) // 2 + zq * r
        d = base * (r - 1) + xq + zq
        num = (-1) ** (r % 2) * cz ** r
        if d == 0:
            series = [(q0, num / (1 - cxz))]
        elif d > 0:   # sum_{i>=0} (cxz q^d)^i
            series = [(q0 + d * i, num * cxz ** i) for i in range((n - q0) // d + 1)]
        else:         # -sum_{i>=1} (cxz q^d)^-i
            series = [(q0 - d * i, -num * cxz ** -i) for i in range(1, (n - q0) // -d + 1)]
        for e, v in series:
            inner[e] = inner.get(e, 0) + v
    want = (QSeries.from_terms(inner.items(), n)
            * QSeries.from_terms(jz.items(), n).invert())
    got = appell_m(x, base, z, n)
    assert got.order == want.order and _compare(got, want, got.order) is None


# -- Hecke-Rogers sums -------------------------------------------------------------

@st.composite
def hr_specs(draw):
    """Specs with B = 0 and A + C >= 1, so the exponent grows like t^2."""
    a = draw(st.integers(1, 6))
    c = draw(st.integers(1 - a, 0))
    d = 2 * draw(st.integers(-20, 20)) + a % 2
    e = 2 * draw(st.integers(-20, 20)) + c % 2
    f = 2 * draw(st.integers(-30, 30))
    region = draw(st.sampled_from(["jabs", "sym", "pos"]))
    sg_n, alt_j = draw(st.booleans()), draw(st.booleans())
    w_n, w_j = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))

    def coef(m, j):
        # sg(m) when sg_n, (-1)^(j-1) when alt_j, times w_n m + w_j j + 1
        s = -1 if (sg_n and m < 0) != (alt_j and j % 2 == 0) else 1
        return s * (w_n * m + w_j * j + 1)

    return HeckeRogersSpec(region, (a, 0, c, d, e, f), coef)


@prop
@given(hr_specs(), st.integers(-10, 40))
def test_hecke_rogers_matches_box(spec, n):
    a, _, c, d, e, f = spec.quad2
    # with |j| <= |m| = t and A + C >= 1 the doubled exponent is at least
    # t^2 - (|D| + |E|) t - |F|, which exceeds 2n once t passes this box
    box = abs(d) + abs(e) + abs(f) + 2 * abs(n) + 1
    want = {}
    for m in range(-box, box + 1):
        t = abs(m)
        js = {"jabs": range(1, t + 1), "sym": range(1 - t, t + 1),
              "pos": range(1, m + 1)}[spec.region] if m else ()
        for j in js:
            ex = (a * m * m + c * j * j + d * m + e * j + f) // 2
            if ex <= n:
                # the coefficient rule is not what this test is about
                want[ex] = want.get(ex, 0) + spec.coef(m, j)
    got = hecke_rogers(spec, n)
    assert got.order == n
    assert dict(got.nonzero_terms()) == {ex: v for ex, v in want.items() if v}


# -- Appell-type right-hand sides --------------------------------------------------

def brute_appell_rhs(quad, weight, alternating, sign, denom, krange, n):
    """sum w(k) (-1)^(k-1)? q^(a k^2 + b k + c) / (1 + s q^(d k + e)) through
    q^n, over k in Z or k >= 1, each denominator expanded by hand: at
    d k + e = 0 it is the constant 1/(1 + s), a pole for s = -1."""
    a, b, c = quad
    d, e = denom
    s = sign
    # a >= 1, so Q(k) > n once |k| > |b| + |c - n|, and every term of k
    # lies at or above Q(k)
    box = abs(b) + abs(c - n) + 1
    out = {}
    for k in range(1 if krange == "positive" else -box, box + 1):
        q0, dk = a * k * k + b * k + c, d * k + e
        w = weight[0] * k + weight[1]
        if alternating and k % 2 == 0:
            w = -w
        if w == 0 or q0 > n:
            continue
        # 1/(1 + s u) = sum (-s u)^i, or s u^-1 sum (-s u^-1)^i for dk < 0
        if dk == 0:
            if s == -1:
                raise PoleError("zero q-degree")
            series = [(q0, Fraction(w, 2))]
        elif dk > 0:
            series = [(q0 + dk * i, w * (-s) ** i) for i in range((n - q0) // dk + 1)]
        else:
            series = [(q0 - dk * i, w * s * (-s) ** (i - 1))
                      for i in range(1, (n - q0) // -dk + 1)]
        for ex, v in series:
            out[ex] = out.get(ex, 0) + v
    return {ex: v for ex, v in out.items() if v}


def appell_spec(quad, weight, alternating, sign, denom, krange):
    """The AppellRhsSpec of the sum brute_appell_rhs expands."""
    def coef(k):
        w = weight[0] * k + weight[1]
        return -w if alternating and k % 2 == 0 else w

    return AppellRhsSpec(tuple(2 * x for x in quad), coef, -sign, denom,
                         1 if krange == "positive" else None)


@prop
@given(st.integers(1, 3), st.integers(-30, 30), st.integers(-30, 30),
       st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.booleans(),
       st.sampled_from([1, -1]), st.integers(-6, 6).filter(bool), st.integers(-40, 40),
       st.sampled_from(["bilateral", "positive"]), st.integers(-10, 50))
def test_appell_rhs_matches_box(a, b, c, weight, alternating, sign, d, e, krange, n):
    args = ((a, b, c), weight, alternating, sign, (d, e), krange)
    spec = appell_spec(*args)
    try:
        want = brute_appell_rhs(*args, n)
    except PoleError:
        with pytest.raises(PoleError):
            appell_rhs(spec, n)
        return
    got = appell_rhs(spec, n)
    assert got.order == n and dict(got.nonzero_terms()) == want


def test_appell_rhs_terms_past_empty_rows():
    # k = 0..7 lie above q^50 at their lowest exponent, k = 8..34 do not
    for krange in ("bilateral", "positive"):
        args = ((1, -40, 0), (0, 1), True, 1, (2, -300), krange)
        want = brute_appell_rhs(*args, 50)
        assert dict(appell_rhs(appell_spec(*args), 50).nonzero_terms()) == want, krange
        assert min(want) == -141
