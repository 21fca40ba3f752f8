"""Eulerian series, bivariate F4/F8, and the generic sum evaluators."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from qhecke import mock
from qhecke.errors import NonConvergentError
from qhecke.kernels import _slot_bytes
from qhecke.mock import (HR_F8Z, HR_HF8, AppellRhsSpec, HeckeRogersSpec,
                         _build_bivariate, _build_eulerian, appell_rhs,
                         c_sum, eulerian, eulerian_residues, F4_series, F8_series,
                         hecke_rogers, humbert_series, kronecker_minus4)
from qhecke.rings import ZPoly
from qhecke.series import QSeries, eta_quotient
from qhecke.registry import get_case
from qhecke.verify import _compare, run_case


def ONE(n, j):
    """The coefficient 1 of every term of a Hecke-Rogers sum."""
    return 1


def naive_mul(a, b, n):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            if e1 + e2 <= n:
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


def naive_inv_one_minus(d, n):
    return {e: 1 for e in range(0, n + 1, d)}


def oracle_eulerian(which, n):
    """Any of the four Eulerian series by naive dict arithmetic, term by
    term straight off the definitions."""
    total = {}
    k_start = 1 if which == "phi_minus" else 0
    k = k_start
    while True:
        if which in ("A", "V1"):
            lead = (k + 1) ** 2
            num_fs = [2 * i + 1 for i in range(k)]           # (-q;q^2)_k
            den = [2 * i + 1 for i in range(k + 1)]          # (q;q^2)_{k+1}
            if which == "A":
                den = den * 2
        elif which == "sigma":
            lead = (k + 1) * (k + 2) // 2
            num_fs = [i + 1 for i in range(k)]               # (-q;q)_k
            den = [2 * i + 1 for i in range(k + 1)]
        else:
            lead = k
            num_fs = [i + 1 for i in range(2 * k - 1)]       # (-q;q)_{2k-1}
            den = [2 * i + 1 for i in range(k)]              # (q;q^2)_k
        if lead > n:
            break
        term = {lead: 1}
        for d in num_fs:
            term = naive_mul(term, {0: 1, d: 1}, n)
        for d in den:
            term = naive_mul(term, naive_inv_one_minus(d, n), n)
        for e, c in term.items():
            total[e] = total.get(e, 0) + c
        k += 1
    return {e: c for e, c in total.items() if c}


# -- the QSeries-route oracles -------------------------------------------------
# Reference builders that share nothing with mock's flat-integer engine:
# each term is a QSeries times its linear factors by mul_one_minus and
# div_one_minus, with rational or Laurent coefficients.


def _eulerian_raw(which, n):
    one = QSeries.one(n)
    out = QSeries.zero(n)
    if which == "A":
        term = one.shift(1, 1).div_one_minus(1, 1).div_one_minus(1, 1)
        k = 0
        while term.coeffs and (k + 1) ** 2 <= n:
            out = out + term
            k += 1
            term = (term.shift(1, 2 * k + 1).mul_one_minus(-1, 2 * k - 1)
                    .div_one_minus(1, 2 * k + 1).div_one_minus(1, 2 * k + 1))
        return out
    if which == "V1":
        term = one.shift(1, 1).div_one_minus(1, 1)
        k = 0
        while term.coeffs and (k + 1) ** 2 <= n:
            out = out + term
            k += 1
            term = (term.shift(1, 2 * k + 1).mul_one_minus(-1, 2 * k - 1)
                    .div_one_minus(1, 2 * k + 1))
        return out
    if which == "sigma":
        term = one.shift(1, 1).div_one_minus(1, 1)
        k = 0
        while term.coeffs and (k + 1) * (k + 2) // 2 <= n:
            out = out + term
            k += 1
            term = (term.shift(1, k + 1).mul_one_minus(-1, k)
                    .div_one_minus(1, 2 * k + 1))
        return out
    if which == "phi_minus":
        term = one.shift(1, 1).mul_one_minus(-1, 1).div_one_minus(1, 1)
        k = 1
        while term.coeffs and k <= n:
            out = out + term
            k += 1
            term = (term.shift(1, 1).mul_one_minus(-1, 2 * k - 2)
                    .mul_one_minus(-1, 2 * k - 1).div_one_minus(1, 2 * k - 1))
        return out
    raise ValueError(f"unknown Eulerian series {which!r}")


def _f_bivariate(which, n):
    out = QSeries.zero(n)
    term = (QSeries.monomial(ZPoly.const(1), 1, n)
            .div_one_minus(ZPoly.monomial(1, 1), 1)
            .div_one_minus(ZPoly.monomial(1, -1), 1))
    k = 0
    while term.coeffs and ((k + 1) ** 2 if which == "F8" else k + 1) <= n:
        out = out + term
        k += 1
        if which == "F8":
            term = term.shift(-1, 2 * k + 1).mul_one_minus(1, 2 * k - 1)
        else:
            term = (term.shift(-1, 1).mul_one_minus(1, 2 * k - 1)
                    .mul_one_minus(-1, 2 * k))
        term = (term.div_one_minus(ZPoly.monomial(1, 1), 2 * k + 1)
                .div_one_minus(ZPoly.monomial(1, -1), 2 * k + 1))
    return out


SIX = ("A", "V1", "sigma", "phi_minus", "F4", "F8")


def engine_and_oracle(which, n):
    if which in ("F4", "F8"):
        return _build_bivariate(which, n), _f_bivariate(which, n)
    return _build_eulerian(which, n), _eulerian_raw(which, n)


def is_laurent(series):
    """Whether any coefficient is a ZPoly; else every one is a rational."""
    return any(type(c) is ZPoly for c in series.coeffs)


def scalar_types(series):
    """The type of each rational in the coefficients; in a Laurent series
    a scalar is read as a constant ZPoly, so a zero holds none."""
    laurent = is_laurent(series)
    out = []
    for c in series.coeffs:
        if laurent and type(c) is not ZPoly:
            c = ZPoly.const(c)
        out += [type(v) for v in (c.coeffs if laurent else (c,))]
    return out


def assert_identical(got, want):
    """Equal coefficient kind, window, order and coefficients, down to int
    vs Fraction."""
    assert (is_laurent(got), got.min_exp, got.order) == (is_laurent(want), want.min_exp,
                                                          want.order)
    assert got.coeffs == want.coeffs
    assert scalar_types(got) == scalar_types(want)


@pytest.mark.parametrize("which,n", [(w, n) for w in SIX for n in (0, 1, 2, 5, 40, 100)]
                         + [("F4", 200), ("F8", 200), ("phi_minus", 600)])
def test_engine_matches_qseries_route(which, n):
    assert_identical(*engine_and_oracle(which, n))


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(SIX), st.integers(0, 80))
def test_engine_matches_qseries_route_at_every_order(which, n):
    assert_identical(*engine_and_oracle(which, n))


@pytest.fixture
def row_widths(monkeypatch):
    """The slot width of every mock.unpack_rows call, in call order."""
    widths = []
    unpack = mock.unpack_rows

    def spy(rows, k, lo, slots):
        widths.append(k)
        return unpack(rows, k, lo, slots)

    monkeypatch.setattr(mock, "unpack_rows", spy)
    return widths


@pytest.mark.parametrize("which,n", [("F4", 100), ("F4", 200), ("F8", 100), ("F8", 200)])
def test_majorant_bounds_every_z_coefficient_sum(which, n, row_widths):
    bound = mock._term_sum(mock._RECIPES[which], n, majorant=True)
    got = _build_bivariate(which, n)
    for m in range(n + 1):
        c = got.coeff(m) or ZPoly()  # below the window it is the scalar 0
        assert sum(map(abs, c.coeffs)) <= bound[m], m
    # the kernels slot the rows are read in holds the bound with a sign
    # bit to spare, in the fewest whole bytes
    assert row_widths == [_slot_bytes(max(bound).bit_length() + 1)]
    assert max(bound) < 1 << (8 * row_widths[0] - 1)


def test_eulerian_heads_match_definition_oracle():
    for which in ("A", "V1", "sigma", "phi_minus"):
        got = eulerian(which, 25)
        assert dict(got.nonzero_terms()) == oracle_eulerian(which, 25), which
    assert [eulerian("A", 3).coeff(e) for e in range(4)] == [0, 1, 2, 3]


def test_phi_minus_term_count():
    # term k first contributes at q^k, so order n needs exactly n terms
    assert eulerian("phi_minus", 3).coeff(3) == 5
    with pytest.raises(ValueError):
        eulerian("nope", 5)


@pytest.mark.parametrize("which", ["A", "V1", "sigma", "phi_minus"])
def test_eulerian_cache_grows_to_each_request(monkeypatch, which):
    monkeypatch.setattr(mock, "_euler_cache", {})
    small = eulerian(which, 10)
    large = eulerian(which, 100)
    want = _eulerian_raw(which, 100)
    assert (small.order, large.order) == (10, 100)
    assert _compare(small, want, 10) is None and _compare(large, want, 100) is None


EULERIAN = ("A", "V1", "sigma", "phi_minus")


@pytest.mark.parametrize("which", EULERIAN)
def test_residues_match_exact_engine(which):
    # the packed residue slots against the exact flat-list sum, reduced
    for n in (0, 1, 2, 5, 40, 300, 1200):
        exact = mock._term_sum(mock._RECIPES[which], n)
        for m in (2, 4, 8):
            got = mock._residue_sum(mock._RECIPES[which], n, m)
            assert got == [c % m for c in exact], (n, m)


@pytest.mark.parametrize("which", EULERIAN)
def test_residue_cache_grows_to_each_request(monkeypatch, which):
    # order exactly n at each request; 0 builds to 64, so 65 must rebuild,
    # and each modulus has its own entry
    monkeypatch.setattr(mock, "_residue_cache", {})
    for n in (0, 1, 2, 5, 40, 65, 300):
        exact = mock._term_sum(mock._RECIPES[which], n)
        for m in (2, 4, 8):
            got = eulerian_residues(which, n, m)
            assert not is_laurent(got) and got.order == n
            assert [got.coeff(e) for e in range(n + 1)] == [c % m for c in exact], (n, m)
            assert mock._residue_cache[(which, m)].order >= n
    assert set(mock._residue_cache) == {(which, m) for m in (2, 4, 8)}


def test_residues_reject_other_moduli_and_signed_or_z_recipes():
    for m in (0, 1, 3, 6, 12, -4, 4.0, True):
        with pytest.raises(ValueError, match="power of two"):
            eulerian_residues("A", 10, m)
    for which in ("F4", "F8"):
        with pytest.raises(ValueError, match="only \\+ signs"):
            eulerian_residues(which, 10, 4)
    with pytest.raises(ValueError, match="unknown"):
        eulerian_residues("nope", 10, 4)


@pytest.mark.parametrize("which", ["F4", "F8"])
def test_bivariate_cache_grows_to_each_request(monkeypatch, which):
    monkeypatch.setattr(mock, "_fz_cache", {})
    build = F4_series if which == "F4" else F8_series
    small = build(10)
    large = build(72)
    want = _f_bivariate(which, 72)
    assert (small.order, large.order) == (10, 72)
    assert _compare(small, want, 10) is None and _compare(large, want, 72) is None


def test_bivariate_leading_terms():
    f8 = F8_series(8)
    # q / ((1-zq)(1-q/z)) contributes q + (z + 1/z) q^2 + ...
    assert f8.coeff(1) == ZPoly.const(1)
    assert f8.coeff(2) == ZPoly({1: 1, -1: 1})
    f4 = F4_series(8)
    assert f4.coeff(1) == ZPoly.const(1)


def test_bivariate_slots_wider_than_eight_bytes(monkeypatch, row_widths):
    # at q^400 F4's slots are 11 bytes, read one slot at a time: its
    # specialisations at z = 1 and z = i still certify, and every row is
    # palindromic in z, as F4(z, q) = F4(1/z, q)
    monkeypatch.setattr(mock, "_fz_cache", {})
    for cid in ("spec-f4-at-1", "spec-f4-at-i"):
        report = run_case(get_case(cid), 400)
        assert (report.status, report.certified_order) == ("pass", 400), cid
    assert row_widths == [11]
    f4 = F4_series(400)
    assert f4.order == 400
    for m in range(401):
        c = f4.coeff(m) or ZPoly()
        row = {c.lo + i: v for i, v in enumerate(c.coeffs)}
        assert row == {-a: v for a, v in row.items()}, m


def test_hecke_rogers_shapes():
    got = hecke_rogers(HR_HF8, 4)
    assert dict(got.nonzero_terms()) == {1: 1, 3: -1, 4: -3}
    z = hecke_rogers(HR_F8Z, 4)
    assert z.coeff(1) == ZPoly.const(1)
    assert z.coeff(4) == ZPoly({-1: -1, 0: -1, 1: -1})


def test_hecke_rogers_empty_shells_terminate():
    # sg(n) (-1)^(j-1) (2j - 1)
    spec = HeckeRogersSpec("jabs", (4, 0, -2, -2, 2, 0),
                           lambda n, j: (1 if n >= 0 else -1) * (1 if j % 2 else -1)
                           * (2 * j - 1))
    assert not hecke_rogers(spec, 0).coeffs


def test_hecke_rogers_unbounded_raises():
    bad = HeckeRogersSpec("sym", (-2, 0, 0, 0, 0, 0), ONE)
    with pytest.raises(NonConvergentError):
        hecke_rogers(bad, 10)


def test_hecke_rogers_shells_far_from_the_origin():
    # exponent (t-20)^2 - j(j-1)/2: shells 1..10 hold no term through
    # q^50, shells 11..68 do
    spec = HeckeRogersSpec("pos", (2, 0, -1, -80, 1, 800), ONE)
    want = {}
    # for t >= 100 the doubled exponent is >= t(t - 79) + 800 > 100
    for t in range(1, 100):
        for j in range(1, t + 1):
            e = (2 * t * t - j * j - 80 * t + j + 800) // 2
            if e <= 50:
                want[e] = want.get(e, 0) + 1
    got = hecke_rogers(spec, 50)
    assert got.order == 50 and dict(got.nonzero_terms()) == want
    assert len(want) == 200


def test_hecke_rogers_linear_end_converges():
    # exponent t^2 - j^2 + t + j over 1 <= j <= t is 2t at the end j = t:
    # linear growth, which still truncates; shells t > 10 lie above q^20
    spec = HeckeRogersSpec("pos", (2, 0, -2, 2, 2, 0), ONE)
    want = {}
    for t in range(1, 11):
        for j in range(1, t + 1):
            e = t * t - j * j + t + j
            if e <= 20:
                want[e] = want.get(e, 0) + 1
    assert dict(hecke_rogers(spec, 20).nonzero_terms()) == want


def test_hecke_rogers_spec_validation():
    with pytest.raises(ValueError):
        HeckeRogersSpec("pos", (2, 1, -1, 0, 1, 0), ONE)    # odd B
    with pytest.raises(ValueError):
        HeckeRogersSpec("pos", (2, 0, -1, 0, 1, 1), ONE)    # odd F
    with pytest.raises(ValueError):
        HeckeRogersSpec("pos", (2, 0, -1, 1, 1, 0), ONE)    # A + D odd
    with pytest.raises(ValueError):
        HeckeRogersSpec("pos", (2, 0, -1, 0, 0, 0), ONE)    # C + E odd
    with pytest.raises(ValueError):
        HeckeRogersSpec("pos", (2, 0, 1, 0, 1, 0), ONE)     # C > 0
    with pytest.raises(ValueError):
        HeckeRogersSpec("box", (2, 0, -2, 0, 0, 0), ONE)
    import qhecke.mock as mock
    named = [v for k, v in vars(mock).items() if k.startswith("HR_")]
    assert len(named) == 11
    for spec in named:
        replace(spec)  # re-runs the validation


def test_appell_rhs_spec_validation():
    for quad2 in ((1, 0, 0), (2, 1, 0), (2, 0, 1)):  # A + B or C odd
        with pytest.raises(ValueError):
            AppellRhsSpec(quad2, lambda k: 1, 1, (2, -1))
    named = [v for k, v in vars(mock).items() if k.startswith("AP_")]
    assert len(named) == 12
    for spec in named:
        replace(spec)  # re-runs the validation


def test_appell_rhs_geometric_head():
    # single k=1 term: q/(1+q) = q - q^2 + q^3 - ...
    spec = AppellRhsSpec((2, 0, 0), lambda k: 1, -1, (2, -1), lo=1)
    got = appell_rhs(spec, 6)
    head = {e: (1 if e % 2 else -1) for e in range(1, 7)}
    one_term = {e: c for e, c in got.nonzero_terms() if e <= 3}
    assert one_term == {e: v for e, v in head.items() if e <= 3}


def test_appell_rhs_negative_degree_rewrite():
    # bilateral sum hits k <= 0 denominators with negative exponents;
    # the k = 0 term of the A-series spec is -1/(1 - q^-1) = q/(1-q)
    from qhecke.mock import AP_A
    got = appell_rhs(AP_A, 30)
    lhs = eta_quotient({2: 2, 4: -1}, 30) * eulerian("A", 30)
    assert _compare(got, lhs, 30) is None


def test_humbert_rows():
    # m = 0 row is q/(1-q); pins from the displayed double sum
    got = humbert_series(6)
    assert [got.coeff(e) for e in range(7)] == [0, 1, 1, 3, 2, 3, 3]


def test_c_sum_constant_in_shift():
    want = eta_quotient({2: 2, 1: -1}, 40)
    for m in (*range(11), 40):
        assert _compare(c_sum(m, 40), want, 40) is None


def test_kronecker_minus4():
    assert [kronecker_minus4(n) for n in (0, 1, 2, 3, 4, 5, 6, 7)] == \
        [0, 1, 0, -1, 0, 1, 0, -1]


def test_zpart_sums_have_z_inversion_symmetry():
    # every sum weighted by geom_ratio(1 - j, j) satisfies [z^k] = [z^-k]
    # (the factor (z^(1-j)-z^j)/(1-z) is invariant under z -> 1/z); the
    # factor geom_ratio(n, -n) picks up one power of z, giving [z^k] = [z^(-1-k)]
    from qhecke.mock import AP_F4Z, AP_F8Z, HR_F4Z, HR_F8Z, appell_rhs

    def check(series, mirror):
        for _, c in series.nonzero_terms():
            for k, v in c.c.items():
                assert c.c.get(mirror(k), 0) == v

    check(hecke_rogers(HR_F8Z, 40), lambda k: -k)
    check(appell_rhs(AP_F8Z, 40), lambda k: -k)
    check(appell_rhs(AP_F4Z, 40), lambda k: -k)
    check(hecke_rogers(HR_F4Z, 40), lambda k: -1 - k)
