"""The identity registry.

Every verified identity is an IdentityCase: a stable id, a verification
mode, its two sides and a default order.  IDENTITIES.md at the
repository root lists every case with the statement it checks.

Every side is a theta.Deferred expression, which states the builder
contract.  A leaf is one builder with its arguments bound by _leaf, and
a lower bound on its valuation that follows from the sum it builds.
Leaves are made when registry() runs, never at import, so that they
call whatever the builder modules hold then.  Eta sums are
(c, s, {delta: r}) tuples.

An identity with z in a denominator is certified for every z at once,
both sides times its theta denominators and the pole factors 1 - c z^k
of theta.appell_cleared (IDENTITIES.md gives each multiplier).

A value at z = 1, -1 or i, or a z-derivative at z = 1, is read off a
series in z: by subs_z_one or jets.Jet1.of, or by _at_fourth_roots.

Modes:
  univariate  -- sides are q-series with scalar coefficients
  formal_z    -- sides are series with Laurent-polynomial coefficients
  jet         -- sides are the z-derivative at z=1 (and its target)
  congruence  -- integer series compared modulo a fixed modulus
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from math import isqrt
from operator import attrgetter, mul

from . import classnum, combinat, mock
from .jets import Jet1, jet_appell, jet_theta
from .rings import ZPoly
from .series import QSeries, geom_ratio, lattice_range, monomial
from .theta import (Deferred, _g_abc_deferred, _theta_1_4_deferred, appell_cleared, f_abc,
                    theta_low)


@dataclass(frozen=True)
class IdentityCase:
    """lhs = rhs through q^order, each side a theta.Deferred."""
    id: str
    mode: str
    lhs: Deferred
    rhs: Deferred
    default_order: int
    allow_fail: bool = False
    witnesses: tuple = ()  # set by no case; perfbench/child.py still replaces it
    modulus: int = 0
    note: str = ""


# U_3(J_1^3) = J_1^4/J_3 + 9q J_9^3 J_1/J_3
U3_J1_CUBED = ((1, 0, {1: 4, 3: -1}), (9, 1, {9: 3, 1: 1, 3: -1}))
# the target of dz-theta-quotient-q6-sixfold and dz-eta-logderiv-combo
Q6_SIXFOLD = ((-1, 0, {6: 9, 4: 4, 1: 3, 12: -6, 3: -3, 2: -6}),
              (-2, 1, {12: 1, 2: 4, 6: -1, 4: -1, 3: -2}))
# shared by the targets of dz-j-z12q5-q12 and dz-j-z12q-q12
Z12_PAIR = ((1, 0, {12: 1, 3: 1, 2: 12, 6: -3, 4: -4, 1: -4}),
            (-9, 1, {18: 9, 12: 1, 3: 1, 2: 3, 36: -3, 9: -3, 6: -3, 4: -1, 1: -1}))


J, E, _th = Deferred.eta, Deferred.eta_sum, Deferred.theta
_f1 = attrgetter("f1")


def _leaf(build, *args, low=0, **kw):
    """build(*args, n, **kw), unbuilt, with no term below q^low."""
    return Deferred(low, partial(build, *args, **kw))


def _parts(*sides):
    """The tuple of the sides' builds, unbuilt: a dissection's components."""
    return Deferred(min(s.low for s in sides), lambda n: tuple(s.build(n) for s in sides))


def _f_abc(a, b, c, x, y):
    """f_{a,b,c}(x,y,q), unbuilt.  b r s >= 0 on both quadrants, so no
    term lies below the lowest of j(x;q^a) plus the lowest of j(y;q^c)."""
    return _leaf(f_abc, a, b, c, x, y, low=theta_low(x.qdeg, a) + theta_low(y.qdeg, c))


# ---------------------------------------------------------------------------
# builders and maps written here

def _at_fourth_roots(f, *parts):
    """The rational series sum_r c_r s_r for each part (c_0, ..., c_3),
    with s_r the sum of the v_k with k = r mod 4 in each coefficient
    sum_k v_k z^k.  i^k is 1, i, -1, -i for k = 0, 1, 2, 3 mod 4, so z = i
    has Re = s_0 - s_2 and Im = s_1 - s_3, and z = -1 is s_0 - s_1 + s_2 - s_3."""
    sums = []
    for c in f.coeffs:
        lo, v = (c.lo, c.coeffs) if type(c) is ZPoly else (0, (c,))
        sums.append([sum(v[(r - lo) % 4::4]) for r in range(4)])
    return tuple(QSeries(f.min_exp, [sum(map(mul, part, s)) for s in sums], f.order)
                 for part in parts)


def _at_i(f):
    """(Re, Im) of a series at z = i, as two rational series."""
    return _at_fourth_roots(f, (1, 0, -1, 0), (0, 1, 0, -1))


def _at_m1(f):
    """A series at z = -1, as a rational series."""
    return _at_fourth_roots(f, (1, -1, 1, -1))[0]


def _psi_rhs_bruteforce(n):
    # independent double loop for the psi-shaped sum
    # sum over n' != 0, 1-|n'| <= j <= |n'| of sg(n')(-1)^(j-1) q^(3n'^2-n'-2j^2+j)
    terms = []
    bound = isqrt(n) + 3
    for m in range(-bound, bound + 1):
        if m == 0:
            continue
        sg = 1 if m > 0 else -1
        for j in range(1 - abs(m), abs(m) + 1):
            e = 3 * m * m - m - 2 * j * j + j
            if e <= n:
                terms.append((e, sg * (1 if j % 2 == 1 else -1)))
    return QSeries.from_terms(terms, n)


def _hf12_rs_form(n):
    # (r,s)-form of the HF12 indefinite sum (with the sg(r) factor)
    terms = []
    bound = isqrt(n) + 3
    for r in range(0, bound):
        for s in range(0, 2 * bound + 4):
            e = (2 * r + 1) * s + (r + s + 1) ** 2
            if e <= n:
                terms.append((e, (1 if r % 2 == 0 else -1) * (2 * s + 4 * r + 3)))
    for r in range(-1, -bound - 2, -1):
        for s in range(-1, -2 * bound - 6, -1):
            e = (2 * r + 1) * s + (r + s + 1) ** 2
            if e <= n:
                terms.append((e, -(1 if r % 2 == 0 else -1) * (2 * s + 4 * r + 3)))
    return QSeries.from_terms(terms, n)


def _humbert_triple_expansion(n):
    # sum over (m, u, k >= 1) of q^{(k+m)^2 - (k+u)(k+u-1)/2 - (k-u)(k-u-1)/2}
    terms = []
    m = 0
    while 2 * m + 1 <= n:
        for u in range(-m, m + 1):
            k = 1
            while (m + 1) ** 2 - u * u + (k - 1) * (2 * m + 1) <= n:
                y, x, z = k + m, k + u, k - u
                e = y * y - x * (x - 1) // 2 - z * (z - 1) // 2
                terms.append((e, 1))
                k += 1
        m += 1
    return QSeries.from_terms(terms, n)


def _theta_pairs(n):
    """2 j(z;q)/(1 - z), pairing the terms m and 1 - m of j(z;q)."""
    return QSeries.from_terms(((m * (m - 1) // 2, (-1) ** m * 2 * geom_ratio(m, 1 - m))
                               for m in lattice_range(1, -1, -2 * n, lo=1)), n)


def _theta_side():
    """j(-1;q) j(q;q^2)^2 - 2 j(z;q)/(1 - z)."""
    return _th(monomial(-1)) * _th(monomial(1, 0, 1), 2) ** 2 - _leaf(_theta_pairs)


def _f8_cleared_lhs():
    # j(z;q) (2(1 - z) j(-1;q) F8 + 2z S'), j(z;q) in one product
    inner = ((_th(monomial(-1)) * _leaf(mock.F8_series)).shift(ZPoly({0: 2, 1: -2}), 0)
             + _leaf(mock.appell_rhs, mock.AP_M_F8Z).shift(ZPoly.monomial(2, 1), 0))
    return _th(monomial(1, 1)) * inner


def _evenodd_cleared_lhs():
    # 2 j(z;q) (S' D - j(-1;q) (A_- - A_+/z)) with D = j(q^2/z^2;q^4)
    inner = (_leaf(mock.appell_rhs, mock.AP_M_F8Z) * _th(monomial(1, -2, 2), 4)
             - _th(monomial(-1)) * _leaf(mock.appell_rhs, mock.AP_M_SPLIT))
    return _th(monomial(1, 1)) * inner.shift(2, 0)


# -- Appell-Lerch relations, each side times the multiplier of IDENTITIES.md -
# x (and change-z's z-argument u) is a monomial +-q^d, and z is formal

_Z = monomial(1, 1)
_X_ZSHIFT = (monomial(1, 0, 3), monomial(-1, 0, 2))
_X_XINVERSE = (monomial(-1, 0, 1), monomial(1, 0, 2))
# u = -q^e needs x = +q^d: otherwise j(u;q) or j(xu;q) vanishes
_XU_CHANGE_Z = ((monomial(1, 0, 3), monomial(-1)), (monomial(1, 0, 2), monomial(-1, 0, 1)))
_X_QUARTIC = (monomial(-1, 0, 1), monomial(1, 0, 3))
_W_FG = ((monomial(1, 0, 3), monomial(-1, 0, 4)), (monomial(-1, 0, 2), monomial(-1, 0, 4)))
_W_F151 = (monomial(1, 0, 2), monomial(1, 0, 3))


def _zshift(x):
    # m(x,q,z) = m(x,q,qz); P(x,z) and P(x,qz) share their pole factor
    _, lhs = appell_cleared(x, 1, _Z)
    _, rhs = appell_cleared(x, 1, _Z.qshift(1))
    return _th(_Z.qshift(1)) * lhs, _th(_Z) * rhs


def _xinverse(x):
    # m(x,q,z) = x^-1 m(x^-1,q,z^-1)
    xi = x.inv()
    p, lhs = appell_cleared(x, 1, _Z)
    pi, rhs = appell_cleared(xi, 1, _Z.inv())
    return (_th(_Z.inv()) * lhs).shift(pi, 0), (_th(_Z) * rhs).shift(p * xi.coef, xi.qdeg)


def _xshift_up(x):
    # m(qx,q,z) = 1 - x m(x,q,z)
    p, lhs = appell_cleared(x.qshift(1), 1, _Z)
    _, m = appell_cleared(x, 1, _Z)
    return lhs, _th(_Z).shift(p, 0) - m.shift(x.coef, x.qdeg)


def _reflect(x):
    # m(x,q,z) = x^-1 - x^-1 m(qx,q,z), with x^-1 = x.coef q^-d
    p, lhs = appell_cleared(x, 1, _Z)
    _, m = appell_cleared(x.qshift(1), 1, _Z)
    return lhs, (_th(_Z).shift(p, 0) - m).shift(x.coef, -x.qdeg)


def _change_z(xu):
    # m(x,q,u) - m(x,q,z) = z J1^3 j(u/z;q) j(xuz;q) / (j(u;q) j(z;q) j(xu;q) j(xz;q))
    x, u = xu
    pu, mu = appell_cleared(x, 1, u)
    pz, mz = appell_cleared(x, 1, _Z)
    lhs = _th(x * u) * (_th(x * _Z) * (_th(_Z) * mu.shift(pz, 0) - _th(u) * mz.shift(pu, 0)))
    rhs = _th(u * _Z.inv()) * (_th(x * u * _Z) * J({1: 3}))
    return lhs, rhs.shift(pz * ZPoly.monomial(pu, 1), 0)


def _quartic(x):
    # m(x,q,z) = m(-qx^2,q^4,z^4) - (x/q) m(-x^2/q,q^4,z^4)
    #            - J2 J4 j(-xz^2;q) j(-xz^3;q) / (x j(xz;q) j(z^4;q^4) j(-qx^2z^4;q^2)),
    # with z^4 for the printed source's q^4, which makes j(q^4;q^4) = 0;
    # the base-q^4 terms have odd q-degrees in their denominators, so no poles
    z4, x2 = _Z ** 4, (x * x).neg()
    p, lhs = appell_cleared(x, 1, _Z)
    _, m1 = appell_cleared(x2.qshift(1), 4, z4)
    _, m2 = appell_cleared(x2.qshift(-1), 4, z4)

    def den(f):  # j(xz;q) j(-qx^2z^4;q^2) f, one sparse factor at a time
        return _th(x * _Z) * (_th(x2.qshift(1) * z4, 2) * f)

    theta = _th((x * _Z * _Z).neg()) * (_th((x * _Z ** 3).neg()) * J({2: 1, 4: 1}))
    rhs = _th(_Z) * (den(m1 - m2.shift(x.coef, x.qdeg - 1)) - theta.shift(x.coef, -x.qdeg))
    return _th(z4, 4) * den(lhs), rhs.shift(p, 0)


# -- jet builders: each an unbuilt Jet1 ------------------------------------


def _jt(sign, a, b, base, zshift=0):
    """Jet of z^zshift j(sign z^a q^b; q^base): a theta leaf."""
    return Deferred(theta_low(b, base), partial(jet_theta, sign, a, b, base, zshift=zshift))


def _jet_theta_quotient_double():
    t1 = ((J({12: 1, 4: 2}).map(Jet1.of) * _jt(-1, 4, 1, 12, 5)).shift(1, -1)
          / (J({8: 1, 6: 1}).map(Jet1.of) * _jt(-1, 8, 0, 12) * _jt(-1, 8, 4, 12)))
    t2 = J({12: 2, 8: 1, 24: -2, 4: -1}).map(Jet1.of) * _jt(1, 8, 14, 24) * _jt(1, 8, 14, 24)
    t3 = J({24: 2, 6: 1, 4: 2, 12: -2, 8: -1, 2: -1}).shift(1, 2).map(Jet1.of) * _jt(1, 8, 8, 12)
    t4 = (J({12: 3}).map(Jet1.of) * _jt(1, 4, 1, 2, 1) * _jt(1, 8, 5, 12)
          / (_jt(1, 4, 1, 12) * _jt(1, 12, 6, 12)))
    t5 = _jt(-1, 4, 2, 12) / (_jt(-1, 8, 4, 12) * _jt(-1, 0, 11, 12))
    t6 = _jt(-1, 4, 6, 12, 4).shift(1, -1) / (_jt(-1, 8, 0, 12) * _jt(-1, 0, 5, 12))
    return t1 * (t2 - t3) - t4 * (t5 + t6)


def _jet_f121():
    """d/dz of q z^3 f_{2,4,2}(q^3 z^4, -q^4 z^2, q) at z = 1, unbuilt."""
    f242 = _f_abc(2, 4, 2, monomial(1, 4, 3), monomial(-1, 2, 4))
    return f242.shift(ZPoly.monomial(1, 3), 1).map(Jet1.of).map(_f1)


# ---------------------------------------------------------------------------
# the registry itself


def registry():
    """All identity cases, in a fixed, deterministic order."""
    cases = []
    add = cases.append

    J12_over_2 = {1: 2, 2: -1}      # J_1^2 / J_2
    J14_over_2 = {1: 1, 4: 1, 2: -1}  # J_1 J_4 / J_2
    J22_over_4 = {2: 2, 4: -1}
    J32_over_6 = {3: 2, 6: -1}
    J62_over_12 = {6: 2, 12: -1}
    J15_over_22 = {1: 5, 2: -2}
    # leaves of the most used builders, power series in q and so of low 0:
    # a Hecke-Rogers region is a cone on which the exponent is positive
    F, H = partial(_leaf, classnum.genfun_F), partial(_leaf, classnum.genfun_H)
    hr, ap = partial(_leaf, mock.hecke_rogers), partial(_leaf, mock.appell_rhs)
    eul = partial(_leaf, mock.eulerian)
    zero = E(())

    # -- univariate Hecke-Rogers identities (order 200) ---------------------
    for cid, lhs, spec, note in (
            ("hecke-hf4", J(J14_over_2) * F(4, -1), mock.HR_HF4,
             "J1 J4/J2 * sum F(4n-1) q^n = signed-weight-n indefinite sum"),
            ("hecke-hf8", J(J12_over_2) * F(8, -1), mock.HR_HF8, ""),
            ("hecke-hf12", J(J12_over_2) * F(12, -1), mock.HR_HF12, ""),
            ("hecke-hf24", J(J12_over_2) * F(24, -1), mock.HR_HF24, ""),
            ("hecke-A", J(J12_over_2) * eul("A"), mock.HR_A, ""),
            ("hecke-V1", J(J14_over_2) * eul("V1"), mock.HR_V1,
             "weight is the Kronecker symbol (-4|n)"),
            ("hecke-sigma", J(J12_over_2) * eul("sigma"), mock.HR_SIGMA, ""),
            ("hecke-phi-minus", J(J12_over_2) * eul("phi_minus"), mock.HR_PHI, "")):
        add(IdentityCase(cid, "univariate", lhs, hr(spec), 200, note=note))
    add(IdentityCase(
        "hecke-psi-rhs", "univariate", hr(mock.HR_PSI), _leaf(_psi_rhs_bruteforce), 200,
        note="shell-scan evaluator against an independent double loop; "
             "no Eulerian left-hand side exists for this sum"))

    # -- Appell-Lerch corollaries (order 200) -------------------------------
    add(IdentityCase("appell-hf4", "univariate", J(J12_over_2) * F(4, -1), ap(mock.AP_HF4), 200))
    add(IdentityCase("appell-hf8", "univariate", J(J22_over_4) * F(8, -1), ap(mock.AP_HF8), 200))
    add(IdentityCase("appell-A", "univariate", J(J22_over_4) * eul("A"), ap(mock.AP_A), 200))
    add(IdentityCase(
        "appell-hf12", "univariate", J(J32_over_6) * F(12, -1),
        ap(mock.AP_HF12) + J({12: 1, 6: 1, 2: 5, 4: -1, 1: -2}).shift(2, 1),
        200, note="includes the eta correction term 2q J12 J6 J2^5/(J4 J1^2)"))
    add(IdentityCase(
        "appell-sigma", "univariate", J(J32_over_6) * eul("sigma"), ap(mock.AP_SIGMA), 200))
    add(IdentityCase(
        "appell-hf24", "univariate", J(J62_over_12) * F(24, -1),
        (ap(mock.AP_HF24_A) + ap(mock.AP_HF24_B)
         + J({12: 2, 3: 2, 2: 6, 6: -2, 4: -1, 1: -3}).shift(2, 1)),
        200, note="two bilateral sums plus 2q J12^2 J3^2 J2^6/(J6^2 J4 J1^3)"))

    # -- bivariate z-analogs (formal_z, order 100) ---------------------------
    # each product (x, q^b/x, q^b; q^b)_inf is the theta series j(x; q^b);
    # the convolution picks the operand with fewer monomials, here the theta,
    # and adds one shifted copy of the packed F4/F8 per monomial
    f4, f8 = _leaf(mock.F4_series), _leaf(mock.F8_series)
    add(IdentityCase(
        "bivar-f8z-hecke", "formal_z", _th(monomial(1, 1, 1), 2) * f8, hr(mock.HR_F8Z), 100,
        note="(zq, q/z, q^2; q^2)_inf F8(z,q) against the geom_j-weighted sum"))
    add(IdentityCase(
        "bivar-f4z-hecke", "formal_z",
        _th(monomial(-1, 1, 1)) * f4.map(QSeries.alternate), hr(mock.HR_F4Z), 100,
        note="(-zq, -1/z, q; q)_inf F4(z,-q) against the geom_n-weighted sum"))
    add(IdentityCase(
        "bivar-f4z-appell", "formal_z", _th(monomial(1, 1, 1), 2) * f4, ap(mock.AP_F4Z), 100))
    add(IdentityCase(
        "bivar-f8z-appell", "formal_z", _th(monomial(1, 2, 2), 4) * f8, ap(mock.AP_F8Z), 100))

    # -- specializations of F4/F8 (order 100) --------------------------------
    add(IdentityCase("spec-f8-at-1", "univariate", f8.map(QSeries.subs_z_one), F(8, -1), 100))
    add(IdentityCase(
        "spec-f8-at-m1", "univariate", f8.map(QSeries.alternate).map(_at_m1),
        eul("A").shift(-1, 0), 100, note="F8(-1,-q) = -A(q)"))
    add(IdentityCase("spec-f4-at-1", "univariate", f4.map(QSeries.subs_z_one), F(4, -1), 100))
    add(IdentityCase(
        "spec-f4-at-i", "univariate", f4.map(QSeries.alternate).map(_at_i),
        _parts(eul("V1").shift(-1, 0), zero), 100,
        note="F4(i,-q) = -V1(q), as (Re, Im) = (-V1, 0)"))

    # -- congruences mod 4 (order 300) ---------------------------------------
    res = partial(_leaf, mock.eulerian_residues, m=4)
    add(IdentityCase(
        "cong-hf8-A", "congruence", F(8, -1), res("A").map(QSeries.alternate).shift(-1, 0),
        300, modulus=4))
    add(IdentityCase(
        "cong-hf12-sigma", "congruence", F(12, -1), res("sigma").shift(-1, 0), 300, modulus=4))
    add(IdentityCase(
        "cong-hf24-phi-minus", "congruence", F(24, -1), res("phi_minus").shift(-1, 0), 300,
        modulus=4))
    add(IdentityCase(
        "cong-A-hurwitz", "congruence", res("A"), H(8, -1).map(QSeries.alternate).shift(-1, 0),
        300, modulus=4, note="coefficients of A against (-1)^(n+1) H(8n-1)"))

    # -- eta-quotient identities (order 150) ----------------------------------
    add(IdentityCase(
        "eta-u3-j1cubed", "univariate", J({1: 3}).sift(3), E(U3_J1_CUBED), 150,
        note="U_3(J_1^3) = J_1^4/J_3 + 9q J_9^3 J_1/J_3"))
    add(IdentityCase(
        "eta-hf12-7-split", "univariate", F(12, 7),
        H(24, 7).inflate(2) + H(24, 19).inflate(2).shift(3, 1), 150,
        note="sum F(12n+7) q^n split into H(24n+7) and 3q H(24n+19) parts"))
    add(IdentityCase(
        "eta-hf12-7-pair", "univariate", F(12, 7),
        E(((1, 0, {6: 2, 4: 5, 12: -1, 2: -3}), (3, 1, {12: 3, 4: 1, 2: -1}))), 150,
        note="= J6^2 J4^5/(J12 J2^3) + 3q J12^3 J4/J2"))
    add(IdentityCase(
        "eta-hf12-7-quotient", "univariate", F(12, 7),
        J({12: 1, 3: 1, 2: 6, 6: -1, 4: -1, 1: -3}), 150,
        note="= J12 J3 J2^6/(J6 J4 J1^3)"))
    add(IdentityCase(
        "eta-hf24-7", "univariate", F(24, 7), J({3: 2, 2: 5, 6: -1, 1: -3}), 150,
        note="sum H(24n+7) q^n = J3^2 J2^5/(J6 J1^3)"))

    # -- 3-dissections (order 150) --------------------------------------------
    add(IdentityCase(
        "dissect-j1j2-3", "univariate", J(J12_over_2).dissect(3),
        _parts(J(J32_over_6), J({6: 2, 1: 1, 3: -1, 2: -1}).shift(-2, 0), zero), 150,
        note="3-dissection of J_1^2/J_2"))
    add(IdentityCase(
        "dissect-j2j4-3", "univariate", J(J22_over_4).dissect(3),
        _parts(J(J62_over_12), zero, J({12: 2, 2: 1, 6: -1, 4: -1}).shift(-2, 0)), 150,
        note="3-dissection of J_2^2/J_4"))
    add(IdentityCase(
        "dissect-hf4-3", "univariate", F(4, -1).dissect(3),
        _parts(F(12, -1), F(12, 3), F(12, 7)), 150))
    add(IdentityCase(
        "dissect-hf8-3", "univariate", F(8, -1).dissect(3),
        _parts(F(24, -1), F(24, 7), F(24, 15)), 150))
    add(IdentityCase(
        "dissect-appell-hf4-3", "univariate", ap(mock.AP_HF4).sift(3), ap(mock.AP_HF12), 150,
        note="U_3 of the HF4 Appell sum is the HF12 Appell sum"))
    add(IdentityCase(
        "dissect-appell-hf8-3", "univariate", ap(mock.AP_HF8).sift(3),
        ap(mock.AP_HF24_A) + ap(mock.AP_HF24_B), 150,
        note="U_3 of the HF8 Appell sum is the two-part HF24 Appell sum"))

    # -- derivative lemmas via jets (order 80; two heavier targets at 150) ----
    # d/dz z^zshift j(sign z^a q^b; q^base)|_1 against an eta sum
    half = Fraction(1, 2)
    # jets of m(q, q^6, -z^2/q) and of m(-q^2/z^6, q^6, w) at w = q^3 z^6
    # and -q^5 z^2, each of low 0 as in theta._g_abc_deferred
    m_q6 = _leaf(jet_appell, monomial(1, 0, 1), 6, monomial(-1, 2, -1))
    m_z6, m_z2 = (_leaf(jet_appell, monomial(-1, -6, 2), 6, w)
                  for w in (monomial(1, 6, 3), monomial(-1, 2, 5)))
    m_theta_a = _jt(-1, 2, 0, 2, -1) * m_q6
    for cid, (sign, a, b, base, zshift), rhs, note in (
            ("dz-j-zq-q2", (1, 1, 1, 2, 0), zero, "d/dz j(zq;q^2)|_1 = 0"),
            ("dz-j-mzq-q2", (-1, 1, 1, 2, 0), zero, "d/dz j(-zq;q^2)|_1 = 0"),
            ("dz-j-mz2-q1", (-1, 2, 0, 1, -1), zero, "d/dz (1/z) j(-z^2;q)|_1 = 0"),
            ("dz-j-z6q-q3", (1, 6, 1, 3, -1), E(U3_J1_CUBED).shift(-1, 0), ""),
            ("dz-j-mz6q-q3", (-1, 6, 1, 3, -1), J(J15_over_22).shift(-1, 0), ""),
            ("dz-j-z4q-q4", (1, 4, 1, 4, -1), J({2: 9, 4: -3, 1: -3}).shift(-1, 0), ""),
            ("dz-j-mz4q-q4", (-1, 4, 1, 4, -1), J({1: 3}).shift(-1, 0), ""),
            ("dz-j-z3q-q6", (1, 3, 1, 6, -1), J({2: 5, 1: -2}).shift(-1, 0), ""),
            ("dz-j-mz3q-q6", (-1, 3, 1, 6, -1), J({4: 2, 1: 2, 2: -1}).shift(-1, 0), ""),
            ("dz-j-mz12q5-q12", (-1, 12, 5, 12, -1),
             E(U3_J1_CUBED + ((1, 0, J15_over_22),)).shift(-half, 0), ""),
            ("dz-j-mz12q-q12", (-1, 12, 1, 12, -5),
             E(U3_J1_CUBED + ((-1, 0, J15_over_22),)).shift(-half, -1), ""),
            ("dz-j-z12q5-q12", (1, 12, 5, 12, -1),
             E(Z12_PAIR + ((1, 0, {2: 13, 4: -5, 1: -5}),)).shift(-half, 0), ""),
            ("dz-j-z12q-q12", (1, 12, 1, 12, -5),
             E(Z12_PAIR + ((-1, 0, {2: 13, 4: -5, 1: -5}),)).shift(half, -1), "")):
        add(IdentityCase(cid, "jet", _jt(sign, a, b, base, zshift).map(_f1), rhs, 80, note=note))
    add(IdentityCase(
        "dz-theta-quotient-q6-pair", "jet",
        (_jt(1, 2, -1, 6) * _jt(1, 2, 0, 6) / (_jt(-1, 2, -1, 6) * _jt(-1, 2, 0, 6))).map(_f1),
        J({6: 7, 4: 1, 1: 2, 12: -3, 3: -2, 2: -3}), 80,
        note="theta-quotient derivative inside the first q^6 lemma"))
    add(IdentityCase(
        "dz-m-appell-q6", "jet", m_q6.map(_f1),
        J({6: 12, 4: 2, 1: 3, 12: -6, 3: -3, 2: -5}).shift(-half, 0),
        80, note="d/dz m(q, q^6, -z^2/q)|_1"))
    add(IdentityCase(
        "dz-m-times-theta-q6-a", "jet", m_theta_a.map(_f1),
        J({6: 12, 4: 4, 1: 3, 12: -6, 3: -3, 2: -6}).shift(-1, 0), 80))
    add(IdentityCase(
        "dz-m-times-theta-q6-b", "jet", (_jt(1, 4, 1, 2, -1) * m_z6).map(_f1),
        (J({6: 1, 1: 2, 3: -2, 2: -1}) * ap(mock.AP_HF12)).shift(-1, 0), 80))
    add(IdentityCase(
        "dz-theta-quotient-q6-sixfold", "jet",
        (_jt(1, 4, 1, 2) * _jt(-1, 4, 4, 6) * _jt(1, 2, 4, 6)
         / (_jt(-1, 2, 5, 6, 1) * _jt(1, 6, 3, 6) * _jt(-1, 0, 5, 6) * _jt(1, 4, 5, 6))
         ).map(_f1), E(Q6_SIXFOLD), 150))
    add(IdentityCase(
        "dz-theta-quotient-q12-double", "jet", _jet_theta_quotient_double().map(_f1),
        J({12: 3, 3: 2, 2: 5, 6: -4, 4: -1, 1: -1}).shift(-2, 1), 150))
    add(IdentityCase(
        "dz-eta-logderiv-combo", "univariate",
        (E(((Fraction(2, 3), 0, {6: 1, 2: 2, 1: 3, 12: -2, 3: -3}),
            (Fraction(-2, 3), 0, {6: 4, 4: 6, 1: 6, 12: -4, 3: -4, 2: -7}),
            (Fraction(-4, 3), 0, {6: 1, 4: 3, 2: 2, 12: -3, 3: -2})))
         + J({6: 3, 4: 3, 1: 3, 12: -3, 3: -3, 2: -4})
         * E(((Fraction(1, 3), 0, {2: 3, 6: -1}), (3, 2, {18: 3, 6: -1})))),
        E(Q6_SIXFOLD), 150,
        note="logarithmic-derivative eta combination from the q^6 quotient lemma"))
    add(IdentityCase(
        "dz-f121-hecke", "jet", _jet_f121(), hr(mock.HR_HF12), 80,
        note="d/dz (q z^3 f_{1,2,1}(q^3 z^4, -q^4 z^2, q^2))|_1 is the HF12 sum"))
    add(IdentityCase(
        "dz-f121-decomp", "jet", _jet_f121(),
        (m_theta_a - _jt(1, 4, 1, 2, -1) * m_z2).map(_f1), 80,
        note="the same jet through the theta/Appell-Lerch decomposition"))
    add(IdentityCase(
        "dz-m-z-change", "jet", m_z2.map(_f1),
        (m_z6
         + J({6: 3}).map(Jet1.of) * _jt(-1, 4, 4, 6) * _jt(1, 2, 4, 6)
         / (_jt(-1, 2, 5, 6) * _jt(1, 6, 3, 6) * _jt(-1, 0, 5, 6) * _jt(1, 4, 5, 6))
         ).map(_f1), 80,
        note="z-argument change m(.,q^6,-q^5 z^2) -> m(.,q^6,q^3 z^6) plus theta term"))

    # -- Appell-Lerch machinery instances (orders 30-40) ----------------------
    # each relation for every z at two points (formal_z, order 30); the
    # x-shift down at x is the x-shift up at x/q
    for name, relation, points in (
            ("zshift", _zshift, _X_ZSHIFT), ("xinverse", _xinverse, _X_XINVERSE),
            ("xshift-up", _xshift_up, _X_ZSHIFT),
            ("xshift-down", lambda x: _xshift_up(x.qshift(-1)), _X_ZSHIFT),
            ("reflect", _reflect, _X_ZSHIFT), ("change-z", _change_z, _XU_CHANGE_Z),
            ("quartic", _quartic, _X_QUARTIC)):
        for i, point in enumerate(points, 1):
            add(IdentityCase(f"mrel-{name}-w{i}", "formal_z", *relation(point), 30))
    for i, (x, y) in enumerate(_W_FG, 1):
        z1 = y * x.inv()
        add(IdentityCase(
            f"mrel-f121-g121-w{i}", "univariate", _f_abc(1, 2, 1, x, y),
            _g_abc_deferred(1, 2, 1, x, y, z1, z1.inv()), 40,
            note="f_{1,2,1}(x,y,q) = g_{1,2,1}(x,y,q,y/x,x/y)"))
    add(IdentityCase(
        "mrel-f151-theta14", "univariate", _f_abc(1, 5, 1, *_W_F151),
        (_g_abc_deferred(1, 5, 1, *_W_F151, monomial(1, 0, 1), monomial(1, 0, -1))
         - _theta_1_4_deferred(*_W_F151)[2]), 40, allow_fail=True,
        note="f_{1,5,1} = g_{1,5,1} - Theta_{1,4} with the correction transcribed "
             "verbatim; the printed formula repeats j(y/x;q^24) in numerator and "
             "denominator and fails at q^0 (the same instance matches with the "
             "correction's sign flipped; reconciliation left to the reader)"))
    add(IdentityCase(
        "mrel-evenodd", "formal_z", _evenodd_cleared_lhs(),
        _theta_side() * _th(monomial(1, -2, 2), 4), 40,
        note="even/odd split of m(-z,q,-1) into base-q^4 sums plus "
             "j(q;q^2)^2/(2 j(z;q)), times 2 j(z;q) j(-1;q) j(q^2/z^2;q^4)"))

    # -- Appell-Lerch bridges for F4/F8, denominators cleared (order 60) ------
    add(IdentityCase(
        "numz-f4-appell", "formal_z",
        (_th(monomial(-1, 0, 1), 2) * f4).shift(ZPoly({0: 1, -1: -1}), 0),
        ap(mock.AP_M_F4Z), 60,
        note="(1 - 1/z) F4(z,q) = m(-z, q^2, -q), times j(-q;q^2)"))
    add(IdentityCase(
        "numz-f8-appell", "formal_z", _f8_cleared_lhs(),
        _theta_side().shift(ZPoly.monomial(1, 1), 0), 60,
        note="F8(z,q) = -z/(1-z) (m(-z,q,-1) - j(q;q^2)^2/(2 j(z;q))), "
             "times 2 (1-z) j(z;q) j(-1;q)"))

    # -- Humbert's formula and the combinatorial theorems ----------------------
    humbert = _leaf(mock.humbert_series)
    p_formula = _leaf(combinat.P_series, method="formula")
    q_formula = _leaf(combinat.Q_series, method="formula")
    add(IdentityCase(
        "humbert-hf4", "univariate", humbert, F(4, -1), 200,
        note="double sum q^{(m+1)^2-u^2}/(1-q^{2m+1}) generates F(4n-1)"))
    add(IdentityCase(
        "humbert-telescope", "univariate", _leaf(_humbert_triple_expansion), humbert, 60,
        note="termwise geometric expansion of the double sum lands on the "
             "unimodal (y,x,z) triple sum"))
    add(IdentityCase(
        "unimodal-eq-hf4", "univariate", p_formula, F(4, -1), 300,
        note="P(n) = F(4n-1): enumeration against reduced-form class numbers"))
    add(IdentityCase(
        "consecutive-eq-hf8", "univariate", q_formula, H(8, -1), 300, note="Q(n) = H(8n-1)"))
    add(IdentityCase(
        "consecutive-eq-unimodal", "univariate", q_formula, p_formula.sift(2), 150,
        note="Q(n) = P(2n)"))
    add(IdentityCase(
        "unimodal-methods", "univariate", _leaf(combinat.P_series, method="direct"),
        p_formula, 200, note="per-n enumeration against the (y,x,z) triple-sum formula"))
    add(IdentityCase(
        "consecutive-methods", "univariate", _leaf(combinat.Q_series, method="direct"),
        q_formula, 200,
        note="per-n enumeration against the (l,m) 1/(1-q^l) double-sum formula"))

    # -- misc structural checks ------------------------------------------------
    add(IdentityCase(
        "eq-hf12-rs-form", "univariate", _leaf(_hf12_rs_form), hr(mock.HR_HF12), 150,
        note="(r,s)-quadrant form of the HF12 sum (includes the sg(r) factor "
             "omitted in the displayed version)"))
    for m in (0, 1, 2, 3, 7, 10):
        add(IdentityCase(
            f"theta-row-constant-{m}", "univariate", _leaf(mock.c_sum, m), J({2: 2, 1: -1}), 60,
            note="C_m = sum_k q^{(2k-m)(2k+1-m)/2} is independent of m"))

    return cases


@cache
def cases_by_id():
    """Every case by id, in registry order, built once per process."""
    return {c.id: c for c in registry()}


def registry_ids():
    return list(cases_by_id())


def get_case(case_id):
    return cases_by_id()[case_id]
