"""Eulerian mock theta series, bivariate F4/F8, and the generic
Hecke-Rogers and Appell-type sum evaluators.

The four Eulerian series

    A(q)    = sum q^{(n+1)^2} (-q;q^2)_n   / (q;q^2)_{n+1}^2
    V1(q)   = sum q^{(n+1)^2} (-q;q^2)_n   / (q;q^2)_{n+1}
    sigma(q)= sum q^{(n+1)(n+2)/2} (-q;q)_n / (q;q^2)_{n+1}
    phi-(q) = sum_{n>=1} q^n (-q;q)_{2n-1} / (q;q^2)_n

and the bivariate F4(z,q), F8(z,q) are built by one term-recurrence
engine: each term is the previous one times +-q^s, a few 1 +- q^d and
a few 1/(1 - z^t q^d), and the sum stops once a term's valuation
exceeds the order.  A term is a flat list of n + 1 ints: q^s is a
slice, 1 +- q^d one top-down pass and 1/(1 - q^d) one bottom-up pass.
For F4 and F8 each q-coefficient sum_a c_a z^a is packed into one int,
sum_a c_a B^(a + n + 1) with B = 2^bits (Kronecker substitution), so
1/(1 - z q^d) shifts term[i - d] left by bits before adding it and
1/(1 - q^d/z) shifts it right, exactly since |a| <= m <= n at q^m.
Each step is a ring map, so only the final unpack needs every
|c_a| < B/2.  The width comes from a majorant: the same engine at
B = 1 with every sign made + gives at q^m a bound on sum_a |c_a|, and
kernels._slot_bytes turns its bit length plus a sign bit into whole
bytes; kernels.unpack_rows reads every row in one call.

The congruence cases need the Eulerian series only modulo m = 2^k.
Their residue form reads the same recipes and keeps a whole term in one
int, the residue at q^e in a slot of k + 1 bits: q^s is a right shift,
1 + q^d one shift-add, 1/(1 - q^d) the doubling product of the
1 + q^(d 2^i), and each step ends with one AND against the slot mask.
A slot holds less than m after that AND, so one addition never carries
into the next slot.  Only recipes with + signs and no z qualify.

A Hecke-Rogers or Appell-type sum is described by one spec: its
quadratic exponent, its index region and one coefficient function.
Indefinite theta sums run over exactly the shells n that hold a term
through the order: the exponent is lowest at an end of the shell's
j-range, so those shells are the series.lattice_range of the two ends,
and within a shell the j above q^n, one middle lattice_range, are skipped.
Appell-type sums, the Appell-Lerch sums of theta.appell_m included,
run over series.appell_range, the k whose lowest exponent is at most
the order, and Humbert's double sum over exactly the (m, u) whose
exponent is; each term over its own 1 - r q^(dk+e) goes into
series.geometric_sum, exact for any degree, which keeps a sum with a
ZPoly in it, as every Appell-Lerch sum in z is, on packed ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from operator import add, lshift, rshift, sub
from typing import Callable, Optional

from .kernels import _slot_bytes, unpack_rows
from .rings import ZPoly
from .series import (QSeries, appell_range, geom_ratio, geometric_sum, grown,
                     lattice_range)


def kronecker_minus4(n):
    """The Kronecker symbol (-4 | n): 0, 1, -1 for n = 0, 1, 3 (mod 4)."""
    if n % 2 == 0:
        return 0
    return 1 if n % 4 == 1 else -1


# ---------------------------------------------------------------------------
# The term-recurrence engine: Eulerian series and bivariate F4, F8


# A recipe is (first, step): term_0 = first applied to 1, and term_k =
# step(k) applied to term_(k-1).  Each is (sign, s, muls, divs), the factor
#     sign * q^s * prod_(e, d) (1 + e*q^d) / prod_(t, d) (1 - z^t*q^d)
# with e = +-1, t in {-1, 0, 1} and every d >= 1.
_RECIPES = {
    "A": ((1, 1, (), ((0, 1), (0, 1))),
          lambda k: (1, 2 * k + 1, ((1, 2 * k - 1),),
                     ((0, 2 * k + 1), (0, 2 * k + 1)))),
    "V1": ((1, 1, (), ((0, 1),)),
           lambda k: (1, 2 * k + 1, ((1, 2 * k - 1),), ((0, 2 * k + 1),))),
    "sigma": ((1, 1, (), ((0, 1),)),
              lambda k: (1, k + 1, ((1, k),), ((0, 2 * k + 1),))),
    "phi_minus": ((1, 1, ((1, 1),), ((0, 1),)),
                  lambda k: (1, 1, ((1, 2 * k), (1, 2 * k + 1)), ((0, 2 * k + 1),))),
    "F8": ((1, 1, (), ((1, 1), (-1, 1))),
           lambda k: (-1, 2 * k + 1, ((-1, 2 * k - 1),),
                      ((1, 2 * k + 1), (-1, 2 * k + 1)))),
    "F4": ((1, 1, (), ((1, 1), (-1, 1))),
           lambda k: (-1, 1, ((-1, 2 * k - 1), (1, 2 * k)),
                      ((1, 2 * k + 1), (-1, 2 * k + 1)))),
}


def _term_sum(recipe, n, bits=0, majorant=False):
    """The sum of the recipe's terms through q^n, as n + 1 ints.

    Every term is a flat list of n + 1 ints; the sum stops at the first
    term whose valuation (the sum of its shifts) exceeds n.  A z-free
    recipe gives the coefficients themselves.  With z, entry m packs
    sum_a c_a z^a as sum_a c_a * 2^(bits*(a + n + 1)), so 1/(1 - z q^d)
    is a left shift of term[i - d] by bits and 1/(1 - q^d/z) a right
    shift, exact because |a| <= m <= n.  With ``majorant`` every sign is
    +; at bits = 0 (z -> 1) entry m then bounds sum_a |c_a| at q^m.
    """
    first, step = recipe
    term = [1 << bits * (n + 1)] + [0] * n
    out = [0] * (n + 1)
    v, sg, k, factors = 0, 1, 0, first
    while True:
        sign, s, muls, divs = factors
        v += s
        if v > n:
            return out
        term = [0] * s + term[:n + 1 - s]
        if not majorant:
            sg *= sign
        for e, d in muls:
            # times 1 + e q^d: both slices are read before the write
            term[v + d:] = map(add if e > 0 or majorant else sub,
                               term[v + d:], term[v:n + 1 - d])
        for t, d in divs:
            # divided by 1 - z^t q^d, one stride of d entries at a time,
            # each from the one below it already divided
            for j in range(v + d, n + 1, d):
                below = term[j - d:j]
                if t and bits:
                    below = map(lshift if t > 0 else rshift, below, repeat(bits))
                term[j:j + d] = map(add, term[j:j + d], below)
        out[v:] = map(add if sg > 0 else sub, out[v:], term[v:])
        k += 1
        factors = step(k)


_euler_cache: dict = {}


def _build_eulerian(which, n):
    """A, V1, sigma or phi_minus through exactly q^n, from its recipe."""
    if which not in ("A", "V1", "sigma", "phi_minus"):
        raise ValueError(f"unknown Eulerian series {which!r}")
    return QSeries(0, _term_sum(_RECIPES[which], n), n)


def eulerian(which, n):
    """One of the Eulerian series A, V1, sigma, phi_minus to order n."""
    return grown(_euler_cache, which, n, lambda m: _build_eulerian(which, m))


def _residue_sum(recipe, n, m):
    """The sum of the recipe's terms through q^n modulo m = 2^k, as n + 1
    residues in [0, m).

    A term is one int with the residue at q^e in slot n - e, each slot
    k + 1 bits wide and below m after every AND with the slot mask, so
    one addition stays below 2^(k + 1) and no carry crosses a slot.
    q^s is a right shift, which drops what passes q^n, 1 + q^d one
    shift-add, and 1/(1 - q^d) the product of the 1 + q^(d 2^i) with
    d 2^i <= n - v.  Only + signs and z-free factors are allowed.
    """
    w = m.bit_length()
    mask = (m - 1) * (((1 << w * (n + 1)) - 1) // ((1 << w) - 1))
    first, step = recipe
    term, out = 1 << w * n, 0
    v, k, factors = 0, 0, first
    while True:
        sign, s, muls, divs = factors
        if sign < 0 or any(e < 0 for e, _ in muls) or any(t for t, _ in divs):
            raise ValueError("residue sums take only + signs and z-free factors")
        v += s
        if v > n:
            break
        term >>= w * s
        for _, d in muls:
            term = (term + (term >> w * d)) & mask
        for _, d in divs:
            while d <= n - v:
                term = (term + (term >> w * d)) & mask
                d *= 2
        out = (out + term) & mask
        k += 1
        factors = step(k)
    bits = format(out, f"0{w * (n + 1)}b")
    return [int(bits[j:j + w], 2) for j in range(0, w * (n + 1), w)]


_residue_cache: dict = {}


def eulerian_residues(which, n, m):
    """A, V1, sigma or phi_minus through q^n with every coefficient
    reduced to [0, m), for m a power of two >= 2."""
    if type(m) is not int or m < 2 or m & (m - 1):
        raise ValueError(f"modulus must be a power of two >= 2, got {m!r}")
    if which not in _RECIPES:
        raise ValueError(f"unknown Eulerian series {which!r}")
    return grown(_residue_cache, (which, m), n,
                 lambda top: QSeries(0, _residue_sum(_RECIPES[which], top, m), top))


def _build_bivariate(which, n):
    """F4 or F8 through q^n from the packed recurrence, one ZPoly per q^m,
    all rows read at once from the slots of z^-(n+1) .. z^(n+1)."""
    recipe = _RECIPES[which]
    k = _slot_bytes(max(_term_sum(recipe, n, majorant=True)).bit_length() + 1)
    return QSeries(0, unpack_rows(_term_sum(recipe, n, 8 * k), k, -n - 1, 2 * n + 3), n)


_fz_cache: dict = {}


def F8_series(n):
    """F8(z,q) = sum (-1)^k (q;q^2)_k q^{(k+1)^2} / (zq, q/z; q^2)_{k+1}."""
    return grown(_fz_cache, "F8", n, lambda m: _build_bivariate("F8", m))


def F4_series(n):
    """F4(z,q) = sum (-1)^k (q;-q)_{2k} q^{k+1} / (zq, q/z; q^2)_{k+1}."""
    return grown(_fz_cache, "F4", n, lambda m: _build_bivariate("F4", m))


# ---------------------------------------------------------------------------
# Generic Hecke-Rogers evaluator


# region -> the two ends (j0, j1) of the j-range j0 + j1*|n| of shell n
_JENDS = {"jabs": ((1, 0), (0, 1)), "sym": ((1, -1), (0, 1)), "pos": ((1, 0), (0, 1))}


@dataclass(frozen=True)
class HeckeRogersSpec:
    """The indefinite theta sum of coef(n, j) q^Q(n, j) over a lattice region.

    region: "jabs" (1 <= j <= |n|, n != 0), "sym" (1-|n| <= j <= |n|,
    n != 0) or "pos" (n >= 1, 1 <= j <= n).  Q is the integer-valued
    quadratic (A n^2 + B nj + C j^2 + D n + E j + F)/2 given by doubled
    integer coefficients.  coef(n, j) is an int, or a Laurent polynomial
    in z for the z-analogs.
    """

    region: str
    quad2: tuple  # doubled coefficients (A, B, C, D, E, F)
    coef: Callable

    def __post_init__(self):
        if self.region not in _JENDS:
            raise ValueError(f"unknown region {self.region!r}")
        a, b, c, d, e, f = self.quad2
        if b % 2 or f % 2 or (a + d) % 2 or (c + e) % 2:
            raise ValueError(f"quad2 {self.quad2} does not give an integer exponent")
        if c > 0:
            raise ValueError("Hecke-Rogers sums need a j^2 coefficient <= 0")

    def exponent(self, n, j):
        a, b, c, d, e, f = self.quad2
        return (a * n * n + b * n * j + c * j * j + d * n + e * j + f) // 2

    def jrange(self, n):
        if self.region == "pos" and n < 1:
            return range(0)
        (lo0, lo1), (hi0, hi1) = _JENDS[self.region]
        return range(lo0 + lo1 * abs(n), hi0 + hi1 * abs(n) + 1)


def hecke_rogers(spec: HeckeRogersSpec, n):
    """Evaluate the indefinite theta sum to order n over the exact shells.

    Shell n = sgn*t (t >= 1) runs j between two ends linear in t.  With a
    j^2 coefficient <= 0 the exponent is lowest at one of those ends, so
    the shells holding a term are the union of the two ends' t-ranges.
    Within a shell the j above q^n are one middle run, a lattice_range
    that is skipped.
    """
    a, b, c, d, e, f = spec.quad2
    terms = []
    for sgn in ((1,) if spec.region == "pos" else (1, -1)):
        # doubled exponent at n = sgn*t, j = j0 + j1*t, as a quadratic in t
        t_lo, t_hi = (lattice_range(a + sgn * b * j1 + c * j1 * j1,
                                    sgn * (b * j0 + d) + 2 * c * j0 * j1 + e * j1,
                                    c * j0 * j0 + e * j0 + f - 2 * n, lo=1)
                      for j0, j1 in _JENDS[spec.region])
        for t in chain(t_lo, (t for t in t_hi if t not in t_lo)):
            m = sgn * t
            js = spec.jrange(m)
            # the j whose doubled exponent c j^2 + lin j + rest exceeds 2n
            lin, rest = b * m + e, a * m * m + d * m + f
            above = (lattice_range(-c, -lin, 2 * n + 1 - rest, js.start, js.stop - 1)
                     if c or lin else range(0))
            if above:
                js = chain(range(js.start, above.start), range(above.stop, js.stop))
            for j in js:
                coef = spec.coef(m, j)
                if coef:
                    terms.append((spec.exponent(m, j), coef))
    return QSeries.from_terms(terms, n)


# ---------------------------------------------------------------------------
# Generic Appell-type sums


@dataclass(frozen=True)
class AppellRhsSpec:
    """sum_{k >= lo} coef(k) q^((A k^2 + B k + C)/2) / (1 - ratio q^(d k + e)).

    quad2 = (A, B, C), A > 0, gives the exponent by doubled integer
    coefficients; lo = None sums over all of Z.  coef(k) and ratio are
    each a rational or a Laurent polynomial in z.
    """

    quad2: tuple
    coef: Callable
    ratio: object
    denom: tuple  # (d, e)
    lo: Optional[int] = None

    def __post_init__(self):
        a, b, c = self.quad2
        if (a + b) % 2 or c % 2:
            raise ValueError(f"quad2 {self.quad2} does not give an integer exponent")


def appell_rhs(spec: AppellRhsSpec, n):
    """Evaluate the Appell-type sum to order n over series.appell_range."""
    a, b, c = spec.quad2
    d, e = spec.denom

    def terms():
        for k in appell_range(a, b, c, d, e, n, spec.lo):
            coef = spec.coef(k)
            if coef:
                yield coef, (a * k * k + b * k + c) // 2, spec.ratio, d * k + e

    return geometric_sum(terms(), n)


# ---------------------------------------------------------------------------
# Named instances from the identity catalog


def _q2(*coeffs):
    return tuple(2 * c for c in coeffs)


def _sg(n):
    """sg(n): 1 for n >= 0, -1 for n < 0."""
    return 1 if n >= 0 else -1


def _alt(k):
    """(-1)^(k-1)."""
    return 1 if k % 2 else -1


# exponent 2n^2 - n - j^2 + j over 1 <= j <= |n|
_HF8_QUAD = _q2(2, 0, -1, -1, 1, 0)
HR_HF8 = HeckeRogersSpec("jabs", _HF8_QUAD, lambda n, j: _sg(n) * _alt(j) * (2 * j - 1))
HR_A = HeckeRogersSpec("jabs", _HF8_QUAD, lambda n, j: _sg(n) * _alt(n))
HR_F8Z = HeckeRogersSpec("jabs", _HF8_QUAD,
                         lambda n, j: _sg(n) * _alt(j) * geom_ratio(1 - j, j))

# exponent n^2 - j(j-1)/2 over n >= 1, 1 <= j <= n
_HF4_QUAD = (2, 0, -1, 0, 1, 0)
HR_F4Z = HeckeRogersSpec("pos", _HF4_QUAD, lambda n, j: geom_ratio(n, -n))
HR_V1 = HeckeRogersSpec("pos", _HF4_QUAD, lambda n, j: kronecker_minus4(n))
HR_HF4 = HeckeRogersSpec("pos", _HF4_QUAD, lambda n, j: _alt(n + j * (j - 1) // 2) * n)

# exponent 4n^2 - 2n - 3j^2 + 2j over 1-|n| <= j <= |n|
_HF12_QUAD = _q2(4, 0, -3, -2, 2, 0)
HR_HF12 = HeckeRogersSpec("sym", _HF12_QUAD, lambda n, j: _sg(n) * _alt(j) * (4 * n - 1))
HR_SIGMA = HeckeRogersSpec("sym", _HF12_QUAD, lambda n, j: _sg(n) * _alt(j))

# exponent 3n^2 - n - 2j^2 + j over 1-|n| <= j <= |n|
_HF24_QUAD = _q2(3, 0, -2, -1, 1, 0)
HR_HF24 = HeckeRogersSpec("sym", _HF24_QUAD, lambda n, j: _sg(n) * _alt(n) * (4 * j - 1))
HR_PHI = HeckeRogersSpec("sym", _HF24_QUAD, lambda n, j: _sg(n) * _alt(n))
HR_PSI = HeckeRogersSpec("sym", _HF24_QUAD, lambda n, j: _sg(n) * _alt(j))

# (-1)^(k-1) w(k) q^Q(k) over 1 + q^(dk+e) (ratio -1) or 1 - q^(dk+e) (ratio 1)
AP_HF4 = AppellRhsSpec((2, 0, 0), lambda k: _alt(k) * (2 * k - 1), -1, (2, -1), lo=1)
AP_HF8 = AppellRhsSpec((4, 0, 0), lambda k: _alt(k) * (4 * k - 1), -1, (4, -1))
AP_A = AppellRhsSpec((4, 0, 0), _alt, 1, (4, -1))
AP_HF12 = AppellRhsSpec((6, 0, 0), lambda k: _alt(k) * (6 * k - 1), -1, (6, -1))
AP_SIGMA = AppellRhsSpec((6, 0, 0), _alt, 1, (6, -1))
AP_HF24_A = AppellRhsSpec((12, 0, 0), lambda k: _alt(k) * (12 * k - 1), -1, (12, -1))
AP_HF24_B = AppellRhsSpec((12, 0, -4), lambda k: _alt(k) * (12 * k - 7), -1, (12, -7))
AP_F4Z = AppellRhsSpec((2, 0, 0), lambda k: _alt(k) * geom_ratio(1 - k, k), -1, (2, -1),
                       lo=1)
AP_F8Z = AppellRhsSpec((4, 0, 0), lambda k: _alt(k) * geom_ratio(1 - 2 * k, 2 * k), -1,
                       (4, -1))

# the Appell-Lerch sums of the cleared identities in z: j(-q;q^2) m(-z,q^2,-q),
# j(-1;q) m(-z,q,-1) less its pole term 1/(1 - z) at k = 1, and
# j(q^2/z^2;q^4) (m(-qz^2,q^4,q^2/z^2) - m(-q/z^2,q^4,q^2 z^2)/z)
AP_M_F4Z = AppellRhsSpec((2, 0, 0), lambda k: 1, ZPoly.monomial(1, 1), (2, -1))
AP_M_F8Z = AppellRhsSpec((1, -1, 0), lambda k: int(k != 1), ZPoly.monomial(1, 1), (1, -1))
AP_M_SPLIT = AppellRhsSpec((4, 0, 0), lambda k: -_alt(k) * ZPoly({-2 * k: 1, 2 * k - 1: -1}),
                           -1, (4, -1))


# ---------------------------------------------------------------------------
# Humbert's double sum


def humbert_series(n):
    """sum_{m>=0} sum_{u=-m..m} q^{(m+1)^2 - u^2} / (1 - q^{2m+1}).

    Row m reaches q^n from u = +-m (exponent 2m + 1) inwards; the
    middle u, whose exponent exceeds n, are one lattice_range.
    """
    def terms():
        for m in range((n + 1) // 2):
            above = lattice_range(1, 0, n + 1 - (m + 1) ** 2)
            for u in chain(range(-m, above.start), range(above.stop, m + 1)):
                yield 1, (m + 1) ** 2 - u * u, 1, 2 * m + 1

    return geometric_sum(terms(), n)


def c_sum(n_shift, n):
    """C_m = sum_k q^{(2k - m)(2k + 1 - m)/2} (constant in m)."""
    m = n_shift
    return QSeries.from_terms((((2 * k - m) * (2 * k + 1 - m) // 2, 1)
                               for k in lattice_range(4, 2 - 4 * m, m * (m - 1) - 2 * n)), n)
