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
bits is that bound's bit length plus a sign bit, in whole bytes.

Indefinite theta sums run over exactly the shells n that hold a term
through the order: the exponent is lowest at an end of the shell's
j-range, so those shells are the series.lattice_range of the two ends.
Appell-type sums run over exactly the k whose lowest exponent is at
most the order, and Humbert's double sum over exactly the (m, u) whose
exponent is; each term over its own 1 +- q^(dk+e) goes into
series.geometric_sum, exact for any degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from operator import add, lshift, rshift, sub
from typing import Callable, Optional

from .rings import ZPOLY, ZZ, ZPoly
from .series import QSeries, geom_ratio, geometric_sum, grown, lattice_range


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
    return QSeries(ZZ, 0, _term_sum(_RECIPES[which], n), n)


def eulerian(which, n):
    """One of the Eulerian series A, V1, sigma, phi_minus to order n."""
    return grown(_euler_cache, which, n, lambda m, _: _build_eulerian(which, m))


def _slot_bits(which, n):
    """Slot width for F4/F8 through q^n: whole bytes holding every
    coefficient with a sign bit, by the majorant."""
    top = max(_term_sum(_RECIPES[which], n, majorant=True))
    return 8 * ((top.bit_length() + 8) // 8)


def _build_bivariate(which, n):
    """F4 or F8 through q^n from the packed recurrence, one ZPoly per q^m."""
    bits = _slot_bits(which, n)
    size = bits // 8
    half = 1 << (bits - 1)
    slot_bias = bytes(size - 1) + b"\x80"
    fb = int.from_bytes
    coeffs = []
    for m, x in enumerate(_term_sum(_RECIPES[which], n, bits)):
        # the 2m + 1 slots of z^-m .. z^m, each biased to [0, 2^bits)
        width = size * (2 * m + 1)
        x = (x >> bits * (n + 1 - m)) + fb(slot_bias * (2 * m + 1), "little")
        data = x.to_bytes(width, "little")
        coeffs.append(ZPoly({a: fb(data[i:i + size], "little") - half
                             for a, i in enumerate(range(0, width, size), -m)}))
    return QSeries(ZPOLY, 0, coeffs, n)


_fz_cache: dict = {}


def F8_series(n):
    """F8(z,q) = sum (-1)^k (q;q^2)_k q^{(k+1)^2} / (zq, q/z; q^2)_{k+1}."""
    return grown(_fz_cache, "F8", n, lambda m, _: _build_bivariate("F8", m))


def F4_series(n):
    """F4(z,q) = sum (-1)^k (q;-q)_{2k} q^{k+1} / (zq, q/z; q^2)_{k+1}."""
    return grown(_fz_cache, "F4", n, lambda m, _: _build_bivariate("F4", m))


# ---------------------------------------------------------------------------
# Generic Hecke-Rogers evaluator


# region -> the two ends (j0, j1) of the j-range j0 + j1*|n| of shell n
_JENDS = {"jabs": ((1, 0), (0, 1)), "sym": ((1, -1), (0, 1)), "pos": ((1, 0), (0, 1))}


@dataclass(frozen=True)
class HeckeRogersSpec:
    """An indefinite theta sum over a lattice region.

    region: "jabs" (1 <= j <= |n|, n != 0), "sym" (1-|n| <= j <= |n|,
    n != 0) or "pos" (n >= 1, 1 <= j <= n).  The exponent is the
    integer-valued quadratic (A n^2 + B nj + C j^2 + D n + E j + F)/2
    given by doubled integer coefficients.  Sign flags compose
    multiplicatively; weight is w_n*n + w_j*j + w_0, optionally times
    extra(n, j); zpart attaches the Laurent-polynomial factor used by
    the z-analog identities.
    """

    region: str
    quad2: tuple  # doubled coefficients (A, B, C, D, E, F)
    sg_n: bool = False
    alt_n: bool = False        # (-1)^(n-1)
    alt_j: bool = False        # (-1)^(j-1)
    alt_half: bool = False     # (-1)^(n-1+j(j-1)/2)
    weight: tuple = (0, 0, 1)  # (w_n, w_j, w_0)
    extra: Optional[Callable] = None
    zpart: Optional[str] = None  # None | "geom_j" | "geom_n"

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

    def term_coeff(self, n, j):
        w = self.weight[0] * n + self.weight[1] * j + self.weight[2]
        if self.extra is not None:
            w *= self.extra(n, j)
        if w == 0:
            return 0
        s = 1
        if self.sg_n and n < 0:
            s = -s
        if self.alt_n and n % 2 == 0:
            s = -s
        if self.alt_j and j % 2 == 0:
            s = -s
        if self.alt_half and (n - 1 + j * (j - 1) // 2) % 2 != 0:
            s = -s
        return s * w

    def zfactor(self, n, j):
        if self.zpart == "geom_j":
            return geom_ratio(1 - j, j)
        if self.zpart == "geom_n":
            return geom_ratio(n, -n)
        raise ValueError(f"unknown zpart {self.zpart!r}")


def hecke_rogers(spec: HeckeRogersSpec, n):
    """Evaluate the indefinite theta sum to order n over the exact shells.

    Shell n = sgn*t (t >= 1) runs j between two ends linear in t.  With a
    j^2 coefficient <= 0 the exponent is lowest at one of those ends, so
    the shells holding a term are the union of the two ends' t-ranges.
    """
    ring = ZZ if spec.zpart is None else ZPOLY
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
            for j in spec.jrange(m):
                ex = spec.exponent(m, j)
                coef = spec.term_coeff(m, j) if ex <= n else 0
                if coef:
                    terms.append((ex, coef if spec.zpart is None
                                  else spec.zfactor(m, j) * coef))
    return QSeries.from_terms(ring, terms, n)


# ---------------------------------------------------------------------------
# Generic Appell-type right-hand sides


@dataclass(frozen=True)
class AppellRhsSpec:
    """sum w(k) (-1)^(k-1)? q^{a k^2 + b k + c} / (1 + s q^{d k + e}).

    krange is "bilateral" (k in Z) or "positive" (k >= 1); zgeom, when
    set, multiplies term k by a Laurent polynomial in z.
    """

    quad: tuple            # (a, b, c) with a > 0
    weight: tuple = (0, 1)  # (w1, w0): w1*k + w0
    alternating: bool = True
    denom_sign: int = 1     # s in 1 + s q^{dk+e}
    denom: tuple = (1, 0)   # (d, e), d != 0
    krange: str = "bilateral"
    zgeom: Optional[Callable] = None

    def exponent(self, k):
        a, b, c = self.quad
        return a * k * k + b * k + c

    def term_coeff(self, k):
        w = self.weight[0] * k + self.weight[1]
        if self.alternating and k % 2 == 0:
            w = -w
        return w


def appell_rhs(spec: AppellRhsSpec, n):
    """Evaluate the Appell-type sum to order n."""
    ring = ZZ if spec.zgeom is None else ZPOLY
    d, e = spec.denom
    s = spec.denom_sign
    # term k has lowest exponent Q(k) + max(0, -(dk+e)) with
    # Q(k) = ak^2 + bk + c: both Q(k) <= n and Q(k) - (dk+e) <= n
    qa, qb, qc = spec.quad
    ks = lattice_range(qa, qb, qc - n, 1 if spec.krange == "positive" else None)

    def terms():
        for k in lattice_range(qa, qb - d, qc - e - n, ks.start, ks.stop - 1):
            c = spec.term_coeff(k)
            if c:
                coef = spec.zgeom(k) * c if spec.zgeom is not None else ring.from_int(c)
                yield coef, spec.exponent(k), -s, d * k + e

    return geometric_sum(ring, terms(), n)


# ---------------------------------------------------------------------------
# Named instances from the identity catalog


def _q2(*coeffs):
    return tuple(2 * c for c in coeffs)


# exponent 2n^2 - n - j^2 + j over 1 <= j <= |n|
HR_HF8 = HeckeRogersSpec("jabs", _q2(2, 0, -1, -1, 1, 0), sg_n=True,
                         alt_j=True, weight=(0, 2, -1))
HR_A = HeckeRogersSpec("jabs", _q2(2, 0, -1, -1, 1, 0), sg_n=True,
                       alt_n=True, weight=(0, 0, 1))
HR_F8Z = HeckeRogersSpec("jabs", _q2(2, 0, -1, -1, 1, 0), sg_n=True,
                         alt_j=True, weight=(0, 0, 1), zpart="geom_j")

# exponent n^2 - j(j-1)/2 over n >= 1, 1 <= j <= n
_HF4_QUAD = (2, 0, -1, 0, 1, 0)
HR_F4Z = HeckeRogersSpec("pos", _HF4_QUAD, weight=(0, 0, 1), zpart="geom_n")
HR_V1 = HeckeRogersSpec("pos", _HF4_QUAD, weight=(0, 0, 1),
                        extra=lambda n, j: kronecker_minus4(n))
HR_HF4 = HeckeRogersSpec("pos", _HF4_QUAD, alt_half=True, weight=(1, 0, 0))

# exponent 4n^2 - 2n - 3j^2 + 2j over 1-|n| <= j <= |n|
HR_HF12 = HeckeRogersSpec("sym", _q2(4, 0, -3, -2, 2, 0), sg_n=True,
                          alt_j=True, weight=(4, 0, -1))
HR_SIGMA = HeckeRogersSpec("sym", _q2(4, 0, -3, -2, 2, 0), sg_n=True,
                           alt_j=True, weight=(0, 0, 1))

# exponent 3n^2 - n - 2j^2 + j over 1-|n| <= j <= |n|
HR_HF24 = HeckeRogersSpec("sym", _q2(3, 0, -2, -1, 1, 0), sg_n=True,
                          alt_n=True, weight=(0, 4, -1))
HR_PHI = HeckeRogersSpec("sym", _q2(3, 0, -2, -1, 1, 0), sg_n=True,
                         alt_n=True, weight=(0, 0, 1))
HR_PSI = HeckeRogersSpec("sym", _q2(3, 0, -2, -1, 1, 0), sg_n=True,
                         alt_j=True, weight=(0, 0, 1))

AP_HF4 = AppellRhsSpec((1, 0, 0), (2, -1), True, 1, (2, -1), "positive")
AP_HF8 = AppellRhsSpec((2, 0, 0), (4, -1), True, 1, (4, -1))
AP_A = AppellRhsSpec((2, 0, 0), (0, 1), True, -1, (4, -1))
AP_HF12 = AppellRhsSpec((3, 0, 0), (6, -1), True, 1, (6, -1))
AP_SIGMA = AppellRhsSpec((3, 0, 0), (0, 1), True, -1, (6, -1))
AP_HF24_A = AppellRhsSpec((6, 0, 0), (12, -1), True, 1, (12, -1))
AP_HF24_B = AppellRhsSpec((6, 0, -2), (12, -7), True, 1, (12, -7))
AP_F4Z = AppellRhsSpec((1, 0, 0), (0, 1), True, 1, (2, -1), "positive",
                       zgeom=lambda k: geom_ratio(1 - k, k))
AP_F8Z = AppellRhsSpec((2, 0, 0), (0, 1), True, 1, (4, -1), "bilateral",
                       zgeom=lambda k: geom_ratio(1 - 2 * k, 2 * k))


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

    return geometric_sum(ZZ, terms(), n)


def c_sum(n_shift, n):
    """C_m = sum_k q^{(2k - m)(2k + 1 - m)/2} (constant in m)."""
    m = n_shift
    return QSeries.from_terms(
        ZZ, (((2 * k - m) * (2 * k + 1 - m) // 2, 1)
             for k in lattice_range(4, 2 - 4 * m, m * (m - 1) - 2 * n)), n)
