"""Exact coefficients for q-series.

A coefficient carries its own type, and Z is a subring of both Q and
Z[z, 1/z]:

* a scalar is a rational, a ``fractions.Fraction`` with integers kept as
  plain ``int``s: an integral series is the denominator-1 case
* a ``ZPoly`` is a Laurent polynomial in z with int coefficients, an
  element of Z[z, 1/z], as a dense window: its lowest z-exponent plus a
  tuple of coefficients trimmed to nonzero ends

Zero is ``0`` and one is ``1`` in both.  Everything is exact; no floats
appear anywhere.  Ints and ZPolys mix under ``+ - *``, so series code
never asks which kind it holds; a Fraction never enters a ZPoly, and
each operation that would put one there raises TypeError.  ``invert``
dispatches on the coefficient itself, and the kernels only to pick the
product.  ``ZPoly.eval`` takes the value at an exact nonzero rational
z0 by Horner's rule.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul
from types import MappingProxyType

from .errors import NonUnitError

_new = object.__new__
_SCALARS = int


class ZPoly:
    """Laurent polynomial in z with int coefficients, as a dense window.

    ``lo`` is the lowest z-exponent and ``coeffs`` an immutable tuple of
    ints, the coefficients of z^lo, z^(lo+1), ...  Both ends
    of the window are nonzero (interior zeros are stored); the zero
    polynomial is ``lo = 0, coeffs = ()``.  A sum is one aligned map over
    two windows, and a product with a monomial only moves ``lo`` (sharing
    the tuple when the coefficient is 1).  ``ZPoly({k: v})`` builds from a
    dict and drops zero values; ``.c`` is a read-only dict view of the
    nonzero terms.  The constructors refuse a coefficient that is not an
    int with TypeError, and a scalar ``+ - *`` takes only an int.
    """

    __slots__ = ("lo", "coeffs")

    def __init__(self, coeffs=None):
        lo, window = 0, ()
        if coeffs:
            lo = min(coeffs)
            dense = [0] * (max(coeffs) - lo + 1)
            for k, v in coeffs.items():
                dense[k - lo] = _int(v)
            window = tuple(dense)
        p = _window(lo, window)
        self.lo, self.coeffs = p.lo, p.coeffs

    @classmethod
    def const(cls, v):
        return _window(0, (_int(v),))

    @classmethod
    def monomial(cls, v, k):
        return _window(k, (_int(v),))

    @property
    def c(self):
        """Read-only {z-exponent: coefficient} view of the nonzero terms."""
        lo = self.lo
        return MappingProxyType({lo + i: v for i, v in enumerate(self.coeffs) if v})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if type(other) is ZPoly:
            return self.lo == other.lo and self.coeffs == other.coeffs
        if isinstance(other, _SCALARS):
            if other == 0:
                return not self.coeffs
            return self.lo == 0 and self.coeffs == (other,)
        return NotImplemented

    def __hash__(self):
        # constants hash like the number they equal
        if self.lo == 0 and len(self.coeffs) < 2:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash((self.lo, self.coeffs))

    def __add__(self, other):
        if type(other) is not ZPoly:
            if not isinstance(other, _SCALARS):
                return NotImplemented
            if not other:  # series pad with the scalar 0
                return self
            other = ZPoly.const(other)
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        return _aligned(self, other)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.lo, tuple([-x for x in self.coeffs]))

    def __sub__(self, other):
        if type(other) is not ZPoly and not isinstance(other, _SCALARS):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -self + other  # 0 - p takes __add__'s scalar-zero path

    def __mul__(self, other):
        if type(other) is not ZPoly:
            if not isinstance(other, _SCALARS):
                return NotImplemented
            return self._times_monomial(other, 0)
        if len(other.coeffs) == 1:
            return self._times_monomial(other.coeffs[0], other.lo)
        if len(self.coeffs) == 1:
            return other._times_monomial(self.coeffs[0], self.lo)
        if not self.coeffs or not other.coeffs:
            return _ZERO
        b = other.coeffs
        out = [0] * (len(self.coeffs) + len(b) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _window(self.lo + other.lo, tuple(out))

    __rmul__ = __mul__

    def _times_monomial(self, v, k):
        """v * z^k * self for a scalar v."""
        if not v or not self.coeffs:
            return _ZERO
        if v == 1:
            return _raw(self.lo + k, self.coeffs)
        return _raw(self.lo + k, tuple([v * x for x in self.coeffs]))

    def eval(self, z0):
        """The value at an exact nonzero rational z0 (see _point), a
        Fraction: Horner's rule on the window, times z0^lo."""
        z0 = _point(z0)
        v = 0
        for x in reversed(self.coeffs):
            v = v * z0 + x
        return v * z0 ** self.lo

    def at_one(self):
        """Substitution z -> 1 (sum of coefficients)."""
        return sum(self.coeffs)

    def dz_at_one(self):
        """d/dz at z = 1: sum of k * c_k."""
        return sum(map(mul, self.coeffs, range(self.lo, self.lo + len(self.coeffs))))

    def __repr__(self):
        return f"ZPoly({dict(self.c)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, v in enumerate(self.coeffs):
            if not v:
                continue
            k = self.lo + i
            vs = str(v)
            if k == 0:
                parts.append(vs)
            else:
                zs = "z" if k == 1 else f"z^{k}"
                parts.append(zs if v == 1 else f"-{zs}" if v == -1 else f"{vs}*{zs}")
        return " + ".join(parts).replace("+ -", "- ")


def _int(v):
    """v, when it is an int: a ZPoly coefficient lies in Z."""
    if not isinstance(v, int):
        raise TypeError(f"a ZPoly coefficient must be an int, got {type(v).__name__}")
    return v


def _raw(lo, coeffs):
    """A ZPoly over a window already trimmed to nonzero ends."""
    p = _new(ZPoly)
    p.lo = lo
    p.coeffs = coeffs
    return p


_ZERO = _raw(0, ())


def _window(lo, coeffs):
    """The ZPoly z^lo * (coeffs[0] + coeffs[1]*z + ...), zero ends trimmed."""
    if coeffs and coeffs[0] and coeffs[-1]:
        return _raw(lo, coeffs)
    a, b = 0, len(coeffs)
    while a < b and not coeffs[a]:
        a += 1
    while b > a and not coeffs[b - 1]:
        b -= 1
    return _raw(lo + a, coeffs[a:b]) if a < b else _ZERO


def _aligned(p, q):
    """The sum of two nonzero ZPolys, one add per z-exponent of both windows."""
    a, b = p.coeffs, q.coeffs
    lo = min(p.lo, q.lo)
    hi = max(p.lo + len(a), q.lo + len(b))
    if p.lo != lo or len(a) != hi - lo:
        a = (0,) * (p.lo - lo) + a + (0,) * (hi - p.lo - len(a))
    if q.lo != lo or len(b) != hi - lo:
        b = (0,) * (q.lo - lo) + b + (0,) * (hi - q.lo - len(b))
    return _window(lo, tuple(map(add, a, b)))


def _point(z0):
    """z0 as a Fraction, when it is an exact nonzero rational point.

    z0 must be an int or a Fraction: a float would be read as its binary
    expansion, so anything else raises TypeError, and 0 raises
    ZeroDivisionError, as z^-1 has no value there.
    """
    if not isinstance(z0, (int, Fraction)):
        raise TypeError(f"z0 must be an int or a Fraction, got {type(z0).__name__}")
    if z0 == 0:
        raise ZeroDivisionError("cannot evaluate Laurent polynomial at z=0")
    return Fraction(z0)


def invert(x):
    """1/x for a nonzero rational, or for a unit +-z^k of Z[z, 1/z];
    NonUnitError for anything else.  An integral inverse is an int."""
    if type(x) is ZPoly:
        if len(x.coeffs) != 1 or x.coeffs[0] not in (1, -1):
            raise NonUnitError(f"{x} is not a unit of Z[z, 1/z]")
        return _raw(-x.lo, x.coeffs)
    if x == 1 or x == -1:
        return int(x)
    if x == 0:
        raise NonUnitError("0 is not a unit")
    r = Fraction(1) / x
    return r.numerator if r.denominator == 1 else r
