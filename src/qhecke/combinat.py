"""Brute-force enumerators for the two partition-style counting
functions and their generating functions.

P(n): strongly unimodal compositions with unit steps,
    x, x+1, ..., y, y-1, ..., z   (1 <= x <= y, 1 <= z <= y),
    with total y^2 - x(x-1)/2 - z(z-1)/2.

Q(n): partitions into consecutive parts where every part is a singleton
    except possibly the largest:
    s, s+1, ..., l, l, ..., l   (1 <= s <= l, k >= 0 extra copies of l),
    with total l(l+1)/2 - s(s-1)/2 + k*l.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .series import QSeries, geometric_sum, lattice_range


@dataclass(frozen=True)
class UnimodalComposition:
    first: int
    peak: int
    last: int

    def __post_init__(self):
        if not (1 <= self.first <= self.peak and 1 <= self.last <= self.peak):
            raise ValueError("need 1 <= first,last <= peak")

    def total(self):
        x, y, z = self.first, self.peak, self.last
        return y * y - x * (x - 1) // 2 - z * (z - 1) // 2

    def parts(self):
        return list(range(self.first, self.peak + 1)) + \
            list(range(self.peak - 1, self.last - 1, -1))


@dataclass(frozen=True)
class ConsecutivePartition:
    low: int
    high: int
    extra: int  # repetitions of the largest part beyond the first

    def __post_init__(self):
        if not (1 <= self.low <= self.high and self.extra >= 0):
            raise ValueError("need 1 <= low <= high and extra >= 0")

    def total(self):
        s, l, k = self.low, self.high, self.extra
        return l * (l + 1) // 2 - s * (s - 1) // 2 + k * l

    def parts(self):
        return list(range(self.low, self.high + 1)) + [self.high] * self.extra


def list_P(n):
    """All strongly unimodal unit-step compositions of n.

    Peak y has totals y (x = z = y) through y^2 (x = z = 1), so
    y^2 >= n.  Given y, t = y^2 - x(x-1)/2 - n must equal z(z-1)/2 for
    some 1 <= z <= y, i.e. lie in [0, y(y-1)/2]; both ends of that
    x-range are lattice_range ends, and z is solved for exactly.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    out = []
    for y in range(isqrt(n - 1) + 1, n + 1):
        top = y * y - n
        # x(x-1)/2 <= top, and x(x-1)/2 < top - y(y-1)/2 leaves z > y
        xs = lattice_range(1, -1, -2 * top, 1, y)
        short = lattice_range(1, -1, 2 - 2 * top + y * (y - 1))
        for x in range(max(xs.start, short.stop), xs.stop):
            t = top - x * (x - 1) // 2
            z = (1 + isqrt(1 + 8 * t)) // 2
            if z * (z - 1) // 2 == t and 1 <= z <= y:
                out.append(UnimodalComposition(x, y, z))
    return out


def count_P(n):
    return len(list_P(n))


def list_Q(n):
    """All consecutive-part partitions of n, singletons except the largest."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    out = []
    for high in range(1, n + 1):
        base_high = high * (high + 1) // 2
        for low in range(high, 0, -1):  # base grows as low shrinks
            base = base_high - low * (low - 1) // 2
            if base > n:
                break
            if (n - base) % high == 0:
                out.append(ConsecutivePartition(low, high, (n - base) // high))
    return out


def count_Q(n):
    return len(list_Q(n))


def P_series(n, method="direct"):
    """Generating function sum P(m) q^m to order n.

    direct: count compositions per m; formula: the (y,x,z) triple sum.
    Both methods must agree (standing self-test in the suite).
    """
    if method == "direct":
        return QSeries.from_terms(((m, count_P(m)) for m in range(1, n + 1)), n)
    if method != "formula":
        raise ValueError(f"unknown method {method!r}")
    counts = [0] * (n + 1)
    for y in range(1, n + 1):
        yy = y * y
        for x in range(y, 0, -1):
            rest = yy - x * (x - 1) // 2
            if rest - y * (y - 1) // 2 > n:
                break
            for z in range(y, 0, -1):
                total = rest - z * (z - 1) // 2
                if total > n:
                    break
                counts[total] += 1
    return QSeries(0, counts, n)


def Q_series(n, method="direct"):
    """Generating function sum Q(m) q^m to order n.

    formula: sum_{l>=1} sum_{m=1}^{l} q^{l(l+1)/2 - m(m-1)/2} / (1 - q^l).
    """
    if method == "direct":
        return QSeries.from_terms(((m, count_Q(m)) for m in range(1, n + 1)), n)
    if method != "formula":
        raise ValueError(f"unknown method {method!r}")

    def terms():
        # the exponent falls as m grows; the m whose exponent exceeds n
        # are the lattice_range m(m-1) <= l(l+1) - 2n - 2 (holding 0 and 1)
        for l in range(1, n + 1):
            base_l = l * (l + 1) // 2
            above = lattice_range(1, -1, 2 * n + 2 - 2 * base_l)
            for m in range(max(above.stop, 1), l + 1):
                yield 1, base_l - m * (m - 1) // 2, 1, l

    return geometric_sum(terms(), n)
