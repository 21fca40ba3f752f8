"""Per-n enumerators for the paper's two combinatorial readings of
Hurwitz class numbers, and their generating functions; T(k) = k(k+1)/2.

P(n) = F(4n-1): strongly unimodal compositions with unit steps,
    x, x+1, ..., y, y-1, ..., z (1 <= x, z <= y).  With a = y - x steps
    up and b = y - z down there are s = a + b + 1 parts, and
    n = s*y - T(a) - T(b).

Q(n) = H(8n-1): partitions low, low+1, ..., high, then extra more
    copies of high (1 <= low <= high).  With r = high - low + 1 distinct
    parts and j = r + extra parts in all, n = j*high - T(r - 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
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
    """All strongly unimodal unit-step compositions of n, by peak y,
    then by first part x.

    Each (a, b) gives one when y = (n + T(a) + T(b))/s is exact and
    y > max(a, b).  The least total of (a, b), at y = max(a, b) + 1,
    rises strictly in b (by a - b while b < a, by 3a + 4 from b = a,
    then by a + b + 2), so the first b whose least total exceeds n ends
    the b-loop; at b = 0 it is T(a + 1), which bounds a.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    out = []
    for a in range((isqrt(8 * n + 1) - 1) // 2):  # T(a + 1) <= n
        ta = a * (a + 1) // 2
        for b in count():
            s, t = a + b + 1, n + ta + b * (b + 1) // 2
            if s * (max(a, b) + 1) > t:
                break
            y, rem = divmod(t, s)
            if not rem:  # y > max(a, b), as n reaches the least total
                out.append(UnimodalComposition(y - a, y, y - b))
    out.sort(key=lambda c: (c.peak, c.first))
    return out


def count_P(n):
    return len(list_P(n))


def list_Q(n):
    """All consecutive-part partitions of n, singletons except the
    largest, by largest part, then by smallest part descending.

    They are the divisor pairs (high, j) of m = n + T(r - 1) with
    high, j >= r, found by trial division up to isqrt(m).  One needs
    m >= r^2, i.e. n >= T(r), which bounds r.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    out = []
    for r in range(1, (isqrt(8 * n + 1) + 1) // 2):  # T(r) <= n
        m = n + r * (r - 1) // 2
        for d in range(r, isqrt(m) + 1):
            e, rem = divmod(m, d)
            if not rem:
                out.append(ConsecutivePartition(d - r + 1, d, e - r))
                if e != d:
                    out.append(ConsecutivePartition(e - r + 1, e, d - r))
    out.sort(key=lambda p: (p.high, -p.low))
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
