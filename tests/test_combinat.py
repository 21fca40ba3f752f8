"""Unimodal compositions and consecutive-part partitions, checked
against exhaustive generate-and-filter oracles."""

from math import isqrt

import pytest

from qhecke.combinat import (ConsecutivePartition, P_series, Q_series,
                             UnimodalComposition, count_P, count_Q, list_P,
                             list_Q)
from qhecke.verify import _compare


def oracle_P(n):
    """Generate every composition of n with unit steps and filter for
    strict unimodality (no parametrization shared with the package)."""
    hits = []

    def extend(prefix, remaining):
        if remaining == 0:
            seq = prefix
            k = seq.index(max(seq))
            if (all(seq[i + 1] == seq[i] + 1 for i in range(k)) and
                    all(seq[i + 1] == seq[i] - 1 for i in range(k, len(seq) - 1))):
                hits.append(list(seq))
            return
        choices = [prefix[-1] + 1, prefix[-1] - 1] if prefix else range(1, remaining + 1)
        for v in choices:
            if 1 <= v <= remaining:
                extend(prefix + [v], remaining - v)

    extend([], n)
    return hits


def scan_P(n):
    """(x, y, z) for every composition of n, by peak y then first part
    x, by scanning every peak y <= n and every x from 1 until
    y^2 - x(x-1)/2 falls below n, with z solved from what is left
    (no lattice_range, no (a, b) parametrization)."""
    hits = []
    for y in range(1, n + 1):
        for x in range(1, y + 1):
            t = y * y - x * (x - 1) // 2 - n
            if t < 0:
                break
            z = (1 + isqrt(1 + 8 * t)) // 2
            if z * (z - 1) // 2 == t and 1 <= z <= y:
                hits.append((x, y, z))
    return hits


def scan_Q(n):
    """(low, high, extra) for every partition of n, by largest part then
    smallest part descending, by trying every pair 1 <= low <= high <= n
    (no divisor pairs)."""
    hits = []
    for high in range(1, n + 1):
        for low in range(high, 0, -1):
            base = high * (high + 1) // 2 - low * (low - 1) // 2
            if base <= n and (n - base) % high == 0:
                hits.append((low, high, (n - base) // high))
    return hits


def oracle_Q(n):
    """All partitions of n filtered for: parts form a consecutive run,
    all multiplicities 1 except possibly the largest part."""
    hits = []

    def partitions(m, maxp):
        if m == 0:
            yield []
            return
        for p in range(min(m, maxp), 0, -1):
            for rest in partitions(m - p, p):
                yield [p] + rest

    for part in partitions(n, n):
        parts = sorted(part)
        largest = parts[-1]
        body = [p for p in parts if p != largest]
        if len(body) != len(set(body)):
            continue
        run = body + [largest]
        if all(run[i + 1] == run[i] + 1 for i in range(len(run) - 1)):
            hits.append(parts)
    return hits


def test_counts_against_exhaustive_oracles():
    for n in range(1, 26):
        assert count_P(n) == len(oracle_P(n)), n
    for n in range(1, 41):
        assert count_Q(n) == len(oracle_Q(n)), n


def test_listings_match_oracles_exactly():
    for n in (3, 4, 7, 12):
        got = sorted(c.parts() for c in list_P(n))
        assert got == sorted(oracle_P(n))
        got = sorted(sorted(c.parts()) for c in list_Q(n))
        assert got == sorted(oracle_Q(n))


@pytest.mark.parametrize("ns", [range(1, 201), (500, 997, 1024)])
def test_list_P_matches_full_scan(ns):
    for n in ns:
        assert [(c.first, c.peak, c.last) for c in list_P(n)] == scan_P(n), n


@pytest.mark.parametrize("ns", [range(1, 201), (500, 997, 1024)])
def test_list_Q_matches_full_scan(ns):
    for n in ns:
        assert [(p.low, p.high, p.extra) for p in list_Q(n)] == scan_Q(n), n


def test_list_P_stopping_rules():
    # the least total of a steps up and b down, over peaks y > max(a, b),
    # is at y = max(a, b) + 1 and rises strictly in b: list_P's b-loop
    # breaks at the first b whose least total exceeds n; at b = 0 it is
    # T(a + 1), bounding a
    def least(a, b):
        m = max(a, b) + 1
        totals = [UnimodalComposition(y - a, y, y - b).total()
                  for y in range(m, m + 4)]
        assert totals == sorted(totals)
        return totals[0]

    for a in range(61):
        assert least(a, 0) == (a + 1) * (a + 2) // 2
        for b in range(61):
            assert least(a, b) < least(a, b + 1), (a, b)


def test_list_Q_stopping_rule():
    # the least total of r distinct parts, over largest parts and extra
    # copies, is T(r) (high = r, extra = 0), and it rises strictly in r:
    # list_Q's r-loop runs exactly over the r with T(r) <= n
    def least(r):
        return min(ConsecutivePartition(high - r + 1, high, extra).total()
                   for high in range(r, r + 4) for extra in range(4))

    for r in range(1, 61):
        assert least(r) == r * (r + 1) // 2 < least(r + 1), r


def test_P_pins():
    assert count_P(1) == 1
    assert count_P(3) == 3
    assert sorted(c.parts() for c in list_P(3)) == [[1, 2], [2, 1], [3]]
    assert count_P(4) == 2
    assert sorted(c.parts() for c in list_P(4)) == [[1, 2, 1], [4]]


def test_Q_pins():
    assert count_Q(1) == 1
    assert count_Q(2) == 2
    assert sorted(c.parts() for c in list_Q(3)) == [[1, 1, 1], [1, 2], [3]]


def test_each_listed_object_is_well_formed():
    for n in (9, 14):
        for comp in list_P(n):
            assert comp.total() == n
            assert sum(comp.parts()) == n
        for part in list_Q(n):
            assert part.total() == n
            assert sum(part.parts()) == n


def test_invalid_objects_rejected():
    with pytest.raises(ValueError):
        UnimodalComposition(3, 2, 1)
    with pytest.raises(ValueError):
        ConsecutivePartition(4, 3, 0)
    with pytest.raises(ValueError):
        ConsecutivePartition(1, 3, -1)


def test_n_zero_is_an_error():
    for fn in (count_P, count_Q, list_P, list_Q):
        with pytest.raises(ValueError):
            fn(0)


def test_methods_agree():
    for builder in (P_series, Q_series):
        a = builder(80, "direct")
        b = builder(80, "formula")
        assert _compare(a, b, 80) is None
        with pytest.raises(ValueError):
            builder(10, "guess")


def test_exponent_polynomial_symmetries():
    # B(y,x,z) = B(y,x,1-z) = B(y,1-x,z) for the exponent polynomial
    def expo(y, x, z):
        return y * y - x * (x - 1) // 2 - z * (z - 1) // 2

    for y in range(-6, 7):
        for x in range(-6, 7):
            for z in range(-6, 7):
                assert expo(y, x, z) == expo(y, x, 1 - z) == expo(y, 1 - x, z)
