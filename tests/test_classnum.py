"""Hurwitz class numbers: pins, an independent enumeration oracle, and
the generating functions."""

from fractions import Fraction

import pytest

from qhecke.classnum import (genfun_F, genfun_H, hurwitz, hurwitz12,
                             hurwitz12_table, kronecker_F, reduced_forms)
from qhecke.errors import UndefinedResidueError


def oracle_h12(n):
    """Weighted reduced-form count written independently of the package:
    outer loop over b, inner divisor enumeration of (b^2+n)/4 = a*c."""
    from math import isqrt

    if n == 0:
        return -1
    total = 0
    bmax = isqrt(n // 3) + 1
    for b in range(-bmax, bmax + 1):
        t = b * b + n
        if t % 4:
            continue
        m = t // 4
        a = max(1, abs(b))
        while a * a <= m:
            if m % a == 0:
                c = m // a
                ok = (-a < b <= a) and (b >= 0 or a != c)
                if ok:
                    if b == 0 and a == c:
                        total += 6
                    elif a == b == c:
                        total += 4
                    else:
                        total += 12
            a += 1
    return total


def test_pins():
    assert hurwitz12(0) == -1
    assert hurwitz(3) == Fraction(1, 3)
    assert hurwitz(4) == Fraction(1, 2)
    assert hurwitz(7) == 1
    assert hurwitz(23) == 3
    assert [hurwitz12(n) for n in (1, 2, 5, 6, 9, 10)] == [0] * 6


def test_against_independent_oracle():
    for n in list(range(0, 60)) + [103, 407, 427]:
        if n % 4 in (1, 2):
            assert hurwitz12(n) == 0
        else:
            assert hurwitz12(n) == oracle_h12(n), n


def test_reduced_forms_examples():
    assert reduced_forms(23) == [(1, 1, 6), (2, -1, 3), (2, 1, 3)]
    assert reduced_forms(3) == [(1, 1, 1)]
    assert reduced_forms(4) == [(1, 0, 1)]
    assert reduced_forms(5) == []


def test_table_matches_per_value():
    table = hurwitz12_table(600)
    assert all(table[n] == hurwitz12(n) for n in range(601))


@pytest.mark.parametrize("limit", [0, 1, 3, 4, 100, 1024, 5000, 19200, 51716])
def test_table_at_edge_limits(limit):
    # every value up to 1024; above, the top 64 values, where the sieve's
    # bounds on a, b and c bite
    table = hurwitz12_table(limit)
    assert len(table) == limit + 1
    check = range(limit + 1) if limit <= 1024 else range(limit - 63, limit + 1)
    assert all(table[n] == hurwitz12(n) for n in check)


def test_residue_vanishing_to_ten_thousand():
    table = hurwitz12_table(10_000)
    assert all(table[n] == 0 for n in range(1, 10_001) if n % 4 in (1, 2))


def test_nonnegative_for_positive_n():
    table = hurwitz12_table(2000)
    assert all(v >= 0 for v in table[1:])
    assert table[0] == -1


def test_fractional_weights_sit_on_square_multiples():
    # forms proportional to x^2+y^2 live at n = 4a^2 (weight 6/12) and
    # to x^2+xy+y^2 at n = 3a^2 (weight 4/12); everywhere else 12 | h12
    from math import isqrt
    table = hurwitz12_table(10_000)
    for n in range(3, 10_001):
        r = table[n] % 12
        if n % 4 == 0 and isqrt(n // 4) ** 2 * 4 == n:
            assert r == 6, n
        elif n % 3 == 0 and isqrt(n // 3) ** 2 * 3 == n:
            assert r == 4, n
        else:
            assert r == 0, n
    assert table[3] == 4 and table[4] == 6 and table[12] == 16


def test_kronecker_F():
    assert kronecker_F(3) == 1
    assert kronecker_F(7) == 1
    assert kronecker_F(11) == 3
    for bad in (0, 1, 2, 4, 5, 6, 8, 9):
        with pytest.raises(UndefinedResidueError):
            kronecker_F(bad)


def test_genfun_F_pins():
    got = genfun_F(4, -1, 6)
    assert [got.coeff(e) for e in range(7)] == [0, 1, 1, 3, 2, 3, 3]
    got = genfun_F(8, -1, 4)
    assert [got.coeff(e) for e in range(5)] == [0, 1, 2, 3, 3]
    # n = 0 term is the constant F(b) when b >= 0
    assert genfun_F(12, 7, 5).coeff(0) == kronecker_F(7)


def test_genfun_F_residue_errors():
    for a, b in ((5, 1), (4, 0), (3, 3), (8, 5)):
        with pytest.raises(UndefinedResidueError):
            genfun_F(a, b, 5)


def test_genfun_H_pins():
    got = genfun_H(24, 7, 2)
    assert [got.coeff(e) for e in range(3)] == [1, 3, 4]
    assert not genfun_H(4, 1, 30).coeffs
    assert genfun_H(1, 0, 4).coeff(0) == Fraction(-1, 12)
