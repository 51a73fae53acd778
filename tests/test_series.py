"""Series expansion, reversion, Riordan arrays, column interleaving."""

import random
from fractions import Fraction

import pytest

from cfmoments.series import (
    RiordanPair,
    TruncatedSeries,
    catalan_series,
    interleave_columns,
    riordan_matrix,
    riordan_inverse,
    schroder_column,
    series_compose,
    series_from_rational,
    series_mul,
    series_reciprocal,
    series_revert,
)
from cfmoments.triangle import Triangle, mul as tmul


def test_from_rational_geometric():
    s = series_from_rational([1], [1, -1], 6)
    assert s.coeffs == (1, 1, 1, 1, 1, 1)


def test_from_rational_shift_kernel():
    s = series_from_rational([0, 1], [1, 3, 2], 6)
    assert s.coeffs == (0, 1, -3, 7, -15, 31)


def test_from_rational_zero_constant_denominator():
    with pytest.raises(ZeroDivisionError):
        series_from_rational([1], [0, 1], 4)


def test_from_rational_fraction_lift():
    s = series_from_rational([1], [2, 1], 3)
    assert s.coeffs == (Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8))


def test_mul_truncates_to_shorter():
    a = TruncatedSeries([1, 1, 1, 1])
    b = TruncatedSeries([1, 2])
    assert series_mul(a, b).coeffs == (1, 3)


def test_reciprocal():
    s = TruncatedSeries([1, -1, 0, 0, 0])
    assert series_reciprocal(s).coeffs == (1, 1, 1, 1, 1)
    geom = series_from_rational([1], [1, -2, 5], 6)
    assert series_mul(geom, series_reciprocal(geom)).coeffs == (1, 0, 0, 0, 0, 0)
    with pytest.raises(ZeroDivisionError):
        series_reciprocal(TruncatedSeries([0, 1]))


def test_compose_fibonacci():
    outer = series_from_rational([1], [1, -1], 6)
    inner = TruncatedSeries([0, 1, 1, 0, 0, 0])
    assert series_compose(outer, inner).coeffs == (1, 1, 2, 3, 5, 8)
    with pytest.raises(ValueError):
        series_compose(outer, TruncatedSeries([1, 1]))


def test_revert_catalan_kernel():
    f = TruncatedSeries([0, 1, -1, 0, 0, 0])
    assert series_revert(f).coeffs == (0, 1, 1, 2, 5, 14)


def test_revert_roundtrip_random():
    rng = random.Random(20260822)
    x = TruncatedSeries([0, 1], 8)
    for _ in range(50):
        f = TruncatedSeries(
            [0, rng.choice([1, -1])] + [rng.randrange(-3, 4) for _ in range(6)]
        )
        g = series_revert(f)
        assert series_compose(f, g) == x
        assert series_compose(g, f) == x


def test_catalan_series():
    c = catalan_series(7)
    assert c.coeffs == (1, 1, 2, 5, 14, 42, 132)
    # c = 1 + x c^2: coefficient k of c is coefficient k - 1 of c^2
    assert (1,) + series_mul(c, c).coeffs[:6] == c.coeffs


def test_riordan_pair_validation():
    with pytest.raises(ValueError):
        RiordanPair(TruncatedSeries([0, 1]), TruncatedSeries([0, 1]))
    with pytest.raises(ValueError):
        RiordanPair(TruncatedSeries([1, 0]), TruncatedSeries([1, 1]))
    with pytest.raises(ValueError):
        RiordanPair(TruncatedSeries([1, 0]), TruncatedSeries([0, 0]))


def test_riordan_matrix_shifted_pascal():
    p = RiordanPair(
        TruncatedSeries([1], 6), series_from_rational([0, 1], [1, -1], 6)
    )
    T = riordan_matrix(p, 6)
    assert T == Triangle(
        [
            [1],
            [0, 1],
            [0, 1, 1],
            [0, 1, 2, 1],
            [0, 1, 3, 3, 1],
            [0, 1, 4, 6, 4, 1],
        ]
    )


def test_riordan_matrix_needs_order():
    p = RiordanPair(TruncatedSeries([1, 0]), TruncatedSeries([0, 1]))
    with pytest.raises(ValueError):
        riordan_matrix(p, 3)


def test_riordan_inverse_of_catalan_kernel():
    # the inverse of (1 - x, x(1 - x)) is (c, xc)
    n = 8
    p = RiordanPair(
        TruncatedSeries([1, -1], n), TruncatedSeries([0, 1, -1], n)
    )
    inv = riordan_inverse(p)
    c = catalan_series(n)
    assert inv.g == c
    assert inv.f.coeffs == (0,) + c.coeffs[:-1]


def test_riordan_group_identity_random():
    rng = random.Random(7)
    for _ in range(30):
        n = 7
        g = TruncatedSeries(
            [rng.choice([1, -1])] + [rng.randrange(-3, 4) for _ in range(n - 1)]
        )
        f = TruncatedSeries(
            [0, rng.choice([1, -1])] + [rng.randrange(-3, 4) for _ in range(n - 2)]
        )
        p = RiordanPair(g, f)
        product = tmul(riordan_matrix(p, n), riordan_matrix(riordan_inverse(p), n))
        assert product == Triangle.identity(n)


def test_interleave_identity():
    I = Triangle.identity(6)
    assert interleave_columns(I, I) == I


def test_interleave_small_example():
    A = Triangle([[1], [2, 1], [4, 5, 1]])
    B = Triangle([[7], [8, 9], [10, 11, 12]])
    got = interleave_columns(A, B)
    assert got == Triangle([[1], [2, 7], [4, 8, 1]])


def test_schroder_columns():
    assert schroder_column(0, 6) == [1, 1, 3, 11, 45, 197]
    assert schroder_column(1, 6) == [0, 1, 3, 11, 45, 197]
    assert schroder_column(2, 6) == [0, 0, 1, 4, 17, 76]
    assert schroder_column(3, 6) == [0, 0, 0, 1, 6, 31]
    assert schroder_column(4, 6) == [0, 0, 0, 0, 1, 7]
    assert schroder_column(5, 6) == [0, 0, 0, 0, 0, 1]


def test_schroder_columns_assemble_printed_triangle():
    n = 6
    rows = [[schroder_column(j, n)[i] for j in range(i + 1)] for i in range(n)]
    assert Triangle(rows) == Triangle(
        [
            [1],
            [1, 1],
            [3, 3, 1],
            [11, 11, 4, 1],
            [45, 45, 17, 6, 1],
            [197, 197, 76, 31, 7, 1],
        ]
    )
