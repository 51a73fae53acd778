"""Series expansion, Riordan arrays and their inverses, column interleaving."""

import random
from fractions import Fraction

import pytest

from cfmoments.ring import QPoly
from cfmoments.series import (
    RiordanPair,
    TruncatedSeries,
    catalan_series,
    interleave_columns,
    riordan_matrix,
    riordan_inverse,
    schroder_column,
    series_from_rational,
    series_mul,
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


def test_riordan_inverse_keeps_int_pairs_in_the_integers():
    # g(0) = -1 and f'(0) = -1: both inversion steps divide by -1, which
    # stays in the integers like the +1 case
    n = 7
    p = RiordanPair(
        series_from_rational([-1], [1, -1], n), series_from_rational([0, -1, 2], [1, 1], n)
    )
    inv = riordan_inverse(p)
    assert all(type(c) is int for c in inv.g.coeffs + inv.f.coeffs)
    assert all(type(v) is int for row in riordan_matrix(inv, n).rows for v in row)
    assert tmul(riordan_matrix(p, n), riordan_matrix(inv, n)) == Triangle.identity(n)
    s = series_from_rational([3, 1], [-1, 2], n)
    assert s.coeffs == (-3, -7, -14, -28, -56, -112, -224)
    assert all(type(c) is int for c in s.coeffs)


# per coefficient ring: the invertible constant choices, then a random
# coefficient
_RIORDAN_DRAWS = [
    ([1, -1], lambda rng: rng.randrange(-3, 4)),
    (
        [Fraction(1), Fraction(-2), Fraction(3, 2)],
        lambda rng: Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)),
    ),
    ([1, -1], lambda rng: QPoly.make([rng.randrange(-2, 3) for _ in range(2)])),
]


def test_riordan_group_identity_random():
    for units, coeff in _RIORDAN_DRAWS:
        rng = random.Random(7)
        for _ in range(30):
            n = 7
            g = [rng.choice(units)] + [coeff(rng) for _ in range(n - 1)]
            f = [0, rng.choice(units)] + [coeff(rng) for _ in range(n - 2)]
            p = RiordanPair(TruncatedSeries(g), TruncatedSeries(f))
            inv = riordan_inverse(p)
            product = tmul(riordan_matrix(p, n), riordan_matrix(inv, n))
            assert product == Triangle.identity(n)
            assert riordan_inverse(inv) == p


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
