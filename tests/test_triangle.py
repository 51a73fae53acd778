"""Triangles and production matrices: generate, invert, behead, recover,
rescale, Hankel determinants."""

import functools
import random
import sys
from fractions import Fraction

import pytest

from cfmoments import cfrac, ring, triangle
from cfmoments.cfrac import (
    SFractionCoeffs,
    hankel_from_sfraction,
    moments_from_sfraction,
    qd_sfraction_from_moments,
)
from cfmoments.pipeline import compare
from cfmoments.ring import ExactDivisionError, QPoly, QRat, exact_div, field_div, q, render
from cfmoments.triangle import (
    ProductionMatrix,
    Triangle,
    behead,
    generate,
    hankel_det,
    hankel_transform,
    invert,
    mul,
    production_of,
    rescale_columns,
)


def test_shape_validation():
    with pytest.raises(ValueError):
        Triangle([[1, 2]])
    with pytest.raises(ValueError):
        ProductionMatrix([[1]])
    with pytest.raises(TypeError):
        Triangle([[1.5]])
    with pytest.raises(ValueError):
        Triangle([])
    with pytest.raises(ValueError):
        behead(ProductionMatrix([[1, 1], [1, 1, 0], [1, 1, 0, 0]]))


def test_entry_and_column():
    T = Triangle([[1], [2, 3], [4, 5, 6]])
    assert T.entry(0, 2) == 0
    assert T.entry(2, 1) == 5
    assert T.column(1) == (0, 3, 5)
    assert T.size == 3
    assert not T.unit_diagonal
    assert Triangle.identity(4).unit_diagonal


def test_entry_and_column_reject_indices_outside_the_matrix():
    # a negative index would count from the end, and a column past the
    # last would read as structural zeros
    T = Triangle([[1], [2, 3], [4, 5, 6]])
    for i, j in [(2, -1), (-1, 0), (3, 0), (0, 3), (5, 5)]:
        with pytest.raises(IndexError, match="outside a triangle of size 3"):
            T.entry(i, j)
    for k in (-1, 3, 5):
        with pytest.raises(IndexError, match=f"index {k} outside"):
            T.column(k)
    assert [T.entry(0, j) for j in range(3)] == [1, 0, 0]
    assert T.column(2) == (0, 0, 6)


def test_behead_identity():
    got = behead(Triangle.identity(3))
    assert got == ProductionMatrix([[0, 1], [0, 0, 1]])


def test_generate_pascal():
    # unit bidiagonal production rows generate the binomial triangle
    P = ProductionMatrix([[0] * i + [1, 1] for i in range(4)])
    T = generate(P, 5)
    assert T.rows[4] == (1, 4, 6, 4, 1)
    assert T.unit_diagonal


def test_generate_ballot():
    # all-ones production rows give the ballot triangle, Catalan in column 0
    P = ProductionMatrix([[1] * (i + 2) for i in range(4)])
    T = generate(P, 5)
    assert T.column(0) == (1, 1, 2, 5, 14)
    assert T.unit_diagonal


def test_generate_needs_enough_rows():
    P = ProductionMatrix([[1, 1]])
    with pytest.raises(ValueError):
        generate(P, 4)


def test_invert_identity_and_involution():
    assert invert(Triangle.identity(5)) == Triangle.identity(5)
    T = Triangle([[1], [3, 1], [2, -5, 1]])
    assert invert(invert(T)) == T
    assert mul(T, invert(T)) == Triangle.identity(3)


def test_invert_non_unit_diagonal_lifts_to_fractions():
    T = Triangle([[2], [1, 4]])
    inv = invert(T)
    assert inv.rows[0][0] == Fraction(1, 2)
    assert mul(T, inv) == Triangle.identity(2)


def test_invert_zero_diagonal():
    with pytest.raises(ZeroDivisionError):
        invert(Triangle([[1], [1, 0]]))


def _zq(rng):
    return QPoly.make([rng.randrange(-2, 3) for _ in range(rng.randrange(1, 3))])


# per scalar type: a random entry, the nonzero superdiagonal choices (a
# non-unit one lifts the inverse inside production_of to the fraction
# field) and the number of draws
_PRODUCTION_DRAWS = [
    (lambda rng: rng.randrange(-4, 5), [1, 1, 1, -1, 2], 100),
    (
        lambda rng: Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)),
        [Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-3, 2)],
        20,
    ),
    (_zq, [1, -1, q, 1 + q, 2 - q], 20),
    (
        lambda rng: QRat.make(_zq(rng), rng.choice([1 + q, 2 - q, q])),
        [1, q, QRat.make(1, 1 + q), QRat.make(q, 2 - q)],
        20,
    ),
]


def test_production_of_inverts_generate_random():
    for entry, superdiagonal, draws in _PRODUCTION_DRAWS:
        rng = random.Random(20260822)
        for _ in range(draws):
            n = rng.randrange(2, 7)
            rows = []
            for i in range(n - 1):
                row = [entry(rng) for _ in range(i + 1)]
                row.append(rng.choice(superdiagonal))
                rows.append(row)
            P = ProductionMatrix(rows)
            assert production_of(generate(P, n)) == P


def test_production_of_takes_the_known_top_inverse_random():
    # T = S^-1 for a random unit-diagonal S, so S without its last row is
    # the inverse of T without its last row, and no inversion is needed
    for entry, _, draws in _PRODUCTION_DRAWS:
        rng = random.Random(20261602)
        for _ in range(draws):
            n = rng.randrange(2, 8)
            S = Triangle([[entry(rng) for _ in range(i)] + [1] for i in range(n)])
            T = invert(S)
            got = production_of(T, Triangle(S.rows[:-1]))
            want = production_of(T)
            assert got == want
            if T.types <= {int, QPoly}:
                assert _typed(got.rows) == _typed(want.rows)
            assert generate(got, n) == T


def test_generate_inverts_production_of_random():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(2, 7)
        rows = []
        for i in range(n):
            row = [rng.randrange(-4, 5) for _ in range(i)]
            row.append(1)
            rows.append(row)
        T = Triangle(rows)
        assert generate(production_of(T), n) == T


def test_invert_involution_poly_entries():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randrange(2, 6)
        rows = []
        for i in range(n):
            row = [
                QPoly.make([rng.randrange(-2, 3) for _ in range(rng.randrange(1, 4))])
                for _ in range(i)
            ]
            row.append(1)
            rows.append(row)
        T = Triangle(rows)
        assert invert(invert(T)) == T
        assert mul(invert(T), T) == Triangle.identity(n)


def test_rescale_columns_roundtrip():
    T = Triangle([[1], [2, 3], [4, 6, 8]])
    d = [1, 3, 2]
    up = Triangle([[v * d[j] for j, v in enumerate(r)] for r in T.rows])
    assert up.rows[1] == (2, 9)
    assert rescale_columns(up, d) == T
    with pytest.raises(ValueError):
        rescale_columns(T, [1, 0, 1])
    with pytest.raises(ExactDivisionError):
        rescale_columns(T, [1, 2, 1])
    with pytest.raises(ValueError):
        rescale_columns(T, [1, 1])


def test_rescale_columns_poly_divisors():
    T = Triangle([[1], [q, q**2]])
    down = rescale_columns(T, [1, q])
    assert down.rows[1] == (q, q)


def _cofactor_det(m):
    """Laplace expansion along the rows, memoised on the unused columns."""
    n = len(m)

    @functools.lru_cache(maxsize=None)
    def minor(r, cols):
        if r == n:
            return 1
        tot = 0
        for pos, j in enumerate(cols):
            term = m[r][j] * minor(r + 1, cols[:pos] + cols[pos + 1 :])
            tot = tot + term if pos % 2 == 0 else tot - term
        return tot

    return minor(0, tuple(range(n)))


def test_hankel_det_examples():
    assert hankel_det([1, 1, 2], 1) == 1
    assert hankel_det([1, 4, 32], 1) == 16
    assert hankel_det([5], 0) == 5
    # a singular pair
    assert hankel_det([1, 1, 1], 1) == 0


def test_hankel_det_poly_moments():
    mu = [1, 1, 1 + q]
    assert hankel_det(mu, 1) == q


def _int_entry(rng):
    return rng.randrange(-6, 7)


def _fraction_entry(rng):
    return Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))


def _poly_entry(rng):
    return QPoly.make([rng.randrange(-2, 3) for _ in range(rng.randrange(1, 3))])


def _qq_entry(rng):
    return QRat.make(_poly_entry(rng), rng.choice([1 - q, 1 + 2 * q, 3]))


def _assert_matches_cofactor(draw, seed, per_order):
    # orders 0..6; small entries make some leading minors vanish, so both
    # the recurrence and its Bareiss fallback meet the oracle
    rng = random.Random(seed)
    for n in range(7):
        for _ in range(per_order):
            mu = [draw(rng) for _ in range(2 * n + 1)]
            dets = [
                _cofactor_det([[mu[i + j] for j in range(k + 1)] for i in range(k + 1)])
                for k in range(n + 1)
            ]
            assert hankel_det(mu, n) == dets[n]
            assert hankel_transform(mu, n + 1) == dets


def test_hankel_det_matches_cofactor_random():
    _assert_matches_cofactor(_int_entry, 31, 16)


def test_hankel_det_matches_cofactor_fraction_random():
    _assert_matches_cofactor(_fraction_entry, 33, 8)


def test_hankel_det_matches_cofactor_poly_random():
    _assert_matches_cofactor(_poly_entry, 32, 8)


def test_hankel_det_matches_cofactor_qq_random():
    _assert_matches_cofactor(_qq_entry, 34, 3)


@pytest.mark.parametrize("size", range(1, 10))
def test_hankel_sweep_nexts_are_the_shifted_minors(size):
    # odd and even list lengths: h_k for 2k < size and
    # nu_{k,k+1} = det(rows 0..k-1 and k+1, cols 0..k) for 2k + 1 < size,
    # up to and including the first zero pivot.  The sweep takes ints and
    # QPolys only; Fraction moments reach it graded through
    # hankel_transform, which returns h alone
    rng = random.Random(36 + size)
    full = 0
    for draw in (_int_entry, _fraction_entry, _poly_entry):
        for _ in range(6):
            mu = [draw(rng) for _ in range(size)]
            if draw is _fraction_entry:
                pivots = hankel_transform(mu, (size + 1) // 2)
            else:
                pivots, nexts = triangle._hankel_pivots(mu)
            want_h, want_nu = [], []
            for k in range((size + 1) // 2):
                cols = range(k + 1)
                want_h.append(_cofactor_det([[mu[r + c] for c in cols] for r in cols]))
                if 2 * k + 1 < size:
                    rows = [*range(k), k + 1]
                    want_nu.append(_cofactor_det([[mu[r + c] for c in cols] for r in rows]))
                if want_h[-1] == 0:
                    break
            if draw is _fraction_entry:
                assert pivots[: len(want_h)] == want_h
            else:
                assert (pivots, nexts) == (want_h, want_nu)
            full += len(want_h) == (size + 1) // 2 and len(want_nu) == size // 2
    assert full >= 12


def _count_bareiss_calls(monkeypatch):
    calls = []
    real = triangle._bareiss_det

    def spy(m):
        calls.append(len(m))
        return real(m)

    monkeypatch.setattr(triangle, "_bareiss_det", spy)
    return calls


def test_hankel_falls_back_to_elimination_on_a_vanishing_leading_minor(monkeypatch):
    calls = _count_bareiss_calls(monkeypatch)
    assert hankel_det([0, 1, 0], 1) == -1
    assert hankel_det([1, 1, 1, 2, 3], 2) == -1
    assert hankel_transform([1, 1, 1, 2, 3], 3) == [1, 0, -1]
    assert calls == [2, 3, 3]


def test_hankel_recurrence_needs_no_elimination(monkeypatch):
    calls = _count_bareiss_calls(monkeypatch)
    assert hankel_transform([1, 1, 2, 5, 14, 42, 132], 4) == [1, 1, 1, 1]
    assert hankel_det([1, 4, 32], 1) == 16
    assert calls == []


def test_elimination_runs_on_the_graded_mixed_entries():
    # int, Fraction, Z[q] and Q(q) moments: graded as hankel_transform
    # grades them, every entry is in Z[q], every step of the elimination
    # divides exactly there, and the determinant peeled back is the field one
    h, r = Fraction(-5, 2), 2 * q**2 - 1
    a = SFractionCoeffs([1, 2, 1 + q, h, 1 + q, r, r, q, r, Fraction(2, 3)])
    mu = moments_from_sfraction(a, 9)
    c, d, graded = ring._graded(mu)
    m = [[graded[i + j] for j in range(5)] for i in range(5)]
    assert {type(v) for row in m for v in row} <= {int, QPoly}
    det = ring._peel(triangle._bareiss_det(m), c, 20, d, 5)
    assert det == hankel_det(mu, 4) == hankel_from_sfraction(a, 5)[-1]


def test_compare_never_eliminates(monkeypatch):
    def refuse(m):
        raise AssertionError("compare reached the Bareiss fallback")

    monkeypatch.setattr(triangle, "_bareiss_det", refuse)
    rng = random.Random(35)
    n = 20
    a = SFractionCoeffs([1] + [rng.randrange(1, 4) for _ in range(2 * n - 1)])
    assert all(ok for _, ok in compare(a, n).diagnostics)


def test_hankel_preconditions():
    with pytest.raises(ValueError):
        hankel_det([1, 1], 1)
    with pytest.raises(ValueError):
        hankel_transform([1, 1], 2)


def test_hankel_transform():
    assert hankel_transform([1, 1, 2, 5, 14], 3) == [1, 1, 1]


def test_fraction_determinants_past_a_vanishing_minor_stay_fractions():
    # h_1 = 0, so h_2 and h_3 come from elimination; a Fraction never
    # demotes, whichever route gives the determinant
    got = hankel_transform([Fraction(1)] * 7, 4)
    assert got == [1, 0, 0, 0]
    assert [type(v) for v in got] == [Fraction] * 4


def test_hankel_kernels_take_ring_values_only(monkeypatch):
    # field moments are graded before the sweep and the elimination, so
    # both see ints and QPolys only, whichever caller reaches them
    seen = []

    def spy(fn, flat):
        def kernel(arg):
            seen.append((fn.__name__, {type(v) for v in flat(arg)}))
            return fn(arg)

        return kernel

    pivots = spy(triangle._hankel_pivots, list)
    monkeypatch.setattr(triangle, "_hankel_pivots", pivots)
    monkeypatch.setattr(cfrac, "_hankel_pivots", pivots)
    monkeypatch.setattr(
        triangle, "_bareiss_det", spy(triangle._bareiss_det, lambda m: [v for r in m for v in r])
    )
    r = QRat.make(1, 1 + q)
    fraction = [1, Fraction(1, 2), Fraction(2, 3), 3, Fraction(-5, 4), Fraction(1, 6)]
    qq = [1, r, Fraction(1, 3), q, QRat.make(2, 1 - q), 1 + q]
    mixed = [1, 2, 1 + q, Fraction(-5, 2), 1 + q, q]
    for terms in (fraction, qq, mixed):
        mu = moments_from_sfraction(SFractionCoeffs(terms), 7)
        assert not set(map(type, mu)) <= {int, QPoly}
        assert hankel_transform(mu, 4) == hankel_from_sfraction(SFractionCoeffs(terms), 4)
        assert hankel_det(mu, 3) == hankel_from_sfraction(SFractionCoeffs(terms), 4)[3]
        assert qd_sfraction_from_moments(mu) == SFractionCoeffs(terms)
    # vanishing leading minors send the higher orders to the elimination:
    # rank 1 over Q and Q(q), and mu_k = q^k + 2^(k-1) of rank 2, mixed
    for mu in (
        [Fraction(1, 2)] * 7,
        [r] * 7,
        [q**k + Fraction(2**k, 2) for k in range(7)],
    ):
        assert not set(map(type, mu)) <= {int, QPoly}
        assert hankel_transform(mu, 4)[2:] == [0, hankel_det(mu, 3)] == [0, 0]
    assert {name for name, _ in seen} == {"_hankel_pivots", "_bareiss_det"}
    assert all(types <= {int, QPoly} for _, types in seen), seen


# -- the kernels against the operator fold --------------------------------------


def _fold(terms):
    s = 0
    for x, y in terms:
        s = s + x * y
    return s


def _generate_ref(P, n):
    rows = [[1]]
    for r in range(n - 1):
        prev = rows[r]
        rows.append(
            [
                _fold((prev[t], P.rows[t][j]) for t in range(max(0, j - 1), r + 1))
                for j in range(r + 2)
            ]
        )
    return rows


def _invert_ref(T):
    n = T.size
    rows = [[0] * (i + 1) for i in range(n)]
    for i in range(n):
        d = T.rows[i][i]
        rows[i][i] = 1 if d == 1 else (-1 if d == -1 else field_div(1, d))
        for j in range(i):
            s = _fold((T.rows[i][t], rows[t][j]) for t in range(j, i))
            rows[i][j] = -(rows[i][i] * s) if s != 0 else 0
    return rows


def _mul_ref(A, B):
    n = A.size
    return [
        [_fold((A.rows[i][t], B.rows[t][j]) for t in range(j, i + 1)) for j in range(i + 1)]
        for i in range(n)
    ]


def _typed(rows):
    return [[(type(v), v) for v in r] for r in rows]


def _mixed_entry(rng):
    return rng.choice((_fraction_entry, _poly_entry))(rng)


def _sparse_fraction_entry(rng):
    # mostly zero: leading minors vanish and elimination meets zero columns
    return Fraction(rng.choice((0, 0, 0, 1, -2)), rng.randrange(1, 4))


# per ring: an entry and the diagonal entries of a unit and a non-unit triangle
_KERNEL_RINGS = [
    (_int_entry, (1, -1), (2, -3)),
    (_fraction_entry, (1, Fraction(-1)), (Fraction(2, 3), Fraction(-5, 2))),
    (_poly_entry, (1, -1), (q, 2 + q)),
    (_qq_entry, (1, -1), (QRat.make(1, 1 + q), 1 - q)),
    (_mixed_entry, (1, -1), (Fraction(1, 2), 1 + q)),
    (_sparse_fraction_entry, (1, Fraction(-1)), (Fraction(2, 3), Fraction(-5, 2))),
]


def test_kernels_match_the_operator_fold_random():
    rng = random.Random(20261019)
    for entry, units, non_units in _KERNEL_RINGS:
        for _ in range(12):
            n = rng.randrange(1, 7)
            P = ProductionMatrix([[entry(rng) for _ in range(i + 2)] for i in range(n)])
            assert _typed(generate(P, n + 1).rows) == _typed(_generate_ref(P, n + 1))
            for diagonal in (units, non_units):
                T = Triangle(
                    [[entry(rng) for _ in range(i)] + [rng.choice(diagonal)] for i in range(n)]
                )
                assert _typed(invert(T).rows) == _typed(_invert_ref(T))
            A = Triangle([[entry(rng) for _ in range(i + 1)] for i in range(n)])
            B = Triangle([[entry(rng) for _ in range(i + 1)] for i in range(n)])
            assert _typed(mul(A, B).rows) == _typed(_mul_ref(A, B))
            mu = [entry(rng) for _ in range(2 * n - 1)]
            dets = [
                _cofactor_det([[mu[i + j] for j in range(k + 1)] for i in range(k + 1)])
                for k in range(n)
            ]
            got = hankel_transform(mu, n)
            assert got == dets
            # a Fraction never demotes: the sweep and the elimination past
            # a vanishing minor both divide back one way, so over Q every
            # determinant is a Fraction, as over Z and Z[q] it is in the ring
            if set(map(type, mu)) <= {int, QPoly} or set(map(type, mu)) == {Fraction}:
                assert _typed([got]) == _typed([dets])


def _int_or_fraction_entry(rng):
    return rng.choice((_int_entry, _fraction_entry))(rng)


def _int_or_poly_entry(rng):
    return rng.choice((_int_entry, _poly_entry))(rng)


def _banded_row(rng, entry, zero, width, band):
    """``width`` entries, zero (given as ``zero``) left of the last ``band``
    columns and in about a quarter of the others."""
    return [zero if j < width - band or rng.random() < 0.25 else entry(rng) for j in range(width)]


# each ring of the row sum, with a unit and a non-unit diagonal
_ROW_SUM_RINGS = [
    (_int_entry, (1, -1), (2, -3)),
    (_poly_entry, (1, -1), (q, 2 + q)),
    (_int_or_poly_entry, (1, -1), (q, 2 + q)),
    (_fraction_entry, (1, Fraction(-1)), (Fraction(2, 3), Fraction(-5, 2))),
    (_qq_entry, (1, -1), (QRat.make(1, 1 + q), 1 - q)),
    (_int_or_fraction_entry, (1, -1), (2, Fraction(-5, 2))),
]


def test_row_sums_match_the_index_fold_random():
    # generate, invert and mul build each row as a sum of scaled rows; the
    # index-by-index fold above is the oracle.  Over Z and Z[q] a zero
    # multiplier is skipped and a row starts at its first nonzero entry; a
    # Fraction(0) zero keeps every term, or the sum's type would change.
    # Production rows are bidiagonal (band 2), tridiagonal (band 3) or dense.
    rng = random.Random(20261018)
    for entry, units, non_units in _ROW_SUM_RINGS:
        for zero in (0, Fraction(0)):
            for band in (2, 3, 99):
                for _ in range(6):
                    n = rng.randrange(1, 9)
                    P = ProductionMatrix(
                        [_banded_row(rng, entry, zero, i + 2, band) for i in range(n)]
                    )
                    assert _typed(generate(P, n + 1).rows) == _typed(_generate_ref(P, n + 1))
                    # unit and non-unit diagonals mixed: int rows of the
                    # inverse meet Fraction rows in one sum
                    for diagonal in (units, non_units, units + non_units):
                        T = Triangle(
                            [
                                _banded_row(rng, entry, zero, i, band - 1) + [rng.choice(diagonal)]
                                for i in range(n)
                            ]
                        )
                        assert _typed(invert(T).rows) == _typed(_invert_ref(T))
                    A, B = (
                        Triangle([_banded_row(rng, entry, zero, i + 1, band) for i in range(n)])
                        for _ in range(2)
                    )
                    assert _typed(mul(A, B).rows) == _typed(_mul_ref(A, B))
    # an int zero times a Fraction row of the inverse, beside int terms:
    # the fold's sum is a Fraction, so the zero may not be skipped
    T = Triangle([[1], [1, 2], [1, 0, 1]])
    assert type(invert(T).rows[2][0]) is Fraction
    assert _typed(invert(T).rows) == _typed(_invert_ref(T))


def test_row_store_raises_the_first_bad_rows_error():
    # one scalar check covers every entry when the widths are right; a bad
    # width walks the rows, so the first bad row decides the error either way
    for cls, rows, error, text in [
        (Triangle, [[1], [1.5, 1], [1, 2]], TypeError, "matrix entry is not a ring scalar: 1.5"),
        (Triangle, [[1], [1, 1], [1, True, "x"]], TypeError, "not a ring scalar: True"),
        (Triangle, [[1], [1, 2, 3], ["x", 1, 1]], ValueError, "row 1 must have 2 entries, got 3"),
        (Triangle, [[1], [1, "x"], [1, 2, 3, 4]], TypeError, "not a ring scalar: 'x'"),
        (Triangle, [["x"], [1]], TypeError, "not a ring scalar: 'x'"),
        (Triangle, [[1], [1]], ValueError, "row 1 must have 2 entries, got 1"),
        (ProductionMatrix, [[1, 1], [1, 1.0, 1]], TypeError, "not a ring scalar: 1.0"),
        (ProductionMatrix, [[1, 1], [1, 1]], ValueError, "row 1 must have 3 entries, got 2"),
        (ProductionMatrix, [[1, 0.5], [1, 1]], TypeError, "not a ring scalar: 0.5"),
    ]:
        with pytest.raises(error) as e:
            cls(rows)
        assert type(e.value) is error and text in str(e.value)
    assert Triangle([[1], [Fraction(1, 2), q]]).types == {int, Fraction, QPoly}


def _stack_spies(monkeypatch, kernel_fns):
    """Calls of QPoly products and sums and of the Z[q] division, each
    tagged with the innermost of ``kernel_fns`` on the stack (None when
    none of them is)."""
    kernels = {f.__code__: f.__name__ for f in kernel_fns}
    calls = []

    def counted(fn, op):
        def spy(*args):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code not in kernels:
                frame = frame.f_back
            calls.append((None if frame is None else kernels[frame.f_code], op))
            return fn(*args)

        return spy

    for name, op in (("__mul__", "mul"), ("__rmul__", "mul"), ("__add__", "add"),
                     ("__radd__", "add")):
        monkeypatch.setattr(QPoly, name, counted(getattr(QPoly, name), op))
    for module, name in ((triangle, "exact_div"), (ring, "_zq_exact_div")):
        monkeypatch.setattr(module, name, counted(getattr(module, name), name))
    return calls


def test_zq_compare_kernels_make_no_qpoly_product_or_sum(monkeypatch):
    # the Hankel gate's product formula and sweep and every construction
    # run on the terms' images under q -> 2^(64m): QPoly products and sums
    # are made only by the moment sweep, the exact route to mu, and
    # nothing divides in Z[q]
    a = SFractionCoeffs([1, q, 1 + q, q**2, q + q**2, q**3, 1 + q, q, q**2, 1 + q, q**3, q])
    calls = _stack_spies(monkeypatch, (moments_from_sfraction, hankel_from_sfraction))
    r = compare(a, 6)
    assert all(ok for _, ok in r.diagnostics)
    assert any(type(v) is QPoly for row in r.C.rows for v in row)
    assert {c for c in calls if c[0] is None and c[1] in ("mul", "add")} == set()
    assert {c[0] for c in calls if c[1] in ("mul", "add")} == {"moments_from_sfraction"}
    assert (None, "exact_div") in calls
    assert [c for c in calls if c[1] == "_zq_exact_div"] == []


def test_int_sweep_makes_no_exact_div_call(monkeypatch):
    calls = _stack_spies(monkeypatch, (triangle._hankel_pivots,))
    a = SFractionCoeffs([1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1])
    assert hankel_det(moments_from_sfraction(a, 15), 7) == hankel_from_sfraction(a, 8)[7]
    assert compare(a, 8).diagnostics
    assert ("_hankel_pivots", "exact_div") not in calls
    assert (None, "exact_div") in calls


# -- the Hankel sweep against the polynomial loop --------------------------------


def _hankel_pivots_ref(mu):
    """The sweep on ring values with the operator fold, every division
    ``exact_div`` over Z and Z[q] and ``field_div`` otherwise: the
    reference oracle for ``triangle._hankel_pivots``."""
    size = len(mu)
    prev, nu, hp = [0] * size, list(mu), 1
    div = exact_div if all(type(v) in (int, QPoly) for v in mu) else field_div
    pivots, nexts = [], []
    for k in range((size + 1) // 2):
        h = nu[k]
        pivots.append(h)
        if 2 * k + 1 < size:
            nexts.append(nu[k + 1])
        if h == 0 or 2 * k + 2 >= size:
            break
        nk1, pk = nu[k + 1], prev[k]
        nxt = [0] * size
        for j in range(k + 1, size - 1 - k):
            b = div(pk * nu[j] - h * prev[j], hp)
            nxt[j] = div(h * (nu[j + 1] + b) - nk1 * nu[j], hp)
        prev, nu, hp = nu, nxt, h
    return pivots, nexts


def _sweep_widths(monkeypatch):
    """The slot widths m of every packed sweep, in order."""
    widths = []
    real = triangle._int_sweep

    def spy(nu, m):
        widths.append(m)
        return real(nu, m)

    monkeypatch.setattr(triangle, "_int_sweep", spy)
    return widths


def _wide_entry(rng):
    # signed coefficients up to 2^70, past a 64-bit slot
    cs = [rng.randrange(-(2**70), 2**70 + 1) for _ in range(rng.randrange(1, 4))]
    return QPoly.make(cs) if rng.randrange(3) else cs[0]


def _small_zq_entry(rng):
    return rng.choice((0, 1, -1, 2, q, 1 + q, 1 - q, q**2))


def _atom_moments(rng, size):
    # mu_k = sum of c·x^k over r atoms: the Hankel matrix has rank at most
    # r, so h_r = 0; ints and QPolys mixed
    atoms = [(rng.choice((1, -1, 2, q)), _small_zq_entry(rng)) for _ in range(rng.randrange(1, 4))]
    return [sum(c * x**k for c, x in atoms) for k in range(size)]


def _monomial_pivot_moments(rng, size):
    # a_i = c·q^e gives the pivots h_n = prod (a_{2k+1} a_{2k+2})^(n-k),
    # monomials c·q^m with |c| > 1 for all but h_0 and m up to 32
    a = [1] + [rng.choice((2, -2, 3, -3)) * q ** rng.randrange(3) for _ in range(size)]
    return list(moments_from_sfraction(SFractionCoeffs(a), size))


def test_hankel_sweep_matches_the_polynomial_loop_random(monkeypatch):
    widths = _sweep_widths(monkeypatch)
    rng = random.Random(20261018)
    seen = {"wide": 0, "zero": 0, "monomial": 0}
    for _ in range(60):
        size = rng.randrange(1, 10)
        for kind, mu in (
            ("wide", [_wide_entry(rng) for _ in range(size)]),
            ("zero", _atom_moments(rng, size)),
            ("monomial", _monomial_pivot_moments(rng, size)),
        ):
            widths.clear()
            got = triangle._hankel_pivots(mu)
            want = _hankel_pivots_ref(mu)
            assert _typed(got) == _typed(want), mu
            if kind == "wide" and QPoly in set(map(type, mu)):
                seen[kind] += widths[-1] > 1
            elif kind == "zero":
                seen[kind] += len(want[0]) > 1 and want[0][-1] == 0
            elif kind == "monomial":
                seen[kind] += any(
                    type(h) is QPoly and abs(h.coeffs[-1]) > 1 and not any(h.coeffs[:-1])
                    for h in want[0]
                )
    assert min(seen.values()) >= 10, seen


def _field_atom_moments(rng, size):
    # as _atom_moments, over Q and Q(q): h_r = 0 for r atoms
    atoms = [(_fraction_entry(rng), rng.choice((_fraction_entry, _qq_entry))(rng))
             for _ in range(rng.randrange(1, 4))]
    return [sum(c * x**k for c, x in atoms) for k in range(size)]


def test_field_sweep_matches_the_polynomial_loop_random():
    # hankel_transform grades field moments into the integer sweep and
    # divides each pivot back; at k = 0 an int may come back as a
    # Fraction, so values and renderings are compared, not types.  Field
    # nexts are no output of any caller; the qd round trips cover them
    rng = random.Random(20261023)
    seen = {"fraction": 0, "qq": 0, "mixed": 0, "zero": 0}
    for _ in range(25):
        size = rng.randrange(1, 10)
        for kind, mu in (
            ("fraction", [_fraction_entry(rng) for _ in range(size)]),
            ("qq", [_qq_entry(rng) for _ in range(size)]),
            ("mixed", [_mixed_entry(rng) for _ in range(size)]),
            ("zero", _field_atom_moments(rng, size)),
        ):
            types = set(map(type, mu))
            if types <= {int, QPoly}:
                continue
            want = _hankel_pivots_ref(mu)[0]
            got = hankel_transform(mu, (size + 1) // 2)[: len(want)]
            assert got == want, mu
            assert list(map(render, got)) == list(map(render, want))
            seen[kind] += kind != "zero" or (len(want) > 1 and want[-1] == 0)
    assert min(seen.values()) >= 10, seen


def test_field_moments_run_the_integer_sweep(monkeypatch):
    widths = _sweep_widths(monkeypatch)
    a = [1, Fraction(1, 2), Fraction(2, 3), 3, Fraction(-5, 4), Fraction(1, 6), 2]
    assert hankel_transform(moments_from_sfraction(SFractionCoeffs(a), 7), 4)[3] == (
        hankel_from_sfraction(SFractionCoeffs(a), 4)[3]
    )
    assert widths == [0]
    widths.clear()
    a = [1, QRat.make(1 + q, 1 + 2 * q), Fraction(1, 3), q, QRat.make(2, 1 - q), 1 + q, 2]
    assert hankel_transform(moments_from_sfraction(SFractionCoeffs(a), 7), 4)[3] == (
        hankel_from_sfraction(SFractionCoeffs(a), 4)[3]
    )
    assert widths and widths[0] >= 1


def _off_by_one_in_one_step(monkeypatch):
    """Make the first division by a pivot other than 1 or -1 take a
    numerator one too large, which no pivot of two or more divides."""
    bumped = []

    def inexact_divmod(x, d):
        if abs(d) > 1 and not bumped:
            bumped.append(d)
            x += 1
        return divmod(x, d)

    monkeypatch.setattr(triangle, "divmod", inexact_divmod, raising=False)
    return bumped


@pytest.mark.parametrize(
    "mu",
    [
        [1, 1, 3, 11, 45, 197, 903],
        # h_1 = a_1 a_2 = 2 + q, and then the monomial 2q
        moments_from_sfraction(SFractionCoeffs([1, 2 + q, 3 * q, 1 + q, 2, q]), 7),
        moments_from_sfraction(SFractionCoeffs([1, 2 * q, 3, q**2, 2, q]), 7),
    ],
)
def test_an_inexact_sweep_step_raises(monkeypatch, mu):
    assert _hankel_pivots_ref(mu)
    bumped = _off_by_one_in_one_step(monkeypatch)
    with pytest.raises(ExactDivisionError):
        triangle._hankel_pivots(mu)
    assert bumped


def test_a_sweep_failing_every_check_stops_at_the_widest_slots(monkeypatch):
    # a sweep whose every step were exact would pass at _widest_slots(mu),
    # so failing there too means a step that is not
    mu = moments_from_sfraction(SFractionCoeffs([1, 2 + q, 3 * q, 1 + q, 2, q, 3, q]), 9)
    tried = []

    def failing(nu, m):
        tried.append(m)

    monkeypatch.setattr(triangle, "_int_sweep", failing)
    with pytest.raises(ExactDivisionError):
        triangle._hankel_pivots(mu)
    cap = triangle._widest_slots(mu)
    assert cap > 1 and tried == [2**i for i in range(len(tried))]
    assert tried[-2] < cap <= tried[-1]


def test_an_exact_sweep_passes_every_check_at_the_widest_slots():
    rng = random.Random(20261022)
    for _ in range(40):
        mu = [_small_zq_entry(rng) for _ in range(rng.randrange(1, 10))]
        m = triangle._widest_slots(mu)
        got = triangle._int_sweep([ring._zq_pack(v, m) for v in mu], m)
        assert got is not None
        assert [[ring._zq_unpack(v, m) for v in vs] for vs in got] == list(
            _hankel_pivots_ref(mu)
        )
