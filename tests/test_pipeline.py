import hashlib
import random
from fractions import Fraction
from functools import partial

import pytest

from cfmoments import pipeline, triangle
from cfmoments.cfrac import (
    InsufficientCoefficients,
    JFractionCoeffs,
    SFractionCoeffs,
    hankel_from_sfraction,
    moments_from_jfraction,
    moments_from_sfraction,
    s_to_j,
)
from cfmoments.pipeline import (
    CatalanLikenessError,
    _compare_ring,
    _display,
    _documented,
    _flag_triangle,
    _run_checks,
    _schroder_families,
    _schroder_structure,
    build_M,
    build_N_via_behead,
    build_N_via_rescale,
    compare,
    op_coeff_triangle,
    q_binomial,
    qcase_factorization_check,
    verify_example,
)
from cfmoments.ring import _ZQ_BITS, QPoly, QRat, _zq_width, eval_q, q, render
from cfmoments.series import RiordanPair, TruncatedSeries, catalan_series, riordan_matrix
from cfmoments.triangle import (
    ProductionMatrix,
    Triangle,
    generate,
    hankel_det,
    invert,
    mul,
    production_of,
)


def ones(n):
    return SFractionCoeffs([1] * n)


def alternating(n):
    return SFractionCoeffs([1 if k % 2 == 0 else 2 for k in range(n)])


def q_powers(n):
    return SFractionCoeffs([q**k if k else 1 for k in range(n)])


# --- the two constructions of the first matrix ---


def test_behead_route_catalan():
    N, P = build_N_via_behead(ones(6), 6)
    assert P == production_of(N)
    c = catalan_series(6)
    xc = TruncatedSeries((0,) + c.coeffs[:-1])
    assert N == riordan_matrix(RiordanPair(c, xc), 6)


def test_routes_agree_random():
    # int, Fraction and Z[q] terms: the rescale route divides exactly in
    # each ring and must land on the same triangle as the behead route;
    # each builder's production matrix is the one production_of recovers
    rng = random.Random(11)
    draws = [
        lambda: rng.randrange(1, 5),
        lambda: Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randrange(1, 4)),
        lambda: rng.choice([1, -1, 2]) * q ** rng.randrange(0, 3)
        * (1 + rng.randrange(0, 3) * q),
    ]
    for _ in range(75):
        draw = rng.choice(draws)
        n = rng.randrange(2, 7)
        terms = [1] + [draw() for _ in range(n - 1)]
        a = SFractionCoeffs(terms)
        N, P = build_N_via_behead(a, n)
        assert N == build_N_via_rescale(a, n)
        assert P == production_of(N)
        # n terms give (n + 1) // 2 two-parameter levels
        M, P = build_M(a, (n + 3) // 2)
        assert P == production_of(M)


def test_routes_agree_symbolic():
    a = q_powers(6)
    N, P = build_N_via_behead(a, 6)
    assert N == build_N_via_rescale(a, 6)
    assert P == production_of(N)


def _bidiagonal_route(a, n):
    """The production matrix of the first construction by inverting the
    unit bidiagonal matrix with -a_i below the diagonal."""
    bidiagonal = [[1]] + [[0] * (i - 1) + [-a.terms[i - 1], 1] for i in range(1, n)]
    return ProductionMatrix(invert(Triangle(bidiagonal)).rows[1:])


def _typed_rows(m):
    return [[(type(v), v) for v in row] for row in m.rows]


def test_behead_route_closed_form_matches_inverting_the_bidiagonal():
    # entry (i, j) of the bidiagonal inverse is a_{j+1}...a_i; zeros among
    # the terms make whole runs of entries zero, and every zero is int 0
    rng = random.Random(20261601)
    draws = {
        "int": lambda: rng.choice([0, 1, -1, 2, -3, 5]),
        "fraction": lambda: rng.choice([0, Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))]),
        "zq": lambda: rng.choice([0, 1, -2, q, 1 + q, 2 - q**2, 3 * q**2]),
        "qq": lambda: rng.choice(
            [0, 2, Fraction(1, 3), q, QRat.make(1 + q, 2 - q), QRat.make(q, 3)]
        ),
    }
    draws["mixed"] = lambda: draws[rng.choice(["int", "fraction", "zq", "qq"])]()
    seen_zero = set()
    for kind, draw in draws.items():
        for _ in range(30):
            n = rng.randrange(2, 9)
            a = SFractionCoeffs([1] + [draw() for _ in range(n - 1)])
            N, P = build_N_via_behead(a, n)
            want = _bidiagonal_route(a, n)
            assert P == want and _typed_rows(P) == _typed_rows(want), (kind, a.terms)
            assert N == generate(want, n)
            if 0 in a.terms[1 : n - 1]:
                seen_zero.add(kind)
    assert seen_zero == set(draws)
    a = SFractionCoeffs([1, Fraction(1, 2), 0, Fraction(3, 2), 2, 0])
    P = build_N_via_behead(a, 6)[1]
    assert type(P.rows[2][0]) is int and _typed_rows(P) == _typed_rows(_bidiagonal_route(a, 6))


def test_behead_route_back_substitution_is_generation_random():
    # N is found by back-substitution against the bidiagonal, not by
    # generate: over Z and Z[q] every entry is canonical, so the two agree
    # in exact type too; over a field only in value, since a Fraction never
    # demotes and the two routes add different terms (compare clears field
    # terms into Z first, so no caller passes them)
    rng = random.Random(20261802)
    draws = {
        "int": lambda: rng.choice([0, 1, -1, 2, -3, 5]),
        "zq": lambda: rng.choice([0, 1, -2, q, 1 + q, 2 - q**2, 3 * q**2]),
        "fraction": lambda: rng.choice([0, Fraction(0), Fraction(rng.randrange(-5, 6), 3), 2]),
        "qq": lambda: rng.choice([0, 2, Fraction(1, 3), q, QRat.make(1 + q, 2 - q)]),
    }
    for kind, draw in draws.items():
        for _ in range(25):
            n = rng.randrange(2, 10)
            a = SFractionCoeffs([1] + [draw() for _ in range(n - 1)])
            N, P = build_N_via_behead(a, n)
            want = generate(P, n)
            assert N == want, (kind, a.terms)
            if kind in ("int", "zq"):
                assert _typed_rows(N) == _typed_rows(want), (kind, a.terms)


def test_a_ring_compare_inverts_once_in_build_m_and_multiplies_once_in_production_of(monkeypatch):
    # N^-1, C and C^-1 come from row recurrences and C's top rows invert
    # those of C^-1, so only build_M's polynomial route inverts a triangle
    # and only production_of multiplies two
    calls, where = [], ["compare"]

    def counted(name, real):
        def call(*args):
            calls.append((name, where[-1]))
            return real(*args)

        return call

    def inside(name, real):
        def call(*args):
            where.append(name)
            try:
                return real(*args)
            finally:
                where.pop()

        return call

    counted_invert, counted_mul = counted("invert", triangle.invert), counted("mul", triangle.mul)
    for module in (triangle, pipeline):
        monkeypatch.setattr(module, "invert", counted_invert)
        monkeypatch.setattr(module, "mul", counted_mul)
    monkeypatch.setattr(pipeline, "build_M", inside("build_M", pipeline.build_M))
    monkeypatch.setattr(pipeline, "production_of", inside("production_of", pipeline.production_of))
    for a, n in (
        (alternating(16), 8),
        (q_powers(12), 6),
        (SFractionCoeffs([1, Fraction(1, 2), 3, Fraction(2, 3), 1, 2, 5, 1]), 4),
    ):
        calls.clear()
        assert all(ok for _, ok in compare(a, n).diagnostics)
        assert calls == [("invert", "build_M"), ("mul", "production_of")]


def test_a_field_compare_divides_each_distinct_entry_back_once(monkeypatch):
    # the seven matrices and mu share most entries of the ring run, so
    # each (value, degree) pair is peeled once and the rest are reused
    import cfmoments.pipeline as pipeline

    calls = []
    real_peel = pipeline._peel

    def counted(*args):
        calls.append(args)
        return real_peel(*args)

    monkeypatch.setattr(pipeline, "_peel", counted)
    qq = [1, QRat.make(1 + q, 1 + 2 * q), Fraction(1, 3), q, QRat.make(2, 1 - q), 1 + q]
    for a, n in (
        (SFractionCoeffs(qq), 3),
        (SFractionCoeffs([1, Fraction(1, 2), 3, Fraction(2, 3), 1, 2, 5, 1]), 4),
    ):
        # the (value, degree) pairs that the ring run leaves to divide back
        r = pipeline._compare_ring(SFractionCoeffs(pipeline._cleared(a.terms[: 2 * n])[1]), n)
        entries = [(v, k) for k, v in enumerate(r.mu)]
        for m in (r.N, r.M, r.Ninv, r.C, r.prodN, r.prodM, r.prodCinv):
            shift = len(m.rows[0]) - 1
            entries += [(v, i - j) for i, row in enumerate(m.rows, shift) for j, v in enumerate(row)]
        entries = [(v, e) for v, e in entries if e]
        calls.clear()
        assert all(ok for _, ok in compare(a, n).diagnostics)
        assert len(set(calls)) == len(calls)
        assert {(x, e) for x, _, e in calls} == set(entries)
        assert len(calls) < len(entries)


def test_staircase_row_operator_is_generation_in_exact_type():
    # the rescale route's suffix sums against generate on the staircase,
    # over int, Fraction, Z[q] and Q(q) terms and all four mixed, with
    # zeros and signs so that rows cancel
    rng = random.Random(20261032)
    draws = [
        lambda: rng.choice([0, 1, -1, 2, -3]),
        lambda: rng.choice([0, 1, Fraction(-1, 2), Fraction(2, 3), Fraction(3)]),
        lambda: rng.choice([0, 1, -1, q, -q, 1 + q, q - q**2]),
        lambda: rng.choice([0, 1, q, QRat.make(1 + q, 1 + 2 * q), QRat.make(-1, 1 - q)]),
    ]
    draws.append(lambda: rng.choice(draws[:4])())
    for i in range(200):
        n = rng.randrange(2, 9)
        terms = [draws[i % 5]() for _ in range(n - 1)]
        rows = [[1]]
        for _ in range(n - 1):
            rows.append(pipeline._times_staircase(terms, rows[-1]))
        staircase = ProductionMatrix([[terms[k]] * (k + 2) for k in range(n - 1)])
        assert _typed_rows(Triangle(rows)) == _typed_rows(generate(staircase, n)), terms


def test_build_n_size_one():
    for build in (build_N_via_behead, build_N_via_rescale, build_M, compare):
        with pytest.raises(ValueError, match="at least 2"):
            build(ones(4), 1)


def test_build_n_insufficient():
    with pytest.raises(InsufficientCoefficients):
        build_N_via_behead(ones(3), 4)
    with pytest.raises(InsufficientCoefficients):
        build_N_via_rescale(ones(3), 4)
    # two a-terms give one two-parameter level; size 4 needs three
    with pytest.raises(InsufficientCoefficients, match="need 3 two-parameter levels, got 1"):
        build_M(SFractionCoeffs([1, 1]), 4)


def test_rescale_route_rejects_zero_coefficient():
    a = SFractionCoeffs([1, 0, 1, 1])
    with pytest.raises(ValueError):
        build_N_via_rescale(a, 4)


# --- polynomial coefficient triangle and the second matrix ---


def test_op_coeff_rows():
    # b = (1, 2, 2), l = (1, 1): p2 = (x - 2)(x - 1) - 1, p3 follows
    j = JFractionCoeffs([1, 2, 2], [1, 1])
    T = op_coeff_triangle(j, 4)
    assert T.rows == ((1,), (-1, 1), (1, -3, 1), (-1, 6, -5, 1))


def test_op_coeff_insufficient():
    with pytest.raises(InsufficientCoefficients):
        op_coeff_triangle(JFractionCoeffs([1, 2], [1]), 4)
    with pytest.raises(ValueError, match="size must be positive"):
        op_coeff_triangle(JFractionCoeffs([1, 2], [1]), 0)


def _op_coeff_ref(j, n):
    """The coefficient triangle by an index-by-index loop that shares no
    code with compare's recurrences: the reference for exact types."""
    rows = [[1]]
    if n == 1:
        return Triangle(rows)
    prev, cur = [1], [-j.b[0], 1]
    rows.append(cur)
    for r in range(2, n):
        b, lam = j.b[r - 1], j.lam[r - 2]
        nxt = [0] * (r + 1)
        for i, c in enumerate(cur):
            nxt[i + 1] = nxt[i + 1] + c
            if c != 0:
                nxt[i] = nxt[i] - b * c
        for i, c in enumerate(prev):
            if c != 0:
                nxt[i] = nxt[i] - lam * c
        prev, cur = cur, nxt
        rows.append(cur)
    return Triangle(rows)


_RECURRENCE_DRAWS = {
    "int": lambda rng: rng.choice([0, 1, -1, 2, -3, 5]),
    "zq": lambda rng: rng.choice([0, 1, -2, q, 1 + q, 2 - q**2, -3 * q**2]),
    "fraction": lambda rng: rng.choice(
        [0, Fraction(0), 2, -1, Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))]
    ),
    "qq": lambda rng: rng.choice([0, Fraction(0), -2, Fraction(1, 3), q, QRat.make(1 + q, 2 - q)]),
}


def test_op_coeff_triangle_matches_its_old_loop_in_exact_type():
    # the shared recurrence subtracts the b and l terms as the old loop
    # did and demotes no zero, so a Fraction(0) entry stays a Fraction
    rng = random.Random(20261901)
    seen_fraction_zero = False
    for kind, draw in _RECURRENCE_DRAWS.items():
        for _ in range(40):
            n = rng.randrange(1, 9)
            j = JFractionCoeffs([draw(rng) for _ in range(n)], [draw(rng) for _ in range(n - 1)])
            got, want = op_coeff_triangle(j, n), _op_coeff_ref(j, n)
            assert _typed_rows(got) == _typed_rows(want), (kind, j)
            seen_fraction_zero |= any(
                type(v) is Fraction and v == 0 for row in got.rows for v in row
            )
    assert seen_fraction_zero


def test_row_recurrences_match_the_generic_kernels_in_exact_type():
    # N^-1, C = N^-1·M and C^-1 = M^-1·N by their row recurrences against
    # invert and mul, over Z and Z[q] with zeros, negative terms and any a_1
    rng = random.Random(20261902)
    seen_zero = set()
    for kind in ("int", "zq"):
        draw = _RECURRENCE_DRAWS[kind]
        for _ in range(40):
            n = rng.randrange(2, 10)
            a = SFractionCoeffs([draw(rng) for _ in range(2 * n)])
            N, _ = build_N_via_behead(a, n)
            M, P = build_M(a, n)
            b = [r[i] for i, r in enumerate(P.rows)]
            lam = [r[i - 1] for i, r in enumerate(P.rows) if i]
            Ninv = invert(N)
            C = mul(Ninv, M)
            got_ninv = Triangle(pipeline._s_polynomial_rows(a.terms, n, pipeline._shift))
            got_c = Triangle(pipeline._s_polynomial_rows(a.terms, n, triangle._times(P)))
            got_cinv = Triangle(
                pipeline._j_polynomial_rows(b, lam, n, partial(pipeline._times_behead, a.terms))
            )
            assert _typed_rows(got_ninv) == _typed_rows(Ninv), (kind, a.terms)
            assert _typed_rows(got_c) == _typed_rows(C), (kind, a.terms)
            assert _typed_rows(got_cinv) == _typed_rows(invert(C)), (kind, a.terms)
            if 0 in a.terms[: 2 * n - 1]:
                seen_zero.add(kind)
    assert seen_zero == {"int", "zq"}


def test_build_m_first_column_is_moments():
    from cfmoments.cfrac import moments_from_sfraction

    a = alternating(8)
    M, P = build_M(a, 4)
    assert list(M.column(0)) == moments_from_sfraction(a, 4)
    assert P == production_of(M)


def test_build_m_matches_riordan_catalan():
    c = catalan_series(6)
    xc2 = TruncatedSeries((0,) + tuple((c * c).coeffs[:-1]))
    M, P = build_M(ones(11), 6)
    assert M == riordan_matrix(RiordanPair(c, xc2), 6)
    assert P == production_of(M)


def test_build_m_inverts_op_coeff():
    a = q_powers(9)
    M, P = build_M(a, 5)
    assert invert(M) == op_coeff_triangle(s_to_j(a), 5)
    assert P == production_of(M)


def test_build_m_names_its_stage_and_size_when_the_routes_disagree(monkeypatch):
    monkeypatch.setattr(pipeline, "op_coeff_triangle", lambda j, n: Triangle.identity(n))
    with pytest.raises(ArithmeticError) as e:
        build_M(ones(10), 5)
    assert str(e.value) == (
        "build_M at size 5: internal disagreement between the production "
        "and polynomial routes"
    )


# --- compare ---


def test_compare_catalan_product():
    r = compare(ones(12), 6)
    assert r.C.rows[4] == (0, 1, 3, 3, 1)
    assert r.C.rows[5] == (0, 1, 4, 6, 4, 1)
    assert all(ok for _, ok in r.diagnostics)
    assert r.mu == [1, 1, 2, 5, 14, 42]


def test_compare_names_its_stage_and_size_when_the_routes_disagree(monkeypatch):
    # the moments' Hankel determinant, one more than the product formula's
    monkeypatch.setattr(pipeline, "hankel_det", lambda mu, k: 1 + hankel_det(mu, k))
    for a in (ones(12), SFractionCoeffs([1, Fraction(1, 2)] * 6)):
        with pytest.raises(ArithmeticError) as e:
            compare(a, 6)
        assert str(e.value) == (
            "compare at size 6: internal disagreement between the determinant "
            "and product routes for h_5"
        )


def test_compare_names_its_stage_and_size_when_c_and_its_inverse_disagree(monkeypatch):
    # N^-1 and C with a 1 added at the start of their last row: C is no
    # longer the inverse of the C^-1 that the other recurrence builds
    real = pipeline._s_polynomial_rows

    def off_by_one(a, n, times_P):
        rows = real(a, n, times_P)
        rows[-1][0] = rows[-1][0] + 1
        return rows

    monkeypatch.setattr(pipeline, "_s_polynomial_rows", off_by_one)
    for a in (ones(12), q_powers(12), SFractionCoeffs([1, Fraction(1, 2)] * 6)):
        with pytest.raises(ArithmeticError) as e:
            compare(a, 6)
        assert str(e.value) == "compare at size 6: internal disagreement between C and its inverse"


def test_compare_symbolic_spot_values():
    r = compare(q_powers(12), 6)
    assert r.C.rows[3] == (0, q**5, q**3 + q**4, 1)
    assert r.N.rows[2] == (1 + q, 1 + q, 1)
    assert r.prodM.rows[1] == (q, q + q**2, 1)
    assert all(ok for _, ok in r.diagnostics)


def test_compare_product_is_inverse_times_second():
    r = compare(alternating(12), 6)
    assert mul(r.N, r.C) == r.M
    assert production_of(r.N) == r.prodN
    assert production_of(invert(r.C)) == r.prodCinv


def _packed_term(rng, kind):
    """A nonzero Z[q] term: small signed coefficients, 2^70-sized ones, a
    monomial c·q^e or an int."""
    if kind == "signed":
        cs = [rng.randrange(-4, 5) for _ in range(rng.randrange(1, 4))] + [rng.choice((1, -2))]
    elif kind == "huge":
        cs = [rng.randrange(-(2**70), 2**70) for _ in range(rng.randrange(1, 3))] + [2**70]
    elif kind == "monomial":
        cs = [0] * rng.randrange(1, 4) + [rng.choice((1, -1, 3))]
    else:
        return rng.choice((1, -1, 2, -3))
    return QPoly.make(cs)


def _packed_inputs(seed, count):
    """(a, n) pairs of Z[q] terms with a QPoly among them, a_1 = 1."""
    rng = random.Random(seed)
    kinds = ("signed", "huge", "monomial", "int")
    for i in range(count):
        # one kind throughout, or a mix of all four; the Hankel gate's
        # sweep dominates on 2^70 coefficients, so those stay small
        pick = [kinds[i % 5]] if i % 5 < 4 else kinds
        n = rng.randrange(2, 5 if "huge" in pick else 8)
        terms = [_packed_term(rng, rng.choice(pick)) for _ in range(2 * n - 1)]
        terms[rng.randrange(2 * n - 1)] = _packed_term(rng, "signed" if i % 5 == 3 else pick[0])
        if all(type(t) is int for t in terms):
            terms[0] = 1 + q
        yield SFractionCoeffs([1] + terms), n


def _l1(v):
    return abs(v) if type(v) is int else sum(map(abs, v.coeffs))


def test_zq_compare_slot_width_bounds_every_returned_entry_random(monkeypatch):
    # the majorant's m reads every returned entry back from its image:
    # each has l1 norm below 2^(32m-1), and the 2^70 coefficients need m >= 3
    widths = []
    real = pipeline._slot_count

    def recorded(terms, n):
        widths.append(real(terms, n))
        return widths[-1]

    monkeypatch.setattr(pipeline, "_slot_count", recorded)
    for a, n in _packed_inputs(20261019, 150):
        del widths[:]
        r = compare(a, n)
        assert all(ok for _, ok in r.diagnostics), a
        (m,) = widths
        for name in _RESULT_PARTS[1:]:
            top = max(_l1(v) for row in getattr(r, name).rows for v in row)
            assert top < 2 ** (_ZQ_BITS * m - 1), (name, a, n, m)
        if any(type(t) is QPoly and max(map(abs, t.coeffs)) >= 2**70 for t in a.terms[: 2 * n]):
            assert m >= 3
    assert widths


def _assert_compare_matches_the_constructions_on_the_terms(a, n):
    """The packed run against the constructions called on the QPoly terms,
    in value and exact type."""
    r = compare(a, n)
    N, prodN = build_N_via_behead(a, n)
    M, prodM = build_M(a, n)
    b = [row[i] for i, row in enumerate(prodM.rows)]
    lam = [row[i - 1] for i, row in enumerate(prodM.rows) if i]
    C = Triangle(pipeline._s_polynomial_rows(a.terms, n, triangle._times(prodM)))
    Cinv = pipeline._j_polynomial_rows(b, lam, n, partial(pipeline._times_behead, a.terms))
    want = {
        "N": N,
        "M": M,
        "Ninv": Triangle(pipeline._s_polynomial_rows(a.terms, n, pipeline._shift)),
        "C": C,
        "prodN": prodN,
        "prodM": prodM,
        "prodCinv": production_of(Triangle(Cinv), Triangle(C.rows[:-1])),
    }
    assert build_N_via_rescale(a, n) == N
    for name, m in want.items():
        got = getattr(r, name)
        assert type(got) is type(m) and _typed_rows(got) == _typed_rows(m), (name, a, n)
    mu = moments_from_jfraction(s_to_j(a), n)
    assert [(type(v), v) for v in r.mu] == [(type(v), v) for v in mu]


def test_zq_compare_matches_the_constructions_on_the_terms_in_exact_type():
    for a, n in _packed_inputs(20261020, 60):
        _assert_compare_matches_the_constructions_on_the_terms(a, n)


def test_int_and_fraction_compares_never_pack(monkeypatch):
    # and the constructions of a Z[q] compare, or of a Q(q) one whose
    # cleared terms are all QPolys, do
    packed = []
    real = pipeline._zq_pack

    def spy(name):
        def pack(x, m):
            packed.append(name)
            return real(x, m)

        return pack

    for module in (pipeline, triangle):
        monkeypatch.setattr(module, "_zq_pack", spy(module.__name__))
    for a, n in (
        (alternating(16), 8),
        (SFractionCoeffs([1, Fraction(1, 2), 3, Fraction(-2, 3), 1, 2, 5, 1]), 4),
    ):
        assert all(ok for _, ok in compare(a, n).diagnostics)
    assert packed == []
    for a in (q_powers(8), SFractionCoeffs([1] + [QRat.make(1 + q, 1 + 2 * q)] * 7)):
        del packed[:]
        assert all(ok for _, ok in compare(a, 4).diagnostics)
        assert "cfmoments.pipeline" in packed


def _gate_inputs():
    """Z[q], Q(q) and 2^70-sized Z[q] compares."""
    huge = QPoly.make([3, -(2**70), 2**70])
    return (
        (q_powers(14), 7),
        (SFractionCoeffs([1] + [QRat.make(1 + q, 1 + 2 * q), QRat.make(2 - q, 3)] * 4), 4),
        (SFractionCoeffs([1, huge, q, 1 - huge, huge, 2 * q**3, huge, 1 + q, huge, q]), 5),
    )


def test_zq_compare_gate_sweeps_packed_ints_once(monkeypatch):
    # the gate's moments are images at compare's own m, so the sweep runs
    # once on ints: no slot-checked pass and no rerun at wider slots
    widths = []
    real = triangle._int_sweep

    def spy(nu, m):
        widths.append(m)
        return real(nu, m)

    monkeypatch.setattr(triangle, "_int_sweep", spy)
    for a, n in _gate_inputs():
        del widths[:]
        assert all(ok for _, ok in compare(a, n).diagnostics)
        assert widths == [0]


def test_zq_compare_moments_come_from_the_packed_terms_and_the_qpoly_terms(monkeypatch):
    # the gate's mu_0 .. mu_{2n-2} from one Dyck sweep of the int images,
    # the returned mu_0 .. mu_{n-1} from one of the QPoly terms
    calls = []
    real = pipeline.moments_from_sfraction

    def spy(a, count):
        calls.append((frozenset(map(type, a.terms)), count))
        return real(a, count)

    monkeypatch.setattr(pipeline, "moments_from_sfraction", spy)
    for a, n in _gate_inputs():
        del calls[:]
        assert all(ok for _, ok in compare(a, n).diagnostics)
        (gate, gate_count), (terms, count) = calls
        assert gate == {int} and gate_count == 2 * n - 1, calls
        assert QPoly in terms and count == n, calls
    del calls[:]
    compare(alternating(16), 8)
    assert calls == [({int}, 15)]


def test_zq_compare_gate_catches_a_wrong_moment(monkeypatch):
    # mu_{2n-2} enters only h_{n-1}; its image must still disagree.  The
    # plant adds 1, so the gate's moments stay int images and the sweep
    # runs on them at m = 0, as it does unplanted
    real = pipeline.moments_from_sfraction
    widths = []
    real_sweep = triangle._int_sweep

    def off_by_one(a, count):
        mu = real(a, count)
        mu[-1] = mu[-1] + 1
        return mu

    def sweep(nu, m):
        widths.append(m)
        return real_sweep(nu, m)

    monkeypatch.setattr(pipeline, "moments_from_sfraction", off_by_one)
    monkeypatch.setattr(triangle, "_int_sweep", sweep)
    huge = QPoly.make([1, 2**70])
    for a, n in ((q_powers(12), 6), (SFractionCoeffs([1, huge, q, huge, 1 - q, huge, q, 3]), 4)):
        with pytest.raises(ArithmeticError) as e:
            compare(a, n)
        assert str(e.value) == (
            f"compare at size {n}: internal disagreement between the determinant "
            f"and product routes for h_{n - 1}"
        )
    assert widths == [0, 0]


def test_zero_terms_are_refused_before_any_slot_count_or_packing(monkeypatch):
    # Z[q] is an integral domain: the gate refuses exactly where a term among
    # a_1 .. a_{2n-2} is zero, at the order the product formula names
    def never(*args):
        raise AssertionError("packed a refused input")

    rng = random.Random(20261025)
    cases = []
    for i in range(40):
        n = 2 + i % 6
        kinds = ("signed", "huge", "monomial")
        terms = [1] + [_packed_term(rng, rng.choice(kinds)) for _ in range(2 * n - 1)]
        terms[rng.randrange(1, 2 * n - 2)] = 0
        order = hankel_from_sfraction(SFractionCoeffs(terms), n).index(0)
        cases.append((SFractionCoeffs(terms), n, order))
    cases.append((SFractionCoeffs([1, q, 0] + [1 + q] * 13), 8, 2))
    monkeypatch.setattr(pipeline, "_slot_count", never)
    monkeypatch.setattr(pipeline, "_zq_pack", never)
    for a, n, order in cases:
        with pytest.raises(CatalanLikenessError) as e:
            compare(a, n)
        assert e.value.order == order, (a, n)


def test_zq_slot_width_bounds_the_hankel_gate_random():
    # the gate sweeps the packed terms into mu_0 .. mu_{2n-2} and multiplies
    # them into h_0 .. h_{n-1}: each has l1 norm, so every coefficient,
    # below 2^(32m-1)
    rng = random.Random(20261021)
    kinds = ("signed", "huge", "monomial", "int")
    for i in range(90):
        n = 2 + i % 6
        terms = [1] + [_packed_term(rng, rng.choice(kinds)) for _ in range(2 * n - 1)]
        if i % 3 == 0:
            terms[rng.randrange(1, 2 * n)] = 0
        a = SFractionCoeffs(terms)
        m = pipeline._slot_count(a.terms, n)
        values = moments_from_sfraction(a, 2 * n - 1) + hankel_from_sfraction(a, n)
        assert max(map(_l1, values)) < 2 ** (_ZQ_BITS * m - 1), (a, n, m)


def test_zq_slot_width_counts_the_products_of_prodcinv():
    # row t of prodCinv is row t of C times C^-1 without its first row: on
    # these norms the bound sum_k C[t][k]·max C^-1[k+1] reaches 2259893006
    # >= 2^31, while the gate's mu and h stay below 1243544034 and every
    # other majorant below 2^17, so it alone asks for a second unit per slot
    a = SFractionCoeffs([1] + [q] * 13 + [150 * q, q, 800 * q, q, q, q])
    assert pipeline._slot_count(a.terms, 10) == 2
    assert all(ok for _, ok in compare(a, 10).diagnostics)


def test_zq_slot_width_bounds_prodcinv_row_by_row():
    # zq-compare's shape at n = 8, norms 1 and 2 in turn: n·max C·max C^-1
    # is 19365964800 >= 2^34, but no row of C meets the largest row of C^-1,
    # and the row bound (1319824) and the gate's mu and h (below 2^28) fit
    # one unit per slot; every entry still unpacks exactly
    a = SFractionCoeffs([1] + [q * (1 + q) if k % 2 else q for k in range(15)])
    assert pipeline._slot_count(a.terms, 8) == 1
    _assert_compare_matches_the_constructions_on_the_terms(a, 8)


def test_zq_slot_count_needs_no_majorant_of_n_m_their_productions_or_n_inverse():
    # with a_1 .. a_{2n-2} nonzero, the majorants of N, prodN, M, prodM,
    # N^-1 and rows 0 .. n-2 of C never exceed the gate's mu and h, the
    # norms, C's last row and the prodCinv row bound, so adding them all
    # back leaves m as it is
    rng = random.Random(20261034)
    kinds = ("signed", "huge", "monomial", "int")
    for i in range(300):
        n = 2 + i % 11
        pick = [kinds[i % 5]] if i % 5 < 4 else kinds
        terms = [1] + [_packed_term(rng, rng.choice(pick)) for _ in range(2 * n - 1)]
        if i % 3 == 0:
            terms[-rng.randrange(1, 3)] = 0
        al = [_l1(t) for t in terms]
        s = SFractionCoeffs(al)
        N, prodN = build_N_via_behead(s, n)
        M, prodM = build_M(s, n)
        j = s_to_j(s)
        neg = [-v for v in al]
        Ninv = pipeline._s_polynomial_rows(neg, n, pipeline._shift)
        C = pipeline._s_polynomial_rows(neg, n, triangle._times(prodM))
        Cinv = pipeline._j_polynomial_rows(
            [-v for v in j.b], [-v for v in j.lam], n, partial(pipeline._times_behead, al)
        )
        most = [max(r) for r in Cinv[1:]]
        top = max(
            moments_from_sfraction(s, 2 * n - 1)
            + hankel_from_sfraction(s, n)
            + al
            + [max(r) for t in (N, prodN, M, prodM) for r in t.rows]
            + [max(r) for r in Ninv + C]
            + [sum([x * y for x, y in zip(c, most)]) for c in C[:-1]]
        )
        assert pipeline._slot_count(terms, n) == _zq_width(top), (terms, n)


def _evaluation_draws(seed, count):
    """(a, n, v): small signed Z[q] terms, terms c·q^e·(1 + q), Q(q) terms,
    Z[q] terms with 2^70 coefficients or terms of mixed rings in turn,
    a_1 = 1, n = 2..6 (2..4 for 2^70 coefficients) and v in -3, -2, 2, 3, 5."""
    rng = random.Random(seed)
    for i in range(count):
        kind = ("signed", "q-power", "qrat", "huge", "mixed")[i % 5]
        n = rng.randrange(2, 5 if kind == "huge" else 7)
        terms = []
        for _ in range(2 * n - 1):
            if kind == "q-power":
                terms.append(rng.choice((1, -1, 2)) * q ** rng.randrange(3) * (1 + q))
            else:
                terms.append(_corpus_term(rng, kind))
        yield SFractionCoeffs([1] + terms), n, rng.choice((-3, -2, 2, 3, 5))


def test_evaluation_at_an_integer_commutes_with_compare():
    # q -> v is a ring homomorphism Z[q] -> Z and, where no denominator
    # vanishes, Q(q) -> Q: the int and Fraction compare of the evaluated
    # terms must be the evaluation of the Z[q] or Q(q) compare, unless a
    # term the Hankel gate multiplies vanishes at v
    checked = 0
    for a, n, v in _evaluation_draws(20261030, 150):
        try:
            at_v = [eval_q(t, v) for t in a.terms]
        except ZeroDivisionError:
            continue
        if 0 in at_v[: 2 * n - 2]:
            continue
        r, r_at_v = compare(a, n), compare(SFractionCoeffs(at_v), n)
        assert [eval_q(x, v) for x in r.mu] == r_at_v.mu, (a, n, v)
        for name in _RESULT_PARTS[1:]:
            got = [[eval_q(x, v) for x in row] for row in getattr(r, name).rows]
            assert got == [list(row) for row in getattr(r_at_v, name).rows], (name, a, n, v)
        checked += 1
    assert checked >= 100


def test_scaling_the_terms_scales_compare_by_degree():
    # every output is homogeneous in the a_i (Flajolet 1980), which the
    # field path rests on: _compare_ring on c·a, b_1 = c passing unchecked,
    # returns mu_k·c^k, triangle entry (i, j) times c^(i-j) and production
    # entry (t, j) times c^(t+1-j).  c = q and 1 + q pack int terms and
    # widen the slots of Z[q] ones
    rng = random.Random(20261033)
    kinds = ("int", "signed", "huge", "monomial")
    scales = (2, 3, -2, q, 1 + q)
    for i in range(100):
        kind, c = kinds[i % 4], scales[i % 5]
        n = rng.randrange(2, 5 if kind == "huge" else 9)
        terms = [1] + [_packed_term(rng, kind) for _ in range(2 * n - 1)]
        r = _compare_ring(SFractionCoeffs(terms), n)
        s = _compare_ring(SFractionCoeffs([c * t for t in terms]), n)
        mu = [v * c**k for k, v in enumerate(r.mu)]
        assert [(type(v), v) for v in s.mu] == [(type(v), v) for v in mu], (terms, n, c)
        for name in _RESULT_PARTS[1:]:
            m = getattr(r, name)
            shift = 1 if type(m) is ProductionMatrix else 0
            rows = enumerate(m.rows, shift)
            want = type(m)([[v * c ** (t - j) for j, v in enumerate(row)] for t, row in rows])
            assert _typed_rows(getattr(s, name)) == _typed_rows(want), (name, terms, n, c)
        assert all(ok for _, ok in s.diagnostics)


# --- one digest over a seeded corpus of compares ---
#
# Results and refusals of about 200 compares over every scalar ring, frozen
# as one sha256: a change meant to keep compare's output must keep it.

_COMPARE_DIGEST = "92a32fa8b6e77e825ae19fe27491f24d64f644e053f6a206a4333dd1b2cb3e89"
_CORPUS_KINDS = ("int", "fraction", "signed", "huge", "monomial", "qrat", "mixed")


def _corpus_term(rng, kind):
    if kind == "mixed":
        kind = rng.choice(_CORPUS_KINDS[:-1])
    if kind == "fraction":
        return Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randrange(1, 5))
    if kind == "qrat":
        num = QPoly.make([rng.choice((-2, 1, 3)), rng.randrange(-2, 3), rng.randrange(0, 2)])
        return QRat.make(num, QPoly.make([rng.randrange(1, 4), rng.choice((-1, 1, 2))]))
    return _packed_term(rng, kind)


def _compare_corpus(seed, count):
    """(a, n) pairs, n = 2..6, one kind of term per pair in turn (2^70
    coefficients and Q(q) at n <= 5), every fourth with a zero term."""
    rng = random.Random(seed)
    for i in range(count):
        kind = _CORPUS_KINDS[i % len(_CORPUS_KINDS)]
        n = rng.randrange(2, 6 if kind in ("huge", "qrat", "mixed") else 7)
        pick = _CORPUS_KINDS[:-1] if kind == "mixed" else (kind,)
        terms = [_corpus_term(rng, rng.choice(pick)) for _ in range(2 * n - 1)]
        if i % 4 == 3:
            terms[rng.randrange(2 * n - 1)] = 0
        yield SFractionCoeffs([1] + terms), n


def test_compare_corpus_matches_its_frozen_digest():
    digest = hashlib.sha256()
    refused = 0
    for a, n in _compare_corpus(20261020, 210):
        try:
            got = repr(compare(a, n))
        except ArithmeticError as e:
            got = f"{type(e).__name__}: {e}"
            refused += 1
        digest.update(got.encode() + b"\n")
    assert refused == 32
    assert digest.hexdigest() == _COMPARE_DIGEST


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_compare_over_rational_functions_routes_agree(n):
    rng = random.Random(n)
    terms = [
        QRat.make(rng.randrange(1, 4) + q ** rng.randrange(1, 3), 1 + rng.randrange(2, 4) * q)
        for _ in range(2 * n - 1)
    ]
    assert all(isinstance(t, QRat) for t in terms)
    a = SFractionCoeffs([1] + terms)
    r = compare(a, n)
    assert len(r.diagnostics) == 5
    assert all(ok for _, ok in r.diagnostics)
    assert list(r.N.column(0)) == moments_from_jfraction(s_to_j(a), n)
    assert mul(r.N, r.C) == r.M
    assert r.prodN == production_of(r.N)
    assert r.prodM == production_of(r.M)


# --- the graded route: field input run over Z or Z[q] ---
#
# The oracle is the ring body run directly on the unscaled field terms,
# which computes every entry in the field.

_RESULT_PARTS = ("mu", "N", "M", "Ninv", "C", "prodN", "prodM", "prodCinv")


def _rendered(r):
    out = {"mu": [render(v) for v in r.mu], "diagnostics": r.diagnostics}
    for name in _RESULT_PARTS[1:]:
        out[name] = [[render(v) for v in row] for row in getattr(r, name).rows]
    return out


def _assert_graded_matches_field_route(terms, n):
    a = SFractionCoeffs(terms)
    graded, oracle = compare(a, n), _compare_ring(a, n)
    assert graded.a is a
    for name in _RESULT_PARTS + ("diagnostics",):
        assert getattr(graded, name) == getattr(oracle, name), name
    assert _rendered(graded) == _rendered(oracle)
    assert all(ok for _, ok in graded.diagnostics)


_QQ_DENOMINATORS = (1 - q, 1 + 2 * q, 1 + 3 * q, 3)


def _qq_term(rng):
    return QRat.make(rng.randrange(1, 4) + q ** rng.randrange(1, 3), rng.choice(_QQ_DENOMINATORS))


@pytest.mark.parametrize("n", range(2, 13))
def test_graded_compare_over_fractions(n):
    rng = random.Random(100 + n)
    for _ in range(3):
        terms = [1] + [
            Fraction(rng.choice([-3, -1, 1, 2, 5, 7]), rng.randrange(1, 7))
            for _ in range(2 * n - 1)
        ]
        _assert_graded_matches_field_route(terms, n)


@pytest.mark.parametrize("n", range(2, 7))
def test_graded_compare_over_rational_functions(n):
    rng = random.Random(200 + n)
    for _ in range(2):
        _assert_graded_matches_field_route([1] + [_qq_term(rng) for _ in range(2 * n - 1)], n)


def _assert_graded_matches_independent_routes(terms, n):
    a = SFractionCoeffs(terms)
    r = compare(a, n)
    assert all(ok for _, ok in r.diagnostics)
    assert r.mu == moments_from_jfraction(s_to_j(a), n)
    assert mul(r.N, r.C) == r.M and r.Ninv == invert(r.N)
    assert r.prodN == production_of(r.N) and r.prodM == production_of(r.M)
    assert r.prodCinv == production_of(invert(r.C))


_MIXED_TERMS = (Fraction(2, 3), Fraction(-5, 2), 2, q, 1 + q, 2 * q**2 - 1)


def test_graded_compare_fractions_beside_polynomials():
    # int denominators around Z[q] numerators: the scaled run is over Z[q]
    # the field route divides two Z[q] values whose quotient may have a
    # rational coefficient, in the rescale route and in the Hankel gate
    rng = random.Random(300)
    for n in range(2, 9):
        terms = [1] + [rng.choice(_MIXED_TERMS) for _ in range(2 * n - 1)]
        _assert_graded_matches_field_route(terms, n)
        _assert_graded_matches_independent_routes(terms, n)


def test_graded_compare_divides_only_where_the_ring_divides():
    # an entry of the rescale route, 25 + 9q + 2q^2, meets the column
    # divisor 2 in Z[q]; the quotient lies in Q[q] only
    h, f = Fraction(-5, 2), Fraction(2, 3)
    terms = [1, 2, 1 + q, h, 2 * q**2 - 1, h, f, 1 + q, 1 + q, 1 + q]
    _assert_graded_matches_field_route(terms, 5)
    _assert_graded_matches_independent_routes(terms, 5)


def test_rescale_route_divides_in_the_field_for_field_terms():
    # 25 + 9q + 2q^2 met the column divisor 2 in Z[q] and raised
    h = Fraction(-5, 2)
    a = SFractionCoeffs([1, 2, 1 + q, h, 2 * q**2 - 1, h, 2, 1 + q, 1 + q, 1 + q])
    assert build_N_via_rescale(a, 5) == build_N_via_behead(a, 5)[0]


def test_graded_compare_integral_fractions():
    # D = 1: the ring run sees the plain integers
    rng = random.Random(400)
    for n in range(2, 9):
        terms = [Fraction(1)] + [Fraction(rng.randrange(1, 4)) for _ in range(2 * n - 1)]
        _assert_graded_matches_field_route(terms, n)


def _fraction_term(rng):
    return Fraction(rng.randrange(1, 5), rng.randrange(2, 5))


@pytest.mark.parametrize("draw, zero", [(_fraction_term, Fraction(0)), (_qq_term, 0)])
def test_graded_compare_reports_the_first_vanishing_order(draw, zero):
    rng = random.Random(500)
    n = 5
    for i in range(2, 2 * n - 1):  # a zero at a_i, 1-based
        terms = [1] + [draw(rng) for _ in range(2 * n - 1)]
        terms[i - 1] = zero
        a = SFractionCoeffs(terms)
        with pytest.raises(CatalanLikenessError) as graded:
            compare(a, n)
        with pytest.raises(CatalanLikenessError) as oracle:
            _compare_ring(a, n)
        assert graded.value.order == oracle.value.order == (i + 1) // 2


def test_compare_smallest_size():
    r = compare(ones(4), 2)
    assert r.N.size == 2 and r.M.size == 2 and r.C.size == 2


def test_compare_requires_leading_one():
    with pytest.raises(ValueError):
        compare(SFractionCoeffs([2, 1, 1, 1]), 2)


def test_compare_insufficient():
    with pytest.raises(InsufficientCoefficients):
        compare(ones(7), 4)


def test_compare_degenerate_sequence():
    # a2 = 0 forces constant moments, whose order-1 determinant vanishes
    a = SFractionCoeffs([1, 0, 1, 1, 1, 1, 1, 1])
    with pytest.raises(CatalanLikenessError) as e:
        compare(a, 4)
    assert e.value.order == 1


# --- Gaussian binomials and the factorization check ---


def test_q_binomial_known_values():
    assert q_binomial(2, 1) == 1 + q
    assert q_binomial(4, 2) == QPoly.make((1, 1, 2, 1, 1))
    assert q_binomial(5, 0) == 1
    assert q_binomial(5, 5) == 1
    assert q_binomial(2, 3) == 0


def test_q_binomial_symmetry_and_counting():
    rng = random.Random(5)
    from math import comb

    for _ in range(30):
        m = rng.randrange(0, 9)
        k = rng.randrange(0, m + 1)
        v = q_binomial(m, k)
        assert v == q_binomial(m, m - k)
        assert eval_q(v, 1) == comb(m, k)


def test_q_binomial_rejects_negative():
    with pytest.raises(ValueError):
        q_binomial(-1, 0)


def test_factorization_check_passes():
    r = compare(q_powers(14), 7)
    res = qcase_factorization_check(r.C)
    assert res.status == "pass"


def test_factorization_check_reports_first_failure():
    r = compare(q_powers(12), 6)
    rows = [list(row) for row in r.C.rows]
    rows[3][1] = rows[3][1] + 1
    res = qcase_factorization_check(Triangle(rows))
    assert res.status == "fail"
    assert "row 3 column 1" in res.note


def test_factorization_check_reports_a_wrong_quotient():
    # raising an entry by the power it is divided by keeps it divisible,
    # so the quotient, not the division, is what fails
    r = compare(q_powers(12), 6)
    rows = [list(row) for row in r.C.rows]
    rows[4][2] = rows[4][2] * q**5
    res = qcase_factorization_check(Triangle(rows))
    assert res.status == "fail"
    assert res.note == "first failure at row 4 column 2"
    assert res.expected == render(q_binomial(3, 2) * q**2)
    assert res.actual == render(r.C.rows[4][2])


# --- structure checks for the alternating sequence ---


def schroder_structure(r):
    flag = _flag_triangle(((1,),) + r.prodN.rows)
    even, odd = _schroder_families(r.N.size)
    return _run_checks(_schroder_structure(r, flag, even, odd))


def test_schroder_structure_all_pass():
    r = compare(alternating(14), 7)
    for c in schroder_structure(r):
        assert c.status == "pass", c.name


def test_schroder_structure_detects_other_sequences():
    r = compare(ones(12), 6)
    statuses = {c.name: c.status for c in schroder_structure(r)}
    assert statuses["parity-row-recurrences"] == "fail"
    assert statuses["interleaved-columns"] == "fail"


# --- verify_example ---


def test_verify_catalan_all_pass():
    rep = verify_example("catalan", 6)
    assert rep.passed
    assert rep.counts[1] == 0 and rep.counts[2] == 0
    assert rep.q_value is None


def test_verify_qcase_symbolic_discrepancies():
    rep = verify_example("qcase", 6)
    assert rep.passed
    disc = {c.name for c in rep.checks if c.status == "documented-discrepancy"}
    assert disc == {"product-entry-5-3", "product-production-entry-2-1"}
    assert not any(c.status == "fail" for c in rep.checks)


def test_verify_qcase_numeric_discrepancies():
    rep = verify_example("qcase", 6, q_value=2)
    assert rep.passed
    disc = {c.name for c in rep.checks if c.status == "documented-discrepancy"}
    assert disc == {"first-matrix-entry-4-3", "chain-hankel-reference-indexing"}
    assert rep.q_value == 2


def test_verify_qcase_generic_value():
    rep = verify_example("qcase", 6, q_value=3)
    assert rep.passed
    names = {c.name for c in rep.checks}
    assert "specializes-symbolic-product" in names
    assert "qd-recovers-geometric-sequence" in names


@pytest.mark.parametrize("v", [-1, -2, -3])
def test_verify_qcase_negative_value_recovers_the_sequence(v):
    # at q = -1 the moments 1, 1, 0, -1, ... have a vanishing moment; the
    # coefficients come back off the Hankel determinants, which do not vanish
    rep = verify_example("qcase", 6, q_value=v)
    assert rep.passed
    status = {c.name: c.status for c in rep.checks}
    assert status["qd-recovers-geometric-sequence"] == "pass"


def test_verify_schroder_all_pass():
    rep = verify_example("schroder", 6)
    assert rep.passed
    assert rep.counts[1] == 0 and rep.counts[2] == 0
    names = {c.name for c in rep.checks}
    assert "inverse-row-mixture" in names
    assert "flag-triangle-production" in names


def test_verify_qcase_at_zero_is_refused_before_any_check():
    # a2 = 0 makes the first Hankel determinant vanish
    with pytest.raises(CatalanLikenessError) as info:
        verify_example("qcase", 6, q_value=0)
    assert info.value.order == 1


def test_verify_scales_beyond_reference_region():
    assert verify_example("catalan", 8).passed
    assert verify_example("schroder", 8).passed
    assert verify_example("qcase", 8).passed


def test_verify_rejects_bad_arguments():
    with pytest.raises(ValueError):
        verify_example("pascal", 6)
    with pytest.raises(ValueError):
        verify_example("catalan", 5)
    with pytest.raises(ValueError):
        verify_example("catalan", 6, q_value=2)
    with pytest.raises(TypeError):
        verify_example("qcase", 6, q_value=True)


def test_verify_builds_each_construction_once(monkeypatch):
    import cfmoments.pipeline as pipeline

    calls = {}
    for name in ("invert", "riordan_matrix", "production_of"):
        def counted(*args, _name=name, _orig=getattr(pipeline, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _orig(*args)

        monkeypatch.setattr(pipeline, name, counted)
    assert verify_example("schroder", 6).passed
    assert calls["invert"] <= 5
    assert calls["riordan_matrix"] == 3
    assert calls["production_of"] == 1


def test_discrepancy_check_fails_when_computation_drifts():
    good = _documented("x", 15, 51, 15, "note")[1]()
    assert good.status == "documented-discrepancy"
    drifted = _documented("x", 14, 51, 15, "note")[1]()
    assert drifted.status == "fail"


def test_display_reports_the_first_drifted_entry():
    computed = Triangle([[1], [2, 1], [5, q, 1]])
    # the None cell at row 1 column 0 is skipped, so the reported mismatch
    # is the later one
    expected = ((1,), (None, 1), (5, 1 + q, 1))
    (res,) = _run_checks([_display("d", computed, expected)])
    assert (res.name, res.status) == ("d", "fail")
    assert (res.expected, res.actual) == (render(1 + q), render(q))
    assert res.note == "first mismatch at row 2 column 1"
    (res,) = _run_checks([_display("d", computed, ((1,), (None, 1)))])
    assert (res.status, res.note) == ("pass", "2 rows")
