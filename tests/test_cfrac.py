"""Coefficient sequences, moment expansion, coefficients from moments."""

import random
from fractions import Fraction

import pytest

from cfmoments import cfrac, ring, triangle
from cfmoments.cfrac import (
    InsufficientCoefficients,
    JFractionCoeffs,
    QDBreakdownError,
    SFractionCoeffs,
    hankel_from_sfraction,
    moments_from_jfraction,
    moments_from_sfraction,
    qd_sfraction_from_moments,
    s_to_j,
    two_power_chain_coeff,
)
from cfmoments.ring import QPoly, QRat, field_div, q
from cfmoments.triangle import hankel_transform

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]
SCHRODER = [1, 1, 3, 11, 45, 197, 903]


def test_jfraction_invariant():
    JFractionCoeffs([0], [])
    JFractionCoeffs([1, 2], [3])
    with pytest.raises(ValueError):
        JFractionCoeffs([1, 2], [3, 4])
    with pytest.raises(ValueError):
        JFractionCoeffs([], [])


def test_coefficient_equality():
    assert JFractionCoeffs([1, 2], [3]) == JFractionCoeffs([1, 2], [3])
    assert JFractionCoeffs([1, 2], [3]) != JFractionCoeffs([1, 2], [4])
    assert JFractionCoeffs([1, 2], [3]) != JFractionCoeffs([1, 5], [3])
    assert SFractionCoeffs([1, q]) == SFractionCoeffs([1, q])
    assert SFractionCoeffs([1, q]) != SFractionCoeffs([1, 2])
    for other in (1, [1, 2], SFractionCoeffs([1, 2])):
        assert (JFractionCoeffs([1, 2], [3]) == other) is False
    for other in (1, (1, 2), JFractionCoeffs([1, 2], [3])):
        assert (SFractionCoeffs([1, 2]) == other) is False


def test_s_to_j_constant_ones():
    j = s_to_j(SFractionCoeffs([1] * 5))
    assert j.b == (1, 2, 2)
    assert j.lam == (1, 1)


def test_s_to_j_alternating():
    j = s_to_j(SFractionCoeffs([1, 2, 1, 2, 1]))
    assert j.b == (1, 3, 3)
    assert j.lam == (2, 2)


def test_s_to_j_q_powers():
    j = s_to_j(SFractionCoeffs([1, q, q**2, q**3, q**4]))
    assert j.b == (1, q + q**2, q**3 + q**4)
    assert j.lam == (q, q**5)


def test_s_to_j_needs_a1():
    with pytest.raises(InsufficientCoefficients, match="need at least a1"):
        s_to_j(SFractionCoeffs([]))


def test_count_must_be_positive():
    for build, coeffs in (
        (moments_from_sfraction, SFractionCoeffs([1, 1])),
        (moments_from_jfraction, JFractionCoeffs([1, 2], [1])),
        (hankel_from_sfraction, SFractionCoeffs([1, 1])),
    ):
        with pytest.raises(ValueError, match="count must be positive"):
            build(coeffs, 0)


def test_s_to_j_even_length_drops_last_pair_product():
    j = s_to_j(SFractionCoeffs([1, 1, 1, 1]))
    assert j.b == (1, 2)
    assert j.lam == (1,)


def test_moments_from_sfraction_catalan():
    assert moments_from_sfraction(SFractionCoeffs([1] * 7), 8) == CATALAN


def test_moments_from_sfraction_schroder():
    a = SFractionCoeffs([1, 2, 1, 2, 1, 2])
    assert moments_from_sfraction(a, 7) == SCHRODER


def test_moments_from_sfraction_q_powers():
    a = SFractionCoeffs([1, q, q**2, q**3])
    mu = moments_from_sfraction(a, 5)
    assert mu == [
        1,
        1,
        1 + q,
        QPoly.make((1, 2, 1, 1)),
        QPoly.make((1, 3, 3, 3, 2, 1, 1)),
    ]


def test_moments_need_no_coefficients_for_count_one():
    assert moments_from_sfraction(SFractionCoeffs([]), 1) == [1]
    assert moments_from_jfraction(JFractionCoeffs([0], []), 1) == [1]


def test_moments_from_sfraction_insufficient():
    with pytest.raises(InsufficientCoefficients):
        moments_from_sfraction(SFractionCoeffs([1, 1]), 4)


def test_moments_from_jfraction_catalan():
    j = JFractionCoeffs([1, 2, 2, 2], [1, 1, 1])
    assert moments_from_jfraction(j, 8) == CATALAN


def test_moments_from_jfraction_two_power_chain():
    j = JFractionCoeffs([4, 20, 88, 368, 1504], [16, 384, 7168, 122880])
    assert moments_from_jfraction(j, 10) == [2 ** (n * (n + 3) // 2) for n in range(10)]


def test_moments_from_jfraction_insufficient():
    with pytest.raises(InsufficientCoefficients):
        moments_from_jfraction(JFractionCoeffs([1, 2], [1]), 6)


def test_s_and_j_moments_agree_random():
    rng = random.Random(20260822)
    for _ in range(100):
        m = rng.randrange(1, 9)
        a = [rng.choice([1, -1, 2, -2, 3]) for _ in range(m)]
        s = SFractionCoeffs(a)
        count = m + 1 if m % 2 == 1 else m
        assert moments_from_sfraction(s, count) == moments_from_jfraction(
            s_to_j(s), count
        )


def test_qd_catalan():
    got = qd_sfraction_from_moments([1, 1, 2, 5, 14, 42])
    assert got.terms == (1, 1, 1, 1, 1)


def test_qd_two_power_chain():
    mu = [2 ** (n * (n + 3) // 2) for n in range(10)]
    got = qd_sfraction_from_moments(mu)
    assert list(got.terms) == [two_power_chain_coeff(n) for n in range(9)]


def test_qd_schroder():
    got = qd_sfraction_from_moments(SCHRODER)
    assert got.terms == (1, 2, 1, 2, 1, 2)


def test_qd_rejects_unnormalized():
    with pytest.raises(ValueError):
        qd_sfraction_from_moments([2, 1, 1])
    with pytest.raises(ValueError):
        qd_sfraction_from_moments([])


def test_qd_breakdown_reports_depth():
    with pytest.raises(QDBreakdownError) as e:
        qd_sfraction_from_moments([1, 1, 1, 2])
    assert e.value.depth == 3
    assert str(e.value) == "no coefficient 3: Hankel determinant h_1 is 0"
    with pytest.raises(QDBreakdownError) as e:
        qd_sfraction_from_moments([1, 0, 5])
    assert e.value.depth == 2
    assert str(e.value) == "no coefficient 2: a_1 is 0"


def test_qd_keeps_a_trailing_zero():
    # h_1 = 0 is the last determinant the moments reach, so a_2 = 0 is
    # returned rather than raised
    assert qd_sfraction_from_moments([1, 1, 1]).terms == (1, 0)


def test_qd_recovers_moments_with_a_vanishing_moment():
    assert qd_sfraction_from_moments([1, 1, 0, -1, -2]).terms == (1, -1, 1, 1)


def _signed_int(rng):
    return rng.choice([1, -1, 2, -2, 3, -3])


def _signed_fraction(rng):
    return Fraction(_signed_int(rng), rng.randrange(1, 5))


def _signed_poly(rng):
    while True:
        p = QPoly.make([rng.randrange(-2, 3) for _ in range(rng.randrange(1, 3))])
        if p != 0:
            return p


def _signed_rational_function(rng):
    return QRat.make(_signed_poly(rng), rng.choice([1, 1 + q, 2 - q, 3]))


_SIGNED_DRAWS = [
    (_signed_int, 8),
    (_signed_fraction, 8),
    (_signed_poly, 7),
    (_signed_rational_function, 5),
]


def _qd_columns(mu):
    """Reference oracle: the column quotient-difference scheme
    (Rutishauser 1954).  It divides by the moments and by the Hankel
    determinants of shifted moments, so it raises QDBreakdownError on
    some moment lists that have a one-parameter form."""
    m = len(mu) - 1
    if m == 0:
        return []
    qcol = []
    for n in range(m):
        if mu[n] == 0:
            raise QDBreakdownError(n + 1)
        qcol.append(field_div(mu[n + 1], mu[n]))
    out = [qcol[0]]
    ecol = [0] * len(qcol)
    while len(out) < m:
        nxt_e = [qcol[n + 1] - qcol[n] + ecol[n + 1] for n in range(len(qcol) - 1)]
        out.append(nxt_e[0])
        if len(out) == m:
            break
        nxt_q = []
        for n in range(len(nxt_e) - 1):
            if nxt_e[n] == 0:
                raise QDBreakdownError(len(out) + 1)
            nxt_q.append(field_div(qcol[n + 1] * nxt_e[n + 1], nxt_e[n]))
        out.append(nxt_q[0])
        qcol, ecol = nxt_q, nxt_e
    return out


def _qd_or_none(qd, mu):
    try:
        return list(qd(mu))
    except QDBreakdownError:
        return None


def test_qd_matches_the_column_scheme_on_any_moments_random():
    # small entries make many moments and determinants vanish: wherever
    # the column scheme succeeds the two agree, and whatever qd returns
    # has exactly these moments
    rng = random.Random(41)
    entries = [
        lambda: rng.randrange(-2, 3),
        lambda: Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)),
        lambda: QPoly.make([rng.randrange(-1, 2) for _ in range(rng.randrange(1, 3))]),
        lambda: QRat.make(QPoly.make([rng.randrange(-1, 2), 1]), rng.choice([1, 1 + q, 3])),
    ]
    outcomes = set()
    for entry in entries:
        for _ in range(150):
            mu = [1] + [entry() for _ in range(rng.randrange(0, 6))]
            want = _qd_or_none(_qd_columns, mu)
            got = _qd_or_none(lambda m: qd_sfraction_from_moments(m).terms, mu)
            if want is not None:
                assert got == want, mu
            if got is not None:
                assert moments_from_sfraction(SFractionCoeffs(got), len(mu)) == mu
            outcomes.add((want is None, got is None))
    assert outcomes == {(False, False), (True, False), (True, True)}


def test_qd_roundtrip_random():
    # nonzero coefficients of either sign in all four scalar types: the
    # Hankel determinants are products of them, so none vanishes and qd
    # recovers a, also where the column scheme breaks down
    rng = random.Random(9)
    broke = 0
    for draw, longest in _SIGNED_DRAWS:
        for _ in range(40):
            a = [draw(rng) for _ in range(rng.randrange(1, longest + 1))]
            mu = moments_from_sfraction(SFractionCoeffs(a), len(a) + 1)
            assert list(qd_sfraction_from_moments(mu).terms) == a
            want = _qd_or_none(_qd_columns, mu)
            assert want is None or want == a
            broke += want is None
    assert broke > 0


def test_qd_makes_one_field_division_per_coefficient(monkeypatch):
    # Q(q) moments are cleared of their denominators, so the sweep divides
    # exactly in Z[q] and each coefficient is one division in the field
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return field_div(x, y)

    for module in (cfrac, ring, triangle):
        monkeypatch.setattr(module, "field_div", counted)
    a = [1, QRat.make(q, 1 + q), -q, QRat.make(2 - q, 3), 1 + q, QRat.make(-1, 1 + q)]
    mu = moments_from_sfraction(SFractionCoeffs(a), len(a) + 1)
    calls.clear()
    assert list(qd_sfraction_from_moments(mu).terms) == a
    assert len(calls) == len(a)


def test_hankel_from_sfraction_ones():
    assert hankel_from_sfraction(SFractionCoeffs([1] * 8), 5) == [1] * 5


def test_hankel_from_sfraction_schroder():
    a = SFractionCoeffs([1, 2, 1, 2, 1, 2, 1, 2])
    assert hankel_from_sfraction(a, 5) == [1, 2, 8, 64, 1024]


def test_hankel_from_sfraction_two_power_chain():
    a = SFractionCoeffs([two_power_chain_coeff(n) for n in range(8)])
    assert hankel_from_sfraction(a, 5) == [
        1,
        16,
        98304,
        4329327034368,
        23428840713137027316449280,
    ]


def test_hankel_from_sfraction_insufficient():
    with pytest.raises(InsufficientCoefficients):
        hankel_from_sfraction(SFractionCoeffs([1, 1]), 3)


def test_hankel_product_matches_determinants_random():
    rng = random.Random(17)
    for _ in range(60):
        count = rng.randrange(1, 5)
        a = [rng.choice([1, -1, 2, -2, 3]) for _ in range(2 * (count - 1))]
        s = SFractionCoeffs(a)
        mu = moments_from_sfraction(s, 2 * count - 1)
        dets = hankel_transform(mu, count)
        prods = hankel_from_sfraction(s, count)
        assert dets == prods
        assert all(h != 0 for h in dets)


def test_zero_determinant_detected_both_ways():
    # h_1 = 0 for these moments; the determinant route shows the zero and
    # qd breaks down or emits a zero coefficient
    for mu in ([1, 1, 1, 2], [1, 2, 4, 8], [1, 1, 1]):
        dets = hankel_transform(mu, (len(mu) + 1) // 2)
        assert any(h == 0 for h in dets)
        try:
            got = qd_sfraction_from_moments(mu)
        except QDBreakdownError:
            continue
        assert any(v == 0 for v in got.terms)


def test_two_power_chain_coeff():
    assert [two_power_chain_coeff(n) for n in range(9)] == [
        4,
        4,
        16,
        24,
        64,
        112,
        256,
        480,
        1024,
    ]
    with pytest.raises(ValueError):
        two_power_chain_coeff(-1)
