"""Coefficient sequences, moment expansion, quotient-difference scheme."""

import random

import pytest

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
from cfmoments.ring import QPoly, q
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
        QPoly((1, 2, 1, 1)),
        QPoly((1, 3, 3, 3, 2, 1, 1)),
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
    with pytest.raises(QDBreakdownError) as e:
        qd_sfraction_from_moments([1, 0, 5])
    assert e.value.depth == 2


def test_qd_roundtrip_random():
    # positive coefficients keep every interior cell nonzero; mixed signs
    # can legitimately break the scheme even with nonzero a_k
    rng = random.Random(9)
    for _ in range(100):
        m = rng.randrange(1, 8)
        a = [rng.choice([1, 2, 3, 4]) for _ in range(m)]
        mu = moments_from_sfraction(SFractionCoeffs(a), m + 1)
        back = qd_sfraction_from_moments(mu)
        assert list(back.terms) == a


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
    # the quotient-difference route breaks or emits a zero coefficient
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
