"""The path recurrences for moments and the cheap Hankel gate of
``compare``, checked against independent routes over all four scalar
rings."""

import random
from fractions import Fraction

import pytest

from cfmoments import cfrac, pipeline
from cfmoments.cfrac import (
    SFractionCoeffs,
    moments_from_jfraction,
    moments_from_sfraction,
    s_to_j,
)
from cfmoments.pipeline import CatalanLikenessError, build_N_via_behead, compare
from cfmoments.ring import QRat, q
from cfmoments.triangle import hankel_transform, production_of


def _nested_reciprocal_moments(a, count):
    """Reference expansion: the tail 1 at depth count, wrapped level by
    level as 1 / (1 - a_k x t), by plain power-series reciprocals."""
    t = [1] + [0] * (count - 1)
    for k in range(count - 1, 0, -1):
        u = [0] + [a[k - 1] * v for v in t[:-1]]
        nxt = [1]
        for i in range(1, count):
            acc = 0
            for j in range(1, i + 1):
                acc = acc + u[j] * nxt[i - j]
            nxt.append(acc)
        t = nxt
    return t


# A zero may be drawn: the moment routes need no nonzero coefficient.
DRAWS = {
    "int": lambda rng: rng.choice([0, 1, -1, 2, 3]),
    "fraction": lambda rng: Fraction(rng.randrange(-3, 4), rng.randrange(1, 5)),
    "qpoly": lambda rng: (
        rng.randrange(-1, 3) * q ** rng.randrange(3) + rng.randrange(-1, 2)
    ),
    "qrat": lambda rng: QRat.make(
        rng.randrange(4) + q ** rng.randrange(3), 1 + rng.choice([2, 3]) * q
    ),
}
MAX_COUNT = {"int": 12, "fraction": 9, "qpoly": 7, "qrat": 4}


@pytest.mark.parametrize("ring", list(DRAWS))
def test_path_moments_match_every_other_route(ring):
    rng = random.Random(20261017)
    for _ in range(12):
        count = rng.randrange(1, MAX_COUNT[ring] + 1)
        a = SFractionCoeffs([DRAWS[ring](rng) for _ in range(2 * count)])
        mu = moments_from_sfraction(a, count)
        assert type(mu[0]) is int and mu[0] == 1
        assert mu == moments_from_jfraction(s_to_j(a), count)
        if count > 1:  # the builders take sizes from 2
            N, P = build_N_via_behead(a, count)
            assert mu == list(N.column(0))
            assert P == production_of(N)
        assert mu == _nested_reciprocal_moments(a.terms, count)


def test_field_terms_run_the_path_sweep_over_zq(monkeypatch):
    # Q(q) terms are cleared to b_i = D a_i and mu_k divided back by D^k,
    # peeled one D at a time: no QRat.make before the first division back
    a = SFractionCoeffs([QRat.make(1 + q, 1 + 2 * q), QRat.make(2 + q**2, 1 + 3 * q)] * 4)
    want = _nested_reciprocal_moments(a.terms, 9)
    events = []
    real_make, real_peel = QRat.make, cfrac._peel

    def make(num, den=1):
        events.append("make")
        return real_make(num, den)

    def div(*args):
        events.append("div")
        return real_peel(*args)

    monkeypatch.setattr(QRat, "make", staticmethod(make))
    monkeypatch.setattr(cfrac, "_peel", div)
    mu = moments_from_sfraction(a, 9)
    assert events[0] == "div" and events.count("div") == 8
    assert type(mu[0]) is int and mu == want


NONZERO = {
    "int": lambda rng: rng.choice([1, -1, 2, 3]),
    "qpoly": lambda rng: (
        rng.choice([1, 2]) * q ** rng.randrange(3) + rng.choice([0, 1])
    ),
    # compare zero-tests the packed terms: 2^70 coefficients take m >= 2
    "qpoly-wide": lambda rng: (
        rng.choice([-3, 1]) * q ** rng.randrange(3) + rng.choice([0, 2**70 - 1])
    ),
}


@pytest.mark.parametrize("ring", list(NONZERO))
def test_gate_order_is_the_first_vanishing_determinant(ring):
    rng = random.Random(7)
    n = 5
    for i in range(2, 2 * n + 1):
        terms = [1] + [NONZERO[ring](rng) for _ in range(2 * n - 1)]
        terms[i - 1] = 0
        a = SFractionCoeffs(terms)
        dets = hankel_transform(moments_from_sfraction(a, 2 * n - 1), n)
        zeros = [k for k, h in enumerate(dets) if h == 0]
        if not zeros:
            # a zero past a_{2n-2} leaves h_0 .. h_{n-1} alone
            assert i > 2 * n - 2
            compare(a, n)
            continue
        with pytest.raises(CatalanLikenessError) as e:
            compare(a, n)
        assert e.value.order == zeros[0]


def test_determinant_and_product_routes_must_agree(monkeypatch):
    real = pipeline.hankel_det
    monkeypatch.setattr(pipeline, "hankel_det", lambda mu, n: real(mu, n) + 1)
    # int input runs the ring body as it is; Fraction input reaches the
    # same check through the graded route
    for terms in ([1, 2] * 4, [1, Fraction(2, 3)] * 4):
        with pytest.raises(ArithmeticError, match="determinant and product routes") as e:
            compare(SFractionCoeffs(terms), 4)
        assert not isinstance(e.value, CatalanLikenessError)
