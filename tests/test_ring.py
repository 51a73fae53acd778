"""Scalar ring: canonical forms, exact division, evaluation, rendering."""

import hashlib
import math
import random
import sys
from array import array
from fractions import Fraction

import pytest

from cfmoments import ring
from cfmoments.cfrac import SFractionCoeffs
from cfmoments.ring import (
    DigitLimitError,
    ExactDivisionError,
    QPoly,
    QRat,
    ScalarParseError,
    _zq_gcd,
    _zq_pack,
    _zq_slots,
    _zq_unpack,
    eval_q,
    exact_div,
    field_div,
    is_scalar,
    parse_scalar,
    q,
    render,
)
from cfmoments.triangle import Triangle


def test_monomial_product():
    assert q * q**2 == q**3


def test_square_expansion():
    assert (1 + q) ** 2 == QPoly.make((1, 2, 1))


def test_power_makes_no_product_past_the_last_bit(monkeypatch):
    # binary powering: one squaring per bit below the top and one multiply
    # per set bit below the top; the value equals the repeated product
    p = QPoly.make([1, -2, 0, 3])
    repeated = [1]
    for _ in range(9):
        repeated.append(repeated[-1] * p)
    products = []
    real = QPoly.__mul__

    def counted(self, other):
        if type(other) is QPoly:
            products.append(1)
        return real(self, other)

    monkeypatch.setattr(QPoly, "__mul__", counted)
    for e in range(10):
        products.clear()
        assert p**e == repeated[e]
        assert len(products) == max(e.bit_length() - 1, 0) + max(bin(e).count("1") - 1, 0)


def test_constant_demotion():
    assert QPoly.make((5,)) == 5
    assert isinstance(QPoly.make((5, 0, 0)), int)
    assert QPoly.make(()) == 0
    assert (q - q) == 0
    assert isinstance(q * 0, int)


def test_degree_invariant():
    # no trailing zeros, never a constant QPoly
    p = QPoly.make((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert type(QPoly.make((7, 0))) is int


def test_mixed_arithmetic():
    assert 1 + q == QPoly.make((1, 1))
    assert Fraction(1, 2) + q == QRat.make(QPoly.make((1, 2)), 2)
    assert 2 * q == QPoly.make((0, 2))
    assert q - 1 == QPoly.make((-1, 1))
    assert (1 - q) * (1 + q) == QPoly.make((1, 0, -1))


def test_qrat_demotion_chain():
    assert QRat.make(q**2 + q, q) == 1 + q
    assert QRat.make(1 + q, QPoly.make((2, 2))) == Fraction(1, 2)
    assert QRat.make(6, 4) == Fraction(3, 2)
    assert QRat.make(q, q) == 1
    assert isinstance(QRat.make(q, q), int)
    assert QRat.make(0, 1 + q) == 0


def test_qrat_normalization_sign():
    r = QRat.make(1, QPoly.make((-1, -1)))
    assert isinstance(r, QRat)
    assert r.den == 1 + q
    assert r.num == -1


def test_qrat_field_ops():
    half = QRat.make(1, 1 + q)
    assert half + half == QRat.make(2, 1 + q)
    assert half * (1 + q) == 1
    assert field_div(1, half) == 1 + q
    assert half - half == 0
    assert half**2 == QRat.make(1, (1 + q) ** 2)
    assert half**-1 == 1 + q


def test_exact_div_ints():
    assert exact_div(6, 3) == 2
    with pytest.raises(ExactDivisionError):
        exact_div(7, 3)


def test_exact_div_raises_the_same_on_and_off_the_int_path():
    # int ÷ int runs before the operands are validated; every other pair
    # is validated first, so a non-scalar beats a zero divisor
    for x, y, error, text in [
        (7, 0, ZeroDivisionError, "exact_div by zero"),
        (0, 0, ZeroDivisionError, "exact_div by zero"),
        (-7, 2, ExactDivisionError, "-7 not divisible by 2"),
        (q, 0, ZeroDivisionError, "exact_div by zero"),
        (Fraction(1, 2), 0, ZeroDivisionError, "exact_div by zero"),
        (True, 0, TypeError, "incompatible ring value: True"),
        (7, False, TypeError, "incompatible ring value: False"),
        (_Int(7), 0, TypeError, "incompatible ring value: 7"),
        (7, 0.0, TypeError, "incompatible ring value: 0.0"),
        ("7", 0, TypeError, "incompatible ring value: '7'"),
    ]:
        with pytest.raises(error) as e:
            exact_div(x, y)
        assert type(e.value) is error and str(e.value) == text
    assert type(exact_div(-6, 3)) is int and exact_div(-6, 3) == -2


def test_exact_div_polys():
    assert exact_div(q**3, q) == q**2
    assert exact_div(q**2 - 1, q - 1) == q + 1
    zero = exact_div(0, -3 * q**4)
    assert type(zero) is int and zero == 0
    for x, y, message in (
        (1 + q, q, "1 + q not divisible by q"),
        (1 + 2 * q, 2, "1 + 2*q not divisible by 2"),
        (q**2 + 3 * q**3, 2 * q**2, "q^2 + 3*q^3 not divisible by 2*q^2"),
    ):
        with pytest.raises(ExactDivisionError) as e:
            exact_div(x, y)
        assert str(e.value) == message
    with pytest.raises(ExactDivisionError):
        exact_div(QPoly.make((0, 2)), QPoly.make((0, 4)))


def test_exact_div_field_operands_divide_freely():
    assert exact_div(Fraction(1, 2), 3) == Fraction(1, 6)
    assert exact_div(1, QRat.make(1, 1 + q)) == 1 + q
    with pytest.raises(ZeroDivisionError):
        exact_div(1, 0)


def test_eval_q():
    assert eval_q(q + q**2, 2) == 6
    assert eval_q(QPoly.make((1, 2, 1, 1)), 2) == 17
    assert eval_q(q**5, 2) == 32
    assert eval_q(0, 7) == 0
    assert eval_q(Fraction(3, 4), 5) == Fraction(3, 4)
    assert eval_q(QRat.make(q**2, 1 + q), 3) == Fraction(9, 4)
    assert eval_q(QRat.make(1 + q, 1 - q + q**2), 2) == 1


def test_eval_q_vanishing_denominator():
    r = QRat.make(1, q - 2)
    with pytest.raises(ZeroDivisionError):
        eval_q(r, 2)


def test_render_forms():
    assert render(0) == "0"
    assert render(-7) == "-7"
    assert render(Fraction(3, 4)) == "3/4"
    assert render(q) == "q"
    assert render(-q) == "-q"
    assert render(QPoly.make((1, 2, 1))) == "1 + 2*q + q^2"
    assert render(QPoly.make((0, 0, 0, 0, 0, -1, 1))) == "-q^5 + q^6"
    assert render(QPoly.make((0, 0, 3))) == "3*q^2"
    assert render(QRat.make(1 + q, q)) == "(1 + q)/q"
    assert render(QRat.make(1, QPoly.make((1, 2)))) == "1/(1 + 2*q)"
    assert render(QRat.make(QPoly.make((0, 0, -3)), QPoly.make((1, 1)))) == "-3*q^2/(1 + q)"


def test_parse_scalar_basics():
    assert parse_scalar("17") == 17
    assert parse_scalar("-17") == -17
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("q^2") == q**2
    assert parse_scalar("1 + 2*q + q^2") == QPoly.make((1, 2, 1))
    assert parse_scalar("(1 + q)/q") == QRat.make(1 + q, q)
    assert parse_scalar("(1+q)^2") == QPoly.make((1, 2, 1))
    assert parse_scalar("2*q^3 - q") == QPoly.make((0, -1, 0, 2))


def test_parse_scalar_errors_carry_offset():
    with pytest.raises(ScalarParseError) as e:
        parse_scalar("1 + %")
    assert e.value.offset == 4
    with pytest.raises(ScalarParseError) as e:
        parse_scalar("(1 + q")
    assert e.value.offset == 6
    with pytest.raises(ScalarParseError, match="unexpected trailing input") as e:
        parse_scalar("1 2")
    assert e.value.offset == 2
    with pytest.raises(ScalarParseError):
        parse_scalar("1/0")
    with pytest.raises(ScalarParseError):
        parse_scalar("")


def test_parse_scalar_nesting_limit():
    assert parse_scalar("(" * 100 + "1 + q" + ")" * 100) == 1 + q
    with pytest.raises(ScalarParseError) as e:
        parse_scalar("2*" + "(" * 3000 + "1" + ")" * 3000)
    assert e.value.offset == 102


def test_digit_limit_for_literals_and_renderings():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("the interpreter has no int-to-text limit")
    longest = "9" * limit
    assert parse_scalar("q + " + longest) == q + int(longest)
    assert render(int(longest)) == longest
    with pytest.raises(ScalarParseError) as e:
        parse_scalar("q + " + longest + "9")
    assert e.value.offset == 4
    with pytest.raises(ScalarParseError) as e:
        parse_scalar("1 + \N{SUPERSCRIPT TWO}")
    assert e.value.offset == 4
    for value in (10**limit, Fraction(1, 10**limit), q * 10**limit, QRat.make(q, q + 10**limit)):
        with pytest.raises(DigitLimitError):
            render(value)


# Outcomes of about 3000 seeded random strings, frozen as one sha256: a
# change to the reader must keep every value, and every error's type,
# offset and message.

_READER_DIGEST = "f74ce5450f55e2f548fe779e07dfbf966d52d883ce4356c4abacedd755fa1c62"
# the last three are never valid: a symbol is drawn from the whole tuple
# one time in 16, and from the rest otherwise
_READER_SYMBOLS = (
    *"0123456789+-*/^()qx \t",
    "q^",
    "(1+q)",
    "1234567890123456789012345",
    *"\n%\N{SUPERSCRIPT TWO}",
)


def _reader_outcome(text, var):
    try:
        v = parse_scalar(text, var)
        return f"{type(v).__name__} {render(v)}"
    except (ValueError, ArithmeticError) as e:
        return f"{type(e).__name__} {getattr(e, 'offset', None)} {e}"


def test_reader_outcomes_match_their_frozen_digest():
    rng = random.Random(20261021)
    digest = hashlib.sha256()
    for _ in range(3000):
        text = "".join(
            rng.choice(_READER_SYMBOLS[: -3 if rng.randrange(16) else None])
            for _ in range(rng.randrange(15))
        )
        got = _reader_outcome(text, rng.choice("qx"))
        digest.update(got.encode() + b"\n")
    assert digest.hexdigest() == _READER_DIGEST


class _Int(int):
    pass


def test_named_ops_reject_floats():
    with pytest.raises(TypeError):
        exact_div(1.5, 1)
    with pytest.raises(TypeError):
        field_div(q, 0.5)
    with pytest.raises(TypeError):
        q * 0.5
    assert not is_scalar(1.5)
    assert is_scalar(q)
    # a scalar's type is exactly int, Fraction, QPoly or QRat: bool and
    # other subclasses of int are refused the same way everywhere
    for x in (True, _Int(3)):
        assert not is_scalar(x)
        for op in (
            lambda: exact_div(x, 1),
            lambda: exact_div(6, x),
            lambda: field_div(x, q),
            lambda: eval_q(x, 2),
            lambda: eval_q(q, x),
            lambda: render(x),
            lambda: q + x,
            lambda: q * x,
            lambda: QRat.make(x, 1),
            lambda: QPoly.make((0, x)),
            lambda: Triangle([[x]]),
            lambda: SFractionCoeffs([x]),
        ):
            with pytest.raises(TypeError):
                op()


def _random_scalar(rng, depth=0):
    kind = rng.randrange(8 if depth == 0 else 6)
    if kind < 2:
        return rng.randrange(-9, 10)
    if kind < 3:
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
    if kind < 6:
        return QPoly.make([rng.randrange(-4, 5) for _ in range(rng.randrange(1, 5))])
    num = _random_scalar(rng, depth + 1)
    den = _random_scalar(rng, depth + 1)
    if den == 0:
        den = 1 + q
    return field_div(num, den)


def test_ring_axioms_random():
    rng = random.Random(20260822)
    for _ in range(200):
        x = _random_scalar(rng)
        y = _random_scalar(rng)
        z = _random_scalar(rng)
        assert x + y == y + x
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert x + 0 == x
        assert x * 1 == x
        assert x - x == 0


def test_exact_div_inverts_mul_random():
    rng = random.Random(7)
    for _ in range(200):
        x = _random_scalar(rng)
        y = _random_scalar(rng)
        if y == 0:
            continue
        prod = x * y
        ring_pair = isinstance(prod, (int, QPoly)) and isinstance(y, (int, QPoly))
        if ring_pair and isinstance(x, (Fraction, QRat)):
            # demotion can land the product in the base ring, where the
            # quotient legitimately need not exist
            try:
                assert exact_div(prod, y) == x
            except ExactDivisionError:
                pass
        else:
            assert exact_div(prod, y) == x


def test_eval_is_homomorphism_random():
    rng = random.Random(99)
    for _ in range(200):
        x = QPoly.make([rng.randrange(-5, 6) for _ in range(rng.randrange(1, 6))])
        y = QPoly.make([rng.randrange(-5, 6) for _ in range(rng.randrange(1, 6))])
        v = rng.randrange(-3, 4)
        assert eval_q(x * y, v) == eval_q(x, v) * eval_q(y, v)
        assert eval_q(x + y, v) == eval_q(x, v) + eval_q(y, v)


def test_render_parse_roundtrip_random():
    rng = random.Random(20260822)
    for _ in range(200):
        x = _random_scalar(rng)
        assert parse_scalar(render(x)) == x


# --- seeded fuzzers -----------------------------------------------------

_KINDS = (int, Fraction, QPoly, QRat)


def _fuzz_scalar(rng, kind):
    """A value whose type is exactly ``kind``; coefficients are mostly
    small, sometimes 30 digits long, of either sign."""

    def coeff():
        if rng.randrange(5):
            return rng.randrange(-9, 10)
        return rng.randrange(-(10**30), 10**30)

    def poly():
        return QPoly.make([coeff() for _ in range(rng.randrange(1, 5))])

    while True:
        if kind is int:
            x = coeff()
        elif kind is Fraction:
            x = field_div(coeff(), coeff() or 1)
        elif kind is QPoly:
            x = poly()
        else:
            den = poly()
            x = field_div(poly(), den if den != 0 else 1 + q)
        if type(x) is kind:
            return x


def test_render_parse_roundtrip_fuzz():
    # equal value and identical rendering; an integral Fraction comes
    # back as an int, so the exact type may differ
    rng = random.Random(20261018)
    for i in range(2000):
        x = _fuzz_scalar(rng, _KINDS[i % 4])
        text = render(x)
        back = parse_scalar(text)
        assert back == x, text
        assert render(back) == text


def test_ring_axioms_across_types_fuzz():
    # every ordered pair of types, each on each side; equal results must
    # also render identically, so every result is in canonical form
    rng = random.Random(20261019)
    for i in range(800):
        a = _fuzz_scalar(rng, _KINDS[i % 4])
        b = _fuzz_scalar(rng, _KINDS[i // 4 % 4])
        c = _fuzz_scalar(rng, rng.choice(_KINDS))
        pairs = [
            (a + b, b + a),
            (a * b, b * a),
            ((a + b) + c, a + (b + c)),
            ((a * b) * c, a * (b * c)),
            (a * (b + c), a * b + a * c),
            (a - b, -(b - a)),
            (a - b, a + (-b)),
            (a - a, 0),
        ]
        for left, right in pairs:
            assert left == right, (a, b, c)
            assert render(left) == render(right), (a, b, c)


def _coeff_list(x):
    cs = [x] if isinstance(x, int) else list(x.coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _euclid_gcd(x, y):
    """gcd in Z[q] by Euclid over the rationals: an independent oracle."""
    a = [Fraction(c) for c in _coeff_list(x)]
    b = [Fraction(c) for c in _coeff_list(y)]
    while b:
        while len(a) >= len(b):
            f, k = a[-1] / b[-1], len(a) - len(b)
            for j, c in enumerate(b):
                a[k + j] -= f * c
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    # a is the gcd up to a rational unit: scale it to a primitive
    # integer polynomial with positive leading coefficient
    den = math.lcm(*(c.denominator for c in a))
    ints = [int(c * den) for c in a]
    unit = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
    content = math.gcd(*_coeff_list(x), *_coeff_list(y))
    return QPoly.make([c // unit * content for c in ints])


def _random_zq(rng):
    """An int or polynomial of degree 0..5 with coefficients in -5..5."""
    return QPoly.make([rng.randrange(-5, 6) for _ in range(rng.randrange(1, 7))])


def test_gcd_matches_rational_euclid_random():
    rng = random.Random(20261017)
    for _ in range(3000):
        f, g, h = _random_zq(rng), _random_zq(rng), _random_zq(rng)
        x = 0 if rng.randrange(12) == 0 else f * h
        y = g * h
        if x == 0 and y == 0:
            with pytest.raises(ZeroDivisionError):
                _zq_gcd(x, y)
            continue
        expected = _euclid_gcd(x, y)
        assert _zq_gcd(x, y) == expected
        assert _zq_gcd(-y, x) == expected


def test_gcd_edge_cases():
    assert _zq_gcd(0, -6) == 6
    assert _zq_gcd(-2 - 2 * q, 0) == 2 + 2 * q
    assert _zq_gcd(4 + 6 * q, 10) == 2
    assert _zq_gcd(-(1 + q) ** 2 * (2 - q), 3 * (1 + q) * (2 - q) ** 3) == (1 + q) * (q - 2)


def test_qrat_make_is_reduced_random():
    rng = random.Random(31)
    for _ in range(1500):
        h = _random_zq(rng)
        n, d = _random_zq(rng) * h, _random_zq(rng) * h
        if d == 0:
            continue
        r = QRat.make(n, d)
        if isinstance(r, QRat):
            num, den = r.num, r.den
        elif isinstance(r, Fraction):
            num, den = r.numerator, r.denominator
        else:
            num, den = r, 1
        assert _coeff_list(den)[-1] > 0
        assert _euclid_gcd(num, den) == 1
        assert num * d == n * den


def _schoolbook(x, y):
    """Product of two Z[q] values by the plain double loop: the oracle for
    the monomial and unit paths of QPoly multiplication."""
    a, b = _coeff_list(x), _coeff_list(y)
    out = [0] * (len(a) + len(b))
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return QPoly.make(out)


def test_monomial_and_unit_paths_match_schoolbook_random():
    rng = random.Random(20261021)
    for _ in range(600):
        p = QPoly.make([rng.randrange(-(2**80), 2**80 + 1) for _ in range(rng.randrange(1, 31))])
        c = rng.choice((1, -1, rng.randrange(-(2**40), 2**40) or 2))
        mono = QPoly.make([0] * rng.randrange(11) + [c])
        r = _random_zq(rng) or 1 + q
        for got, want in (
            (p * mono, _schoolbook(p, mono)),
            (mono * p, _schoolbook(p, mono)),
            (p * 1, p),
            (1 * p, p),
            (p * 0, 0),
            (0 * p, 0),
        ):
            assert type(got) is type(want) and got == want, (p, mono)
        assert exact_div(p * mono, mono) == p
        assert exact_div(p * mono * r, mono * r) == p
        assert exact_div(p * c, c) == p


def test_make_checks_coefficient_types():
    # a trailing coefficient equal to 0 is checked too
    for bad in ([1, 0.5], [1, Fraction(1, 2)], [True, 1], [1, 0.0], [1, 2, False]):
        with pytest.raises(TypeError):
            QPoly.make(bad)


def _reference_power(x, n):
    return QRat.make(x.num**n, x.den**n) if n >= 0 else QRat.make(x.den**-n, x.num**-n)


def test_qrat_power_skips_the_gcd_and_matches_make_random(monkeypatch):
    rng = random.Random(20261023)
    quotients = []
    while len(quotients) < 120:
        num = rng.choice((
            rng.choice((1, -1)),  # a unit
            -QPoly.make([rng.randrange(-5, 6) for _ in range(rng.randrange(1, 5))] + [1]),
            _random_zq(rng),
        ))
        den = rng.choice((rng.choice((2, -3, 5)), _random_zq(rng)))
        if num != 0 and den != 0 and type(QRat.make(num, den)) is QRat:
            quotients.append(QRat.make(num, den))
    assert any(type(x.den) is int for x in quotients)
    assert any(_coeff_list(x.num)[-1] < 0 for x in quotients)
    assert any(x.num in (1, -1) for x in quotients)
    wants = [[_reference_power(x, n) for n in range(-5, 6)] for x in quotients]
    gcds = []
    monkeypatch.setattr(ring, "_zq_gcd", lambda x, y: gcds.append(1) or _zq_gcd(x, y))
    for x, want in zip(quotients, wants):
        for n, w in zip(range(-5, 6), want):
            got = x**n
            assert type(got) is type(w) and got == w and render(got) == render(w), (x, n)
    assert gcds == []


def test_zq_slot_arrays_have_items_one_slot_wide():
    # m = 1 and m = 2 go through an array whose items are one slot each;
    # wider slots through the bytes loop
    assert ring._ZQ_BITS == 32
    assert sorted(ring._ZQ_ARRAY_CODES) == [1, 2]
    for m, code in ring._ZQ_ARRAY_CODES.items():
        assert 8 * array(code).itemsize == ring._ZQ_BITS * m


def test_zq_pack_is_a_ring_homomorphism_and_unpack_inverts_it_random():
    # edges of the 'i' (m = 1), 'q' (m = 2) and bytes (m = 3) layouts
    rng = random.Random(20261024)
    for m in (1, 2, 3):
        half = 1 << (ring._ZQ_BITS * m - 1)
        for edge in (half - 1, -half, QPoly.make([-half, half - 1, -half])):
            assert _zq_unpack(_zq_pack(edge, m), m) == edge
        for bad in (half, -half - 1, QPoly.make([0, half])):
            with pytest.raises(OverflowError):
                _zq_pack(bad, m)
        for _ in range(200):
            bits = rng.choice((2, 30, ring._ZQ_BITS * m - 1))
            x, y = (
                QPoly.make([rng.randrange(-(2**bits), 2**bits) for _ in range(rng.randrange(1, 9))])
                for _ in range(2)
            )
            for v in (x, y, 0):
                got = _zq_unpack(_zq_pack(v, m), m)
                assert type(got) is type(v) and got == v
                assert list(_zq_slots(_zq_pack(v, m), m))[: len(_coeff_list(v))] == _coeff_list(v)
            if bits == 2:
                assert _zq_pack(x * y, m) == _zq_pack(x, m) * _zq_pack(y, m)
                assert _zq_pack(x - y, m) == _zq_pack(x, m) - _zq_pack(y, m)


# -- grading by index and peeling, against one gcd per quotient ------------------

_FACTORS = (2, 3, -1 + 2 * q, 1 + q, 1 + 2 * q, 2 - q, 1 + q**2, q)


def _random_den(rng):
    # products of a few distinct factors, so not a power of one polynomial
    den = 1
    for f in rng.sample(_FACTORS, rng.randrange(0, 4)):
        den = den * f ** rng.randrange(1, 3)
    return den


def _random_field_value(rng, kind):
    if rng.randrange(6) == 0:
        return 0
    num = rng.randrange(-9, 10) if kind == "fraction" else _random_zq(rng)
    den = _random_den(rng)
    if kind == "fraction":
        den = math.prod(_coeff_list(den)[-1:]) or 1
    return field_div(num, den) if kind == "fraction" else QRat.make(num, den)


def _field_list(rng):
    kind = rng.choice(("fraction", "qq", "mixed"))
    n = rng.randrange(1, 8)
    if kind == "mixed":
        vals = [_random_field_value(rng, rng.choice(("fraction", "qq"))) for _ in range(n)]
        vals += [rng.choice((2, -1 + q, 1 + q**2))]
    else:
        vals = [_random_field_value(rng, kind) for _ in range(n)]
    return kind, vals


def _quotient(x, c, e, d=1, f=0):
    """x / (c^e·d^f) by one gcd: a Fraction when x, c and d are ints, as
    field_div gives, and QRat.make's value otherwise."""
    if type(x) is int and type(c) is int and type(d) is int:
        return field_div(x, c**e * d**f)
    return QRat.make(x, c**e * d**f)


def _assert_canonical(x):
    # checked apart from QRat.make, which shares ring._reduced with _peel
    if type(x) is QRat:
        assert _coeff_list(x.den)[-1] > 0 and x.den != 1
        assert _euclid_gcd(x.num, x.den) == 1


def test_grade_and_peel_match_qrat_make_random():
    # _graded scales mu_j to d·c^j·mu_j in Z or Z[q], and _peel divides
    # back to the very value and type of one reduction by QRat.make
    rng = random.Random(20261019)
    seen = {"fraction": 0, "qq": 0, "mixed": 0, "mu0": 0, "zero": 0}
    for _ in range(150):
        kind, mu = _field_list(rng)
        c, d, graded = ring._graded(mu)
        assert all(type(v) in (int, QPoly) for v in graded)
        for j, (v, g) in enumerate(zip(mu, graded)):
            want = _quotient(g, c, j, d, 1)
            assert want == v
            got = ring._peel(g, c, j, d, 1)
            assert type(got) is type(want) and got == want and render(got) == render(want)
            _assert_canonical(got)
        seen[kind] += 1
        seen["mu0"] += d != 1
        seen["zero"] += 0 in mu
    assert min(seen.values()) >= 20, seen


def test_peel_matches_qrat_make_random():
    # bases with a negative leading coefficient, numerators with a
    # negative one, and numerators that share some but not all of b^e
    rng = random.Random(20261020)
    flips = 0
    for _ in range(400):
        b = rng.choice(_FACTORS[:-1] + (6 * (1 + q) * (2 - q),)) * rng.choice((1, -1))
        e = rng.randrange(0, 5)
        x = rng.choice((0, rng.randrange(-9, 10), _random_zq(rng))) * b ** rng.randrange(0, 6)
        x = x * _random_den(rng)
        want = _quotient(x, b, e)
        got = ring._peel(x, b, e)
        assert type(got) is type(want) and got == want and render(got) == render(want), (x, b, e)
        _assert_canonical(got)
        flips += type(want) is QRat and _coeff_list(b**e)[-1] < 0
    assert flips >= 10
