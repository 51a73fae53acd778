"""Exact scalar arithmetic: integers, rationals, integer polynomials in q,
and quotients of such polynomials.

A scalar's type is exactly ``int``, ``fractions.Fraction``, ``QPoly`` or
``QRat``; bool and other subclasses are not scalars.  Constant
polynomials demote to int, and quotients reduce and demote when the
denominator cancels.  A ``Fraction`` never demotes: ``field_div(4, 2)``
is ``Fraction(2, 1)``, which renders as ``2`` and parses back as int 2.
No floating point is accepted anywhere.

Each type is built one way.  A QPoly comes from ``QPoly.make``, which
checks that every coefficient is a plain int, from ``q`` or from the
arithmetic, which closes each result with the trusted ``_from_ints``; a
QRat from ``QRat.make`` or from the arithmetic, whose coprime results go
to the trusted ``_reduced``.  Neither class has a constructor.

Z[q] products are linear in the other operand when one operand is a
monomial c·q^m.  A factor 1 or 0 returns at once, a monomial factor
scales and shifts the other one, and any other product is schoolbook.
Exact division returns at once for a divisor 1 and otherwise
long-divides, which for a constant is one divmod per coefficient.

The Z[q] Hankel sweep and the Z[q] constructions of ``compare`` run on
integers (Kronecker substitution): ``_zq_pack`` maps a value to its
image under q -> 2^(32m), one coefficient per slot of m units of
``_ZQ_BITS`` = 32 bits, each slot written through ``int.to_bytes``, and
``_zq_slots`` and ``_zq_unpack`` read the coefficients back through
``array('i')`` at m = 1, ``array('q')`` at m = 2 and ``int.from_bytes``
beyond.  All three are linear in the number of coefficients.

Field values reach those integer loops cleared of their denominators:
terms by their lcm (``_cleared``), moment lists by index
(``_graded``: mu_j -> d·c^j·mu_j).  Each result comes back through
``_peel``, which divides by c^e one c at a time, so that every gcd has
the small c as one operand and no final gcd is needed.
"""

from __future__ import annotations

import math
import re
import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from operator import add

__all__ = [
    "ExactDivisionError",
    "ScalarParseError",
    "DigitLimitError",
    "QPoly",
    "QRat",
    "q",
    "is_scalar",
    "exact_div",
    "field_div",
    "eval_q",
    "render",
    "parse_scalar",
]


class ExactDivisionError(ArithmeticError):
    """exact_div was asked for a quotient that does not exist in the ring."""


class ScalarParseError(ValueError):
    """Text is not a valid scalar; ``offset`` points at the offending byte."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"offset {offset}: {message}")
        self.reason = message
        self.offset = offset


class DigitLimitError(ValueError):
    """An integer has more decimal digits than the interpreter converts
    to text (``sys.get_int_max_str_digits``)."""


def _strip(coeffs):
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


# x - y and y - x for a QPoly or QRat x: both classes subtract by negation
def _sub(x, y):
    if type(y) in _SCALAR_TYPES:
        return x + (-y)
    return NotImplemented


def _rsub(x, y):
    if type(y) in _SCALAR_TYPES:
        return (-x) + y
    return NotImplemented


class QPoly:
    """Polynomial in q with int coefficients, stored lowest degree first.

    Degree >= 1 with no trailing zero; constants demote to int.  Every
    value comes from ``QPoly.make``, ``q`` or the arithmetic.
    """

    __slots__ = ("coeffs",)

    @staticmethod
    def make(coeffs):
        """Canonical int-or-QPoly from a coefficient sequence of plain ints."""
        cs = list(coeffs)
        if any(type(c) is not int for c in cs):
            raise TypeError("coefficients must be plain ints")
        return QPoly._from_ints(cs)

    @staticmethod
    def _from_ints(cs):
        """``make`` for a list of ints built by this module's own arithmetic.

        Trusted: skips the coefficient type check and strips ``cs`` in place.
        """
        while cs and cs[-1] == 0:
            cs.pop()
        if len(cs) < 2:
            return cs[0] if cs else 0
        p = object.__new__(QPoly)
        p.coeffs = tuple(cs)
        return p

    def __add__(self, other):
        t = type(other)
        if t is int:
            cs = list(self.coeffs)
            cs[0] += other
            return QPoly._from_ints(cs)
        if t is QPoly:
            a, b = self.coeffs, other.coeffs
            if len(a) < len(b):
                a, b = b, a
            cs = list(map(add, a, b))
            cs += a[len(b) :]
            return QPoly._from_ints(cs)
        if t is Fraction:
            return QRat.make(self * other.denominator + other.numerator, other.denominator)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QPoly._from_ints([-c for c in self.coeffs])

    __sub__ = _sub
    __rsub__ = _rsub

    def __mul__(self, other):
        t = type(other)
        if t is int:
            if other == 1:
                return self
            if other == 0:
                return 0
            return QPoly._from_ints([c * other for c in self.coeffs])
        if t is QPoly:
            a, b = self.coeffs, other.coeffs
            # c·q^m times p is p's coefficients scaled by c and shifted by m
            if not any(b[:-1]):
                a, b = b, a
            if not any(a[:-1]):
                c = a[-1]
                return QPoly._from_ints([0] * (len(a) - 1) + [c * v for v in b])
            out = [0] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                if ca:
                    for j, cb in enumerate(b):
                        out[i + j] += ca * cb
            return QPoly._from_ints(out)
        if t is Fraction:
            return QRat.make(self * other.numerator, other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n):
        if type(n) is not int or n < 0:
            raise ValueError("exponent must be a nonnegative int")
        r = 1
        for bit in f"{n:b}":
            r = r * r
            if bit == "1":
                r = r * self
        return r

    def __eq__(self, other):
        t = type(other)
        if t is QPoly:
            return self.coeffs == other.coeffs
        if t is int or t is Fraction:
            return False
        return NotImplemented

    def __hash__(self):
        return hash(("QPoly",) + self.coeffs)

    def __str__(self):
        return _poly_text(self.coeffs)

    def __repr__(self):
        return f"QPoly({str(self)!r})"


q = QPoly.make((0, 1))


def _zq_coeffs(x):
    return (x,) if type(x) is int else x.coeffs


def _prem(a, b):
    """Pseudo-remainder of a by b over the integers (coefficient lists).

    Each step replaces a by lc(b)·a − lc(a)·q^k·b, which cancels the top
    coefficient; the result is an integer multiple of the remainder over
    the rationals.
    """
    db, lb = len(b) - 1, b[-1]
    while len(a) > db:
        la, k = a[-1], len(a) - 1 - db
        a = [lb * c for c in a[:-1]]
        for j in range(db):
            a[k + j] -= la * b[j]
        while a and a[-1] == 0:
            a.pop()
    return a


def _zq_gcd(x, y):
    """gcd in the polynomial ring, normalized to positive leading coefficient.

    Primitive polynomial remainder sequence: the contents are split off
    and each pseudo-remainder is divided by its content, so every step
    stays in the integers (Collins 1967; Brown 1971).
    """
    xs, ys = _strip(_zq_coeffs(x)), _strip(_zq_coeffs(y))
    if not xs and not ys:
        raise ZeroDivisionError("gcd(0, 0)")
    if not xs or not ys:
        zs = xs or ys
        if zs[-1] < 0:
            zs = [-c for c in zs]
        return QPoly._from_ints(zs)
    cx, cy = math.gcd(*xs), math.gcd(*ys)
    cg = math.gcd(cx, cy)
    if len(xs) == 1 or len(ys) == 1:
        return cg
    a = [c // cx for c in xs]
    b = [c // cy for c in ys]
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = _prem(a, b)
        if not r:
            break
        if len(r) == 1:
            return cg
        cr = math.gcd(*r)
        a, b = b, [c // cr for c in r]
    if b[-1] < 0:
        cg = -cg
    return QPoly._from_ints([c * cg for c in b])


def _zq_exact_div(x, y):
    """Exact division in the polynomial ring.  A divisor 1 returns x,
    and any other long-divides from the top.  Whatever is left is a
    remainder, and then it raises."""
    xs = _strip(_zq_coeffs(x))
    ys = _strip(_zq_coeffs(y))
    if ys == [1]:
        return x
    dy, rem = len(ys) - 1, 0
    out = [0] * max(len(xs) - dy, 0)
    for k in range(len(out) - 1, -1, -1):
        quot, rem = divmod(xs[k + dy], ys[-1])
        if rem:
            break
        out[k] = quot
        # the top coefficient cancels exactly; only the dy below it change
        for j in range(dy):
            xs[k + j] -= quot * ys[j]
    if rem or any(xs[:dy]):
        raise ExactDivisionError(f"{render(x)} not divisible by {render(y)}")
    return QPoly._from_ints(out)


def _as_zq_pair(x):
    t = type(x)
    if t is int or t is QPoly:
        return (x, 1)
    if t is Fraction:
        return (x.numerator, x.denominator)
    if t is QRat:
        return (x.num, x.den)
    return None


def _cleared(values):
    """(D, [D·v for v in values]) with D the lcm in Z or Z[q] of the
    values' denominators, so that every D·v is an int or a QPoly.  The lcm
    step and the cofactor D/den run once per distinct denominator."""
    pairs = [_as_zq_pair(v) for v in values]
    dens = dict.fromkeys([den for _, den in pairs])
    D = 1
    for den in dens:
        D = _zq_exact_div(D * den, _zq_gcd(D, den))
    for den in dens:
        dens[den] = _zq_exact_div(D, den)
    return D, [num * dens[den] for num, den in pairs]


def _graded(values):
    """(c, d, [d·c^j·v_j]) for scalars v_0, v_1, ..., every d·c^j·v_j an
    int or a QPoly: d is the denominator of v_0, and c is chosen in one
    pass, c <- c·den_j / gcd(den_j, c^j) for j >= 1, so that every den_j
    divides c^j.  The moments of an S-fraction whose terms have the common
    denominator D have den_j dividing D^j (mu_j is homogeneous of degree j
    in the a_i), so mu_j is scaled by about D^j, not by the lcm of all the
    moments' denominators."""
    pairs = [_as_zq_pair(v) for v in values]
    c = 1
    for j, (_, den) in enumerate(pairs[1:], 1):
        if den != 1:
            c = c * _zq_exact_div(den, _zq_gcd(den, c**j))
    d = pairs[0][1]
    out, scale = [], d
    for num, den in pairs:
        out.append(num * _zq_exact_div(scale, den))
        scale = scale * c
    return c, d, out


def _peel(x, c, e, d=1, f=0):
    """x / (c^e·d^f) for Z or Z[q] values x, c != 0 and d != 0: equal in
    value and exact type to ``QRat.make(x, c^e·d^f)``, or, when x, c and d
    are ints, to ``field_div`` of them, a ``Fraction``.

    Each power comes off one base at a time: g = gcd(x, c), x <- x/g, and
    the denominator takes c/g, until g = 1, when it takes the rest of c^e
    whole; then the same for d^f.  Every gcd has a small base as one
    operand.  The result needs no final gcd: for each prime power
    p^a ‖ c, either every step took a factor p^a off x and the
    denominator gained no p, or a step left x free of p.  Int operands go
    to ``field_div`` whole."""
    if type(x) is int and type(c) is int and type(d) is int:
        return field_div(x, c**e * d**f)
    if x == 0:
        return 0
    den = 1
    for b, k in ((c, e), (d, f)):
        while k:
            g = _zq_gcd(x, b)
            if g == 1:
                break
            x = _zq_exact_div(x, g)
            den = den * _zq_exact_div(b, g)
            k -= 1
        den = den * b**k
    return _reduced(x, den)


def _reduced(n, d):
    """n/d for coprime Z or Z[q] values n and d != 0, in the simplest type:
    the denominator's leading coefficient is made positive, d = 1 gives n,
    two ints a Fraction, anything else a QRat."""
    if _zq_coeffs(d)[-1] < 0:
        n, d = -n, -d
    if d == 1:
        return n
    if type(n) is int and type(d) is int:
        return Fraction(n, d)
    r = object.__new__(QRat)
    r.num = n
    r.den = d
    return r


class QRat:
    """Reduced quotient of integer polynomials in q.

    Invariants: nonzero denominator with positive leading coefficient,
    gcd(num, den) = 1, and the value does not fit a simpler type (those
    demote through ``QRat.make``).  Every value comes from ``QRat.make``
    or the arithmetic; the class has no constructor of its own.
    """

    __slots__ = ("num", "den")

    @staticmethod
    def make(num, den=1):
        """Exact quotient of two scalars, demoted to the simplest type."""
        p1 = _as_zq_pair(num)
        p2 = _as_zq_pair(den)
        if p1 is None or p2 is None:
            raise TypeError(f"not a scalar: {num!r} / {den!r}")
        n = p1[0] * p2[1]
        d = p1[1] * p2[0]
        if d == 0:
            raise ZeroDivisionError("zero denominator")
        if n == 0:
            return 0
        g = _zq_gcd(n, d)
        if g != 1:
            n = _zq_exact_div(n, g)
            d = _zq_exact_div(d, g)
        return _reduced(n, d)

    def __add__(self, other):
        p = _as_zq_pair(other)
        if p is None:
            return NotImplemented
        return QRat.make(self.num * p[1] + p[0] * self.den, self.den * p[1])

    __radd__ = __add__

    def __neg__(self):
        return _reduced(-self.num, self.den)

    __sub__ = _sub
    __rsub__ = _rsub

    def __mul__(self, other):
        p = _as_zq_pair(other)
        if p is None:
            return NotImplemented
        return QRat.make(self.num * p[0], self.den * p[1])

    __rmul__ = __mul__

    def __pow__(self, n):
        if type(n) is not int:
            raise ValueError("exponent must be an int")
        # powers of the coprime num and den are coprime, so no gcd is needed
        num, den = (self.num**n, self.den**n) if n >= 0 else (self.den**-n, self.num**-n)
        return _reduced(num, den)

    def __eq__(self, other):
        p = _as_zq_pair(other)
        if p is None:
            return NotImplemented
        return self.num * p[1] == p[0] * self.den

    def __hash__(self):
        return hash(("QRat", _zq_coeffs(self.num), _zq_coeffs(self.den)))

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"QRat({render(self)!r})"


_SCALAR_TYPES = frozenset((int, Fraction, QPoly, QRat))


def is_scalar(x) -> bool:
    """True when type(x) is exactly one of the four scalar types."""
    return type(x) in _SCALAR_TYPES


_ZQ_TYPES = frozenset((int, QPoly))


def _in_zq(values) -> bool:
    """True when every value is an int or a QPoly.  Then exact_div divides
    in Z or Z[q]; with a Fraction or QRat among them, two Z[q] values may
    have a quotient with rational coefficients, and only field_div finds it."""
    return all(type(v) in _ZQ_TYPES for v in values)


def _check_scalars(values, what):
    """The set of the values' types; TypeError names the first value that
    is not a ring scalar."""
    types = set(map(type, values))
    if not types <= _SCALAR_TYPES:
        for v in values:
            if type(v) not in _SCALAR_TYPES:
                raise TypeError(f"{what} is not a ring scalar: {v!r}")
    return types


# The slot unit: a packed value holds one coefficient per slot of m units
# of _ZQ_BITS bits, its image under q -> 2^(_ZQ_BITS·m)
_ZQ_BITS = 32
# array typecodes by the slot count m whose slots their items fill
_ZQ_ARRAY_CODES = {8 * array(c).itemsize // _ZQ_BITS: c for c in "iq"}
# arrays hold their items in native byte order; the packed integers are
# read and written little-endian
_BIG_ENDIAN = sys.byteorder == "big"


def _zq_width(x):
    """The fewest slot units m with 0 <= x < 2^(32m-1): a slot of 32m bits
    holds every coefficient of magnitude at most x."""
    return x.bit_length() // _ZQ_BITS + 1


@lru_cache(maxsize=256)
def _zq_bias(n, m):
    """The integer whose n slots of 32m bits each hold 2^(32m-1)."""
    w = _ZQ_BITS * m
    return int.from_bytes((1 << (w - 1)).to_bytes(w // 8, "little") * n, "little")


def _zq_pack(x, m):
    """Image of an int or QPoly under q -> 2^(32m), for coefficients that
    fit a slot of 32m bits, -2^(32m-1) <= c < 2^(32m-1); OverflowError
    otherwise.  ``int.to_bytes`` writes the coefficients in two's
    complement, one per slot, and the slots are read as one integer y.
    Flipping every slot's top bit (XOR with the bias B) biases each c to
    c + 2^(32m-1) >= 0, and subtracting B takes the bias off all slots at
    once."""
    if type(x) is int:
        if x.bit_length() >= _ZQ_BITS * m and x != -1 << (_ZQ_BITS * m - 1):
            raise OverflowError("coefficient does not fit a slot")
        return x
    cs = x.coeffs
    w = _ZQ_BITS // 8 * m
    raw = b"".join([c.to_bytes(w, "little", signed=True) for c in cs])
    bias = _zq_bias(len(cs), m)
    return (int.from_bytes(raw, "little") ^ bias) - bias


def _zq_slots(x, m):
    """The coefficients c_i, lowest first, of the one expansion
    x = Σ c_i·2^(32m·i) with every c_i in [-2^(32m-1), 2^(32m-1)): the
    steps of ``_zq_pack`` backwards.  The last may be a zero.  For m = 1
    and m = 2 an ``array`` filled from the bytes in C."""
    n = (x.bit_length() + 1) // (_ZQ_BITS * m) + 1
    w = _ZQ_BITS // 8 * m
    bias = _zq_bias(n, m)
    raw = ((x + bias) ^ bias).to_bytes(w * n, "little")
    code = _ZQ_ARRAY_CODES.get(m)
    if code:
        slots = array(code)
        slots.frombytes(raw)
        if _BIG_ENDIAN:
            slots.byteswap()
        return slots
    return [int.from_bytes(raw[i : i + w], "little", signed=True) for i in range(0, len(raw), w)]


def _zq_unpack(x, m):
    """The int or QPoly whose image under q -> 2^(32m) is x, among those
    whose coefficients all fit a slot (there is exactly one)."""
    if x.bit_length() < _ZQ_BITS * m:
        return x
    return QPoly._from_ints(list(_zq_slots(x, m)))


def _require_scalar(x):
    if not is_scalar(x):
        raise TypeError(f"incompatible ring value: {x!r}")


def field_div(x, y):
    """x / y in the smallest field containing the operands."""
    _require_scalar(x)
    _require_scalar(y)
    if type(x) in (int, Fraction) and type(y) in (int, Fraction):
        if y == 0:
            raise ZeroDivisionError("division by zero")
        return Fraction(x, y)
    return QRat.make(x, y)


def exact_div(x, y):
    """x / y when the quotient exists in the operands' ring.

    Integer and polynomial operands never leave their ring: a pair that
    does not divide raises ExactDivisionError instead of producing a
    fraction.  Field operands (Fraction, QRat) divide freely.
    """
    if type(x) is int and type(y) is int:
        if not y:
            raise ZeroDivisionError("exact_div by zero")
        quot, rem = divmod(x, y)
        if rem:
            raise ExactDivisionError(f"{x} not divisible by {y}")
        return quot
    _require_scalar(x)
    _require_scalar(y)
    if y == 0:
        raise ZeroDivisionError("exact_div by zero")
    if type(x) in (Fraction, QRat) or type(y) in (Fraction, QRat):
        return field_div(x, y)
    return _zq_exact_div(x, y)


def eval_q(p, v):
    """Value of a scalar at q = v, for a plain int v.

    Constants pass through unchanged.  A quotient whose denominator
    vanishes at v raises ZeroDivisionError.
    """
    if type(v) is not int:
        raise TypeError("evaluation point must be a plain int")
    _require_scalar(p)
    if type(p) in (int, Fraction):
        return p
    if type(p) is QPoly:
        acc = 0
        for c in reversed(p.coeffs):
            acc = acc * v + c
        return acc
    nv = eval_q(p.num, v)
    dv = eval_q(p.den, v)
    if dv == 0:
        raise ZeroDivisionError(f"denominator vanishes at q={v}")
    f = Fraction(nv, dv)
    return f.numerator if f.denominator == 1 else f


def _poly_text(cs):
    parts = []
    for k, c in enumerate(cs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            pw = "q" if k == 1 else f"q^{k}"
            body = pw if mag == 1 else f"{mag}*{pw}"
        parts.append((c < 0, body))
    neg, body = parts[0]
    out = ("-" if neg else "") + body
    for neg, body in parts[1:]:
        out += (" - " if neg else " + ") + body
    return out


def _side_text(z, is_den=False):
    s = str(z) if type(z) is int else _poly_text(z.coeffs)
    # a '*' in the denominator would rebind under left association
    if " " in s or (is_den and "*" in s):
        return f"({s})"
    return s


def render(x) -> str:
    """Canonical text form: base-10 ints, p/r rationals, ascending
    polynomials like '1 + 2*q + q^2', quotients with parentheses around
    multi-term sides."""
    _require_scalar(x)
    try:
        if type(x) in (int, Fraction):
            return str(x)
        if type(x) is QPoly:
            return _poly_text(x.coeffs)
        return f"{_side_text(x.num)}/{_side_text(x.den, is_den=True)}"
    except ValueError:  # only int-to-text conversion raises it here
        raise DigitLimitError(
            "an integer in the result has more than "
            f"{sys.get_int_max_str_digits()} digits, the limit for printing it"
        ) from None


# a run of ASCII digits, or any one character that is not a blank
_TOKEN = re.compile(r"[0-9]+|[^ \t]")


def _tokenize(text, var):
    toks = []
    for match in _TOKEN.finditer(text):
        s, i = match[0], match.start()
        if "0" <= s[0] <= "9":
            try:
                toks.append(("int", int(s), i))
            except ValueError:  # more digits than the interpreter converts
                raise ScalarParseError(
                    f"integer literal longer than {sys.get_int_max_str_digits()} digits", i
                ) from None
        elif s == var:
            toks.append(("var", var, i))
        elif s in "+-*/^()":
            toks.append((s, s, i))
        else:
            raise ScalarParseError(f"unexpected character {s!r}", i)
    toks.append(("end", "", len(text)))
    return toks


# Each parenthesis level costs the recursive descent four frames, so this
# stays far below the interpreter's default recursion limit of 1000.
_MAX_NESTING = 100

# A power is refused before it is computed when its q-degree or the bit
# length of its coefficients could exceed these.  The largest power in
# the reference outputs is q^22.
_MAX_POWER_DEGREE = 1000
_MAX_POWER_BITS = 100_000


def _power_too_big(v, e):
    """True when v**e could pass either power limit.

    Bounds from the base alone: each side of v is an integer polynomial p,
    deg(p^e) = e·deg(p), and every coefficient of p^e is at most
    (Σ|coefficients of p|)^e in absolute value.
    """
    for z in _as_zq_pair(v):
        cs = _zq_coeffs(z)
        if (len(cs) - 1) * e > _MAX_POWER_DEGREE:
            return True
        if max(sum(map(abs, cs)) - 1, 0).bit_length() * e > _MAX_POWER_BITS:
            return True
    return False


def parse_scalar(text: str, var: str = "q"):
    """Parse a canonical rendering back to a scalar.

    Accepts sums of terms with optional leading minus, integer
    coefficients and exponents, parenthesized groups (at most
    ``_MAX_NESTING`` deep), and quotients.  round-trips with ``render``.
    A power that could pass ``_MAX_POWER_DEGREE`` or ``_MAX_POWER_BITS``
    is refused at its ``^``.  Errors carry the byte offset.
    """
    toks = _tokenize(text, var)
    pos = depth = 0

    def take(kind=None):
        """The next token; ScalarParseError where it is not of ``kind``."""
        nonlocal pos
        t = toks[pos]
        if kind and t[0] != kind:
            raise ScalarParseError(f"expected {kind!r}", t[2])
        pos += 1
        return t

    def atom():
        nonlocal depth
        t = take()
        if t[0] == "int":
            return t[1]
        if t[0] == "var":
            return q
        if t[0] == "(":
            if depth == _MAX_NESTING:
                raise ScalarParseError(f"parentheses nested deeper than {_MAX_NESTING}", t[2])
            depth += 1
            v = sumexpr()
            take(")")
            depth -= 1
            return v
        raise ScalarParseError("expected a value", t[2])

    def factor():
        neg = False
        while toks[pos][0] == "-":
            take()
            neg = not neg
        v = atom()
        if toks[pos][0] == "^":
            op = take()
            e = take("int")[1]
            if _power_too_big(v, e):
                raise ScalarParseError(
                    f"power above the size limit (degree {_MAX_POWER_DEGREE}, "
                    f"{_MAX_POWER_BITS} coefficient bits)",
                    op[2],
                )
            v = v**e
        return -v if neg else v

    def term():
        v = factor()
        while toks[pos][0] in ("*", "/"):
            op = take()
            w = factor()
            if op[0] == "*":
                v = v * w
            else:
                try:
                    v = field_div(v, w)
                except ZeroDivisionError:
                    raise ScalarParseError("division by zero", op[2]) from None
        return v

    def sumexpr():
        v = term()
        while toks[pos][0] in ("+", "-"):
            op = take()[0]
            w = term()
            v = v + w if op == "+" else v - w
        return v

    v = sumexpr()
    t = toks[pos]
    if t[0] != "end":
        raise ScalarParseError("unexpected trailing input", t[2])
    return v
