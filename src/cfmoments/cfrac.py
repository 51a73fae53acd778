"""Continued-fraction coefficient sequences and the algorithms tying them
to moment sequences: conversion between the one-parameter and the
two-parameter form, moment expansion and its inverse, and Hankel
determinants read off the coefficients.  Fraction and Q(q) input is
cleared of its denominators, terms by their lcm D and moments by index
(mu_j -> c^j mu_j), so the moment sweep and the Hankel sweep run over Z
or Z[q]; moments are divided back by peeling one D at a time, and each
qd coefficient is one field division.

Conventions: the one-parameter form
1 / (1 - a1 x / (1 - a2 x / (1 - ...))) is indexed from a1; the
two-parameter form 1 / (1 - b0 x - l1 x^2 / (1 - b1 x - l2 x^2 / ...))
carries one more b than l.
"""

from __future__ import annotations

from .ring import _as_zq_pair, _check_scalars, _cleared, _graded, _in_zq, _peel, field_div
from .triangle import _hankel_pivots

__all__ = [
    "SFractionCoeffs",
    "JFractionCoeffs",
    "InsufficientCoefficients",
    "QDBreakdownError",
    "s_to_j",
    "moments_from_sfraction",
    "moments_from_jfraction",
    "qd_sfraction_from_moments",
    "hankel_from_sfraction",
    "two_power_chain_coeff",
]


class InsufficientCoefficients(ValueError):
    """A construction needs more coefficients than were supplied."""


class QDBreakdownError(ArithmeticError):
    """The moments have no one-parameter form up to coefficient ``depth``.

    ``depth`` is the 1-based index of the coefficient that does not
    exist: a_{2k+1} when the Hankel determinant h_k is zero, a_{2k} when
    a_{2k-1} is zero.
    """

    def __init__(self, depth: int):
        cause = f"Hankel determinant h_{depth // 2}" if depth % 2 else f"a_{depth - 1}"
        super().__init__(f"no coefficient {depth}: {cause} is 0")
        self.depth = depth


class SFractionCoeffs:
    """Coefficients a1, a2, ... of the one-parameter form, stored with
    a1 at index 0 of ``terms``."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        ts = tuple(terms)
        _check_scalars(ts, "fraction coefficient")
        self.terms = ts

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        if isinstance(other, SFractionCoeffs):
            return self.terms == other.terms
        return NotImplemented

    def __repr__(self):
        return f"SFractionCoeffs({list(self.terms)!r})"


class JFractionCoeffs:
    """Coefficients b0, b1, ... and l1, l2, ... of the two-parameter
    form; always one more b than l."""

    __slots__ = ("b", "lam")

    def __init__(self, b, lam):
        bs, ls = tuple(b), tuple(lam)
        _check_scalars(bs + ls, "fraction coefficient")
        if len(bs) != len(ls) + 1:
            raise ValueError(
                f"need exactly one more b than l, got {len(bs)} and {len(ls)}"
            )
        self.b = bs
        self.lam = ls

    def __eq__(self, other):
        if isinstance(other, JFractionCoeffs):
            return self.b == other.b and self.lam == other.lam
        return NotImplemented

    def __repr__(self):
        return f"JFractionCoeffs({list(self.b)!r}, {list(self.lam)!r})"


def s_to_j(s: SFractionCoeffs) -> JFractionCoeffs:
    """Two-parameter coefficients of the same series: b0 = a1,
    b_n = a_{2n} + a_{2n+1}, l_n = a_{2n-1} a_{2n}.

    With an even number of a-terms the last l has no matching b and is
    dropped to keep the one-more-b invariant.
    """
    m = len(s.terms)
    if m < 1:
        raise InsufficientCoefficients("need at least a1")
    a = s.terms
    nb = (m + 1) // 2
    b = [a[0]]
    for n in range(1, nb):
        b.append(a[2 * n - 1] + a[2 * n])
    lam = [a[2 * n - 2] * a[2 * n - 1] for n in range(1, nb)]
    return JFractionCoeffs(b, lam)


def moments_from_sfraction(s: SFractionCoeffs, count: int):
    """First ``count`` series coefficients of the one-parameter form.

    mu_m is the total weight of the Dyck paths of length 2m in which an
    up step weighs 1 and a down step from height h weighs a_h (Flajolet
    1980).  One sweep over the 2(count - 1) steps keeps, per height, the
    weight of the paths that end there: O(count^2) ring operations, and
    no division over Z and Z[q].  Field terms are cleared first: mu_k is
    homogeneous of degree k in the a_i, so the sweep runs on b_i = D a_i
    (``ring._cleared``) and mu_k is divided back by D^k one D at a time
    (``ring._peel``), each gcd against the small D.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if len(s.terms) < count - 1:
        raise InsufficientCoefficients(
            f"need {count - 1} coefficients for {count} moments, got {len(s.terms)}"
        )
    a = s.terms[: count - 1]
    field = not _in_zq(a)
    if field:
        D, a = _cleared(a)
    mu = _dyck_sweep(a, count)
    if field:
        return mu[:1] + [_peel(mu[k], D, k) for k in range(1, count)]
    return mu


def _dyck_sweep(a, count):
    """mu_0 .. mu_{count-1} of the int or QPoly terms a, at least count - 1
    of them: the sweep of ``moments_from_sfraction``."""
    steps = 2 * (count - 1)
    # w[h]: weight of the paths of the current length ending at height h.
    # A step only writes heights of its own parity and reads the other
    # parity, so one list is updated in place.
    w = [1] + [0] * count
    mu = [1]
    for t in range(1, steps + 1):
        reach = min(t - 1, steps - t + 1)  # highest height after step t - 1
        for h in range(t % 2, min(t, steps - t) + 1, 2):
            if h < reach:
                down = a[h] * w[h + 1]
                w[h] = w[h - 1] + down if h else down
            else:
                w[h] = w[h - 1]
        if t % 2 == 0:
            mu.append(w[0])
    return mu


def moments_from_jfraction(j: JFractionCoeffs, count: int):
    """First ``count`` series coefficients of the two-parameter form.

    mu_m is the total weight of the Motzkin paths of length m in which
    an up step weighs 1, a level step at height h weighs b_h and a down
    step from height h + 1 weighs l_{h+1}.  Paths that must come back to
    0 within count - 1 steps never rise above (count - 1) // 2, so only
    that many levels are needed; the cost is O(count^2).
    """
    if count < 1:
        raise ValueError("count must be positive")
    levels = (count - 1) // 2 + 1
    if len(j.b) < levels:
        raise InsufficientCoefficients(
            f"need {levels} b-coefficients for {count} moments, got {len(j.b)}"
        )
    b, lam = j.b, j.lam
    w = [1]  # w[h]: weight of the paths of the current length ending at height h
    mu = [1]
    for t in range(1, count):
        nxt = []
        for h in range(min(t, count - 1 - t) + 1):
            acc = w[h - 1] if h else 0
            if h < len(w):
                acc = acc + b[h] * w[h]
            if h + 1 < len(w):
                acc = acc + lam[h] * w[h + 1]
            nxt.append(acc)
        w = nxt
        mu.append(w[0])
    return mu


def qd_sfraction_from_moments(mu) -> SFractionCoeffs:
    """Recover a1 .. a_m from moments mu_0 .. mu_m (mu_0 = 1) by Chebyshev's
    algorithm (Chebyshev 1859; Gautschi 1982) on the sweep of
    ``hankel_transform``: b_0 + ... + b_k = nu_k / h_k, nu_k = nu_{k,k+1},
    and l_k = h_k h_{k-2} / h_{k-1}^2, then ``s_to_j`` inverted.  Field
    moments are graded first, mu_j -> c^j mu_j (``ring._graded``), which
    makes them ring values whose a_i are c a_i, so each a_i is one field
    division of ring values with the c folded into its divisor.

    Raises QDBreakdownError exactly where no one-parameter form exists:
    at a_{2k+1} when h_k = 0, at a_{2k} when a_{2k-1} = 0.  A zero a_m at
    the end is returned: 1, 1, 1 gives a = 1, 0.
    """
    mu = list(mu)
    _check_scalars(mu, "moment coefficient")
    if not mu:
        raise ValueError("empty moment list")
    if mu[0] != 1:
        raise ValueError("moment 0 must be 1")
    c = 1
    if not _in_zq(mu):
        c, _, mu = _graded(mu)
    h, nu = _hankel_pivots(mu)
    # h[k + 1] = h_k, nu[k + 1] = nu_k; h_{-1} = 1, nu_{-1} = 0 and a_0 = 0
    # make the odd formula give a_1 = nu_0 / h_0
    h, nu = [1, *h], [0, *nu]
    out, n, d = [], 0, 1
    for i in range(1, len(mu)):
        k = i // 2
        if (h[k + 1] if i % 2 else n) == 0:
            raise QDBreakdownError(i)
        # the sweep's b_k and l_k are those of the graded moments, c b_k
        # and c^2 l_k
        if i % 2:  # a_{2k+1} = b_k - a_{2k}, a_{2k} = n/d
            hh = h[k + 1] * h[k]
            a = field_div((nu[k + 1] * h[k] - nu[k] * h[k + 1]) * d - c * n * hh, c * hh * d)
        else:  # a_{2k} = l_k / a_{2k-1}, a_{2k-1} = n/d
            a = field_div(h[k + 1] * h[k - 1] * d, c * c * h[k] * h[k] * n)
        out.append(a)
        n, d = _as_zq_pair(a)
    return SFractionCoeffs(out)


def hankel_from_sfraction(s: SFractionCoeffs, count: int):
    """Hankel determinants h_0 .. h_{count-1} of the moment sequence,
    as products of the coefficients: h_n is the product over k < n of
    (a_{2k+1} a_{2k+2})^(n-k) (Flajolet 1980).  Kept as running products,
    h_{k+1} = h_k P_k with P_k = P_{k-1} a_{2k+1} a_{2k+2}."""
    if count < 1:
        raise ValueError("count must be positive")
    need = 2 * (count - 1)
    if len(s.terms) < need:
        raise InsufficientCoefficients(
            f"need {need} coefficients for {count} determinants, got {len(s.terms)}"
        )
    out, p = [1], 1
    for k in range(count - 1):
        p = p * (s.terms[2 * k] * s.terms[2 * k + 1])
        out.append(out[-1] * p)
    return out


def two_power_chain_coeff(n: int):
    """n-th coefficient (0-indexed) of the one-parameter expansion of
    the sequence 2^(m(m+3)/2): 2^(n+2) for even n, else
    2^(n+2) - 2^((n+3)/2)."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n % 2 == 0:
        return 2 ** (n + 2)
    return 2 ** (n + 2) - 2 ** ((n + 3) // 2)
