"""Lower-triangular matrices and almost-lower-Hessenberg production
matrices, with the operations the moment constructions are built from:
generation from a production matrix, beheading, inversion, recovery of
the production matrix, column rescaling and Hankel determinants.  The
Hankel determinants come from the fraction-free three-term recurrence
in O(n^2) ring operations, with Bareiss elimination only when a leading
minor vanishes.

Everything is exact; entries are ring scalars and all divisions either
stay in the ring or raise.  generate, invert and mul each build every
output row as one sum of scaled rows (``_row_sum``), whose entries equal
the index-by-index fold ``s = s + x*y``; over Z and Z[q] it skips zero
terms, over the fraction field it keeps them.  The Hankel sweep and
its Bareiss fallback take ints and QPolys only; hankel_transform grades
field moments into Z or Z[q] and divides each determinant back.  The
sweep runs on Python ints: Z[q] moments are packed at q -> 2^(32m)
(Kronecker substitution, in slots of m units of ``ring._ZQ_BITS`` = 32
bits), every quotient is checked from its slots of 32m bits, and the
sweep starts at the moments' own width and reruns with m doubled when a
check fails.
"""

from __future__ import annotations

import math

from .ring import (
    _ZQ_BITS,
    _ZQ_TYPES,
    ExactDivisionError,
    QPoly,
    _check_scalars,
    _graded,
    _peel,
    _zq_coeffs,
    _zq_pack,
    _zq_slots,
    _zq_unpack,
    _zq_width,
    exact_div,
    field_div,
)

__all__ = [
    "Triangle",
    "ProductionMatrix",
    "generate",
    "behead",
    "invert",
    "mul",
    "production_of",
    "rescale_columns",
    "hankel_det",
    "hankel_transform",
]


class _Rows:
    """Row store shared by both matrix shapes: row i holds
    i + 1 + _extra entries.  ``types`` is the set of the entries' types."""

    __slots__ = ("rows", "types")
    _extra = 0

    def __init__(self, rows):
        # Tuples are built from lists, never from generators: CPython
        # grows a tuple taken from a generator by resizing it, which moves
        # tuple objects from one per-size free list to another, so a long
        # run's memory creeps up until those lists fill (a few MB).
        rs = tuple([tuple(r) for r in rows])
        if not rs:
            raise ValueError(f"empty {type(self).__name__}")
        first = 1 + self._extra
        if [len(r) for r in rs] != list(range(first, first + len(rs))):
            # the first row that is too short, too long or not all scalars
            for i, r in enumerate(rs):
                if len(r) != i + first:
                    raise ValueError(f"row {i} must have {i + first} entries, got {len(r)}")
                _check_scalars(r, "matrix entry")
        self.types = _check_scalars([v for r in rs for v in r], "matrix entry")
        self.rows = rs

    @property
    def size(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        if type(other) is type(self):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"{type(self).__name__}({[list(r) for r in self.rows]!r})"


class Triangle(_Rows):
    """Lower-triangular matrix; row i stores entries for columns 0..i."""

    __slots__ = ()

    def entry(self, i, j):
        """Entry at (i, j); zero above the diagonal."""
        self._check_index(i)
        self._check_index(j)
        return self.rows[i][j] if j <= i else 0

    @property
    def unit_diagonal(self) -> bool:
        return all(r[i] == 1 for i, r in enumerate(self.rows))

    def column(self, k):
        """Column k padded to full height with structural zeros."""
        self._check_index(k)
        return tuple([r[k] if k <= i else 0 for i, r in enumerate(self.rows)])

    def _check_index(self, k):
        if not 0 <= k < self.size:
            raise IndexError(f"index {k} outside a triangle of size {self.size}")

    @staticmethod
    def identity(n) -> "Triangle":
        return Triangle([[0] * i + [1] for i in range(n)])


class ProductionMatrix(_Rows):
    """Almost-lower-Hessenberg matrix; row i stores columns 0..i+1."""

    __slots__ = ()
    _extra = 1


def generate(P: ProductionMatrix, n: int) -> Triangle:
    """Triangle whose row 0 is (1, 0, ...) and whose row r+1 is row r
    times P.  Needs at least n-1 production rows."""
    if n < 1:
        raise ValueError("need at least one row")
    if P.size < n - 1:
        raise ValueError(f"production matrix has {P.size} rows, need {n - 1}")
    times_P = _times(P)
    rows = [[1]]
    for r in range(n - 1):
        rows.append(times_P(rows[r]))
    return Triangle(rows)


def behead(T: Triangle) -> ProductionMatrix:
    """Drop the first row; beheading a lower triangle yields exactly the
    almost-Hessenberg shape."""
    if T.size < 2:
        raise ValueError("need at least two rows to behead")
    return ProductionMatrix(T.rows[1:])


def invert(T: Triangle) -> Triangle:
    """Inverse triangle by forward substitution.

    A unit diagonal keeps every entry in the ring of T; other nonzero
    diagonals lift to the fraction field.  A zero diagonal entry raises.
    """
    diag_inv = []
    for i, r in enumerate(T.rows):
        d = r[i]
        if d == 0:
            raise ZeroDivisionError(f"zero diagonal entry at row {i}")
        diag_inv.append(1 if d == 1 else (-1 if d == -1 else field_div(1, d)))
    keep = not T.types | set(map(type, diag_inv)) <= _ZQ_TYPES
    rows, terms = [], []
    for i, (t, d) in enumerate(zip(T.rows, diag_inv)):
        # -d·s, but a zero sum stays int 0 whatever the type of d
        sums = _row_sum(t, terms, i, keep)
        rows.append([0 if s == 0 else -(d * s) for s in sums])
        rows[-1].append(d)
        terms.append(_terms(rows[-1], keep))
    return Triangle(rows)


def mul(A: Triangle, B: Triangle) -> Triangle:
    """Matrix product of two triangles of the same size."""
    if A.size != B.size:
        raise ValueError("size mismatch")
    keep = not A.types | B.types <= _ZQ_TYPES
    terms = [_terms(r, keep) for r in B.rows]
    return Triangle([_row_sum(a, terms, len(a), keep) for a in A.rows])


def _times(P):
    """The row operator v -> v·P for v of at most P.size entries: v·P has
    one entry more than v."""
    keep = not P.types <= _ZQ_TYPES
    terms = [_terms(r, keep) for r in P.rows]
    return lambda v: _row_sum(v, terms, len(v) + 1, keep)


def _terms(row, keep):
    """The (column, entry) pairs of a row: all of them, or with ``keep``
    false only the nonzero ones."""
    return list(enumerate(row)) if keep else [(j, y) for j, y in enumerate(row) if y]


def _row_sum(xs, rows, width, keep):
    """Σ_t xs[t]·(row t), the rows given by ``_terms``, as ``width`` entries.
    Each entry equals in value and exact type the index-by-index fold
    ``s = s + x*y`` from 0, t ascending.  ``keep`` is set for entries
    outside Z[q]: over Z and Z[q] zero terms are skipped, so a banded P
    generates in O(n^2); over a field every term is kept, as a Fraction(0)
    would change an int sum's type."""
    acc = [0] * width
    for x, row in zip(xs, rows):
        if x or keep:
            for j, y in row:
                acc[j] = acc[j] + x * y
    return acc


def production_of(T: Triangle, top_inv=None) -> ProductionMatrix:
    """The unique production matrix that generates T.

    Equals the inverse of T without its last row, applied to T without
    its first row; returns size-1 production rows.  Computed as the
    product diag(1, that inverse) * T with its first row dropped.  A
    caller that already holds that inverse passes it as ``top_inv``.
    """
    if T.size < 2:
        raise ValueError("need at least two rows")
    if top_inv is None:
        top_inv = invert(Triangle(T.rows[:-1]))
    return behead(mul(Triangle([[1]] + [[0, *r] for r in top_inv.rows]), T))


def rescale_columns(T: Triangle, scale) -> Triangle:
    """Divide column k of T exactly by scale[k].  Non-divisibility raises
    ExactDivisionError."""
    if len(scale) < T.size:
        raise ValueError("need a scale factor for every column")
    _check_scalars(scale[: T.size], "scale factor")
    if 0 in scale[: T.size]:
        raise ValueError("zero scale factor")
    rows = [[exact_div(v, scale[j]) for j, v in enumerate(r)] for r in T.rows]
    return Triangle(rows)


def _bareiss_det(m):
    """Fraction-free determinant of a square matrix of ints and QPolys
    given as lists; every interior division is exact in Z or Z[q]."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = exact_div(m[k][k] * m[i][j] - m[i][k] * m[k][j], prev)
            m[i][k] = 0
        prev = m[k][k]
    v = m[n - 1][n - 1]
    return -v if sign < 0 else v


def _hankel_pivots(mu):
    """h_0, h_1, ... and nu_{0,1}, nu_{1,2}, ... of a list of ints and
    QPolys by the fraction-free three-term recurrence, stopping after the
    first h_k that is zero: the next step would divide by it.
    O(len(mu)^2) ring operations.

    The sweep runs on ints (``_int_sweep``): Z[q] moments are packed at
    q -> 2^(32m) and the pivots and nexts unpacked at the end.  It starts
    at the narrowest m that the moments' largest coefficient fits and,
    when a quotient fails its slot check, reruns with slots twice as wide.
    """
    if QPoly not in map(type, mu):
        return _int_sweep(mu, 0)
    m = _zq_width(max([abs(c) for v in mu for c in _zq_coeffs(v)]))
    while True:
        got = _int_sweep([_zq_pack(v, m) for v in mu], m)
        if got is not None:
            return tuple([_zq_unpack(v, m) for v in vs] for vs in got)
        if m >= _widest_slots(mu):
            raise ExactDivisionError("a step of the Hankel sweep is not exact in Z[q]")
        m *= 2


def _int_sweep(nu, m):
    """The sweep on ints.  nu[j] holds nu_{k,j} = det(rows 0..k-1 and j,
    cols 0..k) of (mu[r + c]), so nu[k] = h_k; prev is the same row for
    k - 1.  Each division is an inline divmod: every quotient is a minor,
    so a remainder means a step was not exact and raises
    ExactDivisionError.

    m = 0: nu are integer moments.  m >= 1: nu are the images of Z[q]
    moments under phi: q -> 2^(32m), a ring homomorphism, so an exact Z[q]
    quotient is an exact integer quotient.  A zero remainder is not proof
    by itself, so each quotient z of a numerator x by the pivot hp is
    checked from its slots: x's coefficients, bounded from its operands'
    norms and lengths, and those of hp·z, bounded by len(hp)·|hp|·|z|, all
    fit a slot.  Then hp·z and x are the same polynomial, as their images
    agree.  Returns None on a failed check.  A pivot c·q^s has the image
    c·2^(32ms), so a product with it is one multiplication by c and one
    shift, and a division by it checks that the low 32ms bits are zero,
    shifts them off and divides by c.
    """
    size = len(nu)
    prev, pivots, nexts = [0] * size, [], []
    hs = shift = low = 0
    hp = 1
    if m:
        w = _ZQ_BITS * m
        lim = 1 << (w - 1)

        def norm(x):
            """|x|_inf of the polynomial with image x."""
            return max(map(abs, _zq_slots(x, m)))

        def length(x):
            """At most one more than the length of the polynomial with image x."""
            return (x.bit_length() + 1) // w + 1

        nn, pn = [norm(v) for v in nu], [0] * size  # norms of nu and prev
        most = lim - 1  # the largest quotient norm that passes: hp = 1
    for k in range((size + 1) // 2):
        h = nu[k]
        pivots.append(h)
        if 2 * k + 1 < size:
            nexts.append(nu[k + 1])
        if h == 0 or 2 * k + 2 >= size:
            break
        nk1, pk = nu[k + 1], prev[k]
        hd = h
        if m:
            # h = hd << hs: h is the image of q^s·g with g(0) != 0, and
            # 0 < |g(0)| <= 2^(32m-1) ends in fewer than 32m zero bits, so
            # hs = 32m·s and hd is the image of g
            v = (h & -h).bit_length() - 1
            hs = v - v % w
            hd = h >> hs
            # |pk·y|, |h·y| and |nk1·y| are at most c1, c2 and c3 times |y|
            c1, c2, c3 = length(pk) * pn[k], length(h) * nn[k], length(nk1) * nn[k + 1]
            xn = [0] * size
        nxt = [0] * size
        for j in range(k + 1, size - 1 - k):
            # b = det(rows 0..k-2, k and j, cols 0..k)
            x = pk * nu[j] - (hd * prev[j] << hs)
            if shift:
                if x & low:
                    raise _inexact(k)
                x >>= shift
            b, r = divmod(x, hp)
            if r:
                raise _inexact(k)
            x = (hd * (nu[j + 1] + b) << hs) - nk1 * nu[j]
            if shift:
                if x & low:
                    raise _inexact(k)
                x >>= shift
            z, r = divmod(x, hp)
            if r:
                raise _inexact(k)
            if m:
                bn, zn = norm(b), norm(z)
                if (
                    bn > most
                    or zn > most
                    or c1 * nn[j] + c2 * pn[j] >= lim
                    or c2 * (nn[j + 1] + bn) + c3 * nn[j] >= lim
                ):
                    return None
                xn[j] = zn
            nxt[j] = z
        prev, nu, shift, hp = nu, nxt, hs, hd
        low = (1 << shift) - 1
        if m:
            pn, nn, most = nn, xn, (lim - 1) // c2
    return pivots, nexts


def _inexact(k):
    return ExactDivisionError(f"a step-{k} minor of the Hankel sweep is not divisible by h_{k - 1}")


def _widest_slots(mu):
    """A slot count m at which a sweep of Z[q] moments whose every step is
    exact passes all the slot checks, so that one failing there has a step
    that is not, and no wider rerun is needed.  Every value of the sweep
    is a minor of at most K rows, of moments of norm <= A and length <= L:
    it has norm <= K!·L^(K-1)·A^K and fewer than K·L + 1 coefficients, and
    every bound the checks compare is below 4·(K·L + 1) times its square."""
    k = (len(mu) + 1) // 2
    cs = [_zq_coeffs(v) for v in mu]
    a = max([1] + [max(map(abs, c)) for c in cs])
    length = max(map(len, cs))
    most = math.factorial(k) * length ** (k - 1) * a**k
    return _zq_width(4 * (k * length + 1) * most * most)


def hankel_det(mu, n: int):
    """Determinant of the (n+1) x (n+1) matrix with entry (i, j) equal to
    mu[i + j]: the last of ``hankel_transform(mu, n + 1)``."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    return hankel_transform(mu, n + 1)[n]


def hankel_transform(mu, count: int):
    """First ``count`` Hankel determinants of a moment list: one sweep of
    the fraction-free three-term recurrence, with Bareiss elimination only
    for the orders past a vanishing leading minor.  Field moments are
    graded first (``ring._graded``), mu_j -> d·c^j·mu_j: row i and column
    j of a minor take c^i and c^j, so h_k takes d^(k+1)·c^(k(k+1)) on both
    routes and is divided back by peeling (``ring._peel``)."""
    if count < 1:
        raise ValueError("count must be positive")
    need = 2 * count - 1
    if len(mu) < need:
        raise ValueError(f"need {need} moments, got {len(mu)}")
    mu = mu[:need]
    field = not _check_scalars(mu, "matrix entry") <= _ZQ_TYPES
    if field:
        c, d, mu = _graded(mu)
    dets = _hankel_pivots(mu)[0]
    for n in range(len(dets), count):
        dets.append(_bareiss_det([[mu[i + j] for j in range(n + 1)] for i in range(n + 1)]))
    if field:
        return [_peel(v, c, k * (k + 1), d, k + 1) for k, v in enumerate(dets)]
    return dets
