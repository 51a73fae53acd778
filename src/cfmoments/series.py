"""Truncated power series and Riordan arrays.

A TruncatedSeries holds coefficients up to a fixed order; operations
truncate to the shorter operand.  A RiordanPair (g, f) with g(0)
invertible, f(0) = 0, f'(0) invertible describes a lower-triangular
array whose column k holds the coefficients of g * f^k.  A pair's group
inverse is the matrix inverse of its array, so ``riordan_inverse`` reads
it off ``triangle.invert``.
"""

from __future__ import annotations

from .ring import _check_scalars, field_div
from .triangle import Triangle, invert

__all__ = [
    "TruncatedSeries",
    "RiordanPair",
    "series_from_rational",
    "series_mul",
    "catalan_series",
    "riordan_matrix",
    "riordan_inverse",
    "interleave_columns",
    "schroder_column",
]


class TruncatedSeries:
    """Power series known through x^(order-1)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order=None):
        cs = list(coeffs)
        if order is not None:
            if order < 1:
                raise ValueError("order must be positive")
            cs = (cs + [0] * order)[:order]
        if not cs:
            raise ValueError("empty coefficient list")
        _check_scalars(cs, "series coefficient")
        self.coeffs = tuple(cs)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def truncate(self, order) -> "TruncatedSeries":
        return TruncatedSeries(self.coeffs, order)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return series_mul(self, other)

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)!r})"


def series_from_rational(numer, denom, order: int) -> TruncatedSeries:
    """Expand numer(x) / denom(x) to the given order by long division.

    Coefficient lists are ascending; denom must have an invertible
    constant term.
    """
    if order < 1:
        raise ValueError("order must be positive")
    num = (list(numer) + [0] * order)[:order]
    den = (list(denom) + [0] * order)[:order]
    if not denom or den[0] == 0:
        raise ZeroDivisionError("denominator has no constant term")
    d = den[0]
    inv0 = 1 if d == 1 else (-1 if d == -1 else field_div(1, d))
    out = []
    for k in range(order):
        acc = num[k]
        for j in range(1, k + 1):
            if den[j] != 0:
                acc = acc - den[j] * out[k - j]
        out.append(acc if inv0 == 1 else inv0 * acc)
    return TruncatedSeries(out)


def series_mul(s: TruncatedSeries, t: TruncatedSeries) -> TruncatedSeries:
    """Product truncated to the shorter order."""
    n = min(s.order, t.order)
    out = [0] * n
    for i, a in enumerate(s.coeffs[:n]):
        if a == 0:
            continue
        for j in range(n - i):
            b = t.coeffs[j]
            if b != 0:
                out[i + j] = out[i + j] + a * b
    return TruncatedSeries(out)


def catalan_series(order: int) -> TruncatedSeries:
    """The series c with c = 1 + x c^2; integer coefficients."""
    if order < 1:
        raise ValueError("order must be positive")
    cs = [1]
    for k in range(1, order):
        cs.append(sum(cs[i] * cs[k - 1 - i] for i in range(k)))
    return TruncatedSeries(cs)


class RiordanPair:
    """Pair (g, f) of series with g(0) invertible, f(0) = 0, f'(0)
    invertible, sharing one truncation order."""

    __slots__ = ("g", "f")

    def __init__(self, g: TruncatedSeries, f: TruncatedSeries):
        n = min(g.order, f.order)
        g = g.truncate(n)
        f = f.truncate(n)
        if g.coeffs[0] == 0:
            raise ValueError("g must be invertible at 0")
        if f.coeffs[0] != 0:
            raise ValueError("f must vanish at 0")
        if n < 2 or f.coeffs[1] == 0:
            raise ValueError("f must have an invertible linear coefficient")
        self.g = g
        self.f = f

    @property
    def order(self) -> int:
        return self.g.order

    def __eq__(self, other):
        if isinstance(other, RiordanPair):
            return self.g == other.g and self.f == other.f
        return NotImplemented

    def __repr__(self):
        return f"RiordanPair({self.g!r}, {self.f!r})"


def riordan_matrix(p: RiordanPair, n: int) -> Triangle:
    """Triangle whose column k holds the coefficients of g * f^k."""
    if n < 1:
        raise ValueError("size must be positive")
    if p.order < n:
        raise ValueError(f"pair order {p.order} below requested size {n}")
    col = p.g.truncate(n)
    f = p.f.truncate(n)
    cols = [col]
    for _ in range(1, n):
        col = series_mul(col, f)
        cols.append(col)
    return Triangle([[cols[j].coeffs[i] for j in range(i + 1)] for i in range(n)])


def riordan_inverse(p: RiordanPair) -> RiordanPair:
    """Group inverse, read off the inverse matrix: its column 0 is the
    new g and its column 1 is the new g times the new f."""
    n = p.order
    inv = invert(riordan_matrix(p, n))
    g = inv.column(0)
    return RiordanPair(TruncatedSeries(g), series_from_rational(inv.column(1), g, n))


def interleave_columns(A: Triangle, B: Triangle) -> Triangle:
    """Weave two triangles into one by alternating their columns along
    diagonals: column 2j of the result carries column j of A shifted
    down j rows, column 2j+1 carries column j of B shifted down j+1
    rows.  Interleaving the identity with itself gives the identity.
    """
    if A.size != B.size:
        raise ValueError("size mismatch")
    n = A.size
    rows = []
    for i in range(n):
        row = []
        for c in range(i + 1):
            j, odd = divmod(c, 2)
            if odd:
                row.append(B.entry(i - j - 1, j) if i - j - 1 >= 0 else 0)
            else:
                row.append(A.entry(i - j, j))
        rows.append(row)
    return Triangle(rows)


def _schroder_g(order: int):
    """Coefficients of the series with g = 1 + x g + 2 x g (g - 1) + ...

    solving 2 x g^2 - (1 + x) g + 1 = 0 with g(0) = 1; the expansion
    1, 1, 3, 11, 45, ... is produced by the recurrence below.
    """
    gs = [1]
    for k in range(1, order):
        acc = 2 * sum(gs[i] * gs[k - 1 - i] for i in range(k)) - gs[k - 1]
        gs.append(acc)
    return gs


def schroder_column(k: int, order: int):
    """Column k of the interleaved Schroeder triangle as a coefficient
    list: even columns are g * phi^(k/2) shifted to start at row k, odd
    columns are powers of phi starting at row k as well.  phi = x (g - 1)
    solves phi = x^2 + 3 x phi + 2 phi^2, so its coefficients are those of
    g shifted up two places: 0, 0, 1, 3, 11, 45, ..."""
    if k < 0:
        raise ValueError("column index must be nonnegative")
    if order < 1:
        raise ValueError("order must be positive")
    work = order + k + 2
    gs = _schroder_g(work)
    g = TruncatedSeries(gs)
    phi = TruncatedSeries([0, 0] + gs[1 : work - 1])
    if k % 2 == 0:
        col = g
        for _ in range(k // 2):
            col = series_mul(col, phi)
        return list(col.coeffs[:order])
    col = TruncatedSeries([1], work)
    for _ in range((k + 1) // 2):
        col = series_mul(col, phi)
    # odd columns sit one row higher than the plain power
    return list(col.coeffs[1 : order + 1])
