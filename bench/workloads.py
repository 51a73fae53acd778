"""Seeded workloads for the cfmoments benchmark.

A workload is an endless sequence of rounds.  Each round is a fixed list
of operation slots (kind and size); only the values filled into the
slots come from the seeded generator, so the mix of sizes is the same in
every run and only the inputs differ.  The library receives nothing but
the generated inputs, and every call goes through a module attribute
(``pipeline.compare``, ``cli.run``) so that a tracer installed later sees
it.

Every operation knows how to check its own output.  The checks use an
independent route where one exists (the J-fraction moments for
``compare``, the original coefficients for the qd round trip, frozen
golden files for the CLI), never the output of the same call.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import random
import re
from fractions import Fraction
from math import comb

from cfmoments import cfrac, cli, pipeline
from cfmoments.cfrac import SFractionCoeffs
from cfmoments.ring import QPoly, QRat, q


# -- entry growth -------------------------------------------------------------


def _int_bits(z):
    return abs(z).bit_length()


def scalar_growth(x):
    """(largest q-degree, largest coefficient bit length) of one scalar."""
    if isinstance(x, int):
        return 0, _int_bits(x)
    if isinstance(x, Fraction):
        return 0, max(_int_bits(x.numerator), _int_bits(x.denominator))
    if isinstance(x, QPoly):
        return len(x.coeffs) - 1, max(_int_bits(c) for c in x.coeffs)
    if isinstance(x, QRat):
        a, b = scalar_growth(x.num), scalar_growth(x.den)
        return max(a[0], b[0]), max(a[1], b[1])
    raise TypeError(f"not a scalar: {x!r}")


def values_growth(values):
    deg = bits = 0
    for v in values:
        d, b = scalar_growth(v)
        deg, bits = max(deg, d), max(bits, b)
    return deg, bits


_Q_POWER = re.compile(r"q\^(\d+)")
_Q_ALONE = re.compile(r"(?<![A-Za-z_])q(?![A-Za-z_^])")
_DIGITS = re.compile(r"\d+")


def text_growth(text):
    """Entry growth read off rendered output: exponents after ``q^`` and
    the bit length of every integer literal."""
    deg = max((int(e) for e in _Q_POWER.findall(text)), default=0)
    if deg == 0 and _Q_ALONE.search(text):
        deg = 1
    bits = max((int(d).bit_length() for d in _DIGITS.findall(text)), default=0)
    return deg, bits


# -- operations -----------------------------------------------------------------


class CompareOp:
    """``compare(a, n)``, checked against the J-fraction moment route."""

    kind = "compare"

    def __init__(self, ring, a, n):
        self.ring = ring
        self.a = SFractionCoeffs(a)
        self.n = n

    @property
    def label(self):
        return f"compare/{self.ring}/n={self.n}"

    def run(self):
        return pipeline.compare(self.a, self.n)

    def check(self, r):
        if not all(ok for _, ok in r.diagnostics):
            return False
        expected = cfrac.moments_from_jfraction(cfrac.s_to_j(self.a), self.n)
        return list(r.N.column(0)) == expected

    def fingerprint(self, r):
        return hash((r.N, r.M, r.C, r.prodN, r.prodM, r.prodCinv,
                     tuple(r.diagnostics), tuple(r.mu)))

    def growth(self, r):
        mats = (r.N, r.M, r.C, r.prodN, r.prodM, r.prodCinv)
        return values_growth([*self.a.terms, *(v for m in mats for row in m.rows for v in row)])


class RoundTripOp:
    """qd applied to the moments of ``a`` must give back ``a``."""

    kind = "qd-roundtrip"

    def __init__(self, ring, a):
        self.ring = ring
        self.a = SFractionCoeffs(a)

    @property
    def label(self):
        return f"qd-roundtrip/{self.ring}/m={len(self.a)}"

    def run(self):
        mu = cfrac.moments_from_sfraction(self.a, len(self.a) + 1)
        return mu, cfrac.qd_sfraction_from_moments(mu)

    def check(self, out):
        return out[1].terms == self.a.terms

    def fingerprint(self, out):
        return hash((tuple(out[0]), out[1].terms))

    def growth(self, out):
        return values_growth([*out[0], *out[1].terms])


class CliOp:
    """One ``cli.run`` in-process with stdout and stderr captured.

    ``expect`` is either the exact stdout (exit 0, empty stderr), or an
    (exit code, stderr prefix) pair for an error argv, which must print
    exactly one line on stderr, or a callable judging (rc, out, err).
    """

    kind = "cli"

    def __init__(self, name, argv, expect):
        self.name = name
        self.argv = list(argv)
        self.expect = expect

    @property
    def label(self):
        return f"cli/{self.name}"

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(list(self.argv))
        return rc, out.getvalue(), err.getvalue()

    def check(self, res):
        rc, out, err = res
        if isinstance(self.expect, str):
            return rc == 0 and err == "" and out == self.expect
        if callable(self.expect):
            return self.expect(rc, out, err)
        code, prefix = self.expect
        return rc == code and err.startswith(prefix) and err.count("\n") == 1

    def fingerprint(self, res):
        return res

    def growth(self, res):
        return text_growth(res[1])


# -- workloads ------------------------------------------------------------------


class Workload:
    """Rounds of operations drawn from ``random.Random(seed)``.

    ``trace_rounds`` is how many leading rounds the traced run replays;
    it is fixed so that call counts repeat exactly for a given seed.
    """

    name = ""
    trace_rounds = 1

    def __init__(self, seed, root):
        self.seed = seed
        self.root = pathlib.Path(root)
        self.rng = random.Random(seed)
        self.index = 0

    def next_round(self):
        ops = self.make_round(self.rng, self.index)
        self.index += 1
        return ops

    def make_round(self, rng, index):
        raise NotImplementedError

    def warmup(self):
        """One small operation of each kind, from a stream of its own."""
        raise NotImplementedError


def balanced(rng, values, count):
    """``count`` draws in which each of ``values`` appears equally often, up
    to one, in a random order.

    Drawing the coefficients of one operation this way, rather than
    independently, keeps its cost close to that of every other operation
    of the same size, so that the metrics of one seed match those of the
    next without holding more operations per run.
    """
    vals = list(values)
    rng.shuffle(vals)
    pool = [vals[i % len(vals)] for i in range(count)]
    rng.shuffle(pool)
    return pool


INT_TERMS = (1, 2, 3)
FRAC_TERMS = tuple(Fraction(r, s) for r in range(1, 6) for s in range(1, 6))


def _int_coeffs(rng, n):
    return [1] + balanced(rng, INT_TERMS, 2 * n - 1)


def _frac_coeffs(rng, n):
    return [1] + balanced(rng, FRAC_TERMS, 2 * n - 1)


class NumericCompare(Workload):
    """compare over int (n = 16..28) and Fraction (n = 8..12) coefficients."""

    name = "numeric-compare"
    INT_SIZES = tuple(range(16, 29))
    FRAC_SIZES = tuple(range(8, 13))
    trace_rounds = 4

    def make_round(self, rng, index):
        ops = [CompareOp("int", _int_coeffs(rng, n), n) for n in self.INT_SIZES]
        ops += [CompareOp("frac", _frac_coeffs(rng, n), n) for n in self.FRAC_SIZES]
        rng.shuffle(ops)
        return ops

    def warmup(self):
        rng = random.Random(f"{self.seed}/warmup")
        return [CompareOp("int", _int_coeffs(rng, 16), 16),
                CompareOp("frac", _frac_coeffs(rng, 8), 8)]


ZQ_TERMS = tuple(q**e * f for e in range(4) for f in (1, 1 + q))


def _zq_coeffs(rng, n):
    return [1] + balanced(rng, ZQ_TERMS, 2 * n - 1)


class ZqCompare(Workload):
    """compare over Z[q]: a_k = q^e or q^e (1 + q) with e <= 3, plus the
    paper's a_k = q^(k-1) once per size in the first round."""

    name = "zq-compare"
    # Shares put the median inside the n = 6 band and p90 inside the n = 8
    # band, not on the edge between two sizes.
    SLOTS = (5, 5, 5, 6, 6, 6, 6, 7, 8, 8)
    QPOW_SIZES = (5, 6, 7, 8)
    trace_rounds = 8

    def make_round(self, rng, index):
        ops = [CompareOp("zq", _zq_coeffs(rng, n), n) for n in self.SLOTS]
        if index == 0:
            ops += [CompareOp("qpow", [q**k for k in range(2 * n)], n) for n in self.QPOW_SIZES]
        rng.shuffle(ops)
        return ops

    def warmup(self):
        rng = random.Random(f"{self.seed}/warmup")
        return [CompareOp("zq", _zq_coeffs(rng, 5), 5)]


# (u + q^e) / (1 + v q) never reduces to a polynomial: the only root of the
# denominator is -1/v, which is not a root of the numerator.
QQ_TERMS = tuple(QRat.make(u + q**e, 1 + v * q)
                 for u in range(1, 4) for e in (1, 2) for v in (2, 3))


def _qq_coeffs(rng, count):
    return balanced(rng, QQ_TERMS, count)


class QQField(Workload):
    """compare over Q(q) at n = 3 and n = 4, beside the qd round trip of
    four Q(q) coefficients."""

    name = "qq-field"
    # One n = 4 compare in five ops: p90 lands mid-way through the n = 4
    # band and the median inside the n = 3 and round-trip band.
    SLOTS = ("rt", "rt", 3, 3, 4)
    trace_rounds = 6

    def make_round(self, rng, index):
        ops = []
        for slot in self.SLOTS:
            if slot == "rt":
                ops.append(RoundTripOp("qq", _qq_coeffs(rng, 4)))
            else:
                ops.append(CompareOp("qq", [1] + _qq_coeffs(rng, 2 * slot - 1), slot))
        rng.shuffle(ops)
        return ops

    def warmup(self):
        rng = random.Random(f"{self.seed}/warmup")
        return [CompareOp("qq", [1] + _qq_coeffs(rng, 5), 3),
                RoundTripOp("qq", _qq_coeffs(rng, 4))]


# The golden commands and error argvs of tests/test_cli.py, frozen here so
# that the workload cannot drift with the tests.
GOLDEN_CASES = (
    ("gen-catalan", ["gen", "--spec", "const:1", "--size", "6", "--what", "C"]),
    ("gen-qcase", ["gen", "--spec", "qpow", "--size", "6", "--what", "C"]),
    ("gen-schroder", ["gen", "--spec", "cycle:1,2", "--size", "6", "--what", "N"]),
    ("moments-catalan", ["moments", "--spec", "const:1", "--count", "8"]),
    ("moments-qcase", ["moments", "--spec", "qpow", "--count", "8"]),
    ("moments-schroder", ["moments", "--spec", "cycle:1,2", "--count", "8"]),
    ("hankel-catalan", ["hankel", "--spec", "const:1", "--count", "4"]),
    ("hankel-qcase", ["hankel", "--spec", "qpow", "--count", "4"]),
    ("hankel-schroder", ["hankel", "--spec", "cycle:1,2", "--count", "4"]),
    ("qd-catalan", ["qd", "--moments", "1,1,2,5,14,42,132"]),
    ("qd-qcase", ["qd", "--moments", "1,1,1 + q,1 + 2*q + q^2 + q^3"]),
    ("qd-schroder", ["qd", "--moments", "1,1,3,11,45,197,903"]),
    ("verify-catalan", ["verify", "--example", "catalan", "--size", "6"]),
    ("verify-qcase", ["verify", "--example", "qcase", "--size", "6"]),
    ("verify-qcase-q2", ["verify", "--example", "qcase", "--size", "6", "--q", "2"]),
    ("verify-schroder", ["verify", "--example", "schroder", "--size", "6"]),
)
GOLDEN_ALL = [
    (name, argv + ["--format", fmt], f"{name}-{fmt}")
    for name, argv in GOLDEN_CASES
    for fmt in ("pretty", "json", "csv")
] + [
    ("gen-all-catalan", ["gen", "--spec", "const:1", "--size", "5", "--format", fmt],
     f"gen-all-catalan-{fmt}")
    for fmt in ("pretty", "json")
]

USAGE_ARGVS = (
    ["frobnicate"],
    ["gen", "--spec", "const:1"],
    ["gen", "--spec", "nope:1", "--size", "4"],
    ["gen", "--spec", "const:1", "--size", "x"],
    ["gen", "--spec", "const:1", "--size", "1"],
    ["gen", "--spec", "const:1", "--size", "4", "--what", "all", "--format", "csv"],
    ["moments", "--spec", "const:1", "--count", "0"],
    ["qd", "--moments", "1,,2"],
    ["verify", "--example", "catalan", "--q", "2"],
    ["verify", "--example", "qcase", "--q", "2", "--q-symbolic"],
    ["verify", "--example", "catalan", "--size", "5"],
    ["verify", "--example", "pascal"],
)

PRECONDITION_ARGVS = (
    ["gen", "--spec", "const:2", "--size", "4"],
    ["gen", "--spec", "lit:1,1,1", "--size", "4"],
    ["gen", "--spec", "lit:1,0,1,1,1,1,1,1", "--size", "4"],
    ["qd", "--moments", "2,4"],
    ["qd", "--moments", "1,1,1,2"],
    ["riordan", "--g", "x", "--f", "x", "--size", "4"],
    ["riordan", "--g", "1", "--f", "x^2", "--size", "4"],
)

# The one Riordan pair the CLI tests use, g = 1 - x and f = x - x^2, whose
# column k is x^k (1 - x)^(k+1): entry (i, k) = (-1)^(i-k) C(k+1, i-k).
RIORDAN_ARGV = ["riordan", "--g", "1 - x", "--f", "x - x^2", "--size", "5", "--format", "csv"]


def _riordan_closed_form(size):
    return [[(-1) ** (i - k) * comb(k + 1, i - k) for k in range(i + 1)] for i in range(size)]


def _csv_rows(out):
    return [[Fraction(v) for v in line.split(",")] for line in out.strip().split("\n")]


def _riordan_forward_ok(rc, out, err):
    return rc == 0 and err == "" and _csv_rows(out) == _riordan_closed_form(5)


def _riordan_inverse_ok(rc, out, err):
    if rc != 0 or err != "":
        return False
    inv, fwd = _csv_rows(out), _riordan_closed_form(5)
    prod = [[sum(inv[i][t] * fwd[t][j] for t in range(j, i + 1)) for j in range(i + 1)]
            for i in range(5)]
    return prod == [[int(i == j) for j in range(i + 1)] for i in range(5)]


class CliGolden(Workload):
    """One round replays, in a seeded order, the 50 golden commands, the
    exit-2 and exit-3 argvs, and the Riordan pair forward and inverse."""

    name = "cli-golden"
    trace_rounds = 10

    def __init__(self, seed, root):
        super().__init__(seed, root)
        golden = self.root / "tests" / "golden"
        self.ops = [CliOp(name, argv, (golden / f"{fname}.txt").read_text(encoding="utf-8"))
                    for name, argv, fname in GOLDEN_ALL]
        self.ops += [CliOp("usage-error", argv, (2, "usage-error: ")) for argv in USAGE_ARGVS]
        self.ops += [CliOp("precondition-error", argv, (3, "precondition-error: "))
                     for argv in PRECONDITION_ARGVS]
        self.ops += [CliOp("riordan", RIORDAN_ARGV, _riordan_forward_ok),
                     CliOp("riordan-inverse", RIORDAN_ARGV + ["--inverse"], _riordan_inverse_ok)]

    def make_round(self, rng, index):
        ops = list(self.ops)
        rng.shuffle(ops)
        return ops

    def warmup(self):
        first = {}
        for op in self.ops:
            first.setdefault(op.argv[0], op)
        return list(first.values())


WORKLOADS = {w.name: w for w in (NumericCompare, ZqCompare, QQField, CliGolden)}


def build(name, seed, root):
    return WORKLOADS[name](seed, root)
