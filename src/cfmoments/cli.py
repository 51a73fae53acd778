"""Command-line front end.

Subcommands cover the whole library surface: building the matrix pair
and their product from a coefficient sequence, listing moments, Hankel
determinants by two methods, recovering coefficients from moments,
Riordan arrays from rational series, and replaying the worked examples.

Coefficient sequences a_n are 1-indexed; moment sequences are
0-indexed.  Exit codes: 0 success, 1 verification failure, 2 usage or
parse error, 3 mathematical precondition failure.  Failures put a
one-line reason on stderr prefixed with ``usage-error:``,
``precondition-error:``, or ``verify-failure:``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from .cfrac import (
    SFractionCoeffs,
    hankel_from_sfraction,
    moments_from_sfraction,
    qd_sfraction_from_moments,
)
from .pipeline import EXAMPLE_NAMES, compare, verify_example
from .ring import QPoly, QRat, ScalarParseError, parse_scalar, q, render
from .series import RiordanPair, riordan_inverse, riordan_matrix, series_from_rational
from .triangle import ProductionMatrix, Triangle, hankel_transform

__all__ = [
    "SequenceSpec",
    "SpecParseError",
    "SequenceExhausted",
    "parse_spec",
    "parse_matrix_json",
    "run",
    "main",
]


class SpecParseError(ValueError):
    """Sequence spec does not match the grammar; ``offset`` is the byte
    position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at byte {offset}")
        self.offset = offset


class SequenceExhausted(ValueError):
    """A literal spec ran out of terms before the command was done."""


class SequenceSpec:
    """A rule producing a_1, a_2, ...

    Kinds: ``lit`` (finite list), ``cycle`` (optional prefix, then a
    repeating block; ``const:v`` is the one-value cycle), ``qpow``
    (a_n = q^(n-1)).
    """

    __slots__ = ("kind", "prefix", "values")

    def __init__(self, kind, values=(), prefix=()):
        if kind not in ("lit", "cycle", "qpow"):
            raise ValueError(f"unknown spec kind {kind!r}")
        self.kind = kind
        self.prefix = tuple(prefix)
        self.values = tuple(values)
        if kind == "cycle" and not self.values:
            raise ValueError("a cycle spec needs at least one value")

    def term(self, n: int):
        """a_n, 1-indexed."""
        if n < 1:
            raise ValueError("term index is 1-based")
        if self.kind == "qpow":
            return q ** (n - 1)
        if self.kind == "lit":
            if n > len(self.values):
                raise SequenceExhausted(
                    f"literal spec has {len(self.values)} terms, term {n} requested"
                )
            return self.values[n - 1]
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return self.values[(n - len(self.prefix) - 1) % len(self.values)]

    def terms(self, count: int):
        return [self.term(k) for k in range(1, count + 1)]

    def __repr__(self):
        return f"SequenceSpec({self.kind!r}, {list(self.values)!r}, {list(self.prefix)!r})"


def _parse_value_list(body: str, base: int, what: str):
    """Comma-separated scalars with absolute byte offsets."""
    if not body:
        raise SpecParseError(f"empty {what}", base)
    out = []
    pos = 0
    for piece in body.split(","):
        if not piece.strip():
            raise SpecParseError(f"empty value in {what}", base + pos)
        try:
            out.append(parse_scalar(piece))
        except ScalarParseError as e:
            raise SpecParseError(e.reason, base + pos + e.offset) from None
        pos += len(piece) + 1
    return out


def parse_spec(text: str) -> SequenceSpec:
    """Parse ``lit:v1,v2,...`` | ``const:v`` | ``cycle:p1,...`` |
    ``prefix:v1,..|cycle:p1,..`` | ``qpow``."""
    if text == "qpow":
        return SequenceSpec("qpow")
    head, sep, rest = text.partition(":")
    if not sep:
        raise SpecParseError(f"expected 'kind:' in spec {text!r}", 0)
    base = len(head) + 1
    if head == "lit":
        return SequenceSpec("lit", _parse_value_list(rest, base, "value list"))
    if head == "const":
        vals = _parse_value_list(rest, base, "value")
        if len(vals) != 1:
            raise SpecParseError("const takes exactly one value", base)
        return SequenceSpec("cycle", vals)
    if head == "cycle":
        return SequenceSpec("cycle", _parse_value_list(rest, base, "cycle"))
    if head == "prefix":
        body, bar, tail = rest.partition("|")
        if not bar:
            raise SpecParseError("expected '|cycle:' after the prefix values", len(text))
        prefix = _parse_value_list(body, base, "prefix")
        tail_base = base + len(body) + 1
        ckind, csep, cbody = tail.partition(":")
        if ckind != "cycle" or not csep:
            raise SpecParseError("expected 'cycle:' after '|'", tail_base)
        values = _parse_value_list(cbody, tail_base + len(ckind) + 1, "cycle")
        return SequenceSpec("cycle", values, prefix)
    raise SpecParseError(f"unknown spec kind {head!r}", 0)


# --- serialization ---------------------------------------------------------


def _ring_label(values) -> str:
    return "q" if any(isinstance(v, (QPoly, QRat)) for v in values) else "int"


def _matrix_json_obj(m):
    return {
        "size": m.size,
        "ring": _ring_label([v for row in m.rows for v in row]),
        "rows": [[render(v) for v in row] for row in m.rows],
    }


def parse_matrix_json(text: str):
    """Rebuild a Triangle or ProductionMatrix from its JSON form; malformed
    text raises ValueError naming what is missing."""
    obj = json.loads(text)
    if not isinstance(obj, dict) or "rows" not in obj:
        raise ValueError('matrix JSON must be an object with a "rows" key')
    texts = obj["rows"]
    if not isinstance(texts, list) or not all(isinstance(row, list) for row in texts):
        raise ValueError('matrix JSON "rows" must be a list of lists')
    if not all(type(s) is str for row in texts for s in row):
        raise ValueError('matrix JSON "rows" entries must be strings')
    rows = [[parse_scalar(s) for s in row] for row in texts]
    if all(len(r) == i + 1 for i, r in enumerate(rows)):
        return Triangle(rows)
    return ProductionMatrix(rows)


def _matrix_pretty(rows) -> str:
    texts = [[render(v) for v in row] for row in rows]
    ncols = max(len(r) for r in texts)
    widths = [
        max((len(r[j]) for r in texts if j < len(r)), default=0) for j in range(ncols)
    ]
    return "\n".join(
        "  ".join(r[j].rjust(widths[j]) for j in range(len(r))) for r in texts
    )


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().rstrip("\n")


def _format_matrix(m, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_matrix_json_obj(m), indent=2)
    if fmt == "csv":
        return _csv([[render(v) for v in row] for row in m.rows])
    return _matrix_pretty(m.rows)


def _format_values(values, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(
            {
                "count": len(values),
                "ring": _ring_label(values),
                "values": [render(v) for v in values],
            },
            indent=2,
        )
    if fmt == "csv":
        return _csv([[render(v) for v in values]])
    return " ".join(render(v) for v in values)


def _format_report(rep, fmt: str) -> str:
    qfield = None
    if rep.example == "qcase":
        qfield = "symbolic" if rep.q_value is None else rep.q_value
    if fmt == "json":
        keys = ("name", "status", "expected", "computed", "note")
        return json.dumps(
            {
                "example": rep.example,
                "size": rep.size,
                "q": qfield,
                "checks": [dict(zip(keys, row)) for row in rep.checks],
                "pass": rep.passed,
            },
            indent=2,
        )
    if fmt == "csv":
        return _csv(rep.checks)
    lines = []
    for name, status, expected, actual, note in rep.checks:
        if status == "pass":
            lines.append(f"PASS {name}")
            continue
        label, key = "FAIL", "expected"
        if status == "documented-discrepancy":
            label, key = "DISCREPANCY", "reference"
        lines.append(f"{label} {name} {key}={expected} computed={actual} note={note}")
    p, f, d = rep.counts
    qtext = "" if qfield is None else f" q={qfield}"
    lines.append(
        f"RESULT {'pass' if rep.passed else 'fail'}: {p} passed, {f} failed, "
        f"{d} documented discrepancies (example={rep.example} size={rep.size}{qtext})"
    )
    return "\n".join(lines)


# --- commands --------------------------------------------------------------


class _UsageError(ValueError):
    pass


_WHAT_ORDER = ("N", "M", "C", "prodN", "prodM", "prodCinv")

# Upper bounds on --size and --count, one per subcommand option.  The work
# grows like the fourth power or faster, so each bound is the largest value
# whose slowest familiar input ran in under about 10 s on a 2-core host
# (Python 3.11): gen and verify on the q-powers, moments and hankel on the
# q-powers, riordan --inverse on a pair with fractional coefficients.
_MAX_GEN_SIZE = 15
_MAX_MOMENTS_COUNT = 120
_MAX_HANKEL_COUNT = 14
_MAX_RIORDAN_SIZE = 120
_MAX_VERIFY_SIZE = 15


def _at_most(option: str, value: int, limit: int):
    if value > limit:
        raise _UsageError(f"{option} must be at most {limit}")


def _cmd_gen(args):
    if args.size < 2:
        raise _UsageError("--size must be at least 2")
    _at_most("--size", args.size, _MAX_GEN_SIZE)
    if args.what == "all" and args.format == "csv":
        raise _UsageError("csv carries a single matrix; pick one with --what")
    r = compare(SFractionCoeffs(parse_spec(args.spec).terms(2 * args.size)), args.size)
    failed = next((name for name, ok in r.diagnostics if not ok), None)
    if failed:
        raise ArithmeticError(f"compare at size {args.size}: diagnostic {failed} failed")
    parts = {name: getattr(r, name) for name in _WHAT_ORDER}
    if args.what != "all":
        return _format_matrix(parts[args.what], args.format), 0, None
    if args.format == "json":
        return (
            json.dumps(
                {name: _matrix_json_obj(parts[name]) for name in _WHAT_ORDER},
                indent=2,
            ),
            0,
            None,
        )
    blocks = [f"{name}:\n{_matrix_pretty(parts[name].rows)}" for name in _WHAT_ORDER]
    return "\n\n".join(blocks), 0, None


def _cmd_moments(args):
    if args.count < 1:
        raise _UsageError("--count must be positive")
    _at_most("--count", args.count, _MAX_MOMENTS_COUNT)
    terms = parse_spec(args.spec).terms(max(args.count - 1, 0))
    mu = moments_from_sfraction(SFractionCoeffs(terms), args.count)
    return _format_values(mu, args.format), 0, None


def _cmd_hankel(args):
    if args.count < 1:
        raise _UsageError("--count must be positive")
    _at_most("--count", args.count, _MAX_HANKEL_COUNT)
    terms = parse_spec(args.spec).terms(2 * (args.count - 1))
    s = SFractionCoeffs(terms)
    results = {}
    if args.method in ("det", "both"):
        mu = moments_from_sfraction(s, 2 * args.count - 1)
        results["det"] = hankel_transform(mu, args.count)
    if args.method in ("product", "both"):
        results["product"] = hankel_from_sfraction(s, args.count)
    if args.method != "both":
        return _format_values(results[args.method], args.format), 0, None
    agree = results["det"] == results["product"]
    texts = {k: [render(v) for v in vals] for k, vals in results.items()}
    if args.format == "json":
        ring = _ring_label(results["det"] + results["product"])
        text = json.dumps(
            {"count": args.count, "ring": ring, **texts, "agree": agree}, indent=2
        )
    elif args.format == "csv":
        text = _csv(texts.values())
    else:
        lines = [f"{k}: {' '.join(vals)}" for k, vals in texts.items()]
        text = "\n".join(lines + [f"agree: {'yes' if agree else 'no'}"])
    return text, 0, None


def _cmd_qd(args):
    mu = _parse_value_list(args.moments, 0, "moment list")
    s = qd_sfraction_from_moments(mu)
    return _format_values(list(s.terms), args.format), 0, None


def _rational_coeffs(text: str):
    v = parse_scalar(text, var="x")
    if isinstance(v, QRat):
        num, den = v.num, v.den
    else:
        num, den = v, 1
    ncs = list(num.coeffs) if isinstance(num, QPoly) else [num]
    dcs = list(den.coeffs) if isinstance(den, QPoly) else [den]
    return ncs, dcs


def _cmd_riordan(args):
    if args.size < 1:
        raise _UsageError("--size must be positive")
    _at_most("--size", args.size, _MAX_RIORDAN_SIZE)
    order = max(args.size, 2)
    gn, gd = _rational_coeffs(args.g)
    fn, fd = _rational_coeffs(args.f)
    pair = RiordanPair(
        series_from_rational(gn, gd, order), series_from_rational(fn, fd, order)
    )
    if args.inverse:
        pair = riordan_inverse(pair)
    m = riordan_matrix(pair, args.size)
    return _format_matrix(m, args.format), 0, None


def _cmd_verify(args):
    if args.q is not None and args.q_symbolic:
        raise _UsageError("--q and --q-symbolic are mutually exclusive")
    _at_most("--size", args.size, _MAX_VERIFY_SIZE)
    try:
        rep = verify_example(args.example, args.size, q_value=args.q)
    except ValueError as e:
        raise _UsageError(str(e)) from None
    text = _format_report(rep, args.format)
    if not rep.passed:
        nfail = rep.counts[1]
        return text, 1, f"verify-failure: {nfail} check(s) failed"
    return text, 0, None


_COMMANDS = {
    "gen": _cmd_gen,
    "moments": _cmd_moments,
    "hankel": _cmd_hankel,
    "qd": _cmd_qd,
    "riordan": _cmd_riordan,
    "verify": _cmd_verify,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("pretty", "json", "csv"),
        default="pretty",
        help="output format (default pretty)",
    )
    common.add_argument("--out", metavar="FILE", help="write output to FILE")
    p = _Parser(
        prog="cfmoments",
        description="Exact matrices, moments, and Hankel data from "
        "continued-fraction coefficient sequences.",
        epilog="Coefficient sequences a_n are 1-indexed; moments are "
        "0-indexed.  Scalars use the canonical rendering, e.g. 17/32 or "
        "1 + q - 2*q^2.  Familiar inputs: 'const:1' yields the Catalan "
        "moments (A000108), 'cycle:1,2' the little Schroeder numbers "
        "(A001003), 'qpow' the geometric q-powers.",
    )
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    spec_help = "sequence spec: lit:v1,v2,... | const:v | cycle:p1,... | prefix:v1,..|cycle:p1,.. | qpow"

    g = sub.add_parser(
        "gen",
        parents=[common],
        help="build the matrix pair and derived matrices",
        description="Build both moment matrices, their product, and the "
        "production matrices from a coefficient sequence.",
    )
    g.add_argument("--spec", required=True, help=spec_help)
    g.add_argument("--size", type=int, required=True, help="matrix size (rows)")
    g.add_argument(
        "--what",
        choices=_WHAT_ORDER + ("all",),
        default="all",
        help="which matrix to print (default all)",
    )

    m = sub.add_parser(
        "moments",
        parents=[common],
        help="series coefficients of the one-parameter form",
        description="First coefficients of the series generated by the "
        "coefficient sequence.",
    )
    m.add_argument("--spec", required=True, help=spec_help)
    m.add_argument("--count", type=int, required=True, help="how many moments")

    h = sub.add_parser(
        "hankel",
        parents=[common],
        help="Hankel determinants by determinant and/or product formula",
        description="Hankel determinants of the moment sequence, by "
        "fraction-free determinant, by the coefficient product formula, "
        "or both for cross-checking.",
    )
    h.add_argument("--spec", required=True, help=spec_help)
    h.add_argument("--count", type=int, required=True, help="how many determinants")
    h.add_argument(
        "--method", choices=("det", "product", "both"), default="both",
        help="evaluation route (default both)",
    )

    d = sub.add_parser(
        "qd",
        parents=[common],
        help="recover coefficients from moments",
        description="Chebyshev's algorithm on the Hankel sweep: the coefficient "
        "sequence of a moment list (mu_0 must be 1), or exit 3 where none exists.",
    )
    d.add_argument(
        "--moments", required=True, help="comma-separated moments mu_0,mu_1,..."
    )

    r = sub.add_parser(
        "riordan",
        parents=[common],
        help="matrix of a Riordan pair given as rationals in x",
        description="Build the lower-triangular array of the pair (g, f); "
        "g and f are rational expressions in x, e.g. --g 1 --f 'x/(1 - x)'.",
    )
    r.add_argument("--g", required=True, help="rational expression in x, g(0) != 0")
    r.add_argument(
        "--f", required=True, help="rational expression in x, f(0) = 0, f'(0) != 0"
    )
    r.add_argument("--size", type=int, required=True, help="matrix size (rows)")
    r.add_argument(
        "--inverse", action="store_true", help="build the group inverse instead"
    )

    v = sub.add_parser(
        "verify",
        parents=[common],
        help="replay a worked example against its reference values",
        description="Run every registered check for a worked example; "
        "known reference disagreements show as documented-discrepancy "
        "and do not fail the run.",
    )
    v.add_argument("--example", required=True, choices=EXAMPLE_NAMES)
    v.add_argument("--size", type=int, default=6, help="build size (default 6)")
    v.add_argument(
        "--q", type=int, default=None,
        help="evaluate the qcase example at this integer instead of "
        "symbolically",
    )
    v.add_argument(
        "--q-symbolic",
        action="store_true",
        dest="q_symbolic",
        help="keep q unevaluated (the default; spelled out for scripts "
        "that want to be explicit)",
    )
    return p


def _complain(prefix, reason):
    """One stderr line, also when the reason quotes an argument holding a
    line break (argparse's unrecognized arguments, an --out path)."""
    reason = str(reason).replace("\r", "\\r").replace("\n", "\\n")
    print(f"{prefix}: {reason}", file=sys.stderr)


def run(argv) -> int:
    """Execute one command line; returns the exit status.

    The argument parser is built once per process and reused: parsing
    keeps its state in the namespace it returns, not in the parser.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        _complain("usage-error", e)
        return 2
    except SystemExit as e:  # --help
        return 0 if e.code in (0, None) else 2
    try:
        text, code, complaint = _COMMANDS[args.command](args)
    except (_UsageError, SpecParseError, ScalarParseError) as e:
        _complain("usage-error", e)
        return 2
    except (ValueError, ArithmeticError) as e:
        # any other library failure: a precondition or an internal check
        _complain("precondition-error", e)
        return 3
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as e:
            reason = e.strerror or e
            _complain("usage-error", f"cannot write {args.out}: {reason}")
            return 2
    else:
        print(text)
    if complaint:
        print(complaint, file=sys.stderr)
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
