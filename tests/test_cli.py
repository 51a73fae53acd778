import json
import os
import pathlib
import random
import types

import pytest

from cfmoments.cfrac import SFractionCoeffs
from cfmoments.cli import (
    SequenceExhausted,
    SequenceSpec,
    _build_parser,
    SpecParseError,
    _format_report,
    parse_matrix_json,
    parse_spec,
    run,
)
from cfmoments.pipeline import CheckResult, VerifyReport, compare, verify_example
from cfmoments.ring import QPoly, q

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _run(argv, capsys):
    rc = run(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# --- sequence specs --------------------------------------------------------


def test_spec_qpow():
    s = parse_spec("qpow")
    assert s.term(1) == 1
    assert s.term(3) == q**2
    assert s.terms(4) == [1, q, q**2, q**3]


def test_spec_const_and_lit():
    assert parse_spec("const:7").terms(4) == [7, 7, 7, 7]
    assert parse_spec("lit:1,4,9").terms(3) == [1, 4, 9]


def test_spec_cycle_and_prefix():
    assert parse_spec("cycle:1,2").terms(5) == [1, 2, 1, 2, 1]
    assert parse_spec("prefix:1|cycle:1,2").terms(6) == [1, 1, 2, 1, 2, 1]
    assert parse_spec("prefix:5,6|cycle:9").terms(4) == [5, 6, 9, 9]


def test_spec_symbolic_values():
    s = parse_spec("lit:1,q,q^2 + 1")
    assert s.terms(3) == [1, q, QPoly.make((1, 0, 1))]


def test_spec_refuses_an_empty_cycle():
    for prefix in ((), (1,)):
        with pytest.raises(ValueError, match="at least one value"):
            SequenceSpec("cycle", [], prefix)


def test_spec_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown spec kind 'bogus'"):
        SequenceSpec("bogus")


def test_spec_lit_exhaustion():
    s = parse_spec("lit:1,2")
    with pytest.raises(SequenceExhausted):
        s.term(3)


def test_spec_term_is_one_indexed():
    with pytest.raises(ValueError):
        parse_spec("const:1").term(0)


@pytest.mark.parametrize(
    "text,offset",
    [
        ("powq", 0),
        ("lin:1,2", 0),
        ("const:1,2", 6),
        ("cycle:", 6),
        ("lit:1,,2", 6),
        ("prefix:1", 8),
        ("prefix:1|loop:2", 9),
        ("lit:1,%", 6),
    ],
)
def test_spec_errors_with_offsets(text, offset):
    with pytest.raises(SpecParseError) as e:
        parse_spec(text)
    assert e.value.offset == offset


_SPEC_VALUES = ["0", "7", "-12", "1/2", "q", "-3*q^2", "1 + q", "(1 + q)/(1 + 2*q)"]


def _random_spec(rng):
    """A valid spec and the (start, end) index ranges of its value bodies."""

    def body():
        return ",".join(rng.choice(_SPEC_VALUES) for _ in range(rng.randrange(1, 4)))

    kind = rng.choice(["lit", "const", "cycle", "prefix"])
    if kind == "const":
        text = "const:" + rng.choice(_SPEC_VALUES)
        return text, [(6, len(text))]
    if kind != "prefix":
        text = f"{kind}:{body()}"
        return text, [(len(kind) + 1, len(text))]
    head = "prefix:" + body()
    text = head + "|cycle:" + body()
    return text, [(7, len(head)), (len(head) + 7, len(text))]


def test_spec_offsets_fuzz():
    # a stray '#' inside a value body is reported at exactly its index;
    # inside a keyword, at or before it
    rng = random.Random(20261021)
    for _ in range(60):
        text, bodies = _random_spec(rng)
        parse_spec(text)
        for i in range(len(text) + 1):
            with pytest.raises(SpecParseError) as e:
                parse_spec(text[:i] + "#" + text[i:])
            offset = e.value.offset
            assert str(e.value).endswith(f"at byte {offset}"), (text, i)
            if any(start <= i <= end for start, end in bodies):
                assert offset == i, (text, i)
            else:
                assert 0 <= offset <= i, (text, i)


# --- exit codes ------------------------------------------------------------


def test_exit_zero_on_success(capsys):
    rc, out, err = _run(["moments", "--spec", "const:1", "--count", "3"], capsys)
    assert rc == 0 and out == "1 1 2\n" and err == ""


def test_exit_zero_on_help(capsys):
    assert _run(["--help"], capsys)[0] == 0
    assert _run(["gen", "--help"], capsys)[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
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
        ["qd", "--moments", "1," + "(" * 3000 + "1" + ")" * 3000],
        ["moments", "--spec", "lit:" + "7" * 5000, "--count", "2"],
        ["moments", "--spec", "lit:1,\N{SUPERSCRIPT TWO}", "--count", "3"],
        ["gen", "--spec", "const:1", "--size", "3", "--q-symbolic"],
        ["qd", "--moments", "1", "stray\nargument"],
    ],
)
def test_exit_two_usage(argv, capsys):
    rc, _, err = _run(argv, capsys)
    assert rc == 2
    assert err.startswith("usage-error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["gen", "--spec", "qpow", "--size", "16"], "--size must be at most 15"),
        (["moments", "--spec", "qpow", "--count", "121"], "--count must be at most 120"),
        (["hankel", "--spec", "qpow", "--count", "10000000"], "--count must be at most 14"),
        (["riordan", "--g", "1", "--f", "x", "--size", "121"], "--size must be at most 120"),
        (["verify", "--example", "qcase", "--size", "16"], "--size must be at most 15"),
        (["riordan", "--g", "1", "--f", "x", "--size", "0"], "--size must be positive"),
    ],
)
def test_size_and_count_above_budget_are_usage_errors(argv, limit, capsys):
    # refused before any work: a huge value returns as fast as limit + 1
    rc, out, err = _run(argv, capsys)
    assert rc == 2 and out == ""
    assert err == f"usage-error: {limit}\n"


@pytest.mark.parametrize(
    "spec, offset",
    [
        ("lit:q^99999999", 5),
        ("lit:((1+q)^100)^100", 15),
        ("lit:((2^1000)^1000)^1000", 13),
    ],
)
def test_power_above_size_limit_is_a_usage_error(spec, offset, capsys):
    rc, out, err = _run(["moments", "--spec", spec, "--count", "2"], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("usage-error: power above the size limit")
    assert err.endswith(f" at byte {offset}\n")
    assert err.count("\n") == 1


def test_digit_limit_is_named(capsys):
    rc, out, err = _run(["moments", "--spec", "lit:1," + "7" * 5000, "--count", "2"], capsys)
    assert (rc, out) == (2, "")
    assert err == "usage-error: integer literal longer than 4300 digits at byte 6\n"
    rc, out, err = _run(["moments", "--spec", "lit:2^20000", "--count", "2"], capsys)
    assert (rc, out) == (3, "")
    assert err.startswith("precondition-error: ") and " 4300 digits" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--spec", "const:1", "--size", "3"],
        ["moments", "--spec", "const:1", "--count", "3"],
        ["hankel", "--spec", "const:1", "--count", "3"],
        ["qd", "--moments", "1,1,2"],
        ["riordan", "--g", "1", "--f", "x", "--size", "3"],
    ],
)
def test_q_symbolic_belongs_to_verify(argv, capsys):
    assert _run(argv, capsys)[0] == 0
    rc, out, err = _run(argv + ["--q-symbolic"], capsys)
    assert (rc, out) == (2, "")
    assert err == "usage-error: unrecognized arguments: --q-symbolic\n"


def test_verify_accepts_q_symbolic(capsys):
    plain = _run(["verify", "--example", "qcase"], capsys)
    assert plain[0] == 0
    assert _run(["verify", "--example", "qcase", "--q-symbolic"], capsys) == plain


def test_verify_qcase_at_zero_exits_3(capsys):
    rc, out, err = _run(["verify", "--example", "qcase", "--q", "0"], capsys)
    assert (rc, out) == (3, "")
    assert err == "precondition-error: hankel determinant vanishes at order 1\n"


def test_largest_golden_power_still_parses(capsys):
    rc, out, err = _run(["moments", "--spec", "lit:q^22", "--count", "2"], capsys)
    assert (rc, out, err) == (0, "1 q^22\n", "")


_EXIT_THREE = [
    (["gen", "--spec", "const:2", "--size", "4"], "first coefficient must be 1"),
    (
        ["gen", "--spec", "lit:1,1,1", "--size", "4"],
        "literal spec has 3 terms, term 4 requested",
    ),
    (
        ["gen", "--spec", "lit:1,0,1,1,1,1,1,1", "--size", "4"],
        "hankel determinant vanishes at order 1",
    ),
    (["qd", "--moments", "2,4"], "moment 0 must be 1"),
    (["qd", "--moments", "1,1,1,2"], "no coefficient 3: Hankel determinant h_1 is 0"),
    (["riordan", "--g", "x", "--f", "x", "--size", "4"], "g must be invertible at 0"),
    (
        ["riordan", "--g", "1", "--f", "x^2", "--size", "4"],
        "f must have an invertible linear coefficient",
    ),
    (
        ["moments", "--spec", "lit:2^20000", "--count", "2"],
        "an integer in the result has more than 4300 digits, the limit for printing it",
    ),
]


@pytest.mark.parametrize(
    "argv, reason", _EXIT_THREE, ids=[f"argv{i}" for i in range(len(_EXIT_THREE))]
)
def test_exit_three_precondition(argv, reason, capsys):
    assert _run(argv, capsys) == (3, "", f"precondition-error: {reason}\n")


@pytest.mark.parametrize("error", [ArithmeticError, ValueError])
def test_any_library_failure_exits_3_with_one_line(error, monkeypatch, capsys):
    # run alone maps a library failure to exit 3, whatever its class
    def fail(*args):
        raise error("compare at size 4: a failure\non two lines")

    monkeypatch.setattr("cfmoments.cli.compare", fail)
    assert _run(["gen", "--spec", "const:1", "--size", "4"], capsys) == (
        3, "", "precondition-error: compare at size 4: a failure\\non two lines\n"
    )


def test_gen_refuses_a_result_whose_diagnostics_failed(monkeypatch, capsys):
    # slots one unit wide are too narrow for these terms (they need m = 6), so
    # the unpacked N and M are wrong and compare's own first-column checks fail
    monkeypatch.setattr("cfmoments.pipeline._slot_count", lambda terms, n: 1)
    argv = ["gen", "--spec", "cycle:1,1048576+q,1048576*q,1048576", "--size", "4", "--what", "N"]
    reason = "compare at size 4: diagnostic first-column-of-first-matrix-is-moments failed"
    assert _run(argv, capsys) == (3, "", f"precondition-error: {reason}\n")


def test_trailing_input_in_moments_is_a_usage_error(capsys):
    assert _run(["qd", "--moments", "1,1 2"], capsys) == (
        2,
        "",
        "usage-error: unexpected trailing input at byte 4\n",
    )


def test_check_results_are_records():
    assert CheckResult("x", "pass") == CheckResult("x", "pass", "", "", "")
    assert CheckResult("x", "pass") != CheckResult("x", "pass", note="n")
    assert CheckResult("x", "fail", "1", "2").actual == "2"


def test_report_renders_the_same_from_plain_rows():
    rep = verify_example("qcase", 6)
    rep = rep._replace(checks=rep.checks + [CheckResult("broken", "fail", "1", "2", "n")])
    plain = types.SimpleNamespace(
        example=rep.example,
        size=rep.size,
        q_value=rep.q_value,
        checks=[list(c) for c in rep.checks],
        passed=rep.passed,
        counts=rep.counts,
    )
    assert rep.counts == (len(rep.checks) - 3, 1, 2)
    for fmt in ("pretty", "csv", "json"):
        assert _format_report(rep, fmt) == _format_report(plain, fmt)


def test_exit_one_on_verify_failure(monkeypatch, capsys):
    # no shipped example fails, so substitute a report that does
    bad = VerifyReport(
        "catalan", 6, None, [CheckResult("broken", "fail", "1", "2", "")]
    )
    monkeypatch.setattr("cfmoments.cli.verify_example", lambda *a, **k: bad)
    rc, out, err = _run(["verify", "--example", "catalan"], capsys)
    assert rc == 1
    assert err == "verify-failure: 1 check(s) failed\n"
    assert "FAIL broken" in out
    assert "RESULT fail" in out


# Argument pools for the argv fuzzer, valid values first and then values
# one step off or holding bad bytes.  Sizes stay small or go above the
# bounds, so no draw runs long.
_FUZZ_VALUES = {
    "--spec": (["const:1", "qpow", "cycle:1,2", "prefix:1|cycle:1,2", "lit:1/2,q,3"],
               ["lit:0,1", "const:", "cycle:1,(", "lit:q^2000", "lit:1/0", "nope:1",
                "lit:1,\n2", ""]),
    "--size": (["2", "3", "4", "5", "6"], ["-1", "0", "1", "16", "121", "x"]),
    "--count": (["1", "2", "4", "6"], ["-1", "0", "15", "121", "x"]),
    "--what": (["N", "M", "C", "prodN", "prodM", "prodCinv", "all"], ["Q"]),
    "--method": (["det", "product", "both"], ["none"]),
    "--moments": (["1,1,2,5,14", "1,q,1 + q", "1,1/2,1/3", "1"],
                  ["1,1,0,-1,-2", "2,4", "0,1", "1,,2", "1,(", "1,\r1"]),
    "--g": (["1", "1/(1 - x)", "1 + x^2"], ["x", "0", "1/x", "(", "1 + q"]),
    "--f": (["x", "x/(1 - x)", "2*x + x^3"], ["x^2", "0", "1 + x", "x/0"]),
    "--example": (["catalan", "qcase", "schroder"], ["pascal"]),
    "--q": (["2", "-1"], ["0", "x"]),
    "--format": (["pretty", "json", "csv"], ["xml"]),
    "--out": (["o.txt"], ["missing/o.txt", "missing/o\n.txt"]),
}
_FUZZ_FLAGS = {
    "gen": ["--spec", "--size", "--what"],
    "moments": ["--spec", "--count"],
    "hankel": ["--spec", "--count", "--method"],
    "qd": ["--moments"],
    "riordan": ["--g", "--f", "--size", "--inverse"],
    "verify": ["--example", "--size", "--q", "--q-symbolic"],
    "frobnicate": [],
}
_FUZZ_ANY_FLAG = list(_FUZZ_VALUES) + ["--inverse", "--q-symbolic", "--help", "x\ny"]


def _fuzz_argv(rng, tmp_path):
    """A command with most of its own flags, sometimes a stray flag or a
    missing value; ``--out`` paths fall under ``tmp_path``."""
    command = rng.choice(list(_FUZZ_FLAGS))
    flags = [f for f in _FUZZ_FLAGS[command] if rng.randrange(8)]
    flags += rng.sample(_FUZZ_ANY_FLAG, rng.randrange(2))
    flags += [f for f in ("--format", "--out") if not rng.randrange(4)]
    rng.shuffle(flags)
    argv = [command] if rng.randrange(20) else []
    for flag in flags:
        argv.append(flag)
        if flag in _FUZZ_VALUES and rng.randrange(20):
            good, bad = _FUZZ_VALUES[flag]
            value = rng.choice(good if rng.randrange(6) else bad)
            argv.append(str(tmp_path / value) if flag == "--out" else value)
    return argv


def test_run_on_random_argv_fuzz(tmp_path, capsys):
    # every argv ends in 0..3; 2 and 3 give exactly one stderr line, 0 none
    rng = random.Random(20261020)
    for _ in range(300):
        argv = _fuzz_argv(rng, tmp_path)
        rc, _, err = _run(argv, capsys)
        assert rc in (0, 1, 2, 3), argv
        if rc == 0:
            assert err == "", argv
        elif rc == 2:
            assert err.startswith("usage-error: ") and err.count("\n") == 1, argv
        elif rc == 3:
            assert err.startswith("precondition-error: ") and err.count("\n") == 1, argv


def test_cached_parser_carries_no_state(tmp_path, capsys):
    # the parser is built once per process; each second run must match a
    # run of the same argv on a freshly built parser
    out = str(tmp_path / "first.txt")
    riordan = ["riordan", "--g", "1 - x", "--f", "x - x^2", "--size", "4"]
    pairs = [
        (riordan + ["--inverse"], riordan),
        (["verify", "--example", "qcase", "--q", "2"], ["verify", "--example", "qcase"]),
        (["moments", "--spec", "const:1", "--count", "5", "--out", out],
         ["moments", "--spec", "const:1", "--count", "5"]),
        (["--help"], ["--help"]),
    ]
    for first, second in pairs:
        _build_parser.cache_clear()
        fresh = _run(second, capsys)
        _run(first, capsys)
        assert _run(second, capsys) == fresh, second
    assert _build_parser() is _build_parser()


# --- output plumbing -------------------------------------------------------


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "result.txt"
    rc, out, _ = _run(
        ["moments", "--spec", "const:1", "--count", "4", "--out", str(target)], capsys
    )
    assert rc == 0 and out == ""
    assert target.read_text() == "1 1 2 5\n"


def test_out_into_missing_directory_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "result.txt"
    rc, out, err = _run(
        ["moments", "--spec", "const:1", "--count", "4", "--out", str(target)], capsys
    )
    assert rc == 2 and out == ""
    assert err.startswith(f"usage-error: cannot write {target}: ")
    assert err.count("\n") == 1
    assert not target.parent.exists()


def test_json_matrix_roundtrip(capsys):
    rc, out, _ = _run(
        ["gen", "--spec", "cycle:1,2", "--size", "6", "--what", "N", "--format", "json"],
        capsys,
    )
    assert rc == 0
    r = compare(SFractionCoeffs([1, 2] * 6), 6)
    assert parse_matrix_json(out) == r.N


def test_json_production_roundtrip(capsys):
    rc, out, _ = _run(
        ["gen", "--spec", "qpow", "--size", "5", "--what", "prodM", "--format", "json"],
        capsys,
    )
    assert rc == 0
    a = SFractionCoeffs([q**k if k else 1 for k in range(10)])
    assert parse_matrix_json(out) == compare(a, 5).prodM
    assert json.loads(out)["ring"] == "q"


@pytest.mark.parametrize(
    "text, missing",
    [
        ("{}", '"rows" key'),
        ("[1]", '"rows" key'),
        ('{"rows": 5}', "list of lists"),
        ('{"rows": [[1]]}', "must be strings"),
    ],
)
def test_parse_matrix_json_names_what_is_missing(text, missing):
    with pytest.raises(ValueError, match=missing) as info:
        parse_matrix_json(text)
    assert type(info.value) is ValueError


def test_gen_csv_all_is_refused_before_any_work(monkeypatch, capsys):
    def spy(*args, **kwargs):
        raise AssertionError("compare ran")

    monkeypatch.setattr("cfmoments.cli.compare", spy)
    # a spec that fails its precondition (exit 3) is never read
    for spec in ("qpow", "const:2"):
        rc, out, err = _run(["gen", "--spec", spec, "--size", "4", "--format", "csv"], capsys)
        assert (rc, out) == (2, "")
        assert err == "usage-error: csv carries a single matrix; pick one with --what\n"


def test_formats_share_renderings(capsys):
    argv = ["gen", "--spec", "qpow", "--size", "5", "--what", "C"]
    _, js, _ = _run(argv + ["--format", "json"], capsys)
    _, cs, _ = _run(argv + ["--format", "csv"], capsys)
    json_rows = json.loads(js)["rows"]
    csv_rows = [line.split(",") for line in cs.strip().split("\n")]
    assert json_rows == csv_rows


def test_gen_all_json_sections(capsys):
    rc, out, _ = _run(
        ["gen", "--spec", "const:1", "--size", "4", "--format", "json"], capsys
    )
    assert rc == 0
    obj = json.loads(out)
    assert set(obj) == {"N", "M", "C", "prodN", "prodM", "prodCinv"}
    assert obj["N"]["size"] == 4


def test_hankel_methods_agree(capsys):
    base = ["hankel", "--spec", "cycle:1,2", "--count", "5"]
    _, det, _ = _run(base + ["--method", "det"], capsys)
    _, prod, _ = _run(base + ["--method", "product"], capsys)
    assert det == prod == "1 2 8 64 1024\n"
    rc, both, _ = _run(base + ["--format", "json"], capsys)
    obj = json.loads(both)
    assert obj["agree"] is True and obj["det"] == obj["product"]


def test_verify_json_shape(capsys):
    rc, out, _ = _run(
        ["verify", "--example", "qcase", "--format", "json"], capsys
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["pass"] is True
    assert obj["q"] == "symbolic"
    statuses = {c["status"] for c in obj["checks"]}
    assert statuses == {"pass", "documented-discrepancy"}
    rc, out, _ = _run(
        ["verify", "--example", "qcase", "--q", "2", "--format", "json"], capsys
    )
    assert json.loads(out)["q"] == 2
    rc, out, _ = _run(
        ["verify", "--example", "catalan", "--format", "json"], capsys
    )
    assert json.loads(out)["q"] is None


def test_riordan_inverse(capsys):
    rc, out, _ = _run(
        ["riordan", "--g", "1 - x", "--f", "x - x^2", "--size", "5", "--inverse",
         "--format", "csv"],
        capsys,
    )
    assert rc == 0
    assert out.split("\n")[3] == "5,5,3,1"


def test_qd_symbolic(capsys):
    rc, out, _ = _run(
        ["qd", "--moments", "1,1,1 + q,1 + 2*q + q^2 + q^3"], capsys
    )
    assert rc == 0
    assert out == "1 q q^2\n"


def test_qd_recovers_moments_with_a_vanishing_moment(capsys):
    # mu_2 = 0, yet these are the moments of a = 1, -1, 1, 1
    assert _run(["qd", "--moments", "1,1,0,-1,-2"], capsys) == (0, "1 -1 1 1\n", "")


@pytest.mark.parametrize(
    "moments, reason",
    [
        ("1,1,1,2", "no coefficient 3: Hankel determinant h_1 is 0"),
        ("1,0,5", "no coefficient 2: a_1 is 0"),
    ],
)
def test_qd_breakdown_names_the_vanishing_value(moments, reason, capsys):
    assert _run(["qd", "--moments", moments], capsys) == (
        3, "", f"precondition-error: {reason}\n"
    )


# --- golden files ----------------------------------------------------------

_SPECS = {
    "catalan": "const:1",
    "qcase": "qpow",
    "schroder": "cycle:1,2",
}

_GOLDEN_CASES = [
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
]

_ALL_GOLDENS = [
    (name, argv, fmt)
    for name, argv in _GOLDEN_CASES
    for fmt in ("pretty", "json", "csv")
] + [
    ("gen-all-catalan", ["gen", "--spec", "const:1", "--size", "5"], "pretty"),
    ("gen-all-catalan", ["gen", "--spec", "const:1", "--size", "5"], "json"),
]


@pytest.mark.parametrize(
    "name,argv,fmt", _ALL_GOLDENS, ids=[f"{n}-{f}" for n, _, f in _ALL_GOLDENS]
)
def test_golden(name, argv, fmt, capsys):
    rc, out, err = _run(argv + ["--format", fmt], capsys)
    assert rc == 0 and err == ""
    path = GOLDEN / f"{name}-{fmt}.txt"
    if os.environ.get("UPDATE_GOLDENS"):
        GOLDEN.mkdir(exist_ok=True)
        path.write_text(out)
        pytest.skip("golden regenerated")
    assert out == path.read_text()
