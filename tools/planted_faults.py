"""Planted faults: does tier-1 catch each one?

Each entry breaks one rule of the library by a single text replacement
in one file, and names the tier-1 test written to catch it.  For each
entry the script copies the repository into a temporary directory,
applies the replacement there, runs the named test alone and then all
of tier-1 with ``-x``, each under a timeout, and prints one line:

    caught   the named test fails, or tier-1 fails or runs out of time
    missed   the named test and all of tier-1 pass

A run that outlives its timeout counts as caught, but as a cost, not as
a wrong value.  The exit status is 1 if any fault is missed or stale.
Stdlib only; pytest does not collect this file.

    python tools/planted_faults.py [--timeout SECONDS] [NAME ...]

Run it after a change to ``compare``, the Z[q] packing, ``_slot_count``
or the canonical form of ``QRat``: an entry whose text no longer occurs
is reported as stale and must be brought up to date.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple

ROOT = pathlib.Path(__file__).resolve().parent.parent

Fault = namedtuple("Fault", "name path old new test")

FAULTS = [
    Fault(
        "slot-width-one-unit-short",
        "src/cfmoments/ring.py",
        "    return x.bit_length() // _ZQ_BITS + 1\n",
        "    return max(1, x.bit_length() // _ZQ_BITS)\n",
        "tests/test_pipeline.py::test_zq_compare_slot_width_bounds_every_returned_entry_random",
    ),
    Fault(
        "slot-count-without-the-gate-moments",
        "src/cfmoments/pipeline.py",
        "    top = max(_dyck_sweep(al, 2 * n - 1) + hankel_from_sfraction(s, n) + al)\n",
        "    top = max(hankel_from_sfraction(s, n) + al)\n",
        "tests/test_pipeline.py::test_zq_slot_width_bounds_the_hankel_gate_random",
    ),
    Fault(
        "slot-count-without-the-packed-terms",
        "src/cfmoments/pipeline.py",
        "    top = max(_dyck_sweep(al, 2 * n - 1) + hankel_from_sfraction(s, n) + al)\n",
        "    top = max(_dyck_sweep(al, 2 * n - 1) + hankel_from_sfraction(s, n))\n",
        "tests/test_pipeline.py::test_zq_compare_slot_width_bounds_every_returned_entry_random",
    ),
    Fault(
        "slot-count-without-the-prodcinv-products",
        "src/cfmoments/pipeline.py",
        "    top = max([top, max(C[-1])]"
        " + [sum([x * y for x, y in zip(c, most)]) for c in C[:-1]])\n",
        "    top = max(top, max(C[-1]))\n",
        "tests/test_pipeline.py::test_zq_slot_width_counts_the_products_of_prodcinv",
    ),
    Fault(
        "staircase-skips-zero-products",
        "src/cfmoments/pipeline.py",
        "        s = s + v[j - 1] * a[j - 1]\n",
        "        s = s + v[j - 1] * a[j - 1] if v[j - 1] else s\n",
        "tests/test_pipeline.py::test_staircase_row_operator_is_generation_in_exact_type",
    ),
    Fault(
        "peel-without-its-d-power",
        "src/cfmoments/ring.py",
        "    for b, k in ((c, e), (d, f)):\n",
        "    for b, k in ((c, e),):\n",
        "tests/test_ring.py::test_grade_and_peel_match_qrat_make_random",
    ),
    Fault(
        "reduced-without-its-sign-flip",
        "src/cfmoments/ring.py",
        "    if _zq_coeffs(d)[-1] < 0:\n        n, d = -n, -d\n",
        "",
        "tests/test_ring.py::test_qrat_equality_is_canonical_and_agrees_with_hash_random",
    ),
    Fault(
        "compare-skips-the-inverse-row-check",
        "src/cfmoments/pipeline.py",
        "    if last != [0] * (n - 1) + [1]:\n",
        "    if False:\n",
        "tests/test_pipeline.py::"
        "test_compare_names_its_stage_and_size_when_c_and_its_inverse_disagree",
    ),
    Fault(
        "j-recurrence-drops-lambda-after-the-first-row",
        "src/cfmoments/pipeline.py",
        "        if i:\n            for k, c in enumerate(rows[i - 1]):\n",
        "        if i == 1:\n            for k, c in enumerate(rows[i - 1]):\n",
        "tests/test_pipeline.py::test_build_m_inverts_op_coeff",
    ),
    Fault(
        "int-sweep-slot-check-always-passes",
        "src/cfmoments/triangle.py",
        "                if (\n                    bn > most\n",
        "                if False and (\n                    bn > most\n",
        "tests/test_triangle.py::test_hankel_sweep_matches_the_polynomial_loop_random",
    ),
    Fault(
        "graded-without-the-gcd",
        "src/cfmoments/ring.py",
        "            c = c * _zq_exact_div(den, _zq_gcd(den, c**j))\n",
        "            c = c * den\n",
        "tests/test_pipeline.py::test_graded_compare_over_rational_functions",
    ),
    Fault(
        "peel-memo-keyed-on-the-value-alone",
        "src/cfmoments/pipeline.py",
        "        key = (v, e)\n",
        "        key = v\n",
        "tests/test_pipeline.py::test_a_field_compare_divides_each_distinct_entry_back_once",
    ),
    Fault(
        "field-compare-divides-production-matrices-as-triangles",
        "src/cfmoments/pipeline.py",
        "    prodN, prodM, prodCinv = (unscale(m, 1) for m in",
        "    prodN, prodM, prodCinv = (unscale(m, 0) for m in",
        "tests/test_pipeline.py::test_evaluation_at_an_integer_commutes_with_compare",
    ),
    Fault(
        "run-maps-only-value-errors-to-exit-3",
        "src/cfmoments/cli.py",
        "    except (ValueError, ArithmeticError) as e:\n",
        "    except ValueError as e:\n",
        "tests/test_cli.py::test_any_library_failure_exits_3_with_one_line",
    ),
    Fault(
        "gen-prints-a-result-whose-diagnostics-failed",
        "src/cfmoments/cli.py",
        "    if failed:\n"
        '        raise ArithmeticError(f"compare at size {args.size}: diagnostic {failed} failed")\n',
        "",
        "tests/test_cli.py::test_gen_refuses_a_result_whose_diagnostics_failed",
    ),
]


def _copy(dest):
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.pyc")
    shutil.copytree(ROOT, dest, ignore=ignore)


def _plant(tree, fault):
    path = tree / fault.path
    text = path.read_text(encoding="utf-8")
    if text.count(fault.old) != 1:
        return False
    path.write_text(text.replace(fault.old, fault.new), encoding="utf-8")
    return True


def _pytest(tree, args, timeout):
    """('pass' | 'fail' | 'timeout', first failing test id or '', seconds)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *args]
    start = time.perf_counter()
    try:
        done = subprocess.run(
            cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return "timeout", "", time.perf_counter() - start
    seconds = time.perf_counter() - start
    if done.returncode == 0:
        return "pass", "", seconds
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    return "fail", first.group(1) if first else f"exit {done.returncode}", seconds


def _describe(outcome, test, seconds):
    return f"{outcome} {test}".strip() + f" ({seconds:.1f} s)"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="faults to plant (default all)")
    parser.add_argument(
        "--timeout", type=float, default=120.0, help="seconds per pytest run (default 120)"
    )
    args = parser.parse_args(argv)
    known = {f.name for f in FAULTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown fault(s): {', '.join(unknown)}")
    missed = 0
    for fault in FAULTS:
        if args.names and fault.name not in args.names:
            continue
        with tempfile.TemporaryDirectory(prefix="planted-") as tmp:
            tree = pathlib.Path(tmp) / "repo"
            _copy(tree)
            if not _plant(tree, fault):
                print(f"stale    {fault.name}: the text to replace is not in {fault.path} once")
                missed += 1
                continue
            alone = _pytest(tree, [fault.test], args.timeout)
            tier1 = _pytest(tree, ["-x", "--continue-on-collection-errors"], args.timeout)
        caught = alone[0] != "pass" or tier1[0] != "pass"
        missed += not caught
        print(
            f"{'caught' if caught else 'missed':8} {fault.name}: named test "
            f"{_describe(*alone)}; tier-1 {_describe(*tier1)}",
            flush=True,
        )
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
