"""Acceptance gate: one test per shipped criterion, one line each under
``pytest -v``.

Expected values here are written out literally on purpose, even where a
pipeline registry holds the same constants: the gate must not share its
oracle with the code under test.
"""

import pathlib
import random

from cfmoments.cfrac import (
    SFractionCoeffs,
    hankel_from_sfraction,
    moments_from_jfraction,
    moments_from_sfraction,
    qd_sfraction_from_moments,
    s_to_j,
    two_power_chain_coeff,
)
from cfmoments.cli import parse_matrix_json, run
from cfmoments.pipeline import (
    build_M,
    build_N_via_behead,
    build_N_via_rescale,
    compare,
    op_coeff_triangle,
    q_binomial,
    verify_example,
)
from cfmoments.ring import QPoly, exact_div, q
from cfmoments.series import (
    RiordanPair,
    TruncatedSeries,
    catalan_series,
    interleave_columns,
    riordan_matrix,
    schroder_column,
    series_from_rational,
)
from cfmoments.triangle import (
    ProductionMatrix,
    Triangle,
    generate,
    hankel_det,
    hankel_transform,
    invert,
    production_of,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_criterion_1_catalan_example():
    """Constant sequence, size 8: moments, three Riordan identities, and
    the tridiagonal second production matrix."""
    n = 8
    r = compare(SFractionCoeffs([1] * 16), n)
    assert list(r.N.column(0)) == [1, 1, 2, 5, 14, 42, 132, 429]

    c = catalan_series(n)
    xc = TruncatedSeries((0,) + c.coeffs[:-1])
    xc2 = TruncatedSeries((0,) + tuple((c * c).coeffs[:-1]))
    assert r.N == riordan_matrix(RiordanPair(c, xc), n)
    assert r.M == riordan_matrix(RiordanPair(c, xc2), n)
    assert r.C == riordan_matrix(
        RiordanPair(
            TruncatedSeries([1], n), series_from_rational([0, 1], [1, -1], n)
        ),
        n,
    )

    for i, row in enumerate(r.prodM.rows):
        want = [0] * (i + 2)
        if i == 0:
            want[0] = want[1] = 1
        else:
            want[i - 1], want[i], want[i + 1] = 1, 2, 1
        assert list(row) == want


def test_criterion_2_geometric_symbolic():
    """Geometric q-powers, size 5: the displayed polynomial entries of
    the first matrix, the product, and the second production matrix."""
    a = SFractionCoeffs([q**k if k else 1 for k in range(12)])
    r = compare(a, 5)
    p = QPoly.make
    assert r.N.rows[3] == (p((1, 2, 1, 1)), p((1, 2, 1, 1)), p((1, 1, 1)), 1)
    assert r.N.rows[2] == (p((1, 1)), p((1, 1)), 1)

    assert r.prodM.rows[0] == (1, 1)
    assert r.prodM.rows[1] == (q, q + q**2, 1)
    assert r.prodM.rows[2] == (0, q**5, q**3 + q**4, 1)
    assert r.prodM.rows[3][2] == q**9

    # the displayed product region runs one row past size 5
    C = compare(a, 6).C
    assert C.rows[0] == (1,)
    assert C.rows[1] == (0, 1)
    assert C.rows[2] == (0, q**2, 1)
    assert C.rows[3] == (0, q**5, q**3 + q**4, 1)
    assert C.rows[4] == (0, q**9, q**7 + q**8 + q**9, q**4 + q**5 + q**6, 1)
    assert C.rows[5][1] == q**14
    assert C.rows[5][2] == q**12 + q**13 + q**14 + q**15
    assert C.rows[5][4] == q**5 + q**6 + q**7 + q**8


def test_criterion_3_geometric_at_two():
    """Geometric sequence at q=2, size 6: both matrices and the product
    against the printed integers, with the one discrepant entry reported
    rather than matched."""
    r = compare(SFractionCoeffs([2**k for k in range(12)]), 6)
    assert r.M.rows == (
        (1,),
        (1, 1),
        (3, 7, 1),
        (17, 77, 31, 1),
        (171, 1471, 1333, 127, 1),
        (3113, 51653, 98487, 21717, 511, 1),
    )
    assert r.C.rows == (
        (1,),
        (0, 1),
        (0, 4, 1),
        (0, 32, 24, 1),
        (0, 512, 896, 112, 1),
        (0, 16384, 61440, 17920, 480, 1),
    )
    printed_N = (
        (1,),
        (1, 1),
        (3, 3, 1),
        (17, 17, 7, 1),
        (171, 171, 77, 51, 1),
        (3113, 3113, 1471, 325, 31, 1),
    )
    for i, row in enumerate(printed_N):
        for jj, v in enumerate(row):
            if (i, jj) == (4, 3):
                continue
            assert r.N.rows[i][jj] == v
    assert r.N.rows[4][3] == 15  # printed 51; the symbolic entry gives 1+q+q^2+q^3

    rep = verify_example("qcase", 6, q_value=2)
    assert rep.passed
    entry = {c.name: c for c in rep.checks}["first-matrix-entry-4-3"]
    assert entry.status == "documented-discrepancy"
    assert entry.expected == "51" and entry.actual == "15"


def test_criterion_4_two_power_chain():
    """Moment chain 2^(m(m+3)/2): coefficient recovery, closed form, the
    reduced production matrix, Hankel agreement, and the reported
    index-shift discrepancy."""
    chain = [2 ** (m * (m + 3) // 2) for m in range(10)]
    assert chain[:6] == [1, 4, 32, 512, 16384, 1048576]
    s = qd_sfraction_from_moments(chain)
    assert list(s.terms)[:5] == [4, 4, 16, 24, 64]
    assert list(s.terms) == [two_power_chain_coeff(m) for m in range(9)]

    r = compare(SFractionCoeffs([2**k for k in range(16)]), 8)
    reduced = Triangle([row[1:] for row in r.C.rows[1:]])
    prod = production_of(reduced)
    assert [prod.rows[i][i] for i in range(6)] == [4, 20, 88, 368, 1504, 6080]
    assert [prod.rows[i][i - 1] for i in range(1, 6)] == [
        16,
        384,
        7168,
        122880,
        2031616,
    ]

    dets = hankel_transform(chain, 5)
    prods = hankel_from_sfraction(SFractionCoeffs(list(s.terms)[:8]), 5)
    assert dets == prods
    assert dets == [1, 16, 98304, 4329327034368, 23428840713137027316449280]

    rep = verify_example("qcase", 6, q_value=2)
    shift = {c.name: c for c in rep.checks}["chain-hankel-reference-indexing"]
    assert shift.status == "documented-discrepancy"


def test_criterion_5_binomial_factorization():
    """Size 6 product triangle of the geometric sequence: dividing each
    interior entry by its fixed q-power leaves a Gaussian binomial times
    the shifted power q^((k-1)(i-k))."""
    a = SFractionCoeffs([q**k if k else 1 for k in range(12)])
    C = compare(a, 6).C
    for i in range(1, 6):
        for k in range(1, i + 1):
            d = i - k
            lift = (d + 2) * (d + 1) // 2 - 1
            assert exact_div(C.rows[i][k], q**lift) == q_binomial(i - 1, d) * q ** (
                (k - 1) * d
            )


def test_criterion_6_schroder_example():
    """Alternating 1,2 sequence, size 6: printed matrices, interleaved
    reconstruction, parity recurrences, and the product-inverse
    production pattern."""
    a = SFractionCoeffs([1 if k % 2 == 0 else 2 for k in range(14)])
    assert moments_from_sfraction(a, 7) == [1, 1, 3, 11, 45, 197, 903]
    r = compare(a, 6)
    assert r.N.rows == (
        (1,),
        (1, 1),
        (3, 3, 1),
        (11, 11, 4, 1),
        (45, 45, 17, 6, 1),
        (197, 197, 76, 31, 7, 1),
    )
    assert r.M.rows == (
        (1,),
        (1, 1),
        (3, 4, 1),
        (11, 17, 7, 1),
        (45, 76, 40, 10, 1),
        (197, 353, 216, 72, 13, 1),
    )
    assert r.C.rows == (
        (1,),
        (0, 1),
        (0, 1, 1),
        (0, 2, 3, 1),
        (0, 2, 5, 4, 1),
        (0, 4, 12, 13, 6, 1),
    )
    assert invert(r.N).rows == (
        (1,),
        (-1, 1),
        (0, -3, 1),
        (0, 1, -4, 1),
        (0, 0, 7, -6, 1),
        (0, 0, -1, 11, -7, 1),
    )

    partner = riordan_matrix(
        RiordanPair(
            TruncatedSeries(schroder_column(1, 7)[1:]),
            TruncatedSeries(schroder_column(1, 6)),
        ),
        6,
    )
    assert interleave_columns(r.M, partner) == r.N

    for i in range(2, 6):
        w = 1 if i % 2 == 0 else 2
        for jj in range(1, i):
            assert r.C.rows[i][jj] == r.C.entry(i - 1, jj - 1) + w * r.C.entry(
                i - 1, jj
            )

    assert [r.prodCinv.rows[i][i] for i in range(5)] == [0, -1, -2, -1, -2]
    assert all(row[i + 1] == 1 for i, row in enumerate(r.prodCinv.rows))


def _cofactor_det(m):
    if len(m) == 1:
        return m[0][0]
    total = 0
    for jj in range(len(m)):
        minor = [row[:jj] + row[jj + 1 :] for row in m[1:]]
        term = m[0][jj] * _cofactor_det(minor)
        total = total + term if jj % 2 == 0 else total - term
    return total


def test_criterion_7_property_suites():
    """Randomized exact-equality suites: route equivalence (200), dual
    second-matrix construction (200), coefficient roundtrip (100),
    one/two-parameter moment agreement (100), generate/production
    roundtrip (100), Hankel determinant vs product (50) with a cofactor
    oracle on small orders."""
    rng = random.Random(20260822)

    for _ in range(200):
        n = rng.randrange(2, 11)
        a = SFractionCoeffs([rng.randrange(1, 6) for _ in range(n)])
        N, P = build_N_via_behead(a, n)
        assert N == build_N_via_rescale(a, n)
        assert P == production_of(N)

    for _ in range(200):
        n = rng.randrange(2, 11)
        a = SFractionCoeffs([rng.randrange(1, 6) for _ in range(2 * n)])
        M, P = build_M(a, n)
        assert M == invert(op_coeff_triangle(s_to_j(a), n))
        assert P == production_of(M)

    for _ in range(100):
        m = rng.randrange(2, 9)
        a = SFractionCoeffs([rng.randrange(1, 5) for _ in range(m)])
        mu = moments_from_sfraction(a, m + 1)
        assert list(qd_sfraction_from_moments(mu).terms) == list(a.terms)

    for _ in range(100):
        m = rng.randrange(2, 10)
        a = SFractionCoeffs(
            [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(m)]
        )
        count = m + 1 if m % 2 else m
        assert moments_from_sfraction(a, count) == moments_from_jfraction(
            s_to_j(a), count
        )

    for _ in range(100):
        k = rng.randrange(1, 6)
        rows = [
            [rng.randrange(-3, 4) for _ in range(i + 1)] + [rng.choice([1, -1, 2])]
            for i in range(k)
        ]
        P = ProductionMatrix(rows)
        assert production_of(generate(P, k + 1)) == P

    for _ in range(50):
        n = rng.randrange(2, 7)
        a = SFractionCoeffs([rng.randrange(1, 5) for _ in range(2 * (n - 1))])
        mu = moments_from_sfraction(a, 2 * n - 1)
        dets = hankel_transform(mu, n)
        assert dets == hankel_from_sfraction(a, n)
        for order in range(min(n, 5)):
            box = [[mu[i + jj] for jj in range(order + 1)] for i in range(order + 1)]
            assert hankel_det(mu, order) == _cofactor_det(box)


_GOLDEN_SWEEP = [
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


def test_criterion_8_cli_contract(capsys, monkeypatch):
    """Golden files for every subcommand on all three examples in all
    three formats, JSON round-trips, and the documented exit codes."""
    sweep = [
        (name, argv, fmt)
        for name, argv in _GOLDEN_SWEEP
        for fmt in ("pretty", "json", "csv")
    ]
    sweep += [
        ("gen-all-catalan", ["gen", "--spec", "const:1", "--size", "5"], fmt)
        for fmt in ("pretty", "json")
    ]
    for name, argv, fmt in sweep:
        rc = run(argv + ["--format", fmt])
        out = capsys.readouterr().out
        assert rc == 0, (name, fmt)
        assert out == (GOLDEN / f"{name}-{fmt}.txt").read_text(), (name, fmt)

    rc = run(["gen", "--spec", "qpow", "--size", "5", "--what", "N", "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    a = SFractionCoeffs([q**k if k else 1 for k in range(10)])
    assert parse_matrix_json(out) == compare(a, 5).N

    assert run(["moments", "--spec", "const:1", "--count", "3"]) == 0
    assert run(["moments", "--spec", "const:1", "--count", "0"]) == 2
    assert run(["gen", "--spec", "const:2", "--size", "4"]) == 3
    capsys.readouterr()

    from cfmoments.pipeline import CheckResult, VerifyReport

    failing = VerifyReport("catalan", 6, None, [CheckResult("x", "fail")])
    monkeypatch.setattr("cfmoments.cli.verify_example", lambda *a, **k: failing)
    assert run(["verify", "--example", "catalan"]) == 1
    capsys.readouterr()
