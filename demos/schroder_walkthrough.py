"""Walkthrough: the alternating coefficient sequence 1, 2, 1, 2, ...

The moment sequence is 1, 1, 3, 11, 45, 197, ... and the first matrix
turns out to interleave the columns of the second with a partner array.
The script rebuilds that interleaving, checks the parity row recurrences
inside the connecting product, and closes with the Hankel determinants,
which are pure powers of two.

    python3 demos/schroder_walkthrough.py
"""

from cfmoments import (
    RiordanPair,
    SFractionCoeffs,
    TruncatedSeries,
    compare,
    hankel_transform,
    interleave_columns,
    moments_from_sfraction,
    render,
    riordan_matrix,
    schroder_column,
)

N_SIZE = 6


def show(label, rows):
    cells = [[render(v) for v in row] for row in rows]
    width = max(len(c) for row in cells for c in row)
    print(f"{label}:")
    for row in cells:
        print("  " + "  ".join(c.rjust(width) for c in row))
    print()


def main():
    a = SFractionCoeffs([1 if k % 2 == 0 else 2 for k in range(2 * N_SIZE + 2)])
    mu = moments_from_sfraction(a, 2 * N_SIZE - 1)
    print("coefficients: 1 2 1 2 ...")
    print("moments:", " ".join(str(v) for v in mu[:8]))
    print()

    r = compare(a, N_SIZE)
    show("first matrix", r.N.rows)
    show("second matrix", r.M.rows)
    show("connecting product", r.C.rows)
    show("inverse of the first matrix", r.Ninv.rows)

    # the first matrix weaves the second together with a partner array
    # built from the same quadratic series pair
    partner = riordan_matrix(
        RiordanPair(
            TruncatedSeries(schroder_column(1, N_SIZE + 1)[1:]),
            TruncatedSeries(schroder_column(1, N_SIZE)),
        ),
        N_SIZE,
    )
    show("the partner array", partner.rows)
    assert interleave_columns(r.M, partner) == r.N
    print("interleaving the second matrix with the partner gives the first: checked")
    print()

    # inside the product, even rows add the upper-left and upper
    # neighbours; odd rows double the upper one
    for i in range(2, N_SIZE):
        w = 1 if i % 2 == 0 else 2
        for j in range(1, i):
            assert r.C.rows[i][j] == r.C.entry(i - 1, j - 1) + w * r.C.entry(i - 1, j)
    print("parity recurrences in the product rows: checked")
    print()

    show("production of the inverted product", r.prodCinv.rows)

    dets = hankel_transform(mu, N_SIZE)
    print("Hankel determinants:", dets)
    assert dets == [2 ** (k * (k + 1) // 2) for k in range(N_SIZE)]
    print("they are 2^(k(k+1)/2): checked")


if __name__ == "__main__":
    main()
