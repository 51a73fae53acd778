"""Tour: moving between moments, coefficients, and Hankel determinants.

Shows the recovery of the coefficients from the moments on a few
sequences, the two equivalent continued-fraction parameterizations, the
two Hankel routes, and what breakdown looks like when a determinant
vanishes.

    python3 demos/moment_roundtrip_tour.py
"""

import random

from cfmoments import (
    QDBreakdownError,
    SFractionCoeffs,
    hankel_from_sfraction,
    hankel_transform,
    moments_from_jfraction,
    moments_from_sfraction,
    qd_sfraction_from_moments,
    render,
    s_to_j,
)


def roundtrip(label, coeffs):
    a = SFractionCoeffs(coeffs)
    mu = moments_from_sfraction(a, len(coeffs) + 1)
    back = qd_sfraction_from_moments(mu)
    print(f"{label}:")
    print("  coefficients:", " ".join(render(v) for v in a.terms))
    print("  moments:     ", " ".join(render(v) for v in mu))
    assert list(back.terms) == list(a.terms)
    print("  recovered:   ", " ".join(render(v) for v in back.terms))
    print()


def main():
    roundtrip("constant ones", [1] * 6)
    roundtrip("alternating 1, 2", [1, 2, 1, 2, 1, 2])
    roundtrip("arithmetic 1..6", [1, 2, 3, 4, 5, 6])

    # the one-parameter and two-parameter forms give identical moments
    a = SFractionCoeffs([1, 3, 2, 2, 4, 1, 2])
    j = s_to_j(a)
    print("two-parameter form of 1,3,2,2,4,1,2:")
    print("  diagonal:   ", " ".join(render(v) for v in j.b))
    print("  subdiagonal:", " ".join(render(v) for v in j.lam))
    assert moments_from_sfraction(a, 7) == moments_from_jfraction(j, 7)
    print("  both parameterizations agree on 7 moments: checked")
    print()

    # Hankel determinants once from the moments by the fraction-free
    # three-term recurrence (Bareiss elimination only when a leading minor
    # vanishes; O(n^2)), once as a product of coefficient pairs; they must
    # match for any positive sequence
    rng = random.Random(7)
    a = SFractionCoeffs([rng.randrange(1, 5) for _ in range(8)])
    mu = moments_from_sfraction(a, 9)
    dets = hankel_transform(mu, 5)
    prods = hankel_from_sfraction(a, 5)
    print("random positive sequence:", " ".join(render(v) for v in a.terms))
    print("  Hankel by determinant:", dets)
    print("  Hankel by product:    ", prods)
    assert dets == prods
    print()

    # recovery fails when an interior determinant vanishes: h_1 = 0
    # here, so no one-parameter form has these moments and a_3 does not
    # exist
    bad = [1, 1, 1, 2, 5, 14]
    print("moments with a vanishing interior determinant:", bad)
    try:
        qd_sfraction_from_moments(bad)
    except QDBreakdownError as e:
        print(f"  breakdown as expected: {e}")


if __name__ == "__main__":
    main()
