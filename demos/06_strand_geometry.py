"""Strand geometry: inflation, confinement, and the Tribonacci fractal tile.

A strand follows a word through the integer lattice from an origin, one unit
segment per letter. Inflating a strand with the substitution multiplies
vertices by the count matrix and refines each segment into its image chain. For irreducible
Pisot substitutions the space splits into an expanding line and a contracting
complement; iterated strands stay inside a slab of bounded contracting norm
(the envelope printed below), inflation conjugates translation along the
expanding line with scaling by the dilation, and the stable projections of a
deep Tribonacci strand trace the classic fractal tile (exported as SVG, with
one color per letter, plus the raw CSV).
"""

from pathlib import Path

from substrand import (
    FixedPointStream,
    Substitution,
    abelianization_matrix,
    build_strand,
    classify,
    invariant_splitting,
    max_stable_delta_norm,
    stability_scan,
    substitute_strand,
    write_scan_csv,
    write_stable_scatter_svg,
)


def segments(strand):
    """(initial vertex, letter) of each unit segment."""
    return [(tuple(v), letter) for v, letter in zip(strand.vertices().tolist(), strand.word)]


def main():
    fib = Substitution({"a": "ab", "b": "a"})
    splitting = invariant_splitting(classify(fib), abelianization_matrix(fib))
    print("Fibonacci expanding direction:", splitting.expanding_direction.round(6))
    print("stable basis (one line):", splitting.stable_basis.ravel().round(6))

    seed = build_strand(fib.alphabet.word("a"))
    print("inflating a single segment twice:")
    step = substitute_strand(fib, seed)
    print("  once :", segments(step))
    step = substitute_strand(fib, step)
    print("  twice:", segments(step))

    scan = stability_scan(fib, seed, 12, splitting)
    print("stable-norm envelope per iteration:")
    print("  ", [round(e, 4) for e in scan.envelopes])
    print("empirical confinement radius (after burn-in):", round(scan.empirical_radius, 6))
    print("conjugation identity max error:", f"{scan.conjugation_max_error:.2e}")
    print()

    pair = Substitution({"a": "aab", "b": "ba"})
    sp = invariant_splitting(classify(pair), abelianization_matrix(pair))
    x = FixedPointStream(pair, "a")
    y = FixedPointStream(pair, "b")
    for horizon in (10_000, 100_000):
        print(
            f"binary Pisot pair: max stable norm of prefix differences below {horizon}:",
            round(max_stable_delta_norm(sp, x, y, horizon), 6),
        )
    print()

    tri = Substitution({"a": "ab", "b": "ac", "c": "a"})
    sp3 = invariant_splitting(classify(tri), abelianization_matrix(tri))
    scan3 = stability_scan(tri, build_strand(tri.alphabet.word("a")), 14, sp3)
    print("Tribonacci envelope:", [round(e, 3) for e in scan3.envelopes])
    out_dir = Path(__file__).resolve().parent / "output"
    out_dir.mkdir(exist_ok=True)
    svg_path = out_dir / "tribonacci_tile.svg"
    csv_path = out_dir / "tribonacci_scan.csv"
    with open(svg_path, "w") as fh:
        points = write_stable_scatter_svg(scan3.strands[-1], sp3, fh)
    with open(csv_path, "w") as fh:
        rows = write_scan_csv(scan3, sp3, fh)
    print(f"wrote {points} projected vertices to {svg_path}")
    print(f"wrote {rows} segment rows to {csv_path}")


if __name__ == "__main__":
    main()
