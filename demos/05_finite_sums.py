"""Finite-sums (IP) witnesses inside occurrence sets.

From the coincidence witness of the binary Pisot pair, the path construction
produces generators 23 and 1097; the automaton path picture guarantees not
just the generators but every sum of distinct generators is an occurrence of
the target letter, which the verifier re-checks letter by letter, reading each
letter off the prefix automaton without expanding the fixed point. A
backtracking search then finds small generator families directly inside the
Fibonacci occurrence set, with all subset sums re-verified.
"""

from substrand import (
    FixedPointStream,
    Substitution,
    build_fs_family,
    decode_path,
    find_strong_coincidence,
    occurrences,
    search_ip_witness,
    verify_finite_sums,
)


def main():
    pair = Substitution({"a": "aab", "b": "ba"})
    x = FixedPointStream(pair, "a")
    y = FixedPointStream(pair, "b")
    witness = find_strong_coincidence(x, y, 1000).witness
    print(f"witness: k={witness.index}, prefixes {str(witness.prefix_x)!r} ~ {str(witness.prefix_y)!r}")

    family = build_fs_family(pair, witness, 3)
    prov = family.provenance
    print(f"power used: {prov.power}, connector {str(prov.connector)!r}, target {prov.target_letter!r}")
    print("generators:", family.generators)
    sigma = pair.power(prov.power)
    for path, value in zip(prov.paths, family.generators):
        print(f"  path {path.to_json_dict()['labels']} decodes to {decode_path(sigma, path, realize_cap=None).value} = {value}")

    horizon = sum(family.generators) + 2
    verification = verify_finite_sums(family, pair, "a", "b", horizon, max_subset_size=3)
    print(f"all subset sums up to size 3 below horizon {horizon}: {verification.verdict}")
    print()

    fib = Substitution({"a": "ab", "b": "a"})
    fx = FixedPointStream(fib, "a")
    occ_a = occurrences(fx, "a", 20)
    print("Fibonacci occurrences of 'a' below 20:", tuple(occ_a.positions))
    found = search_ip_witness(occ_a, 3)
    print("searched depth-3 family:", found.generators)
    sums = sorted(
        sum(found.generators[i] for i in range(3) if mask >> i & 1)
        for mask in range(1, 8)
    )
    print("its 7 subset sums:", sums)
    print("verified:", verify_finite_sums(found, fib, "a", "a", 20, 3).verdict)


if __name__ == "__main__":
    main()
