"""Strong coincidence versus proximality on three contrasting pairs.

The binary Pisot pair (a->aab, b->ba) has a witness at index 3: the length-3
prefixes "aab" and "baa" are abelian equivalent and both fixed points
continue with the letter a. Thue-Morse fails in the strongest way: its two
fixed points disagree at every single coordinate, and the balanced-pair
closure proves it: the pairs (ab, ba) and (ba, ab) map onto each other and
no pair (c, c) ever appears. The uniform length-4 pair
(a->aaab, b->bbab) separates the two notions: the scan finds ever-growing
agreement windows (proximality evidence) yet no coincidence witness ever
appears; its difference-vector set keeps all three values without a
simultaneous letter match at a zero.
"""

from substrand import (
    FixedPointStream,
    Substitution,
    balanced_pair_closure,
    delta_sequence,
    delta_value_set,
    find_strong_coincidence,
    proximality_scan,
    validate_witness,
)


def pair_streams(rules):
    sub = Substitution(rules)
    return sub, FixedPointStream(sub, "a"), FixedPointStream(sub, "b")


def main():
    print("== binary Pisot pair a->aab, b->ba")
    _, x, y = pair_streams({"a": "aab", "b": "ba"})
    print("x:", x.prefix_text(24))
    print("y:", y.prefix_text(24))
    print("first difference vectors:", delta_sequence(x, y, 6).values)
    verdict = find_strong_coincidence(x, y, 100_000)
    w = verdict.witness
    print(f"witness: k={w.index} letter={w.letter!r} prefixes {str(w.prefix_x)!r} ~ {str(w.prefix_y)!r}")
    print("re-validated:", validate_witness(x, y, w))
    values = delta_value_set(x, y, 100_000)
    print("difference-vector set below 1e5:", sorted(values))
    print()

    print("== Thue-Morse a->ab, b->ba")
    _, tx, ty = pair_streams({"a": "ab", "b": "ba"})
    tv = find_strong_coincidence(tx, ty, 100_000)
    print("witness:", tv.witness, "| set:", sorted(tv.delta_values), "| stabilized:", tv.stabilized)
    closure = balanced_pair_closure(tx, ty)
    pairs = ", ".join(f"({u}, {v})" for u, v in closure.pairs)
    print(f"balanced-pair closure: {closure.verdict}, {len(closure.pairs)} pairs {pairs},",
          "D values over every k:", sorted(closure.delta_values))
    agree = proximality_scan(tx, ty, 1, 10_000)
    print("agreement windows of any length below 1e4:", len(agree.windows), "->", agree.verdict)
    print()

    print("== uniform pair a->aaab, b->bbab (proximal, never coincident)")
    _, ux, uy = pair_streams({"a": "aaab", "b": "bbab"})
    uv = find_strong_coincidence(ux, uy, 100_000)
    print("witness below 1e5:", uv.witness)
    for horizon in (64, 1024, 16_384):
        evidence = proximality_scan(ux, uy, 4, horizon)
        longest = max((l for _, l in evidence.windows), default=0)
        print(f"horizon {horizon:6}: longest window {longest:6}, verdict {evidence.verdict}")


if __name__ == "__main__":
    main()
