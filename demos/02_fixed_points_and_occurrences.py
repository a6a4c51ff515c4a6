"""Fixed points, occurrence sets, and return gaps.

Expands the Fibonacci fixed point lazily, lists where short factors occur,
and shows that the largest return gap of each factor stops growing as the
horizon increases: the desk-scale signature of uniform recurrence. The
factor "bb" never occurs, so its occurrence set stays empty at every
horizon.
"""

from substrand import (
    FixedPointStream,
    Substitution,
    list_periodic_seeds,
    max_return_gap,
    occurrences,
)


def main():
    fib = Substitution({"a": "ab", "b": "a"})
    print("periodic seeds of Fibonacci:", list_periodic_seeds(fib))
    x = FixedPointStream(fib, "a")
    print("prefix of length 34:", x.prefix_text(34))
    print()

    for factor in ("a", "b", "ab", "aba", "abaab", "bb"):
        occ = occurrences(x, factor, 60)
        shown = ", ".join(map(str, occ.positions[:12]))
        more = " ..." if len(occ) > 12 else ""
        print(f"occurrences of {factor!r} below 60: {{{shown}{more}}}")
    print()

    print("largest return gap per factor, horizons 10^3 / 10^4 / 10^5:")
    for factor in ("a", "b", "ab", "aab", "abaab"):
        gaps = [
            max_return_gap(occurrences(x, factor, horizon))
            for horizon in (1_000, 10_000, 100_000)
        ]
        stable = "stable" if len(set(gaps)) == 1 else "still growing"
        print(f"  {factor!r:9} gaps {gaps}  -> {stable}")

    # a letter with a two-step seed: the working substitution is the square
    swap = Substitution({"a": "b", "b": "ab"})
    print()
    print("seeds of a->b, b->ab:", list_periodic_seeds(swap))
    stream = FixedPointStream(swap, "a")
    print("period-2 point at 'a':", stream.prefix_text(30))


if __name__ == "__main__":
    main()
