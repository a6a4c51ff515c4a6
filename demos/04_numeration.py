"""The prefix-automaton numeration in action.

Prints the automaton of the Fibonacci substitution, lists the first paths in
their total order (values 0, 1, 2, ...), and shows the two classical
degenerations: the greedy Zeckendorf expansion (Fibonacci weights, never two
adjacent) and plain binary digits for a uniform length-2 substitution.
The two-scale pair shows how the system depends on the chosen fixed point:
5 has one path from each seed, and both happen to share their terminal
vertex, so 5 is a synchronizing value; the scan then hunts for runs of
consecutive synchronizing values.
"""

from substrand import (
    Substitution,
    decode_path,
    encode_integer,
    enumerate_paths,
    format_path,
    prefix_automaton,
    synchronizing_scan,
)


def main():
    fib = Substitution({"a": "ab", "b": "a"})
    print("Fibonacci automaton edges:")
    for edge in prefix_automaton(fib)["edges"]:
        label = edge["label"] or "e"
        print(f"  {edge['source']} --{label}--> {edge['target']}")
    print()

    print("first 9 paths at 'a' in increasing order:")
    for k, path in enumerate(enumerate_paths(fib, "a", 9)):
        decoded = decode_path(fib, path)
        print(f"  {k}: {format_path(path):16} value {decoded.value}, prefix {str(decoded.realized)!r}")
    print()

    print("Zeckendorf weights used for 1..20 (levels never adjacent):")
    for value in range(1, 21):
        path = encode_integer(fib, "a", value)
        n = len(path.labels) - 1
        weights = [fib.image_length(u, n - i) for i, u in enumerate(path.labels) if len(u)]
        print(f"  {value:3} = {' + '.join(map(str, sorted(weights, reverse=True)))}")
    print()

    tm = Substitution({"a": "ab", "b": "ba"})
    print("uniform length-2 substitution: label lengths are binary digits")
    for value in (5, 12, 1000):
        path = encode_integer(tm, "a", value)
        digits = "".join(str(len(u)) for u in path.labels)
        print(f"  {value} -> digits {digits} (binary {bin(value)[2:]})")
    print()

    two = Substitution({"a": "aab", "b": "bbaab"})
    pa, pb = encode_integer(two, "a", 5), encode_integer(two, "b", 5)
    da, db = decode_path(two, pa), decode_path(two, pb)
    print("two representations of 5 in the two-scale system:")
    print(f"  {format_path(pa):12} realizes {str(da.realized)!r}, terminal {da.terminal}")
    print(f"  {format_path(pb):12} realizes {str(db.realized)!r}, terminal {db.terminal}")
    scan = synchronizing_scan(two, "a", "b", (0, 200))
    values = [e.value for e in scan.entries]
    print(f"synchronizing values in [0, 200]: {len(values)} of 201, longest run {scan.max_run}")
    print("  first few:", values[:15])


if __name__ == "__main__":
    main()
