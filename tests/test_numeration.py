import random

import pytest
from hypothesis import given, settings, strategies as st

from substrand import (
    FixedPointStream,
    InputError,
    PathRepresentation,
    Substitution,
    Word,
    build_prefix_graph,
    decode_path,
    encode_integer,
    enumerate_paths,
    format_path,
    letter_at,
    list_periodic_seeds,
    parse_path,
    synchronizing_scan,
)


def _edges(graph):
    return [(e["source"], e["target"], e["label"]) for e in graph.to_json_dict()["edges"]]


def test_fibonacci_graph(fibonacci):
    g = build_prefix_graph(fibonacci)
    assert _edges(g) == [("a", "a", ""), ("a", "b", "a"), ("b", "a", "")]


def test_two_letter_graph(aab_bbaab):
    g = build_prefix_graph(aab_bbaab)
    assert _edges(g) == [
        ("a", "a", ""),
        ("a", "a", "a"),
        ("a", "b", "aa"),
        ("b", "b", ""),
        ("b", "b", "b"),
        ("b", "a", "bb"),
        ("b", "a", "bba"),
        ("b", "b", "bbaa"),
    ]


def test_degenerate_single_loop():
    g = build_prefix_graph(Substitution({"a": "a"}))
    assert _edges(g) == [("a", "a", "")]
    with pytest.raises(InputError):
        encode_integer(g, "a", 1)  # no infinite fixed point to index into


def test_decode_examples(fibonacci, aab_bbaab):
    g = build_prefix_graph(fibonacci)
    A = fibonacci.alphabet
    d = decode_path(g, PathRepresentation("a", (A.word("a"), Word(A), A.word("a"))))
    assert (d.value, d.terminal, str(d.realized)) == (4, "b", "abaa")
    empty = decode_path(g, PathRepresentation("a", ()))
    assert (empty.value, empty.terminal, str(empty.realized)) == (0, "a", "")
    g2 = build_prefix_graph(aab_bbaab)
    B = aab_bbaab.alphabet
    d2 = decode_path(g2, PathRepresentation("a", (B.word("a"), B.word("aa"))))
    assert (d2.value, str(d2.realized)) == (5, "aabaa")


def test_decode_errors(fibonacci):
    g = build_prefix_graph(fibonacci)
    A = fibonacci.alphabet
    with pytest.raises(InputError):
        decode_path(g, PathRepresentation("a", (A.word("ab"),)))  # no such label
    with pytest.raises(InputError):
        PathRepresentation("a", (Word(A), A.word("a")))  # improper leading empty


def test_decode_realization_cap(fibonacci):
    g = build_prefix_graph(fibonacci)
    path = encode_integer(g, "a", 10_000)
    assert decode_path(g, path, realize_cap=100).realized is None
    assert decode_path(g, path, materialize=False).realized is None
    assert len(decode_path(g, path).realized) == 10_000


def test_encode_examples(fibonacci):
    g = build_prefix_graph(fibonacci)
    assert format_path(encode_integer(g, "a", 4)) == "a: a.e.a"
    assert format_path(encode_integer(g, "a", 0)) == "a:"
    assert format_path(encode_integer(g, "a", 7)) == "a: a.e.a.e"
    with pytest.raises(InputError):
        encode_integer(g, "b", 3)  # b is not a period-1 seed
    with pytest.raises(InputError):
        encode_integer(g, "a", -1)


def test_enumeration_matches_published_listing(fibonacci):
    g = build_prefix_graph(fibonacci)
    listing = [format_path(p) for p in enumerate_paths(g, "a", 9)]
    assert listing == [
        "a:",
        "a: a",
        "a: a.e",
        "a: a.e.e",
        "a: a.e.a",
        "a: a.e.e.e",
        "a: a.e.e.a",
        "a: a.e.a.e",
        "a: a.e.e.e.e",
    ]
    assert [format_path(p) for p in enumerate_paths(g, "a", 1)] == ["a:"]


def test_enumeration_is_the_order_of_values(fibonacci, tribonacci, aab_bbaab):
    for sub, seed in ((fibonacci, "a"), (tribonacci, "a"), (aab_bbaab, "b")):
        g = build_prefix_graph(sub)
        paths = enumerate_paths(g, seed, 120)
        for k, p in enumerate(paths):
            assert decode_path(g, p, materialize=False).value == k
            assert encode_integer(g, seed, k) == p


def test_no_adjacent_nonempty_labels_for_fibonacci(fibonacci):
    # the Zeckendorf no-two-consecutive rule, phrased on labels
    g = build_prefix_graph(fibonacci)
    for p in enumerate_paths(g, "a", 100):
        for u, v in zip(p.labels, p.labels[1:]):
            assert not (len(u) and len(v))


def test_out_edge_label_lengths_distinct(fibonacci, tribonacci, aab_bbaab):
    for sub in (fibonacci, tribonacci, aab_bbaab):
        g = build_prefix_graph(sub)
        for a in sub.alphabet:
            lengths = [len(e.label) for e in g.out_edges(a)]
            assert len(set(lengths)) == len(lengths)


def test_round_trip_and_prefix_law(fibonacci):
    g = build_prefix_graph(fibonacci)
    stream = FixedPointStream(fibonacci, "a")
    prefix = stream.prefix_text(400)
    for value in range(400):
        path = encode_integer(g, "a", value)
        decoded = decode_path(g, path)
        assert decoded.value == value
        assert str(decoded.realized) == prefix[:value]
        assert decoded.terminal == prefix[value]


@pytest.mark.parametrize(
    "rules, seed, period",
    [
        ({"a": "ab", "b": "a"}, "a", 1),
        ({"a": "aab", "b": "ba"}, "a", 1),
        ({"a": "aab", "b": "ba"}, "b", 1),
        ({"a": "b", "b": "ab"}, "a", 2),
    ],
)
def test_letter_at_reads_the_expanded_prefix(rules, seed, period):
    sub = Substitution(rules)
    graph = build_prefix_graph(sub.power(period))
    stream = FixedPointStream(sub, seed)
    assert stream.period == period
    prefix = stream.prefix_text(10_000)
    assert "".join(letter_at(graph, seed, v) for v in range(10_000)) == prefix
    if period > 1:
        with pytest.raises(InputError, match="period-1 seed"):
            letter_at(build_prefix_graph(sub), seed, 0)


def test_round_trip_fuzz_random_substitutions():
    rng = random.Random(2718)
    checked = 0
    while checked < 12:
        n = rng.randrange(2, 5)
        letters = "abcd"[:n]
        sub = Substitution(
            {
                a: "".join(rng.choice(letters) for _ in range(rng.randrange(1, 5)))
                for a in letters
            }
        )
        seeds = [s for s, m in list_periodic_seeds(sub) if m == 1]
        if not seeds:
            continue
        seed = seeds[0]
        graph = build_prefix_graph(sub)
        for value in range(300):
            assert decode_path(graph, encode_integer(graph, seed, value), materialize=False).value == value
        stream = FixedPointStream(sub, seed)
        prefix = stream.prefix_text(300)
        for value in (0, 1, 2, 137, 299):
            realized = decode_path(graph, encode_integer(graph, seed, value)).realized
            assert str(realized) == prefix[:value]
        checked += 1


def test_synchronizing_examples(aab_bbaab, fibonacci):
    g = build_prefix_graph(aab_bbaab)
    scan = synchronizing_scan(g, "a", "b", (0, 10))
    by_value = {e.value: e for e in scan.entries}
    assert 5 in by_value and by_value[5].terminal == "b"
    assert format_path(by_value[5].path_a) == "a: a.aa"
    assert format_path(by_value[5].path_b) == "b: b.e"
    assert 0 not in by_value  # distinct start vertices at value 0
    assert scan.max_run >= 1
    gf = build_prefix_graph(fibonacci)
    with pytest.raises(InputError):
        synchronizing_scan(gf, "a", "b", (0, 5))  # b is not a seed


def _check_sync_is_agreement(sub, a, b):
    """num sync lists exactly {v : x_v = y_v}, read off the expanded streams
    near 0 and off decode_path just above 10^9."""
    g = build_prefix_graph(sub)
    letters = sub.alphabet.letters
    x = FixedPointStream(sub, a).prefix_indices(2001)
    y = FixedPointStream(sub, b).prefix_indices(2001)
    near = synchronizing_scan(g, a, b, (0, 2000))
    hits = [v for v in range(2001) if x[v] == y[v]]
    assert [e.value for e in near.entries] == hits
    assert [e.terminal for e in near.entries] == [letters[x[v]] for v in hits]
    longest = run = 0
    for v in range(2001):
        run = run + 1 if x[v] == y[v] else 0
        longest = max(longest, run)
    assert near.max_run == longest

    lo, hi = 10**9 + 1, 10**9 + 200
    far = {e.value: e for e in synchronizing_scan(g, a, b, (lo, hi)).entries}
    for v in range(lo, hi + 1):
        path_a, path_b = encode_integer(g, a, v), encode_integer(g, b, v)
        end_a = decode_path(g, path_a, materialize=False)
        end_b = decode_path(g, path_b, materialize=False)
        assert end_a.value == end_b.value == v
        if v in far:
            entry = far[v]
            assert (entry.path_a, entry.path_b) == (path_a, path_b)
            assert entry.terminal == end_a.terminal == end_b.terminal
        else:
            assert end_a.terminal != end_b.terminal


@pytest.mark.parametrize(
    "rules", [{"a": "aab", "b": "ba"}, {"a": "aab", "b": "bbaab"}, {"a": "abc", "b": "bca", "c": "ab"}]
)
def test_sync_is_the_agreement_set(rules):
    _check_sync_is_agreement(Substitution(rules), "a", "b")


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(*(
    st.text("abc"[:n], min_size=1, max_size=3) for _ in range(n)
))))
def test_sync_is_the_agreement_set_random(tails):
    # a and b begin their own images, so both are period-1 seeds, and every
    # image has length >= 2, so the points grow fast enough to reach 10^9
    letters = "abc"[: len(tails)]
    rules = {c: (c if c in "ab" else tail[0]) + tail for c, tail in zip(letters, tails)}
    _check_sync_is_agreement(Substitution(rules), "a", "b")

def test_path_text_round_trip(fibonacci):
    g = build_prefix_graph(fibonacci)
    for value in (0, 1, 4, 7, 55, 100):
        path = encode_integer(g, "a", value)
        again = parse_path(fibonacci, format_path(path))
        assert again == path
    assert parse_path(fibonacci, "a:") == PathRepresentation("a", ())
    assert parse_path(fibonacci, "a: e") == PathRepresentation("a", ())
    with pytest.raises(InputError):
        parse_path(fibonacci, "no separator")
    with pytest.raises(InputError):
        parse_path(fibonacci, "z: a")


def test_path_text_with_letter_e_in_alphabet():
    sub = Substitution({"e": "ef", "f": "e"})
    g = build_prefix_graph(sub)
    for value in range(30):
        path = encode_integer(g, "e", value)
        rendered = format_path(path, sub.alphabet)
        assert parse_path(sub, rendered) == path
