import math
import random
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import oracle_enumerate_paths
from substrand import (
    FixedPointStream,
    InputError,
    PathRepresentation,
    Substitution,
    Word,
    decode_path,
    encode_integer,
    enumerate_paths,
    format_path,
    letter_at,
    list_periodic_seeds,
    parse_path,
    prefix_automaton,
    proximality_scan,
    synchronizing_scan,
)
from substrand.numeration import _greedy_walk, _walks
from substrand.words import seed_period


def _edges(sub):
    return [(e["source"], e["target"], e["label"]) for e in prefix_automaton(sub)["edges"]]


def test_fibonacci_graph(fibonacci):
    assert _edges(fibonacci) == [("a", "a", ""), ("a", "b", "a"), ("b", "a", "")]


def test_two_letter_graph(aab_bbaab):
    assert _edges(aab_bbaab) == [
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
    sub = Substitution({"a": "a"})
    assert _edges(sub) == [("a", "a", "")]
    with pytest.raises(InputError):
        encode_integer(sub, "a", 1)  # no infinite fixed point to index into


def test_decode_examples(fibonacci, aab_bbaab):
    A = fibonacci.alphabet
    d = decode_path(fibonacci, PathRepresentation("a", (A.word("a"), Word(A), A.word("a"))))
    assert (d.value, d.terminal, str(d.realized)) == (4, "b", "abaa")
    empty = decode_path(fibonacci, PathRepresentation("a", ()))
    assert (empty.value, empty.terminal, str(empty.realized)) == (0, "a", "")
    B = aab_bbaab.alphabet
    d2 = decode_path(aab_bbaab, PathRepresentation("a", (B.word("a"), B.word("aa"))))
    assert (d2.value, str(d2.realized)) == (5, "aabaa")


def test_decode_errors(fibonacci):
    A = fibonacci.alphabet
    with pytest.raises(InputError):
        decode_path(fibonacci, PathRepresentation("a", (A.word("ab"),)))  # no such label
    with pytest.raises(InputError):
        PathRepresentation("a", (Word(A), A.word("a")))  # improper leading empty


def test_decode_realization_cap(fibonacci):
    path = encode_integer(fibonacci, "a", 10_000)
    assert decode_path(fibonacci, path, realize_cap=100).realized is None
    assert decode_path(fibonacci, path, realize_cap=None).realized is None
    assert len(decode_path(fibonacci, path).realized) == 10_000


def test_encode_examples(fibonacci):
    assert format_path(encode_integer(fibonacci, "a", 4)) == "a: a.e.a"
    assert format_path(encode_integer(fibonacci, "a", 0)) == "a:"
    assert format_path(encode_integer(fibonacci, "a", 7)) == "a: a.e.a.e"
    with pytest.raises(InputError):
        encode_integer(fibonacci, "b", 3)  # b is not a period-1 seed
    with pytest.raises(InputError):
        encode_integer(fibonacci, "a", -1)


def test_enumeration_matches_published_listing(fibonacci):
    listing = [format_path(p) for p in enumerate_paths(fibonacci, "a", 9)]
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
    assert [format_path(p) for p in enumerate_paths(fibonacci, "a", 1)] == ["a:"]


def test_enumeration_is_the_order_of_values(fibonacci, tribonacci, aab_bbaab):
    for sub, seed in ((fibonacci, "a"), (tribonacci, "a"), (aab_bbaab, "b")):
        paths = enumerate_paths(sub, seed, 120)
        for k, p in enumerate(paths):
            assert decode_path(sub, p, realize_cap=None).value == k
            assert encode_integer(sub, seed, k) == p


# a begins its own image, so it is a period-1 seed
_SEEDED_RULES = st.integers(2, 3).flatmap(lambda n: st.tuples(*(
    st.text("abc"[:n], min_size=1, max_size=3) for _ in range(n)
))).map(lambda tails: {c: ("a" if c == "a" else "") + tail for c, tail in zip("abc", tails)})


@settings(max_examples=40, deadline=None)
@given(_SEEDED_RULES, st.integers(1, 400))
def test_enumeration_matches_the_recursive_oracle(rules, count):
    sub = Substitution(rules)
    assert enumerate_paths(sub, "a", count) == oracle_enumerate_paths(sub, "a", count)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 3).flatmap(lambda n: st.tuples(
        st.text("abc"[:n], max_size=2), st.text("abc"[:n], max_size=2),
        st.lists(st.sampled_from("abc"[:n]), min_size=n - 1, max_size=n - 1),
    )),
    st.integers(0, 10**6),
)
def test_odometer_steps_like_the_greedy_walk(parts, offset):
    # a -> a u a v makes |sigma^L(a)| at least 2^L, so 10^30 is some 100
    # levels deep; every other letter maps to one letter, whose labels can
    # never grow past the empty one. A window from |sigma^L(a)| - 2 crosses
    # the value where the path gains level L + 1.
    u, v, others = parts
    rules = dict(zip("abc", ["a" + u + "a" + v, *others]))
    sub = Substitution(rules)
    level_starts = [sub.image_lengths(level)[0] - 2 for level in range(1, 7)]
    for lo in (0, *level_starts, 10**9 + offset, 10**30 + offset):
        window = [(tuple(labels), terminal) for labels, terminal in islice(_walks(sub, 0, lo), 300)]
        assert window == [_greedy_walk(sub, 0, value) for value in range(lo, lo + 300)], (rules, lo)


def test_no_adjacent_nonempty_labels_for_fibonacci(fibonacci):
    # the Zeckendorf no-two-consecutive rule, phrased on labels
    for p in enumerate_paths(fibonacci, "a", 100):
        for u, v in zip(p.labels, p.labels[1:]):
            assert not (len(u) and len(v))


def test_out_edge_label_lengths_distinct(fibonacci, tribonacci, aab_bbaab):
    for sub in (fibonacci, tribonacci, aab_bbaab):
        edges = prefix_automaton(sub)["edges"]
        for a in sub.alphabet:
            lengths = [len(e["label"]) for e in edges if e["source"] == a]
            assert len(set(lengths)) == len(lengths)


def test_round_trip_and_prefix_law(fibonacci):
    stream = FixedPointStream(fibonacci, "a")
    prefix = stream.prefix_text(400)
    for value in range(400):
        path = encode_integer(fibonacci, "a", value)
        decoded = decode_path(fibonacci, path)
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
    sigma = sub.power(period)
    stream = FixedPointStream(sub, seed)
    assert stream.period == period
    prefix = stream.prefix_text(10_000)
    assert "".join(letter_at(sigma, seed, v) for v in range(10_000)) == prefix
    if period > 1:
        with pytest.raises(InputError, match="period-1 seed"):
            letter_at(sub, seed, 0)


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
        for value in range(300):
            assert decode_path(sub, encode_integer(sub, seed, value), realize_cap=None).value == value
        stream = FixedPointStream(sub, seed)
        prefix = stream.prefix_text(300)
        for value in (0, 1, 2, 137, 299):
            realized = decode_path(sub, encode_integer(sub, seed, value)).realized
            assert str(realized) == prefix[:value]
        checked += 1


def test_synchronizing_examples(aab_bbaab, fibonacci):
    scan = synchronizing_scan(aab_bbaab, "a", "b", (0, 10))
    by_value = {e.value: e for e in scan.entries}
    assert 5 in by_value and by_value[5].terminal == "b"
    assert format_path(by_value[5].path_a) == "a: a.aa"
    assert format_path(by_value[5].path_b) == "b: b.e"
    assert 0 not in by_value  # distinct start vertices at value 0
    assert scan.max_run >= 1
    with pytest.raises(InputError):
        synchronizing_scan(fibonacci, "a", "b", (0, 5))  # b is not a seed


def _check_sync_is_agreement(sub, a, b):
    """num sync lists exactly {v : x_v = y_v}, read off the expanded streams
    near 0 and off decode_path just above 10^9."""
    letters = sub.alphabet.letters
    x = FixedPointStream(sub, a).prefix_indices(2001)
    y = FixedPointStream(sub, b).prefix_indices(2001)
    near = synchronizing_scan(sub, a, b, (0, 2000))
    hits = [v for v in range(2001) if x[v] == y[v]]
    assert [e.value for e in near.entries] == hits
    assert [e.terminal for e in near.entries] == [letters[x[v]] for v in hits]
    longest = run = 0
    for v in range(2001):
        run = run + 1 if x[v] == y[v] else 0
        longest = max(longest, run)
    assert near.max_run == longest

    lo, hi = 10**9 + 1, 10**9 + 200
    far = {e.value: e for e in synchronizing_scan(sub, a, b, (lo, hi)).entries}
    for v in range(lo, hi + 1):
        path_a, path_b = encode_integer(sub, a, v), encode_integer(sub, b, v)
        end_a = decode_path(sub, path_a, realize_cap=None)
        end_b = decode_path(sub, path_b, realize_cap=None)
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


# a and b begin their own images, so both are period-1 seeds, and every
# image has length >= 2, so the points grow fast enough to reach 10^9
_TWO_SEED_RULES = st.integers(2, 3).flatmap(lambda n: st.tuples(*(
    st.text("abc"[:n], min_size=1, max_size=3) for _ in range(n)
))).map(lambda tails: {c: (c if c in "ab" else tail[0]) + tail for c, tail in zip("abc", tails)})


@settings(max_examples=15, deadline=None)
@given(_TWO_SEED_RULES)
def test_sync_is_the_agreement_set_random(rules):
    _check_sync_is_agreement(Substitution(rules), "a", "b")


@settings(max_examples=30, deadline=None)
@given(_TWO_SEED_RULES, st.integers(0, 3000))
# seeds of period 2, or of periods 1 and 2, whose points agree somewhere
@example({"a": "bab", "b": "aab"}, 3000)
@example({"a": "ba", "b": "aab"}, 1000)
@example({"a": "abb", "b": "cb", "c": "bab"}, 3000)
def test_sync_values_are_the_proximal_windows(rules, h):
    # both compute the agreement set: num sync on 0..h by walking paths of
    # sigma^p, p the lcm of the seeds' periods (as the command does),
    # proximal below h + 1 by comparing the expanded points
    sub = Substitution(rules)
    scan = synchronizing_scan(sub.power(math.lcm(seed_period(sub, "a"), seed_period(sub, "b"))), "a", "b", (0, h))
    evidence = proximality_scan(FixedPointStream(sub, "a"), FixedPointStream(sub, "b"), 1, h + 1)
    windows = [v for start, length in evidence.windows for v in range(start, start + length)]
    assert [e.value for e in scan.entries] == windows
    assert scan.max_run == dict(evidence.max_length_per_horizon)[h + 1]

def test_path_text_round_trip(fibonacci):
    for value in (0, 1, 4, 7, 55, 100):
        path = encode_integer(fibonacci, "a", value)
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
    for value in range(30):
        path = encode_integer(sub, "e", value)
        rendered = format_path(path)
        assert parse_path(sub, rendered) == path
