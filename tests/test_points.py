from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

from substrand import (
    EVIDENCE_FOR,
    FixedPointStream,
    InputError,
    NONE_FOUND,
    max_return_gap,
    occurrences,
    points,
    proximality_scan,
)
from conftest import oracle_prefix


def _oracle_occurrences(text, needle, horizon):
    return tuple(
        k
        for k in range(horizon - len(needle) + 1)
        if text[k : k + len(needle)] == needle
    )


def test_occurrence_examples(fibonacci):
    x = FixedPointStream(fibonacci, "a")
    assert occurrences(x, "a", 12).positions == [0, 2, 3, 5, 7, 8, 10, 11]
    assert occurrences(x, "ab", 13).positions == [0, 3, 5, 8, 11]
    assert len(occurrences(x, "bb", 1000).positions) == 0


def test_occurrences_match_oracle(fibonacci, tribonacci):
    for sub, seed in ((fibonacci, "a"), (tribonacci, "a")):
        stream = FixedPointStream(sub, seed)
        text = oracle_prefix(sub, seed, 2000)
        for factor in ("a", "ab", "aba", "baa"):
            got = occurrences(stream, factor, 2000).positions
            assert tuple(got) == _oracle_occurrences(text, factor, 2000)


def test_occurrences_input_errors(fibonacci):
    x = FixedPointStream(fibonacci, "a")
    with pytest.raises(InputError):
        occurrences(x, "", 10)
    with pytest.raises(InputError):
        occurrences(x, "abc", 10)  # foreign symbol c
    with pytest.raises(InputError):
        occurrences(x, "ab", 1)


def test_prefix_occurrence_containment(fibonacci):
    # an occurrence of u is an occurrence of every prefix of u at the same spot
    x = FixedPointStream(fibonacci, "a")
    long = set(occurrences(x, "abaab", 3000).positions)
    short = set(occurrences(x, "aba", 3000).positions)
    assert long <= short


def test_max_return_gap_examples(fibonacci):
    x = FixedPointStream(fibonacci, "a")
    assert max_return_gap(occurrences(x, "a", 12)) == 2
    assert max_return_gap(occurrences(x, "b", 13)) == 3
    assert max_return_gap(occurrences(x, "abaab", 8)) is None  # single occurrence
    assert max_return_gap(occurrences(x, "bb", 100)) is None


def test_return_gaps_stabilize(fibonacci, tribonacci):
    # uniform recurrence at desk scale: gaps for short factors stop growing
    for sub in (fibonacci, tribonacci):
        stream = FixedPointStream(sub, "a")
        prefix = stream.prefix_text(4000)
        factors = sorted(
            {prefix[i : i + n] for n in range(1, 7) for i in range(3000)}
        )
        for factor in factors:
            small = max_return_gap(occurrences(stream, factor, 10_000))
            large = max_return_gap(occurrences(stream, factor, 100_000))
            assert small == large


def test_proximality_uniform_pair(aaab_bbab):
    x = FixedPointStream(aaab_bbab, "a")
    y = FixedPointStream(aaab_bbab, "b")
    assert x.prefix_text(16) == "aaabaaabaaabbbab"
    assert y.prefix_text(16) == "bbabbbabaaabbbab"
    evidence = proximality_scan(x, y, 4, 64)
    assert any(pos <= 16 and length >= 4 for pos, length in evidence.windows)
    assert evidence.verdict == EVIDENCE_FOR
    # window content re-verified symbol by symbol
    xs, ys = x.prefix_text(64), y.prefix_text(64)
    for pos, length in evidence.windows:
        assert xs[pos : pos + length] == ys[pos : pos + length]


def test_proximality_thue_morse_disagrees_everywhere(thue_morse):
    x = FixedPointStream(thue_morse, "a")
    y = FixedPointStream(thue_morse, "b")
    evidence = proximality_scan(x, y, 1, 2000)
    assert evidence.windows == ()
    assert evidence.verdict == NONE_FOUND


def test_proximality_reflexive(aaab_bbab):
    x = FixedPointStream(aaab_bbab, "a")
    evidence = proximality_scan(x, x, 4, 128)
    assert evidence.windows == ((0, 128),)
    assert evidence.verdict == EVIDENCE_FOR


def test_proximality_preconditions(fibonacci, tribonacci):
    x = FixedPointStream(fibonacci, "a")
    t = FixedPointStream(tribonacci, "a")
    with pytest.raises(InputError):
        proximality_scan(x, t, 2, 10)  # different alphabets
    with pytest.raises(InputError):
        proximality_scan(x, x, 5, 4)  # horizon below the window floor


def test_occurrence_text_export(fibonacci):
    x = FixedPointStream(fibonacci, "a")
    occ = occurrences(x, "b", 13)
    assert occ.to_text().splitlines() == ["1", "4", "6", "9", "12"]
    assert occ.to_json_dict()["positions"] == [1, 4, 6, 9, 12]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=120), st.integers(0, 1), st.integers(1, 4), st.data())
def test_longest_run_matches_the_run_length_oracle(bits, byte, needle, data):
    # a needle shorter than the longest run so far still finds every run
    mask = bytearray(bits)
    start = data.draw(st.integers(0, len(mask)), label="start")
    end = data.draw(st.integers(start, len(mask)), label="end")
    runs = [len(list(run)) for value, run in groupby(mask[start:end]) if value == byte]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(points, "_RUN_NEEDLE", needle)
        assert points._longest_run(mask, byte, start, end) == max(runs, default=0)
