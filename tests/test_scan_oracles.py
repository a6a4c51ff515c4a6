"""The numpy scans against the pure-Python loops in conftest.

Random 2-4 letter substitutions with fixed points at ``a`` and ``b``, at
horizons that straddle the block boundaries of the kernel, of the expansion
and of the occurrence scan, and one alphabet of more than 256 letters
outside Latin-1.
"""

import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from substrand import (
    CoincidenceVerdict,
    CoincidenceWitness,
    FixedPointStream,
    Substitution,
    Word,
    abelianization_matrix,
    balanced_pair_closure,
    delta_sequence,
    delta_value_set,
    find_strong_coincidence,
    is_primitive,
    max_return_gap,
    max_stable_delta_norm,
    occurrences,
    proximality_scan,
)
from substrand import cli, coincidence, points, words
from conftest import (
    oracle_agreement_runs,
    oracle_deep_coincide,
    oracle_delta_sequence,
    oracle_longest_below,
    oracle_max_return_gap,
    oracle_occurrences,
    oracle_prefix,
    oracle_proximality,
    oracle_scan,
    seeded_pairs,
)


@st.composite
def complement_pairs(draw):
    """sigma(b) is sigma(a) with a and b swapped: the fixed points at a and b
    differ at every index, so no witness exists."""
    image = "a" + "".join(draw(st.lists(st.sampled_from("ab"), min_size=1, max_size=6)))
    return Substitution({"a": image, "b": image.translate(str.maketrans("ab", "ba"))})


def _indices(sub, seed, length):
    return [sub.alphabet.index(c) for c in oracle_prefix(sub, seed, length)]


def _check_against_oracles(sub, x, y, horizon):
    n = len(sub.alphabet)
    xs, ys = _indices(sub, x.seed, horizon + 1), _indices(sub, y.seed, horizon + 1)

    assert delta_sequence(x, y, horizon) == tuple(oracle_delta_sequence(xs, ys, horizon, n))

    _, first_seen = oracle_scan(xs, ys, horizon, n, stop_at_witness=False)
    assert delta_value_set(x, y, horizon) == frozenset(first_seen)

    witness_index, first_seen = oracle_scan(xs, ys, horizon, n, stop_at_witness=True)
    verdict = find_strong_coincidence(x, y, horizon)
    if witness_index is None:
        assert verdict.witness is None
        assert verdict.delta_values == frozenset(first_seen)
        assert verdict.stabilized == (max(first_seen.values()) < horizon // 2)
    else:
        w = verdict.witness
        assert w.index == witness_index
        assert w.letter == sub.alphabet.letters[xs[witness_index]]
        assert str(w.prefix_x) == oracle_prefix(sub, x.seed, witness_index)
        assert str(w.prefix_y) == oracle_prefix(sub, y.seed, witness_index)

    rng = random.Random(horizon)
    projector = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
    deltas = np.array(oracle_delta_sequence(xs, ys, horizon, n), dtype=float)
    expected = np.linalg.norm(deltas @ projector.T, axis=1).max()
    splitting = SimpleNamespace(projector_stable=projector)
    assert max_stable_delta_norm(splitting, x, y, horizon) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    runs = oracle_agreement_runs(xs, ys, horizon)
    for min_window in (1, 2, 4):
        if horizon < min_window:
            continue
        evidence = proximality_scan(x, y, min_window, horizon)
        assert evidence.windows == tuple((s, l) for s, l in runs if l >= min_window)
        for h, longest in evidence.max_length_per_horizon:
            assert longest == oracle_longest_below(runs, h)


@settings(max_examples=150, deadline=None)
@given(
    sub=seeded_pairs(),
    horizon=st.integers(1, 200),
    block_cells=st.sampled_from([1, 2, 3, 5, 8, 13, 1 << 19]),
)
def test_scans_match_oracles_on_random_substitutions(sub, horizon, block_cells):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coincidence, "_BLOCK_CELLS", block_cells)
        mp.setattr(words, "_BLOCK_CELLS", block_cells)
        mp.setattr(points, "_BLOCK_CELLS", block_cells)
        x, y = FixedPointStream(sub, "a"), FixedPointStream(sub, "b")
        assert x.prefix_text(horizon) == oracle_prefix(sub, "a", horizon)
        _check_against_oracles(sub, x, y, horizon)
        _check_against_oracles(sub, x, x, horizon)


def _check_deep_coincide(sub, horizon, cap):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "MATERIALIZE_CAP", cap)
        verdict, period = cli._coincide_pair(sub, "a", "b", horizon, True)
    expected = oracle_deep_coincide(FixedPointStream(sub, "a"), FixedPointStream(sub, "b"), horizon, cap)
    assert period == 1
    assert verdict == expected


@settings(max_examples=150, deadline=None)
@given(
    sub=seeded_pairs(),
    cap=st.one_of(st.integers(1, 16), st.integers(1, 400)),
    data=st.data(),
    block_cells=st.sampled_from([1, 2, 3, 5, 8, 13, 1 << 19]),
)
def test_deep_coincide_matches_doubling_oracle(sub, cap, data, block_cells):
    # start horizons on both sides of the cap, small ones often
    horizon = data.draw(st.one_of(st.integers(1, 8), st.integers(1, cap + 20)), label="horizon")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coincidence, "_BLOCK_CELLS", block_cells)
        mp.setattr(words, "_BLOCK_CELLS", block_cells)
        _check_deep_coincide(sub, horizon, cap)


def test_deep_coincide_at_small_horizons_and_caps(aab_ba):
    # the witness is at k = 3: horizons and caps of 3 must not report it
    for cap in range(1, 13):
        for horizon in range(1, 15):
            _check_deep_coincide(aab_ba, horizon, cap)


_CLOSURE_HORIZON = 1 << 15  # past every witness and first-seen D value of these families


def _pairs_below(sub, period, horizon):
    """The minimal balanced pairs of the fixed points at a and b that end
    below the horizon: cut at every zero of the step recurrence."""
    xs, ys = ([sub.alphabet.index(c) for c in oracle_prefix(sub, s, horizon, period)] for s in "ab")
    zero = (0,) * len(sub.alphabet)
    cuts = [k for k, d in enumerate(oracle_delta_sequence(xs, ys, horizon, len(sub.alphabet))) if d == zero]
    return {(tuple(xs[s:e]), tuple(ys[s:e])) for s, e in zip(cuts, cuts[1:])}


def _check_closure(sub, period):
    # primitive, so the fixed points grow exponentially and the scan to the horizon is quick
    assume(is_primitive(abelianization_matrix(sub))[0])
    x, y = FixedPointStream(sub, "a"), FixedPointStream(sub, "b")
    assert (x.period, y.period) == (period, period)
    closure = balanced_pair_closure(x, y)
    verdict = find_strong_coincidence(x, y, _CLOSURE_HORIZON)
    n, zero = len(sub.alphabet), (0,) * len(sub.alphabet)
    for u, v in closure.pairs:  # minimal balanced pairs: D is zero at both ends only
        deltas = oracle_delta_sequence(u.indices, v.indices, len(u), n)
        assert [k for k, d in enumerate(deltas) if d == zero] == [0, len(u)]
    equal = [u for u, v in closure.pairs if u == v]
    if closure.verdict == coincidence.WITNESS_EXISTS:
        assert verdict.found and len(equal) == 1 and len(equal[0]) == 1
    elif closure.verdict == coincidence.NO_WITNESS:
        assert not verdict.found and not equal
        assert closure.delta_values == delta_value_set(x, y, _CLOSURE_HORIZON) == verdict.delta_values
        assert _pairs_below(sub, period, 4096) <= {(u.indices, v.indices) for u, v in closure.pairs}
        # fresh streams: the report is what the full scan gives, and no letter is read
        xs, ys = ([sub.alphabet.index(c) for c in oracle_prefix(sub, s, _CLOSURE_HORIZON, period)] for s in "ab")
        _, first_seen = oracle_scan(xs, ys, _CLOSURE_HORIZON, n, stop_at_witness=False)
        expected = CoincidenceVerdict(_CLOSURE_HORIZON, None, frozenset(first_seen),
                                      max(first_seen.values()) < _CLOSURE_HORIZON // 2)
        fresh = FixedPointStream(sub, "a"), FixedPointStream(sub, "b")
        assert find_strong_coincidence(*fresh, _CLOSURE_HORIZON) == expected
        assert all(s._filled == 0 for s in fresh)
    else:
        assert closure.verdict == coincidence.INDETERMINATE and closure.delta_values is None
    if verdict.found:
        assert closure.verdict != coincidence.NO_WITNESS


@settings(max_examples=40, deadline=None)
@given(sub=st.one_of(seeded_pairs(), complement_pairs()))
def test_balanced_pair_closure_matches_the_scan(sub):
    _check_closure(sub, 1)


@settings(max_examples=20, deadline=None)
@given(sub=seeded_pairs(period=2))
@example(sub=Substitution({"a": "bcac", "b": "abc", "c": "aca"}))  # D values not symmetric under -1
def test_balanced_pair_closure_of_period_two_seeds_matches_the_scan(sub):
    _check_closure(sub, 2)


_DESCENT_HORIZON = 1 << 14


@settings(max_examples=150, deadline=None)
@given(sub=st.one_of(seeded_pairs(), seeded_pairs(period=2), complement_pairs()),
       same=st.booleans(), data=st.data())
@example(sub=Substitution({"a": "aab", "b": "ba"}), same=False, data=None)
def test_descent_matches_the_scan(sub, same, data):
    # decided pairs are answered off the closure; the full scan is the oracle
    assume(is_primitive(abelianization_matrix(sub))[0])
    seeds = "aa" if same else "ab"
    streams = [FixedPointStream(sub, s) for s in seeds]
    verdict, _, _ = coincidence._close(*streams)
    assume(verdict != coincidence.INDETERMINATE)
    complete, _, _ = coincidence._close(*streams, complete=True)
    n, letters, period = len(sub.alphabet), sub.alphabet, streams[0].period
    xs, ys = ([letters.index(c) for c in oracle_prefix(sub, s, _DESCENT_HORIZON, period)] for s in seeds)
    witness_index, first_seen = oracle_scan(xs, ys, _DESCENT_HORIZON, n, stop_at_witness=False)
    assert witness_index is None or verdict == coincidence.WITNESS_EXISTS
    last = max(first_seen.values())
    horizons = {1, 2, last, last + 1, 2 * last, 2 * last + 1, 2 * last + 2, _DESCENT_HORIZON}
    if data is not None:
        horizons.add(data.draw(st.integers(1, _DESCENT_HORIZON), label="horizon"))
    if witness_index is not None:
        horizons |= {witness_index - 1, witness_index, witness_index + 1}
    scan, scans = coincidence._scan, []

    def counting_scan(x, y, horizon):
        scans.append(horizon)
        return scan(x, y, horizon)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coincidence, "_scan", counting_scan)
        for horizon in sorted(h for h in horizons if 1 <= h <= _DESCENT_HORIZON):
            x, y = (FixedPointStream(sub, s) for s in seeds)
            found = find_strong_coincidence(x, y, horizon)
            # no letter is read, unless the scan ran: past a witness, on a capped complete closure
            assert x._filled == y._filled == 0 or scans[-1:] == [horizon]
            if witness_index is not None and witness_index < horizon:
                k = witness_index
                witness = CoincidenceWitness(k, letters.letters[xs[k]], Word(letters, xs[:k]), Word(letters, ys[:k]))
                assert found == CoincidenceVerdict(horizon, witness)
            else:
                seen = {v: k for v, k in first_seen.items() if k < horizon}
                assert found == CoincidenceVerdict(horizon, None, frozenset(seen), max(seen.values()) < horizon // 2)
    if scans:
        assert verdict == coincidence.WITNESS_EXISTS and complete == coincidence.INDETERMINATE


def test_balanced_pair_closure_of_thue_morse(thue_morse):
    closure = balanced_pair_closure(FixedPointStream(thue_morse, "a"), FixedPointStream(thue_morse, "b"))
    assert closure.verdict == coincidence.NO_WITNESS
    assert [(str(u), str(v)) for u, v in closure.pairs] == [("ab", "ba"), ("ba", "ab")]
    assert closure.delta_values == {(0, 0), (1, -1), (-1, 1)}


@pytest.mark.parametrize("repeats, verdict", [(500, coincidence.NO_WITNESS), (501, coincidence.INDETERMINATE)])
def test_balanced_pair_closure_caps_the_image_length_before_writing_images(repeats, verdict):
    # Thue-Morse with longer images: the pairs are (ab, ba) and (ba, ab), and
    # only the images' length, 2 * repeats, decides whether the closure runs
    sub = Substitution({"a": "ab" * repeats, "b": "ba" * repeats})
    closure = balanced_pair_closure(FixedPointStream(sub, "a"), FixedPointStream(sub, "b"))
    assert 2 * 500 == coincidence.CLOSURE_MAX_LENGTH and closure.verdict == verdict
    assert len(closure.pairs) == (2 if verdict == coincidence.NO_WITNESS else 0)


@settings(max_examples=200, deadline=None)
@given(
    sub=seeded_pairs(),
    data=st.data(),
    block_cells=st.sampled_from([1, 2, 3, 5, 8, 13, 1 << 16]),
)
def test_occurrences_match_oracles_on_random_substitutions(sub, data, block_cells):
    horizon = data.draw(st.integers(1, 300), label="horizon")
    text = oracle_prefix(sub, "a", horizon)
    m = data.draw(st.integers(1, min(6, horizon)), label="factor length")
    kind = data.draw(st.sampled_from(["random", "ends at horizon", "whole prefix"]), label="factor")
    if kind == "random":
        factor = "".join(data.draw(st.lists(st.sampled_from(sub.alphabet.letters), min_size=m, max_size=m)))
    elif kind == "ends at horizon":
        factor = text[horizon - m:]
    else:
        factor, horizon = text[:m], m
    expected = oracle_occurrences(text[:horizon], factor)
    if kind != "random":
        assert expected[-1] == horizon - m
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(points, "_BLOCK_CELLS", block_cells)
        occ = occurrences(FixedPointStream(sub, "a"), factor, horizon)
    assert tuple(occ.positions) == expected and len(occ) == len(expected)
    # 1 byte per candidate start, exactly 1 at the occurrences; positions are Python ints
    assert occ.hits == bytes(p in expected for p in range(horizon - len(factor) + 1))
    assert all(type(p) is int for p in occ.positions)
    gap = max_return_gap(occ)
    assert gap == oracle_max_return_gap(expected)
    assert gap is None or type(gap) is int


def _check_proximality(sub, seeds, horizon, min_window):
    x, y = (FixedPointStream(sub, s) for s in seeds)
    xs, ys = (_indices(sub, s, horizon) for s in seeds)
    evidence = proximality_scan(x, y, min_window, horizon)
    expected = oracle_proximality(xs, ys, min_window, horizon)
    assert (evidence.windows, evidence.max_length_per_horizon, evidence.verdict) == expected
    return expected


@settings(max_examples=200, deadline=None)
@given(
    sub=st.one_of(seeded_pairs(), complement_pairs()),
    same=st.booleans(),
    data=st.data(),
    block_cells=st.sampled_from([1, 2, 3, 5, 8, 13, 1 << 16]),
)
def test_proximality_matches_the_letter_by_letter_oracle(sub, same, data, block_cells):
    horizon = data.draw(st.integers(1, 300), label="horizon")
    min_window = data.draw(st.integers(1, min(6, horizon)), label="min_window")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(points, "_BLOCK_CELLS", block_cells)
        _check_proximality(sub, "aa" if same else "ab", horizon, min_window)


@pytest.mark.parametrize("block_cells", [1, 7, 1 << 16])
def test_proximality_runs_across_the_probes(aaab_bbab, tribonacci, monkeypatch, block_cells):
    # every horizon up to 150, min_window 1 included: runs of agreement that
    # cross h/4 or h/2 must be clipped there, and both occur
    monkeypatch.setattr(points, "_BLOCK_CELLS", block_cells)
    crossed = set()
    for sub, seeds in ((aaab_bbab, "ab"), (tribonacci, "aa")):
        for horizon in range(1, 151):
            for min_window in {1, min(4, horizon)}:
                windows, _, _ = _check_proximality(sub, seeds, horizon, min_window)
                crossed |= {k for k in (4, 2) for s, n in windows if s < horizon // k < s + n}
    assert crossed == {4, 2}


def _self_overlapping_factors(text, m):
    """Factors of length m of the text that overlap a shifted copy of themselves."""
    factors = {text[i:i + m] for i in range(len(text) - m + 1)}
    return sorted(f for f in factors if any(f[k:] == f[:m - k] for k in range(1, m)))


@pytest.mark.parametrize("block_cells", [1, 2, 5, 1 << 16])
def test_occurrences_of_self_overlapping_factors(fibonacci, thue_morse, tribonacci, monkeypatch, block_cells):
    monkeypatch.setattr(points, "_BLOCK_CELLS", block_cells)
    for sub in (fibonacci, thue_morse, tribonacci):
        text = oracle_prefix(sub, "a", 400)
        factors = [f for m in range(2, 7) for f in _self_overlapping_factors(text[:200], m)]
        assert factors
        for factor in factors:
            expected = oracle_occurrences(text, factor)
            # the horizon where the last occurrence ends, and one letter short of it
            for horizon in (400, expected[-1] + len(factor), expected[-1] + len(factor) - 1):
                hits = tuple(p for p in expected if p + len(factor) <= horizon)
                occ = occurrences(FixedPointStream(sub, "a"), factor, horizon)
                assert tuple(occ.positions) == hits
                assert max_return_gap(occ) == oracle_max_return_gap(hits)


def test_max_return_gap_of_zero_one_and_two_occurrences(fibonacci, monkeypatch):
    monkeypatch.setattr(points, "_BLOCK_CELLS", 3)
    x = FixedPointStream(fibonacci, "a")
    text = oracle_prefix(fibonacci, "a", 200)
    seen = set()
    for factor in ("bb", "aaa", "abaab", "baaba", "abaababaab"):
        expected = oracle_occurrences(text, factor)
        for horizon in range(len(factor), 200, 7):
            hits = tuple(p for p in expected if p + len(factor) <= horizon)
            occ = occurrences(x, factor, horizon)
            assert tuple(occ.positions) == hits and len(occ) == len(hits)
            gap = max_return_gap(occ)
            assert gap == oracle_max_return_gap(hits) and (gap is None or type(gap) is int)
            seen.add(min(len(hits), 2))
    assert seen == {0, 1, 2}


def test_scans_at_block_boundaries(aab_ba, monkeypatch):
    # four rows per block: horizons on both sides of each boundary
    monkeypatch.setattr(coincidence, "_BLOCK_CELLS", 8)
    for horizon in range(1, 14):
        x, y = FixedPointStream(aab_ba, "a"), FixedPointStream(aab_ba, "b")
        _check_against_oracles(aab_ba, x, y, horizon)


def test_alphabet_beyond_one_byte():
    letters = [chr(0x4E00 + i) for i in range(300)]
    rng = random.Random(3)
    sub = Substitution({c: c + "".join(rng.choice(letters) for _ in range(2)) for c in letters})
    x = FixedPointStream(sub, letters[0])
    y = FixedPointStream(sub, letters[1])
    horizon = 5000
    prefix = x.prefix_indices(horizon)
    assert prefix.dtype == np.uint16
    assert prefix.max() > 255
    text = oracle_prefix(sub, letters[0], horizon)
    assert x.prefix_text(horizon) == text

    factor = text[1:3]
    expected = [p for p in range(horizon - 1) if text.startswith(factor, p)]
    assert list(occurrences(x, factor, horizon).positions) == expected

    _check_against_oracles(sub, x, y, horizon)


@pytest.mark.parametrize("block_cells", [1, 7, 1 << 16])
def test_scans_beyond_one_byte_against_oracles(monkeypatch, block_cells):
    # two bytes per letter: letters 0 and 256 (and others 256 apart) share
    # their low byte, so the kernel must AND both lanes
    letters = [chr(0x4E00 + i) for i in range(300)]
    sub = Substitution({c: c + c + letters[(i + 256) % 300] for i, c in enumerate(letters)})
    monkeypatch.setattr(points, "_BLOCK_CELLS", block_cells)
    horizon = 3000
    text = oracle_prefix(sub, letters[0], horizon)
    assert {letters[0], letters[256]} <= set(text)
    x = FixedPointStream(sub, letters[0])
    for factor in (letters[256], letters[0], letters[256] * 2, letters[256] * 3, text[1:4], text[horizon - 3:]):
        expected = oracle_occurrences(text, factor)
        assert len(expected) >= 2 or factor == letters[256] * 3
        occ = occurrences(x, factor, horizon)
        assert tuple(occ.positions) == expected
        assert max_return_gap(occ) == oracle_max_return_gap(expected)
    for seeds in ((letters[0], letters[256]), (letters[0], letters[0])):
        for min_window in (1, 3):
            _check_proximality(sub, seeds, horizon, min_window)


def test_prefix_indices_is_read_only(fibonacci):
    prefix = FixedPointStream(fibonacci, "a").prefix_indices(10)
    with pytest.raises(ValueError):
        prefix[0] = 1
