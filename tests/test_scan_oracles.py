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
from hypothesis import given, settings, strategies as st

from substrand import (
    FixedPointStream,
    Substitution,
    delta_sequence,
    delta_value_set,
    find_strong_coincidence,
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
    oracle_scan,
)


@st.composite
def seeded_pairs(draw):
    """A substitution whose images of a and b start with a and b."""
    letters = "abcd"[: draw(st.integers(2, 4))]

    def word(min_size, max_size):
        return "".join(draw(st.lists(st.sampled_from(letters), min_size=min_size, max_size=max_size)))

    rules = {c: (c + word(1, 3) if c in "ab" else word(1, 4)) for c in letters}
    return Substitution(rules)


def _indices(sub, seed, length):
    return [sub.alphabet.index(c) for c in oracle_prefix(sub, seed, length)]


def _check_against_oracles(sub, x, y, horizon):
    n = len(sub.alphabet)
    xs, ys = _indices(sub, x.seed, horizon + 1), _indices(sub, y.seed, horizon + 1)

    assert delta_sequence(x, y, horizon).values == tuple(oracle_delta_sequence(xs, ys, horizon, n))

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
        x, y = FixedPointStream(sub, "a"), FixedPointStream(sub, "b")
        assert x.prefix_text(horizon) == oracle_prefix(sub, "a", horizon)
        _check_against_oracles(sub, x, y, horizon)
        _check_against_oracles(sub, x, x, horizon)


def _check_deep_coincide(sub, horizon, cap):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "DEEP_HORIZON_CAP", cap)
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
    assert occ.positions == expected
    assert max_return_gap(occ) == oracle_max_return_gap(expected)


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


def test_prefix_indices_is_read_only(fibonacci):
    prefix = FixedPointStream(fibonacci, "a").prefix_indices(10)
    with pytest.raises(ValueError):
        prefix[0] = 1
