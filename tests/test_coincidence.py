import random

import pytest

from substrand import (
    CoincidenceWitness,
    FixedPointStream,
    InputError,
    Substitution,
    abelianize,
    delta_sequence,
    delta_value_set,
    find_strong_coincidence,
    validate_witness,
)


def _streams(sub, a="a", b="b"):
    return FixedPointStream(sub, a), FixedPointStream(sub, b)


def test_delta_sequence_example(aab_ba):
    x, y = _streams(aab_ba)
    ds = delta_sequence(x, y, 3)
    assert ds.values == ((0, 0), (1, -1), (1, -1), (0, 0))


def test_delta_sequence_self_is_zero(aab_ba):
    x, _ = _streams(aab_ba)
    ds = delta_sequence(x, x, 50)
    assert set(ds.values) == {(0, 0)}


def test_delta_sequence_thue_morse(thue_morse):
    x, y = _streams(thue_morse)
    assert delta_sequence(x, y, 2).values[2] == (0, 0)  # prefixes ab vs ba


def test_delta_recurrence_matches_scratch(aab_ba):
    x, y = _streams(aab_ba)
    horizon = 400
    ds = delta_sequence(x, y, horizon)
    rng = random.Random(5)
    for k in (0, 1, horizon) + tuple(rng.randrange(horizon) for _ in range(25)):
        expected = tuple(
            cx - cy
            for cx, cy in zip(abelianize(x.expand(k)), abelianize(y.expand(k)))
        )
        assert ds[k] == expected


def test_witness_example(aab_ba):
    x, y = _streams(aab_ba)
    verdict = find_strong_coincidence(x, y, 1000)
    w = verdict.witness
    assert w is not None
    assert (w.index, w.letter, str(w.prefix_x), str(w.prefix_y)) == (3, "a", "aab", "baa")
    assert validate_witness(x, y, w)
    assert verdict.to_json_dict()["witness"] == {"k": 3, "c": "a", "s": "aab", "t": "baa"}


def test_witness_is_minimal(aab_ba):
    x, y = _streams(aab_ba)
    k = find_strong_coincidence(x, y, 1000).witness.index
    xs, ys = x.prefix_indices(k + 1), y.prefix_indices(k + 1)
    for j in range(1, k):
        zero_delta = abelianize(x.expand(j)) == abelianize(y.expand(j))
        assert not (zero_delta and xs[j] == ys[j])


def test_no_witness_thue_morse(thue_morse):
    x, y = _streams(thue_morse)
    verdict = find_strong_coincidence(x, y, 10_000)
    assert verdict.witness is None
    assert verdict.stabilized
    assert verdict.delta_values == {(0, 0), (1, -1), (-1, 1)}


def test_no_witness_uniform_pair(aaab_bbab):
    x, y = _streams(aaab_bbab)
    assert find_strong_coincidence(x, y, 100_000).witness is None


def test_validate_witness_rejects_frauds(aab_ba):
    x, y = _streams(aab_ba)
    A = aab_ba.alphabet
    # wrong letter at the coincidence index
    bad_letter = CoincidenceWitness(3, "b", A.word("aab"), A.word("baa"))
    assert not validate_witness(x, y, bad_letter)
    # prefixes that are not the streams' actual prefixes
    bad_prefix = CoincidenceWitness(3, "a", A.word("aba"), A.word("baa"))
    assert not validate_witness(x, y, bad_prefix)
    # non-abelian-equivalent prefixes of the right length cannot validate
    bad_counts = CoincidenceWitness(3, "a", A.word("aab"), A.word("bab"))
    assert not validate_witness(x, y, bad_counts)


def test_delta_value_set_examples(aab_ba, thue_morse):
    x, y = _streams(aab_ba)
    values = delta_value_set(x, y, 1000)
    assert {(0, 0), (1, -1)} <= values
    assert delta_value_set(x, x, 1000) == {(0, 0)}
    tx, ty = _streams(thue_morse)
    assert delta_value_set(tx, ty, 1000) == {(0, 0), (1, -1), (-1, 1)}


def test_delta_value_set_saturates_for_pisot_pair(aab_ba):
    x, y = _streams(aab_ba)
    assert delta_value_set(x, y, 10_000) == delta_value_set(x, y, 100_000)


def test_witness_invariant_under_powers(aab_ba):
    reference = None
    for m in (1, 2, 3):
        x, y = _streams(aab_ba.power(m))
        w = find_strong_coincidence(x, y, 1000).witness
        key = (w.index, w.letter, str(w.prefix_x), str(w.prefix_y))
        reference = reference or key
        assert key == reference


def test_alphabet_mismatch_rejected(fibonacci, tribonacci):
    x = FixedPointStream(fibonacci, "a")
    t = FixedPointStream(tribonacci, "a")
    with pytest.raises(InputError):
        find_strong_coincidence(x, t, 10)


def test_one_letter_alphabet():
    # every D_k is (0,): the witness is the first index with a nonempty prefix
    x = FixedPointStream(Substitution({"a": "aa"}), "a")
    assert delta_value_set(x, x, 10) == frozenset({(0,)})
    witness = find_strong_coincidence(x, x, 10).witness
    assert (witness.index, witness.letter, str(witness.prefix_x), str(witness.prefix_y)) == (1, "a", "a", "a")
    verdict = find_strong_coincidence(x, x, 1)
    assert verdict.witness is None
    assert verdict.delta_values == frozenset({(0,)})
    assert verdict.stabilized is False


@pytest.mark.parametrize("cells", [8, 64, 1 << 19])
@pytest.mark.parametrize("horizon", [1, 2, 50, 777, 20_000])
@pytest.mark.parametrize("images", [("ab", "ba"), ("abbaab", "baabba")])
def test_scan_expands_to_the_horizon_and_not_past_it(monkeypatch, cells, horizon, images):
    # the fixed points of a complement pair differ at every index: the scan reads
    # every letter below the horizon, and the buffers stop within one image of it
    from substrand import coincidence

    monkeypatch.setattr(coincidence, "_BLOCK_CELLS", cells)
    grows = []  # (letters held, letters asked for) of each call that grows a buffer
    ensure = FixedPointStream._ensure

    def spy(self, length):
        if length > len(self._buf):
            grows.append((len(self._buf), length))
        return ensure(self, length)

    monkeypatch.setattr(FixedPointStream, "_ensure", spy)
    x, y = _streams(Substitution(dict(zip("ab", images))))
    assert find_strong_coincidence(x, y, horizon).witness is None
    for stream in (x, y):
        assert horizon <= len(stream._buf) < horizon + len(images[0])
    # the last growth of each stream starts from at most a quarter of the horizon,
    # so little of the old buffer is alive while the new one fills
    assert all(held <= horizon // 4 + len(images[0]) for held, _ in grows[-2:])
