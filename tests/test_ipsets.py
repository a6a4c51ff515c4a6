import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from substrand import (
    FixedPointStream,
    FsFamily,
    InputError,
    PathRepresentation,
    Substitution,
    Word,
    build_fs_family,
    build_prefix_graph,
    decode_path,
    find_strong_coincidence,
    occurrences,
    search_ip_witness,
    verify_finite_sums,
)
from substrand.ipsets import SEARCHED
from conftest import oracle_verify_finite_sums


@pytest.fixture
def pair_witness(aab_ba):
    x = FixedPointStream(aab_ba, "a")
    y = FixedPointStream(aab_ba, "b")
    witness = find_strong_coincidence(x, y, 1000).witness
    return aab_ba, x, witness


def test_family_from_witness(pair_witness):
    sub, x, witness = pair_witness
    family = build_fs_family(sub, witness, 2)
    assert family.generators == (23, 1097)
    prov = family.provenance
    assert prov.power == 2
    assert str(prov.connector) == "aa"
    assert prov.target_letter == "b" and prov.start_letter == "a"
    # each generator is an occurrence of the target letter, by expansion
    text = x.prefix_text(max(family.generators) + 2)
    assert all(text[n] == "b" for n in family.generators)


def test_family_from_deep_witness_stays_small():
    # the witness sits at index 1070 and embeds at power 5, where the image
    # of a has 6327 letters: a table of all its prefixes would take ~170 MB
    sub = Substitution({"a": "aaaaabb", "b": "ba"})
    x = FixedPointStream(sub, "a")
    witness = find_strong_coincidence(x, FixedPointStream(sub, "b"), 5000).witness
    assert witness.index == 1070
    tracemalloc.start()
    try:
        family = build_fs_family(sub, witness, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    assert family.provenance.power == 5
    assert family.generators[0] == 5146340
    assert x.prefix_text(family.generators[0] + 1)[family.generators[0]] == "b"


def test_family_count_zero(pair_witness):
    sub, _, witness = pair_witness
    assert build_fs_family(sub, witness, 0).generators == ()


def test_generators_agree_with_path_decoder(pair_witness):
    sub, _, witness = pair_witness
    family = build_fs_family(sub, witness, 3)
    sigma = sub.power(family.provenance.power)
    g = build_prefix_graph(sigma)
    for path, value in zip(family.provenance.paths, family.generators):
        assert decode_path(g, path, materialize=False).value == value


def test_abelian_twin_paths_have_equal_values(pair_witness):
    # swapping the first label for the other fixed point's prefix keeps the value
    sub, _, witness = pair_witness
    family = build_fs_family(sub, witness, 3)
    prov = family.provenance
    sigma = sub.power(prov.power)
    g = build_prefix_graph(sigma)
    empty = Word(sub.alphabet)
    for i, value in enumerate(family.generators):
        twin = PathRepresentation(
            prov.target_letter, (prov.prefix_y, prov.connector) + (empty,) * (2 * i)
        )
        assert decode_path(g, twin, materialize=False).value == value


def test_verify_finite_sums_pass(pair_witness):
    sub, x, witness = pair_witness
    family = build_fs_family(sub, witness, 2)
    graph = build_prefix_graph(sub)
    verification = verify_finite_sums(family, graph, "a", "b", sum(family.generators) + 10, 2)
    assert verification.verdict == "pass"
    assert verification.failures == () and verification.unchecked == ()


def test_three_generators_all_subsets_occur(pair_witness):
    # exhaustive check through subset size 3 on a three-generator family
    sub, x, witness = pair_witness
    family = build_fs_family(sub, witness, 3)
    graph = build_prefix_graph(sub)
    verification = verify_finite_sums(family, graph, "a", "b", sum(family.generators) + 2, 3)
    assert verification.verdict == "pass"


def test_verify_reports_unchecked_when_horizon_short(pair_witness):
    sub, x, witness = pair_witness
    family = build_fs_family(sub, witness, 2)
    # horizon too short for 1097 and 1120
    verification = verify_finite_sums(family, build_prefix_graph(sub), "a", "b", 100, 2)
    assert verification.verdict == "incomplete"
    assert all(total > 100 - 1 for _, total in verification.unchecked)
    assert verification.failures == ()


def test_verify_failure(fibonacci):
    graph = build_prefix_graph(fibonacci)
    verification = verify_finite_sums(FsFamily((1,), "searched"), graph, "a", "a", 50, 1)
    assert verification.verdict == "fail"
    assert verification.failures == (((1,), 1),)


def test_verify_empty_family_vacuous(fibonacci):
    graph = build_prefix_graph(fibonacci)
    assert verify_finite_sums(FsFamily((), "searched"), graph, "a", "a", 50, 3).verdict == "pass"


def test_verify_rejects_bad_input(fibonacci):
    graph = build_prefix_graph(fibonacci)
    family = FsFamily((2,), SEARCHED)
    with pytest.raises(InputError, match="factor must be nonempty"):
        verify_finite_sums(family, graph, "a", "", 10, 1)
    with pytest.raises(InputError, match="horizon must be at least the factor length"):
        verify_finite_sums(family, graph, "a", "ab", 1, 1)
    with pytest.raises(InputError, match="max_subset_size must be >= 1"):
        verify_finite_sums(family, graph, "a", "a", 10, 0)
    with pytest.raises(InputError, match="not a period-1 seed"):
        verify_finite_sums(family, graph, "b", "a", 10, 1)
    with pytest.raises(InputError, match="generators must be >= 0"):
        FsFamily((-3, 5), SEARCHED)


# (substitution, seed, period): period-2 seeds read the squared substitution
PERIODIC_POINTS = [
    (Substitution({"a": "ab", "b": "a"}), "a", 1),
    (Substitution({"a": "aab", "b": "ba"}), "a", 1),
    (Substitution({"a": "aab", "b": "ba"}), "b", 1),
    (Substitution({"a": "ab", "b": "ac", "c": "a"}), "a", 1),
    (Substitution({"a": "b", "b": "ab"}), "a", 2),
    (Substitution({"a": "b", "b": "ab"}), "b", 2),
]


@settings(max_examples=200, deadline=None)
@given(point=st.sampled_from(PERIODIC_POINTS), data=st.data())
def test_verify_finite_sums_matches_the_occurrence_set_oracle(point, data):
    sub, seed, period = point
    factor = "".join(data.draw(st.lists(st.sampled_from(sub.alphabet.letters), min_size=1, max_size=3)))
    horizon = data.draw(st.integers(len(factor), 300), label="horizon")
    occ = occurrences(FixedPointStream(sub, seed), factor, horizon)
    fit = horizon - len(factor)
    # the last sum that is checked or the first that is not, plus occurrences and other values
    edge = data.draw(st.sampled_from([fit, fit + 1]), label="edge")
    value = st.sampled_from(occ.positions) if occ.positions else st.integers(0, horizon + 2)
    drawn = data.draw(st.sets(st.one_of(value, st.integers(0, horizon + 2)), max_size=3))
    generators = tuple(sorted(drawn | {edge}))
    size = data.draw(st.integers(1, 4), label="max subset size")
    graph = build_prefix_graph(sub.power(period))
    got = verify_finite_sums(FsFamily(generators, SEARCHED), graph, seed, factor, horizon, size)
    expected = oracle_verify_finite_sums(generators, occ, size)
    assert (got.failures, got.unchecked) == expected
    assert got.verdict == ("fail" if expected[0] else "incomplete" if expected[1] else "pass")
    assert (str(got.factor), got.horizon) == (factor, horizon)


def test_search_finds_small_family(fibonacci):
    x = FixedPointStream(fibonacci, "a")
    occ = occurrences(x, "a", 20)
    family = search_ip_witness(occ, 3)
    assert family is not None and family.provenance == "searched"
    assert len(family.generators) == 3
    graph = build_prefix_graph(fibonacci)
    assert verify_finite_sums(family, graph, "a", "a", 20, 3).verdict == "pass"
    single = search_ip_witness(occ, 1)
    assert single.generators == (2,)


def test_search_exhausts_and_returns_none(fibonacci):
    x = FixedPointStream(fibonacci, "a")
    empty = occurrences(x, "bb", 100)
    assert search_ip_witness(empty, 2) is None
    with pytest.raises(InputError):
        search_ip_witness(empty, 0)


def test_family_for_period_two_pair():
    # seeds of period 2 go through the squared substitution; the connector
    # here is empty (the target letter opens its own image)
    swap = Substitution({"a": "b", "b": "ab"})
    sigma = swap.power(2)
    x = FixedPointStream(sigma, "a")
    y = FixedPointStream(sigma, "b")
    witness = find_strong_coincidence(x, y, 1000).witness
    assert (witness.index, witness.letter) == (2, "b")
    family = build_fs_family(sigma, witness, 2)
    assert len(family.provenance.connector) == 0
    target = family.provenance.target_letter
    text = x.prefix_text(max(family.generators) + 2)
    assert all(text[n] == target for n in family.generators)
    graph = build_prefix_graph(sigma)
    assert verify_finite_sums(family, graph, "a", target, sum(family.generators) + 2, 2).verdict == "pass"


def test_family_requires_increasing_generators():
    with pytest.raises(InputError):
        FsFamily((3, 3), "searched")


def test_family_json(pair_witness):
    sub, _, witness = pair_witness
    family = build_fs_family(sub, witness, 2)
    payload = family.to_json_dict()
    assert payload["generators"] == [23, 1097]
    assert payload["provenance"]["power"] == 2
    assert payload["provenance"]["paths"][0]["labels"] == ["aab", "aa"]
