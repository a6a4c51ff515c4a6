import math
import tracemalloc

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from substrand import (
    Alphabet,
    CoincidenceWitness,
    FixedPointStream,
    FsFamily,
    InputError,
    OccurrenceSet,
    PathRepresentation,
    Substitution,
    Word,
    abelianization_matrix,
    apply_substitution,
    build_fs_family,
    decode_path,
    find_strong_coincidence,
    is_primitive,
    occurrences,
    search_ip_witness,
    verify_finite_sums,
)
from substrand import ipsets
from substrand.ipsets import POWER_CAP, SEARCHED
from conftest import oracle_build_fs_family, oracle_search_ip_witness, oracle_verify_finite_sums, seeded_pairs


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
    for path, value in zip(family.provenance.paths, family.generators):
        assert decode_path(sigma, path, realize_cap=None).value == value


def test_abelian_twin_paths_have_equal_values(pair_witness):
    # swapping the first label for the other fixed point's prefix keeps the value
    sub, _, witness = pair_witness
    family = build_fs_family(sub, witness, 3)
    prov = family.provenance
    sigma = sub.power(prov.power)
    empty = Word(sub.alphabet)
    for i, value in enumerate(family.generators):
        twin = PathRepresentation(
            prov.target_letter, (prov.prefix_y, prov.connector) + (empty,) * (2 * i)
        )
        assert decode_path(sigma, twin, realize_cap=None).value == value


# most drawn rules are not primitive or have no witness below the horizon
_FILTERED = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])


def _witnessed_power(sub):
    """sub raised to the lcm of the periods of its seeds a and b, and their
    least witness below 4096, as ``ipset build`` pairs them."""
    assume(is_primitive(abelianization_matrix(sub))[0])
    x, y = FixedPointStream(sub, "a"), FixedPointStream(sub, "b")
    witness = find_strong_coincidence(x, y, 4096).witness
    assume(witness is not None)
    return sub.power(math.lcm(x.period, y.period)), witness


def _family_or_error(build, sub, witness, count):
    try:
        return build(sub, witness, count)
    except InputError as error:
        return str(error)


@_FILTERED
@given(sub=st.one_of(seeded_pairs(), seeded_pairs(period=2)), count=st.integers(0, 5))
def test_family_matches_the_full_image_oracle(sub, count):
    # power, connector, paths and generators: exact image lengths against
    # full images, sub.power(q) and the path decoder
    sigma, witness = _witnessed_power(sub)
    family = _family_or_error(build_fs_family, sigma, witness, count)
    assert family == _family_or_error(oracle_build_fs_family, sigma, witness, count)


@_FILTERED
@given(sub=st.one_of(seeded_pairs(), seeded_pairs(period=2)), count=st.integers(0, 5), data=st.data())
def test_tampered_witness_gets_the_oracle_family_or_error(sub, count, data):
    sigma, witness = _witnessed_power(sub)
    # a witness that embeds at no power builds images up to sigma^POWER_CAP: keep them small
    assume(max(sigma.image_lengths(POWER_CAP)) <= 20_000)
    letters = sub.alphabet.letters
    field = data.draw(st.sampled_from(["letter", "prefix_x", "prefix_y"]), label="field")
    if field == "letter":
        value = data.draw(st.sampled_from([c for c in letters if c != witness.letter]), label="letter")
    else:  # one letter of s or t changed, or dropped (""); at either end the result may still embed
        word = str(getattr(witness, field))
        j = data.draw(st.sampled_from([0, len(word) - 1]) | st.integers(0, len(word) - 1), label="index")
        other = data.draw(st.sampled_from([c for c in letters if c != word[j]] + [""]), label="by")
        value = sub.alphabet.word(word[:j] + other + word[j + 1:])
    tampered = witness._replace(**{field: value})
    family = _family_or_error(build_fs_family, sigma, tampered, count)
    assert family == _family_or_error(oracle_build_fs_family, sigma, tampered, count)


def test_refused_witness_gets_the_oracle_error(pair_witness):
    sub, _, witness = pair_witness
    empty = Word(sub.alphabet)
    for tampered, count, message in [
        (witness, -1, "count must be >= 0"),
        (witness._replace(prefix_x=empty), 2, "witness prefixes must be nonempty"),
        (witness._replace(prefix_y=empty), 2, "witness prefixes must be nonempty"),
        (witness._replace(letter="b"), 2, f"no power of the substitution up to {POWER_CAP} embeds the witness"),
    ]:
        assert _family_or_error(build_fs_family, sub, tampered, count) == message
        assert _family_or_error(oracle_build_fs_family, sub, tampered, count) == message


def test_a_witness_that_never_embeds_builds_no_full_image(monkeypatch):
    # b never leads sigma^q(b), so no power embeds the witness; the images of
    # a reach 2**32 letters by POWER_CAP, and only their heads and letter sets
    # are needed to find that out
    sub = Substitution({"a": "aaab", "b": "bbba"}).power(2)
    assert sub.image_lengths(POWER_CAP)[0] == 2**32
    witness = CoincidenceWitness(1, "a", sub.alphabet.word("b"), sub.alphabet.word("a"))

    def small_images(*args):
        image = apply_substitution(*args)
        if len(image) > 1000:
            raise AssertionError(f"built an image of {len(image)} letters")
        return image

    monkeypatch.setattr(ipsets, "apply_substitution", small_images)
    with pytest.raises(InputError, match=f"^no power of the substitution up to {POWER_CAP} embeds the witness$"):
        build_fs_family(sub, witness, 2)


def test_verify_finite_sums_pass(pair_witness):
    sub, x, witness = pair_witness
    family = build_fs_family(sub, witness, 2)
    verification = verify_finite_sums(family, sub, "a", "b", sum(family.generators) + 10, 2)
    assert verification.verdict == "pass"
    assert verification.failures == () and verification.unchecked == ()


def test_three_generators_all_subsets_occur(pair_witness):
    # exhaustive check through subset size 3 on a three-generator family
    sub, x, witness = pair_witness
    family = build_fs_family(sub, witness, 3)
    verification = verify_finite_sums(family, sub, "a", "b", sum(family.generators) + 2, 3)
    assert verification.verdict == "pass"


def test_verify_reports_unchecked_when_horizon_short(pair_witness):
    sub, x, witness = pair_witness
    family = build_fs_family(sub, witness, 2)
    # horizon too short for 1097 and 1120
    verification = verify_finite_sums(family, sub, "a", "b", 100, 2)
    assert verification.verdict == "incomplete"
    assert all(total > 100 - 1 for _, total in verification.unchecked)
    assert verification.failures == ()


def test_verify_failure(fibonacci):
    verification = verify_finite_sums(FsFamily((1,), "searched"), fibonacci, "a", "a", 50, 1)
    assert verification.verdict == "fail"
    assert verification.failures == (((1,), 1),)


def test_verify_refuses_an_empty_family(fibonacci):
    # no generators means no subset is checked: a pass would claim nothing
    with pytest.raises(InputError, match="the family has no generators"):
        verify_finite_sums(FsFamily((), "searched"), fibonacci, "a", "a", 50, 3)


def test_verify_rejects_bad_input(fibonacci):
    family = FsFamily((2,), SEARCHED)
    with pytest.raises(InputError, match="factor must be nonempty"):
        verify_finite_sums(family, fibonacci, "a", "", 10, 1)
    with pytest.raises(InputError, match="horizon must be at least the factor length"):
        verify_finite_sums(family, fibonacci, "a", "ab", 1, 1)
    with pytest.raises(InputError, match="max_subset_size must be >= 1"):
        verify_finite_sums(family, fibonacci, "a", "a", 10, 0)
    with pytest.raises(InputError, match="not a periodic seed"):
        verify_finite_sums(family, fibonacci, "b", "a", 10, 1)
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
    value = st.sampled_from(occ.positions) if len(occ) else st.integers(0, horizon + 2)
    drawn = data.draw(st.sets(st.one_of(value, st.integers(0, horizon + 2)), max_size=3))
    generators = tuple(sorted(drawn | {edge}))
    size = data.draw(st.integers(1, 4), label="max subset size")
    got = verify_finite_sums(FsFamily(generators, SEARCHED), sub.power(period), seed, factor, horizon, size)
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
    assert verify_finite_sums(family, fibonacci, "a", "a", 20, 3).verdict == "pass"
    single = search_ip_witness(occ, 1)
    assert single.generators == (2,)


def test_search_exhausts_and_returns_none(fibonacci):
    x = FixedPointStream(fibonacci, "a")
    empty = occurrences(x, "bb", 100)
    assert search_ip_witness(empty, 2) is None
    with pytest.raises(InputError):
        search_ip_witness(empty, 0)


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=60), depth=st.integers(1, 4))
def test_search_matches_the_list_based_oracle(bits, depth):
    occ = OccurrenceSet(Word(Alphabet("a")), len(bits), bytearray(bits))
    family = search_ip_witness(occ, depth)
    expected = oracle_search_ip_witness(occ, depth)
    assert (family and family.generators) == expected


def test_search_on_fibonacci_matches_the_list_based_oracle(fibonacci):
    x = FixedPointStream(fibonacci, "a")
    for factor, horizon, depth in (("a", 100, 2), ("a", 1000, 4), ("ab", 1000, 3), ("b", 10**5, 2)):
        occ = occurrences(x, factor, horizon)
        assert search_ip_witness(occ, depth).generators == oracle_search_ip_witness(occ, depth)


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
    assert verify_finite_sums(family, sigma, "a", target, sum(family.generators) + 2, 2).verdict == "pass"


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
