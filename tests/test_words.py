import random

import pytest
from hypothesis import given, settings, strategies as st

from substrand import (
    Alphabet,
    FixedPointStream,
    InputError,
    Substitution,
    Word,
    abelianization_matrix,
    abelianize,
    apply_substitution,
    build_prefix_graph,
    expand,
    list_periodic_seeds,
)
from conftest import oracle_prefix, oracle_seed_period


def test_alphabet_rejects_duplicates_and_multichar():
    with pytest.raises(InputError):
        Alphabet("aa")
    with pytest.raises(InputError):
        Alphabet(["ab"])
    with pytest.raises(InputError):
        Alphabet([])


def test_word_basics(fibonacci):
    A = fibonacci.alphabet
    w = A.word("aab")
    assert len(w) == 3 and str(w) == "aab"
    assert w[0] == "a" and w[2] == "b"
    assert str(w[:2]) == "aa"
    assert str(w + A.word("ba")) == "aabba"
    with pytest.raises(InputError):
        A.word("axb")


def test_apply_substitution_examples(fibonacci):
    assert str(apply_substitution(fibonacci, "ab")) == "aba"
    assert str(apply_substitution(fibonacci, "")) == ""
    assert str(apply_substitution(fibonacci, "a", power=3)) == "abaab"
    with pytest.raises(InputError):
        apply_substitution(fibonacci, "a", power=0)


def test_abelianize_examples(fibonacci):
    A = fibonacci.alphabet
    assert abelianize(A.word("aabaa")) == (4, 1)
    assert abelianize(Word(A)) == (0, 0)
    # matrix-abelianization agreement on a fixed instance
    m = abelianization_matrix(fibonacci)
    u = A.word("aab")
    image_counts = abelianize(apply_substitution(fibonacci, u))
    assert image_counts == tuple(
        sum(m[i][j] * abelianize(u)[j] for j in range(2)) for i in range(2)
    )
    assert image_counts == (3, 2)


def test_abelianize_is_additive(fibonacci):
    A = fibonacci.alphabet
    rng = random.Random(7)
    for _ in range(50):
        u = Word(A, [rng.randrange(2) for _ in range(rng.randrange(0, 12))])
        v = Word(A, [rng.randrange(2) for _ in range(rng.randrange(0, 12))])
        assert abelianize(u + v) == tuple(
            a + b for a, b in zip(abelianize(u), abelianize(v))
        )


def test_periodic_seeds(fibonacci, thue_morse):
    assert list_periodic_seeds(fibonacci) == [("a", 1)]
    assert list_periodic_seeds(thue_morse) == [("a", 1), ("b", 1)]
    swap = Substitution({"a": "b", "b": "ab"})
    assert list_periodic_seeds(swap) == [("a", 2), ("b", 2)]
    assert [s for s, m in list_periodic_seeds(swap) if m == 1] == []


@st.composite
def first_letter_cycles(draw):
    """Substitutions of 1-12 letters; a permutation of first letters puts
    every letter on a cycle, some as long as the alphabet, and half the
    images are single letters, so that cycles without growth occur too."""
    n = draw(st.integers(1, 12))
    letters = "abcdefghijkl"[:n]
    if draw(st.booleans()):
        firsts = draw(st.permutations(range(n)))
    else:
        firsts = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    tail = st.one_of(st.just(""), st.sampled_from(letters))
    tails = draw(st.lists(tail, min_size=n, max_size=n))
    return Substitution({a: letters[f] + t for a, f, t in zip(letters, firsts, tails)})


@settings(max_examples=150, deadline=None)
@given(sub=first_letter_cycles())
def test_seed_rule_matches_the_expansion_oracle(sub):
    periods = {a: oracle_seed_period(sub, a) for a in sub.alphabet}
    assert list_periodic_seeds(sub) == [(a, p) for a, p in periods.items() if p is not None]
    graph = build_prefix_graph(sub)
    for a, p in periods.items():
        if p is None:
            with pytest.raises(InputError, match="not a periodic seed"):
                FixedPointStream(sub, a)
        else:
            stream = FixedPointStream(sub, a)
            assert stream.period == p
            assert stream.prefix_text(40) == oracle_prefix(sub, a, 40, period=p)
        if p == 1:
            graph.require_seed(a)
        else:
            with pytest.raises(InputError, match="period-1 seed"):
                graph.require_seed(a)


def test_expand_against_oracle(fibonacci):
    stream = FixedPointStream(fibonacci, "a")
    assert str(expand(stream, 13)) == "abaababaabaab"
    assert str(expand(stream, 13)) == oracle_prefix(fibonacci, "a", 13)
    assert str(expand(stream, 0)) == ""


def test_expand_rejects_bad_seed(fibonacci):
    with pytest.raises(InputError):
        FixedPointStream(fibonacci, "b")
    with pytest.raises(InputError):
        FixedPointStream(Substitution({"a": "a"}), "a")


def test_expand_prefix_monotone(tribonacci):
    stream = FixedPointStream(tribonacci, "a")
    long = str(stream.expand(500))
    for length in (0, 1, 7, 99, 500):
        assert long.startswith(str(stream.expand(length)))
    # idempotent re-expansion
    assert str(stream.expand(100)) == str(stream.expand(100))


def test_period_two_stream_matches_oracle():
    swap = Substitution({"a": "b", "b": "ab"})
    stream = FixedPointStream(swap, "a")
    assert stream.period == 2
    assert stream.prefix_text(40) == oracle_prefix(swap, "a", 40, period=2)


@st.composite
def small_substitutions(draw):
    """1-4 letters with images of 1-3 letters drawn freely, so that
    non-primitive inputs and single-letter images occur."""
    letters = "abcd"[:draw(st.integers(1, 4))]
    image = st.text(alphabet=letters, min_size=1, max_size=3)
    return Substitution({a: draw(image) for a in letters})


@settings(max_examples=150, deadline=None)
@given(sub=small_substitutions(), data=st.data())
def test_image_lengths_are_the_lengths_of_the_images(sub, data):
    letters = sub.alphabet.letters
    words = data.draw(st.lists(st.text(alphabet=letters, max_size=4), max_size=3))
    graph = build_prefix_graph(sub)
    for k in range(8, -1, -1):  # level 8 first: the table grows by several levels at once
        def image_length(w):
            return len(w) if k == 0 else len(apply_substitution(sub, w, k))

        assert sub.image_lengths(k) == [image_length(a) for a in letters]
        for w in words:
            assert graph.weight(k, sub.alphabet.word(w)) == image_length(w)
    with pytest.raises(InputError, match="level must be >= 0"):
        sub.image_lengths(-1)


def test_substitution_power(fibonacci):
    squared = fibonacci.power(2)
    assert squared.rules() == {"a": "aba", "b": "ab"}
    assert fibonacci.power(1) is fibonacci
    with pytest.raises(InputError):
        fibonacci.power(0)
