import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from substrand import words
from substrand import (
    Alphabet,
    FixedPointStream,
    InputError,
    Substitution,
    Word,
    abelianization_matrix,
    abelianize,
    apply_substitution,
    list_periodic_seeds,
)
from substrand.numeration import _require_period_one

from conftest import oracle_image_lengths, oracle_prefix, oracle_seed_period, oracle_weight, spy_letters_written


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
    for a, p in periods.items():
        if p is None:
            with pytest.raises(InputError, match="not a periodic seed"):
                FixedPointStream(sub, a)
        else:
            stream = FixedPointStream(sub, a)
            assert stream.period == p
            assert stream.prefix_text(40) == oracle_prefix(sub, a, 40, period=p)
        if p == 1:
            _require_period_one(sub, a)
        else:
            message = "not a periodic seed" if p is None else f"not a period-1 seed .* least period is {p}$"
            with pytest.raises(InputError, match=message):
                _require_period_one(sub, a)


def test_expand_against_oracle(fibonacci):
    stream = FixedPointStream(fibonacci, "a")
    assert str(stream.expand(13)) == "abaababaabaab"
    assert str(stream.expand(13)) == oracle_prefix(fibonacci, "a", 13)
    assert str(stream.expand(0)) == ""


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
def polynomial_growth(draw):
    """Each letter maps to itself and then to later letters, the last one to
    itself alone: the point at a grows like a polynomial of degree up to 3."""
    letters = "abcd"[:draw(st.integers(2, 4))]
    images = {}
    for i, a in enumerate(letters):
        later = st.text(alphabet=letters[i + 1:], min_size=1 if i == 0 else 0, max_size=2)
        images[a] = a + draw(later)
    return Substitution(images)


@st.composite
def long_images_late(draw):
    """The seed's image is a run of letters with one-letter images, and their
    images are long: the next images outgrow the buffer's mean image length."""
    run, long = draw(st.integers(1, 12)), draw(st.integers(2, 9))
    return Substitution({"a": "a" + "b" * run, "b": "c", "c": "c" * long})


@settings(max_examples=100, deadline=None)
@given(sub=st.one_of(first_letter_cycles(), polynomial_growth(), long_images_late()), data=st.data())
def test_stream_appends_each_letter_once(sub, data):
    seeds = list_periodic_seeds(sub)
    assume(seeds)
    seed, period = data.draw(st.sampled_from(seeds))
    requests = data.draw(st.lists(st.integers(0, 300), min_size=1, max_size=8))
    cells = data.draw(st.integers(1, 13))
    table_letters = data.draw(st.sampled_from([1, 20, 300, 1 << 16]))
    reference = oracle_prefix(sub, seed, max(requests), period)
    letters = sub.alphabet.letters
    largest = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(words, "_BLOCK_CELLS", cells)
        mp.setattr(words, "_TABLE_LETTERS", table_letters)
        written = spy_letters_written(mp, largest)
        stream = FixedPointStream(sub, seed)
        for i, length in enumerate(requests):
            assert stream.prefix_text(length) == reference[:length]
            if i == 0:
                # the stream counted image lengths at level period alone (not level by level up
                # to its power), and its table holds the images of sigma^(period * K) of the
                # letters of the point, for the largest power of 2 K whose images fit the
                # budget, or K = 1; the other letters have no image
                assert len(sub._lengths) == period + 1
                point = {seed}
                while point != (grown := point | set(str(apply_substitution(sub, "".join(point), period)))):
                    point = grown
                power = 1
                while sum(n for a, n in zip(letters, sub.image_lengths(2 * power * period)) if a in point) <= table_letters:
                    power *= 2
                table = ["".join(letters[k] for k in memoryview(image).cast(stream._store.format).tolist())
                         for image in stream._table]
                lengths = sub.image_lengths(power * period)
                if table_letters <= 300:  # small enough to re-derive by plain application
                    assert table == [str(apply_substitution(sub, a, power * period)) if a in point else ""
                                     for a in letters]
                assert [len(image) for a, image in zip(letters, table) if a in point] == \
                    [n for a, n in zip(letters, stream._lengths) if a in point] == \
                    [n for a, n in zip(letters, lengths) if a in point]
                assert all(image == "" for a, image in zip(letters, table) if a not in point)
            # the buffer stops at the longest request, and no letter was joined twice:
            # past the buffer, only the unwritten rest of one image is held
            buffer = "".join(letters[k] for k in stream._store[:stream._filled].tolist())
            assert buffer == reference[:max(requests[:i + 1])]
            tail = stream._tail.tolist()
            assert written[stream] == len(buffer) + len(tail) and len(tail) <= max(stream._lengths)
            # a round writes at most its cells
            assert largest.get(stream, 0) <= cells


def test_letters_off_the_point_leave_the_table_alone(fibonacci):
    # z never occurs in the point at a: its long image is not in the table, so it
    # does not hold the power at 1 (gaps at 10^7 took 1.5 s instead of 0.17 s)
    padded = Substitution({"a": "ab", "b": "a", "z": "z" * 70_000})
    x, y = FixedPointStream(fibonacci, "a"), FixedPointStream(padded, "a")
    assert y.prefix_text(5000) == x.prefix_text(5000) == oracle_prefix(fibonacci, "a", 5000)
    assert y._table == x._table + [b""] and len(x._table[0]) > 1000


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
    for k in range(8, -1, -1):  # level 8 first: the table grows by several levels at once
        def image_length(w):
            return len(w) if k == 0 else len(apply_substitution(sub, w, k))

        assert sub.image_lengths(k) == [image_length(a) for a in letters]
        for w in words:
            assert sub.image_length(sub.alphabet.word(w), k) == image_length(w)
    with pytest.raises(InputError, match="level must be >= 0"):
        sub.image_lengths(-1)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_image_lengths_match_the_letter_by_letter_sums(data):
    # images and levels far past what expanding the images allows
    letters = "abcdefgh"[:data.draw(st.integers(1, 8))]
    sub = Substitution({a: data.draw(st.text(alphabet=letters, min_size=1, max_size=12)) for a in letters})
    levels = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=6))  # any order
    words = data.draw(st.lists(st.text(alphabet=letters, max_size=60), min_size=1, max_size=3))
    for level in levels:
        assert sub.image_lengths(level) == oracle_image_lengths(sub, level)
        for w in words:
            assert sub.image_length(sub.alphabet.word(w), level) == oracle_weight(sub, level, sub.alphabet.word(w))
    power = data.draw(st.integers(1, 4))
    assert sub.power(power).image_lengths(3) == oracle_image_lengths(sub, 3 * power)


def test_substitution_power(fibonacci):
    squared = fibonacci.power(2)
    assert squared.rules() == {"a": "aba", "b": "ab"}
    assert fibonacci.power(1) is fibonacci
    with pytest.raises(InputError):
        fibonacci.power(0)
