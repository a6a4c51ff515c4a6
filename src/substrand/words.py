"""Alphabets, finite words, substitutions, rule files, and lazy fixed-point expansion.

Letters are single characters; internally words are stored as tuples of
letter indices so that count vectors and matrices share one canonical
ordering. A fixed point's prefix holds those indices in a ``bytearray``, one
byte per letter up to 256 letters, which the scans in :mod:`substrand.points`
read as bytes; numpy loads only when a numpy view is asked for
(:meth:`FixedPointStream.prefix_indices`, which the prefix-difference scans of
:mod:`substrand.coincidence` read); :meth:`FixedPointStream.expand` gives a
prefix as a :class:`Word`. Rule files use the text format that
:func:`parse_substitution_spec` turns into a :class:`Substitution`::

    # Fibonacci
    a -> ab
    b -> a
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, chain
from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import InputError

if TYPE_CHECKING:
    import numpy as np

# Letters written per round of the expansion: bounds its temporaries to a few
# MB whatever the prefix length.
_BLOCK_CELLS = 1 << 18
# Letters of the image table: long images, each written by one lookup, in a small table.
_TABLE_LETTERS = 1 << 16


class Alphabet:
    """An ordered set of distinct single-character letters.

    The order is fixed for the lifetime of the value: it defines the
    indexing used by count vectors, matrices, and strand coordinates.
    """

    __slots__ = ("letters", "_index")

    def __init__(self, letters: Iterable[str]):
        letters = tuple(letters)
        if not letters:
            raise InputError("alphabet needs at least one letter")
        for a in letters:
            if not isinstance(a, str) or len(a) != 1:
                raise InputError(f"letters must be single characters, got {a!r}")
        if len(set(letters)) != len(letters):
            raise InputError(f"duplicate letters in alphabet {''.join(letters)!r}")
        self.letters = letters
        self._index = {a: i for i, a in enumerate(letters)}

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __contains__(self, letter: str) -> bool:
        return letter in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.letters)!r})"

    def index(self, letter: str) -> int:
        try:
            return self._index[letter]
        except KeyError:
            raise InputError(f"letter {letter!r} is not in alphabet {''.join(self.letters)!r}") from None

    def word(self, text: str | Word) -> Word:
        """Build a word from its surface string (or pass a word through)."""
        if isinstance(text, Word):
            if text.alphabet != self:
                raise InputError("word belongs to a different alphabet")
            return text
        return Word(self, (self.index(ch) for ch in text))


class Word:
    """An immutable finite word, possibly empty."""

    __slots__ = ("alphabet", "indices")

    def __init__(self, alphabet: Alphabet, indices: Iterable[int] = ()):
        indices = tuple(indices)
        n = len(alphabet)
        for i in indices:
            if not 0 <= i < n:
                raise InputError(f"letter index {i} out of range for {alphabet!r}")
        self.alphabet = alphabet
        self.indices = indices

    @classmethod
    def _valid(cls, alphabet: Alphabet, indices: tuple[int, ...]) -> Word:
        """A word from a tuple of indices already known to be letters of the
        alphabet (read off valid words), without the per-letter range check."""
        word = object.__new__(cls)
        word.alphabet, word.indices = alphabet, indices
        return word

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        letters = self.alphabet.letters
        return (letters[i] for i in self.indices)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Word._valid(self.alphabet, self.indices[item])
        return self.alphabet.letters[self.indices[item]]

    def __add__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise InputError("cannot concatenate words over different alphabets")
        return Word._valid(self.alphabet, self.indices + other.indices)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.alphabet == other.alphabet
            and self.indices == other.indices
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.indices))

    def __str__(self) -> str:
        letters = self.alphabet.letters
        return "".join(letters[i] for i in self.indices)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


def abelianize(u: Word) -> tuple[int, ...]:
    """Letter-count vector of a word; coordinate i counts letter i."""
    counts = [0] * len(u.alphabet)
    for i in u.indices:
        counts[i] += 1
    return tuple(counts)


class Substitution:
    """A map sending each letter to a nonempty word, extended by concatenation."""

    __slots__ = ("alphabet", "_images", "_counts", "_lengths")

    def __init__(self, rules: Mapping[str, str | Word], alphabet: Alphabet | None = None):
        if alphabet is None:
            alphabet = Alphabet(rules.keys())
        images = []
        for letter in alphabet:
            if letter not in rules:
                raise InputError(f"no rule for letter {letter!r}")
            image = alphabet.word(rules[letter])
            if len(image) == 0:
                raise InputError(f"image of {letter!r} is empty")
            images.append(image.indices)
        if len(rules) != len(alphabet):
            raise InputError("rules mention letters outside the alphabet")
        self.alphabet = alphabet
        self._images = tuple(images)
        self._counts = None  # the count matrix by columns, built by the first image_lengths(k > 0)
        self._lengths = [[1] * len(images)]  # image_lengths(k) for k below len

    def image(self, letter: str) -> Word:
        return Word._valid(self.alphabet, self._images[self.alphabet.index(letter)])

    def image_indices(self, letter_index: int) -> tuple[int, ...]:
        return self._images[letter_index]

    def image_lengths(self, level: int) -> list[int]:
        """Exact |image^level(a)| of every letter a, in alphabet order, memoized per
        level (do not modify): as a row vector, level k + 1 is level k times M, the
        count matrix, so a level costs O(n^2) whatever the lengths of the images."""
        if level < 0:
            raise InputError("level must be >= 0")
        lengths = self._lengths
        if len(lengths) <= level and self._counts is None:  # (b, count of b in image(a)) for each a
            self._counts = [tuple(Counter(image).items()) for image in self._images]
        while len(lengths) <= level:
            previous = lengths[-1]
            lengths.append([sum(previous[b] * count for b, count in column) for column in self._counts])
        return lengths[level]

    def image_length(self, word: Word, level: int) -> int:
        """Exact |image^level(word)|: the word's letter counts dotted with
        :meth:`image_lengths` of the level."""
        lengths = self.image_lengths(level)
        return sum(lengths[a] * count for a, count in Counter(word.indices).items())

    def rules(self) -> dict[str, str]:
        letters = self.alphabet.letters
        return {a: "".join(letters[i] for i in self._images[k]) for k, a in enumerate(letters)}

    def power(self, m: int) -> "Substitution":
        """The substitution whose images are the m-th iterated images."""
        if m < 1:
            raise InputError("power must be >= 1")
        if m == 1:
            return self
        rules = {
            a: apply_substitution(self, self.image(a), m - 1) for a in self.alphabet
        }
        return Substitution(rules, self.alphabet)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Substitution)
            and self.alphabet == other.alphabet
            and self._images == other._images
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self._images))

    def __repr__(self) -> str:
        return f"Substitution({self.rules()!r})"


_RULE = re.compile(r"^\s*(\S+)\s*->\s*(.+?)\s*$")


def parse_substitution_spec(text: str) -> Substitution:
    """The substitution of a rule text; errors carry line numbers."""
    rules: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        match = _RULE.match(line)
        if not match:
            column = len(line) - len(line.lstrip()) + 1
            raise InputError(f"line {lineno}, column {column}: expected 'letter -> word'")
        lhs = match.group(1)
        rhs = "".join(match.group(2).split())
        if len(lhs) != 1:
            raise InputError(f"line {lineno}: left-hand side {lhs!r} must be one letter")
        if lhs in rules:
            raise InputError(f"line {lineno}: duplicate rule for {lhs!r}")
        if not rhs:
            raise InputError(f"line {lineno}: empty image for {lhs!r}")
        rules[lhs] = rhs
    if not rules:
        raise InputError("no rules found")
    declared = set(rules)
    for lhs, rhs in rules.items():
        for ch in rhs:
            if ch not in declared:
                raise InputError(
                    f"image of {lhs!r} uses undeclared symbol {ch!r}"
                )
    return Substitution(rules)


def apply_substitution(sub: Substitution, u: Word | str, power: int = 1) -> Word:
    """Apply the substitution ``power`` times to ``u`` (images concatenated in order)."""
    if power < 1:
        raise InputError("power must be >= 1")
    indices = sub.alphabet.word(u).indices
    for _ in range(power):
        indices = tuple(chain.from_iterable(map(sub._images.__getitem__, indices)))
    return Word._valid(sub.alphabet, indices)


def seed_period(sub: Substitution, letter: str) -> int | None:
    """Least p with ``sub^p(letter)`` starting with the letter and longer than
    one letter (a seed of period p), or None when the letter is not a seed.

    Following first letters returns to the letter within ``len(alphabet)``
    steps or never; ``sub^p(letter)`` is longer than one letter exactly when
    some letter on that cycle has an image longer than one letter.
    """
    start = sub.alphabet.index(letter)
    current, grows = start, False
    for p in range(1, len(sub.alphabet) + 1):
        image = sub._images[current]
        grows = grows or len(image) > 1
        current = image[0]
        if current == start:
            return p if grows else None
    return None


def require_seed_period(sub: Substitution, letter: str) -> int:
    """The least period of a seed (:func:`seed_period`); InputError for a letter
    that is not a seed."""
    period = seed_period(sub, letter)
    if period is None:
        raise InputError(
            f"{letter!r} is not a periodic seed: no power of the substitution "
            "maps it to a longer word that starts with it"
        )
    return period


def list_periodic_seeds(sub: Substitution) -> list[tuple[str, int]]:
    """All (letter, least period) of the seeds, in alphabet order (see :func:`seed_period`)."""
    return [(a, p) for a in sub.alphabet if (p := seed_period(sub, a)) is not None]


class FixedPointStream:
    """Lazily expanded prefix of the one-sided periodic point at a seed letter.

    The working substitution is ``substitution ** period``, where ``period``
    is the seed's least period (:func:`seed_period`); every multiple of it
    spells the same point, and the stream writes with tau = working ** K, K
    the largest power of 2 whose table of the images of the point's letters
    (built by squaring) holds at most ``_TABLE_LETTERS`` letters, so that
    each lookup writes many. The
    buffer holds 1 byte per letter (2 above 256 letters, 4 above 65536) and
    stops at the longest request; with the unwritten rest of the last image,
    it is the tau image of its own first ``expanded`` letters, so each letter
    is written once (linear in the prefix length for every growth type).
    """

    def __init__(self, substitution: Substitution, seed: str):
        self.substitution = substitution
        self.seed = seed
        self.period = require_seed_period(substitution, seed)
        # the first _ensure builds the table: a stream never read writes no image
        self._store, self._filled, self._expanded = memoryview(b""), 0, 0

    def _start(self) -> None:
        substitution, period = self.substitution, self.period
        n = len(substitution.alphabet)
        code = "B" if n <= 1 << 8 else "H" if n <= 1 << 16 else "I"
        images, seed = substitution.power(period)._images, substitution.alphabet.index(self.seed)
        reached, todo = {seed}, [seed]  # the letters of the point: only their images are looked up
        for a in todo:
            todo += set(images[a]) - reached
            reached.update(images[a])
        table = [array(code, image).tobytes() if a in reached else b"" for a, image in enumerate(images)]
        lengths = substitution.image_lengths(period)
        while True:  # the seed's image grows with each squaring, so the table outgrows any bound
            # tau^(2j)(a) is the tau^j images of the letters of tau^j(a): count them before building them
            squares = [sum(map(lengths.__getitem__, memoryview(image).cast(code))) for image in table]
            if sum(squares) > _TABLE_LETTERS:
                break
            table = [b"".join(map(table.__getitem__, memoryview(image).cast(code))) for image in table]
            lengths = squares
        self._table, self._lengths = table, lengths
        # invariant: _store[:_filled] + _tail == tau(_store[:_expanded]); _store has spare room
        self._store = memoryview(bytearray()).cast(code)
        self._tail = memoryview(table[seed]).cast(code)
        self._expanded = 1

    @property
    def alphabet(self) -> Alphabet:
        return self.substitution.alphabet

    def _ensure(self, length: int) -> None:
        if not self._expanded:
            self._start()
        store, filled = self._store, self._filled
        if length > len(store):  # room for the whole request, and at least double, in a new store:
            # numpy views of the old one pin its size
            self._store = memoryview(bytearray(max(2 * len(store), length) * store.itemsize)).cast(store.format)
            self._store[:filled] = store[:filled]
        while self._filled < length:
            self._round(min(length - self._filled, _BLOCK_CELLS))

    def _round(self, count: int) -> None:
        """Write up to ``count`` letters: the rest of the last image, or else the
        images of the next letters, up to the first that reaches ``count``."""
        filled, expanded = self._filled, self._expanded
        if not self._tail:
            # the buffer is the image of its first expanded letters, filled / expanded letters each on
            # average: read about twice the letters that count needs, then cut at the first image that
            # reaches count
            source = self._store[expanded:min(filled, expanded + 2 * count * expanded // filled + 1)]
            ends = list(accumulate(map(self._lengths.__getitem__, source)))
            used = min(bisect_left(ends, count) + 1, len(ends))
            self._tail = memoryview(b"".join(map(self._table.__getitem__, source[:used]))).cast(source.format)
            self._expanded = expanded + used
        count = min(count, len(self._tail))
        self._store[filled:filled + count] = self._tail[:count]
        self._tail = self._tail[count:]
        self._filled = filled + count

    def expand(self, length: int) -> Word:
        """The prefix of the periodic point of the given length (idempotent)."""
        return Word._valid(self.alphabet, tuple(self.prefix_view(length).tolist()))

    def prefix_view(self, length: int) -> memoryview:
        """Prefix as a read-only memoryview of letter indices, format ``B``
        (``H`` above 256 letters, ``I`` above 65536): a view of the buffer."""
        if length < 0:
            raise InputError("length must be >= 0")
        self._ensure(length)
        return self._store[:length].toreadonly()

    def prefix_indices(self, length: int) -> np.ndarray:
        """Prefix as a read-only numpy array of letter indices (a view of the buffer)."""
        import numpy as np

        view = self.prefix_view(length)
        return np.frombuffer(view, dtype=view.format)

    def prefix_text(self, length: int) -> str:
        view, letters = self.prefix_view(length), self.alphabet.letters
        if view.itemsize == 1:  # index i decodes to chr(i), which translates to letter i
            return view.tobytes().decode("latin-1").translate(letters)
        return "".join(map(letters.__getitem__, view))

    def __repr__(self) -> str:
        return f"FixedPointStream(seed={self.seed!r}, period={self.period})"

