"""Alphabets, finite words, substitutions, rule files, and lazy fixed-point expansion.

Letters are single characters; internally words are stored as tuples of
letter indices so that count vectors and matrices share one canonical
ordering. A fixed point's prefix is a numpy array of those indices, one
byte per letter up to 256 letters, which the scans in :mod:`substrand.points`
and :mod:`substrand.coincidence` read. Rule files use the text format parsed
by :func:`parse_substitution_spec`::

    # Fibonacci
    a -> ab
    b -> a
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import InputError

# Source letters per gather step of the expansion: bounds its int64
# temporaries to a few MB whatever the prefix length.
_BLOCK_CELLS = 1 << 18


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

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        letters = self.alphabet.letters
        return (letters[i] for i in self.indices)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Word(self.alphabet, self.indices[item])
        return self.alphabet.letters[self.indices[item]]

    def __add__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise InputError("cannot concatenate words over different alphabets")
        return Word(self.alphabet, self.indices + other.indices)

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

    def startswith(self, prefix: "Word") -> bool:
        return self.indices[: len(prefix.indices)] == prefix.indices


def abelianize(u: Word) -> tuple[int, ...]:
    """Letter-count vector of a word; coordinate i counts letter i."""
    counts = [0] * len(u.alphabet)
    for i in u.indices:
        counts[i] += 1
    return tuple(counts)


class Substitution:
    """A map sending each letter to a nonempty word, extended by concatenation."""

    __slots__ = ("alphabet", "_images", "_lengths")

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
        self._lengths = [[1] * len(images)]  # image_lengths(k) for k below len

    def image(self, letter: str) -> Word:
        return Word(self.alphabet, self._images[self.alphabet.index(letter)])

    def image_indices(self, letter_index: int) -> tuple[int, ...]:
        return self._images[letter_index]

    def image_lengths(self, level: int) -> list[int]:
        """Exact |image^level(a)| of every letter a, in alphabet order, memoized per
        level (do not modify): |image^(k+1)(a)| sums |image^k(b)| over b in image(a)."""
        if level < 0:
            raise InputError("level must be >= 0")
        lengths = self._lengths
        while len(lengths) <= level:
            previous = lengths[-1]
            lengths.append([sum(previous[b] for b in image) for image in self._images])
        return lengths[level]

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


@dataclass(frozen=True)
class SubstitutionSpec:
    """A parsed rule file: source text, the substitution, an optional name."""

    source: str
    substitution: Substitution
    name: str | None = None


def parse_substitution_spec(text: str, name: str | None = None) -> SubstitutionSpec:
    """Parse the rule text format; errors carry line numbers."""
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
    return SubstitutionSpec(source=text, substitution=Substitution(rules), name=name)


def apply_substitution(sub: Substitution, u: Word | str, power: int = 1) -> Word:
    """Apply the substitution ``power`` times to ``u`` (images concatenated in order)."""
    if power < 1:
        raise InputError("power must be >= 1")
    word = sub.alphabet.word(u)
    indices = word.indices
    for _ in range(power):
        out: list[int] = []
        for i in indices:
            out.extend(sub._images[i])
        indices = tuple(out)
    return Word(sub.alphabet, indices)


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


def list_periodic_seeds(sub: Substitution) -> list[tuple[str, int]]:
    """All (letter, least period) of the seeds, in alphabet order (see :func:`seed_period`)."""
    return [(a, p) for a in sub.alphabet if (p := seed_period(sub, a)) is not None]


class FixedPointStream:
    """Lazily expanded prefix of the one-sided periodic point at a seed letter.

    The working substitution is ``substitution ** period``, where ``period``
    is the seed's least period (:func:`seed_period`); every multiple of it
    spells the same point. The buffer, an array of dtype
    ``np.min_scalar_type(len(alphabet) - 1)``, only ever grows, by
    applying the working substitution to the current prefix and truncating
    on a doubling schedule (amortized linear in output length); the images
    are gathered ``_BLOCK_CELLS`` source letters at a time.
    """

    def __init__(self, substitution: Substitution, seed: str):
        period = seed_period(substitution, seed)
        if period is None:
            raise InputError(
                f"{seed!r} is not a periodic seed: no power of the substitution "
                "maps it to a longer word that starts with it"
            )
        self.substitution = substitution
        self.seed = seed
        self.period = period
        working = substitution.power(period)
        seed_index = substitution.alphabet.index(seed)
        dtype = np.min_scalar_type(len(substitution.alphabet) - 1)
        images = working._images
        self._image_letters = np.array([i for im in images for i in im], dtype=dtype)
        self._image_lengths = np.array([len(im) for im in images], dtype=np.intp)
        self._image_starts = np.cumsum(self._image_lengths) - self._image_lengths
        self._buf = np.array([seed_index], dtype=dtype)

    @property
    def alphabet(self) -> Alphabet:
        return self.substitution.alphabet

    def _ensure(self, length: int) -> None:
        buf = self._buf
        # at least double per call (growing by small steps stays linear), but every
        # round of one call aims at the same target, so the call stops within an image of it
        target = max(length, 2 * len(buf))
        while len(buf) < length:
            # whole images of the shortest prefix of buf that reaches target
            out = np.empty(target + int(self._image_lengths.max()), dtype=buf.dtype)
            filled = 0
            for start in range(0, len(buf), _BLOCK_CELLS):
                block = buf[start:start + _BLOCK_CELLS]
                lengths = self._image_lengths[block]
                ends = np.cumsum(lengths)
                used = int(np.searchsorted(ends, target - filled)) + 1
                block, lengths, ends = block[:used], lengths[:used], ends[:used]
                # output position p in the image of block[j] reads image_starts[block[j]] + p - ends[j] + lengths[j]
                gather = np.repeat(self._image_starts[block] - ends + lengths, lengths)
                gather += np.arange(len(gather))
                out[filled:filled + len(gather)] = self._image_letters[gather]
                filled += len(gather)
                if filled >= target:
                    break
            buf = out[:filled]
        self._buf = buf

    def expand(self, length: int) -> Word:
        """The prefix of the periodic point of the given length (idempotent)."""
        if length < 0:
            raise InputError("length must be >= 0")
        self._ensure(length)
        return Word(self.alphabet, self._buf[:length].tolist())

    def prefix_indices(self, length: int) -> np.ndarray:
        """Prefix as a read-only array of letter indices (a view of the buffer)."""
        if length < 0:
            raise InputError("length must be >= 0")
        self._ensure(length)
        prefix = self._buf[:length]
        prefix.flags.writeable = False
        return prefix

    def prefix_text(self, length: int) -> str:
        codes = np.array([ord(a) for a in self.alphabet.letters], dtype="<u4")
        return codes[self.prefix_indices(length)].tobytes().decode("utf-32-le", "surrogatepass")

    def __repr__(self) -> str:
        return f"FixedPointStream(seed={self.seed!r}, period={self.period})"


def expand(stream: FixedPointStream, length: int) -> Word:
    """Prefix of the stream's periodic point (see :meth:`FixedPointStream.expand`)."""
    return stream.expand(length)
