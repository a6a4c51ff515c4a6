"""The prefix automaton of a substitution and its integer numeration.

Vertices are letters; for every occurrence of a letter b in the image of a
letter a there is an edge a -> b labeled by the image prefix strictly before
that occurrence. A path from a seed letter, read as labels u_0..u_n, stands
for the prefix

    image^n(u_0) image^(n-1)(u_1) ... image(u_{n-1}) u_n

of the fixed point at the seed, and therefore for the integer equal to that
prefix's length. Values are sums of exact image lengths
(:meth:`substrand.words.Substitution.image_lengths`); :func:`decode_path`
builds the prefix word itself only up to its ``realize_cap`` (None: never),
since it can be astronomically long while the path stays short. Every
function takes the substitution itself (sigma^p for a seed of period p) and
reads the edges it needs off the images; :func:`prefix_automaton` lists
them all.

Path text format: ``a: a.e.a`` (start vertex, dot-separated labels, empty
label written ``e`` unless the alphabet uses the letter e, in which case the
empty token is used instead).
"""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple

from .errors import InputError
from .points import _longest_run
from .words import Substitution, Word, apply_substitution, require_seed_period

DEFAULT_REALIZE_CAP = 10**6


def prefix_automaton(sub: Substitution) -> dict:
    """The prefix automaton as JSON: its vertices, and one edge per (letter,
    occurrence) pair, ordered by label length, so labels at a vertex have
    pairwise distinct lengths; this is what makes the path order total.
    Nothing else stores edges: the labels of an image of length L hold
    L(L-1)/2 letters in all, while a path needs one label per step."""
    edges = []
    for a in sub.alphabet:
        image = sub.image(a)
        edges += ({"source": a, "target": image[k], "label": str(image[:k])} for k in range(len(image)))
    return {"vertices": list(sub.alphabet.letters), "edges": edges}


def _require_period_one(sub: Substitution, vertex: str) -> None:
    period = require_seed_period(sub, vertex)
    if period != 1:
        raise InputError(f"{vertex!r} is not a period-1 seed of this substitution; "
                         f"its least period is {period}")


class _PathFields(NamedTuple):
    start: str
    labels: tuple[Word, ...]

    def __len__(self) -> int:
        return len(self.labels)

    def to_json_dict(self) -> dict:
        return {"start": self.start, "labels": [str(u) for u in self.labels]}


class PathRepresentation(_PathFields):
    """A labeled path from a start vertex; the empty label list is the 0th path.

    For paths with more than one label the first label must be nonempty
    (properness), otherwise distinct paths could stand for the same integer.
    ``len`` counts the labels.
    """

    __slots__ = ()

    def __new__(cls, start: str, labels: tuple[Word, ...]):
        if len(labels) > 1 and len(labels[0]) == 0:
            raise InputError("first label must be nonempty on a multi-label path")
        return super().__new__(cls, start, labels)

    @classmethod
    def _make(cls, fields):  # _replace builds through here: validate its paths too
        return cls(*fields)


class DecodedValue(NamedTuple):
    """Value and terminal vertex of a path; the realized prefix is optional."""

    value: int
    terminal: str
    realized: Word | None

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "realized": None if self.realized is None else str(self.realized)}


def decode_path(
    sub: Substitution, path: PathRepresentation, realize_cap: int | None = DEFAULT_REALIZE_CAP
) -> DecodedValue:
    """Value, terminal vertex, and the realized prefix of a path.

    The value is a sum of exact image lengths; the realized word is built
    only when the value is at most ``realize_cap`` (None: never). Each label
    must be a proper prefix of the image of the vertex it leaves.
    """
    alphabet = sub.alphabet
    if path.start not in alphabet:
        raise InputError(f"start vertex {path.start!r} not in the alphabet")
    vertex = alphabet.index(path.start)
    n, value = len(path.labels) - 1, 0
    for i, label in enumerate(path.labels):
        image, k = sub.image_indices(vertex), len(label)
        if k >= len(image) or label.alphabet != alphabet or image[:k] != label.indices:
            raise InputError(f"no edge labeled {str(label)!r} at vertex {alphabet.letters[vertex]!r}")
        vertex = image[k]
        value += sub.image_length(label, n - i)
    realized = None
    if realize_cap is not None and value <= realize_cap:
        word = Word(alphabet)
        for label in path.labels:
            word = apply_substitution(sub, word) + label
        realized = word
    return DecodedValue(value, alphabet.letters[vertex], realized)


def _greedy_walk(sub: Substitution, start_index: int, value: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Label letter indices of the path of value, and the letter index it ends at.

    Greedy, most significant level first: at each level take the longest
    image-prefix label whose weight still fits, exactly as the order-
    preserving correspondence demands. Callers check that the start is a
    period-1 seed and that value >= 0.
    """
    if value == 0:
        return (), start_index
    levels = 0
    while sub.image_lengths(levels + 1)[start_index] <= value:
        levels += 1
    # levels + 1 labels, exponents levels..0
    vertex_index = start_index
    remaining = value
    labels: list[tuple[int, ...]] = []
    for level in range(levels, -1, -1):
        image = sub.image_indices(vertex_index)
        weights = sub.image_lengths(level)
        # longest image prefix whose weight still fits; prefix weights are
        # strictly increasing partial sums, and the loop invariant
        # remaining < weight(level, whole image) keeps take < len(image)
        acc = 0
        take = 0
        for k in range(len(image) - 1):
            extended = acc + weights[image[k]]
            if extended > remaining:
                break
            acc = extended
            take = k + 1
        labels.append(image[:take])
        remaining -= acc
        vertex_index = image[take]
    assert remaining == 0, "greedy digit extraction must terminate exactly"
    return tuple(labels), vertex_index


def _path(sub: Substitution, start: str, labels: tuple[tuple[int, ...], ...]) -> PathRepresentation:
    return PathRepresentation(start, tuple(Word(sub.alphabet, label) for label in labels))


def encode_integer(sub: Substitution, start: str, value: int) -> PathRepresentation:
    """The unique proper path at the seed whose value is the given integer.

    Greedy digits (see :func:`_greedy_walk`). Specializes to the greedy
    Zeckendorf expansion in the Fibonacci case and to base-k digits for
    uniform length-k substitutions.
    """
    _require_period_one(sub, start)
    if value < 0:
        raise InputError("value must be >= 0")
    labels, _ = _greedy_walk(sub, sub.alphabet.index(start), value)
    return _path(sub, start, labels)


def letter_at(sub: Substitution, start: str, value: int) -> str:
    """Letter x_v of the fixed point at the seed, v = ``value``: the path of v
    ends at x_v (Dumont & Thomas, Theor. Comput. Sci. 65, 1989), so this is
    one greedy walk of O(log v) steps that builds no path and expands nothing."""
    _require_period_one(sub, start)
    if value < 0:
        raise InputError("value must be >= 0")
    _, terminal = _greedy_walk(sub, sub.alphabet.index(start), value)
    return sub.alphabet.letters[terminal]


def _walks(sub: Substitution, start_index: int, lo: int):
    """Odometer of the numeration (Dumont & Thomas, Theor. Comput. Sci. 65,
    1989): the paths of lo, lo + 1, ... at the seed, each as the live label
    list, which the next step overwrites, and the terminal letter index.

    One greedy walk seeds the levels. A step grows the lowest label that can
    grow by one letter and resets the levels below it to empty labels; when
    none can grow, the path gains a top level with a one-letter label.
    """
    images = [sub.image_indices(i) for i in range(len(sub.alphabet))]
    labels, terminal = _greedy_walk(sub, start_index, lo)
    labels, vertices, vertex = list(labels), [], start_index
    for label in labels:
        vertices.append(vertex)
        vertex = images[vertex][len(label)]
    while True:
        yield labels, terminal
        level = len(labels) - 1
        while level >= 0 and len(labels[level]) + 1 >= len(images[vertices[level]]):
            level -= 1
        if level < 0:
            level, vertices[:0], labels[:0] = 0, [start_index], [()]
        labels[level] = images[vertices[level]][:len(labels[level]) + 1]
        terminal = images[vertices[level]][len(labels[level])]
        for below in range(level + 1, len(labels)):
            vertices[below] = terminal
            labels[below] = ()
            terminal = images[terminal][0]


def enumerate_paths(sub: Substitution, start: str, count: int) -> list[PathRepresentation]:
    """The first ``count`` paths at the seed in the total path order.

    Paths are ordered by label count, then lexicographically by label
    length; the k-th path (from 0) has value k. Stepped through by the
    odometer from the empty path (see :func:`_walks`).
    """
    _require_period_one(sub, start)
    if count < 1:
        raise InputError("count must be >= 1")
    walks = _walks(sub, sub.alphabet.index(start), 0)
    return [_path(sub, start, labels) for labels, _ in islice(walks, count)]


class SynchronizingEntry(NamedTuple):
    """An integer whose paths from both start vertices share a terminal."""

    value: int
    terminal: str
    path_a: PathRepresentation
    path_b: PathRepresentation

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "terminal": self.terminal,
            "path_a": format_path(self.path_a),
            "path_b": format_path(self.path_b),
        }


class SynchronizingScan(NamedTuple):
    """Synchronizing values in a range plus the longest consecutive run."""

    start_a: str
    start_b: str
    lo: int
    hi: int
    entries: tuple[SynchronizingEntry, ...]
    max_run: int

    def to_json_dict(self) -> dict:
        return {
            "start_a": self.start_a,
            "start_b": self.start_b,
            "range": [self.lo, self.hi],
            "synchronizing": [e.to_json_dict() for e in self.entries],
            "max_run": self.max_run,
        }


def synchronizing_scan(
    sub: Substitution, start_a: str, start_b: str, value_range: tuple[int, int]
) -> SynchronizingScan:
    """Which integers in [lo, hi] have same-terminal paths from both seeds.

    One odometer per seed steps through the range (see :func:`_walks`), and
    paths are built only for the values listed; the longest run is read off
    a 1-byte-per-value agreement mask by :func:`substrand.points._longest_run`.
    Long runs of consecutive synchronizing integers are the desk-scale shadow
    of thickness of the synchronizing value set.
    """
    _require_period_one(sub, start_a)
    _require_period_one(sub, start_b)
    lo, hi = value_range
    if lo < 0 or hi < lo:
        raise InputError("range must satisfy 0 <= lo <= hi")
    letters, index_a, index_b = sub.alphabet.letters, sub.alphabet.index(start_a), sub.alphabet.index(start_b)
    entries, agree = [], bytearray(hi - lo + 1)
    walks = zip(range(lo, hi + 1), _walks(sub, index_a, lo), _walks(sub, index_b, lo))
    for value, (labels_a, terminal_a), (labels_b, terminal_b) in walks:
        if terminal_a == terminal_b:
            agree[value - lo] = 1
            entries.append(SynchronizingEntry(
                value, letters[terminal_a], _path(sub, start_a, labels_a), _path(sub, start_b, labels_b),
            ))
    return SynchronizingScan(start_a, start_b, lo, hi, tuple(entries), _longest_run(agree, 1, 0, len(agree)))


# ---------------------------------------------------------------------------
# text I/O for paths

EMPTY_LABEL_TOKEN = "e"


def format_path(path: PathRepresentation) -> str:
    """Render ``a: a.e.a``; empty labels use ``e`` unless e is a letter."""
    labels = path.labels
    empty_token = "" if labels and "e" in labels[0].alphabet else EMPTY_LABEL_TOKEN
    body = ".".join(str(u) if len(u) else empty_token for u in labels)
    return f"{path.start}: {body}" if body else f"{path.start}:"


def parse_path(sub: Substitution, text: str) -> PathRepresentation:
    """Parse the text rendering of a path over this substitution's alphabet."""
    head, sep, body = text.partition(":")
    if not sep:
        raise InputError(f"path text needs a ': ' separator: {text!r}")
    start = head.strip()
    if len(start) != 1 or start not in sub.alphabet:
        raise InputError(f"bad start vertex {start!r}")
    body = body.strip()
    if not body:
        return PathRepresentation(start, ())
    labels = []
    e_is_letter = "e" in sub.alphabet
    for token in body.split("."):
        token = token.strip()
        if token == "" or (token == EMPTY_LABEL_TOKEN and not e_is_letter):
            labels.append(Word(sub.alphabet))
        else:
            labels.append(sub.alphabet.word(token))
    if len(labels) == 1 and len(labels[0]) == 0:
        return PathRepresentation(start, ())  # "a: e" is the 0th path
    return PathRepresentation(start, tuple(labels))
