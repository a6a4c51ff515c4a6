"""The prefix automaton of a substitution and its integer numeration.

Vertices are letters; for every occurrence of a letter b in the image of a
letter a there is an edge a -> b labeled by the image prefix strictly before
that occurrence. A path from a seed letter, read as labels u_0..u_n, stands
for the prefix

    image^n(u_0) image^(n-1)(u_1) ... image(u_{n-1}) u_n

of the fixed point at the seed, and therefore for the integer equal to that
prefix's length. Values are sums of exact image lengths
(:meth:`substrand.words.Substitution.image_lengths`); the prefix word itself
is only materialized on request (it can be astronomically long while the
path stays short).

Path text format: ``a: a.e.a`` (start vertex, dot-separated labels, empty
label written ``e`` unless the alphabet uses the letter e, in which case the
empty token is used instead).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .words import Substitution, Word, apply_substitution, seed_period

DEFAULT_REALIZE_CAP = 10**6


@dataclass(frozen=True)
class PrefixEdge:
    """Edge of the prefix automaton: label then target spell an image prefix."""

    source: str
    target: str
    label: Word

    def to_json_dict(self) -> dict:
        return {"source": self.source, "target": self.target, "label": str(self.label)}


class PrefixGraph:
    """The prefix automaton of a substitution.

    Out-edges of a vertex are ordered by label length (0, 1, 2, ...), one
    edge per occurrence, so labels at a vertex have pairwise distinct
    lengths; this is what makes the path order total.

    Edges are read off the images when asked for, never stored: the labels
    of an image of length L hold L(L-1)/2 letters in all, while a path
    only ever needs one label per step.
    """

    def __init__(self, sub: Substitution):
        self.substitution = sub
        self.alphabet = sub.alphabet

    def out_edges(self, vertex: str) -> tuple[PrefixEdge, ...]:
        image = self.substitution.image(vertex)
        return tuple(PrefixEdge(vertex, image[k], image[:k]) for k in range(len(image)))

    def edge_target(self, vertex: str, label: Word) -> str:
        """Target of the unique out-edge with this label, or an input error."""
        image = self.substitution.image_indices(self.alphabet.index(vertex))
        k = len(label)
        if k < len(image) and label.alphabet == self.alphabet and image[:k] == label.indices:
            return self.alphabet.letters[image[k]]
        raise InputError(
            f"no edge labeled {str(label)!r} at vertex {vertex!r}"
        )

    def weight(self, level: int, word: Word) -> int:
        """Exact length of image^level(word)."""
        lengths = self.substitution.image_lengths(level)
        return sum(lengths[i] for i in word.indices)

    def require_seed(self, vertex: str) -> None:
        if seed_period(self.substitution, vertex) != 1:
            raise InputError(
                f"{vertex!r} is not a period-1 seed of this substitution; "
                "build the graph of the appropriate power instead"
            )

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.alphabet.letters),
            "edges": [e.to_json_dict() for a in self.alphabet for e in self.out_edges(a)],
        }

    def __repr__(self) -> str:
        return f"PrefixGraph({self.substitution.rules()!r})"


def build_prefix_graph(sub: Substitution) -> PrefixGraph:
    """One edge per (letter, occurrence) pair, ordered by label length."""
    return PrefixGraph(sub)


@dataclass(frozen=True)
class PathRepresentation:
    """A labeled path from a start vertex; the empty label list is the 0th path.

    For paths with more than one label the first label must be nonempty
    (properness), otherwise distinct paths could stand for the same integer.
    """

    start: str
    labels: tuple[Word, ...]

    def __post_init__(self):
        if len(self.labels) > 1 and len(self.labels[0]) == 0:
            raise InputError("first label must be nonempty on a multi-label path")

    def __len__(self) -> int:
        return len(self.labels)

    def to_json_dict(self) -> dict:
        return {"start": self.start, "labels": [str(u) for u in self.labels]}


@dataclass(frozen=True)
class DecodedValue:
    """Value and terminal vertex of a path; the realized prefix is optional."""

    value: int
    terminal: str
    realized: Word | None

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "terminal": self.terminal,
            "realized": None if self.realized is None else str(self.realized),
        }


def decode_path(
    g: PrefixGraph,
    path: PathRepresentation,
    materialize: bool = True,
    realize_cap: int = DEFAULT_REALIZE_CAP,
) -> DecodedValue:
    """Value, terminal vertex, and (optionally) the realized prefix of a path.

    The value is a sum of exact image lengths; the realized word is
    built only when requested and no longer than realize_cap.
    """
    if path.start not in g.alphabet:
        raise InputError(f"start vertex {path.start!r} not in the alphabet")
    vertex = path.start
    n = len(path.labels) - 1
    value = 0
    for i, label in enumerate(path.labels):
        vertex = g.edge_target(vertex, label)
        value += g.weight(n - i, label)
    realized = None
    if materialize and value <= realize_cap:
        word = Word(g.alphabet)
        for label in path.labels:
            word = apply_substitution(g.substitution, word) + label
        realized = word
    return DecodedValue(value, vertex, realized)


def _greedy_walk(g: PrefixGraph, start_index: int, value: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Label letter indices of the path of value, and the letter index it ends at.

    Greedy, most significant level first: at each level take the longest
    image-prefix label whose weight still fits, exactly as the order-
    preserving correspondence demands. Callers check that the start is a
    period-1 seed and that value >= 0.
    """
    if value == 0:
        return (), start_index
    sub = g.substitution
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


def _path(g: PrefixGraph, start: str, labels: tuple[tuple[int, ...], ...]) -> PathRepresentation:
    return PathRepresentation(start, tuple(Word(g.alphabet, label) for label in labels))


def encode_integer(g: PrefixGraph, start: str, value: int) -> PathRepresentation:
    """The unique proper path at the seed whose value is the given integer.

    Greedy digits (see :func:`_greedy_walk`). Specializes to the greedy
    Zeckendorf expansion in the Fibonacci case and to base-k digits for
    uniform length-k substitutions.
    """
    g.require_seed(start)
    if value < 0:
        raise InputError("value must be >= 0")
    labels, _ = _greedy_walk(g, g.alphabet.index(start), value)
    return _path(g, start, labels)


def letter_at(g: PrefixGraph, start: str, value: int) -> str:
    """Letter x_v of the fixed point at the seed, v = ``value``: the path of v
    ends at x_v (Dumont & Thomas, Theor. Comput. Sci. 65, 1989), so this is
    one greedy walk of O(log v) steps that builds no path and expands nothing."""
    g.require_seed(start)
    if value < 0:
        raise InputError("value must be >= 0")
    _, terminal = _greedy_walk(g, g.alphabet.index(start), value)
    return g.alphabet.letters[terminal]


def enumerate_paths(g: PrefixGraph, start: str, count: int) -> list[PathRepresentation]:
    """The first ``count`` paths at the seed in the total path order.

    Paths are ordered by label count, then lexicographically by label
    length; the k-th path (from 0) has value k. Generated directly from the
    order, independently of the greedy encoder.
    """
    g.require_seed(start)
    if count < 1:
        raise InputError("count must be >= 1")
    out = [PathRepresentation(start, ())]
    sub = g.substitution
    start_index = g.alphabet.index(start)

    def extend(vertex_index: int, labels: list[tuple[int, ...]], remaining_levels: int):
        if remaining_levels == 0:
            out.append(
                PathRepresentation(
                    start, tuple(Word(g.alphabet, l) for l in labels)
                )
            )
            return len(out) < count
        image = sub.image_indices(vertex_index)
        for k in range(len(image)):
            if not labels and k == 0:
                continue  # properness: first label nonempty
            labels.append(image[:k])
            keep_going = extend(image[k], labels, remaining_levels - 1)
            labels.pop()
            if not keep_going:
                return False
        return True

    n_labels = 1
    while len(out) < count:
        before = len(out)
        if not extend(start_index, [], n_labels):
            break
        if len(out) == before:
            break  # no paths of this length exist, none longer will either
        n_labels += 1
    return out[:count]


@dataclass(frozen=True)
class SynchronizingEntry:
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


@dataclass(frozen=True)
class SynchronizingScan:
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
    g: PrefixGraph, start_a: str, start_b: str, value_range: tuple[int, int]
) -> SynchronizingScan:
    """Which integers in [lo, hi] have same-terminal paths from both seeds.

    Long runs of consecutive synchronizing integers are the desk-scale
    shadow of thickness of the synchronizing value set.
    """
    g.require_seed(start_a)
    g.require_seed(start_b)
    lo, hi = value_range
    if lo < 0 or hi < lo:
        raise InputError("range must satisfy 0 <= lo <= hi")
    index_a = g.alphabet.index(start_a)
    index_b = g.alphabet.index(start_b)
    entries = []
    run = 0
    max_run = 0
    previous = None
    for value in range(lo, hi + 1):
        labels_a, terminal_a = _greedy_walk(g, index_a, value)
        labels_b, terminal_b = _greedy_walk(g, index_b, value)
        if terminal_a == terminal_b:
            entries.append(SynchronizingEntry(
                value, g.alphabet.letters[terminal_a],
                _path(g, start_a, labels_a), _path(g, start_b, labels_b),
            ))
            run = run + 1 if previous == value - 1 else 1
            previous = value
            max_run = max(max_run, run)
    return SynchronizingScan(start_a, start_b, lo, hi, tuple(entries), max_run)


# ---------------------------------------------------------------------------
# text I/O for paths

EMPTY_LABEL_TOKEN = "e"


def format_path(path: PathRepresentation, alphabet=None) -> str:
    """Render ``a: a.e.a``; empty labels use ``e`` unless e is a letter."""
    labels = path.labels
    if alphabet is None and labels:
        alphabet = labels[0].alphabet
    empty_token = "" if (alphabet is not None and "e" in alphabet) else EMPTY_LABEL_TOKEN
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
