"""Strong-coincidence checking between two fixed points.

The scan tracks the prefix count-difference sequence D_k =
counts(x_0..x_{k-1}) - counts(y_0..y_{k-1}); a witness is the least index
k >= 1 with D_k = 0 and x_k = y_k, in which case the length-k prefixes are
abelian equivalent words followed by a common letter. With no witness below
the horizon the scan reports the set of D values seen below it and whether
that set stopped growing (finiteness evidence).

Decided pairs are answered by descent; only Indeterminate pairs scan.
:func:`find_strong_coincidence` runs the balanced-pair closure in pure
Python. When it decides the pair, the minimal balanced pairs of x and y form
a substitutive sequence over the closure, and the least witness, or the
first index of every D value, is read off that sequence by a Dumont-Thomas
descent, without reading the streams or loading numpy. Otherwise D comes
from :func:`_delta_blocks`, a cumulative sum over the streams' letter
buffers in bounded blocks, which the scans here and
:func:`substrand.strand.max_stable_delta_norm` consume; numpy loads there.
:func:`delta_sequence` returns D_0..D_h as a plain tuple, D_k at index k.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, NamedTuple

from .errors import InputError
from .words import FixedPointStream, Substitution, Word, abelianize, apply_substitution

if TYPE_CHECKING:
    import numpy as np


class CoincidenceWitness(NamedTuple):
    """Index k with abelian-equivalent length-k prefixes and a shared next letter."""

    index: int
    letter: str
    prefix_x: Word
    prefix_y: Word

    def to_json_dict(self) -> dict:
        # wire format keys: k (index), c (shared letter), s/t (the two prefixes)
        return {
            "k": self.index,
            "c": self.letter,
            "s": str(self.prefix_x),
            "t": str(self.prefix_y),
        }


class CoincidenceVerdict(NamedTuple):
    """Either a validated witness, or the bounded-scan negative report.

    When ``witness`` is None the scan found no qualifying index below the
    horizon; ``delta_values`` then holds every distinct D_k, k below the
    horizon, and ``stabilized`` is True when none of them first appeared in
    the second half of the scan.
    """

    horizon: int
    witness: CoincidenceWitness | None
    delta_values: frozenset[tuple[int, ...]] | None = None
    stabilized: bool | None = None

    @property
    def found(self) -> bool:
        return self.witness is not None

    def to_json_dict(self) -> dict:
        if self.witness is not None:
            return {"horizon": self.horizon, "witness": self.witness.to_json_dict()}
        return {
            "horizon": self.horizon,
            "witness": None,
            "delta_values": sorted(list(v) for v in self.delta_values),
            "stabilized": self.stabilized,
        }


def _check_pair(x: FixedPointStream, y: FixedPointStream) -> None:
    if x.alphabet != y.alphabet:
        raise InputError("streams must share an alphabet")


_BLOCK_CELLS = 1 << 19  # entries of D (rows times letters) per block: bounds memory


def _delta_blocks(x: FixedPointStream, y: FixedPointStream, horizon: int):
    """Yield ``(k0, block)``, int64 rows ``block[i] = D_{k0+i}``, for k in [0, horizon]
    in increasing order; the first block holds D_0 alone.

    Each block asks the streams for just the letters it reads, so a consumer
    that stops early expands them about as far as it read.
    """
    import numpy as np

    _check_pair(x, y)
    n = len(x.alphabet)
    rows = max(1, _BLOCK_CELLS // n)
    delta = np.zeros((1, n), dtype=np.int64)
    yield 0, delta
    for j in range(0, horizon, rows):
        end = min(j + rows, horizon)
        xs, ys = x.prefix_indices(end)[j:], y.prefix_indices(end)[j:]
        block = np.empty((end - j, n), dtype=np.int64)
        for a in range(n):  # column a: counts of a in xs[:i+1] minus in ys[:i+1]
            np.cumsum((xs == a).view(np.int8) - (ys == a).view(np.int8), dtype=np.int64, out=block[:, a])
        block += delta
        delta = block[-1:].copy()
        yield j + 1, block


def _note_first_seen(first_seen: dict[tuple[int, ...], int], k0: int, block: np.ndarray) -> None:
    """Add each value in the block that ``first_seen`` lacks, with its index."""
    import numpy as np

    # every D_k sums to 0 (both prefixes have length k): the last column is implied
    keys = block[:, :max(1, block.shape[1] - 1)]
    order = np.lexsort(keys.T)  # stable: each run of equal rows starts at its least index
    ranked = keys[order]
    first = order[np.concatenate(([True], (ranked[1:] != ranked[:-1]).any(axis=1)))]
    for i, value in zip(first.tolist(), block[first].tolist()):
        first_seen.setdefault(tuple(value), k0 + i)


def delta_sequence(x: FixedPointStream, y: FixedPointStream, horizon: int) -> tuple[tuple[int, ...], ...]:
    """The exact difference vectors D_0..D_horizon, D_k at index k."""
    if horizon < 0:
        raise InputError("horizon must be >= 0")
    return tuple(tuple(row) for _, block in _delta_blocks(x, y, horizon) for row in block.tolist())


def find_strong_coincidence(
    x: FixedPointStream, y: FixedPointStream, horizon: int
) -> CoincidenceVerdict:
    """Least witness index below the horizon, or the negative scan report.

    Witness prefixes are nonempty (k >= 1): a coincidence at the very first
    letter needs no prefix evidence and is excluded by definition. A pair the
    balanced-pair closure decides is answered by descent, without reading the
    streams: the least witness, or, when it is at or past the horizon or does
    not exist, the first index of every D value. Only Indeterminate pairs scan.
    """
    if horizon < 1:
        raise InputError("horizon must be >= 1")
    _check_pair(x, y)
    verdict, graph, working = _close(x, y)
    if verdict == WITNESS_EXISTS:
        root = next(iter(graph))
        if root[0] == root[1]:  # x and y are one point: the least witness is k = 1
            pair, k, skipped = (working.image_indices(root[0][0])[1:2],) * 2, 1, [(root, 0)]
        else:
            pair, k, skipped = _descend(graph, {p for p in graph if p[0] == p[1]}, working)
        if k < horizon:
            letter = x.alphabet.letters[pair[0][0]]
            witness = CoincidenceWitness(k, letter, _spell(working, skipped, 0), _spell(working, skipped, 1))
            return CoincidenceVerdict(horizon, witness)
        verdict, graph, working = _close(x, y, complete=True)
    if verdict == INDETERMINATE:
        return _scan(x, y, horizon)
    first = {v: k for v, k in _first_indices(graph, working).items() if k < horizon}
    return CoincidenceVerdict(horizon, None, frozenset(first), max(first.values()) < horizon // 2)


def _scan(x: FixedPointStream, y: FixedPointStream, horizon: int) -> CoincidenceVerdict:
    """:func:`find_strong_coincidence` by the prefix-difference scan, reading the streams."""
    import numpy as np

    first_seen: dict[tuple[int, ...], int] = {}
    for k0, block in _delta_blocks(x, y, horizon - 1):
        if k0:  # k0 = 0 only in the block of D_0, which is excluded
            end = k0 + len(block)
            xs, ys = x.prefix_indices(end), y.prefix_indices(end)
            zeros = k0 + np.flatnonzero(~block.any(axis=1))
            hits = zeros[xs[zeros] == ys[zeros]]
            if hits.size:
                k = int(hits[0])
                letter = x.alphabet.letters[xs[k]]
                witness = CoincidenceWitness(k, letter, x.expand(k), y.expand(k))
                return CoincidenceVerdict(horizon=horizon, witness=witness)
        _note_first_seen(first_seen, k0, block)
    stabilized = max(first_seen.values()) < horizon // 2
    return CoincidenceVerdict(horizon, None, frozenset(first_seen), stabilized)


def validate_witness(
    x: FixedPointStream, y: FixedPointStream, witness: CoincidenceWitness
) -> bool:
    """Re-derive every witness requirement from the streams themselves."""
    _check_pair(x, y)
    k = witness.index
    if k < 1 or (witness.prefix_x, witness.prefix_y) != (x.expand(k), y.expand(k)):
        return False
    if abelianize(witness.prefix_x) != abelianize(witness.prefix_y):
        return False
    return x.prefix_text(k + 1)[k] == y.prefix_text(k + 1)[k] == witness.letter


def delta_value_set(
    x: FixedPointStream, y: FixedPointStream, horizon: int
) -> frozenset[tuple[int, ...]]:
    """Distinct difference vectors D_k for k below the horizon.

    For irreducible Pisot pairs this set is expected to stop growing as the
    horizon does; comparing cardinalities across horizons is the desk-scale
    finiteness check.
    """
    if horizon < 1:
        raise InputError("horizon must be >= 1")
    first_seen: dict[tuple[int, ...], int] = {}
    for k0, block in _delta_blocks(x, y, horizon - 1):
        _note_first_seen(first_seen, k0, block)
    return frozenset(first_seen)


WITNESS_EXISTS, NO_WITNESS, INDETERMINATE = "WitnessExists", "NoWitness", "Indeterminate"
CLOSURE_MAX_PAIRS = CLOSURE_MAX_LENGTH = 1000  # hit by inputs whose pairs keep growing


class BalancedPairClosure(NamedTuple):
    """The minimal balanced pairs found, and the verdict: WITNESS_EXISTS when
    one is (c, c), NO_WITNESS when the closure is finite without one (a proof;
    ``delta_values`` then holds D_k over every k), INDETERMINATE when a cap was
    hit first."""

    verdict: str
    pairs: tuple[tuple[Word, Word], ...]
    delta_values: frozenset[tuple[int, ...]] | None = None


def balanced_pair_closure(x: FixedPointStream, y: FixedPointStream) -> BalancedPairClosure:
    """Livshits' balanced-pair algorithm (Sirvent & Solomyak, Canad. Math.
    Bull. 45, 2002).

    Cutting x and y at every k with D_k = 0 splits them into minimal balanced
    pairs. Both points are fixed by sigma^p, p the lcm of their periods, which
    maps cuts to cuts; so the pairs that occur are the first one (up to the
    least k >= 1 with D_k = 0) closed under (u, v) -> the pairs of
    (sigma^p(u), sigma^p(v)). A witness is a cut k >= 1 whose pair is (c, c),
    and D takes the values inside the pairs. Caps: a first cut, an image of
    sigma^p or a pair longer than CLOSURE_MAX_LENGTH, more than
    CLOSURE_MAX_PAIRS pairs. Runs in pure Python and reads no stream.
    """
    _check_pair(x, y)
    verdict, graph, _ = _close(x, y)
    words = tuple((Word(x.alphabet, u), Word(x.alphabet, v)) for u, v in graph)
    n = len(x.alphabet)
    values = frozenset(v for pair in graph for v in _deltas(*pair, n)) if verdict == NO_WITNESS else None
    return BalancedPairClosure(verdict, words, values)


def _deltas(us, vs, n: int):
    """D_1, D_2, ... of two sequences of letter indices, as tuples."""
    delta = [0] * n
    for a, b in zip(us, vs):
        delta[a] += 1
        delta[b] -= 1
        yield tuple(delta)


def _cuts(us, vs, n: int) -> list[int]:
    """Every k >= 1 with D_k = 0, in increasing order."""
    zero = (0,) * n
    return [k for k, d in enumerate(_deltas(us, vs, n), 1) if d == zero]


def _close(x: FixedPointStream, y: FixedPointStream, complete: bool = False):
    """(verdict, graph, sigma^p) of the closure: the graph maps each pair found, in
    breadth-first order, to its list of child pairs, or None while unexpanded.
    The search stops at the first (c, c), which is then at its least depth,
    unless ``complete``; the pairs are tuples of letter indices."""
    n, sub, period = len(x.alphabet), x.substitution, math.lcm(x.period, y.period)
    graph: dict[tuple[tuple[int, ...], tuple[int, ...]], list | None] = {}
    # image lengths are counted before any image is written out
    if sub != y.substitution or max(sub.image_lengths(period)) > CLOSURE_MAX_LENGTH:
        return INDETERMINATE, graph, None
    working = sub.power(period)
    images = working._images
    prefixes = []
    for s in (x, y):  # the first letters of the point: each letter is the image of an earlier one
        letters, i = list(images[x.alphabet.index(s.seed)]), 1
        while len(letters) < CLOSURE_MAX_LENGTH:
            letters.extend(images[letters[i]])
            i += 1
        prefixes.append(letters[:CLOSURE_MAX_LENGTH])
    cut = next(iter(_cuts(*prefixes, n)), None)
    if cut is None:
        return INDETERMINATE, graph, None
    todo, verdict = deque([tuple(tuple(w[:cut]) for w in prefixes)]), NO_WITNESS
    while todo and verdict != INDETERMINATE and (complete or verdict == NO_WITNESS):
        pair = todo.popleft()
        if pair in graph:
            continue
        graph[pair] = None
        if pair[0] == pair[1]:  # a minimal pair of equal words is one letter
            verdict = WITNESS_EXISTS
            if not complete:
                break
        if len(pair[0]) > CLOSURE_MAX_LENGTH or len(graph) > CLOSURE_MAX_PAIRS:
            verdict = INDETERMINATE
        else:
            us, vs = ([a for b in w for a in images[b]] for w in pair)
            cuts = _cuts(us, vs, n)
            graph[pair] = [(tuple(us[s:e]), tuple(vs[s:e])) for s, e in zip([0] + cuts, cuts)]
            todo.extend(graph[pair])
    return verdict, graph, working


def _descend(graph: dict, targets: set, working: Substitution):
    """(pair, start, skipped): the first pair in ``targets`` of omega, the sequence
    of minimal pairs, which is the fixed point of the graph's substitution at
    its first pair; its first index; and the (pair, level) of each subtree
    skipped before it, in order, whose words under sigma^(p*level) spell the
    prefixes before it (Dumont & Thomas, Theoret. Comput. Sci. 65, 1989)."""
    parents: dict = {}
    for pair, children in graph.items():
        for child in children or ():
            parents.setdefault(child, []).append(pair)
    # depth[q]: the least d such that theta^d(q) holds a target (a breadth-first search backwards)
    depth, frontier = dict.fromkeys(targets, 0), list(targets)
    for child in frontier:
        for parent in parents.get(child, ()):
            if parent not in depth:
                depth[parent] = depth[child] + 1
                frontier.append(parent)
    pair = next(iter(graph))
    level, start, skipped = depth[pair], 0, []
    while level:  # theta^level(pair) is a prefix of the rest of omega, and holds a target
        level -= 1
        lengths = working.image_lengths(level)
        for child in graph[pair]:
            if depth.get(child, level + 1) <= level:
                break
            start += sum(lengths[a] for a in child[0])
            skipped.append((child, level))
        pair = child
    return pair, start, skipped


def _spell(working: Substitution, skipped: list, side: int) -> Word:
    """The prefix of x (side 0) or y (side 1) before the pair a descent reached:
    the images of the words of the skipped subtrees."""
    alphabet = working.alphabet
    return Word(alphabet, [a for pair, level in skipped for a in (
        apply_substitution(working, Word(alphabet, pair[side]), level).indices if level else pair[side])])


def _first_indices(graph: dict, working: Substitution) -> dict[tuple[int, ...], int]:
    """The least k of every D value over a complete closure: the start of the
    first pair of omega that holds the value, plus the least offset of the value
    inside it (the pairs are disjoint intervals, and D is 0 at their ends)."""
    n = len(working.alphabet)
    offsets: dict[tuple[int, ...], dict] = {}
    for pair in graph:
        for i, value in enumerate(_deltas(*pair, n), 1):
            offsets.setdefault(value, {}).setdefault(pair, i)
    first = {(0,) * n: 0}
    for value, where in offsets.items():
        if value not in first:
            pair, start, _ = _descend(graph, set(where), working)
            first[value] = start + where[pair]
    return first
