"""Strong-coincidence checking between two fixed points.

The scan tracks the prefix count-difference sequence D_k =
counts(x_0..x_{k-1}) - counts(y_0..y_{k-1}); a witness is the least index
k >= 1 with D_k = 0 and x_k = y_k, in which case the length-k prefixes are
abelian equivalent words followed by a common letter. With no witness below
the horizon the scan reports the set of D values seen and whether that set
stopped growing (finiteness evidence), never a proof of non-coincidence.

D is computed only by :func:`_delta_blocks`, a cumulative sum over the
streams' letter buffers in bounded blocks; every scan here and
:func:`substrand.strand.max_stable_delta_norm` consume it. Its step also
splits the pairs of :func:`balanced_pair_closure`, which can prove there is
no witness at any index.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .words import FixedPointStream, Word, abelianize


@dataclass(frozen=True)
class DeltaSequence:
    """Exact prefix count-difference vectors D_0..D_horizon."""

    horizon: int
    values: tuple[tuple[int, ...], ...]

    def __getitem__(self, k: int) -> tuple[int, ...]:
        return self.values[k]

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class CoincidenceWitness:
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


@dataclass(frozen=True)
class CoincidenceVerdict:
    """Either a validated witness, or the bounded-scan negative report.

    When ``witness`` is None the scan found no qualifying index below the
    horizon; ``delta_values`` then holds every distinct difference vector
    observed and ``stabilized`` is True when none of them first appeared in
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


def _differences(xs: np.ndarray, ys: np.ndarray, n: int) -> np.ndarray:
    """int64 rows ``counts(xs[:i+1]) - counts(ys[:i+1])`` over n letters."""
    rows = np.empty((len(xs), n), dtype=np.int64)
    for a in range(n):
        steps = (xs == a).view(np.int8) - (ys == a).view(np.int8)
        np.cumsum(steps, dtype=np.int64, out=rows[:, a])
    return rows


def _delta_blocks(x: FixedPointStream, y: FixedPointStream, horizon: int):
    """Yield ``(k0, block)``, int64 rows ``block[i] = D_{k0+i}``, for k in [0, horizon]
    in increasing order; the first block holds D_0 alone.

    When a block is yielded the streams hold at least x_0..x_{k0+len(block)-1}.
    They grow with the scan, so a consumer that stops early expands them about
    as far as it read. Each growth at least doubles, and from past a quarter of
    horizon + 1 letters it goes straight there: a stream doubles its buffer on
    any shorter request, which would overshoot the horizon.
    """
    _check_pair(x, y)
    n = len(x.alphabet)
    rows = max(1, _BLOCK_CELLS // n)
    delta = np.zeros((1, n), dtype=np.int64)
    yield 0, delta
    grown = 0
    for j in range(0, horizon, rows):
        end = min(j + rows, horizon)
        if end >= grown:
            grown = max(end + 1, 2 * grown)
            grown = horizon + 1 if 4 * grown > horizon else grown
            xs = x.prefix_indices(grown)
            ys = y.prefix_indices(grown)
        block = _differences(xs[j:end], ys[j:end], n)
        block += delta
        delta = block[-1:].copy()
        yield j + 1, block


def _note_first_seen(first_seen: dict[tuple[int, ...], int], k0: int, block: np.ndarray) -> None:
    """Add each value in the block that ``first_seen`` lacks, with its index."""
    # every D_k sums to 0 (both prefixes have length k): the last column is implied
    keys = block[:, :max(1, block.shape[1] - 1)]
    order = np.lexsort(keys.T)  # stable: each run of equal rows starts at its least index
    ranked = keys[order]
    first = order[np.concatenate(([True], (ranked[1:] != ranked[:-1]).any(axis=1)))]
    for i, value in zip(first.tolist(), block[first].tolist()):
        first_seen.setdefault(tuple(value), k0 + i)


def _first_seen(x: FixedPointStream, y: FixedPointStream, horizon: int, stop_at: int | None = None):
    """Each distinct D_k, k < horizon, with its least k; stops after the block
    in which ``stop_at`` distinct values have been seen."""
    first_seen: dict[tuple[int, ...], int] = {}
    for k0, block in _delta_blocks(x, y, horizon - 1):
        _note_first_seen(first_seen, k0, block)
        if len(first_seen) == stop_at:
            break
    return first_seen


def delta_sequence(x: FixedPointStream, y: FixedPointStream, horizon: int) -> DeltaSequence:
    """The exact difference sequence D_0..D_horizon."""
    if horizon < 0:
        raise InputError("horizon must be >= 0")
    blocks = _delta_blocks(x, y, horizon)
    return DeltaSequence(horizon, tuple(tuple(row) for _, b in blocks for row in b.tolist()))


def find_strong_coincidence(
    x: FixedPointStream, y: FixedPointStream, horizon: int
) -> CoincidenceVerdict:
    """Least witness index below the horizon, or the negative scan report.

    Witness prefixes are nonempty (k >= 1): a coincidence at the very first
    letter needs no prefix evidence and is excluded by definition.
    """
    if horizon < 1:
        raise InputError("horizon must be >= 1")
    first_seen: dict[tuple[int, ...], int] = {}
    for k0, block in _delta_blocks(x, y, horizon - 1):
        end = k0 + len(block)
        agree = np.flatnonzero(x.prefix_indices(end)[k0:] == y.prefix_indices(end)[k0:])
        hits = k0 + agree[~block[agree].any(axis=1)]
        if k0 and hits.size:  # k0 = 0 only in the block of D_0, which is excluded
            k = int(hits[0])
            letter = x.alphabet.letters[x.prefix_indices(k + 1)[k]]
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
    if k < 1 or len(witness.prefix_x) != k or len(witness.prefix_y) != k:
        return False
    if witness.prefix_x != x.expand(k) or witness.prefix_y != y.expand(k):
        return False
    if abelianize(witness.prefix_x) != abelianize(witness.prefix_y):
        return False
    xk = x.prefix_indices(k + 1)[k]
    yk = y.prefix_indices(k + 1)[k]
    if xk != yk:
        return False
    return x.alphabet.letters[xk] == witness.letter


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
    return frozenset(_first_seen(x, y, horizon))


WITNESS_EXISTS, NO_WITNESS, INDETERMINATE = "WitnessExists", "NoWitness", "Indeterminate"
CLOSURE_MAX_PAIRS = CLOSURE_MAX_LENGTH = 1000  # hit by inputs whose pairs keep growing


@dataclass(frozen=True)
class BalancedPairClosure:
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
    CLOSURE_MAX_PAIRS pairs.
    """
    _check_pair(x, y)
    n, sub, period = len(x.alphabet), x.substitution, math.lcm(x.period, y.period)
    cut = next((k0 + int(zeros[0]) for k0, block in _delta_blocks(x, y, CLOSURE_MAX_LENGTH)
                if k0 and (zeros := np.flatnonzero(~block.any(axis=1))).size), None)
    if cut is None:
        return BalancedPairClosure(INDETERMINATE, ())
    if max(sub.image_lengths(period)) > CLOSURE_MAX_LENGTH:  # counted before any image is written out
        return BalancedPairClosure(INDETERMINATE, ())
    working = sub.power(period)
    images = [working.image_indices(a) for a in range(n)]
    pairs: dict[tuple[tuple[int, ...], tuple[int, ...]], None] = {}
    todo, verdict = deque([tuple(tuple(s.prefix_indices(cut).tolist()) for s in (x, y))]), NO_WITNESS
    while todo and verdict == NO_WITNESS:  # breadth first: a (c, c) is found at its least depth
        pair = todo.popleft()
        if pair in pairs:
            continue
        pairs[pair] = None
        if pair[0] == pair[1]:  # a minimal pair of equal words is one letter
            verdict = WITNESS_EXISTS
        elif len(pair[0]) > CLOSURE_MAX_LENGTH or len(pairs) > CLOSURE_MAX_PAIRS:
            verdict = INDETERMINATE
        else:
            us, vs = ([a for b in w for a in images[b]] for w in pair)
            cuts = (np.flatnonzero(~_differences(np.array(us), np.array(vs), n).any(axis=1)) + 1).tolist()
            todo.extend((tuple(us[s:e]), tuple(vs[s:e])) for s, e in zip([0] + cuts, cuts))
    words = tuple((Word(x.alphabet, u), Word(x.alphabet, v)) for u, v in pairs)
    if verdict != NO_WITNESS:
        return BalancedPairClosure(verdict, words)
    rows = np.concatenate([_differences(np.array(u), np.array(v), n) for u, v in pairs])
    return BalancedPairClosure(verdict, words, frozenset(map(tuple, rows.tolist())))


def verdict_without_witness(
    x: FixedPointStream, y: FixedPointStream, horizon: int, delta_values: frozenset[tuple[int, ...]]
) -> CoincidenceVerdict:
    """``find_strong_coincidence(x, y, horizon)`` for a pair with no witness
    whose D takes exactly ``delta_values`` (a NO_WITNESS closure's): the scan
    stops once it has seen them all."""
    first_seen = _first_seen(x, y, horizon, len(delta_values))
    return CoincidenceVerdict(horizon, None, frozenset(first_seen), max(first_seen.values()) < horizon // 2)
