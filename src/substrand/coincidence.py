"""Strong-coincidence checking between two fixed points.

The scan tracks the prefix count-difference sequence D_k =
counts(x_0..x_{k-1}) - counts(y_0..y_{k-1}); a witness is the least index
k >= 1 with D_k = 0 and x_k = y_k, in which case the length-k prefixes are
abelian equivalent words followed by a common letter. With no witness below
the horizon the scan reports the set of D values seen and whether that set
stopped growing (finiteness evidence), never a proof of non-coincidence.

D is computed only by :func:`_delta_blocks`, a cumulative sum over the
streams' letter buffers in bounded blocks; every scan here and
:func:`substrand.strand.max_stable_delta_norm` consume it.
"""

from __future__ import annotations

import json
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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def _check_pair(x: FixedPointStream, y: FixedPointStream) -> None:
    if x.alphabet != y.alphabet:
        raise InputError("streams must share an alphabet")


_BLOCK_CELLS = 1 << 19  # entries of D (rows times letters) per block: bounds memory


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
        xb, yb = xs[j:end], ys[j:end]
        block = np.empty((len(xb), n), dtype=np.int64)
        for a in range(n):
            steps = (xb == a).view(np.int8) - (yb == a).view(np.int8)
            np.cumsum(steps, dtype=np.int64, out=block[:, a])
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
    first_seen: dict[tuple[int, ...], int] = {}
    for k0, block in _delta_blocks(x, y, horizon - 1):
        _note_first_seen(first_seen, k0, block)
    return frozenset(first_seen)
