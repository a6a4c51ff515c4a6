"""Occurrence sets, return-gap diagnostics, and proximality scanning.

Everything here is horizon-bounded: occurrence sets are exact below their
horizon, and the proximality verdict is deliberately evidence-flavoured
(EvidenceFor / NoneFound), since no finite scan can prove that two infinite
words agree on arbitrarily long windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .words import FixedPointStream, Word

EVIDENCE_FOR = "EvidenceFor"
NONE_FOUND = "NoneFound"

_BLOCK_CELLS = 1 << 16  # candidate starts per block of the occurrence scan: bounds memory


@dataclass(frozen=True, eq=False)
class OccurrenceSet:
    """Positions below the horizon where the factor occurs in the stream's word.

    ``positions`` is a read-only int64 array (Python ints only when printed),
    strictly increasing, and every occurrence fits entirely below the horizon
    (p + |factor| <= horizon).
    """

    factor: Word
    horizon: int
    positions: np.ndarray

    def __len__(self) -> int:
        return len(self.positions)

    def to_json_dict(self) -> dict:
        return {
            "factor": str(self.factor),
            "horizon": self.horizon,
            "positions": self.positions.tolist(),
        }

    def to_text(self) -> str:
        """One position per line (pipe-friendly)."""
        return "\n".join(map(str, self.positions.tolist()))


def occurrences(stream: FixedPointStream, factor: Word | str, horizon: int) -> OccurrenceSet:
    """All occurrence positions of the factor below the horizon.

    Candidates are the positions of the factor's first letter, found a block
    at a time and narrowed letter by letter, so a long factor costs little
    more than its first letter; the blocks' positions are joined once.
    """
    factor = stream.alphabet.word(factor)
    if len(factor) == 0:
        raise InputError("factor must be nonempty")
    if horizon < len(factor):
        raise InputError("horizon must be at least the factor length")
    letters = stream.prefix_indices(horizon)
    starts = horizon - len(factor) + 1  # occurrences start below this
    first, rest = factor.indices[0], factor.indices[1:]
    blocks = []
    for j in range(0, starts, _BLOCK_CELLS):
        found = np.flatnonzero(letters[j:min(j + _BLOCK_CELLS, starts)] == first) + j
        for i, a in enumerate(rest, 1):
            found = found[letters[found + i] == a]
        blocks.append(found)
    positions = np.concatenate(blocks).astype(np.int64, copy=False)
    positions.flags.writeable = False
    return OccurrenceSet(factor, horizon, positions)


def max_return_gap(occ: OccurrenceSet) -> int | None:
    """Largest gap between consecutive occurrences, counting the gap from 0.

    Returns an int, or None with fewer than two occurrences. A value that
    stabilizes while the horizon grows is desk-scale evidence of bounded
    gaps (uniform recurrence).
    """
    pos = occ.positions
    if len(pos) < 2:
        return None
    return int(max(pos[0], np.diff(pos).max()))


@dataclass(frozen=True)
class ProximalityEvidence:
    """Agreement windows between two streams below a horizon.

    ``windows`` lists maximal runs (position, length) of coordinatewise
    agreement with length >= the requested minimum. ``max_length_per_horizon``
    records the longest run seen below each probe horizon so the caller can
    judge growth; the verdict is EvidenceFor when the longest window still
    grows between the half horizon and the full horizon.
    """

    windows: tuple[tuple[int, int], ...]
    horizon: int
    min_window: int
    max_length_per_horizon: tuple[tuple[int, int], ...]
    verdict: str

    def to_json_dict(self) -> dict:
        return {
            "windows": [list(w) for w in self.windows],
            "horizon": self.horizon,
            "min_window": self.min_window,
            "max_length_per_horizon": {str(h): m for h, m in self.max_length_per_horizon},
            "verdict": self.verdict,
        }


def proximality_scan(
    x: FixedPointStream,
    y: FixedPointStream,
    min_window: int,
    horizon: int,
) -> ProximalityEvidence:
    """Scan two streams for long common windows at common positions."""
    if x.alphabet != y.alphabet:
        raise InputError("streams must share an alphabet")
    if min_window < 1:
        raise InputError("min_window must be >= 1")
    if horizon < min_window:
        raise InputError("horizon must be >= min_window")
    agree = x.prefix_indices(horizon) == y.prefix_indices(horizon)
    # maximal runs of agreement start and end where the padded mask flips
    edges = np.flatnonzero(np.diff(np.concatenate(([False], agree, [False]))))
    starts, ends = edges[0::2], edges[1::2]
    lengths = ends - starts
    long = lengths >= min_window
    windows = tuple(zip(starts[long].tolist(), lengths[long].tolist()))

    probes = sorted({max(1, horizon // 4), max(1, horizon // 2), horizon})
    best = {h: int((np.minimum(ends, h) - starts)[starts < h].max(initial=0)) for h in probes}
    full, half = best[horizon], best[max(1, horizon // 2)]
    verdict = EVIDENCE_FOR if (full >= min_window and full > half) else NONE_FOUND
    return ProximalityEvidence(windows, horizon, min_window, tuple(best.items()), verdict)
