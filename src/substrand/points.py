"""Occurrence sets, return-gap diagnostics, and proximality scanning.

Everything here is horizon-bounded: occurrence sets are exact below their
horizon, and the proximality verdict is deliberately evidence-flavoured
(EvidenceFor / NoneFound), since no finite scan can prove that two infinite
words agree on arbitrarily long windows. Both scans run on the standard
library: one kernel, :func:`_zero_letters`, turns blocks of letters compared
as big integers into 1 byte per position, whose runs ``bytes.find`` measures.
"""

from __future__ import annotations

from array import array
from functools import reduce
from itertools import compress
from operator import and_
from typing import NamedTuple

from .errors import InputError
from .words import FixedPointStream, Word

EVIDENCE_FOR = "EvidenceFor"
NONE_FOUND = "NoneFound"

_BLOCK_CELLS = 1 << 16  # letters per block of the agreement and occurrence scans: bounds memory
_ZERO_TO_ONE = bytes([1]) + bytes(255)  # translation table: a zero byte becomes 1, any other 0
_RUN_NEEDLE = 1 << 16  # longest needle _longest_run searches with: bounds its memory


def _zero_letters(diff: int, letters: int, width: int) -> bytes:
    """1 byte per letter of ``diff``, ``letters`` letters of ``width`` bytes
    read as a little-endian int (say x XOR y): 1 where all bytes of the letter
    are zero (x and y agree there). Each byte is translated, then the lanes
    are ANDed."""
    zero = diff.to_bytes(letters * width, "little").translate(_ZERO_TO_ONE)
    lanes = (int.from_bytes(zero[lane::width], "little") for lane in range(width))
    return reduce(and_, lanes).to_bytes(letters, "little")


def _longest_run(mask: bytearray, byte: int, start: int, end: int) -> int:
    """The longest run of ``byte`` in mask[start:end], a mask of 0 and 1 bytes:
    each find jumps to the next run of at least min(longest so far + 1,
    _RUN_NEEDLE) bytes, so the finds read the mask once."""
    longest = 0
    while (start := mask.find(bytes([byte]) * min(longest + 1, _RUN_NEEDLE), start, end)) >= 0:
        stop = mask.find(1 - byte, start, end)
        stop = end if stop < 0 else stop
        start, longest = stop, max(longest, stop - start)
    return longest


class OccurrenceSet(NamedTuple):
    """Positions below the horizon where the factor occurs in the stream's word.

    ``hits`` holds 1 byte per candidate start p, 1 where the factor occurs at
    p (do not modify); every occurrence fits entirely below the horizon
    (p + |factor| <= horizon). ``positions`` lists them, strictly increasing.
    ``len`` counts them (so ``_replace``, which counts fields, does not
    apply), and a set equals only itself.
    """

    factor: Word
    horizon: int
    hits: bytearray

    def __eq__(self, other) -> bool:
        return self is other

    def __ne__(self, other) -> bool:
        return self is not other

    __hash__ = object.__hash__

    @property
    def positions(self) -> list[int]:
        return list(compress(range(len(self.hits)), self.hits))

    def __len__(self) -> int:
        return self.hits.count(1)

    def to_json_dict(self) -> dict:
        return {"factor": str(self.factor), "horizon": self.horizon, "positions": self.positions}

    def to_text(self) -> str:
        """One position per line (pipe-friendly)."""
        return "\n".join(map(str, self.positions))


def occurrences(stream: FixedPointStream, factor: Word | str, horizon: int) -> OccurrenceSet:
    """All occurrence positions of the factor below the horizon.

    A block of candidate starts at a time, read once as an int, the letters
    at offset i (the int shifted by i letters) are XORed with the factor's
    letter i: the factor occurs where the OR of these differences is zero,
    the AND of the letters' agreement masks.
    """
    factor = stream.alphabet.word(factor)
    if len(factor) == 0:
        raise InputError("factor must be nonempty")
    if horizon < len(factor):
        raise InputError("horizon must be at least the factor length")
    letters = stream.prefix_view(horizon)
    starts = horizon - len(factor) + 1  # occurrences start below this
    cells, width = min(_BLOCK_CELLS, starts), letters.itemsize
    ones = int.from_bytes(array(letters.format, [1]) * cells, "little")  # letter a, cells times: a * ones
    hits = bytearray(starts)
    for j in range(0, starts, cells):
        count = min(cells, starts - j)
        run = ones >> 8 * width * (cells - count)
        block, diff = int.from_bytes(letters[j:j + count + len(factor) - 1], "little"), 0
        for i, a in enumerate(factor.indices):
            diff |= (block >> 8 * width * i) ^ a * run
        low = (1 << 8 * width * count) - 1  # the bits of the block's letters
        hits[j:j + count] = _zero_letters(diff & low, count, width)
    return OccurrenceSet(factor, horizon, hits)


def max_return_gap(occ: OccurrenceSet) -> int | None:
    """Largest gap between consecutive occurrences, counting the gap from 0.

    Returns an int, or None with fewer than two occurrences. A value that
    stabilizes while the horizon grows is desk-scale evidence of bounded
    gaps (uniform recurrence).
    """
    hits = occ.hits
    first, last = hits.find(1), hits.rfind(1)
    if first == last:
        return None
    return max(first, _longest_run(hits, 0, first + 1, last) + 1)


class ProximalityEvidence(NamedTuple):
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
        return {**self._asdict(), "windows": [list(w) for w in self.windows],
                "max_length_per_horizon": {str(h): m for h, m in self.max_length_per_horizon}}


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
    xs, ys = x.prefix_view(horizon), y.prefix_view(horizon)
    agree = bytearray(horizon)  # 1 byte per position: 1 where x and y agree
    for j in range(0, horizon, _BLOCK_CELLS):
        block = slice(j, min(j + _BLOCK_CELLS, horizon))
        diff = int.from_bytes(xs[block], "little") ^ int.from_bytes(ys[block], "little")
        agree[block] = _zero_letters(diff, block.stop - j, xs.itemsize)
    windows, start, run = [], 0, b"\x01" * min_window
    while (start := agree.find(run, start)) >= 0:  # a maximal run: the byte before it is 0
        end = agree.find(0, start + min_window)
        end = horizon if end < 0 else end
        windows.append((start, end - start))
        start = end
    probes = sorted({max(1, horizon // 4), max(1, horizon // 2), horizon})
    best = {h: _longest_run(agree, 1, 0, h) for h in probes}  # the longest run below h
    full, half = best[horizon], best[max(1, horizon // 2)]
    verdict = EVIDENCE_FOR if (full >= min_window and full > half) else NONE_FOUND
    return ProximalityEvidence(tuple(windows), horizon, min_window, tuple(best.items()), verdict)
