"""Spans around substrand's public functions, and per-layer metrics from them.

The wrappers live here, outside the program: :meth:`Tracer.install`
replaces each public function at the module (or class) attribute its callers
look it up from, and :meth:`Tracer.uninstall` puts the originals back. ``Word`` and
``Alphabet`` methods are never wrapped; they run millions of times.

A span is ``[name, start, end, parent, command, counters]``. A layer's self
time is the sum, over its spans, of the span's duration minus the durations
of its direct children; calls are strictly nested in one thread, so the
children cover disjoint parts of the parent.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import sys
from collections import defaultdict
from time import perf_counter


def stdout_digest(stdout: str, work: str) -> str:
    """sha256 of a command's stdout, with the temporary directory's name
    replaced so that runs of one seed can be compared byte for byte."""
    return hashlib.sha256(stdout.replace(work, "<work>").encode()).hexdigest()


class Tracer:
    """Records spans in memory; one tracer per traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.command: str | None = None
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a span named ``name``; ``count(args, result)``
        returns the span's counters (evaluated after the span ends)."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = perf_counter()
                stack.pop()
                span[5] = {"error": type(exc).__name__}
                raise
            span[2] = perf_counter()
            stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer's public functions (see the module docstring)."""
        from substrand import (
            cli, coincidence, ipsets, numeration, points, spectral, strand, words,
        )

        W = self.wrap
        prefix_count = lambda a, r: {"letters": len(r), "bytes": sys.getsizeof(r)}  # noqa: E731
        word_count = lambda a, r: {"letters": len(r), "bytes": sys.getsizeof(r.indices)}  # noqa: E731
        stream = words.FixedPointStream
        self.patch(stream, "prefix_indices", W("words.expand", stream.prefix_indices, prefix_count))
        self.patch(stream, "expand", W("words.expand", stream.expand, word_count))
        self.patch(words.Substitution, "power", W("words.apply", words.Substitution.power))
        apply = W("words.apply", words.apply_substitution)
        for module in (words, ipsets, numeration):
            self.patch(module, "apply_substitution", apply)

        def scan_count(args, verdict):
            steps = verdict.witness.index if verdict.found else verdict.horizon
            distinct = 0 if verdict.found else len(verdict.delta_values)
            return {"steps": steps, "distinct": distinct}

        scan = W("coincidence.scan", coincidence.find_strong_coincidence, scan_count)

        def expand_then_scan(x, y, horizon):
            # grow both buffers under words spans first, so the coincidence
            # span times the scan alone
            x.prefix_indices(horizon)
            y.prefix_indices(horizon)
            return scan(x, y, horizon)

        self.patch(coincidence, "find_strong_coincidence", expand_then_scan)
        self.patch(points, "proximality_scan", W(
            "points.proximal", points.proximality_scan,
            lambda a, r: {"letters": r.horizon, "windows": len(r.windows)}))
        self.patch(points, "occurrences", W(
            "points.occurrences", points.occurrences,
            lambda a, r: {"letters": r.horizon, "positions": len(r.positions)}))
        self.patch(points, "max_return_gap", W("points.occurrences", points.max_return_gap))

        self.patch(numeration, "encode_integer", W("numeration.encode", numeration.encode_integer))
        self.patch(numeration, "decode_path", W("numeration.decode", numeration.decode_path))
        self.patch(numeration, "synchronizing_scan", W(
            "numeration.sync", numeration.synchronizing_scan,
            lambda a, r: {"values": r.hi - r.lo + 1, "hits": len(r.entries)}))
        self.patch(numeration, "enumerate_paths", W(
            "numeration.enumerate", numeration.enumerate_paths, lambda a, r: {"paths": len(r)}))
        self.patch(numeration, "format_path", W("numeration.format", numeration.format_path))

        self.patch(spectral, "classify", W(
            "spectral.classify", spectral.classify,
            lambda a, r: {"indeterminate": int(r.pisot_type == spectral.PISOT_INDETERMINATE)}))
        for attr, name in (("is_primitive", "primitive"), ("characteristic_polynomial", "charpoly"),
                           ("is_irreducible", "irreducible"), ("certified_roots", "roots"),
                           ("perron_data", "perron")):
            self.patch(spectral, attr, W(f"spectral.{name}", getattr(spectral, attr)))

        self.patch(ipsets, "build_fs_family", W("ipsets.build", ipsets.build_fs_family))
        self.patch(ipsets, "verify_finite_sums", W(
            "ipsets.verify", ipsets.verify_finite_sums,
            lambda a, r: {"subsets": _subset_count(len(r.family.generators), r.max_subset_size),
                          "unchecked": len(r.unchecked)}))

        self.patch(strand, "invariant_splitting", W("strand.splitting", strand.invariant_splitting))
        self.patch(strand, "substitute_strand", W(
            "strand.inflate", strand.substitute_strand, lambda a, r: {"segments": len(r)}))
        self.patch(strand, "stability_scan", W("strand.scan", strand.stability_scan))
        for attr in ("write_scan_csv", "write_stable_scatter_svg"):
            self.patch(strand, attr, W("strand.export", getattr(strand, attr)))
        self.main = W("cli.main", cli.main)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _subset_count(n: int, size: int) -> int:
    return sum(math.comb(n, k) for k in range(1, min(n, size) + 1))


# ---------------------------------------------------------------------------
# arithmetic on recorded spans


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see the README's table)."""
    own = self_times(spans)
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    errors: dict[str, int] = defaultdict(int)
    last_steps: dict[str, int] = {}
    distinct = 0
    for (name, _, _, _, command, counters), t in zip(spans, own):
        busy[name] += t
        calls[name] += 1
        if not counters:
            continue
        if "error" in counters:
            errors[name] += 1
            continue
        for key, value in counters.items():
            total[f"{name}.{key}"] += value
        if name == "coincidence.scan":
            last_steps[command] = counters["steps"]   # the call whose answer is kept
            distinct = max(distinct, counters["distinct"])

    steps = total["coincidence.scan.steps"]
    m = {
        "words.expand_s": busy["words.expand"],
        "words.letters": total["words.expand.letters"],
        "words.prefix_bytes": total["words.expand.bytes"],
        "words.apply_s": busy["words.apply"],
        "coincidence.scan_s": busy["coincidence.scan"],
        "coincidence.steps": steps,
        "coincidence.steps_per_s": _div(steps, busy["coincidence.scan"]),
        "coincidence.calls": calls["coincidence.scan"],
        "coincidence.useful_ratio": _div(sum(last_steps.values()), steps),
        "coincidence.distinct_deltas": distinct,
        "points.proximal_s": busy["points.proximal"],
        "points.proximal_letters_per_s": _div(total["points.proximal.letters"], busy["points.proximal"]),
        "points.windows": total["points.proximal.windows"],
        "points.occurrences_s": busy["points.occurrences"],
        "points.occurrence_letters_per_s": _div(total["points.occurrences.letters"],
                                                busy["points.occurrences"]),
        "points.positions": total["points.occurrences.positions"],
        "numeration.encode_s": busy["numeration.encode"],
        "numeration.encode_calls": calls["numeration.encode"],
        "numeration.encode_us": 1e6 * _div(busy["numeration.encode"], calls["numeration.encode"]),
        "numeration.decode_s": busy["numeration.decode"],
        "numeration.decode_us": 1e6 * _div(busy["numeration.decode"], calls["numeration.decode"]),
        "numeration.sync_s": busy["numeration.sync"],
        "numeration.sync_hit_ratio": _div(total["numeration.sync.hits"], total["numeration.sync.values"]),
        "numeration.enumerate_s": busy["numeration.enumerate"],
        "numeration.paths": total["numeration.enumerate.paths"],
        "numeration.format_s": busy["numeration.format"],
        "numeration.format_calls": calls["numeration.format"],
        "spectral.classify_s": busy["spectral.classify"],
        "spectral.primitive_s": busy["spectral.primitive"],
        "spectral.charpoly_s": busy["spectral.charpoly"],
        "spectral.irreducible_s": busy["spectral.irreducible"],
        "spectral.roots_s": busy["spectral.roots"],
        "spectral.perron_s": busy["spectral.perron"],
        "spectral.indeterminate": total["spectral.classify.indeterminate"],
        "ipsets.build_s": busy["ipsets.build"],
        "ipsets.verify_s": busy["ipsets.verify"],
        "ipsets.subsets": total["ipsets.verify.subsets"],
        "ipsets.unchecked": total["ipsets.verify.unchecked"],
        "strand.splitting_s": busy["strand.splitting"],
        "strand.inflate_s": busy["strand.inflate"],
        "strand.segments": total["strand.inflate.segments"],
        "strand.segments_per_s": _div(total["strand.inflate.segments"], busy["strand.inflate"]),
        "strand.scan_s": busy["strand.scan"],
        "strand.export_s": busy["strand.export"],
        "strand.export_bytes": total["cli.main.file_bytes"],
        "cli.self_s": busy["cli.main"],
        "cli.stdout_bytes": total["cli.main.stdout_bytes"],
    }
    return m


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
