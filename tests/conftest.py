from dataclasses import dataclass
from itertools import combinations

import numpy as np
import pytest
from hypothesis import strategies as st

from substrand import (
    FixedPointStream,
    FsFamily,
    FsProvenance,
    InputError,
    PathRepresentation,
    Substitution,
    Word,
    abelianization_matrix,
    apply_substitution,
    decode_path,
    find_strong_coincidence,
)
from substrand.ipsets import POWER_CAP


@pytest.fixture
def fibonacci():
    return Substitution({"a": "ab", "b": "a"})


@pytest.fixture
def tribonacci():
    return Substitution({"a": "ab", "b": "ac", "c": "a"})


@pytest.fixture
def thue_morse():
    return Substitution({"a": "ab", "b": "ba"})


@pytest.fixture
def aab_ba():
    # binary irreducible Pisot pair with two fixed points and a witness at k=3
    return Substitution({"a": "aab", "b": "ba"})


@pytest.fixture
def aab_bbaab():
    # two fixed points whose occurrence sets carry IP structure without coincidence
    return Substitution({"a": "aab", "b": "bbaab"})


@pytest.fixture
def aaab_bbab():
    # uniform length-4 pair: proximal fixed points, no strong coincidence
    return Substitution({"a": "aaab", "b": "bbab"})


@st.composite
def seeded_pairs(draw, period=1):
    """A substitution whose images of a and b start with a and b, or with
    b and a for ``period`` 2 (a and b are then seeds of period 2)."""
    letters = "abcd"[: draw(st.integers(2, 4))]
    first = {"a": "a", "b": "b"} if period == 1 else {"a": "b", "b": "a"}

    def word(min_size, max_size):
        return "".join(draw(st.lists(st.sampled_from(letters), min_size=min_size, max_size=max_size)))

    rules = {c: (first[c] + word(1, 3) if c in "ab" else word(1, 4)) for c in letters}
    return Substitution(rules)


def oracle_prefix(sub, seed, length, period=1):
    """Expansion oracle independent of FixedPointStream: iterate plain
    substitution application on the seed letter until long enough."""
    word = sub.alphabet.word(seed)
    while len(word) < length:
        word = apply_substitution(sub, word, period)
    return str(word)[:length]


class _CountingTable(list):
    """A stream's table of images that adds the letters of every image looked
    up in it to the stream's count."""

    def __getitem__(self, letter):
        image = super().__getitem__(letter)
        self.counts[self.stream] += len(image) // self.width
        return image


def spy_letters_written(monkeypatch, largest=None):
    """Patch ``FixedPointStream`` to count the letters each stream joins from
    its image table: the image of the seed it starts from, then every image
    looked up. Returns the counts, keyed by stream; a stream that joins each
    letter once has joined exactly its buffer and the unwritten rest of its
    last image. A ``largest`` dict receives each stream's largest round: the
    most letters one call of ``_round`` wrote to the buffer."""
    counts = {}
    largest = {} if largest is None else largest
    ensure, write_round = FixedPointStream._ensure, FixedPointStream._round

    def spy_ensure(self, length):
        if self not in counts:
            ensure(self, 0)  # the table, and the seed's image as the unwritten rest
            counts[self] = self._filled + len(self._tail)
            table = _CountingTable(self._table)
            table.counts, table.stream, table.width = counts, self, self._store.itemsize
            self._table = table
        return ensure(self, length)

    def spy_round(self, count):
        filled = self._filled
        write_round(self, count)
        largest[self] = max(largest.get(self, 0), self._filled - filled)

    monkeypatch.setattr(FixedPointStream, "_ensure", spy_ensure)
    monkeypatch.setattr(FixedPointStream, "_round", spy_round)
    return counts


def oracle_seed_period(sub, letter):
    """Least m <= |alphabet| such that sub^m(letter), expanded in full, starts
    with the letter and is longer than one letter; None when there is none."""
    for m in range(1, len(sub.alphabet) + 1):
        word = str(apply_substitution(sub, letter, m))
        if word[0] == letter and len(word) > 1:
            return m
    return None


def oracle_image_lengths(sub, level):
    """|sub^level(a)| of every letter a, each level summed letter by letter over
    the images: the recurrence the library ran before the count matrix."""
    lengths = [1] * len(sub.alphabet)
    for _ in range(level):
        lengths = [sum(lengths[b] for b in sub.image_indices(a)) for a in range(len(lengths))]
    return lengths


def oracle_weight(sub, level, word):
    """|sub^level(word)|, summed letter by letter over the word."""
    lengths = oracle_image_lengths(sub, level)
    return sum(lengths[a] for a in word.indices)


def oracle_enumerate_paths(sub, start, count):
    """The first ``count`` paths at a period-1 seed, generated recursively
    from the path order (label count, then label lengths lexicographically,
    first label nonempty): the enumerator the library ran before its
    odometer."""
    out = [PathRepresentation(start, ())]

    def extend(vertex_index, labels, remaining_levels):
        if remaining_levels == 0:
            out.append(PathRepresentation(start, tuple(Word(sub.alphabet, l) for l in labels)))
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
    while len(out) < count and extend(sub.alphabet.index(start), [], n_labels):
        n_labels += 1
    return out[:count]


def oracle_is_primitive(matrix):
    """(primitive, least exponent) by boolean products of B^k with B for every
    k up to the Wielandt bound (n-1)^2 + 1: the loop the library ran before
    it stopped at a repeated pattern."""
    n = len(matrix)
    bound = (n - 1) ** 2 + 1
    base = [[e > 0 for e in row] for row in matrix]
    pattern = base
    for k in range(1, bound + 1):
        if all(all(row) for row in pattern):
            return True, k
        pattern = [
            [any(pattern[i][t] and base[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return False, None


def oracle_perron_data(matrix, tolerance=1e-10, steps=100_000):
    """(eigenvalue, unit positive vector, residual) by power iteration from
    the normalized all-ones vector, stopped once the residual falls below
    tolerance * max(1, eigenvalue): the loop the library ran before its
    dense eigensolve. None when it does not get there within ``steps``."""
    m = np.array(matrix, dtype=float)
    v = np.ones(len(m)) / np.sqrt(len(m))
    for _ in range(steps):
        mv = m @ v
        v = mv / np.linalg.norm(mv)
        eigenvalue = float(v @ (m @ v))
        residual = float(np.linalg.norm(m @ v - eigenvalue * v))
        if residual <= tolerance * max(1.0, abs(eigenvalue)):
            return eigenvalue, np.abs(v), residual
    return None


def oracle_eig_perron_data(matrix):
    """(eigenvalue, unit positive vector, residual) from one dense numpy
    eigensolve: the eigenvalue of largest real part and its eigenvector, the
    library's body before its inverse iteration."""
    m = np.array(matrix, dtype=float)
    values, vectors = np.linalg.eig(m)
    k = int(np.argmax(values.real))
    eigenvalue = float(values[k].real)
    v = np.abs(vectors[:, k].real)
    return eigenvalue, tuple(float(x) for x in v), float(np.linalg.norm(m @ v - eigenvalue * v))


# Pure-Python scans over plain lists of letter indices: the loops the library
# ran before its numpy kernels, kept as references for them.


def oracle_scan(xs, ys, horizon, n, stop_at_witness):
    """(witness_index, first_seen) over k in [0, horizon) for n letters:
    first_seen maps each difference vector D_k to the least k where it
    appears, and witness_index is the least k >= 1 with D_k = 0 and
    xs[k] == ys[k], or None."""
    delta = [0] * n
    first_seen = {tuple(delta): 0}
    witness_index = None
    zero = tuple([0] * n)
    for k in range(1, horizon):
        delta[xs[k - 1]] += 1
        delta[ys[k - 1]] -= 1
        key = tuple(delta)
        if key not in first_seen:
            first_seen[key] = k
        if witness_index is None and key == zero and xs[k] == ys[k]:
            witness_index = k
            if stop_at_witness:
                break
    return witness_index, first_seen


def oracle_delta_sequence(xs, ys, horizon, n):
    """D_0..D_horizon by the step recurrence D_{k+1} = D_k + e_{x_k} - e_{y_k}."""
    delta = [0] * n
    values = [tuple(delta)]
    for k in range(horizon):
        delta[xs[k]] += 1
        delta[ys[k]] -= 1
        values.append(tuple(delta))
    return values


def oracle_agreement_runs(xs, ys, horizon):
    """Maximal runs (start, length) of k < horizon with xs[k] == ys[k]."""
    runs = []
    start = None
    for k in range(horizon):
        if xs[k] == ys[k]:
            if start is None:
                start = k
        elif start is not None:
            runs.append((start, k - start))
            start = None
    if start is not None:
        runs.append((start, horizon - start))
    return runs


def oracle_longest_below(runs, h):
    """Longest part of any run that lies below h."""
    best = 0
    for s, l in runs:
        if s < h:
            best = max(best, min(s + l, h) - s)
    return best


def oracle_proximality(xs, ys, min_window, horizon):
    """(windows, max_length_per_horizon, verdict) of a proximality scan, one
    letter at a time: ``run`` is the length of the run of agreement that ends
    just before k, a window is a run of at least ``min_window`` that a
    disagreement or the horizon ends, and the longest run below a probe h is
    the largest ``run`` seen before k reaches h."""
    probes = sorted({max(1, horizon // 4), max(1, horizon // 2), horizon})
    windows, best, run, longest = [], [], 0, 0
    for k in range(horizon + 1):
        if k in probes:
            best.append((k, longest))
        if k < horizon and xs[k] == ys[k]:
            run += 1
            longest = max(longest, run)
            continue
        if run >= min_window:
            windows.append((k - run, run))
        run = 0
    full, half = dict(best)[horizon], dict(best)[max(1, horizon // 2)]
    verdict = "EvidenceFor" if full >= min_window and full > half else "NoneFound"
    return tuple(windows), tuple(best), verdict


def oracle_occurrences(text, needle):
    """Positions of needle in text, by repeated ``str.find``."""
    positions = []
    start = text.find(needle)
    while start != -1:
        positions.append(start)
        start = text.find(needle, start + 1)
    return tuple(positions)


def oracle_verify_finite_sums(generators, occ, max_subset_size):
    """(failures, unchecked) of every nonempty subset up to the size bound, by
    membership of its sum in an expanded occurrence set: the verifier's body
    before it read letters off the prefix automaton."""
    positions = set(occ.positions)
    fit = occ.horizon - len(occ.factor)
    failures, unchecked = [], []
    for size in range(1, min(max_subset_size, len(generators)) + 1):
        for subset in combinations(generators, size):
            total = sum(subset)
            if total > fit:
                unchecked.append((subset, total))
            elif total not in positions:
                failures.append((subset, total))
    return tuple(failures), tuple(unchecked)


def oracle_search_ip_witness(occ, depth):
    """The generators of the first family in lexicographic order, or None, by
    backtracking over the listed positive positions: the search's body before
    it walked the ``hits`` mask."""
    positions = set(occ.positions)
    candidates = [p for p in occ.positions if p]

    def extend(chosen, sums, next_index):
        if len(chosen) == depth:
            return tuple(chosen)
        for idx in range(next_index, len(candidates)):
            g = candidates[idx]
            new_sums = {g} | {total + g for total in sums}
            if new_sums <= positions:
                found = extend(chosen + [g], sums | new_sums, idx + 1)
                if found is not None:
                    return found
        return None

    return extend([], set(), 0)


def oracle_build_fs_family(sub, witness, count):
    """The family built as the library did before exact image lengths: the
    full images of a, b and c under sub^q for q = 1, 2, ..., then the prefix
    automaton of sub.power(q) decodes each path to its generator."""
    if count < 0:
        raise InputError("count must be >= 0")
    s, t, c = witness.prefix_x, witness.prefix_y, witness.letter
    if len(s) == 0 or len(t) == 0:
        raise InputError("witness prefixes must be nonempty")
    a, b = s[0], t[0]
    for power in range(1, POWER_CAP + 1):
        image_a, image_b, image_c = (str(apply_substitution(sub, u, power)) for u in (a, b, c))
        if image_a.startswith(str(s) + c) and image_b.startswith(str(t) + c) and b in image_c:
            break
    else:
        raise InputError(f"no power of the substitution up to {POWER_CAP} embeds the witness")
    sigma = sub.power(power)
    connector = sigma.image(c)[: image_c.index(b)]
    empty = Word(sub.alphabet)
    paths = tuple(PathRepresentation(a, (s, connector) + (empty,) * (2 * i)) for i in range(count))
    generators = tuple(decode_path(sigma, p, realize_cap=None).value for p in paths)
    return FsFamily(generators, FsProvenance(power, s, t, c, connector, b, a, paths))


def oracle_max_return_gap(positions):
    """Largest gap between consecutive positions, counting the gap from 0."""
    if len(positions) < 2:
        return None
    gap = positions[0]
    for prev, nxt in zip(positions, positions[1:]):
        gap = max(gap, nxt - prev)
    return gap


def oracle_deep_coincide(x, y, horizon, cap):
    """``coincide --deep`` as a rescan from k = 0 at every doubling of the
    horizon, up to ``cap``, until a witness is found."""
    verdict = find_strong_coincidence(x, y, horizon)
    while not verdict.found and horizon < cap:
        horizon = min(2 * horizon, cap)
        verdict = find_strong_coincidence(x, y, horizon)
    return verdict


# Segment-based strands: the representation the library used before a strand
# became (origin, word), kept as the reference for it. A strand here is a
# list of OracleSegment, and projections are one matrix-vector product per
# vertex.


@dataclass(frozen=True)
class OracleSegment:
    """A unit segment: initial vertex plus one step along a coordinate axis."""

    vertex: tuple[int, ...]
    letter_index: int

    @property
    def terminal(self) -> tuple[int, ...]:
        v = list(self.vertex)
        v[self.letter_index] += 1
        return tuple(v)


def oracle_build_strand(word, origin=None):
    current = [0] * len(word.alphabet) if origin is None else list(origin)
    segments = []
    for idx in word.indices:
        segments.append(OracleSegment(tuple(current), idx))
        current[idx] += 1
    return segments


def oracle_vertices(segments):
    """All initial vertices plus the final terminal vertex."""
    out = [seg.vertex for seg in segments]
    if segments:
        out.append(segments[-1].terminal)
    return out


def oracle_word(alphabet, segments):
    return Word(alphabet, (seg.letter_index for seg in segments))


def oracle_substitute_strand(sub, segments):
    matrix = abelianization_matrix(sub)
    n = len(matrix)
    out = []
    for seg in segments:
        base = [sum(matrix[i][j] * seg.vertex[j] for j in range(n)) for i in range(n)]
        for idx in sub.image_indices(seg.letter_index):
            out.append(OracleSegment(tuple(base), idx))
            base = list(base)
            base[idx] += 1
    return out


def _oracle_stable_coords(splitting, vertex):
    return splitting.stable_basis.T @ (splitting.projector_stable @ np.asarray(vertex, dtype=float))


def _oracle_expanding_coefficient(splitting, vertex):
    return float(
        splitting.expanding_direction
        @ (splitting.projector_unstable @ np.asarray(vertex, dtype=float))
    )


def oracle_stable_envelope(segments, splitting):
    vertices = oracle_vertices(segments)
    if not vertices:
        return 0.0
    arr = np.array(vertices, dtype=float)
    return float(np.linalg.norm(arr @ splitting.projector_stable.T, axis=1).max())


def oracle_conjugation_error(sub, segments, splitting, offsets):
    if not segments or not offsets:
        return 0.0
    matrix = np.array(abelianization_matrix(sub), dtype=float)
    w = splitting.expanding_direction
    lam = splitting.dilation
    inflated = oracle_substitute_strand(sub, segments)
    reference = np.array([seg.vertex for seg in inflated], dtype=float)
    worst = 0.0
    for t in offsets:
        translated_vertices = []
        for seg in segments:
            base = matrix @ (np.array(seg.vertex, dtype=float) - t * w)
            for idx in sub.image_indices(seg.letter_index):
                translated_vertices.append(base.copy())
                base[idx] += 1.0
        deviation = np.abs(
            np.array(translated_vertices) - (reference - lam * t * w)
        ).max()
        worst = max(worst, float(deviation))
    return worst


def _fmt(x):
    return format(float(x), ".12g")


def oracle_write_scan_csv(strands, alphabet, splitting, out):
    """``strands`` is the list of segment lists, one per iteration."""
    n = splitting.projector_stable.shape[0]
    k = splitting.stable_dimension
    header = (
        ["iteration"]
        + [f"v{i}" for i in range(n)]
        + ["type", "expanding_coefficient"]
        + [f"s{i}" for i in range(k)]
    )
    out.write(",".join(header) + "\n")
    rows = 0
    for iteration, segments in enumerate(strands):
        for seg in segments:
            coeff = _oracle_expanding_coefficient(splitting, seg.vertex)
            coords = _oracle_stable_coords(splitting, seg.vertex)
            row = (
                [str(iteration)]
                + [str(c) for c in seg.vertex]
                + [alphabet.letters[seg.letter_index], _fmt(coeff)]
                + [_fmt(c) for c in coords]
            )
            out.write(",".join(row) + "\n")
            rows += 1
    return rows


_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def oracle_write_stable_scatter_svg(segments, splitting, out, size=800, margin=40.0, point_radius=1.5):
    vertices = oracle_vertices(segments)
    types = [seg.letter_index for seg in segments]
    if vertices:
        types.append(types[-1] if types else 0)
    points = []
    for v in vertices:
        coords = _oracle_stable_coords(splitting, v)
        cx = float(coords[0]) if len(coords) >= 1 else 0.0
        cy = float(coords[1]) if len(coords) >= 2 else 0.0
        points.append((cx, cy))
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {size}" '
        f'width="{size}" height="{size}">\n'
    )
    out.write(f'<rect width="{size}" height="{size}" fill="white"/>\n')
    if points:
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-12)
        scale = (size - 2 * margin) / span
        x0, y0 = min(xs), min(ys)
        for (cx, cy), letter_index in zip(points, types):
            px = margin + (cx - x0) * scale
            py = size - margin - (cy - y0) * scale
            color = _PALETTE[letter_index % len(_PALETTE)]
            out.write(
                f'<circle cx="{px:.3f}" cy="{py:.3f}" r="{point_radius}" '
                f'fill="{color}" fill-opacity="0.8"/>\n'
            )
    out.write("</svg>\n")
    return len(points)


def oracle_per_field_scan_csv(scan, splitting, out):
    """The CSV writer that formats each field in Python: ``str`` for the
    integers, ``format(x, ".12g")`` for the floats."""
    n = splitting.projector_stable.shape[0]
    k = splitting.stable_dimension
    header = ["iteration", *(f"v{i}" for i in range(n)), "type", "expanding_coefficient",
              *(f"s{i}" for i in range(k))]
    out.write(",".join(header) + "\n")
    rows = 0
    for iteration, strand in enumerate(scan.strands):
        vertices = strand.vertices()[:-1]
        coeffs = splitting.expanding_coefficient(vertices).tolist()
        coords = splitting.stable_coords(vertices).tolist()
        for vertex, letter, coeff, stable in zip(vertices.tolist(), strand.word, coeffs, coords):
            row = [str(iteration), *map(str, vertex), letter, _fmt(coeff), *map(_fmt, stable)]
            out.write(",".join(row) + "\n")
        rows += len(strand)
    return rows


def oracle_per_field_scatter_svg(strand, splitting, out, size=800, margin=40.0, point_radius=1.5):
    """The SVG writer that formats each point with an f-string."""
    coords = splitting.stable_coords(strand.vertices())[:, :2]
    points = np.zeros((len(coords), 2))
    points[:, : coords.shape[1]] = coords
    types = strand.word.indices + strand.word.indices[-1:]
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {size}" '
        f'width="{size}" height="{size}">\n'
    )
    out.write(f'<rect width="{size}" height="{size}" fill="white"/>\n')
    if len(points):
        low = points.min(axis=0)
        span = max(float((points.max(axis=0) - low).max()), 1e-12)
        scaled = (points - low) * ((size - 2 * margin) / span)
        xs = (margin + scaled[:, 0]).tolist()
        ys = (size - margin - scaled[:, 1]).tolist()
        for px, py, letter_index in zip(xs, ys, types):
            out.write(
                f'<circle cx="{px:.3f}" cy="{py:.3f}" r="{point_radius}" '
                f'fill="{_PALETTE[letter_index % len(_PALETTE)]}" fill-opacity="0.8"/>\n'
            )
    out.write("</svg>\n")
    return len(points)
