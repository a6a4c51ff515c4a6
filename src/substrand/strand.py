"""Lattice strand geometry for irreducible Pisot substitutions.

A strand is a chain of unit segments in Z^n whose types spell a word; the
inflation map sends each segment to the chain spelled by its type's image,
based at the matrix image of its initial vertex. Strand vertices stay exact
integers; only the projections onto the expanding line and the contracting
hyperplane are numeric. Iterating the inflation and watching the stable
projection of the vertices gives a desk-scale picture of the invariant
cylinder (an empirical confinement radius) and, for Tribonacci-like
substitutions, traces the familiar fractal tile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from .coincidence import _delta_blocks
from .errors import InputError, UnsupportedInputError
from .spectral import ClassificationReport, PISOT_YES
from .words import FixedPointStream, Substitution, Word

_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


@dataclass(frozen=True)
class Segment:
    """A unit segment: initial vertex plus one step along a coordinate axis."""

    vertex: tuple[int, ...]
    letter_index: int

    @property
    def terminal(self) -> tuple[int, ...]:
        v = list(self.vertex)
        v[self.letter_index] += 1
        return tuple(v)


class Strand:
    """An ordered chain of segments whose types spell the pattern word."""

    __slots__ = ("alphabet", "segments")

    def __init__(self, alphabet, segments: Iterable[Segment]):
        segments = tuple(segments)
        n = len(alphabet)
        for seg in segments:
            if len(seg.vertex) != n:
                raise InputError("segment dimension does not match the alphabet")
            if not 0 <= seg.letter_index < n:
                raise InputError("segment type out of range")
        for prev, nxt in zip(segments, segments[1:]):
            if prev.terminal != nxt.vertex:
                raise InputError("segments do not chain: terminal != next initial")
        self.alphabet = alphabet
        self.segments = segments

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Strand)
            and self.alphabet == other.alphabet
            and self.segments == other.segments
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.segments))

    @property
    def pattern(self) -> Word:
        return Word(self.alphabet, (seg.letter_index for seg in self.segments))

    def vertices(self) -> list[tuple[int, ...]]:
        """All initial vertices plus the final terminal vertex."""
        out = [seg.vertex for seg in self.segments]
        if self.segments:
            out.append(self.segments[-1].terminal)
        return out

    def __repr__(self) -> str:
        return f"Strand(pattern={str(self.pattern)!r}, segments={len(self.segments)})"


def build_strand(word: Word, origin: Sequence[int] | None = None) -> Strand:
    """The strand spelling a word, vertex j at origin + counts(word[:j])."""
    n = len(word.alphabet)
    current = [0] * n if origin is None else list(origin)
    if len(current) != n:
        raise InputError("origin dimension does not match the alphabet")
    segments = []
    for idx in word.indices:
        segments.append(Segment(tuple(current), idx))
        current[idx] += 1
    return Strand(word.alphabet, segments)


def substitute_strand(sub: Substitution, strand: Strand) -> Strand:
    """Inflate a strand; the result spells the image of the pattern."""
    if sub.alphabet != strand.alphabet:
        raise InputError("substitution and strand alphabets differ")
    from .spectral import abelianization_matrix

    matrix = abelianization_matrix(sub)
    n = len(matrix)
    segments = []
    for seg in strand.segments:
        base = [sum(matrix[i][j] * seg.vertex[j] for j in range(n)) for i in range(n)]
        for idx in sub.image_indices(seg.letter_index):
            segments.append(Segment(tuple(base), idx))
            base = list(base)
            base[idx] += 1
    return Strand(strand.alphabet, segments)


@dataclass(frozen=True)
class InvariantSplitting:
    """Expanding line / contracting hyperplane splitting of the count matrix.

    ``projector_unstable`` projects onto the Perron line along the span of
    the remaining (generalized) eigendirections, ``projector_stable`` is its
    complement, and ``stable_basis`` holds an orthonormal basis of the
    contracting subspace for coordinate readouts.
    """

    dilation: float
    expanding_direction: np.ndarray
    residual: float
    stable_basis: np.ndarray
    projector_unstable: np.ndarray
    projector_stable: np.ndarray
    tolerance: float

    @property
    def stable_dimension(self) -> int:
        return self.stable_basis.shape[1]

    def stable_part(self, vector) -> np.ndarray:
        return self.projector_stable @ np.asarray(vector, dtype=float)

    def stable_norm(self, vector) -> float:
        return float(np.linalg.norm(self.stable_part(vector)))

    def stable_coords(self, vector) -> np.ndarray:
        return self.stable_basis.T @ self.stable_part(vector)

    def expanding_coefficient(self, vector) -> float:
        """t such that the unstable part is t times the expanding direction."""
        return float(
            self.expanding_direction
            @ (self.projector_unstable @ np.asarray(vector, dtype=float))
        )


def invariant_splitting(
    report: ClassificationReport,
    matrix: list[list[int]],
    tolerance: float = 1e-9,
) -> InvariantSplitting:
    """Spectral splitting for an irreducible Pisot classification.

    Refuses anything else: without a spectrum split cleanly by the unit
    circle there is no contracting complement to project onto.
    """
    if not (report.irreducible_pisot and report.pisot_type == PISOT_YES):
        raise UnsupportedInputError(
            "invariant splitting needs an irreducible Pisot classification, got "
            f"pisot_type={report.pisot_type!r}, irreducible={report.irreducible!r}"
        )
    from scipy.linalg import schur  # its only use: keeps scipy out of every start-up
    from .spectral import perron_data

    dilation, right, res_r = perron_data(matrix, tolerance)
    transpose = [list(row) for row in zip(*matrix)]
    _, left, res_l = perron_data(transpose, tolerance)
    w = np.array(right)
    l = np.array(left)
    projector_u = np.outer(w, l) / float(l @ w)
    n = len(matrix)
    projector_s = np.eye(n) - projector_u

    if n == 1:
        basis = np.zeros((1, 0))
    else:
        m = np.array(matrix, dtype=float)
        _, z, sdim = schur(m, output="real", sort="iuc")
        if sdim != n - 1:
            raise UnsupportedInputError(
                "stable subspace dimension mismatch; spectrum too close to the unit circle"
            )
        basis = z[:, :sdim]

    splitting = InvariantSplitting(
        dilation=dilation,
        expanding_direction=w,
        residual=max(res_r, res_l),
        stable_basis=basis,
        projector_unstable=projector_u,
        projector_stable=projector_s,
        tolerance=tolerance,
    )
    # post-hoc sanity: idempotence and complementarity within tolerance
    scale = max(1.0, float(np.abs(projector_u).max()))
    checks = (
        np.abs(projector_u @ projector_u - projector_u).max(),
        np.abs(projector_s @ projector_s - projector_s).max(),
        np.abs(projector_u + projector_s - np.eye(n)).max(),
    )
    if max(checks) > 1e3 * tolerance * scale:
        raise ArithmeticError(
            f"projector checks exceeded tolerance: {checks}"
        )
    return splitting


@dataclass(frozen=True)
class StabilityScan:
    """Per-iteration stable-norm envelopes of an inflated strand.

    ``envelopes[k]`` is the largest stable-projection norm over the vertices
    after k inflations; the empirical confinement radius is the maximum once
    the burn-in transient has passed. ``conjugation_max_error`` reports how
    well inflation conjugates translation along the expanding line with
    scaling by the dilation on the sampled offsets.
    """

    envelopes: tuple[float, ...]
    burn_in: int
    empirical_radius: float
    conjugation_max_error: float
    translation_samples: tuple[float, ...]
    strands: tuple[Strand, ...] | None

    def to_json_dict(self) -> dict:
        return {
            "envelopes": list(self.envelopes),
            "burn_in": self.burn_in,
            "empirical_radius": self.empirical_radius,
            "conjugation_max_error": self.conjugation_max_error,
            "translation_samples": list(self.translation_samples),
            "iterations": len(self.envelopes) - 1,
        }


def _stable_envelope(strand: Strand, splitting: InvariantSplitting) -> float:
    vertices = strand.vertices()
    if not vertices:
        return 0.0
    arr = np.array(vertices, dtype=float)
    return float(np.linalg.norm(arr @ splitting.projector_stable.T, axis=1).max())


def _conjugation_error(
    sub: Substitution,
    strand: Strand,
    splitting: InvariantSplitting,
    offsets: Sequence[float],
) -> float:
    """Max vertex deviation between inflating a translated strand and
    translating the inflated strand by dilation * offset."""
    if not strand.segments or not offsets:
        return 0.0
    from .spectral import abelianization_matrix

    matrix = np.array(abelianization_matrix(sub), dtype=float)
    w = splitting.expanding_direction
    lam = splitting.dilation
    inflated = substitute_strand(sub, strand)
    reference = np.array([seg.vertex for seg in inflated.segments], dtype=float)
    worst = 0.0
    for t in offsets:
        translated_vertices = []
        for seg in strand.segments:
            base = matrix @ (np.array(seg.vertex, dtype=float) - t * w)
            for idx in sub.image_indices(seg.letter_index):
                translated_vertices.append(base.copy())
                base[idx] += 1.0
        deviation = np.abs(
            np.array(translated_vertices) - (reference - lam * t * w)
        ).max()
        worst = max(worst, float(deviation))
    return worst


def stability_scan(
    sub: Substitution,
    seed: Strand,
    iterations: int,
    splitting: InvariantSplitting,
    burn_in: int = 3,
    translation_samples: Sequence[float] = (0.5, 1.25, 2.0),
    keep_strands: bool = True,
) -> StabilityScan:
    """Iterate the inflation and record stable-norm envelopes.

    The empirical confinement radius is read after the burn-in transient;
    the conjugation identity is checked on the seed and final strands.
    """
    if iterations < 1:
        raise InputError("iterations must be >= 1")
    strands = [seed]
    envelopes = [_stable_envelope(seed, splitting)]
    current = seed
    for _ in range(iterations):
        current = substitute_strand(sub, current)
        strands.append(current)
        envelopes.append(_stable_envelope(current, splitting))
    start = min(burn_in, iterations)
    radius = max(envelopes[start:])
    err = max(
        _conjugation_error(sub, seed, splitting, translation_samples),
        _conjugation_error(sub, strands[-1], splitting, translation_samples),
    )
    return StabilityScan(
        envelopes=tuple(envelopes),
        burn_in=burn_in,
        empirical_radius=radius,
        conjugation_max_error=err,
        translation_samples=tuple(translation_samples),
        strands=tuple(strands) if keep_strands else None,
    )


def max_stable_delta_norm(
    splitting: InvariantSplitting,
    x: FixedPointStream,
    y: FixedPointStream,
    horizon: int,
) -> float:
    """Largest stable-projection norm of the prefix count differences.

    Boundedness of this quantity as the horizon grows is the geometric
    companion of the finite difference-vector set between two fixed points.
    """
    if horizon < 1:
        raise InputError("horizon must be >= 1")
    projector = splitting.projector_stable.T
    return max(
        float(np.linalg.norm(block.astype(float) @ projector, axis=1).max())
        for _, block in _delta_blocks(x, y, horizon)
    )


# ---------------------------------------------------------------------------
# deterministic exports


def write_scan_csv(scan: StabilityScan, splitting: InvariantSplitting, out: TextIO) -> int:
    """One row per segment: iteration, vertex, type, expanding coefficient,
    stable coordinates. Returns the number of rows written."""
    if scan.strands is None:
        raise InputError("scan was run with keep_strands=False")
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
    for iteration, strand in enumerate(scan.strands):
        letters = strand.alphabet.letters
        for seg in strand.segments:
            coeff = splitting.expanding_coefficient(seg.vertex)
            coords = splitting.stable_coords(seg.vertex)
            row = (
                [str(iteration)]
                + [str(c) for c in seg.vertex]
                + [letters[seg.letter_index], _fmt(coeff)]
                + [_fmt(c) for c in coords]
            )
            out.write(",".join(row) + "\n")
            rows += 1
    return rows


def write_stable_scatter_svg(
    strand: Strand,
    splitting: InvariantSplitting,
    out: TextIO,
    size: int = 800,
    margin: float = 40.0,
    point_radius: float = 1.5,
) -> int:
    """Scatter of the first two stable coordinates of a strand's vertices.

    Output is deterministic: fixed viewBox, fixed formatting, colors keyed
    by segment type. Returns the number of points written.
    """
    vertices = strand.vertices()
    types = [seg.letter_index for seg in strand.segments]
    if vertices:
        types.append(types[-1] if types else 0)
    points = []
    for v in vertices:
        coords = splitting.stable_coords(v)
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


def _fmt(x: float) -> str:
    return format(float(x), ".12g")
