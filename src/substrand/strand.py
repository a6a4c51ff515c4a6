"""Lattice strand geometry for irreducible Pisot substitutions.

A strand is a lattice path in Z^n given by an origin and a word: each letter
is a unit step along its coordinate axis. Inflation sends each segment to the
path spelled by its letter's image, based at the matrix image of its initial
vertex, so by linearity it maps (origin, word) to (M origin, image of word)
(Arnoux-Ito). Strand vertices stay exact integers (int64, guarded against
overflow); only the projections onto the expanding line and the contracting
hyperplane are numeric. Iterating the inflation and watching the stable
projection of the vertices gives a desk-scale picture of the invariant
cylinder (an empirical confinement radius) and, for Tribonacci-like
substitutions, traces the familiar fractal tile.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from . import spectral
from .coincidence import _delta_blocks
from .errors import InputError, UnsupportedInputError
from .spectral import ClassificationReport, PISOT_YES, abelianization_matrix
from .words import FixedPointStream, Substitution, Word, apply_substitution

_INT64 = np.iinfo(np.int64)
# largest deviation of the projectors from idempotence and complementarity,
# relative to their scale, that invariant_splitting accepts
_PROJECTOR_CHECK = 1e-6
_BURN_IN = 3  # inflations skipped before the empirical radius is read
# side of the square SVG canvas, its margin, and the radius of each point
_SVG_SIZE, _SVG_MARGIN, _SVG_POINT_RADIUS = 800, 40.0, 1.5
_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


@dataclass(frozen=True)
class Strand:
    """A lattice path in Z^n: an integer origin and the word its unit steps spell.

    Vertex j is ``origin + counts(word[:j])``; each letter is one unit
    segment along its coordinate axis, so ``len(strand)`` counts segments.
    """

    word: Word
    origin: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.word)

    def vertices(self) -> np.ndarray:
        """The initial vertex of every segment plus the final terminal vertex,
        one int64 row each; an empty strand has no vertices."""
        n = len(self.origin)
        if not self.word.indices:
            return np.zeros((0, n), dtype=np.int64)
        steps = np.zeros((len(self.word) + 1, n), dtype=np.int64)
        steps[0] = self.origin
        steps[np.arange(1, len(self.word) + 1), self.word.indices] = 1
        return np.cumsum(steps, axis=0)


def _strand(word: Word, origin: tuple[int, ...]) -> Strand:
    """The strand, refused if its vertices would leave int64."""
    if min(origin) < _INT64.min or max(origin) + len(word) > _INT64.max:
        raise InputError("strand vertices would leave the int64 range")
    return Strand(word, origin)


def build_strand(word: Word, origin: Sequence[int] | None = None) -> Strand:
    """The strand spelling a word, vertex j at origin + counts(word[:j])."""
    n = len(word.alphabet)
    try:
        origin = (0,) * n if origin is None else tuple(operator.index(c) for c in origin)
    except TypeError:
        raise InputError(f"origin entries must be integers, got {origin!r}") from None
    if len(origin) != n:
        raise InputError("origin dimension does not match the alphabet")
    return _strand(word, origin)


def substitute_strand(sub: Substitution, strand: Strand) -> Strand:
    """Inflate a strand: by linearity the image of (origin, word) is
    (M origin, sub(word)) for the count matrix M."""
    if sub.alphabet != strand.word.alphabet:
        raise InputError("substitution and strand alphabets differ")
    origin = tuple(
        sum(m * o for m, o in zip(row, strand.origin))
        for row in abelianization_matrix(sub)
    )
    return _strand(apply_substitution(sub, strand.word), origin)


@dataclass(frozen=True)
class InvariantSplitting:
    """Expanding line / contracting hyperplane splitting of the count matrix.

    The right and left Perron vectors come from one dense eigensolve each
    (:func:`substrand.spectral.perron_data`); ``residual`` is the larger of
    their residuals. ``projector_unstable`` projects onto the Perron line
    along the span of the remaining (generalized) eigendirections,
    ``projector_stable`` is its complement, and ``stable_basis`` holds an
    orthonormal basis of its range for coordinate readouts: the Q factor of
    its first n - 1 columns, with R's diagonal made positive. The readouts
    take one vertex or a stack of vertices (one per row).
    """

    dilation: float
    expanding_direction: np.ndarray
    residual: float
    stable_basis: np.ndarray
    projector_unstable: np.ndarray
    projector_stable: np.ndarray

    @property
    def stable_dimension(self) -> int:
        return self.stable_basis.shape[1]

    def stable_part(self, vertices) -> np.ndarray:
        return _matvecs(self.projector_stable, vertices)

    def stable_coords(self, vertices) -> np.ndarray:
        return _matvecs(self.stable_basis.T, self.stable_part(vertices))

    def expanding_coefficient(self, vertices) -> np.ndarray:
        """t such that the unstable part is t times the expanding direction."""
        return _matvecs(
            self.expanding_direction, _matvecs(self.projector_unstable, vertices)
        )


def _matvecs(matrix: np.ndarray, vectors) -> np.ndarray:
    """``matrix @ v`` for a vector or each row of a stack of them, one product
    per vector: a row-form ``V @ matrix.T`` rounds differently."""
    return np.matmul(matrix, np.asarray(vectors, dtype=float)[..., None])[..., 0]


def invariant_splitting(
    report: ClassificationReport,
    matrix: list[list[int]],
) -> InvariantSplitting:
    """Spectral splitting for an irreducible Pisot classification.

    Refuses anything else: without a spectrum split cleanly by the unit
    circle there is no contracting complement to project onto. The first
    n - 1 columns of the stable projector span it (column j is e_j minus a
    multiple of the positive Perron vector), so their QR factor is unique.
    """
    if not (report.irreducible_pisot and report.pisot_type == PISOT_YES):
        raise UnsupportedInputError(
            "invariant splitting needs an irreducible Pisot classification, got "
            f"pisot_type={report.pisot_type!r}, irreducible={report.irreducible!r}"
        )
    dilation, right, res_r = spectral.perron_data(matrix)
    transpose = [list(row) for row in zip(*matrix)]
    _, left, res_l = spectral.perron_data(transpose)
    w = np.array(right)
    l = np.array(left)
    projector_u = np.outer(w, l) / float(l @ w)
    n = len(matrix)
    projector_s = np.eye(n) - projector_u
    q, r = np.linalg.qr(projector_s[:, : n - 1])
    basis = q * np.sign(np.diag(r))

    splitting = InvariantSplitting(
        dilation=dilation,
        expanding_direction=w,
        residual=max(res_r, res_l),
        stable_basis=basis,
        projector_unstable=projector_u,
        projector_stable=projector_s,
    )
    # post-hoc sanity: idempotence and complementarity
    scale = max(1.0, float(np.abs(projector_u).max()))
    checks = (
        np.abs(projector_u @ projector_u - projector_u).max(),
        np.abs(projector_s @ projector_s - projector_s).max(),
        np.abs(projector_u + projector_s - np.eye(n)).max(),
    )
    if max(checks) > _PROJECTOR_CHECK * scale:
        raise ArithmeticError(f"projector checks failed: {checks}")
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
    strands: tuple[Strand, ...]

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
    if not len(strand):
        return 0.0
    arr = strand.vertices().astype(float)
    return float(np.linalg.norm(arr @ splitting.projector_stable.T, axis=1).max())


def _conjugation_error(
    sub: Substitution,
    strand: Strand,
    splitting: InvariantSplitting,
    offsets: Sequence[float],
) -> float:
    """Max vertex deviation between inflating a translated strand and
    translating the inflated strand by dilation * offset."""
    if not len(strand) or not offsets:
        return 0.0
    matrix = np.array(abelianization_matrix(sub), dtype=float)
    w = splitting.expanding_direction
    lam = splitting.dilation
    # row r of image_steps[i] is the unit step taken before vertex r of the
    # image of letter i (row 0 is replaced by the segment's mapped vertex)
    n = len(matrix)
    images = [sub.image_indices(i) for i in range(n)]
    image_steps = np.zeros((n, max(map(len, images)), n))
    for i, image in enumerate(images):
        image_steps[i, np.arange(1, len(image)), image[:-1]] = 1.0
    in_image = np.arange(image_steps.shape[1]) < np.array([len(im) for im in images])[:, None]
    types = np.array(strand.word.indices)
    steps, in_image = image_steps[types], in_image[types]
    vertices = strand.vertices()[:-1].astype(float)
    reference = substitute_strand(sub, strand).vertices()[:-1].astype(float)
    worst = 0.0
    for t in offsets:
        steps[:, 0] = _matvecs(matrix, vertices - t * w)
        # a cumsum adds the unit steps one at a time, as stepping along the
        # image does: (x + 1) + 1 can round differently from x + 2
        translated = np.cumsum(steps, axis=1)[in_image]
        deviation = np.abs(translated - (reference - lam * t * w)).max()
        worst = max(worst, float(deviation))
    return worst


def stability_scan(
    sub: Substitution,
    seed: Strand,
    iterations: int,
    splitting: InvariantSplitting,
    translation_samples: Sequence[float] = (0.5, 1.25, 2.0),
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
    start = min(_BURN_IN, iterations)
    radius = max(envelopes[start:])
    err = max(
        _conjugation_error(sub, seed, splitting, translation_samples),
        _conjugation_error(sub, strands[-1], splitting, translation_samples),
    )
    return StabilityScan(
        envelopes=tuple(envelopes),
        burn_in=_BURN_IN,
        empirical_radius=radius,
        conjugation_max_error=err,
        translation_samples=tuple(translation_samples),
        strands=tuple(strands),
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
        vertices = strand.vertices()[:-1]
        coeffs = splitting.expanding_coefficient(vertices).tolist()
        coords = splitting.stable_coords(vertices).tolist()
        out.writelines(
            ",".join([str(iteration), *map(str, vertex), letter, _fmt(coeff), *map(_fmt, stable)])
            + "\n"
            for vertex, letter, coeff, stable in zip(vertices.tolist(), strand.word, coeffs, coords)
        )
        rows += len(strand)
    return rows


def write_stable_scatter_svg(
    strand: Strand,
    splitting: InvariantSplitting,
    out: TextIO,
) -> int:
    """Scatter of the first two stable coordinates of a strand's vertices.

    Output is deterministic: fixed viewBox, fixed formatting, colors keyed
    by segment type (the terminal vertex takes the last segment's). Returns
    the number of points written.
    """
    coords = splitting.stable_coords(strand.vertices())[:, :2]
    points = np.zeros((len(coords), 2))
    points[:, : coords.shape[1]] = coords
    types = strand.word.indices + strand.word.indices[-1:]
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}" '
        f'width="{_SVG_SIZE}" height="{_SVG_SIZE}">\n'
    )
    out.write(f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>\n')
    if len(points):
        low = points.min(axis=0)
        span = max(float((points.max(axis=0) - low).max()), 1e-12)
        scaled = (points - low) * ((_SVG_SIZE - 2 * _SVG_MARGIN) / span)
        xs = (_SVG_MARGIN + scaled[:, 0]).tolist()
        ys = (_SVG_SIZE - _SVG_MARGIN - scaled[:, 1]).tolist()
        out.writelines(
            f'<circle cx="{px:.3f}" cy="{py:.3f}" r="{_SVG_POINT_RADIUS}" '
            f'fill="{_PALETTE[letter_index % len(_PALETTE)]}" fill-opacity="0.8"/>\n'
            for px, py, letter_index in zip(xs, ys, types)
        )
    out.write("</svg>\n")
    return len(points)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")
