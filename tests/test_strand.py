import functools
import io
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from substrand import (
    FixedPointStream,
    InputError,
    Substitution,
    UnsupportedInputError,
    Word,
    abelianization_matrix,
    abelianize,
    apply_substitution,
    build_strand,
    classify,
    invariant_splitting,
    max_stable_delta_norm,
    stability_scan,
    substitute_strand,
    write_scan_csv,
    write_stable_scatter_svg,
)
from conftest import (
    oracle_build_strand,
    oracle_conjugation_error,
    oracle_stable_envelope,
    oracle_substitute_strand,
    oracle_vertices,
    oracle_word,
    oracle_write_scan_csv,
    oracle_write_stable_scatter_svg,
)


@functools.lru_cache(maxsize=None)
def _splitting(sub):
    return invariant_splitting(classify(sub), abelianization_matrix(sub))


def _segments(strand):
    """(initial vertex, letter) of each segment."""
    return list(zip(map(tuple, strand.vertices().tolist()), strand.word))


def test_build_strand_examples(fibonacci):
    A = fibonacci.alphabet
    s = build_strand(A.word("ab"))
    assert s.vertices().tolist() == [[0, 0], [1, 0], [1, 1]]
    assert s.vertices().dtype == np.int64
    assert len(build_strand(Word(A))) == 0
    assert build_strand(Word(A)).vertices().shape == (0, 2)
    s2 = build_strand(A.word("abaab"))
    assert tuple(s2.vertices()[-1]) == (3, 2) == abelianize(A.word("abaab"))


def test_build_strand_rejects_non_integer_origin(fibonacci):
    w = fibonacci.alphabet.word("ab")
    for origin in ((0.5, 0), (1.0, 0), ("1", 0), (None, 0)):
        with pytest.raises(InputError):
            build_strand(w, origin)
    assert build_strand(w, (np.int64(2), True)).origin == (2, 1)
    with pytest.raises(InputError):
        build_strand(w, (0, 0, 0))


def test_build_strand_rejects_origin_leaving_int64(fibonacci):
    A = fibonacci.alphabet
    top, bottom = 2**63 - 1, -(2**63)
    w = A.word("aa")
    assert build_strand(w, (top - 2, bottom)).vertices()[-1].tolist() == [top, bottom]
    for origin in ((top - 1, 0), (0, top), (bottom - 1, 0)):
        with pytest.raises(InputError):
            build_strand(w, origin)
    # inflation keeps the guard: M (2^62, 0) = (2^62, 2^62), then (2^63, 2^62)
    once = substitute_strand(fibonacci, build_strand(A.word("a"), (2**62, 0)))
    assert once.origin == (2**62, 2**62)
    with pytest.raises(InputError):
        substitute_strand(fibonacci, once)


def test_substitute_single_segments(fibonacci):
    A = fibonacci.alphabet
    out = substitute_strand(fibonacci, build_strand(A.word("a")))
    assert _segments(out) == [((0, 0), "a"), ((1, 0), "b")]
    assert len(substitute_strand(fibonacci, build_strand(Word(A)))) == 0
    out_b = substitute_strand(fibonacci, build_strand(A.word("b"), (1, 0)))
    assert _segments(out_b) == [((1, 1), "a")]


def test_pattern_commutation_random(fibonacci, tribonacci, aab_ba):
    rng = random.Random(99)
    for sub in (fibonacci, tribonacci, aab_ba):
        n = len(sub.alphabet)
        for _ in range(10):
            w = Word(sub.alphabet, [rng.randrange(n) for _ in range(rng.randrange(0, 50))])
            assert substitute_strand(sub, build_strand(w)).word == apply_substitution(sub, w)


def test_vertex_law_with_origin(tribonacci):
    rng = random.Random(4)
    m = abelianization_matrix(tribonacci)
    for _ in range(10):
        w = Word(tribonacci.alphabet, [rng.randrange(3) for _ in range(rng.randrange(1, 30))])
        origin = [rng.randrange(-3, 4) for _ in range(3)]
        image_origin = [sum(m[i][j] * origin[j] for j in range(3)) for i in range(3)]
        left = substitute_strand(tribonacci, build_strand(w, origin))
        right = build_strand(apply_substitution(tribonacci, w), image_origin)
        assert left == right


def test_splitting_fibonacci_directions(fibonacci):
    sp = _splitting(fibonacci)
    phi = (1 + 5 ** 0.5) / 2
    expected_w = np.array([phi, 1.0]) / np.linalg.norm([phi, 1.0])
    assert np.allclose(sp.expanding_direction, expected_w, atol=1e-8)
    stable = sp.stable_basis[:, 0]
    reference = np.array([1.0, -phi]) / np.linalg.norm([1.0, -phi])
    assert min(np.linalg.norm(stable - reference), np.linalg.norm(stable + reference)) < 1e-8
    assert abs(sp.dilation - phi) < 1e-9


def test_splitting_projector_identities(fibonacci, tribonacci, aab_ba):
    for sub in (fibonacci, tribonacci, aab_ba):
        sp = _splitting(sub)
        n = sp.projector_stable.shape[0]
        m = np.array(abelianization_matrix(sub), dtype=float)
        assert np.abs(sp.projector_unstable @ sp.projector_unstable - sp.projector_unstable).max() < 1e-7
        assert np.abs(sp.projector_stable @ sp.projector_stable - sp.projector_stable).max() < 1e-7
        assert np.abs(sp.projector_unstable + sp.projector_stable - np.eye(n)).max() < 1e-12
        assert np.abs(m @ sp.projector_unstable - sp.projector_unstable @ m).max() < 1e-7
        # M w = dilation w
        assert np.abs(m @ sp.expanding_direction - sp.dilation * sp.expanding_direction).max() < 1e-7


@st.composite
def _pisot_substitutions(draw):
    """Substitutions on 2-4 letters with an irreducible Pisot classification."""
    letters = "abcd"[: draw(st.integers(2, 4))]
    image = st.text(alphabet=letters, min_size=1, max_size=4)
    sub = Substitution({a: draw(image) for a in letters})
    assume(classify(sub).irreducible_pisot)
    return sub


def _left_perron(matrix):
    """The left Perron vector from numpy's dense eigensolver."""
    values, vectors = np.linalg.eig(matrix.T)
    left = vectors[:, np.argmax(values.real)].real
    return left / np.linalg.norm(left)


def _stable_span_projector(matrix):
    """Orthogonal projector onto the span of the real and imaginary parts of
    the eigenvectors whose eigenvalues lie inside the unit circle."""
    values, vectors = np.linalg.eig(matrix)
    inside = vectors[:, np.abs(values) < 1]
    u, _, _ = np.linalg.svd(np.hstack([inside.real, inside.imag]))
    span = u[:, : len(matrix) - 1]
    return span @ span.T


def _check_stable_basis(sub):
    sp = _splitting(sub)
    m = np.array(abelianization_matrix(sub), dtype=float)
    n = len(m)
    b = sp.stable_basis
    assert b.shape == (n, n - 1)
    assert np.abs(b.T @ b - np.eye(n - 1)).max(initial=0.0) < 1e-12
    assert np.abs(sp.projector_stable @ b - b).max() < 1e-12
    # the Perron vectors come from a dense eigensolve, accurate to a few
    # rounding errors of the dilation; whatever rests on them holds to that
    perron = 1e-12 * sp.dilation
    assert np.abs(_left_perron(m) @ b).max(initial=0.0) < perron
    image = m @ b
    assert np.abs(image - b @ (b.T @ image)).max(initial=0.0) < perron
    assert np.abs(b @ b.T - _stable_span_projector(m)).max() < perron
    # the columns are the Gram-Schmidt basis of P_s's first n - 1 columns:
    # B^T P_s[:, :n-1] is R, upper triangular with a positive diagonal
    r = b.T @ sp.projector_stable[:, : n - 1]
    assert np.abs(np.tril(r, -1)).max(initial=0.0) < 1e-12
    assert (np.diag(r) > 0).all()


def test_stable_basis_properties(fibonacci, tribonacci, aab_ba):
    for sub in (fibonacci, tribonacci, aab_ba):
        _check_stable_basis(sub)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(sub=_pisot_substitutions())
def test_stable_basis_properties_random(sub):
    _check_stable_basis(sub)


def test_splitting_dimensions(tribonacci):
    assert _splitting(tribonacci).stable_dimension == 2
    assert _splitting(Substitution({"a": "aaa"})).stable_basis.shape == (1, 0)


def test_splitting_rejects_non_pisot(thue_morse):
    with pytest.raises(UnsupportedInputError):
        _splitting(thue_morse)


def test_stability_scan_bounded(fibonacci):
    sp = _splitting(fibonacci)
    seed = build_strand(fibonacci.alphabet.word("a"))
    scan = stability_scan(fibonacci, seed, 10, sp)
    assert len(scan.envelopes) == 11
    assert max(scan.envelopes) < 2.0
    assert scan.empirical_radius == max(scan.envelopes[3:])
    assert scan.conjugation_max_error < 1e-6


def test_stability_scan_empty_strand(fibonacci):
    sp = _splitting(fibonacci)
    scan = stability_scan(fibonacci, build_strand(Word(fibonacci.alphabet)), 1, sp)
    assert scan.envelopes == (0.0, 0.0)


def test_stability_transient_decays(fibonacci):
    # a seed pushed off the expanding line falls back into the invariant slab:
    # after burn-in nothing exceeds the initial transient
    sp = _splitting(fibonacci)
    seed = build_strand(fibonacci.alphabet.word("a"), origin=(3, -2))
    scan = stability_scan(fibonacci, seed, 10, sp)
    assert max(scan.envelopes) == max(scan.envelopes[: scan.burn_in + 1])


def test_stable_delta_norm_bounded(aab_ba):
    sp = _splitting(aab_ba)
    x = FixedPointStream(aab_ba, "a")
    y = FixedPointStream(aab_ba, "b")
    at_1k = max_stable_delta_norm(sp, x, y, 1000)
    at_10k = max_stable_delta_norm(sp, x, y, 10_000)
    assert at_1k == at_10k
    assert at_10k < 2.0


def test_csv_export_deterministic(fibonacci):
    sp = _splitting(fibonacci)
    seed = build_strand(fibonacci.alphabet.word("a"))
    scan = stability_scan(fibonacci, seed, 4, sp)
    first, second = io.StringIO(), io.StringIO()
    rows1 = write_scan_csv(scan, sp, first)
    rows2 = write_scan_csv(scan, sp, second)
    assert first.getvalue() == second.getvalue()
    assert rows1 == rows2 == sum(len(s) for s in scan.strands)
    header = first.getvalue().splitlines()[0]
    assert header == "iteration,v0,v1,type,expanding_coefficient,s0"


def test_svg_export_deterministic(tribonacci):
    sp = _splitting(tribonacci)
    seed = build_strand(tribonacci.alphabet.word("a"))
    scan = stability_scan(tribonacci, seed, 8, sp)
    first, second = io.StringIO(), io.StringIO()
    n1 = write_stable_scatter_svg(scan.strands[-1], sp, first)
    n2 = write_stable_scatter_svg(scan.strands[-1], sp, second)
    assert first.getvalue() == second.getvalue()
    assert n1 == n2 == len(scan.strands[-1]) + 1
    assert first.getvalue().startswith("<svg ")
    assert 'viewBox="0 0 800 800"' in first.getvalue()


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_strands_match_segment_oracles(fibonacci, tribonacci, aab_ba, data):
    sub = data.draw(st.sampled_from([fibonacci, tribonacci, aab_ba]))
    n = len(sub.alphabet)
    word = Word(sub.alphabet, data.draw(st.lists(st.integers(0, n - 1), max_size=30)))
    # small origins keep the stable coordinates small next to the vertices,
    # where their rounding shows in the CSV's twelfth digit
    entry = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))
    origin = tuple(data.draw(st.lists(entry, min_size=n, max_size=n)))
    offsets = tuple(data.draw(st.lists(st.floats(-4.0, 4.0), max_size=3)))
    iterations = data.draw(st.integers(1, 5))
    sp = _splitting(sub)

    seed = build_strand(word, origin)
    oracle_seed = oracle_build_strand(word, origin)
    assert seed.vertices().tolist() == [list(v) for v in oracle_vertices(oracle_seed)]

    scan = stability_scan(sub, seed, iterations, sp, translation_samples=offsets)
    oracle_strands = [oracle_seed]
    for _ in range(iterations):
        oracle_strands.append(oracle_substitute_strand(sub, oracle_strands[-1]))
    for strand, segments in zip(scan.strands, oracle_strands):
        assert strand.word == oracle_word(sub.alphabet, segments)
        assert strand.vertices().tolist() == [list(v) for v in oracle_vertices(segments)]
    assert scan.envelopes == tuple(oracle_stable_envelope(s, sp) for s in oracle_strands)
    assert scan.conjugation_max_error == max(
        oracle_conjugation_error(sub, oracle_strands[0], sp, offsets),
        oracle_conjugation_error(sub, oracle_strands[-1], sp, offsets),
    )

    got, expected = io.StringIO(), io.StringIO()
    assert write_scan_csv(scan, sp, got) == oracle_write_scan_csv(oracle_strands, sub.alphabet, sp, expected)
    assert got.getvalue() == expected.getvalue()
    for strand, segments in ((scan.strands[0], oracle_strands[0]), (scan.strands[-1], oracle_strands[-1])):
        got, expected = io.StringIO(), io.StringIO()
        assert write_stable_scatter_svg(strand, sp, got) == oracle_write_stable_scatter_svg(segments, sp, expected)
        assert got.getvalue() == expected.getvalue()


def test_tribonacci_scan_matches_segment_oracles(tribonacci):
    sp = _splitting(tribonacci)
    seed = build_strand(tribonacci.alphabet.word("a"))
    scan = stability_scan(tribonacci, seed, 12, sp)
    strands = [oracle_build_strand(seed.word)]
    for _ in range(12):
        strands.append(oracle_substitute_strand(tribonacci, strands[-1]))
    assert scan.conjugation_max_error == max(
        oracle_conjugation_error(tribonacci, strands[0], sp, scan.translation_samples),
        oracle_conjugation_error(tribonacci, strands[-1], sp, scan.translation_samples),
    )
    got, expected = io.StringIO(), io.StringIO()
    write_scan_csv(scan, sp, got)
    oracle_write_scan_csv(strands, tribonacci.alphabet, sp, expected)
    assert got.getvalue() == expected.getvalue()
    got, expected = io.StringIO(), io.StringIO()
    write_stable_scatter_svg(scan.strands[-1], sp, got)
    oracle_write_stable_scatter_svg(strands[-1], sp, expected)
    assert got.getvalue() == expected.getvalue()
