import math
import random
import signal
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from substrand import (
    InputError,
    IntPolynomial,
    PISOT_INDETERMINATE,
    PISOT_NO,
    PISOT_YES,
    Substitution,
    abelianization_matrix,
    characteristic_polynomial,
    classify,
    is_irreducible,
    is_primitive,
    perron_data,
    spectral,
)
from substrand.spectral import certified_roots
from conftest import oracle_eig_perron_data, oracle_is_primitive, oracle_perron_data

LEHMER = IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
SALEM_QUARTIC = IntPolynomial((1, -1, -1, -1, 1))  # x^4 - x^3 - x^2 - x + 1


def _times(*factors):
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return IntPolynomial(out)


def _sympy_irreducible(poly):
    return bool(sympy.Poly(list(reversed(poly.coeffs)), sympy.Symbol("x")).is_irreducible)


@contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in the block once `seconds` of wall time pass."""

    def expire(signum, frame):
        raise TimeoutError(f"over the {seconds} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _random_substitution(rng, max_letters=4, max_image=4):
    n = rng.randrange(2, max_letters + 1)
    letters = "abcd"[:n]
    rules = {
        a: "".join(rng.choice(letters) for _ in range(rng.randrange(1, max_image + 1)))
        for a in letters
    }
    return Substitution(rules)


def test_matrix_examples(fibonacci, aab_bbaab):
    assert abelianization_matrix(fibonacci) == [[1, 1], [1, 0]]
    assert abelianization_matrix(aab_bbaab) == [[2, 2], [1, 3]]
    assert abelianization_matrix(Substitution({"a": "aa"})) == [[2]]


def test_primitivity(fibonacci):
    assert is_primitive(abelianization_matrix(fibonacci)) == (True, 2)
    assert is_primitive([[1, 0], [1, 1]]) == (False, None)
    assert is_primitive([[1, 2], [3, 4]]) == (True, 1)
    assert is_primitive([[3]]) == (True, 1)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_primitivity_matches_full_loop(data):
    n = data.draw(st.integers(1, 6), label="n")
    # mostly zeros, so that reducible and periodic patterns turn up
    entry = st.sampled_from([0, 0, 0, 0, 1, 2])
    matrix = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    assert is_primitive(matrix) == oracle_is_primitive(matrix)


def test_primitivity_of_long_cycle_stops_at_repeat(monkeypatch):
    letters = "abcdefghijklmnopqrstuvwxyz"
    rules = {a: letters[(i + 1) % 26] for i, a in enumerate(letters)}
    matrix = abelianization_matrix(Substitution(rules))
    products = []
    product = spectral._boolean_product
    monkeypatch.setattr(spectral, "_boolean_product", lambda *rows: products.append(1) or product(*rows))
    assert is_primitive(matrix) == (False, None)
    # B^1..B^26 are the 26 distinct powers of the cycle and B^27 = B repeats;
    # the Wielandt bound alone would allow 626
    assert len(products) == 26
    monkeypatch.undo()
    # one extra letter in one image makes the cycle primitive, late
    rules["a"] = "ab"
    assert is_primitive(abelianization_matrix(Substitution(rules))) == (True, 50)


def test_primitivity_exponent_reaches_wielandt_bound():
    # Wielandt's matrix: the n-cycle plus one chord, exponent (n-1)^2 + 1
    for n in range(2, 8):
        matrix = [[int(j == (i + 1) % n or (i, j) == (n - 1, 1)) for j in range(n)] for i in range(n)]
        assert is_primitive(matrix) == oracle_is_primitive(matrix) == (True, (n - 1) ** 2 + 1)


def test_characteristic_polynomials(fibonacci, tribonacci, thue_morse):
    assert characteristic_polynomial(abelianization_matrix(fibonacci)).coeffs == (-1, -1, 1)
    assert characteristic_polynomial(abelianization_matrix(tribonacci)).coeffs == (-1, -1, -1, 1)
    assert characteristic_polynomial(abelianization_matrix(thue_morse)).coeffs == (0, -2, 1)


def test_characteristic_polynomial_against_sympy():
    rng = random.Random(42)
    for _ in range(30):
        sub = _random_substitution(rng)
        m = abelianization_matrix(sub)
        ours = characteristic_polynomial(m).coeffs
        theirs = sympy.Matrix(m).charpoly().all_coeffs()  # descending order
        assert list(ours) == [int(c) for c in reversed(theirs)]


def test_cayley_hamilton_exact():
    rng = random.Random(3)
    for _ in range(20):
        sub = _random_substitution(rng)
        m = abelianization_matrix(sub)
        poly = characteristic_polynomial(m)
        n, matrix = len(m), sympy.Matrix(m)
        acc = sympy.zeros(n, n)
        power = sympy.eye(n)
        for coeff in poly.coeffs:
            acc += coeff * power
            power = power * matrix
        assert acc == sympy.zeros(n, n)


def test_irreducibility_matches_sympy_on_char_polys():
    rng = random.Random(2024)
    for _ in range(60):
        sub = _random_substitution(rng)
        poly = characteristic_polynomial(abelianization_matrix(sub))
        expected = _sympy_irreducible(poly)
        with _time_limit(2.0):
            assert is_irreducible(poly) is expected


# (coefficients ascending, irreducible over Q)
_HARD_CASES = [
    # x^4 + 1 and x^4 - 10x^2 + 1: irreducible yet reducible modulo every prime
    ((1, 0, 0, 0, 1), True),
    ((1, 0, -10, 0, 1), True),
    # Swinnerton-Dyer for 2, 3, 5: degree 8, factors of degree <= 2 mod every prime
    ((576, 0, -960, 0, 352, 0, -40, 0, 1), True),
    # (x^2 + x + 1)^2: no rational root, and squarefree modulo no prime
    ((1, 2, 3, 2, 1), False),
    # (x^4 + 1)(x^4 - 10x^2 + 1): a factor only from pairs of modular factors
    (_times((1, 0, 0, 0, 1), (1, 0, -10, 0, 1)).coeffs, False),
    # degree 7 and 10 with no rational root
    (_times((-1, -1, 0, 1), (-1, -1, 0, 0, 1)).coeffs, False),
    (_times((-1, -1, 0, 1), (-1, -1, 0, 0, 1), (-1, -1, 0, 1)).coeffs, False),
    (_times((-7, -10, 0, 1), (-13, 11, 0, 1)).coeffs, False),
    # both factors have negative coefficients: only symmetric residues find them
    (_times((-5, -3, 1), (-11, -7, -2, 1)).coeffs, False),
    ((-1, -1, 1), True),
    ((4, -5, 1), False),  # (x - 1)(x - 4)
    ((0, 0, 1), False),  # x^2
    ((-2, 1), True),
]


def test_irreducibility_hard_cases():
    for coeffs, irreducible in _HARD_CASES:
        poly = IntPolynomial(coeffs)
        assert _sympy_irreducible(poly) is irreducible, poly
        with _time_limit(0.5):  # a search exponential in the degree fails here
            assert is_irreducible(poly) is irreducible, poly


@st.composite
def _factor_products(draw):
    """Products of 1-4 monic factors of degree 1-5 with coefficients within
    +-50 and total degree <= 12; a factor may repeat an earlier one."""
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        if factors and draw(st.booleans()):
            factor = draw(st.sampled_from(factors))
        else:
            degree = draw(st.integers(1, 5))
            factor = tuple(draw(st.lists(st.integers(-50, 50), min_size=degree, max_size=degree))) + (1,)
        if sum(len(f) - 1 for f in factors) + len(factor) - 1 <= 12:
            factors.append(factor)
    return _times(*factors)


@settings(max_examples=300, deadline=None)
@given(_factor_products())
def test_irreducibility_matches_sympy_on_factor_products(poly):
    expected = _sympy_irreducible(poly)
    with _time_limit(2.0):
        assert is_irreducible(poly) is expected


def test_classify_with_a_large_determinant_finishes():
    # M = 1000 I + a 6-cycle: (x - 1000)^6 - 1 has the constant term 10^18 - 1,
    # whose divisors up to 10^9 a trial division would visit
    sub = Substitution({a: a * 1000 + b for a, b in zip("abcdef", "bcdefa")})
    with _time_limit(1.0):
        report = classify(sub)
    assert report.char_poly.coeffs[0] == 10**18 - 1
    assert [(b.real, b.imag) for b in report.root_bounds if b.exact] == [(1001.0, 0.0), (999.0, 0.0)]
    assert (report.dilation, report.dilation_error) == (1001.0, 0.0)
    assert report.pisot_type == PISOT_NO and report.irreducible is False


@st.composite
def _polys_with_integer_roots(draw):
    """(integer roots, monic cofactor): up to 5 roots within +-5000, and a
    cofactor of degree d <= 5 with coefficients within +-50 but a constant
    term within +-10^(2d), so that constant terms reach past 10^25 while the
    roots stay moderate."""
    roots = draw(st.lists(st.integers(-5000, 5000), max_size=5))
    degree = draw(st.integers(0, 5))
    middle = draw(st.lists(st.integers(-50, 50), min_size=max(degree - 1, 0), max_size=max(degree - 1, 0)))
    constant = [draw(st.integers(-(10 ** (2 * degree)), 10 ** (2 * degree)))] if degree else []
    return roots, IntPolynomial((*constant, *middle, 1))


@settings(max_examples=200, deadline=None)
@given(_polys_with_integer_roots())
def test_integer_roots_match_sympy(drawn):
    roots, cofactor = drawn
    poly = _times(cofactor.coeffs, *((-r, 1) for r in roots))
    x = sympy.Symbol("x")
    expected = sympy.roots(sympy.Poly(list(reversed(poly.coeffs)), x), filter="Q")
    with _time_limit(2.0):
        found, quotient = spectral._integer_roots(poly)
    assert Counter(found) == Counter({int(r): m for r, m in expected.items()})
    assert _times(quotient.coeffs, *((-r, 1) for r in found)) == poly
    assert all(abs(r) <= spectral._root_bound(poly.coeffs) for r in found)


def test_classify_fibonacci(fibonacci):
    report = classify(fibonacci)
    assert report.primitive and report.primitivity_exponent == 2
    assert report.irreducible and report.pisot_type == PISOT_YES
    assert report.irreducible_pisot
    assert abs(report.dilation - 1.6180339887498949) < 1e-10
    # M w = dilation w within combined bounds, w positive and normalized
    import math

    m = abelianization_matrix(fibonacci)
    w = report.perron_vector
    assert all(x > 0 for x in w)
    assert abs(math.fsum(x * x for x in w) - 1.0) < 1e-9
    for i in range(2):
        got = sum(m[i][j] * w[j] for j in range(2))
        assert abs(got - report.dilation * w[i]) < 1e-8


def test_classify_reducible_pair():
    report = classify(Substitution({"a": "aaab", "b": "bbab"}))
    assert report.primitive
    assert report.char_poly.coeffs == (8, -6, 1)
    assert not report.irreducible
    moduli = sorted(b.modulus for b in report.root_bounds)
    assert moduli == [2.0, 4.0]
    assert all(b.exact for b in report.root_bounds)
    assert report.pisot_type == PISOT_NO
    assert not report.irreducible_pisot


def test_classify_unit_circle_eigenvalue_exact(aab_bbaab):
    report = classify(aab_bbaab)
    assert report.char_poly.coeffs == (4, -5, 1)
    assert not report.irreducible
    one = [b for b in report.root_bounds if b.modulus == 1.0]
    assert len(one) == 1 and one[0].exact
    assert one[0].status_vs_unit_circle() == "on-circle"
    assert report.pisot_type == PISOT_NO


def test_classify_non_primitive_is_partial():
    report = classify(Substitution({"a": "ab", "b": "b"}))
    assert not report.primitive
    assert report.primitivity_exponent is None
    assert report.char_poly.coeffs == (1, -2, 1)
    assert report.irreducible is None and report.pisot_type is None


def test_root_moduli_product_matches_determinant():
    rng = random.Random(11)
    for _ in range(20):
        sub = _random_substitution(rng)
        m = abelianization_matrix(sub)
        report = classify(sub)
        if not report.primitive:
            continue
        det = sympy.Matrix(m).det()
        product = 1.0
        for b in report.root_bounds:
            product *= b.modulus
        assert abs(product - abs(det)) < 1e-6 * max(1.0, abs(det))


def test_perron_data_tolerance():
    eigenvalue, vector, residual = perron_data([[1, 1], [1, 0]])
    assert abs(eigenvalue - 1.6180339887498949) < 1e-15
    assert residual <= 1e-12 * max(1.0, eigenvalue)
    assert all(x > 0 for x in vector)


def test_perron_data_refuses_a_matrix_without_positive_root():
    for matrix in ([[0, 0], [0, 0]], [[0, 1], [0, 0]]):
        with pytest.raises(InputError, match="Perron root"):
            perron_data(matrix)


def test_classify_large_diagonal_pair():
    """a -> a^40000 bb, b -> a b^40000: eigenvalues 40000 +- sqrt 2, so their
    ratio is 1 - 7e-5 and a power iteration gains one digit per 3e4 steps."""
    k = 40_000
    sub = Substitution({"a": "a" * k + "bb", "b": "a" + "b" * k})
    report = classify(sub)
    assert report.primitive and report.pisot_type == PISOT_NO
    assert abs(report.dilation - (k + 2 ** 0.5)) < 1e-9 * k
    assert report.perron_residual <= 1e-12 * report.dilation
    assert np.allclose(report.perron_vector, np.array([1, 2 ** 0.5]) / 3 ** 0.5, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_perron_data_matches_power_iteration(data):
    n = data.draw(st.integers(1, 6), label="n")
    entry = st.sampled_from([0, 0, 1, 1, 2, 3])
    matrix = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    assume(is_primitive(matrix)[0])
    oracle = oracle_perron_data(matrix, steps=20_000)
    assume(oracle is not None)
    eigenvalue, vector, residual = perron_data(matrix)
    w = np.array(vector)
    assert abs(eigenvalue - oracle[0]) <= 1e-9 * eigenvalue
    assert np.abs(w - oracle[1]).max() <= 1e-7
    assert (w > 0).all() and abs(np.linalg.norm(w) - 1) < 1e-14
    assert residual <= 1e-12 * eigenvalue
    # the residual bounds ||Mw - lw||, evaluated exactly at the float l and w, and is
    # the smallest float that does
    exact = sum((sum(e * Fraction(v) for e, v in zip(row, vector)) - Fraction(eigenvalue) * Fraction(x)) ** 2
                for row, x in zip(matrix, vector))
    assert Fraction(residual) ** 2 >= exact
    assert residual == 0 or Fraction(math.nextafter(residual, 0)) ** 2 < exact


def _mpmath_perron(matrix):
    """Perron eigenvalue and unit positive eigenvector from a 50-digit eigensolve."""
    with mpmath.workdps(50):
        values, vectors = mpmath.eig(mpmath.matrix(matrix))
        k = max(range(len(values)), key=lambda i: mpmath.re(values[i]))
        v = [abs(mpmath.re(vectors[i, k])) for i in range(len(matrix))]
        norm = mpmath.sqrt(sum(x * x for x in v))
        return mpmath.re(values[k]), [x / norm for x in v]


def test_perron_data_is_as_accurate_as_a_dense_eigensolve():
    """Against a 50-digit reference, the eigenvalue (relative) and vector errors
    are within one unit of 2^-52 or at most those of numpy's dense eigensolve."""
    rng = random.Random(8)
    k = 40_000
    subs = [{"a": "ab", "b": "a"}, {"a": "ab", "b": "ac", "c": "a"}, {"a": "ab", "b": "ba"},
            {"a": "a" * k + "bb", "b": "a" + "b" * k}, {**{a: b for a, b in zip("abcdefgh", "bcdefgha")}, "a": "ab"}]
    matrices = [abelianization_matrix(Substitution(rules)) for rules in subs]
    while len(matrices) < 40:
        n = rng.randrange(2, 9)
        matrix = [[rng.choice([0, 0, 1, 1, 2, 3]) for _ in range(n)] for _ in range(n)]
        if is_primitive(matrix)[0]:
            matrices.append(matrix)
    for matrix in matrices:
        reference, reference_vector = _mpmath_perron(matrix)
        errors = []
        for eigenvalue, vector, _ in (perron_data(matrix), oracle_eig_perron_data(matrix)):
            errors.append((float(abs(eigenvalue - reference) / reference),
                           float(max(abs(x - y) for x, y in zip(vector, reference_vector)))))
        (ours_value, ours_vector), (numpy_value, numpy_vector) = errors
        assert ours_value <= max(numpy_value, 2.0**-52), matrix
        assert ours_vector <= max(numpy_vector, 2.0**-52), matrix


def test_report_json_round_trip(fibonacci):
    import json

    report = classify(fibonacci)
    payload = json.loads(report.to_json())
    assert payload["characteristic_polynomial"] == [-1, -1, 1]
    assert payload["pisot_type"] == "Yes"
    assert payload["dilation"]["error_bound"] >= 0.0


@pytest.mark.parametrize("poly", [LEHMER, SALEM_QUARTIC], ids=["lehmer", "salem-quartic"])
def test_unit_circle_roots_stay_unresolved(poly, monkeypatch):
    statuses = sorted(b.status_vs_unit_circle() for b in certified_roots(poly))
    assert statuses == ["inside", "outside"] + ["unresolved"] * (poly.degree - 2)
    # classify with this characteristic polynomial on a primitive matrix
    monkeypatch.setattr(spectral, "characteristic_polynomial", lambda matrix: poly)
    report = classify(Substitution({"a": "ab", "b": "a"}))
    assert report.irreducible is True
    assert report.pisot_type == PISOT_INDETERMINATE
    assert report.irreducible_pisot is False


def test_root_radii_cover_true_roots():
    rng = random.Random(5)
    polys = [LEHMER, SALEM_QUARTIC, _times((-1, -1, 0, 1), (-1, -1, 0, 0, 1))]
    # p(z) rounds to 0.0 in floats at one root z, which is 3e-18 from the root
    polys.append(IntPolynomial((-7, -56, -45, -20, 3, -4, 1)))
    x = sympy.Symbol("x")
    while len(polys) < 12:  # squarefree, so every numeric root is simple
        poly = characteristic_polynomial(abelianization_matrix(_random_substitution(rng, 6, 5)))
        if sympy.Poly(list(reversed(poly.coeffs)), x).is_sqf:
            polys.append(poly)
    for poly in polys:
        reference = sympy.Poly(list(reversed(poly.coeffs)), x).nroots(n=50)
        for b in certified_roots(poly):
            if b.exact:
                continue
            z = sympy.Float(b.real, 60) + sympy.I * sympy.Float(b.imag, 60)
            nearest = min(sympy.Abs(w - z).evalf(50) for w in reference)
            assert nearest <= sympy.Float(b.radius, 60), (poly, b)
            assert b.radius < 1e-9


@st.composite
def _root_test_polys(draw):
    """Products of 1-4 monic factors of degree 1-4 with coefficients within
    +-20 and total degree 1-12: random ones, reciprocal ones (palindromic,
    so their roots pair as z and 1/z, many on the unit circle) and repeats."""
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["random", "reciprocal", "repeat"] if factors else ["random", "reciprocal"]))
        degree = draw(st.integers(1, 4))
        if kind == "repeat":
            factor = draw(st.sampled_from(factors))
        elif kind == "random":
            factor = tuple(draw(st.lists(st.integers(-20, 20), min_size=degree, max_size=degree))) + (1,)
        else:
            half = draw(st.lists(st.integers(-20, 20), min_size=degree // 2, max_size=degree // 2))
            middle = [draw(st.integers(-20, 20))] if degree % 2 == 0 else []
            factor = (1, *half, *middle, *reversed(half), 1)
        if sum(len(f) - 1 for f in factors) + len(factor) - 1 <= 12:
            factors.append(factor)
    return _times(*factors)


@settings(max_examples=100, deadline=None)
@given(_root_test_polys())
def test_certified_roots_cover_true_roots(poly):
    x = sympy.Symbol("x")
    reference = []  # (root, is real) for every true root, with multiplicity
    for factor, multiplicity in sympy.Poly(list(reversed(poly.coeffs)), x).sqf_list()[1]:
        roots = factor.nroots(n=50, maxsteps=500)
        assert sum(root.is_real for root in roots) == factor.count_roots()
        reference += [(root, bool(root.is_real)) for root in roots] * multiplicity
    bounds = certified_roots(poly)
    assert len(bounds) == poly.degree == len(reference)
    # real roots sit on the real axis and the others come in exact conjugate pairs
    assert sum(b.imag == 0.0 for b in bounds) == sum(real for _, real in reference)
    off_axis = Counter((b.real, b.imag) for b in bounds if b.imag != 0.0)
    assert off_axis == Counter((re, -im) for re, im in off_axis.elements())
    for root, real in reference:
        disks = [b for b in bounds if b.imag == 0.0 or not real]
        distances = [sympy.Abs(root - sympy.Float(b.real, 60) - sympy.I * sympy.Float(b.imag, 60)).evalf(50)
                     - sympy.Float(b.radius, 60) for b in disks]
        assert min(distances) <= 1e-40, (poly, root)
