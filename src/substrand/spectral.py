"""Exact spectral analysis of the letter-count matrix of a substitution.

Primitivity, the characteristic polynomial (exact integers throughout),
irreducibility over the rationals, Pisot classification with certified
root-modulus bounds, and Perron eigendata, all in pure Python (no numpy).
"""

from __future__ import annotations

import cmath
import json
import math
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, count, zip_longest
from operator import mul, ne, or_
from typing import NamedTuple

from .errors import InputError
from .words import Substitution

PISOT_YES = "Yes"
PISOT_NO = "No"
PISOT_INDETERMINATE = "Indeterminate"

_SCREEN_LIMIT = 31  # every prime up to here narrows the degree sets


def abelianization_matrix(sub: Substitution) -> list[list[int]]:
    """n x n matrix whose (i, j) entry counts letter i in the image of letter j."""
    n = len(sub.alphabet)
    m = [[0] * n for _ in range(n)]
    for j in range(n):
        for i in sub.image_indices(j):
            m[i][j] += 1
    return m


def is_primitive(matrix: list[list[int]]) -> tuple[bool, int | None]:
    """Whether some power of the matrix is entrywise positive.

    Returns the smallest witnessing exponent, using boolean positivity
    patterns only, one bitset per row. The patterns of B^k are eventually
    periodic, so a pattern seen before ends the search; the Wielandt bound
    (n-1)^2 + 1 caps it.
    """
    n = len(matrix)
    base = [sum(1 << j for j, e in enumerate(row) if e > 0) for row in matrix]
    full = (1 << n) - 1
    pattern, seen = base, set()
    for k in range(1, (n - 1) ** 2 + 2):
        if all(row == full for row in pattern):
            return True, k
        if tuple(pattern) in seen:
            break
        seen.add(tuple(pattern))
        pattern = _boolean_product(pattern, base)
    return False, None


def _boolean_product(left: list[int], right: list[int]) -> list[int]:
    """Boolean matrix product of bitset rows: row i is the OR of the rows of
    ``right`` picked by the bits of row i of ``left``."""
    return [reduce(or_, (r for j, r in enumerate(right) if row >> j & 1), 0) for row in left]


class IntPolynomial:
    """A monic polynomial with exact integer coefficients.

    Coefficients are stored in ascending order: coeffs[i] multiplies x^i.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if not coeffs or coeffs[-1] != 1:
            raise InputError(f"polynomial must be monic, got coefficients {coeffs}")
        self.coeffs = coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        result = 0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def derivative_at(self, x):
        result = 0
        for k in range(self.degree, 0, -1):
            result = result * x + k * self.coeffs[k]
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __str__(self) -> str:
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                x = "x" if k == 1 else f"x^{k}"
                body = x if abs(c) == 1 else f"{abs(c)}{x}"
            terms.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(terms).lstrip("+ ")
        return text.replace("+ -", "- ") if text else "0"

    def __repr__(self) -> str:
        return f"IntPolynomial({self.coeffs})"


def characteristic_polynomial(matrix: list[list[int]]) -> IntPolynomial:
    """det(xI - M) with exact integer coefficients (Faddeev-LeVerrier).

    Every division in the recurrence is exact over the integers; a nonzero
    remainder would indicate a bug, so it is asserted.
    """
    n = len(matrix)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    aux = [row[:] for row in matrix]
    for k in range(1, n + 1):
        trace = sum(aux[i][i] for i in range(n))
        c, rem = divmod(-trace, k)
        assert rem == 0, "Faddeev-LeVerrier division must be exact"
        coeffs[n - k] = c
        if k < n:
            for i in range(n):
                aux[i][i] += c
            columns = list(zip(*aux))
            aux = [[sum(m * a for m, a in zip(row, col)) for col in columns] for row in matrix]
    return IntPolynomial(coeffs)


# ---------------------------------------------------------------------------
# irreducibility over the rationals


def _integer_roots(poly: IntPolynomial) -> tuple[list[int], IntPolynomial]:
    """All rational roots with multiplicity (integers, since the polynomial is
    monic), plus the exact quotient with those roots divided out."""
    roots: list[int] = []
    current = poly
    while current.degree > 0 and current.coeffs[0] == 0:
        roots.append(0)
        current = IntPolynomial(current.coeffs[1:])
    # a root divides this constant and lies within the root bound, and every
    # quotient's roots are roots of every earlier quotient, so one pass over
    # the divisors in increasing order finds them all
    constant = current.coeffs[0]
    for d in range(1, _root_bound(current.coeffs) + 1):
        if constant % d:
            continue
        for candidate in (d, -d):
            while current.degree > 0 and current(candidate) == 0:
                roots.append(candidate)
                current = IntPolynomial(_monic_divmod(current.coeffs, (-candidate, 1))[0])
    return roots, current


def _root_bound(coeffs: tuple[int, ...]) -> int:
    """A power of 2 at least the modulus of every root of a monic polynomial:
    Fujiwara's bound 2 max |a_(n-i)|^(1/i) over i = 1..n (which he tightens by
    halving a_0), with each |a_(n-i)|^(1/i) rounded up to a power 2^e, the
    least with 2^(e i) >= |a_(n-i)|."""
    n = len(coeffs) - 1
    exponents = [-(-(abs(coeffs[n - i]) - 1).bit_length() // i) for i in range(1, n + 1) if coeffs[n - i]]
    return 2 ** (max(exponents, default=0) + 1)


def _sturm_sequence(coeffs: tuple[int, ...]) -> list[list[int]]:
    """f, f' and the negated primitive pseudo-remainders of Euclid, down to a
    constant or to gcd(f, f') (degree >= 1). Every multiplier is positive, so
    this is a Sturm sequence: the sign changes of its leading coefficients at
    -inf minus those at +inf count the distinct real roots."""
    seq = [list(coeffs), [k * c for k, c in enumerate(coeffs)][1:]]
    while len(seq[-1]) > 1:
        r, b = seq[-2], seq[-1]
        sign = 1 if b[-1] > 0 else -1
        while len(r) >= len(b):
            shift, lead = len(r) - len(b), r[-1] * sign
            r = [c * abs(b[-1]) for c in r[:-1]]
            for i, bi in enumerate(b[:-1]):
                r[shift + i] -= lead * bi
            r = _trim(r)
        if r == [0]:
            break
        g = math.gcd(*r)
        seq.append([-c // g for c in r])
    return seq


# Polynomials modulo q are ascending coefficient lists without trailing zeros
# (zero is [0]); a divisor needs a leading coefficient invertible mod q.


def _trim(a: list[int]) -> list[int]:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _pdivmod(a: list[int], m: list[int], p: int) -> tuple[list[int], list[int]]:
    a = a[:]
    inv_lead = pow(m[-1], -1, p)
    quotient = [0] * max(len(a) - len(m) + 1, 1)
    for shift in range(len(a) - len(m), -1, -1):
        factor = quotient[shift] = a[shift + len(m) - 1] * inv_lead % p
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - factor * mi) % p
    return _trim(quotient), _trim(a[: len(m) - 1] or [0])


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over the field with p elements."""
    while b != [0]:
        a, b = b, _pdivmod(a, b, p)[1]
    inv_lead = pow(a[-1], -1, p)
    return [c * inv_lead % p for c in a]


def _ppow(base: list[int], exponent: int, modulus: list[int], p: int) -> list[int]:
    """base**exponent mod (modulus, p) by square and multiply."""
    result = [1]
    base = _pdivmod(base, modulus, p)[1]
    while exponent:
        if exponent & 1:
            result = _pdivmod(_pmul(result, base, p), modulus, p)[1]
        base = _pdivmod(_pmul(base, base, p), modulus, p)[1]
        exponent >>= 1
    return result


def _psub(a: list[int], b: list[int], p: int) -> list[int]:
    return _trim([(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def _distinct_degree(f: list[int], p: int) -> list[tuple[int, list[int]]]:
    """(d, product of the monic irreducible factors of degree d) for a monic
    squarefree f over the field with p elements."""
    out, h, d = [], [0, 1], 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _ppow(h, p, f, p)
        g = _pgcd(f, _psub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((d, g))
            f = _pdivmod(f, g, p)[0]
            h = _pdivmod(h, f, p)[1]
    if len(f) > 1:
        out.append((len(f) - 1, f))
    return out


def _equal_degree(g: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus: the monic irreducible factors, all of degree d, of g
    over the field with odd p elements."""
    if len(g) - 1 == d:
        return [g]
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(g) - 1)])
        h = _pgcd(g, _psub(_ppow(a, (p**d - 1) // 2, g, p), [1], p), p)
        if 1 < len(h) < len(g):
            return _equal_degree(h, d, p, rng) + _equal_degree(_pdivmod(g, h, p)[0], d, p, rng)


def _hensel_lift(f, factors: list[list[int]], p: int, bound: int) -> tuple[list[list[int]], int]:
    """Lift f = prod(factors) mod p (monic, pairwise coprime, irreducible) to
    f = prod(lifted) mod q for the first power q of p above 2 * bound, one
    power of p per step."""
    # a_i = (f / g_i)^-1 mod g_i, so sum_i a_i f / g_i = 1 mod p
    fp = _trim([c % p for c in f])
    inverses = [_ppow(_pdivmod(fp, g, p)[0], p ** (len(g) - 1) - 2, g, p) for g in factors]
    lifted, q = [g[:] for g in factors], p
    while q <= 2 * bound:
        product = reduce(lambda a, g: _pmul(a, g, q * p), lifted, [1])
        error = _trim([(c - e) % (q * p) // q for c, e in zip_longest(f, product, fillvalue=0)])
        for i, (g, inverse) in enumerate(zip(factors, inverses)):
            delta = _pdivmod(_pmul(inverse, error, p), g, p)[1]
            lifted[i] = [c + q * e for c, e in zip_longest(lifted[i], delta, fillvalue=0)]
        q *= p
    return lifted, q


def _monic_divmod(f, g) -> tuple[list[int], list[int]]:
    """Exact long division over the integers by a monic g: (quotient, remainder)."""
    rem, quotient = list(f), [0] * (len(f) - len(g) + 1)
    for shift in range(len(f) - len(g), -1, -1):
        lead = quotient[shift] = rem[shift + len(g) - 1]
        for i, c in enumerate(g):
            rem[shift + i] -= lead * c
    return quotient, rem


def is_irreducible(poly: IntPolynomial) -> bool:
    """Irreducibility over the rationals for a monic integer polynomial, exact
    at every degree (Berlekamp-Zassenhaus).

    A repeated factor (gcd(f, f') over Q) makes f reducible. Distinct-degree
    factorization modulo each prime up to 31 where f stays squarefree bounds
    the degrees a factor over Q can have (Musser's degree sets); when no
    degree 1..deg-1 survives, f is irreducible. Otherwise the factors modulo
    the odd prime with the fewest of them are split (Cantor-Zassenhaus),
    Hensel-lifted past twice the Landau-Mignotte bound and recombined: f is
    reducible exactly when a product of at most half of them, in symmetric
    residues, divides f over the integers.
    """
    n = poly.degree
    if n <= 0:
        raise InputError("irreducibility needs degree >= 1")
    f = poly.coeffs
    if len(_sturm_sequence(f)[-1]) > 1:  # gcd(f, f') is not constant
        return False
    deriv = [k * c for k, c in enumerate(f)][1:]
    degrees = (1 << n) - 2  # bit d set: a factor of degree d is still possible
    best = None
    for p in count(2):
        if p > _SCREEN_LIMIT and best:
            break
        if any(p % k == 0 for k in range(2, math.isqrt(p) + 1)):
            continue
        fp = _trim([c % p for c in f])
        dp = _trim([c % p for c in deriv])
        if dp == [0] or len(_pgcd(fp, dp, p)) > 1:
            continue
        factors = _distinct_degree(fp, p)
        parts = [d for d, g in factors for _ in range((len(g) - 1) // d)]
        degrees &= reduce(lambda sums, d: sums | sums << d, parts, 1)
        if not degrees:
            return True
        if p > 2 and (best is None or len(parts) < best[0]):  # splitting needs odd p
            best = (len(parts), p, factors)
    _, p, factors = best
    rng = random.Random(0)
    split = [h for d, g in factors for h in _equal_degree(g, d, p, rng)]
    # Mignotte: a factor of degree m < n has |coefficient j| <= C(m, j) * |f|_2
    bound = math.comb(n - 1, (n - 1) // 2) * (math.isqrt(sum(c * c for c in f)) + 1)
    lifted, q = _hensel_lift(f, split, p, bound)
    for size in range(1, len(lifted) // 2 + 1):
        for subset in combinations(lifted, size):
            if degrees >> sum(len(g) - 1 for g in subset) & 1:
                product = reduce(lambda a, g: _pmul(a, g, q), subset, [1])
                candidate = [c - q if c > q // 2 else c for c in product]
                if not any(_monic_divmod(poly.coeffs, candidate)[1]):
                    return False
    return True


# ---------------------------------------------------------------------------
# numeric roots with a-posteriori certification


class RootBound(NamedTuple):
    """A root of the characteristic polynomial with a modulus certificate.

    ``exact`` roots are rational and carry radius 0; a numeric root z carries
    a radius of at least deg * |p(z)| / |p'(z)|, evaluated exactly at the
    float z, so the disk holds a true root; the modulus tests are exact too.
    """

    real: float
    imag: float
    modulus: float
    radius: float
    exact: bool

    def status_vs_unit_circle(self) -> str:
        if self.exact:
            if self.modulus < 1:
                return "inside"
            if self.modulus > 1:
                return "outside"
            return "on-circle"
        norm2 = Fraction(self.real) ** 2 + Fraction(self.imag) ** 2
        if self.radius < 1 and norm2 < (1 - Fraction(self.radius)) ** 2:
            return "inside"
        if self.radius < math.inf and norm2 > (1 + Fraction(self.radius)) ** 2:
            return "outside"
        return "unresolved"

    def to_json_dict(self) -> dict:
        return {
            "root": [self.real, self.imag],
            "modulus": self.modulus,
            "error_bound": self.radius,
            "exact": self.exact,
            "unit_circle": self.status_vs_unit_circle(),
        }


def _certified_radius(poly: IntPolynomial, z: complex) -> float:
    """The smallest float r with r^2 >= deg^2 |p(z)|^2 / |p'(z)|^2, evaluated
    exactly over the Gaussian rationals (z.real and z.imag are dyadic)."""
    x, y = Fraction(z.real), Fraction(z.imag)

    def norm2_at(coeffs):
        re = im = Fraction(0)
        for c in reversed(coeffs):
            re, im = re * x - im * y + c, re * y + im * x
        return re * re + im * im

    slope = norm2_at([k * c for k, c in enumerate(poly.coeffs)][1:])
    if slope == 0:
        return math.inf
    return _sqrt_up(poly.degree**2 * norm2_at(poly.coeffs) / slope)


def _sqrt_up(target) -> float:
    """The smallest float r with r^2 >= target (a nonnegative Fraction)."""
    r = math.sqrt(target)
    while Fraction(r) ** 2 < target:
        r = math.nextafter(r, math.inf)
    while r > 0 and Fraction(math.nextafter(r, 0)) ** 2 >= target:
        r = math.nextafter(r, 0)
    return r


def _aberth(poly: IntPolynomial) -> list[complex]:
    """Approximations to all roots by Aberth-Ehrlich iteration (Aberth 1973;
    Bini, Numer. Algorithms 13, 1996), from a circle of radius |p(0)|^(1/n)."""
    n = poly.degree
    z = [cmath.rect(abs(poly.coeffs[0]) ** (1 / n), 2 * math.pi * k / n + 0.5) for k in range(n)]
    for _ in range(500):
        moved = False
        for i, zi in enumerate(z):
            p = poly(zi)
            repulsion = sum(1 / (zi - zj) for zj in z[:i] + z[i + 1:])
            denominator = poly.derivative_at(zi) - p * repulsion
            if denominator:
                z[i] = zi - p / denominator
                moved = moved or abs(z[i] - zi) > 1e-14 * abs(z[i])
        if not moved:
            break
    return z


def _numeric_roots(poly: IntPolynomial) -> list[complex]:
    """The roots of a polynomial without rational roots, a repeated root once
    per multiplicity. The distinct roots are those of f / gcd(f, f'), and the
    Sturm count r of the real ones puts the r Aberth iterates nearest the real
    axis on it (imaginary part exactly 0.0); the others pair up as exact
    conjugates of those in the upper half-plane."""
    if poly.degree == 0:
        return []
    seq = _sturm_sequence(poly.coeffs)
    common = IntPolynomial(c // seq[-1][-1] for c in seq[-1])  # gcd(f, f'), monic
    distinct = IntPolynomial(_monic_divmod(poly.coeffs, common.coeffs)[0])
    plus = [s[-1] > 0 for s in seq]  # the signs at +inf, then at -inf
    minus = [sign ^ (len(s) % 2 == 0) for sign, s in zip(plus, seq)]
    real = sum(map(ne, minus, minus[1:])) - sum(map(ne, plus, plus[1:]))
    guesses = sorted(_aberth(distinct), key=lambda z: abs(z.imag))
    upper = sorted(guesses[real:], key=lambda z: -z.imag)[: (distinct.degree - real) // 2]
    pairs = [w for z in upper for w in (z, z.conjugate())]
    return [complex(z.real) for z in guesses[:real]] + pairs + _numeric_roots(common)


def certified_roots(poly: IntPolynomial) -> list[RootBound]:
    """All roots: exact rational ones divided out first, the rest numeric
    (Aberth iterates) with certified radii."""
    rational, remainder = _integer_roots(poly)
    bounds = [RootBound(float(r), 0.0, float(abs(r)), 0.0, True) for r in rational]
    for z in _numeric_roots(remainder):
        bounds.append(RootBound(z.real, z.imag, abs(z), _certified_radius(remainder, z), False))
    bounds.sort(key=lambda b: (-b.modulus, b.real, b.imag))
    return bounds


def perron_data(matrix: list[list[int]]) -> tuple[float, tuple[float, ...], float]:
    """Perron eigenvalue and unit positive right eigenvector, by inverse
    iteration from the root of the characteristic polynomial of largest real
    part.

    For a primitive matrix that root is real, simple and strictly dominant,
    and its eigenvector is positive up to sign. Returns (eigenvalue, vector,
    residual) where residual is ||Mw - lw||_2 evaluated exactly at the float
    l and w, rounded up.
    """
    rational, remainder = _integer_roots(characteristic_polynomial(matrix))
    eigenvalue = max([*rational, *(z.real for z in _numeric_roots(remainder))])
    if eigenvalue <= 0:
        raise InputError("matrix has no positive Perron root")
    return _perron_vector(matrix, float(eigenvalue))


def _perron_vector(matrix: list[list[int]], eigenvalue: float) -> tuple[float, tuple[float, ...], float]:
    """(eigenvalue, vector, residual) as in :func:`perron_data`, by two steps
    of inverse iteration at a simple real eigenvalue l. Each solves
    (M - lI) y = w by Gauss-Jordan elimination with partial pivoting (a zero
    pivot, as at an exact l, becomes eps ||M||) and refreshes l by the
    Rayleigh quotient."""
    n, w = len(matrix), [1.0] * len(matrix)
    tiny = 2.0**-52 * max(1, max(sum(map(abs, row)) for row in matrix))
    for _ in range(2):
        rows = [[e - eigenvalue * (i == j) for j, e in enumerate(row)] + [x]
                for i, (row, x) in enumerate(zip(matrix, w))]
        for col in range(n):
            top = max(range(col, n), key=lambda r: abs(rows[r][col]))
            rows[col], rows[top] = rows[top], rows[col]
            pivot = rows[col]
            pivot[col] = pivot[col] or tiny
            for row in rows:
                if row is not pivot:
                    factor = row[col] / pivot[col]
                    row[col:] = [a - factor * b for a, b in zip(row[col:], pivot[col:])]
        y = [row[n] / row[i] for i, row in enumerate(rows)]
        norm = math.hypot(*y)
        w = [abs(v) / norm for v in y]
        mw = [math.fsum(map(mul, row, w)) for row in matrix]
        eigenvalue = math.fsum(map(mul, w, mw)) / math.fsum(map(mul, w, w))
    exact = [Fraction(x) for x in w]
    residual = sum((sum(map(mul, row, exact)) - Fraction(eigenvalue) * x) ** 2
                   for row, x in zip(matrix, exact))
    return eigenvalue, tuple(w), _sqrt_up(residual)


class ClassificationReport(NamedTuple):
    """Spectral classification of a substitution.

    For non-primitive input only primitivity and the characteristic
    polynomial are populated; the remaining fields are None.
    """

    primitive: bool
    primitivity_exponent: int | None
    char_poly: IntPolynomial
    irreducible: bool | None = None
    dilation: float | None = None
    dilation_error: float | None = None
    perron_vector: tuple[float, ...] | None = None
    perron_residual: float | None = None
    pisot_type: str | None = None
    root_bounds: tuple[RootBound, ...] = ()
    irreducible_pisot: bool | None = None

    def to_json_dict(self) -> dict:
        out = {
            "primitive": self.primitive,
            "primitivity_exponent": self.primitivity_exponent,
            "characteristic_polynomial": list(self.char_poly.coeffs),
            "irreducible": self.irreducible,
            "pisot_type": self.pisot_type,
            "irreducible_pisot": self.irreducible_pisot,
        }
        if self.dilation is not None:
            out["dilation"] = {"value": self.dilation, "error_bound": self.dilation_error}
        if self.perron_vector is not None:
            out["perron_vector"] = {
                "value": list(self.perron_vector),
                "residual": self.perron_residual,
            }
        if self.root_bounds:
            out["roots"] = [b.to_json_dict() for b in self.root_bounds]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def classify(sub: Substitution) -> ClassificationReport:
    """Full spectral classification: primitivity, irreducibility, Pisot verdict.

    The Pisot verdict is Yes when exactly one root of the characteristic
    polynomial lies outside the closed unit disk and every other root is
    certified strictly inside; rational roots are handled exactly, so a
    root sitting on the circle yields a clean No. When a numeric modulus
    cannot be separated from 1 within its certificate, the verdict is
    Indeterminate rather than a guess.
    """
    matrix = abelianization_matrix(sub)
    primitive, exponent = is_primitive(matrix)
    poly = characteristic_polynomial(matrix)
    if not primitive:
        return ClassificationReport(False, None, poly)

    irreducible = is_irreducible(poly)
    bounds = certified_roots(poly)
    dominant = bounds[0]
    dilation = dominant.modulus
    _, vector, residual = _perron_vector(matrix, dominant.real)

    outside = [b for b in bounds if b.status_vs_unit_circle() == "outside"]
    unresolved = [b for b in bounds if b.status_vs_unit_circle() == "unresolved"]
    on_circle = [b for b in bounds if b.status_vs_unit_circle() == "on-circle"]
    if unresolved:
        pisot = PISOT_INDETERMINATE
    elif len(outside) == 1 and not on_circle:
        pisot = PISOT_YES
    else:
        pisot = PISOT_NO

    return ClassificationReport(
        primitive=True,
        primitivity_exponent=exponent,
        char_poly=poly,
        irreducible=irreducible,
        dilation=dilation,
        dilation_error=dominant.radius,
        perron_vector=vector,
        perron_residual=residual,
        pisot_type=pisot,
        root_bounds=tuple(bounds),
        irreducible_pisot=bool(irreducible and pisot == PISOT_YES),
    )
