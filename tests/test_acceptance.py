"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines; stated
runtime budgets are asserted where a criterion carries one.
"""

import functools
import random
import time

import pytest

from substrand import (
    FixedPointStream,
    PISOT_NO,
    PISOT_YES,
    Substitution,
    Word,
    abelianization_matrix,
    abelianize,
    apply_substitution,
    build_fs_family,
    build_prefix_graph,
    build_strand,
    classify,
    decode_path,
    delta_value_set,
    encode_integer,
    enumerate_paths,
    find_strong_coincidence,
    format_path,
    invariant_splitting,
    max_stable_delta_norm,
    occurrences,
    proximality_scan,
    search_ip_witness,
    stability_scan,
    substitute_strand,
    validate_witness,
    verify_finite_sums,
)

FIBONACCI = {"a": "ab", "b": "a"}
TRIBONACCI = {"a": "ab", "b": "ac", "c": "a"}
THUE_MORSE = {"a": "ab", "b": "ba"}
UNIFORM_PAIR = {"a": "aaab", "b": "bbab"}
TWO_SCALE = {"a": "aab", "b": "bbaab"}
BINARY_PISOT_PAIR = {"a": "aab", "b": "ba"}


# exact integer matrix oracles, written apart from the library
def mat_vec(a, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def mat_power(a, k):
    n = len(a)
    result = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(k):
        result = [[sum(r[m] * a[m][j] for m in range(n)) for j in range(n)] for r in result]
    return result


def criterion(number, name, budget=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            failed = True
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                if budget is not None:
                    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s budget"
                failed = False
            finally:
                elapsed = time.perf_counter() - start
                status = "FAIL" if failed else "PASS"
                extra = f", budget {budget}s" if budget is not None else ""
                print(f"\ncriterion {number} [{name}]: {status} ({elapsed:.2f}s{extra})")

        return wrapper

    return deco


def _random_substitution(rng):
    n = rng.randrange(2, 5)
    letters = "abcd"[:n]
    return Substitution(
        {
            a: "".join(rng.choice(letters) for _ in range(rng.randrange(1, 5)))
            for a in letters
        }
    )


@criterion(1, "classification table", budget=1.0)
def test_criterion_1_classification_table():
    fib = classify(Substitution(FIBONACCI))
    assert fib.primitive and fib.irreducible and fib.pisot_type == PISOT_YES
    assert fib.irreducible_pisot
    assert abs(fib.dilation - 1.6180339887) <= 1e-9

    tri = classify(Substitution(TRIBONACCI))
    assert tri.irreducible_pisot
    assert abs(tri.dilation - 1.8392867552) <= 1e-9

    tm = classify(Substitution(THUE_MORSE))
    assert tm.primitive and not tm.irreducible

    uniform = classify(Substitution(UNIFORM_PAIR))
    assert sorted(b.modulus for b in uniform.root_bounds) == [2.0, 4.0]
    assert all(b.exact for b in uniform.root_bounds)
    assert not uniform.irreducible

    two_scale = classify(Substitution(TWO_SCALE))
    assert sorted(b.modulus for b in two_scale.root_bounds) == [1.0, 4.0]
    unit = [b for b in two_scale.root_bounds if b.modulus == 1.0]
    assert unit[0].exact and unit[0].status_vs_unit_circle() == "on-circle"
    assert two_scale.pisot_type == PISOT_NO


@criterion(2, "matrix-abelianization commutation, 500 random cases")
def test_criterion_2_commutation():
    rng = random.Random(20120430)
    for _ in range(500):
        sub = _random_substitution(rng)
        n = len(sub.alphabet)
        u = Word(sub.alphabet, [rng.randrange(n) for _ in range(rng.randrange(0, 7))])
        k = rng.randrange(1, 7)
        matrix_power = mat_power(abelianization_matrix(sub), k)
        expected = tuple(mat_vec(matrix_power, abelianize(u)))
        assert abelianize(apply_substitution(sub, u, k)) == expected


@criterion(3, "numeration round trip and prefix law", budget=10.0)
def test_criterion_3_round_trip():
    systems = [
        (Substitution(FIBONACCI), "a"),
        (Substitution(TRIBONACCI), "a"),
        (Substitution(TWO_SCALE), "a"),
        (Substitution(TWO_SCALE), "b"),
    ]
    for sub, seed in systems:
        graph = build_prefix_graph(sub)
        for value in range(10_001):
            path = encode_integer(graph, seed, value)
            assert decode_path(graph, path, materialize=False).value == value
        stream = FixedPointStream(sub, seed)
        prefix = stream.prefix_text(1001)
        for value in range(1001):
            realized = decode_path(graph, encode_integer(graph, seed, value)).realized
            assert str(realized) == prefix[:value]

    # published anchors: the first nine Fibonacci paths, and both paths for 5
    fib_graph = build_prefix_graph(Substitution(FIBONACCI))
    listing = [format_path(p) for p in enumerate_paths(fib_graph, "a", 9)]
    assert listing == [
        "a:", "a: a", "a: a.e", "a: a.e.e", "a: a.e.a",
        "a: a.e.e.e", "a: a.e.e.a", "a: a.e.a.e", "a: a.e.e.e.e",
    ]
    two = Substitution(TWO_SCALE)
    graph2 = build_prefix_graph(two)
    from_a = decode_path(graph2, encode_integer(graph2, "a", 5))
    from_b = decode_path(graph2, encode_integer(graph2, "b", 5))
    assert str(from_a.realized) == "aabaa" and [str(u) for u in encode_integer(graph2, "a", 5).labels] == ["a", "aa"]
    assert str(from_b.realized) == "bbaab"
    assert from_a.terminal == from_b.terminal == "b"


@criterion(4, "Zeckendorf and base-k degenerations")
def test_criterion_4_degenerations():
    # greedy Zeckendorf oracle: largest Fibonacci numbers first, never adjacent
    fibs = [1, 2]
    while fibs[-1] < 1001:
        fibs.append(fibs[-1] + fibs[-2])

    def zeckendorf(n):
        out = []
        idx = len(fibs) - 1
        while n > 0:
            while fibs[idx] > n:
                idx -= 1
            out.append(fibs[idx])
            n -= fibs[idx]
            idx -= 2  # skip the adjacent Fibonacci number
        return out

    fib_graph = build_prefix_graph(Substitution(FIBONACCI))
    for value in range(1001):
        path = encode_integer(fib_graph, "a", value)
        n = len(path.labels) - 1
        used = [
            (n - i, fib_graph.weight(n - i, label))
            for i, label in enumerate(path.labels)
            if len(label)
        ]
        weights = [w for _, w in used]
        assert all(w in fibs for w in weights)
        levels = [lvl for lvl, _ in used]
        assert all(a - b >= 2 for a, b in zip(levels, levels[1:]))
        assert sum(weights) == value
        assert sorted(weights, reverse=True) == zeckendorf(value)

    # uniform length-2 substitution: label lengths are the binary digits
    tm_graph = build_prefix_graph(Substitution(THUE_MORSE))
    for value in range(1001):
        path = encode_integer(tm_graph, "a", value)
        digits = [len(label) for label in path.labels]
        expected = [int(d) for d in bin(value)[2:]] if value else []
        assert digits == expected


@criterion(5, "coincidence suite", budget=5.0)
def test_criterion_5_coincidence():
    pair = Substitution(BINARY_PISOT_PAIR)
    x = FixedPointStream(pair, "a")
    y = FixedPointStream(pair, "b")
    verdict = find_strong_coincidence(x, y, 100_000)
    w = verdict.witness
    assert (w.index, w.letter, str(w.prefix_x), str(w.prefix_y)) == (3, "a", "aab", "baa")
    assert validate_witness(x, y, w)

    tm = Substitution(THUE_MORSE)
    tx = FixedPointStream(tm, "a")
    ty = FixedPointStream(tm, "b")
    assert find_strong_coincidence(tx, ty, 100_000).witness is None
    assert all(p != q for p, q in zip(tx.prefix_indices(100_000), ty.prefix_indices(100_000)))

    uniform = Substitution(UNIFORM_PAIR)
    ux = FixedPointStream(uniform, "a")
    uy = FixedPointStream(uniform, "b")
    assert find_strong_coincidence(ux, uy, 100_000).witness is None
    evidence = proximality_scan(ux, uy, 4, 64)
    assert any(pos <= 16 and length >= 4 for pos, length in evidence.windows)


@criterion(6, "finite-sums construction and search")
def test_criterion_6_ip():
    pair = Substitution(BINARY_PISOT_PAIR)
    x = FixedPointStream(pair, "a")
    y = FixedPointStream(pair, "b")
    witness = find_strong_coincidence(x, y, 1000).witness
    family = build_fs_family(pair, witness, 2)
    assert family.generators[0] == 23
    # n_1 computed exactly from matrix powers; re-derive independently here
    sigma_matrix = mat_power(abelianization_matrix(pair), 2)
    s_counts = abelianize(family.provenance.prefix_x)
    r_counts = abelianize(family.provenance.connector)
    expected_n1 = sum(mat_vec(mat_power(sigma_matrix, 3), s_counts)) + sum(
        mat_vec(mat_power(sigma_matrix, 2), r_counts)
    )
    assert family.generators[1] == expected_n1 == 1097

    horizon = sum(family.generators) + 2
    verification = verify_finite_sums(family, build_prefix_graph(pair), "a", "b", horizon, 2)
    assert verification.verdict == "pass"

    fib = Substitution(FIBONACCI)
    fx = FixedPointStream(fib, "a")
    focc = occurrences(fx, "a", 20)
    searched = search_ip_witness(focc, 3)
    assert searched is not None and len(searched.generators) == 3
    check = verify_finite_sums(searched, build_prefix_graph(fib), "a", "a", 20, 3)
    assert check.verdict == "pass"
    assert len(check.failures) == 0 and len(check.unchecked) == 0


@criterion(7, "strand suite", budget=30.0)
def test_criterion_7_strands():
    rng = random.Random(424242)
    named = [Substitution(FIBONACCI), Substitution(TRIBONACCI), Substitution(BINARY_PISOT_PAIR)]
    cases = 0
    while cases < 200:
        sub = named[cases % len(named)]
        n = len(sub.alphabet)
        w = Word(sub.alphabet, [rng.randrange(n) for _ in range(rng.randrange(0, 51))])
        strand = build_strand(w)
        assert substitute_strand(sub, strand).word == apply_substitution(sub, w)
        cases += 1

    for rules, origin in ((FIBONACCI, (3, -2)), (TRIBONACCI, (3, -2, 1))):
        sub = Substitution(rules)
        splitting = invariant_splitting(classify(sub), abelianization_matrix(sub))
        seed = build_strand(sub.alphabet.word("a"), origin=origin)
        scan = stability_scan(sub, seed, 10, splitting)
        assert max(scan.envelopes) == max(scan.envelopes[: scan.burn_in + 1])
        assert scan.conjugation_max_error <= 1e-6

    pair = Substitution(BINARY_PISOT_PAIR)
    splitting = invariant_splitting(classify(pair), abelianization_matrix(pair))
    x = FixedPointStream(pair, "a")
    y = FixedPointStream(pair, "b")
    small = delta_value_set(x, y, 10_000)
    large = delta_value_set(x, y, 100_000)
    assert len(small) == len(large) and small == large
    norm_small = max_stable_delta_norm(splitting, x, y, 10_000)
    norm_large = max_stable_delta_norm(splitting, x, y, 100_000)
    assert norm_large == norm_small


@criterion(8, "power invariance")
def test_criterion_8_power_invariance():
    pair = Substitution(BINARY_PISOT_PAIR)
    reference = None
    for m in (1, 2, 3):
        powered = pair.power(m)
        x = FixedPointStream(powered, "a")
        y = FixedPointStream(powered, "b")
        w = find_strong_coincidence(x, y, 10_000).witness
        key = (w.index, w.letter, str(w.prefix_x), str(w.prefix_y))
        reference = reference or key
        assert key == reference

    tm = Substitution(THUE_MORSE)
    for m in (1, 2, 3):
        powered = tm.power(m)
        tx = FixedPointStream(powered, "a")
        ty = FixedPointStream(powered, "b")
        assert find_strong_coincidence(tx, ty, 10_000).witness is None

    for rules in (FIBONACCI, TRIBONACCI, BINARY_PISOT_PAIR, THUE_MORSE):
        sub = Substitution(rules)
        base = classify(sub)
        base_key = (base.primitive, base.irreducible, base.pisot_type, base.irreducible_pisot)
        for m in (2, 3):
            rep = classify(sub.power(m))
            assert (rep.primitive, rep.irreducible, rep.pisot_type, rep.irreducible_pisot) == base_key
