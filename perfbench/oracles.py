"""Independent expected outputs for every benchmarked command.

Nothing here imports substrand. Expansion is plain repeated rule
application on strings, scans are recomputed with numpy, numeration paths
come from a separate greedy encoder over exact image lengths, and the
algebra comes from sympy and numpy. A mismatch raises :class:`CheckFailed`.
"""

from __future__ import annotations

import json
import math
import re
from itertools import combinations
from pathlib import Path

import numpy as np

# Documented CLI constants (see the substrand.cli module docstring).
CLI_DEFAULT_HORIZON = 100_000
DEEP_HORIZON_CAP = 10_000_000
EMBED_POWER_CAP = 8


class CheckFailed(Exception):
    """A command's output disagrees with the oracle."""


def swap(word: str) -> str:
    return word.translate(str.maketrans("ab", "ba"))


def expand(rules: dict[str, str], seed: str, length: int) -> str:
    """Prefix of the fixed point at ``seed`` by repeated rule application."""
    table = str.maketrans(rules)
    word = seed
    while len(word) < length:
        word = word.translate(table)
    return word[:length]


def apply_power(rules: dict[str, str], word: str, m: int) -> str:
    table = str.maketrans(rules)
    for _ in range(m):
        word = word.translate(table)
    return word


def count_matrix(rules: dict[str, str]) -> list[list[int]]:
    """Entry (i, j) counts letter i in the image of letter j."""
    letters = list(rules)
    return [[rules[b].count(a) for b in letters] for a in letters]


def image_lengths(rules: dict[str, str], levels: int) -> list[dict[str, int]]:
    """``lengths[k][c] == len(sigma^k(c))`` for k = 0..levels."""
    lengths = [{c: 1 for c in rules}]
    for _ in range(levels):
        prev = lengths[-1]
        lengths.append({c: sum(prev[d] for d in img) for c, img in rules.items()})
    return lengths


def dilation(rules: dict[str, str]) -> float:
    """Largest root modulus of the count matrix (numpy eigenvalues)."""
    return float(max(abs(np.linalg.eigvals(np.array(count_matrix(rules), dtype=float)))))


def is_primitive(m: list[list[int]]) -> int | None:
    """Least k with M^k entrywise positive (Wielandt bound), else None."""
    n = len(m)
    base = [[e > 0 for e in row] for row in m]
    pattern = base
    for k in range(1, (n - 1) ** 2 + 2):
        if all(all(row) for row in pattern):
            return k
        pattern = [[any(pattern[i][t] and base[t][j] for t in range(n)) for j in range(n)]
                   for i in range(n)]
    return None


# ---------------------------------------------------------------------------
# algebra (sympy for exact factorization, numpy for root moduli)


def _charpoly(m):
    import sympy

    x = sympy.Symbol("x")
    return x, sympy.Matrix(m).charpoly(x).as_expr()


def _factors(m):
    import sympy

    x, p = _charpoly(m)
    _, factors = sympy.factor_list(p, x)
    coeffs = [int(c) for c in reversed(sympy.Poly(p, x).all_coeffs())]
    return coeffs, [(sympy.Poly(f, x).degree(), e) for f, e in factors]


def reducible_without_rational_root(m) -> bool:
    _, factors = _factors(m)
    squarefree = all(e == 1 for _, e in factors)
    return squarefree and len(factors) > 1 and all(d > 1 for d, _ in factors)


def kronecker_tries(m) -> int:
    """Candidates an exhaustive Kronecker search tries up to its first factor.

    The search order is the plain one: factor degree d = 2, 3, ..., deg/2;
    sample points 0, 1, -1, 2, ...; at each point the divisors k, n/k of
    |p(point)| by increasing k, each taken as +v then -v; the last point
    varies fastest. A candidate is a factor when its values at the points
    are those of a monic divisor of p.
    """
    import sympy

    x, p = _charpoly(m)
    _, irreducible = sympy.factor_list(p, x)
    parts = [f for f, e in irreducible for _ in range(e)]
    divisors = {sympy.Poly(math.prod(c), x).monic()
                for r in range(1, len(parts)) for c in combinations(parts, r)}
    points = [0, 1, -1, 2, -2, 3, -3, 4]
    tries = 0
    for d in range(2, len(m) // 2 + 1):
        lists = []
        for t in points[:d + 1]:
            n = abs(int(p.subs(x, t)))
            mags = [v for k in range(1, math.isqrt(n) + 1) if n % k == 0 for v in (k, n // k)]
            lists.append([v for mag in mags for v in (mag, -mag)])
        hits = []
        for f in (f for f in divisors if f.degree() == d):
            index = 0
            for t, values in zip(points, lists):
                index = index * len(values) + values.index(int(f.eval(t)))
            hits.append(index)
        if hits:
            return tries + min(hits) + 1
        tries += math.prod(len(values) for values in lists)
    return tries


def _moduli(coeffs: list[int]) -> list[float]:
    return sorted((abs(r) for r in np.roots([float(c) for c in reversed(coeffs)])), reverse=True)


def clear_of_unit_circle(m, margin: float = 1e-3) -> bool:
    coeffs, _ = _factors(m)
    return all(abs(r - 1) > margin for r in _moduli(coeffs))


def expected_classification(rules: dict[str, str]) -> dict:
    m = count_matrix(rules)
    exponent = is_primitive(m)
    coeffs, factors = _factors(m)
    irreducible = len(factors) == 1 and factors[0][1] == 1
    moduli = _moduli(coeffs)
    pisot = "Yes" if moduli[0] > 1 and all(r < 1 for r in moduli[1:]) else "No"
    return {
        "primitive": exponent is not None,
        "primitivity_exponent": exponent,
        "characteristic_polynomial": coeffs,
        "irreducible": irreducible,
        "pisot_type": pisot,
        "irreducible_pisot": irreducible and pisot == "Yes",
        "dilation": moduli[0],
    }


# ---------------------------------------------------------------------------
# scans


def _letters(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8)


def _deltas(x: str, y: str) -> np.ndarray:
    """d[k] = #a(x[:k]) - #a(y[:k]) for k = 0..len-1 (binary alphabets)."""
    step = (_letters(x) == ord("a")).astype(np.int64) - (_letters(y) == ord("a"))
    return np.concatenate(([0], np.cumsum(step[:-1])))


def least_witness(rules: dict[str, str], a: str, b: str, horizon: int) -> int | None:
    """Least k in [1, horizon) with abelian-equal prefixes and x_k == y_k."""
    x, y = expand(rules, a, horizon), expand(rules, b, horizon)
    d = _deltas(x, y)
    hits = np.nonzero((d[1:] == 0) & (_letters(x)[1:] == _letters(y)[1:]))[0]
    return int(hits[0]) + 1 if len(hits) else None


def embedding_power(rules: dict[str, str], k: int) -> int | None:
    """Least m <= 8 with s c a prefix of sigma^m(a), t c of sigma^m(b), and b
    occurring in sigma^m(c), for the witness (s, t, c) at index k."""
    x, y = expand(rules, "a", k + 1), expand(rules, "b", k + 1)
    c = x[k]
    for m in range(1, EMBED_POWER_CAP + 1):
        if (apply_power(rules, "a", m).startswith(x)
                and apply_power(rules, "b", m).startswith(y[:k] + c)
                and "b" in apply_power(rules, c, m)):
            return m
    return None


def coincide_payload(rules: dict[str, str], start: int) -> dict:
    """``coincide --deep``: the horizon doubles from ``start`` up to the cap
    until a witness lies below it."""
    for limit in (start, DEEP_HORIZON_CAP):
        x, y = expand(rules, "a", limit), expand(rules, "b", limit)
        d = _deltas(x, y)
        hits = np.nonzero((d[1:] == 0) & (_letters(x)[1:] == _letters(y)[1:]))[0]
        if len(hits):
            break
    horizon = start
    while horizon < DEEP_HORIZON_CAP and not (len(hits) and hits[0] + 1 < horizon):
        horizon = min(2 * horizon, DEEP_HORIZON_CAP)
    entry = {"seeds": ["a", "b"], "period": 1, "horizon": horizon}
    if len(hits):
        k = int(hits[0]) + 1
        entry["witness"] = {"k": k, "c": x[k], "s": x[:k], "t": y[:k]}
    else:
        values, first = np.unique(d, return_index=True)
        entry["witness"] = None
        entry["delta_values"] = sorted([int(v), -int(v)] for v in values)
        entry["stabilized"] = bool(first.max() < horizon // 2)
    return {"pairs": [entry]}


def proximal_payload(rules: dict[str, str], horizon: int, min_window: int = 4) -> dict:
    eq = _letters(expand(rules, "a", horizon)) == _letters(expand(rules, "b", horizon))
    edges = np.diff(np.concatenate(([0], eq.astype(np.int8), [0])))
    starts, ends = np.nonzero(edges == 1)[0], np.nonzero(edges == -1)[0]
    lengths = ends - starts
    windows = [[int(s), int(n)] for s, n in zip(starts, lengths) if n >= min_window]
    per = {}
    for h in sorted({max(1, horizon // 4), max(1, horizon // 2), horizon}):
        inside = starts < h
        per[h] = int((np.minimum(ends[inside], h) - starts[inside]).max(initial=0))
    full, half = per[horizon], per[max(1, horizon // 2)]
    verdict = "EvidenceFor" if full >= min_window and full > half else "NoneFound"
    return {
        "windows": windows,
        "horizon": horizon,
        "min_window": min_window,
        "max_length_per_horizon": {str(h): m for h, m in per.items()},
        "verdict": verdict,
    }


def gaps_payload(rules: dict[str, str], horizon: int, factor: str = "b") -> dict:
    text = expand(rules, "a", horizon)
    pos = [m.start() for m in re.finditer(f"(?={re.escape(factor)})", text)]
    gap = None
    if len(pos) >= 2:
        gap = max([pos[0]] + [q - p for p, q in zip(pos, pos[1:])])
    return {"factor": factor, "horizon": horizon, "count": len(pos), "max_return_gap": gap}


# ---------------------------------------------------------------------------
# numeration: greedy paths over exact image lengths


class Encoder:
    """Greedy Dumont-Thomas paths: at each level the longest proper image
    prefix whose expanded length still fits in the remaining value."""

    def __init__(self, rules: dict[str, str]):
        self.rules = rules
        self.lengths = image_lengths(rules, 4)

    def _grow(self, levels: int) -> None:
        while len(self.lengths) <= levels:
            prev = self.lengths[-1]
            self.lengths.append({c: sum(prev[d] for d in img) for c, img in self.rules.items()})

    def path(self, start: str, value: int) -> tuple[list[str], str]:
        """(labels, terminal letter) of the path at ``start`` with this value."""
        if value == 0:
            return [], start
        levels = 0
        while True:
            self._grow(levels + 1)
            if self.lengths[levels + 1][start] > value:
                break
            levels += 1
        vertex, remaining, labels = start, value, []
        for level in range(levels, -1, -1):
            image, weights = self.rules[vertex], self.lengths[level]
            take = 0
            while take < len(image) - 1 and weights[image[take]] <= remaining:
                remaining -= weights[image[take]]
                take += 1
            labels.append(image[:take])
            vertex = image[take]
        if remaining:
            raise CheckFailed(f"oracle encoder left {remaining} of {value}")
        return labels, vertex

    def render(self, start: str, value: int) -> tuple[str, str]:
        labels, terminal = self.path(start, value)
        body = ".".join(u if u else "e" for u in labels)
        return (f"{start}: {body}" if body else f"{start}:"), terminal


def sync_payload(rules: dict[str, str], lo: int, hi: int) -> dict:
    enc = Encoder(rules)
    entries, run, max_run, previous = [], 0, 0, None
    for v in range(lo, hi + 1):
        pa, ta = enc.render("a", v)
        pb, tb = enc.render("b", v)
        if ta == tb:
            entries.append({"value": v, "terminal": ta, "path_a": pa, "path_b": pb})
            run = run + 1 if previous == v - 1 else 1
            previous = v
            max_run = max(max_run, run)
    return {"start_a": "a", "start_b": "b", "range": [lo, hi],
            "synchronizing": entries, "max_run": max_run}


def list_payload(rules: dict[str, str], count: int) -> dict:
    enc = Encoder(rules)
    return {"start": "a", "paths": [enc.render("a", k)[0] for k in range(count)]}


# ---------------------------------------------------------------------------
# finite sums


def check_ipset(rules: dict[str, str], horizon: int, out: dict) -> None:
    k = least_witness(rules, "a", "b", horizon)
    power = embedding_power(rules, k) if k is not None else None
    if power is None:
        raise CheckFailed("oracle finds no embeddable witness")
    x, y = expand(rules, "a", k + 1), expand(rules, "b", k)
    s, c = x[:k], x[k]
    image_c = apply_power(rules, c, power)
    connector = image_c[:image_c.index("b")]
    sigma = {a: apply_power(rules, a, power) for a in rules}
    lengths = image_lengths(sigma, 2 * 4)
    size = lambda word, lvl: sum(lengths[lvl][ch] for ch in word)  # noqa: E731
    generators = [size(s, 2 * i + 1) + size(connector, 2 * i) for i in range(4)]
    prov = out["family"]["provenance"]
    got = (out["family"]["generators"], prov["power"], prov["prefix_x"], prov["prefix_y"],
           prov["shared_letter"], prov["connector"], prov["target_letter"], out["factor"])
    want = (generators, power, s, y, c, connector, "b", "b")
    if got != want:
        raise CheckFailed(f"ipset family {got} != oracle {want}")
    text = expand(rules, "a", horizon)
    failures, unchecked = [], []
    for n in range(1, 5):
        for subset in combinations(generators, n):
            total = sum(subset)
            if total > horizon - 1:
                unchecked.append([list(subset), total])
            elif text[total] != "b":
                failures.append([list(subset), total])
    verdict = "fail" if failures else "incomplete" if unchecked else "pass"
    got = (out["failures"], out["unchecked"], out["verdict"], out["horizon"])
    if got != (failures, unchecked, verdict, horizon):
        raise CheckFailed(f"ipset subset sums {got} != oracle")


# ---------------------------------------------------------------------------
# strands


def strand_counts(rules: dict[str, str], word: str, iterations: int) -> tuple[int, int]:
    """(CSV rows over all iterations, segments of the final strand)."""
    lengths = image_lengths(rules, iterations)
    per = [sum(lengths[k][ch] for ch in word) for k in range(iterations + 1)]
    return sum(per), per[-1]


def strand_seed_word(rules: dict[str, str], iterations: int, rows: int) -> str:
    """Prefix of the fixed point at a whose strand export has about ``rows`` rows."""
    text = expand(rules, "a", 4 * rows)
    lo, hi = 1, len(text)
    while lo < hi:
        mid = (lo + hi) // 2
        if strand_counts(rules, text[:mid], iterations)[0] < rows:
            lo = mid + 1
        else:
            hi = mid
    return text[:lo]


def check_strand(exp: dict, out: dict) -> None:
    rows, final = strand_counts(exp["rules"], exp["word"], exp["iterations"])
    got = (out["csv_rows"], out["svg_points"], out["iterations"], len(out["envelopes"]))
    if got != (rows, final + 1, exp["iterations"], exp["iterations"] + 1):
        raise CheckFailed(f"strand counts {got} != oracle {(rows, final + 1)}")
    with open(out["csv"]) as fh:
        csv_lines = sum(1 for _ in fh)
    circles = Path(out["svg"]).read_text().count("<circle ")
    if (csv_lines, circles) != (rows + 1, final + 1):
        raise CheckFailed(f"strand files hold {csv_lines} lines, {circles} points")


# ---------------------------------------------------------------------------


def check(kind: str, exp: dict, rc: int, stdout: str, stderr: str) -> None:
    """Check one command's result: exit 0 and the oracle's answer."""
    if rc != 0:
        raise CheckFailed(f"{kind} exited {rc}: {stderr[-300:]}")
    try:
        out = json.loads(stdout)
    except ValueError as exc:
        raise CheckFailed(f"{kind} printed invalid JSON: {exc}") from exc
    rules = exp.get("rules")
    if kind == "coincide_deep":
        _same(kind, out, coincide_payload(rules, exp["start"]))
    elif kind == "proximal":
        _same(kind, out, proximal_payload(rules, exp["horizon"]))
    elif kind == "gaps":
        _same(kind, out, gaps_payload(rules, exp["horizon"]))
    elif kind in ("sync", "sync_far"):
        _same(kind, out, sync_payload(rules, exp["lo"], exp["hi"]))
    elif kind == "list":
        _same(kind, out, list_payload(rules, exp["count"]))
    elif kind == "ipset":
        check_ipset(rules, exp["horizon"], out)
    elif kind == "strand":
        check_strand(exp, out)
    elif kind == "classify":
        want = expected_classification(rules)
        got = {key: out.get(key) for key in want if key != "dilation"}
        if got != {key: v for key, v in want.items() if key != "dilation"}:
            raise CheckFailed(f"classify {got} != oracle {want}")
        if not math.isclose(out["dilation"]["value"], want["dilation"], rel_tol=1e-9):
            raise CheckFailed(f"dilation {out['dilation']} != oracle {want['dilation']}")
    else:
        raise ValueError(kind)


def _same(kind: str, got: dict, want: dict) -> None:
    if got != want:
        diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        raise CheckFailed(f"{kind} output differs from the oracle in {diff}")
