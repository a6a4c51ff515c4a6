"""Seeded inputs and command plans for the three benchmark workloads.

Every input is drawn from ``random.Random(seed)`` and filtered with the
independent checks in :mod:`oracles`, so one seed always yields the same
rule files and arguments. Families are kept narrow (fixed image lengths,
a narrow band of dilations) because the benchmark compares medians across
seeds: two seeds should ask for about the same amount of work.

Each workload runs only its own three command kinds; the end-to-end
metrics (see README.md) are the same on every workload. No input is one
the CLI refuses, so no command of a run fails.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import oracles

WORKLOADS = {
    "deep-scan": ("coincide_deep", "proximal", "gaps"),
    "numeration": ("sync", "sync_far", "list"),
    "witness-geometry": ("ipset", "strand", "classify"),
}

# Input sizes; SMALL (``--smoke``) keeps the same commands on small inputs.
FULL = {
    "coincide_start": None,      # the CLI default horizon (10**5), doubled to 10**7
    "scan_horizon": 1_000_000,   # proximal and gaps
    "sync_count": 10_000,        # values 0..sync_count
    "far_offset": 10**9,
    "far_count": 2_500,
    "list_count": 10_000,
    "ipset_horizon": 1_000_000,
    "strand_rows": 40_000,       # CSV rows over all iterations
    # The three with 6 letters take the exhaustive Kronecker search. Seven
    # letters (degree 7, beyond the search's cap) are refused by the CLI,
    # and a workload must not fail, so they are left out.
    "classify_letters": (4, 5, 6, 6, 6),
}
SMALL = {
    "coincide_start": 2_000,
    "scan_horizon": 20_000,
    "sync_count": 300,
    "far_offset": 10**9,
    "far_count": 100,
    "list_count": 300,
    "ipset_horizon": 20_000,
    "strand_rows": 400,
    "classify_letters": (4, 6),
}
STRAND_ITERATIONS = 8
# Band of candidates the Kronecker search tries on a classify input of
# degree 5 or 6 before it meets a factor: at 0.15-0.3 ms per candidate on a
# 2-core Xeon VM, up to 0.2 s of search at degree 5 and 0.4-1 s at degree
# 6, on top of the start-up. Outside a band the cost ranges from nothing to
# minutes, which no fixed-length run can hold.
KRONECKER_TRIES = {5: (0, 700), 6: (2_500, 3_500)}
WITNESS_LIMIT = 1000


@dataclass
class Command:
    """One CLI invocation: ``argv`` follows ``python -m substrand``."""

    id: str
    kind: str
    argv: list[str]
    expect: dict                      # what the oracle needs to check the output
    files: list[str] = field(default_factory=list)   # files the command writes


def rules_text(rules: dict[str, str]) -> str:
    return "".join(f"{a} -> {img}\n" for a, img in rules.items())


# ---------------------------------------------------------------------------
# seeded families


def _balanced_word(rng: random.Random, first: str, length: int) -> str:
    rest = list(first * (length // 2 - 1) + oracles.swap(first) * (length // 2))
    rng.shuffle(rest)
    return first + "".join(rest)


def complement_pair(rng: random.Random) -> dict[str, str]:
    """sigma(b) is sigma(a) with a and b swapped: the fixed points at a and b
    disagree at every index, so no strong-coincidence witness exists."""
    w = _balanced_word(rng, "a", 6)
    return {"a": w, "b": oracles.swap(w)}


def uniform_pair(rng: random.Random) -> dict[str, str]:
    """Length-6 balanced images with fixed points at a and b that agree on
    windows of length >= 4 about 700..1100 times below 2*10^5. Outside that
    band the ``proximal`` output, and its cost, differs by a factor of 100."""
    while True:
        ra, rb = _balanced_word(rng, "a", 6), _balanced_word(rng, "b", 6)
        windows = len(oracles.proximal_payload({"a": ra, "b": rb}, 200_000)["windows"])
        if 700 <= windows <= 1100:
            return {"a": ra, "b": rb}


# Binary pairs with two seeds, dilation 2.41..2.73 and about 2/3 of the
# values synchronizing; outside this band the cost per value varies by
# tens of percent (path length and output size).
NUMERATION_PAIRS = (
    ("aab", "ba"), ("abb", "ba"), ("abbb", "ba"),
    ("ab", "bba"), ("ab", "baa"), ("ab", "baaa"),
)


def numeration_pair(rng: random.Random) -> dict[str, str]:
    a, b = rng.choice(NUMERATION_PAIRS)
    return {"a": a, "b": b}


def witness_pair(rng: random.Random) -> dict[str, str]:
    """Binary primitive pair whose least strong-coincidence witness lies
    below WITNESS_LIMIT and which ``ipset`` can embed at power <= 8.

    Dilation 2.2..3.5 and a share of b (the factor ``ipset`` scans for) of
    0.45..0.6 keep the expansion and occurrence work alike across seeds.
    """
    while True:
        ra = "a" + "".join(rng.choice("ab") for _ in range(rng.randint(2, 4)))
        rb = "b" + "".join(rng.choice("ab") for _ in range(rng.randint(1, 2)))
        rules = {"a": ra, "b": rb}
        if not 2.2 <= oracles.dilation(rules) <= 3.5:
            continue
        if not 0.45 <= oracles.expand(rules, "a", 20_000).count("b") / 20_000 <= 0.6:
            continue
        k = oracles.least_witness(rules, "a", "b", WITNESS_LIMIT)
        if k is not None and oracles.embedding_power(rules, k) is not None:
            return rules


def pisot_substitution(rng: random.Random) -> dict[str, str]:
    """Three-letter primitive substitution with irreducible Pisot cubic
    characteristic polynomial and dilation in [1.75, 2.05]."""
    letters = "abc"
    while True:
        rules = {c: "".join(rng.choice(letters) for _ in range(rng.randint(1, 3))) for c in letters}
        if len(rules["a"]) < 2 or rules["a"][0] != "a":
            continue
        if not oracles.is_primitive(oracles.count_matrix(rules)):
            continue
        verdict = oracles.expected_classification(rules)
        if verdict["irreducible_pisot"] and 1.75 <= verdict["dilation"] <= 2.05:
            return rules


def reducible_substitution(rng: random.Random, letters: int) -> dict[str, str]:
    """Primitive substitution on 4..7 letters whose characteristic polynomial
    is reducible with no rational root.

    The count matrix commutes with swapping the paired letters:
    M = [[X, Y, z], [Y, X, z], [w, w, t]] with p pairs and f = letters - 2p
    fixed letters, so det(xI - M) = det(xI - (X - Y)) * det(xI - S) where
    S = [[X + Y, z], [2w, t]]. With seven letters the degree is 7, beyond
    the exhaustive-search cap, and classification refuses the input; with
    five or six, the exhaustive search runs and the candidates it tries are
    held in KRONECKER_TRIES.
    """
    p, f = divmod(letters, 2)
    names = "abcdefg"[:letters]
    while True:
        X = [[rng.randint(0, 2) for _ in range(p)] for _ in range(p)]
        Y = [[rng.randint(0, 2) for _ in range(p)] for _ in range(p)]
        z = [rng.randint(1, 2) for _ in range(p)] if f else []
        w = [rng.randint(1, 2) for _ in range(p)] if f else []
        t = [rng.randint(1, 2)] if f else []
        m = [X[i] + Y[i] + z[i:i + 1] for i in range(p)]
        m += [Y[i] + X[i] + z[i:i + 1] for i in range(p)]
        m += [w + w + t] if f else []
        if not oracles.is_primitive(m):
            continue
        if not oracles.reducible_without_rational_root(m):
            continue
        if not oracles.clear_of_unit_circle(m):
            continue
        lo, hi = KRONECKER_TRIES.get(letters, (0, math.inf))
        if not lo <= oracles.kronecker_tries(m) <= hi:
            continue
        rules = {}
        for j, letter in enumerate(names):
            image = [names[i] for i in range(letters) for _ in range(m[i][j])]
            rng.shuffle(image)
            rules[letter] = "".join(image)
        return rules


# ---------------------------------------------------------------------------
# plans


def build(workload: str, seed: int, work: Path, smoke: bool = False) -> list[Command]:
    """Write the seeded rule files into ``work`` and return the workload's
    commands in a fixed order; ``smoke`` gives them the small inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    size = SMALL if smoke else FULL
    files: dict[str, dict[str, str]] = {}

    def spec(name: str, make) -> str:
        if name not in files:
            files[name] = make()
            (work / f"{name}.sub").write_text(rules_text(files[name]))
        return str(work / f"{name}.sub")

    return [cmd for kind in WORKLOADS[workload]
            for cmd in _commands(kind, size, rng, spec, files, work)]


def _commands(kind, size, rng, spec, files, work) -> list[Command]:
    if kind == "coincide_deep":
        path, rules = spec("complement", lambda: complement_pair(rng)), "complement"
        argv = ["coincide", path, "--seeds", "a,b", "--deep"]
        if size["coincide_start"] is not None:
            argv += ["--horizon", str(size["coincide_start"])]
        start = size["coincide_start"] or oracles.CLI_DEFAULT_HORIZON
        return [Command("coincide_deep", kind, argv,
                        {"rules": files[rules], "start": start})]
    if kind in ("proximal", "gaps"):
        path = spec("uniform", lambda: uniform_pair(rng))
        h = size["scan_horizon"]
        if kind == "proximal":
            argv = ["proximal", path, "--seeds", "a,b", "--horizon", str(h), "--min-window", "4"]
        else:
            argv = ["gaps", path, "--seed", "a", "--factor", "b", "--horizon", str(h)]
        return [Command(kind, kind, argv, {"rules": files["uniform"], "horizon": h})]
    if kind in ("sync", "sync_far", "list"):
        path = spec("numeration", lambda: numeration_pair(rng))
        rules = files["numeration"]
        if kind == "list":
            n = size["list_count"]
            argv = ["num", "list", path, "--start", "a", "--count", str(n)]
            return [Command(kind, kind, argv, {"rules": rules, "count": n})]
        if kind == "sync":
            lo, n = 0, size["sync_count"]
        else:
            lo, n = size["far_offset"] + rng.randrange(10**6), size["far_count"]
        argv = ["num", "sync", path, "--starts", "a,b", "--range", f"{lo}:{lo + n}"]
        return [Command(kind, kind, argv, {"rules": rules, "lo": lo, "hi": lo + n})]
    if kind == "ipset":
        path = spec("witness", lambda: witness_pair(rng))
        h = size["ipset_horizon"]
        argv = ["ipset", "verify", path, "--seeds", "a,b", "--count", "4",
                "--max-subset-size", "4", "--horizon", str(h)]
        return [Command(kind, kind, argv, {"rules": files["witness"], "horizon": h})]
    if kind == "strand":
        path = spec("pisot", lambda: pisot_substitution(rng))
        rules = files["pisot"]
        word = oracles.strand_seed_word(rules, STRAND_ITERATIONS, size["strand_rows"])
        csv, svg = str(work / "strand.csv"), str(work / "strand.svg")
        argv = ["strand", "export", path, "--iterations", str(STRAND_ITERATIONS),
                "--seed-word", word, "--csv", csv, "--svg", svg]
        return [Command(kind, kind, argv,
                        {"rules": rules, "word": word, "iterations": STRAND_ITERATIONS},
                        files=[csv, svg])]
    if kind == "classify":
        out = []
        for i, n in enumerate(size["classify_letters"]):
            path = spec(f"reducible{i}", lambda n=n: reducible_substitution(rng, n))
            out.append(Command(f"classify{i}", kind, ["classify", path],
                               {"rules": files[f"reducible{i}"]}))
        return out
    raise ValueError(kind)
