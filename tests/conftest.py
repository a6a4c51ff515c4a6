import pytest

from substrand import Substitution, apply_substitution


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


def oracle_prefix(sub, seed, length, period=1):
    """Expansion oracle independent of FixedPointStream: iterate plain
    substitution application on the seed letter until long enough."""
    word = sub.alphabet.word(seed)
    while len(word) < length:
        word = apply_substitution(sub, word, period)
    return str(word)[:length]


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
