import hashlib
import json
import os
import random
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest

import substrand
from substrand import FixedPointStream, InputError, Substitution, cli, coincidence, numeration, points, strand
from substrand.cli import MATERIALIZE_CAP, NUMERATION_CAP, main
from substrand.words import parse_substitution_spec
from conftest import (
    oracle_deep_coincide,
    oracle_max_return_gap,
    oracle_occurrences,
    oracle_prefix,
    oracle_scan,
    spy_letters_written,
)


@pytest.fixture
def fib_spec(tmp_path):
    p = tmp_path / "fib.sub"
    p.write_text("# Fibonacci\na -> ab\nb -> a\n")
    return str(p)


@pytest.fixture
def pair_spec(tmp_path):
    p = tmp_path / "pair.sub"
    p.write_text("a -> aab\nb -> ba\n")
    return str(p)


@pytest.fixture
def tm_spec(tmp_path):
    p = tmp_path / "tm.sub"
    p.write_text("a -> ab\nb -> ba\n")
    return str(p)


@pytest.fixture
def uniform_spec(tmp_path):
    p = tmp_path / "uniform.sub"
    p.write_text("a -> aaab\nb -> bbab\n")
    return str(p)


def _run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_parse_substitution_spec_happy_path():
    sub = parse_substitution_spec("  a ->  a b\n# note\nb->a\n")
    assert sub.rules() == {"a": "ab", "b": "a"}


def test_parse_substitution_spec_errors():
    with pytest.raises(InputError, match="duplicate"):
        parse_substitution_spec("a -> ab\na -> ba\n")
    with pytest.raises(InputError, match="undeclared"):
        parse_substitution_spec("a -> ax\n")
    with pytest.raises(InputError, match="line 2"):
        parse_substitution_spec("a -> ab\nnonsense line\n")
    with pytest.raises(InputError, match="no rules"):
        parse_substitution_spec("# only a comment\n")
    with pytest.raises(InputError, match="one letter"):
        parse_substitution_spec("ab -> a\n")


def test_classify_command(capsys, fib_spec):
    code, payload = _run_json(capsys, ["classify", fib_spec])
    assert code == 0
    assert payload["characteristic_polynomial"] == [-1, -1, 1]
    assert payload["pisot_type"] == "Yes"
    assert payload["irreducible_pisot"] is True


def test_classify_decides_a_reducible_seven_letter_substitution(capsys, tmp_path):
    # M = [[X, Y, z], [Y, X, z], [w, w, t]] with three letter pairs: the
    # characteristic polynomial has degree 7 and factors with no rational root
    spec = tmp_path / "seven.sub"
    spec.write_text("a -> cgc\nb -> faggc\nc -> bbggf\nd -> ffg\ne -> ggdfc\nf -> geceg\ng -> cgeabfd\n")
    code, payload = _run_json(capsys, ["classify", str(spec)])
    assert code == 0
    assert len(payload["characteristic_polynomial"]) == 8
    assert payload["primitive"] is True
    assert payload["irreducible"] is False
    assert payload["irreducible_pisot"] is False


def test_expand_command_text(capsys, fib_spec):
    code = main(["expand", fib_spec, "--seed", "a", "--length", "13", "--format", "text"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "abaababaabaab"


def test_occurrences_text_one_per_line(capsys, fib_spec):
    code = main(
        ["occurrences", fib_spec, "--seed", "a", "--factor", "b",
         "--horizon", "13", "--format", "text"]
    )
    assert code == 0
    assert capsys.readouterr().out.split() == ["1", "4", "6", "9", "12"]


def test_gaps_command(capsys, fib_spec):
    code, payload = _run_json(capsys, ["gaps", fib_spec, "--seed", "a", "--factor", "b", "--horizon", "13"])
    assert code == 0
    assert payload["max_return_gap"] == 3


def test_num_encode_decode_round_trip(capsys, fib_spec):
    code = main(["num", "encode", fib_spec, "--start", "a", "7", "--format", "text"])
    assert code == 0
    rendered = capsys.readouterr().out.strip()
    assert rendered == "a: a.e.a.e"
    code, payload = _run_json(capsys, ["num", "decode", fib_spec, rendered])
    assert code == 0
    assert payload["value"] == 7

    rng = random.Random(1)
    for value in [rng.randrange(0, 5000) for _ in range(12)]:
        main(["num", "encode", fib_spec, "--start", "a", str(value), "--format", "text"])
        text = capsys.readouterr().out.strip()
        code, payload = _run_json(capsys, ["num", "decode", fib_spec, text])
        assert code == 0 and payload["value"] == value


def test_num_list_and_graph(capsys, fib_spec):
    code, payload = _run_json(capsys, ["num", "list", fib_spec, "--start", "a", "--count", "5"])
    assert code == 0
    assert payload["paths"] == ["a:", "a: a", "a: a.e", "a: a.e.e", "a: a.e.a"]
    code, payload = _run_json(capsys, ["num", "graph", fib_spec])
    assert code == 0
    assert payload["vertices"] == ["a", "b"]
    assert len(payload["edges"]) == 3


def test_num_weights_csv(capsys, fib_spec):
    code = main(["num", "graph", fib_spec, "--weights", "3"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "letter,prefix,level,weight"
    assert "a,a,3,5" in lines  # third image of 'a' has length 5


def test_num_weights_rejects_negative_levels(capsys, fib_spec):
    assert main(["num", "graph", fib_spec, "--weights", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --weights must be >= 0, got -1\n"


def test_num_weights_cap_exits_2_before_any_weight(capsys, monkeypatch, fib_spec):
    """On Fibonacci each level adds 2 digits bounded by |sigma^(k+1)(a)| and one
    by |sigma^(k+1)(b)|: 3 + 3 + 3 + 3 digits for levels 0-3, then 2*2 + 1 for
    13 and 8."""
    def refuse(*args, **kwargs):
        raise AssertionError("computed a weight past the cap")

    with monkeypatch.context() as mp:
        mp.setattr(Substitution, "image_length", refuse)
        assert main(["num", "graph", fib_spec, "--weights", "1000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --weights 1000000 exceeds the cap of {cli.WEIGHTS_CAP} digits (")
        monkeypatch.setattr(cli, "WEIGHTS_CAP", 16)
        assert main(["num", "graph", fib_spec, "--weights", "4"]) == 2
        assert capsys.readouterr().err == "error: --weights 4 exceeds the cap of 16 digits (17 by level 4)\n"
    monkeypatch.setattr(cli, "WEIGHTS_CAP", 17)
    assert main(["num", "graph", fib_spec, "--weights", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "b,,4,0"


def test_num_sync(capsys, tmp_path):
    p = tmp_path / "two.sub"
    p.write_text("a -> aab\nb -> bbaab\n")
    code, payload = _run_json(capsys, ["num", "sync", str(p), "--starts", "a,b", "--range", "0:10"])
    assert code == 0
    values = [e["value"] for e in payload["synchronizing"]]
    assert 5 in values and 0 not in values


def test_coincide_exit_codes(capsys, pair_spec, tm_spec):
    code, payload = _run_json(
        capsys, ["coincide", pair_spec, "--seeds", "a,b", "--horizon", "1000", "--expect-witness"]
    )
    assert code == 0
    assert payload["pairs"][0]["witness"]["k"] == 3
    code, payload = _run_json(
        capsys, ["coincide", tm_spec, "--horizon", "1000", "--expect-witness"]
    )
    assert code == 1
    assert payload["pairs"][0]["witness"] is None
    assert payload["pairs"][0]["stabilized"] is True


def test_coincide_all_pairs_default(capsys, tm_spec, fib_spec):
    # with --seeds omitted every pair of periodic seeds is analyzed
    code, payload = _run_json(capsys, ["coincide", tm_spec, "--horizon", "500"])
    assert code == 0
    assert [entry["seeds"] for entry in payload["pairs"]] == [["a", "b"]]
    # a single-seed substitution has no pairs; expecting a witness then fails
    code, payload = _run_json(capsys, ["coincide", fib_spec, "--expect-witness"])
    assert code == 1 and payload["pairs"] == []


def test_coincide_deep_doubles_horizon(capsys, pair_spec):
    code, payload = _run_json(
        capsys, ["coincide", pair_spec, "--seeds", "a,b", "--horizon", "2"]
    )
    assert code == 0 and payload["pairs"][0]["witness"] is None
    code, payload = _run_json(
        capsys, ["coincide", pair_spec, "--seeds", "a,b", "--horizon", "2", "--deep"]
    )
    assert code == 0 and payload["pairs"][0]["witness"]["k"] == 3


@pytest.mark.parametrize("cells", [8, coincidence._BLOCK_CELLS])
def test_coincide_deep_expands_only_to_the_block_of_the_witness(monkeypatch, pair_spec, cells):
    # the closure decides the pair, and the descent reads no letter of the streams
    monkeypatch.setattr(coincidence, "_BLOCK_CELLS", cells)
    requested = []
    ensure = FixedPointStream._ensure

    def spy(self, length):
        requested.append(length)
        return ensure(self, length)

    monkeypatch.setattr(FixedPointStream, "_ensure", spy)
    sub = parse_substitution_spec(Path(pair_spec).read_text())
    verdict, _ = cli._coincide_pair(sub, "a", "b", 2, True)
    assert verdict.witness.index == 3 and verdict.horizon == 4 and requested == []
    # with the closure capped at its first pair, the scan at the cap stops in
    # its first block, and so does the expansion
    monkeypatch.setattr(coincidence, "CLOSURE_MAX_PAIRS", 0)
    assert cli._coincide_pair(sub, "a", "b", 2, True) == (verdict, 1)
    assert 0 < max(requested) <= cells // 2 + 1 < cli.MATERIALIZE_CAP // 10


def test_coincide_deep_without_witness_scans_once_to_the_cap(capsys, monkeypatch, tmp_path):
    # the fixed points of a complement pair differ at every index: no witness
    p = tmp_path / "complement.sub"
    p.write_text("a -> abbaab\nb -> baabba\n")
    monkeypatch.setattr(cli, "MATERIALIZE_CAP", 5000)
    # 32 rows a block: the first block of the scan at the cap holds every D value
    monkeypatch.setattr(coincidence, "_BLOCK_CELLS", 64)
    horizons, requested = [], []
    scan = coincidence.find_strong_coincidence
    ensure = FixedPointStream._ensure

    def spy(x, y, horizon):
        horizons.append(horizon)
        return scan(x, y, horizon)

    def ensure_spy(self, length):
        requested.append(length)
        return ensure(self, length)

    monkeypatch.setattr(coincidence, "find_strong_coincidence", spy)
    monkeypatch.setattr(FixedPointStream, "_ensure", ensure_spy)
    argv = ["coincide", str(p), "--seeds", "a,b", "--deep", "--expect-witness", "--horizon"]
    code, payload = _run_json(capsys, argv + ["100"])
    # one call, at the cap; the closure proves there is no witness, and the
    # report is read off the closure without expanding either stream
    assert code == 1 and horizons == [5000]
    assert requested == []
    sub = parse_substitution_spec(p.read_text())
    expected = oracle_deep_coincide(FixedPointStream(sub, "a"), FixedPointStream(sub, "b"), 100, 5000)
    assert expected.horizon == 5000 and expected.stabilized is True
    assert payload["pairs"] == [{"seeds": ["a", "b"], "period": 1, **expected.to_json_dict()}]

    horizons.clear()
    code, payload = _run_json(capsys, argv + ["5000"])
    assert code == 1 and horizons == [5000]
    assert main(argv + ["0"]) == 2
    assert capsys.readouterr().err == "error: horizon must be >= 1\n"


@pytest.mark.parametrize("horizon", ["0", "-5"])
def test_coincide_refuses_a_horizon_below_1_on_every_rule_file(capsys, fib_spec, tm_spec, horizon):
    # Fibonacci has one periodic seed and so no pair: the refusal cannot wait for a pair
    for spec in (fib_spec, tm_spec):
        for flags in ([], ["--deep"], ["--expect-witness"]):
            assert main(["coincide", spec, "--horizon", horizon, *flags]) == 2
            assert capsys.readouterr() == ("", "error: horizon must be >= 1\n")


def test_coincide_without_witness_reads_no_letter(capsys, monkeypatch, tm_spec):
    # Thue-Morse: the closure proves there is no witness, and the first index of
    # each D value is read off it, so neither stream writes a letter
    written = spy_letters_written(monkeypatch)
    code, payload = _run_json(capsys, ["coincide", tm_spec, "--seeds", "a,b", "--horizon", "10000000"])
    assert code == 0 and payload["pairs"] == [
        {"seeds": ["a", "b"], "period": 1, "horizon": 10_000_000, "witness": None,
         "delta_values": [[-1, 1], [0, 0], [1, -1]], "stabilized": True}]
    assert written == {}


def test_coincide_on_polynomial_growth_writes_each_letter_once(capsys, monkeypatch, tmp_path):
    # sigma^m(a) = a c^m: each expansion step gains one letter, and a stream
    # that rewrote its prefix per step would write about horizon^2 / 2 letters
    p = tmp_path / "poly.sub"
    p.write_text("a -> ac\nb -> bc\nc -> c\n")
    horizon = 20_000
    sub = parse_substitution_spec(p.read_text())
    xs, ys = ([seed] + [2] * (horizon - 1) for seed in (0, 1))
    for seed, letters in zip("ab", (xs, ys)):
        assert oracle_prefix(sub, seed, 300) == "".join("abc"[i] for i in letters[:300])
    witness, first_seen = oracle_scan(xs, ys, horizon, 3, stop_at_witness=False)
    assert witness is None
    expected = {"seeds": ["a", "b"], "period": 1, "horizon": horizon, "witness": None,
                "delta_values": sorted(map(list, first_seen)),
                "stabilized": max(first_seen.values()) < horizon // 2}
    written = spy_letters_written(monkeypatch)
    code, payload = _run_json(capsys, ["coincide", str(p), "--seeds", "a,b", "--horizon", str(horizon)])
    assert code == 0 and payload["pairs"] == [expected]
    # the buffers stop at the horizon; past them, only the unwritten rest of one image is held
    assert len(written) == 2
    assert all(s._filled == horizon and count == horizon + len(s._tail) <= horizon + max(s._lengths)
               for s, count in written.items())


def test_coincide_on_polynomial_growth_at_the_default_horizon_takes_seconds(tmp_path):
    # the pair has no cut, so the scan reads 10^5 letters of each point; a
    # stream that wrote one letter per round took about 3 s here
    p = tmp_path / "poly.sub"
    p.write_text("a -> ac\nb -> bc\nc -> c\n")
    sub = parse_substitution_spec(p.read_text())
    horizon = cli.DEFAULT_HORIZON
    xs, ys = ([seed] + [2] * (horizon - 1) for seed in (0, 1))  # sigma^m(a) = a c^m
    for seed, letters in zip("ab", (xs, ys)):
        assert oracle_prefix(sub, seed, 300) == "".join("abc"[i] for i in letters[:300])
    witness, first_seen = oracle_scan(xs, ys, horizon, 3, stop_at_witness=False)
    assert witness is None
    expected = {"seeds": ["a", "b"], "period": 1, "horizon": horizon, "witness": None,
                "delta_values": sorted(map(list, first_seen)),
                "stabilized": max(first_seen.values()) < horizon // 2}
    env = {k: v for k, v in os.environ.items() if k != "SUBSTRAND_HORIZON"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-m", "substrand", "coincide", str(p), "--seeds", "a,b"],
                            capture_output=True, text=True, env=env, check=True)
    elapsed = time.perf_counter() - start
    assert json.loads(result.stdout)["pairs"] == [expected]
    assert elapsed < 2.0, f"coincide took {elapsed:.2f} s"


def test_coincide_deep_falls_back_to_the_scan_when_the_closure_is_indeterminate(capsys, tmp_path):
    # not Pisot: the first cut lies past the closure's length cap, and the
    # least witness past the default horizon
    p = tmp_path / "late.sub"
    p.write_text("a -> bbabc\nb -> aabb\nc -> ac\n")
    sub = parse_substitution_spec(p.read_text())
    closure = coincidence.balanced_pair_closure(FixedPointStream(sub, "a"), FixedPointStream(sub, "b"))
    assert closure.verdict == coincidence.INDETERMINATE and closure.delta_values is None
    code, payload = _run_json(capsys, ["coincide", str(p), "--seeds", "a,b", "--deep"])
    assert code == 0
    assert payload["pairs"][0]["witness"]["k"] == 216934 and payload["pairs"][0]["horizon"] == 400_000


def test_coincide_deep_on_seeds_of_coprime_periods_matches_the_full_scan(capsys, monkeypatch, tmp_path):
    # first letters run through a 5-cycle and a 7-cycle: the images of sigma^35
    # have 2**35 letters, but the two points share no letter, so no cut exists
    p = tmp_path / "cycles.sub"
    p.write_text("".join(f"{c} -> {cycle[(i + 1) % len(cycle)]}{c}\n"
                         for cycle in ("abcde", "fghijkl") for i, c in enumerate(cycle)))
    monkeypatch.setattr(cli, "MATERIALIZE_CAP", 5000)
    sub = parse_substitution_spec(p.read_text())
    x, y = FixedPointStream(sub, "a"), FixedPointStream(sub, "f")
    assert (x.period, y.period) == (5, 7)
    closure = coincidence.balanced_pair_closure(x, y)
    assert closure.verdict == coincidence.INDETERMINATE and closure.pairs == ()
    expected = coincidence.find_strong_coincidence(FixedPointStream(sub, "a"), FixedPointStream(sub, "f"), 5000)
    assert not expected.found
    code, payload = _run_json(capsys, ["coincide", str(p), "--seeds", "a,f", "--deep", "--horizon", "100"])
    assert code == 0 and payload["pairs"] == [{"seeds": ["a", "f"], "period": 35, **expected.to_json_dict()}]


def test_coincide_deep_on_an_indeterminate_pair_matches_the_full_scan(capsys, monkeypatch, uniform_spec):
    monkeypatch.setattr(cli, "MATERIALIZE_CAP", 20_000)
    sub = parse_substitution_spec(Path(uniform_spec).read_text())
    closure = coincidence.balanced_pair_closure(FixedPointStream(sub, "a"), FixedPointStream(sub, "b"))
    assert closure.verdict == coincidence.INDETERMINATE
    expected = coincidence.find_strong_coincidence(FixedPointStream(sub, "a"), FixedPointStream(sub, "b"), 20_000)
    assert not expected.found
    code, payload = _run_json(capsys, ["coincide", uniform_spec, "--seeds", "a,b", "--deep", "--horizon", "100"])
    assert code == 0 and payload["pairs"] == [{"seeds": ["a", "b"], "period": 1, **expected.to_json_dict()}]


# sha256 of the stdout of `coincide SPEC --seeds a,b` and of the same with
# --deep, as printed when every pair was answered by the prefix-difference scan
_COINCIDE_STDOUT_SHA256 = {
    "thue-morse": ("a -> ab\nb -> ba\n",
                   "8ba24aa11ce23c3363fb834f38c75f758c7d2df176ca9eb307923068f4b8951c",
                   "e7924b1b448be00d7390458d0b1aa829e4ebff9363d37dda0b89bbe06c99a272"),
    "complement": ("a -> abbaab\nb -> baabba\n",
                   "8ba24aa11ce23c3363fb834f38c75f758c7d2df176ca9eb307923068f4b8951c",
                   "e7924b1b448be00d7390458d0b1aa829e4ebff9363d37dda0b89bbe06c99a272"),
    "aab-ba": ("a -> aab\nb -> ba\n",
               "0b1787e697c3681795c7bf8709a954199ca47202d1a1551edb7e574d0ee4a7e0",
               "0b1787e697c3681795c7bf8709a954199ca47202d1a1551edb7e574d0ee4a7e0"),
    "late-witness": ("a -> bbabc\nb -> aabb\nc -> ac\n",
                     "cebb83b82a296a6974512986ada9b80e5530c6f2803d890be0bbb19e31919f8f",
                     "e1ed362da702004145b9fc36ef453aadf3cdf8a35b446980d007f226f66e4dfc"),
}


@pytest.mark.parametrize("name", list(_COINCIDE_STDOUT_SHA256))
def test_coincide_stdout_is_byte_identical(capsys, tmp_path, name):
    rules, plain, deep = _COINCIDE_STDOUT_SHA256[name]
    spec = tmp_path / "pair.sub"
    spec.write_text(rules)
    for extra, expected in (([], plain), (["--deep"], deep)):
        assert main(["coincide", str(spec), "--seeds", "a,b", *extra]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected, extra


# sha256 of the stdout of each numeration command below, as printed when
# every value took its own greedy walk and `num list` a recursive enumerator
_NUM_COMMANDS = (
    ["sync", "--starts", "a,b", "--range", "0:3000"],
    ["sync", "--starts", "a,b", "--range", "1000000017:1000000516"],
    ["list", "--start", "a", "--count", "3000"],
)
_NUM_STDOUT_SHA256 = {
    "aab-ba": ("a -> aab\nb -> ba\n", (
        "c5cacc47d9076ff0df5c9f8d32e5f0584418f031a57d64c6b0a82e2fab044a8d",
        "e8081dd9c94f45a519c293ae81b06d4efc8861706ccd6fbb5ac209ea24082c00",
        "5ac826d5fe35d418ea23afb9484472d09ec3f35bc88ed674d57f23cc84be61cb",
    )),
    "ab-baa": ("a -> ab\nb -> baa\n", (
        "91ecd2c9b71950f07f1f541e2ad9240bfc8365fa5a1b5c545743146f78721fee",
        "d6363e81de4a249dea1c14d87ae55a1b2fd21ee9635ec99dde3aa872562ca49f",
        "bb5cc53265f59570b87536e88a1f922b87bbffce2cdc783e52d288cd99421319",
    )),
}


@pytest.mark.parametrize("name", list(_NUM_STDOUT_SHA256))
def test_num_stdout_is_byte_identical(capsys, tmp_path, name):
    rules, digests = _NUM_STDOUT_SHA256[name]
    spec = tmp_path / "pair.sub"
    spec.write_text(rules)
    for (command, *flags), expected in zip(_NUM_COMMANDS, digests):
        assert main(["num", command, str(spec), *flags]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected, flags


def test_num_names_the_least_period_of_a_seed(capsys, tmp_path):
    spec = tmp_path / "tm.sub"
    spec.write_text("a -> ba\nb -> ab\nc -> c\n")
    # the library takes sigma^p for a seed of period p, and names p when given sigma
    sub = Substitution({"a": "ba", "b": "ab", "c": "c"})
    with pytest.raises(InputError, match="^'a' is not a period-1 seed of this substitution; its least period is 2$"):
        numeration.enumerate_paths(sub, "a", 5)
    # the command passes sigma^2 itself
    assert main(["num", "list", str(spec), "--start", "a", "--count", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["paths"] == ["a:", "a: a"]
    # a letter that is no seed gets the message every command gives it
    assert main(["num", "list", str(spec), "--start", "c"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: 'c' is not a periodic seed: no power of the substitution maps it "
                            "to a longer word that starts with it\n")


@pytest.fixture
def swap_spec(tmp_path):
    """a -> ba, b -> ab: a and b are seeds of period 2, x = abbabaab..., y = baababba..."""
    p = tmp_path / "swap.sub"
    p.write_text("a -> ba\nb -> ab\n")
    return str(p)


def test_num_commands_take_seeds_of_period_two(capsys, swap_spec):
    x = oracle_prefix(Substitution({"a": "ba", "b": "ab"}), "a", 64, period=2)
    code, payload = _run_json(capsys, ["num", "list", swap_spec, "--start", "a", "--count", "64"])
    assert code == 0
    for value, rendered in enumerate(payload["paths"]):
        code, decoded = _run_json(capsys, ["num", "decode", swap_spec, rendered])
        # a path of sigma^2's automaton: its value is its place, its realized word a prefix of x
        assert code == 0 and decoded["value"] == value and decoded["realized"] == x[:value]
        assert decoded["terminal"] == x[value]
    for value in (0, 1, 7, 63, 1000, 10**6 + 3):
        assert main(["num", "encode", swap_spec, "--start", "b", str(value), "--format", "text"]) == 0
        rendered = capsys.readouterr().out.strip()
        assert main(["num", "decode", swap_spec, rendered, "--format", "text"]) == 0
        assert capsys.readouterr().out == f"{value}\n"
    # 'b' labels the edge a -> a of sigma, not of sigma^2 = (a -> abba, b -> baab): no prefix of x
    assert main(["num", "decode", swap_spec, "a: b"]) == 2
    assert capsys.readouterr() == ("", "error: no edge labeled 'b' at vertex 'a'\n")


def test_num_sync_takes_the_lcm_of_the_periods(capsys, tmp_path):
    # a is a seed of period 1 and b of period 2: sync reads sigma^2
    spec = tmp_path / "mixed.sub"
    spec.write_text("a -> abb\nb -> cb\nc -> bab\n")
    sub = Substitution({"a": "abb", "b": "cb", "c": "bab"})
    x, y = oracle_prefix(sub, "a", 301), oracle_prefix(sub, "b", 301, period=2)
    code, payload = _run_json(capsys, ["num", "sync", str(spec), "--starts", "a,b", "--range", "0:300"])
    assert code == 0
    assert [e["value"] for e in payload["synchronizing"]] == [v for v in range(301) if x[v] == y[v]]
    assert [e["terminal"] for e in payload["synchronizing"]] == [x[v] for v in range(301) if x[v] == y[v]]


def test_seed_power_cap_exits_2_before_sigma_p_is_built(capsys, monkeypatch, tmp_path):
    # first letters run through a 5-cycle and a 7-cycle, each image two letters long:
    # every letter's image under sigma^p has 2**p letters
    spec = tmp_path / "cycles.sub"
    spec.write_text("".join(f"{c} -> {cycle[(i + 1) % len(cycle)]}{c}\n"
                            for cycle in ("abcde", "fghijkl") for i, c in enumerate(cycle)))

    def refuse(self, m):
        raise AssertionError(f"built sigma^{m} past the cap")

    with monkeypatch.context() as mp:
        mp.setattr(Substitution, "power", refuse)
        # sync reads sigma^35, the lcm of the periods: 12 * 2**35 letters
        assert main(["num", "sync", str(spec), "--starts", "a,f", "--range", "0:10"]) == 2
        assert capsys.readouterr() == (
            "", f"error: image length of sigma^35 {12 * 2**35} exceeds the cap of 10000000 letters\n")
        # sigma^5 holds 12 * 32 = 384 letters
        mp.setattr(cli, "MATERIALIZE_CAP", 383)
        for argv in (["num", "encode", str(spec), "--start", "a", "5"],
                     ["num", "list", str(spec), "--start", "a"],
                     ["num", "decode", str(spec), "a:"],
                     ["ipset", "verify", str(spec), "--generators", "1", "--seed", "a", "--factor", "a"]):
            assert main(argv) == 2, argv
            assert capsys.readouterr() == ("", "error: image length of sigma^5 384 exceeds the cap of 383 letters\n")
    # at the cap the paths are sigma^5's, and decode back to prefixes of the point
    monkeypatch.setattr(cli, "MATERIALIZE_CAP", 384)
    x = oracle_prefix(parse_substitution_spec(spec.read_text()), "a", 40, period=5)
    code, payload = _run_json(capsys, ["num", "list", str(spec), "--start", "a", "--count", "40"])
    assert code == 0
    for value, rendered in enumerate(payload["paths"]):
        code, decoded = _run_json(capsys, ["num", "decode", str(spec), rendered])
        assert code == 0 and decoded["value"] == value and decoded["realized"] == x[:value]


def test_num_graph_cap_exits_2_before_any_edge(capsys, monkeypatch, tmp_path):
    # the labels of the images (length 5 and 1) hold 5 * 4 / 2 = 10 letters
    spec = tmp_path / "long.sub"
    spec.write_text("a -> abbbb\nb -> a\n")

    def refuse(*args, **kwargs):
        raise AssertionError("wrote an edge past the cap")

    with monkeypatch.context() as mp:
        mp.setattr(numeration, "prefix_automaton", refuse)
        mp.setattr(cli, "MATERIALIZE_CAP", 9)
        assert main(["num", "graph", str(spec)]) == 2
        assert capsys.readouterr() == ("", "error: label length 10 exceeds the cap of 9 letters\n")
    monkeypatch.setattr(cli, "MATERIALIZE_CAP", 10)
    code, payload = _run_json(capsys, ["num", "graph", str(spec)])
    assert code == 0 and sum(len(e["label"]) for e in payload["edges"]) == 10


def test_proximal_exit_codes(capsys, uniform_spec, tm_spec):
    code, payload = _run_json(
        capsys,
        ["proximal", uniform_spec, "--seeds", "a,b", "--horizon", "1024", "--expect-evidence"],
    )
    assert code == 0 and payload["verdict"] == "EvidenceFor"
    code, payload = _run_json(
        capsys,
        ["proximal", tm_spec, "--seeds", "a,b", "--horizon", "1024", "--expect-evidence"],
    )
    assert code == 1 and payload["verdict"] == "NoneFound"


def test_ipset_pipeline(capsys, pair_spec):
    code, payload = _run_json(
        capsys,
        ["ipset", "build", pair_spec, "--seeds", "a,b", "--count", "2", "--horizon", "1000"],
    )
    assert code == 0
    assert payload["family"]["generators"] == [23, 1097]

    code, payload = _run_json(
        capsys,
        ["ipset", "verify", pair_spec, "--seeds", "a,b", "--count", "2",
         "--max-subset-size", "2", "--horizon", "2000", "--expect-pass"],
    )
    assert code == 0 and payload["verdict"] == "pass"

    code, payload = _run_json(
        capsys,
        ["ipset", "verify", pair_spec, "--generators", "23,1097", "--seed", "a",
         "--factor", "b", "--horizon", "2000", "--max-subset-size", "2", "--expect-pass"],
    )
    assert code == 0 and payload["verdict"] == "pass"

    code, payload = _run_json(
        capsys,
        ["ipset", "search", pair_spec, "--seed", "a", "--factor", "b",
         "--horizon", "50", "--depth", "2", "--expect-found"],
    )
    assert code == 0 and payload["found"] is True


def test_ipset_search_not_found(capsys, fib_spec):
    code, payload = _run_json(
        capsys,
        ["ipset", "search", fib_spec, "--seed", "a", "--factor", "bb",
         "--horizon", "100", "--depth", "2", "--expect-found"],
    )
    assert code == 1 and payload["found"] is False


def test_strand_scan_and_export(capsys, fib_spec, tmp_path):
    code, payload = _run_json(capsys, ["strand", "scan", fib_spec, "--iterations", "6"])
    assert code == 0
    assert len(payload["envelopes"]) == 7
    assert payload["conjugation_max_error"] < 1e-6

    csv_path = tmp_path / "scan.csv"
    svg_path = tmp_path / "scan.svg"
    code, payload = _run_json(
        capsys,
        ["strand", "export", fib_spec, "--iterations", "6",
         "--csv", str(csv_path), "--svg", str(svg_path)],
    )
    assert code == 0
    assert csv_path.read_text().startswith("iteration,")
    assert svg_path.read_text().startswith("<svg ")


@pytest.mark.parametrize("command", [["strand", "scan"], ["strand", "export", "--csv", "{tmp}/out.csv"]])
@pytest.mark.parametrize("iterations", [60, 10**6])
def test_strand_cap_exits_2_before_inflating(capsys, monkeypatch, tmp_path, fib_spec, command, iterations):
    """|sigma^29(a)| = 1346269 is the first Fibonacci length past the cap; the
    count stops there, however many iterations were asked for."""
    def refuse(*args, **kwargs):
        raise AssertionError("inflated past the cap")

    monkeypatch.setattr(strand, "substitute_strand", refuse)
    argv = [a.format(tmp=tmp_path) for a in command]
    assert main([*argv[:2], fib_spec, *argv[2:], "--iterations", str(iterations)]) == 2
    assert capsys.readouterr().err == (
        f"error: --iterations {iterations} exceeds the cap of {cli.STRAND_CAP} segments "
        "(1346269 after 29 inflations)\n"
    )
    assert not (tmp_path / "out.csv").exists()


def test_strand_cap_boundary(capsys, monkeypatch, fib_spec):
    """After 6 inflations the Fibonacci strand of a has |sigma^6(a)| = 21 segments."""
    monkeypatch.setattr(cli, "STRAND_CAP", 21)
    code, payload = _run_json(capsys, ["strand", "scan", fib_spec, "--iterations", "6"])
    assert code == 0 and len(payload["envelopes"]) == 7
    monkeypatch.setattr(cli, "STRAND_CAP", 20)
    assert main(["strand", "scan", fib_spec, "--iterations", "6"]) == 2
    assert capsys.readouterr().err == (
        "error: --iterations 6 exceeds the cap of 20 segments (21 after 6 inflations)\n"
    )


def test_strand_scan_rejects_non_pisot(capsys, tm_spec):
    code = main(["strand", "scan", tm_spec])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_input_error_exit_codes(capsys, tmp_path):
    missing = str(tmp_path / "missing.sub")
    assert main(["classify", missing]) == 2
    bad = tmp_path / "bad.sub"
    bad.write_text("a -> ax\n")
    assert main(["classify", str(bad)]) == 2
    capsys.readouterr()


def test_an_unreadable_rule_file_is_reported_before_the_flags(capsys, tmp_path):
    # main reads the rule file before any handler checks its own flags
    missing = str(tmp_path / "missing.sub")
    for argv in (["strand", "export", missing],
                 ["expand", missing, "--seed", "a", "--length", str(MATERIALIZE_CAP + 1)],
                 ["num", "graph", missing, "--weights", "-1"]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read spec file {missing!r}: ")


def test_a_rule_file_that_is_not_utf8_is_an_unreadable_file(capsys, tmp_path):
    bad = tmp_path / "latin1.sub"
    bad.write_bytes(b"a -> ab\nb -> \xff\n")
    for argv in (["classify", str(bad)], ["expand", str(bad), "--seed", "a", "--length", "5"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read spec file {str(bad)!r}: ") and "decode" in err
    # as a child: one error line, no traceback
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run([sys.executable, "-m", "substrand", "classify", str(bad)], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert result.returncode == 2 and "Traceback" not in result.stderr
    assert result.stderr.startswith("error: cannot read spec file ") and result.stderr.count("\n") == 1
    # UTF-8 letters outside ASCII read the same under any locale
    utf8 = tmp_path / "utf8.sub"
    utf8.write_bytes("é -> éø\nø -> é\n".encode("utf-8"))
    assert main(["expand", str(utf8), "--seed", "é", "--length", "5", "--format", "text"]) == 0
    assert capsys.readouterr().out == "éøééø\n"


def test_output_file_option(tmp_path, fib_spec):
    out = tmp_path / "report.json"
    code = main(["classify", fib_spec, "--output", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["pisot_type"] == "Yes"


def test_unknown_arguments_exit_2(capsys):
    assert main(["classify"]) == 2
    assert main(["nonsense"]) == 2
    capsys.readouterr()


def test_materialize_cap_exits_2_before_expanding(capsys, monkeypatch, fib_spec):
    def refuse(*args, **kwargs):
        raise AssertionError("materialized past the cap")

    over = str(MATERIALIZE_CAP + 1)
    with monkeypatch.context() as mp:
        mp.setattr(FixedPointStream, "_ensure", refuse)
        mp.setattr(numeration, "decode_path", refuse)
        assert main(["expand", fib_spec, "--seed", "a", "--length", over]) == 2
        assert capsys.readouterr().err == f"error: --length {over} exceeds the cap of {MATERIALIZE_CAP} letters\n"
        assert main(["num", "decode", fib_spec, "a: a.e.a", "--max-realize", over]) == 2
        assert capsys.readouterr().err == f"error: --max-realize {over} exceeds the cap of {MATERIALIZE_CAP} letters\n"
    code, payload = _run_json(
        capsys, ["num", "decode", fib_spec, "a: a.e.a", "--max-realize", str(MATERIALIZE_CAP)]
    )
    assert code == 0 and payload["value"] == 4


@pytest.mark.parametrize("command", [
    ["occurrences", "--seed", "a", "--factor", "b"],
    ["gaps", "--seed", "a", "--factor", "b"],
    ["proximal", "--seeds", "a,b"],
    ["ipset", "search", "--seed", "a", "--factor", "b"],
    ["coincide", "--seeds", "a,b"],
    ["ipset", "build", "--seeds", "a,b"],
])
def test_scan_horizon_cap_exits_2_before_expanding(capsys, monkeypatch, pair_spec, command):
    def refuse(*args, **kwargs):
        raise AssertionError("expanded past the cap")

    argv = [*command, pair_spec]
    over = str(MATERIALIZE_CAP + 1)
    monkeypatch.setattr(FixedPointStream, "_ensure", refuse)
    assert main(argv + ["--horizon", over]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --horizon {over} exceeds the cap of {MATERIALIZE_CAP} letters\n"
    monkeypatch.setenv("SUBSTRAND_HORIZON", over)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: SUBSTRAND_HORIZON {over} exceeds the cap of {MATERIALIZE_CAP} letters\n"


def test_positions_print_as_json_and_text_across_blocks(capsys, monkeypatch, pair_spec):
    monkeypatch.setattr(points, "_BLOCK_CELLS", 7)
    horizon = 500
    text = oracle_prefix(parse_substitution_spec("a -> aab\nb -> ba\n"), "a", horizon)
    for factor in ("b", "ab", "aab"):
        expected = list(oracle_occurrences(text, factor))
        argv = [pair_spec, "--seed", "a", "--factor", factor, "--horizon", str(horizon)]
        code, payload = _run_json(capsys, ["occurrences", *argv])
        assert code == 0 and payload["positions"] == expected
        assert main(["occurrences", *argv, "--format", "text"]) == 0
        assert capsys.readouterr().out == "".join(f"{p}\n" for p in expected)
        code, payload = _run_json(capsys, ["gaps", *argv])
        assert code == 0
        assert payload == {"factor": factor, "horizon": horizon, "count": len(expected),
                           "max_return_gap": oracle_max_return_gap(expected)}


def test_num_decode_rejects_negative_max_realize(capsys, fib_spec):
    assert main(["num", "decode", fib_spec, "a: a.e.a", "--max-realize", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --max-realize must be >= 0, got -1\n"
    code, payload = _run_json(capsys, ["num", "decode", fib_spec, "a: a.e.a", "--max-realize", "0"])
    assert code == 0 and payload["value"] == 4 and payload["realized"] is None


def test_ipset_verify_reads_letters_without_a_position_set(capsys, monkeypatch, tmp_path, pair_spec):
    """Without --horizon all 15 sums of the abb/ba pair, up to 772299000, are
    checked, and no stream is read: the closure gives the witness; an explicit
    --horizon still leaves the sums past it unchecked."""
    lengths = []
    prefix_indices = FixedPointStream.prefix_indices

    def spy(self, length):
        lengths.append(length)
        return prefix_indices(self, length)

    def refuse(*args, **kwargs):
        raise AssertionError("built a position set")

    monkeypatch.setattr(FixedPointStream, "prefix_indices", spy)
    monkeypatch.setattr(points, "occurrences", refuse)
    spec = tmp_path / "abb.sub"
    spec.write_text("a -> abb\nb -> ba\n")
    argv = ["ipset", "verify", str(spec), "--seeds", "a,b", "--count", "4", "--max-subset-size", "4"]
    code, payload = _run_json(capsys, argv + ["--expect-pass"])
    assert code == 0 and payload["verdict"] == "pass" and payload["unchecked"] == []
    assert payload["family"]["generators"] == [99, 19601, 3880899, 768398401]
    assert payload["horizon"] == 772299002 and lengths == []
    argv = ["ipset", "verify", pair_spec, "--seeds", "a,b", "--count", "3",
            "--max-subset-size", "2", "--horizon", "2000", "--expect-pass"]
    code, payload = _run_json(capsys, argv)
    assert code == 1 and payload["verdict"] == "incomplete" and payload["failures"] == []
    assert payload["unchecked"] == [[[51536], 51536], [[23, 51536], 51559], [[1097, 51536], 52633]]


def test_ipset_verify_scans_for_the_witness_below_the_cap(capsys, monkeypatch, uniform_spec, pair_spec):
    # an Indeterminate pair without a witness: the scan stops at MATERIALIZE_CAP
    # (before, a huge --horizon grew both streams until memory ran out)
    monkeypatch.setattr(cli, "MATERIALIZE_CAP", 5000)
    written = spy_letters_written(monkeypatch)
    argv = ["ipset", "verify", uniform_spec, "--seeds", "a,b", "--horizon", "10000000000000"]
    code, payload = _run_json(capsys, argv)
    assert code == 1 and payload == {"witness": None, "verdict": "no-witness"}
    assert len(written) == 2
    assert all(5000 - 1 <= s._filled <= 5000 and count == s._filled + len(s._tail) for s, count in written.items())
    # the automaton check of the sums keeps the uncapped horizon
    argv = ["ipset", "verify", pair_spec, "--seeds", "a,b", "--horizon", "10000000000000", "--expect-pass"]
    code, payload = _run_json(capsys, argv)
    assert code == 0 and payload["horizon"] == 10_000_000_000_000 and payload["verdict"] == "pass"


def test_ipset_verify_on_period_two_seeds(capsys, tmp_path):
    # a -> b, b -> ab has seeds of period 2: letters are read off the square
    spec = tmp_path / "swap.sub"
    spec.write_text("a -> b\nb -> ab\n")
    argv = ["ipset", "verify", str(spec), "--seeds", "a,b", "--count", "3", "--expect-pass"]
    code, payload = _run_json(capsys, argv)
    assert code == 0 and payload["family"]["generators"] == [13, 610, 28657]
    # the fixed points at a and b begin abbab and babab
    argv = ["ipset", "verify", str(spec), "--generators", "0,1,3", "--seed", "b", "--factor", "b"]
    code, payload = _run_json(capsys, argv)
    assert code == 0 and payload["failures"] == [[[1], 1], [[3], 3], [[0, 1], 1], [[0, 3], 3]]


def test_seeds_of_period_above_eight(capsys, tmp_path):
    # a -> b -> ... -> i -> ab: every letter is a seed of least period 9
    spec = tmp_path / "cycle9.sub"
    spec.write_text("".join(f"{a} -> {b}\n" for a, b in zip("abcdefgh", "bcdefghi")) + "i -> ab\n")
    assert main(["expand", str(spec), "--seed", "a", "--length", "20", "--format", "text"]) == 0
    assert capsys.readouterr().out == "abbcbccdbccdcddebccd\n"
    assert main(["expand", str(spec), "--seed", "a", "--length", "20", "--period", "9"]) == 2
    assert "unrecognized arguments: --period" in capsys.readouterr().err
    code, payload = _run_json(capsys, ["coincide", str(spec), "--horizon", "100"])
    assert code == 0
    assert [entry["seeds"] for entry in payload["pairs"]] == [list(p) for p in combinations("abcdefghi", 2)]
    assert {entry["period"] for entry in payload["pairs"]} == {9}


def test_a_letter_that_is_not_a_seed_has_one_message(capsys, fib_spec):
    message = (
        "error: 'b' is not a periodic seed: no power of the substitution "
        "maps it to a longer word that starts with it\n"
    )
    for argv in (["expand", fib_spec, "--seed", "b", "--length", "5"],
                 ["coincide", fib_spec, "--seeds", "a,b"],
                 ["ipset", "verify", fib_spec, "--generators", "2", "--seed", "b", "--factor", "a"],
                 ["num", "list", fib_spec, "--start", "b"],
                 ["num", "encode", fib_spec, "--start", "b", "3"],
                 ["num", "sync", fib_spec, "--starts", "a,b", "--range", "0:5"],
                 ["num", "sync", fib_spec, "--starts", "b,a", "--range", "0:5"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == message


def test_ipset_verify_rejects_count_with_generators(capsys, pair_spec):
    # --count only sizes a family built from a witness; before, it was ignored here
    argv = ["ipset", "verify", pair_spec, "--generators", "1,2", "--seed", "a", "--factor", "b"]
    assert main(argv + ["--count", "9"]) == 2
    assert capsys.readouterr().err == "error: --generators gives the family itself; drop --count\n"
    code, payload = _run_json(capsys, argv)
    assert code == 0 and payload["family"]["generators"] == [1, 2]
    # with --seeds the default is still 2, and --count is taken
    argv = ["ipset", "verify", pair_spec, "--seeds", "a,b", "--horizon", "2000"]
    for extra, count in (([], 2), (["--count", "3"], 3)):
        code, payload = _run_json(capsys, argv + extra)
        assert code == 0 and len(payload["family"]["generators"]) == count


def test_ipset_verify_refuses_a_family_without_generators(capsys, pair_spec):
    # before, --count 0 printed "verdict pass" with no subset checked
    argv = ["ipset", "verify", pair_spec, "--seeds", "a,b", "--count", "0", "--expect-pass"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the family has no generators, so there is no subset to check\n"
    # ipset build still prints the empty family
    code, payload = _run_json(capsys, ["ipset", "build", pair_spec, "--seeds", "a,b", "--count", "0"])
    assert code == 0 and payload["family"]["generators"] == [] and payload["witness"]["k"] == 3


@pytest.mark.parametrize("extra", [["--seed", "q"], ["--factor", "zz"], ["--seed", "q", "--factor", "zz"]])
def test_ipset_verify_rejects_seed_or_factor_with_seeds(capsys, pair_spec, extra):
    # the witness decides the seed and the factor; before, these were ignored
    assert main(["ipset", "verify", pair_spec, "--seeds", "a,b", *extra]) == 2
    assert "drop --seed and --factor" in capsys.readouterr().err


FORMAT_ARGS = {  # arguments that make each subcommand run on pair_spec
    "classify": [],
    "expand": ["--seed", "a", "--length", "5"],
    "occurrences": ["--seed", "a", "--factor", "b", "--horizon", "100"],
    "gaps": ["--seed", "a", "--factor", "b", "--horizon", "100"],
    "num encode": ["--start", "a", "7"],
    "num decode": ["a: a.e.a.e"],
    "num list": ["--start", "a"],
    "ipset verify": ["--seeds", "a,b", "--horizon", "2000"],
    # no text rendering
    "proximal": ["--seeds", "a,b"],
    "coincide": ["--horizon", "100"],
    "num graph": [],
    "num sync": ["--starts", "a,b", "--range", "0:10"],
    "ipset build": ["--seeds", "a,b", "--horizon", "100"],
    "ipset search": ["--seed", "a", "--factor", "b", "--horizon", "100"],
    "strand scan": [],
    "strand export": ["--csv", "{tmp}/out.csv"],
}
TEXT_RENDERED = ("classify", "expand", "occurrences", "gaps", "num encode", "num decode", "num list", "ipset verify")


@pytest.mark.parametrize("command", FORMAT_ARGS)
def test_format_flag_only_where_there_is_a_text_rendering(capsys, tmp_path, pair_spec, command):
    argv = [*command.split(), pair_spec, *(a.format(tmp=tmp_path) for a in FORMAT_ARGS[command])]
    code = main(argv)
    as_json = capsys.readouterr().out
    if command in TEXT_RENDERED:
        assert main([*argv, "--format", "text"]) == code == 0
        assert capsys.readouterr().out != as_json
    else:
        assert code in (0, 1)
        assert main([*argv, "--format", "text"]) == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err


REQUIRED = "<required>"
_FORMATTED = {"--format": "json", "--output": None}
_PLAIN = {"--output": None}
CLI_SURFACE = {  # subcommand: (positionals, {option: default or REQUIRED})
    "classify": (["spec"], {**_FORMATTED}),
    "expand": (["spec"], {"--seed": REQUIRED, "--length": REQUIRED, **_FORMATTED}),
    "occurrences": (["spec"], {"--seed": REQUIRED, "--factor": REQUIRED, "--horizon": None, **_FORMATTED}),
    "gaps": (["spec"], {"--seed": REQUIRED, "--factor": REQUIRED, "--horizon": None, **_FORMATTED}),
    "proximal": (["spec"], {"--seeds": REQUIRED, "--min-window": 4, "--horizon": None,
                            "--expect-evidence": False, **_PLAIN}),
    "coincide": (["spec"], {"--seeds": None, "--horizon": None, "--deep": False,
                            "--expect-witness": False, **_PLAIN}),
    "num graph": (["spec"], {"--weights": None, **_PLAIN}),
    "num encode": (["spec", "value"], {"--start": REQUIRED, **_FORMATTED}),
    "num decode": (["spec", "path"], {"--max-realize": None, **_FORMATTED}),
    "num list": (["spec"], {"--start": REQUIRED, "--count": 10, **_FORMATTED}),
    "num sync": (["spec"], {"--starts": REQUIRED, "--range": REQUIRED, **_PLAIN}),
    "ipset build": (["spec"], {"--seeds": REQUIRED, "--count": 2, "--horizon": None, **_PLAIN}),
    "ipset verify": (["spec"], {"--seeds": None, "--generators": None, "--seed": None, "--factor": None,
                                "--count": None, "--max-subset-size": 3, "--horizon": None,
                                "--expect-pass": False, **_FORMATTED}),
    "ipset search": (["spec"], {"--seed": REQUIRED, "--factor": REQUIRED, "--horizon": None, "--depth": 3,
                                "--expect-found": False, **_PLAIN}),
    "strand scan": (["spec"], {"--iterations": 10, "--seed-word": None, **_PLAIN}),
    "strand export": (["spec"], {"--iterations": 10, "--seed-word": None, "--csv": None, "--svg": None, **_PLAIN}),
}


def _subcommand_parsers(parser, prefix=()):
    for action in parser._actions:
        if action.choices and isinstance(action.choices, dict):  # a subparsers action
            for name, child in action.choices.items():
                yield from _subcommand_parsers(child, (*prefix, name))
            return
    yield " ".join(prefix), parser


def test_cli_surface_is_the_table():
    found = {}
    for name, parser in _subcommand_parsers(cli._build_parser()):
        actions = [a for a in parser._actions if a.dest != "help"]
        found[name] = ([a.dest for a in actions if not a.option_strings],
                       {a.option_strings[0]: REQUIRED if a.required else a.default
                        for a in actions if a.option_strings})
        assert all(len(a.option_strings) <= 1 for a in actions), name
    assert found == CLI_SURFACE
    assert set(FORMAT_ARGS) == set(CLI_SURFACE)
    assert {c for c, (_, options) in CLI_SURFACE.items() if "--format" in options} == set(TEXT_RENDERED)


@pytest.mark.parametrize("command, extra", [*((c, []) for c in FORMAT_ARGS), ("num graph", ["--weights", "2"])])
def test_output_file_gets_the_bytes_of_stdout(capsys, tmp_path, pair_spec, command, extra):
    argv = [*command.split(), pair_spec, *(a.format(tmp=tmp_path) for a in FORMAT_ARGS[command]), *extra]
    out = tmp_path / "out.txt"
    for fmt in (["--format", "json"], ["--format", "text"]) if command in TEXT_RENDERED else ([],):
        code = main([*argv, *fmt])
        stdout = capsys.readouterr().out
        assert stdout.endswith("\n")
        assert main([*argv, *fmt, "--output", str(out)]) == code
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == stdout.encode(), fmt


def test_ipset_verify_rejects_negative_generators(capsys, pair_spec):
    # a value that starts with "-" reaches the range check, with or without "="
    for generators in (["--generators=-3,5"], ["--generators", "-3,5"], ["--generators", "-3"]):
        argv = ["ipset", "verify", pair_spec, *generators, "--seed", "a", "--factor", "b"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: generators must be >= 0\n"


def test_num_sync_rejects_a_negative_range(capsys, fib_spec):
    assert main(["num", "sync", fib_spec, "--starts", "a,a", "--range", "-5:3"]) == 2
    assert capsys.readouterr().err == "error: range must satisfy 0 <= lo <= hi\n"


@pytest.mark.parametrize("flag", ["--output", "--csv", "--svg"])
def test_unwritable_output_path_exits_2(capsys, tmp_path, fib_spec, flag):
    target = str(tmp_path / "missing" / "out")
    command = ["classify"] if flag == "--output" else ["strand", "export"]
    assert main([*command, fib_spec, flag, target]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", [["classify"], ["strand", "scan"], ["strand", "export"]])
def test_tolerance_flag_is_gone(capsys, fib_spec, command):
    assert main([*command, fib_spec, "--tolerance", "1e-9"]) == 2
    assert "unrecognized arguments: --tolerance" in capsys.readouterr().err


def test_numeration_cap_exits_2_before_building_the_graph(capsys, monkeypatch, fib_spec):
    def refuse(*args, **kwargs):
        raise AssertionError("ran past the cap")

    over = NUMERATION_CAP + 1
    with monkeypatch.context() as mp:
        for name in ("enumerate_paths", "synchronizing_scan"):
            mp.setattr(numeration, name, refuse)
        assert main(["num", "list", fib_spec, "--start", "a", "--count", str(over)]) == 2
        assert capsys.readouterr().err == f"error: --count {over} exceeds the cap of {NUMERATION_CAP} values\n"
        assert main(["num", "sync", fib_spec, "--starts", "a,b", "--range", f"5:{5 + NUMERATION_CAP}"]) == 2
        assert capsys.readouterr().err == f"error: --range width {over} exceeds the cap of {NUMERATION_CAP} values\n"
    # the cap itself is accepted; the scans are stubbed so nothing that large runs
    calls = []
    monkeypatch.setattr(numeration, "enumerate_paths", lambda sub, start, count: calls.append(count) or [])
    monkeypatch.setattr(
        numeration, "synchronizing_scan",
        lambda sub, a, b, value_range: calls.append(value_range) or SimpleNamespace(to_json_dict=dict),
    )
    assert main(["num", "list", fib_spec, "--start", "a", "--count", str(NUMERATION_CAP)]) == 0
    assert main(["num", "sync", fib_spec, "--starts", "a,b", "--range", f"5:{4 + NUMERATION_CAP}"]) == 0
    capsys.readouterr()
    assert calls == [NUMERATION_CAP, (5, 4 + NUMERATION_CAP)]


def test_bad_horizon_variable_only_breaks_commands_that_scan(capsys, monkeypatch, fib_spec, tm_spec):
    monkeypatch.setenv("SUBSTRAND_HORIZON", "abc")
    assert main(["classify", fib_spec]) == 0
    capsys.readouterr()
    assert main(["coincide", tm_spec]) == 2
    assert capsys.readouterr().err == "error: SUBSTRAND_HORIZON must be an integer, got 'abc'\n"
    # an explicit flag needs no default
    assert main(["coincide", tm_spec, "--horizon", "100"]) == 0


def test_library_import_loads_neither_cli_nor_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys, substrand; "
        "print(sorted(m for m in sys.modules"
        " if m in ('substrand.cli', 'fractions') or m.split('.')[0] in ('scipy', 'sympy')))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"


_MODULES_PROBE = (
    "import json, runpy, sys\n"
    "sys.argv = ['substrand', *json.loads(sys.argv[1])]\n"
    "before = set(sys.modules)\n"
    "try:\n"
    "    runpy.run_module('substrand', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "watched = ('substrand', 'numpy', 'dataclasses', 'inspect')\n"
    "loaded = sorted(m for m in set(sys.modules) - before if m.split('.')[0] in watched)\n"
    "print(json.dumps([code, loaded]), file=sys.stderr)\n"
)


def _modules_after(argv):
    """Exit code of ``python -m substrand *argv`` and the substrand, numpy,
    ``dataclasses`` and ``inspect`` modules it loaded."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", _MODULES_PROBE, json.dumps(argv)],
                            capture_output=True, text=True, env=env, check=True)
    return json.loads(result.stderr.splitlines()[-1])


def test_start_up_imports_only_what_the_command_runs(fib_spec, pair_spec, tm_spec, tmp_path):
    start_up = ["substrand", "substrand.cli", "substrand.errors"]
    assert _modules_after(["--help"]) == [0, start_up]
    assert _modules_after(["ipset", "verify", "--generators", "1"]) == [2, start_up]
    code, loaded = _modules_after(["classify", fib_spec])
    assert code == 0 and "substrand.spectral" in loaded
    assert not {f"substrand.{m}" for m in ("coincidence", "ipsets", "numeration", "points", "strand")} & set(loaded)
    # numpy loads only for Indeterminate scans, stable norms and strands; no
    # command loads dataclasses, nor, without numpy (which loads it), inspect
    for argv in (["classify", fib_spec],
                 ["num", "encode", fib_spec, "--start", "a", "7"],
                 ["num", "decode", fib_spec, "a: a.e.a"],
                 ["num", "list", fib_spec, "--start", "a", "--count", "5"],
                 ["num", "sync", pair_spec, "--starts", "a,b", "--range", "0:20"],
                 ["num", "graph", fib_spec, "--weights", "3"],
                 ["ipset", "verify", fib_spec, "--generators", "2,5", "--seed", "a", "--factor", "a"],
                 # pairs the balanced-pair closure decides are answered without a scan
                 ["coincide", tm_spec, "--seeds", "a,b"],
                 ["coincide", tm_spec, "--seeds", "a,b", "--deep"],
                 ["coincide", pair_spec, "--seeds", "a,b"],
                 ["coincide", pair_spec, "--seeds", "a,b", "--deep"],
                 ["ipset", "verify", pair_spec, "--seeds", "a,b"],
                 ["ipset", "build", pair_spec, "--seeds", "a,b"],
                 # streams, and the agreement and occurrence scans, run on the standard library
                 ["expand", fib_spec, "--seed", "a", "--length", "5"],
                 ["occurrences", fib_spec, "--seed", "a", "--factor", "ab", "--horizon", "50"],
                 ["occurrences", fib_spec, "--seed", "a", "--factor", "ab", "--horizon", "50", "--format", "text"],
                 ["gaps", fib_spec, "--seed", "a", "--factor", "b", "--horizon", "50"],
                 ["proximal", pair_spec, "--seeds", "a,b", "--horizon", "50"],
                 ["ipset", "search", pair_spec, "--seed", "a", "--factor", "b", "--horizon", "50", "--depth", "2"]):
        code, loaded = _modules_after(argv)
        assert code == 0 and "substrand.words" in loaded, argv
        assert not [m for m in loaded if m.split(".")[0] in ("numpy", "dataclasses", "inspect")], argv
    code, loaded = _modules_after(["strand", "export", fib_spec, "--iterations", "3",
                                   "--csv", str(tmp_path / "scan.csv")])
    assert code == 0 and "numpy" in loaded and "dataclasses" not in loaded
    # an Indeterminate pair still scans
    late, out = tmp_path / "late.sub", tmp_path / "late.json"
    late.write_text("a -> bbabc\nb -> aabb\nc -> ac\n")
    code, loaded = _modules_after(["coincide", str(late), "--seeds", "a,b", "--deep", "--output", str(out)])
    assert code == 0 and "numpy" in loaded and "dataclasses" not in loaded
    assert json.loads(out.read_text())["pairs"][0]["witness"]["k"] == 216934


def test_package_names_load_on_first_use():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys, substrand\n"
        "before = sorted(m for m in sys.modules if m.startswith('substrand.'))\n"
        "listed = set(substrand.__all__) <= set(dir(substrand))\n"
        "from substrand import *\n"
        "print(before, listed, len(substrand.__all__))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[] True 65"
    with pytest.raises(AttributeError, match="has no attribute 'nonesuch'"):
        substrand.nonesuch


def test_strand_commands_run_without_scipy(tmp_path):
    spec = tmp_path / "tri.sub"
    spec.write_text("a -> ab\nb -> ac\nc -> a\n")
    csv, svg = tmp_path / "scan.csv", tmp_path / "tile.svg"
    probe = (
        "import sys\n"
        "class RefuseScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError('scipy refused')\n"
        "sys.meta_path.insert(0, RefuseScipy())\n"
        "from substrand.cli import main\n"
        f"codes = [main(['strand', 'export', {str(spec)!r}, '--iterations', '6',"
        f" '--csv', {str(csv)!r}, '--svg', {str(svg)!r}]),"
        f" main(['strand', 'scan', {str(spec)!r}, '--iterations', '6'])]\n"
        "print(codes, file=sys.stderr)\n"
        "sys.exit(max(codes))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stderr.strip() == "[0, 0]"
    assert csv.read_text().startswith("iteration,v0,v1,v2,type,expanding_coefficient,s0,s1\n")
    assert svg.read_text().endswith("</svg>\n")


def _decimal(value):
    """Decimal digits of a nonnegative int of any size, converted 1000 at a time."""
    chunks = []
    while True:
        value, chunk = divmod(value, 10 ** 1000)
        if not value:
            return str(chunk) + "".join(reversed(chunks))
        chunks.append(f"{chunk:01000d}")


def test_num_decode_prints_values_past_4300_digits(fib_spec):
    # Fibonacci: |sigma^m(a)| = L_m with L_0 = 1, L_1 = 2; the path a.e.a.e... of
    # 24000 labels sums L_m over the odd m up to 23999, a value of about 5000 digits
    labels = 24_000
    lengths = [1, 2]
    while len(lengths) < labels:
        lengths.append(lengths[-1] + lengths[-2])
    expected = _decimal(sum(lengths[1::2]))
    assert len(expected) > 4300
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    path = "a: " + ".".join(["a", "e"] * (labels // 2))
    argv = [sys.executable, "-m", "substrand", "num", "decode", fib_spec, path, "--max-realize", "0"]
    result = subprocess.run(argv + ["--format", "text"], capture_output=True, text=True, env=env)
    assert (result.returncode, result.stdout, result.stderr) == (0, expected + "\n", "")
    result = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert result.returncode == 0 and f'"value": {expected}\n' in result.stdout


def test_closed_stdout_exits_quietly(fib_spec):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    # about 440 kB of output: more than a pipe buffer holds, so the writer
    # meets the closed pipe
    argv = [sys.executable, "-m", "substrand", "num", "list", fib_spec, "--start", "a", "--count", "10000"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


_NO_PAIR = '{\n  "family": null,\n  "horizon": 100,\n  "witness": null\n}\n'


@pytest.mark.parametrize("env, argv, code, out, err", [
    pytest.param({"SUBSTRAND_HORIZON": "0"}, ["occurrences", "fib_spec", "--seed", "a", "--factor", "a"],
                 2, "", "error: SUBSTRAND_HORIZON must be >= 1\n", id="horizon-variable-0"),
    pytest.param({}, ["proximal", "pair_spec", "--seeds", "a"],
                 2, "", "error: --seeds expects two letters like 'a,b', got 'a'\n", id="proximal-one-seed"),
    pytest.param({}, ["proximal", "pair_spec", "--seeds", "a,b", "--min-window", "0"],
                 2, "", "error: min_window must be >= 1\n", id="proximal-min-window-0"),
    pytest.param({}, ["num", "sync", "pair_spec", "--starts", "a,b", "--range", "5"], 2, "",
                 "usage: substrand num sync [-h] [--output OUTPUT] --starts STARTS --range LO:HI\n"
                 "                          spec\n"
                 "substrand num sync: error: argument --range: expected LO:HI, got '5'\n", id="sync-range-no-colon"),
    pytest.param({}, ["ipset", "verify", "fib_spec", "--generators", "x", "--seed", "a", "--factor", "a"],
                 2, "", "error: --generators expects integers, got 'x'\n", id="verify-generators-not-integers"),
    pytest.param({}, ["ipset", "verify", "fib_spec"],
                 2, "", "error: provide either --generators with --seed/--factor, or --seeds\n", id="verify-no-family"),
    pytest.param({}, ["ipset", "verify", "fib_spec", "--generators", "1,2"],
                 2, "", "error: --generators needs --seed and --factor\n", id="verify-generators-no-seed"),
    pytest.param({}, ["strand", "export", "fib_spec"],
                 2, "", "error: strand export needs --csv and/or --svg\n", id="export-no-file"),
    pytest.param({}, ["ipset", "build", "tm_spec", "--seeds", "a,b", "--horizon", "100"],
                 1, _NO_PAIR, "", id="build-complement-pair"),
])
def test_input_errors_exit_with_their_message(capsys, monkeypatch, request, env, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal width
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    argv = [request.getfixturevalue(a) if a.endswith("_spec") else a for a in argv]
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)
