import json
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest

from substrand import FixedPointStream, InputError, cli, coincidence, numeration, points
from substrand.cli import MATERIALIZE_CAP, NUMERATION_CAP, main, parse_substitution_spec
from conftest import oracle_deep_coincide


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
    spec = parse_substitution_spec("  a ->  a b\n# note\nb->a\n")
    assert spec.substitution.rules() == {"a": "ab", "b": "a"}


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
    # the scan at the cap stops in its first block, and so does the expansion
    monkeypatch.setattr(coincidence, "_BLOCK_CELLS", cells)
    requested = []
    ensure = FixedPointStream._ensure

    def spy(self, length):
        requested.append(length)
        return ensure(self, length)

    monkeypatch.setattr(FixedPointStream, "_ensure", spy)
    sub = parse_substitution_spec(Path(pair_spec).read_text()).substitution
    verdict, _ = cli._coincide_pair(sub, "a", "b", 2, True)
    assert verdict.witness.index == 3 and verdict.horizon == 4
    assert max(requested) <= cells // 2 + 1 < cli.DEEP_HORIZON_CAP // 10


def test_coincide_deep_without_witness_scans_once_to_the_cap(capsys, monkeypatch, tmp_path):
    # the fixed points of a complement pair differ at every index: no witness
    p = tmp_path / "complement.sub"
    p.write_text("a -> abbaab\nb -> baabba\n")
    monkeypatch.setattr(cli, "DEEP_HORIZON_CAP", 5000)
    # 32 rows a block: the first block of the scan at the cap holds every D value
    monkeypatch.setattr(coincidence, "_BLOCK_CELLS", 64)
    horizons, requested = [], []
    scan = coincidence.find_strong_coincidence
    ensure = FixedPointStream._ensure

    def spy(x, y, horizon):
        horizons.append(horizon)
        verdict = scan(x, y, horizon)
        requested.clear()
        return verdict

    def ensure_spy(self, length):
        requested.append(length)
        return ensure(self, length)

    monkeypatch.setattr(coincidence, "find_strong_coincidence", spy)
    monkeypatch.setattr(FixedPointStream, "_ensure", ensure_spy)
    argv = ["coincide", str(p), "--seeds", "a,b", "--deep", "--expect-witness", "--horizon"]
    code, payload = _run_json(capsys, argv + ["100"])
    # one scan at 100; the closure proves there is no witness, and after it
    # no stream is expanded past the first block of the scan at the cap
    assert code == 1 and horizons == [100]
    assert 0 < max(requested) <= 32 + 1
    sub = parse_substitution_spec(p.read_text()).substitution
    expected = oracle_deep_coincide(FixedPointStream(sub, "a"), FixedPointStream(sub, "b"), 100, 5000)
    assert expected.horizon == 5000 and expected.stabilized is True
    assert payload["pairs"] == [{"seeds": ["a", "b"], "period": 1, **expected.to_json_dict()}]

    horizons.clear()
    code, payload = _run_json(capsys, argv + ["5000"])
    assert code == 1 and horizons == [5000]
    assert main(argv + ["0"]) == 2
    assert capsys.readouterr().err == "error: horizon must be >= 1\n"


def test_coincide_deep_falls_back_to_the_scan_when_the_closure_is_indeterminate(capsys, tmp_path):
    # not Pisot: the first cut lies past the closure's length cap, and the
    # least witness past the default horizon
    p = tmp_path / "late.sub"
    p.write_text("a -> bbabc\nb -> aabb\nc -> ac\n")
    sub = parse_substitution_spec(p.read_text()).substitution
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
    monkeypatch.setattr(cli, "DEEP_HORIZON_CAP", 5000)
    sub = parse_substitution_spec(p.read_text()).substitution
    x, y = FixedPointStream(sub, "a"), FixedPointStream(sub, "f")
    assert (x.period, y.period) == (5, 7)
    closure = coincidence.balanced_pair_closure(x, y)
    assert closure.verdict == coincidence.INDETERMINATE and closure.pairs == ()
    expected = coincidence.find_strong_coincidence(FixedPointStream(sub, "a"), FixedPointStream(sub, "f"), 5000)
    assert not expected.found
    code, payload = _run_json(capsys, ["coincide", str(p), "--seeds", "a,f", "--deep", "--horizon", "100"])
    assert code == 0 and payload["pairs"] == [{"seeds": ["a", "f"], "period": 35, **expected.to_json_dict()}]


def test_coincide_deep_on_an_indeterminate_pair_matches_the_full_scan(capsys, monkeypatch, uniform_spec):
    monkeypatch.setattr(cli, "DEEP_HORIZON_CAP", 20_000)
    sub = parse_substitution_spec(Path(uniform_spec).read_text()).substitution
    closure = coincidence.balanced_pair_closure(FixedPointStream(sub, "a"), FixedPointStream(sub, "b"))
    assert closure.verdict == coincidence.INDETERMINATE
    expected = coincidence.find_strong_coincidence(FixedPointStream(sub, "a"), FixedPointStream(sub, "b"), 20_000)
    assert not expected.found
    code, payload = _run_json(capsys, ["coincide", uniform_spec, "--seeds", "a,b", "--deep", "--horizon", "100"])
    assert code == 0 and payload["pairs"] == [{"seeds": ["a", "b"], "period": 1, **expected.to_json_dict()}]


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

    monkeypatch.setattr(cli.strand_mod, "substitute_strand", refuse)
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


def test_num_decode_rejects_negative_max_realize(capsys, fib_spec):
    assert main(["num", "decode", fib_spec, "a: a.e.a", "--max-realize", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --max-realize must be >= 0, got -1\n"
    code, payload = _run_json(capsys, ["num", "decode", fib_spec, "a: a.e.a", "--max-realize", "0"])
    assert code == 0 and payload["value"] == 4 and payload["realized"] is None


def test_ipset_verify_reads_letters_without_a_position_set(capsys, monkeypatch, tmp_path, pair_spec):
    """Without --horizon all 15 sums of the abb/ba pair, up to 772299000, are
    checked, and nothing is expanded past the witness scan; an explicit
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
    assert payload["horizon"] == 772299002 and max(lengths) == cli.DEFAULT_HORIZON
    argv = ["ipset", "verify", pair_spec, "--seeds", "a,b", "--count", "3",
            "--max-subset-size", "2", "--horizon", "2000", "--expect-pass"]
    code, payload = _run_json(capsys, argv)
    assert code == 1 and payload["verdict"] == "incomplete" and payload["failures"] == []
    assert payload["unchecked"] == [[[51536], 51536], [[23, 51536], 51559], [[1097, 51536], 52633]]


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
                 ["ipset", "verify", fib_spec, "--generators", "2", "--seed", "b", "--factor", "a"]):
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


def test_ipset_verify_rejects_negative_generators(capsys, pair_spec):
    argv = ["ipset", "verify", pair_spec, "--generators=-3,5", "--seed", "a", "--factor", "b"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: generators must be >= 0\n"


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
        for name in ("build_prefix_graph", "enumerate_paths", "synchronizing_scan"):
            mp.setattr(numeration, name, refuse)
        assert main(["num", "list", fib_spec, "--start", "a", "--count", str(over)]) == 2
        assert capsys.readouterr().err == f"error: --count {over} exceeds the cap of {NUMERATION_CAP} values\n"
        assert main(["num", "sync", fib_spec, "--starts", "a,b", "--range", f"5:{5 + NUMERATION_CAP}"]) == 2
        assert capsys.readouterr().err == f"error: --range width {over} exceeds the cap of {NUMERATION_CAP} values\n"
    # the cap itself is accepted; the scans are stubbed so nothing that large runs
    calls = []
    monkeypatch.setattr(numeration, "enumerate_paths", lambda g, start, count: calls.append(count) or [])
    monkeypatch.setattr(
        numeration, "synchronizing_scan",
        lambda g, a, b, value_range: calls.append(value_range) or SimpleNamespace(to_json_dict=dict),
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
