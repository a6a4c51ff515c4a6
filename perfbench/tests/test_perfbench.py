"""Tests for the benchmark's own code: inputs, oracles, span arithmetic, smoke run."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _files(workload: str, seed: int, tmp: Path) -> dict[str, bytes]:
    tmp.mkdir()
    workloads.build(workload, seed, tmp)
    return {p.name: p.read_bytes() for p in sorted(tmp.glob("*.sub"))}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_determines_rule_files(workload, tmp_path):
    first = _files(workload, 7, tmp_path / "a")
    again = _files(workload, 7, tmp_path / "b")
    other = _files(workload, 8, tmp_path / "c")
    assert first == again
    assert first != other


def test_complement_pair_has_no_witness():
    rules = workloads.complement_pair(random.Random(3))
    x, y = oracles.expand(rules, "a", 10_000), oracles.expand(rules, "b", 10_000)
    assert all(p != q for p, q in zip(x, y))
    assert oracles.least_witness(rules, "a", "b", 10_000) is None


def test_witness_pair_has_small_embeddable_witness():
    rules = workloads.witness_pair(random.Random(3))
    k = oracles.least_witness(rules, "a", "b", workloads.WITNESS_LIMIT)
    assert k is not None and k < workloads.WITNESS_LIMIT
    assert oracles.embedding_power(rules, k) is not None


def test_strand_input_is_irreducible_pisot():
    rules = workloads.pisot_substitution(random.Random(3))
    verdict = oracles.expected_classification(rules)
    assert verdict["irreducible_pisot"] and len(rules) == 3


@pytest.mark.parametrize("letters", [4, 5, 6])
def test_classify_inputs_are_reducible_without_rational_roots(letters):
    rules = workloads.reducible_substitution(random.Random(3), letters)
    m = oracles.count_matrix(rules)
    assert len(rules) == letters
    assert oracles.is_primitive(m) is not None
    assert oracles.reducible_without_rational_root(m)
    if letters in workloads.KRONECKER_TRIES:
        lo, hi = workloads.KRONECKER_TRIES[letters]
        assert lo <= oracles.kronecker_tries(m) <= hi


def test_kronecker_tries_counts_to_the_first_factor():
    # (x^2 + 1)(x^2 + x + 1): values 1, 6, 2 at 0, 1, -1; the divisor lists
    # are [1, -1, 1, -1], [1, -1, 6, -6, 2, -2, 3, -3], [1, -1, 2, -2],
    # and x^2 + 1 (values 1, 2, 2) comes first, at index (0*8 + 4)*4 + 2.
    m = [[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -2], [0, 0, 1, -1]]
    assert oracles.kronecker_tries(m) == 19


def _span(name, start, end, parent, command="c1", counters=None):
    return [name, start, end, parent, command, counters]


def test_self_time_of_nested_spans():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("words.expand", 1.0, 3.0, 0, counters={"letters": 5, "bytes": 100}),
        _span("coincidence.scan", 3.0, 9.0, 0, counters={"steps": 40, "distinct": 2}),
        _span("words.expand", 4.0, 5.0, 2, counters={"letters": 5, "bytes": 100}),
        _span("coincidence.scan", 9.0, 9.5, 0, counters={"steps": 60, "distinct": 3}),
    ]
    assert tracing.self_times(spans) == [1.5, 2.0, 5.0, 1.0, 0.5]
    m = tracing.layer_metrics(spans)
    assert m["cli.self_s"] == 1.5
    assert m["words.expand_s"] == 3.0
    assert m["words.letters"] == 10
    assert m["coincidence.scan_s"] == 5.5
    assert m["coincidence.calls"] == 2
    assert m["coincidence.useful_ratio"] == 0.6      # last call of the command / all steps
    assert m["coincidence.distinct_deltas"] == 3


def test_layer_metrics_cover_the_declared_per_layer_metrics():
    declared = {m["name"] for m in SPEC["per_layer"]}
    measured = set(tracing.layer_metrics([])) | {
        "cli.import_s", "gc.pause_s", "gc.collections", "trace.overhead"}
    assert measured == declared


def _result_file(path: Path, workload: str, metrics: dict) -> str:
    report = {"workload": workload, "seed": 1, "trace": 0, "sha256": {}}
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}
    path.write_text(json.dumps({"report": report}) + "\n" + json.dumps(result) + "\n")
    return str(path)


@pytest.mark.parametrize("base, new, flagged", [
    (0.0, 0.0, False), (0.0, 0.05, True), (0.1, 0.105, False), (0.1, 0.2, True)])
def test_compare_flags_a_rise_from_zero(tmp_path, base, new, flagged):
    import compare
    b = _result_file(tmp_path / "b.txt", "witness-geometry", {"wall_s": base})
    n = _result_file(tmp_path / "n.txt", "witness-geometry", {"wall_s": new})
    assert compare.main(["--base", b, "--new", n]) == (1 if flagged else 0)


def _run_cli(argv):
    env = {"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    proc = subprocess.run([sys.executable, "-m", "substrand", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_oracle_accepts_real_output_and_rejects_corrupted(tmp_path):
    cmd = next(c for c in workloads.build("deep-scan", 1, tmp_path, smoke=True) if c.kind == "gaps")
    rc, out, err = _run_cli(cmd.argv)
    oracles.check(cmd.kind, cmd.expect, rc, out, err)
    payload = json.loads(out)
    payload["count"] += 1
    with pytest.raises(oracles.CheckFailed):
        oracles.check(cmd.kind, cmd.expect, rc, json.dumps(payload), err)
    with pytest.raises(oracles.CheckFailed):
        oracles.check(cmd.kind, cmd.expect, 2, "", "error: something else")


def test_oracle_checks_classify_answers(tmp_path):
    cmd = next(c for c in workloads.build("witness-geometry", 1, tmp_path, smoke=True)
               if c.kind == "classify")
    want = oracles.expected_classification(cmd.expect["rules"])
    answer = dict(want, dilation={"value": want["dilation"]})
    oracles.check(cmd.kind, cmd.expect, 0, json.dumps(answer), "")
    wrong = dict(answer, irreducible=not want["irreducible"])
    for bad in (json.dumps(wrong), "{}"):
        with pytest.raises(oracles.CheckFailed):
            oracles.check(cmd.kind, cmd.expect, 0, bad, "")
    with pytest.raises(oracles.CheckFailed):     # a refusal is a failure
        oracles.check(cmd.kind, cmd.expect, 2, "", "error: degree 7")


def test_workloads_run_only_their_own_commands(tmp_path):
    for workload, kinds in workloads.WORKLOADS.items():
        (tmp_path / workload).mkdir()
        cmds = workloads.build(workload, 1, tmp_path / workload, smoke=True)
        assert {c.kind for c in cmds} == set(kinds)


def test_smoke_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "numeration", "--seed", "1",
         "--seconds", "0", "--trace", "0", "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
