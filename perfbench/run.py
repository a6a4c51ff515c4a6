"""substrand benchmark: run one workload for one seed, check, print metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload deep-scan --seed 1 --seconds 36 --trace 0

``--trace 0`` runs the CLI as child processes in a closed loop (one client,
one command at a time) and prints the end-to-end metrics; ``--trace 1``
runs the same commands in process under the span wrappers of
``tracing.py`` and prints the per-layer metrics. Every output is checked
against ``oracles.py``; a wrong output exits 1 without a result. The last
stdout line is the result object, the line before it the full report
(see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from statistics import median
from time import perf_counter

import oracles
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170          # every run must end within 180 s
SETUP_PER_ROUND = 2        # no-op starts per round, after one warm-up start

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


class Runner:
    """Spawns children with a fixed environment and a run-wide deadline."""

    def __init__(self, work: Path):
        self.work = work
        self.deadline = perf_counter() + RUN_LIMIT_S
        self.env = {
            "PATH": os.environ.get("PATH", os.defpath),
            "PYTHONPATH": str(SRC),
            "PYTHONHASHSEED": "0",
        }   # SUBSTRAND_HORIZON and everything else inherited is left out

    def spawn(self, argv: list[str]) -> dict:
        """Run to completion; wall time, and the child's own CPU time and
        peak RSS (wait4)."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            status, usage = self._wait(proc)
            wall = perf_counter() - start
        stdout = out_path.read_text()
        return {"rc": os.waitstatus_to_exitcode(status), "wall": wall,
                "cpu": usage.ru_utime + usage.ru_stime, "rss_kb": usage.ru_maxrss,
                "stdout": stdout, "stderr": err_path.read_text(),
                "sha256": tracing.stdout_digest(stdout, str(self.work))}

    def _wait(self, proc):
        def expire(signum, frame):
            raise TimeoutError("run deadline passed")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, max(0.1, self.deadline - perf_counter()))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return status, usage

    def cli(self, argv: list[str]) -> dict:
        return self.spawn([sys.executable, "-m", "substrand", *argv])


def check_outputs(commands, results: dict[str, list[dict]]) -> None:
    """Oracle-check each command's output, which must be the same on every
    repeat."""
    for cmd in commands:
        runs = results[cmd.id]
        if len({r["sha256"] for r in runs}) > 1:
            raise oracles.CheckFailed(f"{cmd.id} printed different outputs on repeats")
        first = runs[0]
        oracles.check(cmd.kind, cmd.expect, first["rc"], first["stdout"], first["stderr"])


def schedule(commands) -> list:
    """One round: every command once, with SETUP_PER_ROUND no-op starts
    (None) spread evenly between them."""
    out = list(commands)
    for k in range(SETUP_PER_ROUND, 0, -1):
        out.insert(k * len(commands) // SETUP_PER_ROUND, None)
    return out


def untraced(commands, runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Closed loop: repeat the round's schedule until ``seconds`` have passed.

    The first round always completes, so every command has a sample. After
    it, steps start until ``seconds`` have passed; the step under way then
    finishes.
    """
    runner.cli(["--help"])                       # warm-up: byte-compile, page cache
    steps = schedule(commands)
    results: dict[str, list[dict]] = {c.id: [] for c in commands}
    setup = []
    start = perf_counter()
    done = 0
    while done < len(steps) or perf_counter() - start < seconds:
        cmd = steps[done % len(steps)]
        done += 1
        res = runner.cli(cmd.argv if cmd else ["--help"])
        (results[cmd.id] if cmd else setup).append(res)
    check_outputs(commands, results)

    metrics = {
        "wall_s": sum(median(r["wall"] for r in results[c.id]) for c in commands),
        "setup_s": median(r["wall"] for r in setup),
        "peak_rss_mb": max(r["rss_kb"] for rs in results.values() for r in rs) / 1024,
    }
    detail = {
        "attempted": sum(len(r) for r in results.values()) + len(setup),
        "failed": 0,
        "rounds": done / len(steps),
        "walls": {c.id: [r["wall"] for r in results[c.id]] for c in commands},
        "cpus": {c.id: [r["cpu"] for r in results[c.id]] for c in commands},
        "rss_mb": {c.id: max(r["rss_kb"] for r in results[c.id]) / 1024 for c in commands},
        "setup_walls": [r["wall"] for r in setup],
        "setup_cpus": [r["cpu"] for r in setup],
        "sha256": {c.id: results[c.id][0]["sha256"] for c in commands},
    }
    return metrics, detail


def traced(commands, runner: Runner, seconds: float) -> tuple[dict, dict]:
    plan = runner.work / "plan.json"
    out = runner.work / "trace.json"
    plan.write_text(json.dumps({"seconds": seconds, "work": str(runner.work), "commands": [
        {"id": c.id, "argv": c.argv, "files": c.files} for c in commands]}))
    res = runner.spawn([sys.executable, str(Path(__file__).with_name("trace_run.py")),
                        str(plan), str(out)])
    if res["rc"] != 0:
        raise oracles.CheckFailed(f"traced run exited {res['rc']}: {res['stderr'][-500:]}")
    trace = json.loads(out.read_text())
    first = {r["id"]: r for r in trace["outputs"]}
    results = {}
    for i, c in enumerate(commands):
        shas = {p["sha256"][j] for p in trace["passes"] for j in (i, i + len(commands))}
        results[c.id] = [dict(first[c.id], sha256=sha) for sha in sorted(shas)]
    check_outputs(commands, results)
    per_pass = []
    for p in trace["passes"]:
        m = tracing.layer_metrics(p["spans"])
        m["cli.import_s"] = trace["import_s"]
        m["gc.pause_s"] = p["gc_pause_s"]
        m["gc.collections"] = p["gc_collections"]
        m["trace.overhead"] = p["traced_wall"] / p["untraced_wall"] - 1
        per_pass.append(m)
    n = len(trace["passes"])
    detail = {
        "attempted": (2 * n + 1) * len(commands), "failed": 0,
        "passes": n,
        "sha256": {c.id: results[c.id][0]["sha256"] for c in commands},
        "peak_rss_mb": res["rss_kb"] / 1024,
    }
    return tracing.median_metrics(per_pass), detail


def machine() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_commit": git_commit(), "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"), "sympy": version("sympy"),
        "nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs everywhere (tests)")
    args = parser.parse_args(argv)
    if not (SRC / "substrand" / "cli.py").is_file():
        print(f"error: no substrand sources under {SRC}", file=sys.stderr)
        return 1
    started = perf_counter()
    try:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
            work = Path(tmp)
            commands = workloads.build(args.workload, args.seed, work, smoke=args.smoke)
            runner = Runner(work)
            run = traced if args.trace else untraced
            metrics, detail = run(commands, runner, args.seconds)
    except (oracles.CheckFailed, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    declared = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    if sorted(metrics) != sorted(declared):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    for key in declared:
        print(f"{key:38s} {metrics[key]:16.6f} {UNITS[key]}")
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "run_s": perf_counter() - started,
        "machine": machine(), "commands": {c.id: [a.replace(str(work), "<work>") for a in c.argv]
                                 for c in commands},
        **detail,
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {k: {"value": metrics[k], "unit": UNITS[k]} for k in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
