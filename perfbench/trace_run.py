"""Traced child: run the planned CLI commands in process via ``cli.main``.

Usage: ``python trace_run.py PLAN.json OUT.json`` with ``src`` on
``PYTHONPATH``. After one untraced warm-up pass over the commands, runs
pairs of passes, traced then untraced, until the plan's ``seconds`` have
passed (at least one pair); a pair starts only if the last one's duration
says it ends in time. Writes each pair's wall times, the traced pass's spans and
garbage-collector pauses, and the outputs to OUT.json.
"""

from __future__ import annotations

import gc
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

_t0 = perf_counter()
import substrand.cli as cli  # noqa: E402

IMPORT_S = perf_counter() - _t0

from tracing import Tracer, stdout_digest  # noqa: E402


def run_pass(commands: list[dict], tracer: Tracer | None) -> tuple[float, list[dict]]:
    results = []
    start = perf_counter()
    for cmd in commands:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.command = cmd["id"]
            first = len(tracer.spans)
        with redirect_stdout(out), redirect_stderr(err):
            rc = (tracer.main if tracer else cli.main)(cmd["argv"])
        stdout = out.getvalue()
        if tracer is not None:
            written = sum(os.path.getsize(f) for f in cmd["files"] if os.path.exists(f))
            tracer.spans[first][5] = {"stdout_bytes": len(stdout.encode()), "file_bytes": written}
        results.append({"id": cmd["id"], "rc": rc, "stdout": stdout, "stderr": err.getvalue()})
    return perf_counter() - start, results


def main(plan_path: str, out_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    commands, seconds = plan["commands"], plan["seconds"]
    start = perf_counter()
    run_pass(commands, None)                 # warm-up: lazy imports, first calls
    passes, outputs, pair = [], None, 0.0
    while not passes or perf_counter() + pair - start < seconds:
        begun = perf_counter()
        tracer = Tracer()
        tracer.install()
        pauses = []

        def on_gc(phase, info):
            if phase == "start":
                pauses.append(perf_counter())
            else:
                pauses[-1] = perf_counter() - pauses[-1]

        gc.callbacks.append(on_gc)
        try:
            traced_wall, traced = run_pass(commands, tracer)
        finally:
            gc.callbacks.remove(on_gc)
            tracer.uninstall()
        untraced_wall, plain = run_pass(commands, None)
        pair = perf_counter() - begun
        if outputs is None:
            outputs = traced
        passes.append({
            "traced_wall": traced_wall,
            "untraced_wall": untraced_wall,
            "spans": tracer.spans,
            "gc_pause_s": sum(pauses),
            "gc_collections": len(pauses),
            "sha256": [stdout_digest(r["stdout"], plan["work"]) for r in traced + plain],
        })
    with open(out_path, "w") as fh:
        json.dump({"import_s": IMPORT_S, "passes": passes, "outputs": outputs}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
