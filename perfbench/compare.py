"""Compare saved benchmark outputs of two versions of substrand.

Usage::

    python3 perfbench/compare.py --base base_*.txt --new new_*.txt

Each file is the saved stdout of one ``run.py`` run. For every workload
and metric the script prints each side's median over its files, the
change, and whether it is worse than the metric's bound in
BENCHMARK.json. Files of the two sides with the same workload and seed
are also compared command by command on the sha256 of their stdout, so a
change that should keep outputs byte-identical can show that it does.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
INFO = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def load(path: str) -> tuple[dict, dict]:
    lines = Path(path).read_text().strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    values = defaultdict(lambda: ([], []))     # (workload, metric) -> (base, new)
    shas = defaultdict(lambda: [None, None])   # (workload, seed, trace) -> [base, new]
    for side, paths in enumerate((args.base, args.new)):
        for path in paths:
            report, result = load(path)
            for name, m in result["metrics"].items():
                values[(report["workload"], name)][side].append(m["value"])
            shas[(report["workload"], report["seed"], report["trace"])][side] = report["sha256"]
    regressions = 0
    print(f"{'workload':18s} {'metric':36s} {'base':>14s} {'new':>14s} {'change':>8s}  n")
    for (workload, name), (base, new) in sorted(values.items()):
        if not base or not new:
            continue
        b, n = statistics.median(base), statistics.median(new)
        info = INFO.get(name, {})
        sign = -1 if info.get("better") == "higher" else 1
        if b:
            change = (n - b) / b
        else:   # no share of 0: any move the wrong way counts as worse
            change = 0.0 if n == b else math.copysign(math.inf, n)
        worse = sign * change
        flag = ""
        if "bound" in info and worse > info["bound"]:
            flag = "  WORSE THAN BOUND"
            regressions += 1
        print(f"{workload:18s} {name:36s} {b:14.6g} {n:14.6g} {change:+8.1%}  "
              f"{len(base)}/{len(new)}{flag}")
    for key, (b, n) in sorted(shas.items()):
        if b and n:
            differ = sorted(cid for cid in b if b[cid] != n.get(cid))
            print(f"stdout {key[0]} seed {key[1]}: "
                  + ("byte-identical" if not differ else "differs in " + ", ".join(differ)))
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
