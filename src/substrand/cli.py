"""Command-line surface: load rule files, run analyses, emit JSON/CSV/SVG.

Rule files (conventionally ``.sub``) use the one-rule-per-line format of
:func:`substrand.words.parse_substitution_spec`. A seed's period is its
least period, found from the rules by :func:`substrand.words.seed_period`
(at most the alphabet size).

Output is JSON; ``--format text`` gives the plain rendering and is taken
only by the subcommands that have one: ``classify``, ``expand``,
``occurrences``, ``gaps``, ``num encode``, ``num decode``, ``num list`` and
``ipset verify``. ``ipset verify --seeds`` takes the seed and factor from
the witness and refuses ``--seed`` and ``--factor``; ``--generators`` gives
the family and refuses ``--count``.

Exit codes: 0 on success, 1 when an ``--expect-*`` flag is set and the
analysis came back negative or when the reader closes stdout early (a broken
pipe, reported by the exit code alone), 2 on input errors and on output paths
that cannot be written.

The default scan horizon is 100000 and can be overridden with the
``SUBSTRAND_HORIZON`` environment variable or per-command flags. When no
witness lies below the horizon, ``coincide --deep`` scans once more, to
``DEEP_HORIZON_CAP`` = 10**7, and reports the first of the doubled horizons
horizon * 2**j (capped) that reaches the least witness, or the cap when there
is none. The streams grow with the scan, so a witness found early also stops
the expansion early. When the balanced-pair closure (Sirvent & Solomyak,
Canad. Math. Bull. 45, 2002) proves there is no witness, that scan stops once
it has seen every D value of the closure, and prints what the full scan does.

``expand --length`` and ``num decode --max-realize`` are capped at
``MATERIALIZE_CAP`` = 10**7 letters: a larger value exits 2 before anything
is expanded. ``num list --count`` and the width hi - lo + 1 of ``num sync
--range`` are capped at ``NUMERATION_CAP`` = 10**6 values: a larger value
exits 2 before the prefix automaton is built. The last strand of ``strand
scan`` and ``strand export`` is capped at ``STRAND_CAP`` = 10**6 segments:
one more exits 2 before any strand is inflated.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from itertools import combinations
from pathlib import Path

from . import coincidence as coin
from . import ipsets, numeration, points, spectral, strand as strand_mod
from .errors import InputError, SubstrandError
from .words import FixedPointStream, Substitution, SubstitutionSpec, list_periodic_seeds
from .words import parse_substitution_spec

DEFAULT_HORIZON = 100_000
DEEP_HORIZON_CAP = 10_000_000
MATERIALIZE_CAP = 10_000_000
NUMERATION_CAP = 1_000_000
STRAND_CAP = 1_000_000


def _load_spec(path: str) -> SubstitutionSpec:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise InputError(f"cannot read spec file {path!r}: {exc}") from exc
    return parse_substitution_spec(text, name=p.stem)


def _default_horizon() -> int:
    raw = os.environ.get("SUBSTRAND_HORIZON")
    if raw is None:
        return DEFAULT_HORIZON
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"SUBSTRAND_HORIZON must be an integer, got {raw!r}")
    if value < 1:
        raise InputError("SUBSTRAND_HORIZON must be >= 1")
    return value


def _horizon(args) -> int:
    return args.horizon if args.horizon is not None else _default_horizon()


def _emit(args, payload, text: str | None = None) -> None:
    """JSON by default; ``--format text`` uses the plain rendering if given."""
    if getattr(args, "format", "json") == "text" and text is not None:
        body = text
    else:
        body = json.dumps(payload, indent=2, sort_keys=True)
    out_path = getattr(args, "output", None)
    if out_path:
        Path(out_path).write_text(body + "\n")
    else:
        print(body)


def _check_cap(flag: str, value: int, cap: int = MATERIALIZE_CAP, unit: str = "letters") -> None:
    if value > cap:
        raise InputError(f"{flag} {value} exceeds the cap of {cap} {unit}")


def _stream_pair(sub: Substitution, a: str, b: str) -> tuple[FixedPointStream, FixedPointStream, int]:
    """Streams for two seeds and their common period (the lcm of the periods)."""
    x, y = FixedPointStream(sub, a), FixedPointStream(sub, b)
    return x, y, math.lcm(x.period, y.period)


def _parse_seeds(value: str) -> tuple[str, str]:
    parts = [s.strip() for s in value.split(",")]
    if len(parts) != 2 or not all(len(s) == 1 for s in parts):
        raise InputError(f"--seeds expects two letters like 'a,b', got {value!r}")
    return parts[0], parts[1]


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_classify(args) -> int:
    spec = _load_spec(args.spec)
    report = spectral.classify(spec.substitution)
    payload = report.to_json_dict()
    lines = [f"{key}: {json.dumps(value, sort_keys=True)}" for key, value in sorted(payload.items())]
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_expand(args) -> int:
    _check_cap("--length", args.length)
    spec = _load_spec(args.spec)
    stream = FixedPointStream(spec.substitution, args.seed)
    prefix = stream.prefix_text(args.length)
    _emit(
        args,
        {"seed": args.seed, "period": stream.period, "length": args.length, "prefix": prefix},
        prefix,
    )
    return 0


def _cmd_occurrences(args) -> int:
    spec = _load_spec(args.spec)
    stream = FixedPointStream(spec.substitution, args.seed)
    occ = points.occurrences(stream, args.factor, _horizon(args))
    _emit(args, occ.to_json_dict(), occ.to_text())
    return 0


def _cmd_gaps(args) -> int:
    spec = _load_spec(args.spec)
    stream = FixedPointStream(spec.substitution, args.seed)
    occ = points.occurrences(stream, args.factor, _horizon(args))
    gap = points.max_return_gap(occ)
    payload = {
        "factor": str(occ.factor),
        "horizon": occ.horizon,
        "count": len(occ),
        "max_return_gap": gap,
    }
    _emit(args, payload, str(gap))
    return 0


def _cmd_proximal(args) -> int:
    spec = _load_spec(args.spec)
    a, b = _parse_seeds(args.seeds)
    x, y, _ = _stream_pair(spec.substitution, a, b)
    evidence = points.proximality_scan(x, y, args.min_window, _horizon(args))
    _emit(args, evidence.to_json_dict())
    if args.expect_evidence and evidence.verdict != points.EVIDENCE_FOR:
        return 1
    return 0


def _coincide_pair(sub: Substitution, a: str, b: str, horizon: int, deep: bool):
    """The verdict at ``horizon``; with ``deep`` and no witness, the verdict at
    the first of horizon * 2**j (capped at DEEP_HORIZON_CAP) that holds one.

    The least witness does not depend on the horizon, so one scan to the cap
    finds it, and the doubled horizon it is reported at follows from its index.
    When the balanced-pair closure proves there is no witness, that scan
    stops once it has seen every closure D value.
    """
    x, y, period = _stream_pair(sub, a, b)
    verdict = coin.find_strong_coincidence(x, y, horizon)
    if deep and not verdict.found and horizon < DEEP_HORIZON_CAP:
        closure = coin.balanced_pair_closure(x, y)
        if closure.verdict == coin.NO_WITNESS:
            return coin.verdict_without_witness(x, y, DEEP_HORIZON_CAP, closure.delta_values), period
        verdict = coin.find_strong_coincidence(x, y, DEEP_HORIZON_CAP)
        if verdict.found:
            while horizon <= verdict.witness.index:
                horizon = min(2 * horizon, DEEP_HORIZON_CAP)
            verdict = replace(verdict, horizon=horizon)
    return verdict, period


def _cmd_coincide(args) -> int:
    spec = _load_spec(args.spec)
    sub = spec.substitution
    if args.seeds:
        pairs = [_parse_seeds(args.seeds)]
    else:
        seeds = [s for s, _ in list_periodic_seeds(sub)]
        pairs = list(combinations(seeds, 2))
    results = []
    all_found = bool(pairs)
    for a, b in pairs:
        verdict, period = _coincide_pair(sub, a, b, _horizon(args), args.deep)
        entry = {"seeds": [a, b], "period": period}
        entry.update(verdict.to_json_dict())
        results.append(entry)
        all_found = all_found and verdict.found
    _emit(args, {"pairs": results})
    if args.expect_witness and not all_found:
        return 1
    return 0


def _cmd_num_graph(args) -> int:
    if args.weights is not None and args.weights < 0:
        raise InputError(f"--weights must be >= 0, got {args.weights}")
    spec = _load_spec(args.spec)
    graph = numeration.build_prefix_graph(spec.substitution)
    if args.weights is not None:
        rows = ["letter,prefix,level,weight"]
        for letter in spec.substitution.alphabet:
            image = spec.substitution.image(letter)
            for k in range(len(image)):
                prefix = image[:k]
                for level in range(args.weights + 1):
                    rows.append(
                        f"{letter},{prefix},{level},{graph.weight(level, prefix)}"
                    )
        body = "\n".join(rows)
        if args.output:
            Path(args.output).write_text(body + "\n")
        else:
            print(body)
        return 0
    _emit(args, graph.to_json_dict())
    return 0


def _cmd_num_encode(args) -> int:
    spec = _load_spec(args.spec)
    graph = numeration.build_prefix_graph(spec.substitution)
    path = numeration.encode_integer(graph, args.start, args.value)
    rendered = numeration.format_path(path, spec.substitution.alphabet)
    _emit(
        args,
        {"value": args.value, "start": args.start, "path": rendered,
         "labels": [str(u) for u in path.labels]},
        rendered,
    )
    return 0


def _cmd_num_decode(args) -> int:
    if args.max_realize < 0:
        raise InputError(f"--max-realize must be >= 0, got {args.max_realize}")
    _check_cap("--max-realize", args.max_realize)
    spec = _load_spec(args.spec)
    graph = numeration.build_prefix_graph(spec.substitution)
    path = numeration.parse_path(spec.substitution, args.path)
    decoded = numeration.decode_path(graph, path, realize_cap=args.max_realize)
    _emit(args, decoded.to_json_dict(), str(decoded.value))
    return 0


def _cmd_num_list(args) -> int:
    _check_cap("--count", args.count, NUMERATION_CAP, "values")
    spec = _load_spec(args.spec)
    graph = numeration.build_prefix_graph(spec.substitution)
    paths = numeration.enumerate_paths(graph, args.start, args.count)
    rendered = [numeration.format_path(p, spec.substitution.alphabet) for p in paths]
    text = "\n".join(f"{k}\t{r}" for k, r in enumerate(rendered))
    _emit(args, {"start": args.start, "paths": rendered}, text)
    return 0


def _cmd_num_sync(args) -> int:
    lo, hi = args.range
    _check_cap("--range width", hi - lo + 1, NUMERATION_CAP, "values")
    spec = _load_spec(args.spec)
    graph = numeration.build_prefix_graph(spec.substitution)
    a, b = _parse_seeds(args.starts)
    scan = numeration.synchronizing_scan(graph, a, b, (lo, hi))
    _emit(args, scan.to_json_dict())
    return 0


def _cmd_ipset_build(args) -> int:
    spec = _load_spec(args.spec)
    sub = spec.substitution
    horizon = _horizon(args)
    a, b = _parse_seeds(args.seeds)
    x, y, period = _stream_pair(sub, a, b)
    verdict = coin.find_strong_coincidence(x, y, horizon)
    if not verdict.found:
        _emit(args, {"witness": None, "horizon": horizon, "family": None})
        return 1
    family = ipsets.build_fs_family(sub.power(period), verdict.witness, args.count)
    _emit(args, {"witness": verdict.witness.to_json_dict(), "family": family.to_json_dict()})
    return 0


def _cmd_ipset_verify(args) -> int:
    spec = _load_spec(args.spec)
    sub = spec.substitution
    horizon = _horizon(args)
    if args.seeds and (args.seed or args.factor):
        raise InputError("--seeds takes the seed and factor from the witness; drop --seed and --factor")
    if args.generators:
        if args.count is not None:
            raise InputError("--generators gives the family itself; drop --count")
        if not args.seed or not args.factor:
            raise InputError("--generators needs --seed and --factor")
        try:
            generators = tuple(int(g) for g in args.generators.split(","))
        except ValueError:
            raise InputError(f"--generators expects integers, got {args.generators!r}")
        family = ipsets.FsFamily(generators, ipsets.SEARCHED)
        start, factor = args.seed, args.factor
        period = FixedPointStream(sub, start).period
    else:
        if not args.seeds:
            raise InputError("provide either --generators with --seed/--factor, or --seeds")
        start, b = _parse_seeds(args.seeds)
        x, y, period = _stream_pair(sub, start, b)
        verdict = coin.find_strong_coincidence(x, y, horizon)
        if not verdict.found:
            _emit(args, {"witness": None, "verdict": "no-witness"})
            return 1
        count = 2 if args.count is None else args.count
        family = ipsets.build_fs_family(sub.power(period), verdict.witness, count)
        factor = family.provenance.target_letter
    if args.horizon is None:  # cover the largest sum, so that every sum is checked
        horizon = max(horizon, sum(family.generators) + len(factor) + 1)
    graph = numeration.build_prefix_graph(sub.power(period))
    verification = ipsets.verify_finite_sums(
        family, graph, start, factor, horizon, args.max_subset_size
    )
    _emit(args, verification.to_json_dict(), verification.to_text())
    if args.expect_pass and verification.verdict != "pass":
        return 1
    return 0


def _cmd_ipset_search(args) -> int:
    spec = _load_spec(args.spec)
    stream = FixedPointStream(spec.substitution, args.seed)
    horizon = _horizon(args)
    occ = points.occurrences(stream, args.factor, horizon)
    family = ipsets.search_ip_witness(occ, args.depth)
    if family is None:
        _emit(args, {"found": False, "depth": args.depth, "horizon": horizon})
        return 1 if args.expect_found else 0
    _emit(args, {"found": True, "family": family.to_json_dict()})
    return 0


def _strand_ingredients(args):
    spec = _load_spec(args.spec)
    sub = spec.substitution
    report = spectral.classify(sub)
    matrix = spectral.abelianization_matrix(sub)
    splitting = strand_mod.invariant_splitting(report, matrix)
    if args.seed_word:
        word = sub.alphabet.word(args.seed_word)
    else:
        seeds = list_periodic_seeds(sub)
        if not seeds:
            raise InputError("no periodic seed found for a default seed word")
        word = sub.alphabet.word(seeds[0][0])
    # the length of sigma^k(word) never falls as k grows (no image is empty) and,
    # on the irreducible Pisot inputs the splitting accepts, passes any bound
    for level in range(1, args.iterations + 1):
        lengths = sub.image_lengths(level)
        segments = sum(lengths[i] for i in word.indices)
        if segments > STRAND_CAP:
            raise InputError(f"--iterations {args.iterations} exceeds the cap of {STRAND_CAP} "
                             f"segments ({segments} after {level} inflations)")
    seed = strand_mod.build_strand(word)
    scan = strand_mod.stability_scan(sub, seed, args.iterations, splitting)
    return sub, splitting, scan


def _cmd_strand_scan(args) -> int:
    _, _, scan = _strand_ingredients(args)
    _emit(args, scan.to_json_dict())
    return 0


def _cmd_strand_export(args) -> int:
    if not args.csv and not args.svg:
        raise InputError("strand export needs --csv and/or --svg")
    _, splitting, scan = _strand_ingredients(args)
    written = {}
    if args.csv:
        with open(args.csv, "w") as fh:
            written["csv_rows"] = strand_mod.write_scan_csv(scan, splitting, fh)
        written["csv"] = args.csv
    if args.svg:
        with open(args.svg, "w") as fh:
            written["svg_points"] = strand_mod.write_stable_scatter_svg(
                scan.strands[-1], splitting, fh
            )
        written["svg"] = args.svg
    written.update(scan.to_json_dict())
    _emit(args, written)
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(p, *, fmt=True):
    if fmt:
        p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--output", help="write the result to this file instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="substrand",
        description="Analyze substitutions: classification, coincidence, numeration, IP sets, strands.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="spectral classification report")
    p.add_argument("spec")
    _add_common(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("expand", help="prefix of a fixed/periodic point")
    p.add_argument("spec")
    p.add_argument("--seed", required=True)
    p.add_argument("--length", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser("occurrences", help="occurrence positions of a factor")
    p.add_argument("spec")
    p.add_argument("--seed", required=True)
    p.add_argument("--factor", required=True)
    p.add_argument("--horizon", type=int, default=None)
    _add_common(p)
    p.set_defaults(handler=_cmd_occurrences)

    p = sub.add_parser("gaps", help="largest return gap of a factor")
    p.add_argument("spec")
    p.add_argument("--seed", required=True)
    p.add_argument("--factor", required=True)
    p.add_argument("--horizon", type=int, default=None)
    _add_common(p)
    p.set_defaults(handler=_cmd_gaps)

    p = sub.add_parser("proximal", help="agreement-window scan between two fixed points")
    p.add_argument("spec")
    p.add_argument("--seeds", required=True)
    p.add_argument("--min-window", type=int, default=4)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--expect-evidence", action="store_true")
    _add_common(p, fmt=False)
    p.set_defaults(handler=_cmd_proximal)

    p = sub.add_parser("coincide", help="strong-coincidence witness search")
    p.add_argument("spec")
    p.add_argument("--seeds", default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--deep", action="store_true", help="with no witness below the horizon, scan once more, to 1e7")
    p.add_argument("--expect-witness", action="store_true")
    _add_common(p, fmt=False)
    p.set_defaults(handler=_cmd_coincide)

    num = sub.add_parser("num", help="prefix-automaton numeration").add_subparsers(
        dest="num_command", required=True
    )
    p = num.add_parser("graph", help="the prefix automaton as JSON (or weight CSV)")
    p.add_argument("spec")
    p.add_argument("--weights", type=int, default=None, metavar="LEVELS")
    _add_common(p, fmt=False)
    p.set_defaults(handler=_cmd_num_graph)

    p = num.add_parser("encode", help="integer -> path")
    p.add_argument("spec")
    p.add_argument("--start", required=True)
    p.add_argument("value", type=int)
    _add_common(p)
    p.set_defaults(handler=_cmd_num_encode)

    p = num.add_parser("decode", help="path text -> integer")
    p.add_argument("spec")
    p.add_argument("path")
    p.add_argument("--max-realize", type=int, default=numeration.DEFAULT_REALIZE_CAP)
    _add_common(p)
    p.set_defaults(handler=_cmd_num_decode)

    p = num.add_parser("list", help="first paths in increasing order")
    p.add_argument("spec")
    p.add_argument("--start", required=True)
    p.add_argument("--count", type=int, default=10)
    _add_common(p)
    p.set_defaults(handler=_cmd_num_list)

    p = num.add_parser("sync", help="synchronizing values between two seeds")
    p.add_argument("spec")
    p.add_argument("--starts", required=True)
    p.add_argument("--range", type=_parse_range, required=True, metavar="LO:HI")
    _add_common(p, fmt=False)
    p.set_defaults(handler=_cmd_num_sync)

    ipset = sub.add_parser("ipset", help="finite-sums witnesses").add_subparsers(
        dest="ipset_command", required=True
    )
    p = ipset.add_parser("build", help="generators from a coincidence witness")
    p.add_argument("spec")
    p.add_argument("--seeds", required=True)
    p.add_argument("--count", type=int, default=2)
    p.add_argument("--horizon", type=int, default=None)
    _add_common(p, fmt=False)
    p.set_defaults(handler=_cmd_ipset_build)

    p = ipset.add_parser("verify", help="test subset sums against occurrences")
    p.add_argument("spec")
    p.add_argument("--seeds", default=None)
    p.add_argument("--generators", default=None)
    p.add_argument("--seed", default=None)
    p.add_argument("--factor", default=None)
    p.add_argument("--count", type=int, default=None, help="with --seeds: generators to build (default 2)")
    p.add_argument("--max-subset-size", type=int, default=3)
    p.add_argument("--horizon", type=int, default=None,
                   help="default: large enough to check every subset sum")
    p.add_argument("--expect-pass", action="store_true")
    _add_common(p)
    p.set_defaults(handler=_cmd_ipset_verify)

    p = ipset.add_parser("search", help="backtracking generator search")
    p.add_argument("spec")
    p.add_argument("--seed", required=True)
    p.add_argument("--factor", required=True)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--expect-found", action="store_true")
    _add_common(p, fmt=False)
    p.set_defaults(handler=_cmd_ipset_search)

    st = sub.add_parser("strand", help="strand geometry").add_subparsers(
        dest="strand_command", required=True
    )
    p = st.add_parser("scan", help="stable-norm envelopes under inflation")
    p.add_argument("spec")
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--seed-word", default=None)
    _add_common(p, fmt=False)
    p.set_defaults(handler=_cmd_strand_scan)

    p = st.add_parser("export", help="CSV/SVG export of a stability scan")
    p.add_argument("spec")
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--seed-word", default=None)
    p.add_argument("--csv", default=None)
    p.add_argument("--svg", default=None)
    _add_common(p, fmt=False)
    p.set_defaults(handler=_cmd_strand_export)

    return parser


def _parse_range(value: str) -> tuple[int, int]:
    try:
        lo, hi = value.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {value!r}")


def main(argv=None) -> int:
    try:
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code else 0
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except SubstrandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so the
        # interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:  # an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
