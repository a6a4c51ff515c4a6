"""Command-line surface: load rule files, run analyses, emit JSON/CSV/SVG.

Rule files (conventionally ``.sub``) use the one-rule-per-line format of
:func:`substrand.words.parse_substitution_spec`. A seed's period is its
least period, found from the rules by :func:`substrand.words.seed_period`
(at most the alphabet size). The ``num`` commands other than ``num graph``,
and ``ipset verify``, read the numeration of sigma^p (:func:`_seed_power`):
p is the start's least period, or the lcm of both for ``num sync``, so a
path at a seed of period p is a path of sigma^p's automaton; ``num graph``
prints sigma's.

One path runs every subcommand: :func:`main` reads the rule file, hands the
substitution to the subcommand's handler, and writes the one rendering the
handler's result was asked for (JSON, text or CSV) to stdout or to
``--output``, so ``--output`` and ``--format`` behave the same everywhere.
Output is JSON; ``--format text`` gives the plain rendering and is taken
only by the subcommands that have one: ``classify``, ``expand``,
``occurrences``, ``gaps``, ``num encode``, ``num decode``, ``num list`` and
``ipset verify``. ``num graph --weights`` prints CSV. ``ipset verify
--seeds`` takes the seed and factor from the witness and refuses ``--seed``
and ``--factor``; ``--generators`` gives the family and refuses ``--count``.

Exit codes: 0 on success, 1 when an ``--expect-*`` flag is set and the
analysis came back negative or when the reader closes stdout early (a broken
pipe, reported by the exit code alone), 2 on input errors and on output paths
that cannot be written. Exact integers are read and printed in full, however
many digits they have.

The default scan horizon is 100000 and can be overridden with the
``SUBSTRAND_HORIZON`` environment variable or per-command flags.
``coincide --deep`` asks once, at ``MATERIALIZE_CAP`` = 10**7, and reports
the first of the doubled horizons horizon * 2**j (capped) that reaches the
least witness, or the cap when there is none. Decided pairs are answered by
descent; only Indeterminate pairs scan: the balanced-pair closure (Sirvent &
Solomyak, Canad. Math. Bull. 45, 2002) gives the full scan's output with no
stream read. A scan's streams grow with it, so a witness found early also
stops the expansion early. numpy loads only for that scan, stable norms and
strands: streams and the occurrence and agreement scans run without it.

``expand --length``, ``num decode --max-realize`` and the horizon of
``occurrences``, ``gaps``, ``proximal`` and ``ipset search`` (from the flag or
``SUBSTRAND_HORIZON``), which read every letter below it, are capped at
``MATERIALIZE_CAP`` = 10**7 letters: a larger value exits 2 before anything
is expanded. So is the horizon of ``coincide`` and ``ipset build``, whose
scan reads every letter below it when there is no witness. ``ipset verify``
keeps an uncapped horizon: it also bounds the subset sums, which it reads
off the prefix automaton; its ``--seeds`` witness is searched below
``MATERIALIZE_CAP`` at most. ``num list --count`` and the width hi - lo + 1 of
``num sync --range`` are capped at ``NUMERATION_CAP`` = 10**6 values: a
larger value exits 2 before any path is walked. The last strand
of ``strand scan`` and ``strand export`` is capped at ``STRAND_CAP`` = 10**6
segments: one more exits 2 before any strand is inflated. The weight column of ``num
graph --weights`` is capped at ``WEIGHTS_CAP`` = 10**7 digits, and the labels
of ``num graph`` at ``MATERIALIZE_CAP`` letters, both counted from the image
lengths before any weight or edge is written. So is sigma^p at a seed of
period p > 1, at ``MATERIALIZE_CAP`` letters over its images, before any
image is built.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from itertools import combinations
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import InputError, SubstrandError

if TYPE_CHECKING:
    from .words import FixedPointStream, Substitution

DEFAULT_HORIZON = 100_000
MATERIALIZE_CAP = 10_000_000
NUMERATION_CAP = 1_000_000
STRAND_CAP = 1_000_000
WEIGHTS_CAP = 10_000_000


def _load_spec(path: str) -> Substitution:
    from .words import parse_substitution_spec

    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read spec file {path!r}: {exc}") from exc
    return parse_substitution_spec(text)


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


def _scan_horizon(args) -> int:
    """The horizon of a scan that reads every letter below it: capped like ``expand --length``."""
    horizon = _horizon(args)
    _check_cap("--horizon" if args.horizon is not None else "SUBSTRAND_HORIZON", horizon)
    return horizon


def _emit(args, payload, text) -> None:
    """Write one rendering of a handler's result: the text (``--format text``,
    or a result without a payload) or else the JSON. Either may be a function
    that builds it, so that the rendering not asked for is never built."""
    if text is not None and (payload is None or getattr(args, "format", "json") == "text"):
        body = text() if callable(text) else text
    else:
        body = json.dumps(payload() if callable(payload) else payload, indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(body + "\n")
    else:
        print(body)


def _check_cap(flag: str, value: int, cap: int = MATERIALIZE_CAP, unit: str = "letters") -> None:
    if value > cap:
        raise InputError(f"{flag} {value} exceeds the cap of {cap} {unit}")


def _stream_pair(sub: Substitution, a: str, b: str) -> tuple[FixedPointStream, FixedPointStream, int]:
    """Streams for two seeds and their common period (the lcm of the periods)."""
    from .words import FixedPointStream

    x, y = FixedPointStream(sub, a), FixedPointStream(sub, b)
    return x, y, math.lcm(x.period, y.period)


def _seed_power(sub: Substitution, *starts: str) -> Substitution:
    """sigma^p, p the lcm of the starts' least periods: the periodic points at
    the starts are the fixed points of sigma^p that the numeration reads. A
    start that is not a seed counts as period 1, for the library to refuse, or
    for ``num decode``, which decodes a path at any letter, to read sigma's."""
    from .words import seed_period

    p = math.lcm(*(seed_period(sub, s) or 1 for s in starts))
    if p > 1:  # sigma^p's images are built in full: count them first
        _check_cap(f"image length of sigma^{p}", sum(sub.image_lengths(p)), MATERIALIZE_CAP)
    return sub.power(p)


def _parse_seeds(value: str) -> tuple[str, str]:
    parts = [s.strip() for s in value.split(",")]
    if len(parts) != 2 or not all(len(s) == 1 for s in parts):
        raise InputError(f"--seeds expects two letters like 'a,b', got {value!r}")
    return parts[0], parts[1]


# ---------------------------------------------------------------------------
# subcommand handlers: each takes the parsed arguments and the rule file's
# substitution, and returns (exit code, JSON payload, text rendering) for
# main to write; a rendering the command does not have is None, and one that
# takes work to build is a function that builds it


def _cmd_classify(args, sub: Substitution):
    from . import spectral

    payload = spectral.classify(sub).to_json_dict()
    return 0, payload, lambda: "\n".join(f"{key}: {json.dumps(value, sort_keys=True)}"
                                         for key, value in sorted(payload.items()))


def _cmd_expand(args, sub: Substitution):
    from .words import FixedPointStream

    _check_cap("--length", args.length)
    stream = FixedPointStream(sub, args.seed)
    prefix = stream.prefix_text(args.length)
    return 0, {"seed": args.seed, "period": stream.period, "length": args.length, "prefix": prefix}, prefix


def _cmd_occurrences(args, sub: Substitution):
    from . import points
    from .words import FixedPointStream

    horizon = _scan_horizon(args)
    occ = points.occurrences(FixedPointStream(sub, args.seed), args.factor, horizon)
    return 0, occ.to_json_dict, occ.to_text  # each rendering makes its own Python ints


def _cmd_gaps(args, sub: Substitution):
    from . import points
    from .words import FixedPointStream

    horizon = _scan_horizon(args)
    occ = points.occurrences(FixedPointStream(sub, args.seed), args.factor, horizon)
    gap = points.max_return_gap(occ)
    payload = {"factor": str(occ.factor), "horizon": occ.horizon, "count": len(occ), "max_return_gap": gap}
    return 0, payload, str(gap)


def _cmd_proximal(args, sub: Substitution):
    from . import points

    horizon = _scan_horizon(args)
    x, y, _ = _stream_pair(sub, *_parse_seeds(args.seeds))
    evidence = points.proximality_scan(x, y, args.min_window, horizon)
    code = int(args.expect_evidence and evidence.verdict != points.EVIDENCE_FOR)
    return code, evidence.to_json_dict(), None


def _coincide_pair(sub: Substitution, a: str, b: str, horizon: int, deep: bool):
    """The verdict at ``horizon``; with ``deep`` and no witness, the verdict at
    the first of horizon * 2**j (capped at MATERIALIZE_CAP) that holds one.

    The least witness does not depend on the horizon, so one call at the cap
    finds it, and the doubled horizon it is reported at follows from its index.
    """
    from . import coincidence as coin

    x, y, period = _stream_pair(sub, a, b)
    verdict = coin.find_strong_coincidence(x, y, max(horizon, MATERIALIZE_CAP) if deep else horizon)
    if verdict.found:
        while horizon <= verdict.witness.index:
            horizon = min(2 * horizon, MATERIALIZE_CAP)
        verdict = coin.CoincidenceVerdict(horizon, verdict.witness)
    return verdict, period


def _cmd_coincide(args, sub: Substitution):
    from .words import list_periodic_seeds

    horizon = _scan_horizon(args)
    if horizon < 1:  # refused before any pair is read, and before the deep scan lifts it to the cap
        raise InputError("horizon must be >= 1")
    if args.seeds:
        pairs = [_parse_seeds(args.seeds)]
    else:
        seeds = [s for s, _ in list_periodic_seeds(sub)]
        pairs = list(combinations(seeds, 2))
    results = []
    all_found = bool(pairs)
    for a, b in pairs:
        verdict, period = _coincide_pair(sub, a, b, horizon, args.deep)
        results.append({"seeds": [a, b], "period": period, **verdict.to_json_dict()})
        all_found = all_found and verdict.found
    return int(args.expect_witness and not all_found), {"pairs": results}, None


def _cmd_num_graph(args, sub: Substitution):
    from . import numeration

    if args.weights is None:
        # the labels of an image of length L hold L(L-1)/2 letters
        _check_cap("label length", sum(n * (n - 1) // 2 for n in sub.image_lengths(1)), MATERIALIZE_CAP)
        return 0, numeration.prefix_automaton(sub), None
    if args.weights < 0:
        raise InputError(f"--weights must be >= 0, got {args.weights}")
    _check_weight_digits(sub, args.weights)
    rows = ["letter,prefix,level,weight"]
    for letter in sub.alphabet:
        image = sub.image(letter)
        for prefix in (image[:k] for k in range(len(image))):
            rows += (f"{letter},{prefix},{level},{sub.image_length(prefix, level)}"
                     for level in range(args.weights + 1))
    return 0, None, "\n".join(rows)


def _check_weight_digits(sub: Substitution, levels: int) -> None:
    """Refuse ``--weights levels`` once the weight column would pass
    WEIGHTS_CAP digits: a weight of a proper prefix of sigma(a) at level k is
    below |sigma^(k+1)(a)|, and sigma(a) has |sigma(a)| such prefixes."""
    rows = sub.image_lengths(1)
    digits = 0
    for level in range(levels + 1):
        digits += sum(r * len(str(n)) for r, n in zip(rows, sub.image_lengths(level + 1)))
        if digits > WEIGHTS_CAP:
            raise InputError(f"--weights {levels} exceeds the cap of {WEIGHTS_CAP} digits "
                             f"({digits} by level {level})")


def _cmd_num_encode(args, sub: Substitution):
    from . import numeration

    path = numeration.encode_integer(_seed_power(sub, args.start), args.start, args.value)
    rendered = numeration.format_path(path)
    labels = [str(u) for u in path.labels]
    return 0, {"value": args.value, "start": args.start, "path": rendered, "labels": labels}, rendered


def _cmd_num_decode(args, sub: Substitution):
    from . import numeration

    realize_cap = numeration.DEFAULT_REALIZE_CAP if args.max_realize is None else args.max_realize
    if realize_cap < 0:
        raise InputError(f"--max-realize must be >= 0, got {realize_cap}")
    _check_cap("--max-realize", realize_cap)
    path = numeration.parse_path(sub, args.path)
    decoded = numeration.decode_path(_seed_power(sub, path.start), path, realize_cap=realize_cap)
    return 0, decoded.to_json_dict, lambda: str(decoded.value)


def _cmd_num_list(args, sub: Substitution):
    from . import numeration

    _check_cap("--count", args.count, NUMERATION_CAP, "values")
    paths = numeration.enumerate_paths(_seed_power(sub, args.start), args.start, args.count)
    rendered = [numeration.format_path(p) for p in paths]
    return 0, {"start": args.start, "paths": rendered}, (
        lambda: "\n".join(f"{k}\t{r}" for k, r in enumerate(rendered)))


def _cmd_num_sync(args, sub: Substitution):
    from . import numeration

    lo, hi = args.range
    _check_cap("--range width", hi - lo + 1, NUMERATION_CAP, "values")
    starts = _parse_seeds(args.starts)
    scan = numeration.synchronizing_scan(_seed_power(sub, *starts), *starts, (lo, hi))
    return 0, scan.to_json_dict(), None


def _witness_family(sub: Substitution, a: str, b: str, horizon: int, count: int):
    """The least witness of the seeds below the horizon (searched below
    MATERIALIZE_CAP at most), and the family of ``count`` generators built from
    it under sigma^p (:func:`_seed_power`), and sigma^p (all None without a
    witness)."""
    from . import coincidence as coin, ipsets

    x, y, _ = _stream_pair(sub, a, b)
    witness = coin.find_strong_coincidence(x, y, min(horizon, MATERIALIZE_CAP)).witness
    if witness is None:
        return None, None, None
    power = _seed_power(sub, a, b)
    return witness, ipsets.build_fs_family(power, witness, count), power


def _cmd_ipset_build(args, sub: Substitution):
    horizon = _scan_horizon(args)
    witness, family, _ = _witness_family(sub, *_parse_seeds(args.seeds), horizon, args.count)
    if witness is None:
        return 1, {"witness": None, "horizon": horizon, "family": None}, None
    return 0, {"witness": witness.to_json_dict(), "family": family.to_json_dict()}, None


def _cmd_ipset_verify(args, sub: Substitution):
    from . import ipsets

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
        start, factor, power = args.seed, args.factor, _seed_power(sub, args.seed)
    else:
        if not args.seeds:
            raise InputError("provide either --generators with --seed/--factor, or --seeds")
        starts = _parse_seeds(args.seeds)
        count = 2 if args.count is None else args.count
        _, family, power = _witness_family(sub, *starts, horizon, count)
        if family is None:
            return 1, {"witness": None, "verdict": "no-witness"}, None
        start, factor = starts[0], family.provenance.target_letter
    if args.horizon is None:  # cover the largest sum, so that every sum is checked
        horizon = max(horizon, sum(family.generators) + len(factor) + 1)
    verification = ipsets.verify_finite_sums(family, power, start, factor, horizon, args.max_subset_size)
    code = int(args.expect_pass and verification.verdict != "pass")
    return code, verification.to_json_dict, verification.to_text


def _cmd_ipset_search(args, sub: Substitution):
    from . import ipsets, points
    from .words import FixedPointStream

    horizon = _scan_horizon(args)
    occ = points.occurrences(FixedPointStream(sub, args.seed), args.factor, horizon)
    family = ipsets.search_ip_witness(occ, args.depth)
    if family is None:
        return int(args.expect_found), {"found": False, "depth": args.depth, "horizon": horizon}, None
    return 0, {"found": True, "family": family.to_json_dict()}, None


def _strand_ingredients(args, sub: Substitution):
    from . import spectral, strand
    from .words import list_periodic_seeds

    report = spectral.classify(sub)
    matrix = spectral.abelianization_matrix(sub)
    splitting = strand.invariant_splitting(report, matrix)
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
        segments = sub.image_length(word, level)
        if segments > STRAND_CAP:
            raise InputError(f"--iterations {args.iterations} exceeds the cap of {STRAND_CAP} "
                             f"segments ({segments} after {level} inflations)")
    seed = strand.build_strand(word)
    scan = strand.stability_scan(sub, seed, args.iterations, splitting)
    return splitting, scan


def _cmd_strand_scan(args, sub: Substitution):
    _, scan = _strand_ingredients(args, sub)
    return 0, scan.to_json_dict(), None


def _cmd_strand_export(args, sub: Substitution):
    if not args.csv and not args.svg:
        raise InputError("strand export needs --csv and/or --svg")
    from . import strand

    splitting, scan = _strand_ingredients(args, sub)
    written = {}
    if args.csv:
        with open(args.csv, "w") as fh:
            written["csv_rows"] = strand.write_scan_csv(scan, splitting, fh)
        written["csv"] = args.csv
    if args.svg:
        with open(args.svg, "w") as fh:
            written["svg_points"] = strand.write_stable_scatter_svg(
                scan.strands[-1], splitting, fh
            )
        written["svg"] = args.svg
    return 0, {**written, **scan.to_json_dict()}, None


# ---------------------------------------------------------------------------
# parser assembly


class _Parser(argparse.ArgumentParser):
    """No option starts with a digit, so a token like "-3,5" or "-5:3" is a
    value, for the handler to check, not an unknown option; subcommand
    parsers take the class of their parent."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\d")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="substrand",
        description="Analyze substitutions: classification, coincidence, numeration, IP sets, strands.",
    )
    # every subcommand takes the rule file and --output; those with a text
    # rendering also take --format
    plain = argparse.ArgumentParser(add_help=False)
    plain.add_argument("spec")
    plain.add_argument("--output", help="write the result to this file instead of stdout")
    formatted = argparse.ArgumentParser(add_help=False, parents=[plain])
    formatted.add_argument("--format", choices=("json", "text"), default="json")

    def command(group, name, common, handler, help):
        p = group.add_parser(name, parents=[common], help=help)
        p.set_defaults(handler=handler)
        return p

    sub = parser.add_subparsers(dest="command", required=True)

    command(sub, "classify", formatted, _cmd_classify, "spectral classification report")

    p = command(sub, "expand", formatted, _cmd_expand, "prefix of a fixed/periodic point")
    p.add_argument("--seed", required=True)
    p.add_argument("--length", type=int, required=True)

    p = command(sub, "occurrences", formatted, _cmd_occurrences, "occurrence positions of a factor")
    p.add_argument("--seed", required=True)
    p.add_argument("--factor", required=True)
    p.add_argument("--horizon", type=int, default=None)

    p = command(sub, "gaps", formatted, _cmd_gaps, "largest return gap of a factor")
    p.add_argument("--seed", required=True)
    p.add_argument("--factor", required=True)
    p.add_argument("--horizon", type=int, default=None)

    p = command(sub, "proximal", plain, _cmd_proximal, "agreement-window scan between two fixed points")
    p.add_argument("--seeds", required=True)
    p.add_argument("--min-window", type=int, default=4)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--expect-evidence", action="store_true")

    p = command(sub, "coincide", plain, _cmd_coincide, "strong-coincidence witness search")
    p.add_argument("--seeds", default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--deep", action="store_true", help="with no witness below the horizon, scan once more, to 1e7")
    p.add_argument("--expect-witness", action="store_true")

    num = sub.add_parser("num", help="prefix-automaton numeration").add_subparsers(
        dest="num_command", required=True
    )
    p = command(num, "graph", plain, _cmd_num_graph, "the prefix automaton as JSON (or weight CSV)")
    p.add_argument("--weights", type=int, default=None, metavar="LEVELS")

    p = command(num, "encode", formatted, _cmd_num_encode, "integer -> path")
    p.add_argument("--start", required=True)
    p.add_argument("value", type=int)

    p = command(num, "decode", formatted, _cmd_num_decode, "path text -> integer")
    p.add_argument("path")
    p.add_argument("--max-realize", type=int, default=None)

    p = command(num, "list", formatted, _cmd_num_list, "first paths in increasing order")
    p.add_argument("--start", required=True)
    p.add_argument("--count", type=int, default=10)

    p = command(num, "sync", plain, _cmd_num_sync, "synchronizing values between two seeds")
    p.add_argument("--starts", required=True)
    p.add_argument("--range", type=_parse_range, required=True, metavar="LO:HI")

    ipset = sub.add_parser("ipset", help="finite-sums witnesses").add_subparsers(
        dest="ipset_command", required=True
    )
    p = command(ipset, "build", plain, _cmd_ipset_build, "generators from a coincidence witness")
    p.add_argument("--seeds", required=True)
    p.add_argument("--count", type=int, default=2)
    p.add_argument("--horizon", type=int, default=None)

    p = command(ipset, "verify", formatted, _cmd_ipset_verify, "test subset sums against occurrences")
    p.add_argument("--seeds", default=None)
    p.add_argument("--generators", default=None)
    p.add_argument("--seed", default=None)
    p.add_argument("--factor", default=None)
    p.add_argument("--count", type=int, default=None, help="with --seeds: generators to build (default 2)")
    p.add_argument("--max-subset-size", type=int, default=3)
    p.add_argument("--horizon", type=int, default=None,
                   help="default: large enough to check every subset sum")
    p.add_argument("--expect-pass", action="store_true")

    p = command(ipset, "search", plain, _cmd_ipset_search, "backtracking generator search")
    p.add_argument("--seed", required=True)
    p.add_argument("--factor", required=True)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--expect-found", action="store_true")

    st = sub.add_parser("strand", help="strand geometry").add_subparsers(
        dest="strand_command", required=True
    )
    p = command(st, "scan", plain, _cmd_strand_scan, "stable-norm envelopes under inflation")
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--seed-word", default=None)

    p = command(st, "export", plain, _cmd_strand_export, "CSV/SVG export of a stability scan")
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--seed-word", default=None)
    p.add_argument("--csv", default=None)
    p.add_argument("--svg", default=None)

    return parser


def _parse_range(value: str) -> tuple[int, int]:
    try:
        lo, hi = value.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {value!r}")


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # exact integers print in full, past 4300 digits too
        sys.set_int_max_str_digits(0)
    try:
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code else 0
        code, payload, text = args.handler(args, _load_spec(args.spec))
        _emit(args, payload, text)
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
