"""Finite-sums (IP) witnesses for occurrence sets.

Two constructions live here. From a strong-coincidence witness one can build
generators n_i directly: after raising the substitution to a power under
which the witness prefixes embed into single images, the paths

    p_i = s, r, e, e, ..., e      (2i empty labels)

run from the first fixed point's seed to the second's, so each value
n_i = |sigma^(2i+1)(s)| + |sigma^(2i)(r)| is an occurrence of the target
letter, and abelian equivalence of the two witness prefixes makes every
finite sum of distinct n_i an occurrence as well. Alternatively,
:func:`search_ip_witness` hunts for generators inside an arbitrary
occurrence set by backtracking over subset sums.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations

from .coincidence import CoincidenceWitness
from .errors import InputError
from .numeration import PathRepresentation, PrefixGraph, build_prefix_graph, decode_path, letter_at
from .points import OccurrenceSet
from .words import Substitution, Word, apply_substitution

SEARCHED = "searched"
# highest power of the substitution tried for embedding a witness
POWER_CAP = 8


@dataclass(frozen=True)
class FsProvenance:
    """How a path-built family arose: the power used and the edge words."""

    power: int
    prefix_x: Word      # s: witness prefix on the first fixed point
    prefix_y: Word      # t: witness prefix on the second fixed point
    shared_letter: str  # c: the common letter after both prefixes
    connector: Word     # r: image prefix of c before the first target letter
    target_letter: str  # b: seed of the second fixed point; sums land in x|_b
    start_letter: str   # a: seed of the first fixed point
    paths: tuple[PathRepresentation, ...]

    def to_json_dict(self) -> dict:
        return {
            "power": self.power,
            "prefix_x": str(self.prefix_x),
            "prefix_y": str(self.prefix_y),
            "shared_letter": self.shared_letter,
            "connector": str(self.connector),
            "target_letter": self.target_letter,
            "start_letter": self.start_letter,
            "paths": [p.to_json_dict() for p in self.paths],
        }


@dataclass(frozen=True)
class FsFamily:
    """Strictly increasing generators whose finite sums are to be occurrences."""

    generators: tuple[int, ...]
    provenance: FsProvenance | str

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.generators, self.generators[1:])):
            raise InputError("generators must be strictly increasing")
        if any(g < 0 for g in self.generators):
            raise InputError("generators must be >= 0")

    def to_json_dict(self) -> dict:
        prov = (
            self.provenance
            if isinstance(self.provenance, str)
            else self.provenance.to_json_dict()
        )
        return {"generators": list(self.generators), "provenance": prov}


def build_fs_family(
    sub: Substitution,
    witness: CoincidenceWitness,
    count: int,
) -> FsFamily:
    """Generators n_i from a validated strong-coincidence witness.

    The power of the substitution is raised (up to POWER_CAP) until the
    witness prefixes followed by the shared letter are prefixes of the two
    seed images and the target letter occurs in the shared letter's image;
    the first such occurrence fixes the connector word.
    """
    if count < 0:
        raise InputError("count must be >= 0")
    alphabet = sub.alphabet
    s = witness.prefix_x
    t = witness.prefix_y
    if len(s) == 0 or len(t) == 0:
        raise InputError("witness prefixes must be nonempty")
    a = s[0]
    b = t[0]
    c = witness.letter
    sc = s + alphabet.word(c)
    tc = t + alphabet.word(c)
    b_index = alphabet.index(b)

    for chosen_power in range(1, POWER_CAP + 1):
        image_a = apply_substitution(sub, a, chosen_power)
        image_b = apply_substitution(sub, b, chosen_power)
        image_c = apply_substitution(sub, c, chosen_power)
        if image_a.startswith(sc) and image_b.startswith(tc) and b_index in image_c.indices:
            break
    else:
        raise InputError(f"no power of the substitution up to {POWER_CAP} embeds the witness")

    sigma = sub.power(chosen_power)
    image_c = sigma.image(c)
    first_b = image_c.indices.index(b_index)
    connector = image_c[:first_b]

    graph = build_prefix_graph(sigma)
    empty = Word(alphabet)
    paths = [
        PathRepresentation(a, (s, connector) + (empty,) * (2 * i)) for i in range(count)
    ]
    generators = [decode_path(graph, p, materialize=False).value for p in paths]
    provenance = FsProvenance(
        power=chosen_power,
        prefix_x=s,
        prefix_y=t,
        shared_letter=c,
        connector=connector,
        target_letter=b,
        start_letter=a,
        paths=tuple(paths),
    )
    return FsFamily(tuple(generators), provenance)


@dataclass(frozen=True)
class FsVerification:
    """Outcome of testing subset sums of a family for occurrences of a factor.

    Sums whose occurrence would not fit below the horizon are reported as
    unchecked, never as failures; the verdict is ``pass`` only when every
    subset up to the size bound was checked and none failed.
    """

    family: FsFamily
    factor: Word
    horizon: int
    max_subset_size: int
    failures: tuple[tuple[tuple[int, ...], int], ...]
    unchecked: tuple[tuple[tuple[int, ...], int], ...]
    verdict: str

    def to_json_dict(self) -> dict:
        return {
            "family": self.family.to_json_dict(),
            "factor": str(self.factor),
            "horizon": self.horizon,
            "max_subset_size": self.max_subset_size,
            "failures": [[list(sub), total] for sub, total in self.failures],
            "unchecked": [[list(sub), total] for sub, total in self.unchecked],
            "verdict": self.verdict,
        }

    def to_text(self) -> str:
        """Aligned table with one row per tested subset."""
        failed = {subset for subset, _ in self.failures}
        skipped = {subset for subset, _ in self.unchecked}
        rows = []
        for size in range(1, min(self.max_subset_size, len(self.family.generators)) + 1):
            for subset in combinations(self.family.generators, size):
                status = (
                    "FAIL" if subset in failed
                    else "unchecked" if subset in skipped
                    else "ok"
                )
                rows.append((" + ".join(map(str, subset)), str(sum(subset)), status))
        width = max((len(r[0]) for r in rows), default=6)
        lines = [
            f"factor {str(self.factor)!r}, horizon {self.horizon}, verdict {self.verdict}",
            f"{'subset'.ljust(width)}  {'sum':>12}  status",
        ]
        lines += [f"{a.ljust(width)}  {b:>12}  {c}" for a, b, c in rows]
        return "\n".join(lines)


def verify_finite_sums(
    family: FsFamily, graph: PrefixGraph, start: str, factor: Word | str, horizon: int,
    max_subset_size: int,
) -> FsVerification:
    """Test every nonempty subset (up to the size bound) for an occurrence.

    Sum t is an occurrence when the letters at t, t + 1, ... of the fixed
    point at ``start`` spell the factor; each is read off the prefix automaton
    (:func:`letter_at`), so nothing is expanded. Sums past horizon - |factor|
    are reported unchecked, as for a prefix of length ``horizon``.
    """
    factor = graph.alphabet.word(factor)
    if len(factor) == 0:
        raise InputError("factor must be nonempty")
    if horizon < len(factor):
        raise InputError("horizon must be at least the factor length")
    if max_subset_size < 1:
        raise InputError("max_subset_size must be >= 1")
    graph.require_seed(start)
    fit = horizon - len(factor)
    failures = []
    unchecked = []
    for size in range(1, min(max_subset_size, len(family.generators)) + 1):
        for subset in combinations(family.generators, size):
            total = sum(subset)
            if total > fit:
                unchecked.append((subset, total))
            elif any(letter_at(graph, start, total + i) != c for i, c in enumerate(str(factor))):
                failures.append((subset, total))
    verdict = "fail" if failures else "incomplete" if unchecked else "pass"
    return FsVerification(
        family=family, factor=factor, horizon=horizon, max_subset_size=max_subset_size,
        failures=tuple(failures), unchecked=tuple(unchecked), verdict=verdict,
    )


def search_ip_witness(occ: OccurrenceSet, depth: int) -> FsFamily | None:
    """Backtracking search for `depth` generators with all subset sums in the set.

    Candidates are the positive occurrence positions (0 would make sums
    degenerate); the first family in lexicographic order is returned, or
    None when the search space below the horizon is exhausted.
    """
    if depth < 1:
        raise InputError("depth must be >= 1")
    positions = occ.positions
    candidates = [p for p in positions if p >= 1]

    def occurs(total: int) -> bool:
        i = bisect_left(positions, total)
        return i < len(positions) and positions[i] == total

    def extend(chosen: list[int], sums: set[int], next_index: int):
        if len(chosen) == depth:
            return list(chosen)
        for idx in range(next_index, len(candidates)):
            g = candidates[idx]
            new_sums = {g} | {total + g for total in sums}
            if all(map(occurs, new_sums)):
                chosen.append(g)
                found = extend(chosen, sums | new_sums, idx + 1)
                if found is not None:
                    return found
                chosen.pop()
        return None

    found = extend([], set(), 0)
    if found is None:
        return None
    return FsFamily(tuple(found), SEARCHED)
