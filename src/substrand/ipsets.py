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

from itertools import combinations
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from .errors import InputError
from .numeration import PathRepresentation, _require_period_one, letter_at
from .words import Substitution, Word, abelianize, apply_substitution

if TYPE_CHECKING:
    from .coincidence import CoincidenceWitness
    from .points import OccurrenceSet

SEARCHED = "searched"
# highest power of the substitution tried for embedding a witness
POWER_CAP = 8


class FsProvenance(NamedTuple):
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
        words = {name: str(getattr(self, name)) for name in ("prefix_x", "prefix_y", "connector")}
        return {**self._asdict(), **words, "paths": [p.to_json_dict() for p in self.paths]}


class _FsFamilyFields(NamedTuple):
    generators: tuple[int, ...]
    provenance: FsProvenance | str

    def to_json_dict(self) -> dict:
        prov = (
            self.provenance
            if isinstance(self.provenance, str)
            else self.provenance.to_json_dict()
        )
        return {"generators": list(self.generators), "provenance": prov}


class FsFamily(_FsFamilyFields):
    """Strictly increasing generators whose finite sums are to be occurrences."""

    __slots__ = ()

    def __new__(cls, generators: tuple[int, ...], provenance: FsProvenance | str):
        if any(b <= a for a, b in zip(generators, generators[1:])):
            raise InputError("generators must be strictly increasing")
        if any(g < 0 for g in generators):
            raise InputError("generators must be >= 0")
        return super().__new__(cls, generators, provenance)

    @classmethod
    def _make(cls, fields):  # _replace builds through here: validate its families too
        return cls(*fields)


def build_fs_family(
    sub: Substitution,
    witness: CoincidenceWitness,
    count: int,
) -> FsFamily:
    """Generators n_i from a validated strong-coincidence witness.

    The power q is raised (up to POWER_CAP) until s c and t c are prefixes of
    sigma^q(a) and sigma^q(b) and b occurs in sigma^q(c). No image is empty,
    so the heads suffice: sigma^q(w)[:m] = sigma(sigma^(q-1)(w)[:m])[:m], and
    the letters of sigma^q(c) are those of the images of the letters of
    sigma^(q-1)(c). sigma^q(c) is built once, at the chosen q: its prefix
    before the first b is the connector r. Generators are exact image
    lengths, n_i = |sigma^(q(2i+1))(s)| + |sigma^(2qi)(r)|: the value under
    sigma^q of the path s, r, e, ..., e that the provenance keeps.
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

    head_a, head_b, letters_c = s[:1], t[:1], {alphabet.index(c)}
    for power in range(1, POWER_CAP + 1):
        head_a = apply_substitution(sub, head_a)[: len(sc)]
        head_b = apply_substitution(sub, head_b)[: len(tc)]
        letters_c = {e for d in letters_c for e in sub.image_indices(d)}
        if head_a == sc and head_b == tc and b_index in letters_c:
            break
    else:
        raise InputError(f"no power of the substitution up to {POWER_CAP} embeds the witness")
    image_c = apply_substitution(sub, c, power)
    connector = image_c[: image_c.indices.index(b_index)]

    s_counts, r_counts = abelianize(s), abelianize(connector)
    generators = [sum(map(mul, s_counts, sub.image_lengths(power * (2 * i + 1))))
                  + sum(map(mul, r_counts, sub.image_lengths(2 * power * i))) for i in range(count)]
    empty = Word(alphabet)
    paths = [PathRepresentation(a, (s, connector) + (empty,) * (2 * i)) for i in range(count)]
    provenance = FsProvenance(
        power=power,
        prefix_x=s,
        prefix_y=t,
        shared_letter=c,
        connector=connector,
        target_letter=b,
        start_letter=a,
        paths=tuple(paths),
    )
    return FsFamily(tuple(generators), provenance)


class FsVerification(NamedTuple):
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
        return {**self._asdict(), "family": self.family.to_json_dict(), "factor": str(self.factor),
                "failures": [[list(sub), total] for sub, total in self.failures],
                "unchecked": [[list(sub), total] for sub, total in self.unchecked]}

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
    family: FsFamily, sub: Substitution, start: str, factor: Word | str, horizon: int,
    max_subset_size: int,
) -> FsVerification:
    """Test every nonempty subset (up to the size bound) for an occurrence.

    ``start`` must be a period-1 seed of ``sub`` (pass sigma^p for a seed of
    period p). Sum t is an occurrence when the letters at t, t + 1, ... of the
    fixed point at ``start`` spell the factor; each is read off the prefix
    automaton (:func:`letter_at`), so nothing is expanded. Sums past
    horizon - |factor| are reported unchecked, as for a prefix of length
    ``horizon``. A family without generators is refused: it has no subset to
    check.
    """
    if not family.generators:
        raise InputError("the family has no generators, so there is no subset to check")
    factor = sub.alphabet.word(factor)
    if len(factor) == 0:
        raise InputError("factor must be nonempty")
    if horizon < len(factor):
        raise InputError("horizon must be at least the factor length")
    if max_subset_size < 1:
        raise InputError("max_subset_size must be >= 1")
    _require_period_one(sub, start)
    fit = horizon - len(factor)
    failures = []
    unchecked = []
    for size in range(1, min(max_subset_size, len(family.generators)) + 1):
        for subset in combinations(family.generators, size):
            total = sum(subset)
            if total > fit:
                unchecked.append((subset, total))
            elif any(letter_at(sub, start, total + i) != c for i, c in enumerate(str(factor))):
                failures.append((subset, total))
    verdict = "fail" if failures else "incomplete" if unchecked else "pass"
    return FsVerification(
        family=family, factor=factor, horizon=horizon, max_subset_size=max_subset_size,
        failures=tuple(failures), unchecked=tuple(unchecked), verdict=verdict,
    )


def search_ip_witness(occ: OccurrenceSet, depth: int) -> FsFamily | None:
    """Backtracking search for `depth` generators with all subset sums in the set.

    Candidates, and the members every sum is looked up in, are the positive
    occurrence positions, read off the ``hits`` mask in increasing order one
    at a time (none is listed); the first family in lexicographic order is
    returned, or None when the search space below the horizon is exhausted.
    """
    if depth < 1:
        raise InputError("depth must be >= 1")
    hits = occ.hits

    def occurs(total: int) -> bool:
        return total < len(hits) and hits[total] == 1

    def extend(chosen: list[int], sums: set[int], g: int):
        """Extend by a candidate above g (the last one chosen, or 0)."""
        if len(chosen) == depth:
            return list(chosen)
        while (g := hits.find(1, g + 1)) >= 0:
            new_sums = {g} | {total + g for total in sums}
            if all(map(occurs, new_sums)):
                chosen.append(g)
                found = extend(chosen, sums | new_sums, g)
                if found is not None:
                    return found
                chosen.pop()
        return None

    found = extend([], set(), 0)
    if found is None:
        return None
    return FsFamily(tuple(found), SEARCHED)
