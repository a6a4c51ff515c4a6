"""Record types are immutable named tuples; the validated ones validate on every
construction, and an occurrence set equals only itself."""

import copy
import pickle
from importlib import import_module

import pytest
from hypothesis import given, settings, strategies as st

from substrand import (
    CoincidenceWitness,
    FixedPointStream,
    FsFamily,
    InputError,
    PathRepresentation,
    Substitution,
    Word,
    occurrences,
)
from substrand.ipsets import SEARCHED

_MODULES = ("words", "spectral", "points", "coincidence", "numeration", "ipsets", "strand")
_RECORDS = {
    "spectral": {"RootBound", "ClassificationReport"},
    "points": {"OccurrenceSet", "ProximalityEvidence"},
    "coincidence": {"CoincidenceWitness", "CoincidenceVerdict", "BalancedPairClosure"},
    "numeration": {"PathRepresentation", "DecodedValue", "SynchronizingEntry", "SynchronizingScan"},
    "ipsets": {"FsProvenance", "FsFamily", "FsVerification"},
    "strand": {"Strand", "InvariantSplitting", "StabilityScan"},
}
# records whose own len() is not their field count
_OWN_LEN = {"OccurrenceSet", "PathRepresentation", "Strand"}


def _public_records():
    """(module, class) of every public class of the package that is a tuple."""
    for name in _MODULES:
        module = import_module(f"substrand.{name}")
        for attr, value in vars(module).items():
            if (isinstance(value, type) and value.__module__ == module.__name__
                    and not attr.startswith("_") and issubclass(value, tuple)):
                yield name, value


def _instance(cls):
    """A record of the type: placeholder fields, valid where the type validates."""
    if cls is PathRepresentation:
        return cls("a", ())
    if cls is FsFamily:
        return cls((1, 2), SEARCHED)
    return cls(*range(len(cls._fields)))


def test_the_record_types_are_the_named_tuples():
    found = {}
    for module, cls in _public_records():
        found.setdefault(module, set()).add(cls.__name__)
    assert found == _RECORDS
    assert sum(map(len, found.values())) == 17


@pytest.mark.parametrize("cls", [cls for _, cls in _public_records()], ids=lambda cls: cls.__name__)
def test_every_record_refuses_attribute_assignment(cls):
    record = _instance(cls)
    assert cls._fields and not hasattr(record, "__dict__")
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = None
    if cls.__name__ not in _OWN_LEN:
        assert len(record) == len(cls._fields)
    if cls.__name__ != "OccurrenceSet":
        # unpacks, and equals the tuple of its fields
        assert record == tuple(record) == tuple(getattr(record, f) for f in cls._fields)
        assert copy.copy(record) == record and pickle.loads(pickle.dumps(record)) == record


def test_a_witness_unpacks_and_compares_as_its_fields(aab_ba):
    alphabet = aab_ba.alphabet
    witness = CoincidenceWitness(3, "a", alphabet.word("aab"), alphabet.word("aba"))
    k, letter, s, t = witness
    assert (k, letter, str(s), str(t)) == (3, "a", "aab", "aba")
    assert witness == (3, "a", alphabet.word("aab"), alphabet.word("aba")) and len(witness) == 4
    assert hash(witness) == hash(tuple(witness))


_GENERATORS = st.lists(st.integers(-3, 12), max_size=6).map(tuple)


@settings(max_examples=200, deadline=None)
@given(generators=_GENERATORS)
def test_a_family_validates_its_generators(generators):
    valid = all(g >= 0 for g in generators) and all(a < b for a, b in zip(generators, generators[1:]))
    for build in (lambda: FsFamily(generators, SEARCHED),
                  lambda: FsFamily(generators=generators, provenance=SEARCHED),
                  lambda: FsFamily((0,), SEARCHED)._replace(generators=generators),
                  lambda: FsFamily._make((generators, SEARCHED))):
        if valid:
            family = build()
            assert type(family) is FsFamily and family.generators == generators
            assert pickle.loads(pickle.dumps(family)) == family
        else:
            with pytest.raises(InputError, match="generators must be"):
                build()


_LABELS = st.lists(st.text(alphabet="ab", max_size=3), max_size=4)
_FIBONACCI = Substitution({"a": "ab", "b": "a"})


@settings(max_examples=200, deadline=None)
@given(labels=_LABELS)
def test_a_path_validates_its_labels(labels):
    labels = tuple(_FIBONACCI.alphabet.word(u) for u in labels)
    valid = len(labels) <= 1 or len(labels[0]) > 0
    for build in (lambda: PathRepresentation("a", labels),
                  lambda: PathRepresentation(start="a", labels=labels),
                  lambda: PathRepresentation("a", ())._replace(labels=labels),
                  lambda: PathRepresentation._make(("a", labels))):
        if valid:
            path = build()
            assert type(path) is PathRepresentation and path.labels == labels and len(path) == len(labels)
            assert pickle.loads(pickle.dumps(path)) == path
        else:
            with pytest.raises(InputError, match="first label must be nonempty"):
                build()


def test_an_occurrence_set_equals_only_itself(fibonacci):
    stream = FixedPointStream(fibonacci, "a")
    first, second = (occurrences(stream, "ab", 100) for _ in range(2))
    assert first.positions == second.positions and bytes(first.hits) == bytes(second.hits)
    assert first == first and not first != first
    assert first != second and not first == second
    assert first != tuple(first) and first != (first.factor, first.horizon, first.hits)
    assert hash(first) == object.__hash__(first)
    assert len({first, second, first}) == 2
    assert len(first) == first.hits.count(1) == len(first.positions)


def test_a_word_read_off_valid_words_keeps_its_letters(fibonacci):
    word = fibonacci.alphabet.word("abaab")
    assert str(word[1:4]) == "baa" and str(word + word[:2]) == "abaabab"
    assert str(fibonacci.image("a")) == "ab" and str(fibonacci.power(3).image("a")) == "abaab"
    with pytest.raises(InputError, match="out of range"):
        Word(fibonacci.alphabet, (0, 2))
    assert Substitution({"a": "ab", "b": "a"}).image("b") == Word(fibonacci.alphabet, (0,))
