"""The package's 16 value records: read-only, equal by value and only to their own type.

``RhythmClock`` is the one record with a ``_check``; it rejects onset hours
outside its cycle or out of order.
"""

from __future__ import annotations

import importlib
import itertools
import pkgutil

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tonnetzlab
from tonnetzlab.chart import ChordEvent, TimedChord
from tonnetzlab.chroma.dictionary import build_note_dictionary
from tonnetzlab.harmony import ChordSymbol
from tonnetzlab.rhythm import RhythmClock


def _record_types() -> list[type]:
    found = {}
    for info in pkgutil.walk_packages(tonnetzlab.__path__, "tonnetzlab."):
        if info.name == "tonnetzlab.__main__":
            continue
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields"):
                found[obj.__qualname__] = obj
    return sorted(found.values(), key=lambda cls: cls.__qualname__)


RECORDS = _record_types()
_VALUES = st.one_of(st.integers(-3, 3), st.booleans(), st.text(max_size=2), st.none())


def test_every_record_type_is_found():
    assert len(RECORDS) == 16


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
@given(data=st.data())
def test_setting_or_deleting_a_field_raises(cls, data):
    values = data.draw(st.tuples(*[_VALUES] * len(cls._fields)))
    rec = cls._make(values)
    name = data.draw(st.sampled_from(cls._fields))
    with pytest.raises(AttributeError):
        setattr(rec, name, 0)
    with pytest.raises(AttributeError):
        delattr(rec, name)
    assert tuple(rec) == values


@given(data=st.data())
def test_records_equal_only_their_own_type(data):
    a, b = data.draw(st.sampled_from(list(itertools.product(RECORDS, RECORDS))))
    width = len(a._fields)
    values = data.draw(st.tuples(*[_VALUES] * width))
    first = a._make(values)
    assert first == a._make(values)
    assert hash(first) == hash(a._make(values))
    assert first != values and values != first
    assert not first == values and not values == first
    assert {values: 1}.get(first) is None and {first: 1}.get(values) is None
    if a is not b and len(b._fields) == width:
        second = b._make(values)
        assert first != second and second != first
        assert not first == second
        assert {first: 1}.get(second) is None


def test_chord_event_is_not_a_timed_chord():
    symbol = ChordSymbol(9, minor=False, text="A")
    assert ChordEvent(symbol, 2, False) != TimedChord(symbol, 2, 0)
    assert len({ChordEvent(symbol, 2, False), TimedChord(symbol, 2, 0)}) == 2


_ROOTS = st.integers(0, 11)
_MINOR = st.booleans()
_EMBELLISHMENTS = st.sampled_from(("", "6", "7"))
_BASSES = st.one_of(st.none(), _ROOTS)


@given(_ROOTS, _MINOR, _EMBELLISHMENTS, _BASSES, st.text(), st.text())
def test_chord_symbol_equality_and_hash_ignore_text(root, minor, emb, bass, t1, t2):
    first = ChordSymbol(root, minor, emb, bass, t1)
    second = ChordSymbol(root, minor, emb, bass, t2)
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert {first: 1}[second] == 1
    assert first != ChordSymbol((root + 1) % 12, minor, emb, bass, t1)
    assert first != (root, minor, emb, bass, t1)


@given(st.integers(2, 24), st.lists(st.integers(-30, 30), min_size=1, max_size=6))
def test_rhythm_clock_rejects_hours_outside_the_cycle_or_out_of_order(cycle, hours):
    onsets = tuple((h, "A") for h in hours)
    in_cycle = all(0 <= h < cycle for h in hours)
    increasing = all(a < b for a, b in zip(hours, hours[1:]))
    if in_cycle and increasing:
        assert RhythmClock(onsets, cycle).hours == tuple(hours)
    else:
        with pytest.raises(ValueError, match="onset hour"):
            RhythmClock(onsets, cycle)


def test_note_dictionary_is_read_only_and_hashed_by_identity():
    dictionary = build_note_dictionary()
    with pytest.raises(AttributeError):
        dictionary.profiles = dictionary.profiles
    with pytest.raises(AttributeError):
        dictionary.extra = 1
    assert not isinstance(dictionary, tuple)
    assert hash(dictionary) == object.__hash__(dictionary)
    assert dictionary.gram() is dictionary.gram()
