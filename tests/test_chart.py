from __future__ import annotations

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tonnetzlab.chart import (
    BadTie,
    ChartDocument,
    ChordEvent,
    ChordParseError,
    DuplicateSection,
    MeterMismatch,
    Section,
    UnknownSectionInForm,
    ChartError,
    flatten,
    parse_chart,
    progression,
    serialize_chart,
)
from tonnetzlab.cli import main
from tonnetzlab.harmony import ChordSymbol, Embellishment, Key, Quality, pitch_class_set
from tonnetzlab.rhythm import clocks_for

MINIMAL_HEADER = "key: A\nmeter: 4/4\nform: Main\n"


def _chart(body: str, header: str = MINIMAL_HEADER) -> str:
    return header + "[Main]\n" + body + "\n"


def test_form_parses_in_order(lead_chart):
    assert lead_chart.form == (
        "Verse",
        "Bridge",
        "Verse",
        "Bridge",
        "Interlude",
        "Bridge",
        "Coda",
    )
    assert lead_chart.key.tonic == 9
    assert lead_chart.meter == 4


def test_split_measure_durations():
    doc = parse_chart(_chart("f#:2 A7:2"))
    (measure,) = doc.sections["Main"].measures
    assert [(e.symbol.display, e.duration) for e in measure] == [("f#", 2), ("A7", 2)]


def test_bare_chord_fills_the_measure():
    doc = parse_chart(_chart("A | E7"))
    assert [e.duration for m in doc.sections["Main"].measures for e in m] == [4, 4]


def test_meter_mismatch():
    with pytest.raises(MeterMismatch) as info:
        parse_chart(_chart("A:3"))
    assert info.value.measure_index == 0
    assert str(info.value) == "section [Main] measure 1: durations sum to 3, meter is 4"


def test_duplicate_section():
    name = "M" * 40  # the longest name an error line repeats whole
    text = f"key: A\nmeter: 4/4\nform: {name}\n[{name}]\nA\n[{name}]\nA\n"
    with pytest.raises(DuplicateSection) as info:
        parse_chart(text)
    assert str(info.value) == f"line 6: section [{name}] redefined"


def test_unknown_section_in_form():
    text = "key: A\nmeter: 4/4\nform: Main Missing\n[Main]\nA\n"
    with pytest.raises(UnknownSectionInForm):
        parse_chart(text)


def test_chord_parse_error_carries_location():
    with pytest.raises(ChordParseError) as info:
        parse_chart(_chart("A | H7"))
    assert info.value.line == 5
    assert info.value.column == 5


def test_chord_parse_error_column_is_the_failing_token():
    # "7:2" fails; the same text occurs earlier, inside "A7:2"
    with pytest.raises(ChordParseError) as info:
        parse_chart(_chart("A7:2 7:2"))
    assert info.value.column == 6


@pytest.mark.parametrize(
    "text, error",
    [
        (_chart("A", header="key: A\nmeter: \u00b2/4\nform: Main\n"), ChartError),
        (_chart("A:\u00b2 E:2"), ChordParseError),
        (_chart("A", f"key: A\nmeter: {'4' * 5000}/4\nform: Main\n"), ChartError),
        (_chart(f"A:{'4' * 5000}"), ChordParseError),
    ],
    ids=["meter", "duration", "meter-over-4300-digits", "duration-over-4300-digits"],
)
def test_non_decimal_digits_are_a_chart_error(text, error):
    # "\u00b2" (superscript two) passes str.isdigit but int() rejects it, as it
    # rejects a numeral of more than 4300 digits
    with pytest.raises(error):
        parse_chart(text)


@pytest.mark.parametrize("meter", ["0/4", "13/4", "300000/4", "x/4"])
def test_meter_outside_one_to_twelve_beats_is_a_chart_error(meter):
    with pytest.raises(ChartError, match="bad meter"):
        parse_chart(_chart("A", header=f"key: A\nmeter: {meter}\nform: Main\n"))


@pytest.mark.parametrize("meter, beats", [("1/4", 1), ("012/8", 12), ("6/8", 6)])
def test_meter_numerator_counts_beats(meter, beats):
    doc = parse_chart(_chart("A", header=f"key: A\nmeter: {meter}\nform: Main\n"))
    assert doc.meter == beats
    (measure,) = doc.sections["Main"].measures
    assert [e.duration for e in measure] == [beats]


def test_missing_headers_reported():
    with pytest.raises(ChartError, match="missing header"):
        parse_chart("key: A\nmeter: 4/4\n[Main]\nA\n")
    with pytest.raises(ChartError, match="meter must be declared"):
        parse_chart("key: A\n[Main]\nA\n")


def test_comments_do_not_eat_accidentals():
    doc = parse_chart(_chart("f#:2 A7:2  # half-note figure"))
    (measure,) = doc.sections["Main"].measures
    assert [e.symbol.display for e in measure] == ["f#", "A7"]


def test_full_line_comments_and_blanks_ignored():
    doc = parse_chart(_chart("# pickup-free\n\nA | E7"))
    assert len(doc.sections["Main"].measures) == 2


def test_tie_extends_previous_event():
    doc = parse_chart(_chart("D:2 d:2 | A | ~A:2 E:2"))
    timed = flatten(doc.sections["Main"])
    assert [(t.symbol.display, t.onset, t.duration) for t in timed] == [
        ("D", 0, 2),
        ("d", 2, 2),
        ("A", 4, 6),
        ("E", 10, 2),
    ]


def test_tie_requires_matching_chord():
    with pytest.raises(BadTie):
        parse_chart(_chart("A | ~E:2 E:2"))


def test_tie_requires_a_previous_event():
    with pytest.raises(BadTie):
        parse_chart(_chart("~A:2 E:2"))


def test_flatten_cumulative_onsets():
    doc = parse_chart(_chart("A | E7"))
    timed = flatten(doc.sections["Main"])
    assert [(t.onset, t.duration) for t in timed] == [(0, 4), (4, 4)]


def test_flatten_keeps_restrikes_separate():
    doc = parse_chart(_chart("A | A"))
    timed = flatten(doc.sections["Main"])
    assert [(t.onset, t.duration) for t in timed] == [(0, 4), (4, 4)]


def test_flatten_empty_section():
    assert flatten(Section("Empty", ())) == []


def test_flatten_verse_third_substructure_window(lead_chart):
    timed = flatten(lead_chart.sections["Verse"])
    window = [t for t in timed if 24 <= t.onset < 32]
    assert [(t.symbol.display, t.onset - 24, t.duration) for t in window] == [
        ("D", 0, 2),
        ("d", 2, 2),
        ("A", 4, 4),
    ]


def test_flatten_preserves_total_duration(lead_chart):
    for section in lead_chart.sections.values():
        timed = flatten(section)
        assert sum(t.duration for t in timed) == lead_chart.meter * len(
            section.measures
        )
        for first, second in zip(timed, timed[1:]):
            assert first.onset + first.duration == second.onset


def test_progression_collapses_repeats():
    doc = parse_chart(_chart("A | A"))
    assert [c.display for c in progression(doc.sections["Main"])] == ["A"]


def test_progression_of_verse(lead_chart):
    chain = [c.display for c in progression(lead_chart.sections["Verse"])]
    assert chain == [
        "A", "E7", "A", "E7", "A", "f#", "A7", "D", "d", "A",
        "f#", "A7", "D", "d", "A",
    ]


def test_progression_of_coda(lead_chart):
    chain = [c.display for c in progression(lead_chart.sections["Coda"])]
    assert chain == ["A", "E7", "d", "A", "E7", "A"]


def test_progression_never_longer_than_flatten(lead_chart, recorded_chart):
    for doc in (lead_chart, recorded_chart):
        for section in doc.sections.values():
            timed = flatten(section)
            chain = progression(section)
            assert len(chain) <= len(timed)
            has_repeat = any(
                a.symbol == b.symbol for a, b in zip(timed, timed[1:])
            )
            assert (len(chain) == len(timed)) == (not has_repeat)


def test_second_verse_variant_drops_one_alternation(lead_chart):
    verse2 = [c.display for c in progression(lead_chart.sections["Verse2"])]
    assert verse2 == [
        "A", "E7", "A", "f#", "A7", "D", "d", "A", "f#", "A7", "D", "d", "A",
    ]


def test_serialize_round_trip(lead_chart, recorded_chart):
    for doc in (lead_chart, recorded_chart):
        again = parse_chart(serialize_chart(doc))
        assert again == doc
        # canonical text is a fixed point
        assert serialize_chart(again) == serialize_chart(doc)


@st.composite
def _chords(draw) -> ChordSymbol:
    """Any major or minor triad, with or without a 6 or 7, with or without a bass."""
    plain = ChordSymbol(
        draw(st.integers(0, 11)),
        draw(st.sampled_from(Quality)),
        draw(st.sampled_from(Embellishment)),
    )
    bass = draw(st.none() | st.sampled_from(sorted(pitch_class_set(plain))))
    return ChordSymbol(plain.root, plain.quality, plain.embellishment, bass)


@st.composite
def _sections(draw, name: str, meter: int) -> Section:
    """0-4 measures, each cut into durations summing to ``meter``; ties continue."""
    measures: list[tuple[ChordEvent, ...]] = []
    last: ChordEvent | None = None
    for _ in range(draw(st.integers(0, 4))):
        cuts = sorted(draw(st.sets(st.sampled_from(range(1, meter)))))
        events = []
        for start, end in zip([0, *cuts], [*cuts, meter]):
            tied = last is not None and draw(st.booleans())
            symbol = last.symbol if tied else draw(_chords())
            last = ChordEvent(symbol, end - start, tied)
            events.append(last)
        measures.append(tuple(events))
    return Section(name, tuple(measures))


# '#' after whitespace starts a comment and U+2028 ends a line, so some titles
# and names cannot be written in a chart
_TITLES = st.text(
    st.sampled_from("abcXYZ019 :'()[]-|~/é♭#\u2028"), max_size=12
).map(str.strip)
_NAMES = st.text(st.sampled_from("abcXYZ019:'()-|~/é#"), min_size=1, max_size=6)


@st.composite
def _documents(draw) -> ChartDocument:
    """Charts in 3/4, 4/4 or 6/8 (six beats a measure)."""
    meter = draw(st.sampled_from([3, 4, 6]))
    names = draw(st.lists(_NAMES, min_size=1, max_size=3, unique=True))
    sections = {name: draw(_sections(name, meter)) for name in names}
    form = tuple(draw(st.lists(st.sampled_from(names), max_size=5)))
    key = Key(draw(st.integers(0, 11)))
    return ChartDocument(draw(_TITLES), key, meter, form, sections)


@settings(max_examples=60, deadline=None)
@given(doc=_documents())
def test_serialize_parse_round_trip_on_generated_charts(doc):
    try:
        text = serialize_chart(doc)
    except ChartError:
        # only a comment marker or a line break makes a title or name unwritable
        assert any(c in "#\u2028" for c in doc.title + "".join(doc.sections))
        return
    again = parse_chart(text)
    assert again == doc
    assert list(again.sections) == list(doc.sections)
    assert serialize_chart(again) == text


@settings(max_examples=60, deadline=None)
@given(doc=_documents())
def test_clocks_tile_generated_sections(doc):
    cycle = 2 * doc.meter
    for section in doc.sections.values():
        timed = flatten(section)
        clocks = clocks_for(timed, doc.meter)
        total = doc.meter * len(section.measures)
        assert len(clocks) == math.ceil(total / cycle)
        assert all(c.cycle == cycle and all(h < cycle for h in c.hours) for c in clocks)
        onsets = [
            (i * cycle + h, label) for i, c in enumerate(clocks) for h, label in c.onsets
        ]
        assert onsets == [(t.onset, t.symbol.display) for t in timed]


@settings(max_examples=25, deadline=None)
@given(doc=_documents())
def test_chart_commands_exit_0_on_generated_charts(doc):
    try:
        text = serialize_chart(doc)
    except ChartError:
        assume(False)
    with tempfile.TemporaryDirectory() as tmp:
        chart = Path(tmp) / "generated.chart"
        chart.write_text(text, encoding="utf-8")
        assert main(["analyze", str(chart), "--out", str(Path(tmp) / "r.json")]) == 0
        for index, (name, section) in enumerate(doc.sections.items()):
            # the = form, as argparse would read a name like "-x" as an option
            flag = f"--section={name}"
            svg, clocks = Path(tmp) / "t.svg", Path(tmp) / f"clocks-{index}"
            tonnetz = main(["render-tonnetz", str(chart), flag, "--out", str(svg)])
            # only a section without a chord has no path to draw
            assert tonnetz == (0 if section.measures else 2)
            argv = ["render-clocks", str(chart), flag, "--out-dir", str(clocks)]
            assert main(argv) == 0


@pytest.mark.parametrize(
    "title, name",
    [("Side A #2", "Verse"), ("a\u2028b", "Verse"), (" x", "Verse"),
     ("", "#Verse"), ("", "Ver se"), ("", "Verse\n")],
)
def test_serialize_refuses_what_would_read_back_differently(title, name):
    doc = ChartDocument(title, Key(9), 4, (name,), {name: Section(name, ())})
    with pytest.raises(ChartError):
        serialize_chart(doc)
