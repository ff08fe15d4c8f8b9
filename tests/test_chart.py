from __future__ import annotations

import pytest

from tonnetzlab.chart import (
    BadTie,
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


def test_duplicate_section():
    text = MINIMAL_HEADER + "[Main]\nA\n[Main]\nA\n"
    with pytest.raises(DuplicateSection):
        parse_chart(text)


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
    ],
    ids=["meter", "duration"],
)
def test_non_decimal_digits_are_a_chart_error(text, error):
    # "\u00b2" (superscript two) passes str.isdigit but int() rejects it
    with pytest.raises(error):
        parse_chart(text)


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
