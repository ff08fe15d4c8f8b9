from __future__ import annotations

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tonnetzlab.chart import (
    ChartDocument,
    ChordEvent,
    Section,
    flatten,
    parse_chart,
    progression,
    serialize_chart,
)
from tonnetzlab.cli import main
from tonnetzlab.errors import TonnetzlabError
from tonnetzlab.harmony import ChordSymbol, pitch_class_set
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
    assert lead_chart.key == 9
    assert lead_chart.meter == 4


def test_split_measure_durations():
    doc = parse_chart(_chart("f#:2 A7:2"))
    (measure,) = doc.sections["Main"].measures
    assert [(e.symbol.display, e.duration) for e in measure] == [("f#", 2), ("A7", 2)]


def test_bare_chord_fills_the_measure():
    doc = parse_chart(_chart("A | E7"))
    assert [e.duration for m in doc.sections["Main"].measures for e in m] == [4, 4]


def test_meter_mismatch():
    with pytest.raises(TonnetzlabError) as info:
        parse_chart(_chart("A:3"))
    assert str(info.value) == "section [Main] measure 1: durations sum to 3, meter is 4"
    with pytest.raises(TonnetzlabError) as info:
        parse_chart(_chart("A | A:3"))
    assert str(info.value) == "section [Main] measure 2: durations sum to 3, meter is 4"


def test_duplicate_section():
    name = "M" * 40  # the longest name an error line repeats whole
    text = f"key: A\nmeter: 4/4\nform: {name}\n[{name}]\nA\n[{name}]\nA\n"
    with pytest.raises(TonnetzlabError) as info:
        parse_chart(text)
    assert str(info.value) == f"line 6: section [{name}] redefined"


def test_unknown_section_in_form():
    text = "key: A\nmeter: 4/4\nform: Main Missing\n[Main]\nA\n"
    with pytest.raises(TonnetzlabError, match="^form names unknown section 'Missing'$"):
        parse_chart(text)


def test_chord_parse_error_carries_location():
    with pytest.raises(TonnetzlabError) as info:
        parse_chart(_chart("A | H7"))
    assert str(info.value) == "line 5, column 5: unknown root letter 'H' in 'H7'"


def test_chord_parse_error_column_is_the_failing_token():
    # "7:2" fails; the same text occurs earlier, inside "A7:2"
    with pytest.raises(TonnetzlabError) as info:
        parse_chart(_chart("A7:2 7:2"))
    assert str(info.value) == "line 5, column 6: unknown root letter '7' in '7'"


# measures of the good tokens A, E7, f#:2 and B/F#, each filling 4/4
_MEASURES = [["A"], ["E7"], ["B/F#"], ["f#:2", "f#:2"]]
# "7", ":2" and "/F#" also occur inside the good tokens earlier on the line
_BAD_TOKENS = ["H7", "A##", "A/C", "A7x", "A:0", "A:\u00b2", "7", ":2", "/F#"]
_SPACES = st.text(" \t", min_size=1, max_size=3)
_BARS = st.tuples(st.text(" \t|", max_size=3), st.text(" \t", max_size=2)).map("|".join)


@settings(max_examples=150, deadline=None)
@given(
    lines_before=st.integers(0, 3),
    lead=st.text(" \t|", max_size=3),
    measures=st.lists(st.sampled_from(_MEASURES), max_size=5),
    data=st.data(),
    bad=st.sampled_from(_BAD_TOKENS),
)
def test_chord_token_errors_name_their_line_and_column(
    lines_before, lead, measures, data, bad
):
    line = lead
    for index, measure in enumerate(measures):
        if index:
            line += data.draw(_BARS)
        line += "".join(
            (data.draw(_SPACES) if i else "") + token for i, token in enumerate(measure)
        )
    if measures:
        line += data.draw(_BARS | _SPACES)
    line += bad
    with pytest.raises(TonnetzlabError) as info:
        parse_chart(_chart("A | E7\n" * lines_before + line))
    column = len(line) - len(bad) + 1
    assert str(info.value).startswith(f"line {5 + lines_before}, column {column}: ")


@pytest.mark.parametrize(
    "text, message",
    [
        (_chart("A", header="key: A\nmeter: \u00b2/4\nform: Main\n"), "^line 2: bad meter"),
        (_chart("A:\u00b2 E:2"), "^line 5, column 1: bad duration"),
        (_chart("A", f"key: A\nmeter: {'4' * 5000}/4\nform: Main\n"), "^line 2: bad meter"),
        (_chart(f"A:{'4' * 5000}"), "^line 5, column 1: bad duration"),
    ],
    ids=["meter", "duration", "meter-over-4300-digits", "duration-over-4300-digits"],
)
def test_non_decimal_digits_are_a_chart_error(text, message):
    # "\u00b2" (superscript two) passes str.isdigit but int() rejects it, as it
    # rejects a numeral of more than 4300 digits
    with pytest.raises(TonnetzlabError, match=message):
        parse_chart(text)


@pytest.mark.parametrize("meter", ["0/4", "13/4", "300000/4", "x/4"])
def test_meter_outside_one_to_twelve_beats_is_a_chart_error(meter):
    with pytest.raises(TonnetzlabError, match="bad meter"):
        parse_chart(_chart("A", header=f"key: A\nmeter: {meter}\nform: Main\n"))


@pytest.mark.parametrize("meter, beats", [("1/4", 1), ("012/8", 12), ("6/8", 6)])
def test_meter_numerator_counts_beats(meter, beats):
    doc = parse_chart(_chart("A", header=f"key: A\nmeter: {meter}\nform: Main\n"))
    assert doc.meter == beats
    (measure,) = doc.sections["Main"].measures
    assert [e.duration for e in measure] == [beats]


@pytest.mark.parametrize(
    "header, first",
    [("title: Again", 1), ("KEY: Bb", 2), ("meter: 3/4", 3), ("form: Main", 4)],
)
def test_a_repeated_header_is_an_error_naming_both_lines(header, first):
    text = _chart("A", header=f"title: T\n{MINIMAL_HEADER}{header}\n")
    with pytest.raises(TonnetzlabError, match=rf"^line 5: \w+ repeated from line {first}$"):
        parse_chart(text)


def test_missing_headers_reported():
    with pytest.raises(TonnetzlabError, match="missing header"):
        parse_chart("key: A\nmeter: 4/4\n[Main]\nA\n")
    with pytest.raises(TonnetzlabError, match="meter must be declared"):
        parse_chart("key: A\n[Main]\nA\n")


def test_comments_do_not_eat_accidentals():
    doc = parse_chart(_chart("f#:2 A7:2  # half-note figure"))
    (measure,) = doc.sections["Main"].measures
    assert [e.symbol.display for e in measure] == ["f#", "A7"]


def test_full_line_comments_and_blanks_ignored():
    doc = parse_chart(_chart("# pickup-free\n\nA | E7"))
    assert len(doc.sections["Main"].measures) == 2


# str.split() separates a measure's tokens at each of these, so each ends a token
@pytest.mark.parametrize(
    "space",
    [" ", "\t", "\u00a0", "\u2009", "\u3000", "\x1f"],
    ids=["space", "tab", "no-break-space", "thin-space", "ideographic-space", "x1f"],
)
def test_a_hash_after_any_whitespace_starts_a_comment(space):
    doc = parse_chart(f"title: x{space}#1\n" + _chart(f"A{space}# note"))
    assert doc.title == "x"
    assert [e.symbol.display for m in doc.sections["Main"].measures for e in m] == ["A"]
    # and a title holding such a comment cannot be written back
    unwritable = ChartDocument(f"x{space}#1", doc.key, doc.meter, doc.form, doc.sections)
    with pytest.raises(TonnetzlabError, match=" cannot be written in a chart$"):
        serialize_chart(unwritable)


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
    with pytest.raises(TonnetzlabError, match="^line 5: tie continues 'A', got '~E:2'$"):
        parse_chart(_chart("A | ~E:2 E:2"))


def test_tie_requires_a_previous_event():
    with pytest.raises(TonnetzlabError, match="^line 5: tie with no preceding chord$"):
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
    assert [c.display for c in progression(flatten(doc.sections["Main"]))] == ["A"]


def test_progression_of_verse(lead_chart):
    chain = [c.display for c in progression(flatten(lead_chart.sections["Verse"]))]
    assert chain == [
        "A", "E7", "A", "E7", "A", "f#", "A7", "D", "d", "A",
        "f#", "A7", "D", "d", "A",
    ]


def test_progression_of_coda(lead_chart):
    chain = [c.display for c in progression(flatten(lead_chart.sections["Coda"]))]
    assert chain == ["A", "E7", "d", "A", "E7", "A"]


def test_progression_never_longer_than_flatten(lead_chart, recorded_chart):
    for doc in (lead_chart, recorded_chart):
        for section in doc.sections.values():
            timed = flatten(section)
            chain = progression(flatten(section))
            assert len(chain) <= len(timed)
            has_repeat = any(
                a.symbol == b.symbol for a, b in zip(timed, timed[1:])
            )
            assert (len(chain) == len(timed)) == (not has_repeat)


def test_second_verse_variant_drops_one_alternation(lead_chart):
    verse2 = [c.display for c in progression(flatten(lead_chart.sections["Verse2"]))]
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
        draw(st.booleans()),
        draw(st.sampled_from(("", "6", "7"))),
    )
    bass = draw(st.none() | st.sampled_from(sorted(pitch_class_set(plain))))
    return ChordSymbol(plain.root, plain.minor, plain.embellishment, bass)


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
    key = draw(st.integers(0, 11))
    return ChartDocument(draw(_TITLES), key, meter, form, sections)


@settings(max_examples=60, deadline=None)
@given(doc=_documents())
def test_serialize_parse_round_trip_on_generated_charts(doc):
    try:
        text = serialize_chart(doc)
    except TonnetzlabError as exc:
        assert str(exc).endswith(" cannot be written in a chart")
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


# argparse reads a lone "--" as the end of the options, even after "="
_DASH_DASH = Section("--", ((ChordEvent(ChordSymbol(9, minor=False), 4),),))


@settings(max_examples=25, deadline=None)
@given(doc=_documents())
@example(doc=ChartDocument("", 9, 4, ("--",), {"--": _DASH_DASH}))
def test_chart_commands_exit_0_on_generated_charts(doc):
    try:
        text = serialize_chart(doc)
    except TonnetzlabError:
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
    doc = ChartDocument(title, 9, 4, (name,), {name: Section(name, ())})
    with pytest.raises(TonnetzlabError, match=" cannot be written in a chart$"):
        serialize_chart(doc)
