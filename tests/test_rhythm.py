from __future__ import annotations

import itertools
import random
import xml.etree.ElementTree as ET
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from svg_reference import render_clock_svg_reference

from tonnetzlab.chart import MAX_METER, TimedChord, flatten, parse_chart
from tonnetzlab.cli import build_report
from tonnetzlab.harmony import parse_chord_symbol
from tonnetzlab.rhythm import (
    WINDOW_MEASURES,
    RhythmClock,
    classify_rhythm,
    clocks_for,
    detect_substructures,
    reflect_clock,
    render_clock_svg,
)

CYCLES = (6, 8, 12)  # two measures of 3/4, 4/4 and 6/8


def _timed(body: str, meter: int = 4):
    doc = parse_chart(f"key: A\nmeter: {meter}/4\nform: Main\n[Main]\n{body}\n")
    return flatten(doc.sections["Main"])


def _clocks(cycle: int) -> list[RhythmClock]:
    """A whole-note clock, a half-note one where a measure halves, two mixed ones."""
    measure = cycle // 2
    clocks = [RhythmClock(((0, "A"), (measure, "E7")), cycle)]
    if measure % 2 == 0:
        halves = range(0, cycle, measure // 2)
        clocks.append(RhythmClock(tuple((h, f"c{h}") for h in halves), cycle))
    clocks.append(RhythmClock(((0, "A"), (measure, "f#"), (cycle - 2, "A7")), cycle))
    clocks.append(RhythmClock(((1, "x"), (2, "y"), (cycle - 1, "z")), cycle))
    return clocks


@pytest.mark.parametrize("meter", [3, 4, 6, 12])
def test_clock_has_one_hour_per_beat_of_two_measures(meter):
    clocks = clocks_for(_timed(" | ".join(["A"] * 5), meter), meter)
    assert [c.cycle for c in clocks] == [2 * meter] * 3
    assert [c.hours for c in clocks] == [(0, meter)] * 2 + [(0,)]
    assert [c.partial for c in clocks] == [False, False, True]


def test_whole_note_opening_gives_identical_clocks():
    clocks = clocks_for(_timed("A | E7 | A | E7"), meter=4)
    assert len(clocks) == 2
    assert clocks[0].onsets == ((0, "A"), (4, "E7"))
    assert clocks[0] == clocks[1]


def test_mixed_window_hours():
    clocks = clocks_for(_timed("A | f#:2 A7:2"), meter=4)
    assert clocks[0].onsets == ((0, "A"), (4, "f#"), (6, "A7"))


def test_third_substructure_hours():
    clocks = clocks_for(_timed("D:2 d:2 | A"), meter=4)
    assert clocks[0].onsets == ((0, "D"), (2, "d"), (4, "A"))


def test_sustained_chord_yields_continuation_window():
    clocks = clocks_for(_timed("A | ~A | ~A | ~A"), meter=4)
    assert len(clocks) == 2
    assert clocks[0].onsets == ((0, "A"),)
    assert clocks[1].is_continuation
    assert classify_rhythm(clocks[1]) == "continuation"


def test_tie_across_window_boundary_suppresses_hour_zero_onset():
    clocks = clocks_for(_timed("D:2 d:2 | A | ~A:2 E:2 | f#:2 A:2"), meter=4)
    assert clocks[1].onsets == ((2, "E"), (4, "f#"), (6, "A"))


def test_trailing_partial_window_flagged():
    clocks = clocks_for(_timed("A | E7 | A"), meter=4)
    assert [c.partial for c in clocks] == [False, True]


def test_every_onset_lands_in_exactly_one_window(lead_chart):
    timed = flatten(lead_chart.sections["Verse"])
    clocks = clocks_for(timed, lead_chart.meter)
    assert sum(len(c.onsets) for c in clocks) == len(timed)
    total = sum(t.duration for t in timed)
    assert len(clocks) == -(-total // 8)  # ceil division


def _clocks_for_by_window_scan(timed, meter):
    """The former clocks_for: every window scans every chord."""
    cycle = meter * WINDOW_MEASURES
    total = max((t.onset + t.duration for t in timed), default=0)
    clocks = []
    for start in range(0, total, cycle):
        onsets = tuple(
            (t.onset - start, t.symbol.display)
            for t in timed
            if start <= t.onset < start + cycle
        )
        clocks.append(RhythmClock(onsets, cycle, partial=start + cycle > total))
    return clocks


_SYMBOLS = [parse_chord_symbol(token) for token in ("A", "E7", "f#", "Bb/D")]


@settings(max_examples=300, deadline=None)
@given(
    meter=st.integers(1, MAX_METER),
    chords=st.lists(
        st.tuples(st.sampled_from(_SYMBOLS), st.integers(1, 3 * MAX_METER)), max_size=40
    ),
)
def test_clocks_for_matches_the_window_scan_reference(meter, chords):
    timed, onset = [], 0
    for symbol, duration in chords:
        timed.append(TimedChord(symbol, onset, duration))
        onset += duration
    assert clocks_for(timed, meter) == _clocks_for_by_window_scan(timed, meter)


def test_analysis_of_a_16000_measure_section_is_linear():
    # eight measures, one tie among them, repeated to 16000 measures
    bars = "A | E7 | f#:2 D:2 | d:2 ~d:2 | A:1 E:1 f#:1 D:1 | E7 | D | A"
    doc = parse_chart(
        "key: A\nmeter: 4/4\nform: Verse\n[Verse]\n" + " | ".join([bars] * 2000) + "\n"
    )
    start = perf_counter()
    report = build_report(doc)
    elapsed = perf_counter() - start
    assert len(report["sections"][0]["rhythm"]["occurrences"]) == 8000
    # 0.5 s on a 2-core shared host; the window scan took 9-11 s there
    assert elapsed < 3.0


def test_reflections_among_2000_distinct_clocks_are_found_fast():
    # 4000 random 4/4 measures: 1907 distinct clocks, 45404 reflecting pairs
    rng = random.Random(7)
    chords = ["A", "E7", "f#", "D", "d", "b", "C#7", "G"]
    bars = []
    for _ in range(4000):
        cuts = sorted(rng.sample(range(1, 4), rng.randint(0, 3)))
        durations = [b - a for a, b in zip([0, *cuts], [*cuts, 4])]
        bars.append(" ".join(f"{rng.choice(chords)}:{d}" for d in durations))
    clocks = clocks_for(_timed(" | ".join(bars)), 4)
    start = perf_counter()
    report = detect_substructures(clocks)
    elapsed = perf_counter() - start
    assert (len(report.distinct_clocks), len(report.reflections)) == (1907, 45404)
    # 0.04 s on a 2-core shared host; comparing every pair of clocks took 1.8 s
    assert elapsed < 0.5


def test_classification_rules():
    assert (
        classify_rhythm(RhythmClock(((0, "A"), (4, "E7")), 8))
        == "whole_note"
    )
    assert (
        classify_rhythm(RhythmClock(((0, "a"), (2, "b"), (4, "c"), (6, "d")), 8))
        == "half_note"
    )
    assert (
        classify_rhythm(RhythmClock(((0, "A"), (4, "f#"), (6, "A7")), 8))
        == "mixed"
    )
    assert classify_rhythm(RhythmClock((), 8)) == "continuation"


@pytest.mark.parametrize(
    "meter, body, classes",
    [
        (3, "A | E7", ["whole_note"]),
        (3, "A:2 E:1 | A:2 E:1", ["mixed"]),
        # a beat is a third of a 3/4 measure, so 3/4 has no half-note clock
        (3, "A:1 E:1 D:1 | A:1 E:1 D:1", ["mixed"]),
        (6, "A | E7", ["whole_note"]),
        (6, "A:3 E:3 | A:3 E:3", ["half_note"]),
        # one measure fills half the 12-hour dial: the gap back to hour 0 is 9
        (6, "A:3 E:3", ["mixed"]),
        (6, "A:3 E:3 | D", ["mixed"]),
    ],
)
def test_classification_in_three_four_and_six_eight(meter, body, classes):
    report = detect_substructures(clocks_for(_timed(body, meter), meter))
    assert list(report.classifications) == classes


def test_reflection_example():
    clock = RhythmClock(((0, "A"), (4, "f#"), (6, "A7")), 8)
    assert reflect_clock(clock, 0).hours == (0, 2, 4)


def test_reflection_is_involution_and_preserves_labels():
    for cycle in CYCLES:
        clocks = [*_clocks(cycle), RhythmClock((), cycle)]
        for clock, axis in itertools.product(clocks, range(cycle)):
            back = reflect_clock(reflect_clock(clock, axis), axis)
            assert back == clock
            mirrored = reflect_clock(clock, axis)
            assert mirrored.cycle == cycle
            labels = sorted(label for _, label in clock.onsets)
            assert sorted(label for _, label in mirrored.onsets) == labels
            assert len(mirrored.hours) == len(clock.hours)


def test_reflection_preserves_classification():
    for cycle in CYCLES:
        clocks = _clocks(cycle)
        expected = ["whole_note"] + ["half_note"] * (cycle % 4 == 0) + ["mixed"] * 2
        assert [classify_rhythm(c) for c in clocks] == expected
        for clock, axis in itertools.product(clocks, range(cycle)):
            assert classify_rhythm(reflect_clock(clock, axis)) == classify_rhythm(clock)


def test_single_onset_fixed_under_the_zero_four_mirror():
    clock = RhythmClock(((0, "A"),), 8)
    assert reflect_clock(clock, 4).hours == (0,)


@pytest.mark.parametrize("meter", [3, 4, 6])
def test_reflection_axis_is_hour_zero_and_its_opposite(meter):
    # hours {0, meter - 1, meter} mirror through hour 0 onto {0, meter, meter + 1}
    body = f"A:{meter - 1} E:1 | D | A | D:1 E:{meter - 1}"
    report = detect_substructures(clocks_for(_timed(body, meter), meter))
    (pair,) = report.reflections
    assert (pair.first, pair.second) == (0, 1)
    first, second = report.distinct_clocks[:2]
    assert set(reflect_clock(first, 0).hours) == set(second.hours)


def test_lead_verse_substructures(lead_chart):
    clocks = clocks_for(flatten(lead_chart.sections["Verse"]), lead_chart.meter)
    report = detect_substructures(clocks)
    assert len(report.distinct_clocks) == 3
    assert report.occurrence_sequence == (0, 0, 1, 2, 1, 2)
    assert list(report.classifications) == [
        "whole_note",
        "mixed",
        "mixed",
    ]
    assert any(a.length == 4 and a.clocks == (1, 2) for a in report.alternations)
    assert any((r.first, r.second) == (1, 2) for r in report.reflections)


def test_recorded_verse_substructures(recorded_chart):
    clocks = clocks_for(flatten(recorded_chart.sections["Verse"]), recorded_chart.meter)
    report = detect_substructures(clocks)
    assert len(report.distinct_clocks) == 4
    assert report.occurrence_sequence == (0, 0, 1, 2, 3, 2)
    assert any(a.length == 3 and a.clocks == (2, 3) for a in report.alternations)


def test_same_hours_different_chords_are_distinct_substructures():
    clocks = clocks_for(_timed("A | E7 | d | A"), meter=4)
    report = detect_substructures(clocks)
    assert len(report.distinct_clocks) == 2
    assert report.occurrence_sequence == (0, 1)


def test_a_partial_clock_differs_from_a_whole_one_with_the_same_onsets():
    doc = parse_chart("key: A\nmeter: 4/4\nform: Main\n[Main]\nA | ~A | A\n")
    (main,) = build_report(doc)["sections"]
    clocks = main["rhythm"]["distinct_clocks"]
    assert [(c["onsets"], c["partial"]) for c in clocks] == [
        ([[0, "A"]], False),
        ([[0, "A"]], True),
    ]
    assert main["rhythm"]["occurrences"] == [0, 1]
    assert main["rhythm"]["reflections"] == [{"clocks": [0, 1], "axis_hours": [0, 4]}]


def _substructures_by_list_scan(clocks):
    """Distinct clocks, occurrences and reflecting pairs, found by scanning lists."""
    distinct, occurrence = [], []
    for clock in clocks:
        if clock not in distinct:
            distinct.append(clock)
        occurrence.append(distinct.index(clock))
    reflections = [
        (i, j)
        for i in range(len(distinct))
        for j in range(i + 1, len(distinct))
        if set(reflect_clock(distinct[i], 0).hours) == set(distinct[j].hours)
    ]
    return tuple(distinct), tuple(occurrence), reflections


def _clocks_of_cycle(cycle: int):
    """Few hours and two labels, so that windows repeat and mirror each other."""
    return st.builds(
        lambda hours, label, partial: RhythmClock(
            tuple((h, label) for h in sorted(hours)), cycle, partial
        ),
        st.sets(st.integers(0, cycle - 1), max_size=3),
        st.sampled_from("AE"),
        st.booleans(),
    )


@settings(max_examples=200, deadline=None)
@given(
    clocks=st.sampled_from(CYCLES).flatmap(
        lambda cycle: st.lists(_clocks_of_cycle(cycle), max_size=12)
    )
)
def test_substructures_match_the_list_scan_reference(clocks):
    report = detect_substructures(clocks)
    distinct, occurrence, reflections = _substructures_by_list_scan(clocks)
    assert report.distinct_clocks == distinct
    assert report.occurrence_sequence == occurrence
    assert [(r.first, r.second) for r in report.reflections] == reflections


def test_recorded_bridge_split_measure_is_mixed(recorded_chart):
    clocks = clocks_for(
        flatten(recorded_chart.sections["Bridge"]), recorded_chart.meter
    )
    report = detect_substructures(clocks)
    split = [
        cls
        for clock, cls in zip(report.distinct_clocks, report.classifications)
        if len(clock.onsets) == 4
    ]
    assert split == ["mixed"]


def test_clock_svg_labels_and_ticks():
    svg = render_clock_svg(RhythmClock(((0, "A"), (4, "E7")), 8))
    root = ET.fromstring(svg)
    ticks = [el for el in root.iter() if el.get("class") == "clock-tick"]
    labels = [el for el in root.iter() if el.get("class") == "clock-label"]
    onsets = [el for el in root.iter() if el.get("class") == "clock-onset"]
    assert len(ticks) == 8
    assert [el.text for el in labels] == ["A", "E7"]
    assert len(onsets) == 2
    top, bottom = labels
    assert float(top.get("y")) < float(bottom.get("y"))


def test_clock_svg_empty_clock_has_rim_and_ticks_only():
    for cycle in CYCLES:
        root = ET.fromstring(render_clock_svg(RhythmClock((), cycle)))
        assert [el for el in root.iter() if el.get("class") == "clock-rim"]
        ticks = [el for el in root.iter() if el.get("class") == "clock-tick"]
        assert len(ticks) == cycle
        assert not [el for el in root.iter() if el.get("class") == "clock-onset"]


def test_clock_svg_deterministic():
    clock = RhythmClock(((0, "B/F#"), (2, "f#7"), (3, "B/F#"), (4, "D6")), 8)
    assert render_clock_svg(clock) == render_clock_svg(clock)
    ET.fromstring(render_clock_svg(clock))


@pytest.mark.parametrize("cycle", range(2, 25))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_clock_svg_matches_the_reference_on_every_cycle(cycle, data):
    hours = data.draw(st.sets(st.integers(0, cycle - 1)), label="hours")
    labels = data.draw(
        st.lists(st.text(max_size=6), min_size=len(hours), max_size=len(hours)),
        label="labels",
    )
    clock = RhythmClock(tuple(zip(sorted(hours), labels)), cycle)
    assert render_clock_svg(clock) == render_clock_svg_reference(clock)
