"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
Criterion 1 pins the published arrow counts of the six transcribed
progressions; the verse chain carries 14 transitions, all single.
"""

from __future__ import annotations

import itertools
import time
import xml.etree.ElementTree as ET

import numpy as np
import synth

from tonnetzlab.chart import flatten, progression
from tonnetzlab.chroma.dictionary import build_note_dictionary
from tonnetzlab.chroma.identify import identify
from tonnetzlab.chroma.nnls import nnls_activations_batch, nnls_residual_history
from tonnetzlab.chroma.wavio import AudioBuffer
from tonnetzlab.harmony import (
    ALL_TRIADS,
    Triad,
    common_tones,
    parse_chord_symbol,
)
from tonnetzlab.lattice import embed_path, render_tonnetz_svg
from tonnetzlab.rhythm import clocks_for, detect_substructures, render_clock_svg
from tonnetzlab.transforms import (
    NR_OPS,
    annotate_progression,
    apply_nr,
    classify_move,
    tonnetz_distance,
)

A_KEY = 9  # tonic pitch class of A major


def _moves(chart, section):
    chords = progression(flatten(chart.sections[section]))
    return annotate_progression(chords, chart.key).moves


def _double_pairs(moves):
    return [
        (m.source.display, m.target.display) for m in moves if m.kind == "double"
    ]


def test_criterion_1_arity_fidelity(lead_chart, recorded_chart):
    started = time.perf_counter()

    verse = _moves(lead_chart, "Verse")
    assert len(verse) == 14
    assert all(m.kind == "single" for m in verse)

    bridge = _moves(lead_chart, "Bridge")
    assert _double_pairs(bridge) == [("G", "A"), ("B7", "d")]

    interlude = _moves(lead_chart, "Interlude")
    assert _double_pairs(interlude) == [("E", "f#")]

    coda = _moves(lead_chart, "Coda")
    assert _double_pairs(coda) == [("E7", "d")]

    recorded_verse = _moves(recorded_chart, "Verse")
    assert _double_pairs(recorded_verse) == [("E", "f#"), ("E", "f#")]

    recorded_bridge = _moves(recorded_chart, "Bridge")
    assert _double_pairs(recorded_bridge) == [("G", "A"), ("A", "B/F#")]

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 1 PASS - single/double arrows exact on all six "
        f"progressions ({elapsed * 1000:.0f} ms)"
    )


def test_criterion_2_neo_riemannian_naming():
    cases = [
        ("D", "d", "P"),
        ("A", "f#", "R"),
        ("f#", "A", "R"),
        ("d", "A", "N"),
    ]
    for src, dst, op in cases:
        move = classify_move(parse_chord_symbol(src), parse_chord_symbol(dst))
        assert move.nr_name == op, (src, dst)
    for op, triad in itertools.product(NR_OPS, ALL_TRIADS):
        assert apply_nr(op, apply_nr(op, triad)) == triad
    print("\nACCEPTANCE 2 PASS - P/R/N namings exact; all four ops involutions")


def test_criterion_3_roman_numerals_and_cadences(lead_chart, recorded_chart):
    expectations = {
        "A7": "V7/IV",
        "D": "IV",
        "d": "iv",
        "E7": "V7",
        "G": "♭VII",
    }
    from tonnetzlab.harmony import roman_numeral

    for token, expected in expectations.items():
        assert roman_numeral(parse_chord_symbol(token), A_KEY) == expected

    lead_verse = annotate_progression(
        progression(flatten(lead_chart.sections["Verse"])), lead_chart.key
    )
    assert any(c.kind == "plagal_mixture" for c in lead_verse.cadences)

    recorded_verse = annotate_progression(
        progression(flatten(recorded_chart.sections["Verse"])), recorded_chart.key
    )
    assert any(c.kind == "deceptive" for c in recorded_verse.cadences)
    print("\nACCEPTANCE 3 PASS - Roman labels exact; both cadence patterns flagged")


def test_criterion_4_distance_oracle():
    started = time.perf_counter()

    def oracle(a: Triad, b: Triad) -> int:
        if a == b:
            return 0
        third_a = 3 if a.minor else 4
        third_b = 3 if b.minor else 4
        set_a = {a.root % 12, (a.root + third_a) % 12, (a.root + 7) % 12}
        set_b = {b.root % 12, (b.root + third_b) % 12, (b.root + 7) % 12}
        return 1 if set_a & set_b else 2

    pairs = list(itertools.product(ALL_TRIADS, repeat=2))
    assert len(pairs) == 576
    for a, b in pairs:
        assert tonnetz_distance(a, b) == oracle(a, b)
    assert max(tonnetz_distance(a, b) for a, b in pairs) == 2

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 4 PASS - graph distance equals the intersection rule on "
        f"576 pairs, diameter 2 ({elapsed * 1000:.0f} ms)"
    )


def test_criterion_5_substructures(lead_chart, recorded_chart):
    lead = detect_substructures(
        clocks_for(flatten(lead_chart.sections["Verse"]), lead_chart.meter)
    )
    assert len(lead.distinct_clocks) == 3
    assert list(lead.classifications) == [
        "whole_note",
        "mixed",
        "mixed",
    ]
    assert lead.distinct_clocks[1].hours == (0, 4, 6)
    assert lead.distinct_clocks[2].hours == (0, 2, 4)
    assert any((r.first, r.second) == (1, 2) for r in lead.reflections)

    recorded = detect_substructures(
        clocks_for(flatten(recorded_chart.sections["Verse"]), recorded_chart.meter)
    )
    assert len(recorded.distinct_clocks) == 4
    print(
        "\nACCEPTANCE 5 PASS - 3 vs 4 distinct clocks; {0,4,6}<->{0,2,4} mirror "
        "pair; whole/mixed/mixed classes"
    )


def test_criterion_6_common_tones():
    shared = common_tones(parse_chord_symbol("E7"), parse_chord_symbol("d"))
    assert shared == {2}  # the pitch class D
    print("\nACCEPTANCE 6 PASS - common_tones(E7, d) == {D}")


def test_criterion_7_chord_id_on_synthetic_audio():
    started = time.perf_counter()
    tokens = ["A", "E7", "A", "f#", "A7", "D", "d", "A"]
    expected = ["A", "E", "A", "f#", "A", "D", "d", "A"]
    symbols = [parse_chord_symbol(t) for t in tokens]
    buffer = synth.chord_sequence(
        symbols, seconds_each=2.0, harmonics=6, decay=0.8, noise_snr_db=30.0, seed=7
    )
    segments, _ = identify(buffer)
    assert len(segments) == len(expected)
    correct = sum(got.label == want for got, want in zip(segments, expected))
    assert correct >= 7

    silence_segments, _ = identify(AudioBuffer(np.zeros(22050 * 2), 22050))
    assert [s.label for s in silence_segments] == ["N"]

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 7 PASS - {correct}/8 correct triads on the synthetic "
        f"corpus; silence is N ({elapsed:.2f} s)"
    )


def test_criterion_8_nnls_properties():
    dictionary = build_note_dictionary()
    rng = np.random.default_rng(17)
    frame = np.abs(rng.standard_normal(73))

    _, history = nnls_residual_history(frame, dictionary)
    assert (np.diff(np.array(history)) <= 1e-12).all()

    column = 40
    target = dictionary.profiles[:, column].copy()
    activations = nnls_activations_batch(target[None, :], dictionary)[0]
    assert abs(activations[column] - 1.0) <= 1e-3
    assert np.delete(activations, column).max() <= 1e-3

    base = nnls_activations_batch(frame[None, :], dictionary)[0]
    scaled = nnls_activations_batch((4.0 * frame)[None, :], dictionary)[0]
    relative = np.max(np.abs(scaled - 4.0 * base)) / (4.0 * base.max())
    assert relative <= 1e-5
    print(
        "\nACCEPTANCE 8 PASS - monotone residual; exact recovery within 1e-3; "
        "scale equivariance within 1e-5"
    )


def test_criterion_9_rendering_contracts(lead_chart, recorded_chart):
    svgs = []
    for chart in (lead_chart, recorded_chart):
        for name in dict.fromkeys(chart.form):
            section = chart.sections[name]
            placements = embed_path(progression(flatten(section)), chart.key)
            svgs.append(render_tonnetz_svg(placements, chart.key))
            report = detect_substructures(clocks_for(flatten(section), chart.meter))
            svgs.extend(render_clock_svg(c) for c in report.distinct_clocks)
    for svg in svgs:
        ET.fromstring(svg)  # well-formed XML

    placements = embed_path(
        progression(flatten(lead_chart.sections["Verse"])), lead_chart.key
    )
    first = render_tonnetz_svg(placements, lead_chart.key)
    second = render_tonnetz_svg(placements, lead_chart.key)
    assert first == second
    root = ET.fromstring(first)
    arrows = [
        el
        for el in root.iter()
        if el.tag.endswith("g") and "move-arrow" in (el.get("class") or "")
    ]
    assert len(arrows) == 14  # one per transition of the verse chain
    print(
        f"\nACCEPTANCE 9 PASS - {len(svgs)} SVGs well-formed; verse diagram has "
        f"14 arrows; byte-identical re-render"
    )
