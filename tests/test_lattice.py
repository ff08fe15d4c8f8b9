from __future__ import annotations

import itertools
import math
import xml.etree.ElementTree as ET

import pytest

from tonnetzlab.harmony import ALL_TRIADS, Key, Quality, Triad, parse_chord_symbol
from tonnetzlab.lattice import (
    EmptyEmbedding,
    PathEmbedding,
    embed_path,
    hex_center,
    node_pitch_class,
    place_triad,
    render_tonnetz_svg,
)
from tonnetzlab.transforms import ProgressionAnnotation, annotate_progression

A, CS, D, E, FS = 9, 1, 2, 4, 6


def _single_chord_annotation(token: str) -> ProgressionAnnotation:
    return ProgressionAnnotation((parse_chord_symbol(token),), (), (), ())


def test_anchor_sits_at_origin():
    assert node_pitch_class((0, 0), A) == A


def test_axis_steps():
    assert node_pitch_class((1, 0), A) == E  # up a fifth
    assert node_pitch_class((0, 1), A) == CS  # up a major third


def test_axis_rule_on_a_patch():
    # oracle: walking +1 in x adds a fifth, +1 in y adds a major third
    for x in range(-2, 3):
        for y in range(-2, 3):
            here = node_pitch_class((x, y), A)
            assert node_pitch_class((x + 1, y), A) == (here + 7) % 12
            assert node_pitch_class((x, y + 1), A) == (here + 4) % 12


def test_place_major_triad_at_origin():
    placement = place_triad(Triad(A, Quality.MAJOR), anchor=A)
    assert set(placement.hexes) == {(0, 0), (1, 0), (0, 1)}
    assert {node_pitch_class(h, A) for h in placement.hexes} == {A, CS, E}


def test_minor_subdominant_shares_the_anchor_hexagon():
    a_major = place_triad(Triad(A, Quality.MAJOR), anchor=A)
    d_minor = place_triad(Triad(D, Quality.MINOR), near=a_major.point, anchor=A)
    assert (0, 0) in d_minor.hexes


def test_placement_is_idempotent():
    first = place_triad(Triad(FS, Quality.MINOR), near=(0.3, 0.1), anchor=A)
    second = place_triad(Triad(FS, Quality.MINOR), near=(0.3, 0.1), anchor=A)
    assert first == second


def test_placement_hexes_spell_the_triad_everywhere():
    for triad, anchor in itertools.product(ALL_TRIADS, range(0, 9)):
        placement = place_triad(triad, anchor=anchor)
        got = {node_pitch_class(h, anchor) for h in placement.hexes}
        assert got == set(triad.pitch_classes())


def test_placement_point_is_centroid_of_hex_centers():
    placement = place_triad(Triad(D, Quality.MINOR), anchor=A)
    centers = [hex_center(h) for h in placement.hexes]
    assert placement.point[0] == pytest.approx(sum(c[0] for c in centers) / 3)
    assert placement.point[1] == pytest.approx(sum(c[1] for c in centers) / 3)


def test_placement_equivariant_under_lattice_period():
    # (12, 0) is a full period of the pitch-class pattern along the fifth axis
    period = hex_center((12, 0))
    for triad in (Triad(A, Quality.MAJOR), Triad(D, Quality.MINOR)):
        base = place_triad(triad, near=(0.7, 0.4), anchor=A)
        moved = place_triad(
            triad, near=(0.7 + period[0], 0.4 + period[1]), anchor=A
        )
        assert moved.root_coord == (base.root_coord[0] + 12, base.root_coord[1])
        assert moved.point[0] == pytest.approx(base.point[0] + period[0])
        assert moved.point[1] == pytest.approx(base.point[1] + period[1])


def test_common_tone_neighbors_share_a_hexagon():
    for a, b in itertools.product(ALL_TRIADS, repeat=2):
        if a == b or not (a.pitch_classes() & b.pitch_classes()):
            continue
        first = place_triad(a, anchor=0)
        second = place_triad(b, near=first.point, anchor=0)
        assert set(first.hexes) & set(second.hexes)


def test_verse_path_circles_the_anchor_hexagon(lead_chart):
    from tonnetzlab.chart import progression

    chords = progression(lead_chart.sections["Verse"])
    annotation = annotate_progression(chords, Key(A))
    embedding = embed_path(annotation, anchor=A)
    touching = {
        p.triad for p in embedding.placements if (0, 0) in p.hexes
    }
    expected = {
        Triad(A, Quality.MAJOR),
        Triad(FS, Quality.MINOR),
        Triad(D, Quality.MAJOR),
        Triad(D, Quality.MINOR),
    }
    assert touching == expected


def test_coda_embedding_reuses_placements(lead_chart):
    from tonnetzlab.chart import progression

    chords = progression(lead_chart.sections["Coda"])
    annotation = annotate_progression(chords, Key(A))
    embedding = embed_path(annotation, anchor=A)
    assert len(embedding.placements) == 6
    # greedy chaining brings A, E and d back to the same instances
    assert len({p.point for p in embedding.placements}) == 3
    assert embedding.placements[0].point == embedding.placements[-1].point


def test_embedding_collapses_identity_transitions():
    chords = [parse_chord_symbol(t) for t in ["A", "A7", "D"]]
    annotation = annotate_progression(chords, Key(A))
    embedding = embed_path(annotation, anchor=A)
    assert [p.triad.name for p in embedding.placements] == ["A", "D"]
    assert embedding.arities == (1,)


def test_single_chord_embedding():
    embedding = embed_path(_single_chord_annotation("A"), anchor=A)
    assert len(embedding.placements) == 1
    assert embedding.arities == ()


def _arrow_groups(svg: str) -> list[ET.Element]:
    root = ET.fromstring(svg)
    return [
        el
        for el in root.iter()
        if el.tag.endswith("g") and "move-arrow" in (el.get("class") or "")
    ]


def test_render_verse_arrow_count(lead_chart):
    from tonnetzlab.chart import progression

    chords = progression(lead_chart.sections["Verse"])
    annotation = annotate_progression(chords, Key(A))
    svg = render_tonnetz_svg(embed_path(annotation, anchor=A), anchor=A)
    assert len(_arrow_groups(svg)) == len(chords) - 1 == 14


def test_render_double_moves_get_double_class(lead_chart):
    from tonnetzlab.chart import progression

    chords = progression(lead_chart.sections["Coda"])
    annotation = annotate_progression(chords, Key(A))
    svg = render_tonnetz_svg(embed_path(annotation, anchor=A), anchor=A)
    doubles = [
        el
        for el in _arrow_groups(svg)
        if "move-arrow-double" in (el.get("class") or "")
    ]
    assert len(doubles) == 1  # the dominant-seventh to minor-subdominant move


def test_render_single_placement():
    svg = render_tonnetz_svg(embed_path(_single_chord_annotation("A"), anchor=A))
    root = ET.fromstring(svg)
    assert len(_arrow_groups(svg)) == 0
    hexes = [el for el in root.iter() if el.get("class") == "pc-hex"]
    assert len(hexes) >= 3


def test_render_is_well_formed_and_deterministic(lead_chart):
    from tonnetzlab.chart import progression

    chords = progression(lead_chart.sections["Bridge"])
    annotation = annotate_progression(chords, Key(A))
    embedding = embed_path(annotation, anchor=A)
    first = render_tonnetz_svg(embedding, anchor=A)
    second = render_tonnetz_svg(embedding, anchor=A)
    assert first == second
    ET.fromstring(first)  # raises on malformed XML


def test_render_empty_embedding_rejected():
    with pytest.raises(EmptyEmbedding):
        render_tonnetz_svg(PathEmbedding((), ()))


def test_start_and_end_circles_distinct_when_path_ends_elsewhere():
    chords = [parse_chord_symbol(t) for t in ["A", "E"]]
    annotation = annotate_progression(chords, Key(A))
    svg = render_tonnetz_svg(embed_path(annotation, anchor=A), anchor=A)
    root = ET.fromstring(svg)
    circles = [el for el in root.iter() if el.get("class") == "chord-circle"]
    assert len(circles) == 2
