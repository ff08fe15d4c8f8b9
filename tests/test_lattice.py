from __future__ import annotations

import hashlib
import itertools
import math
import random
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from svg_reference import fmt_reference, render_tonnetz_svg_reference

from tonnetzlab.chart import ChartDocument, parse_chart, serialize_chart
from tonnetzlab.cli import main
from tonnetzlab.errors import TonnetzlabError
from tonnetzlab.harmony import (
    ALL_TRIADS,
    ChordSymbol,
    Triad,
    parse_chord_symbol,
    pitch_class_name,
)
from tonnetzlab.lattice import (
    _SQRT3_2,
    TriadPlacement,
    _fmt,
    embed_path,
    hex_center,
    node_pitch_class,
    place_triad,
    render_tonnetz_svg,
    triad_hexes,
)
from tonnetzlab.transforms import classify_move, tonnetz_distance

A, CS, D, E, FS = 9, 1, 2, 4, 6


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
    placement = place_triad(Triad(A, minor=False), anchor=A)
    assert set(placement.hexes) == {(0, 0), (1, 0), (0, 1)}
    assert {node_pitch_class(h, A) for h in placement.hexes} == {A, CS, E}


def test_minor_subdominant_shares_the_anchor_hexagon():
    a_major = place_triad(Triad(A, minor=False), anchor=A)
    d_minor = place_triad(Triad(D, minor=True), near=a_major.point, anchor=A)
    assert (0, 0) in d_minor.hexes


def test_placement_is_idempotent():
    first = place_triad(Triad(FS, minor=True), near=(0.3, 0.1), anchor=A)
    second = place_triad(Triad(FS, minor=True), near=(0.3, 0.1), anchor=A)
    assert first == second


def test_placement_hexes_spell_the_triad_everywhere():
    for triad, anchor in itertools.product(ALL_TRIADS, range(0, 9)):
        placement = place_triad(triad, anchor=anchor)
        got = {node_pitch_class(h, anchor) for h in placement.hexes}
        assert got == set(triad.pitch_classes())


def test_placement_point_is_centroid_of_hex_centers():
    placement = place_triad(Triad(D, minor=True), anchor=A)
    centers = [hex_center(h) for h in placement.hexes]
    assert placement.point[0] == pytest.approx(sum(c[0] for c in centers) / 3)
    assert placement.point[1] == pytest.approx(sum(c[1] for c in centers) / 3)


def test_placement_equivariant_under_lattice_period():
    # (12, 0) is a full period of the pitch-class pattern along the fifth axis
    period = hex_center((12, 0))
    for triad in (Triad(A, minor=False), Triad(D, minor=True)):
        base = place_triad(triad, near=(0.7, 0.4), anchor=A)
        moved = place_triad(
            triad, near=(0.7 + period[0], 0.4 + period[1]), anchor=A
        )
        assert moved.hexes[0] == (base.hexes[0][0] + 12, base.hexes[0][1])
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
    from tonnetzlab.chart import flatten, progression

    placements = embed_path(
        progression(flatten(lead_chart.sections["Verse"])), anchor=A
    )
    touching = {p.triad for p in placements if (0, 0) in p.hexes}
    expected = {
        Triad(A, minor=False),
        Triad(FS, minor=True),
        Triad(D, minor=False),
        Triad(D, minor=True),
    }
    assert touching == expected


def test_coda_embedding_reuses_placements(lead_chart):
    from tonnetzlab.chart import flatten, progression

    placements = embed_path(progression(flatten(lead_chart.sections["Coda"])), anchor=A)
    assert len(placements) == 6
    # greedy chaining brings A, E and d back to the same instances
    assert len({p.point for p in placements}) == 3
    assert placements[0].point == placements[-1].point


def test_embedding_collapses_identity_transitions():
    chords = [parse_chord_symbol(t) for t in ["A", "A7", "D"]]
    placements = embed_path(chords, anchor=A)
    assert [p.triad.name for p in placements] == ["A", "D"]
    assert tonnetz_distance(placements[0].triad, placements[1].triad) == 1


def test_single_chord_embedding():
    assert len(embed_path([parse_chord_symbol("A")], anchor=A)) == 1


_CHORDS = st.builds(
    ChordSymbol, st.integers(0, 11), st.booleans(), st.sampled_from(("", "6", "7"))
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_CHORDS, min_size=1, max_size=30), st.integers(0, 11))
def test_embedding_places_one_triad_per_move_of_nonzero_arity(chords, anchor):
    placements = embed_path(chords, anchor)
    arities = [classify_move(a, b).arity for a, b in zip(chords, chords[1:])]
    steps = [a for a in arities if a]
    assert len(placements) == 1 + len(steps)
    assert [
        tonnetz_distance(p.triad, q.triad) for p, q in zip(placements, placements[1:])
    ] == steps


def _arrow_groups(svg: str) -> list[ET.Element]:
    root = ET.fromstring(svg)
    return [
        el
        for el in root.iter()
        if el.tag.endswith("g") and "move-arrow" in (el.get("class") or "")
    ]


def test_render_verse_arrow_count(lead_chart):
    from tonnetzlab.chart import flatten, progression

    chords = progression(flatten(lead_chart.sections["Verse"]))
    svg = render_tonnetz_svg(embed_path(chords, anchor=A), anchor=A)
    assert len(_arrow_groups(svg)) == len(chords) - 1 == 14


def test_render_double_moves_get_double_class(lead_chart):
    from tonnetzlab.chart import flatten, progression

    chords = progression(flatten(lead_chart.sections["Coda"]))
    svg = render_tonnetz_svg(embed_path(chords, anchor=A), anchor=A)
    doubles = [
        el
        for el in _arrow_groups(svg)
        if "move-arrow-double" in (el.get("class") or "")
    ]
    assert len(doubles) == 1  # the dominant-seventh to minor-subdominant move


def test_render_single_placement():
    svg = render_tonnetz_svg(embed_path([parse_chord_symbol("A")], anchor=A))
    root = ET.fromstring(svg)
    assert len(_arrow_groups(svg)) == 0
    hexes = [el for el in root.iter() if el.get("class") == "pc-hex"]
    assert len(hexes) >= 3


def test_render_is_well_formed_and_deterministic(lead_chart):
    from tonnetzlab.chart import flatten, progression

    placements = embed_path(
        progression(flatten(lead_chart.sections["Bridge"])), anchor=A
    )
    first = render_tonnetz_svg(placements, anchor=A)
    second = render_tonnetz_svg(placements, anchor=A)
    assert first == second
    ET.fromstring(first)  # raises on malformed XML


def _translated(
    placements: tuple[TriadPlacement, ...], shift: tuple[int, int]
) -> tuple[TriadPlacement, ...]:
    """The same path drawn ``shift`` hexagons away (the labels change with it)."""
    dx, dy = hex_center(shift)
    return tuple(
        TriadPlacement(
            p.triad,
            tuple((x + shift[0], y + shift[1]) for x, y in p.hexes),
            (p.point[0] + dx, p.point[1] + dy),
        )
        for p in placements
    )


@settings(max_examples=1000, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_matches_its_reference_on_any_finite_float(value):
    assert _fmt(value) == fmt_reference(value)


@settings(max_examples=1000, deadline=None)
@given(
    st.one_of(
        st.integers(-(10**9), 10**9).map(lambda k: k / 200),
        # the exact binary ties of two decimals: odd multiples of 1/8
        st.integers(-(10**9), 10**9).map(lambda q: (2 * q + 1) / 8),
    )
)
@example(0.125)
@example(-0.375)
@example(2.675)  # just below its decimal tie in binary
@example(1.005)
def test_fmt_matches_its_reference_on_two_decimal_ties(value):
    assert _fmt(value) == fmt_reference(value)


@settings(max_examples=500, deadline=None)
@given(st.floats(-0.005, 0.0, exclude_min=True))
@example(-0.0)
@example(-0.004999999999999999)
def test_fmt_never_writes_negative_zero(value):
    assert _fmt(value) == fmt_reference(value) == "0.00"


@pytest.mark.parametrize("anchor", range(12))
@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.sampled_from(ALL_TRIADS), min_size=1, max_size=24),
    st.tuples(st.integers(-60, 60), st.integers(-60, 60)),
)
def test_render_matches_the_reference_on_random_progressions(anchor, triads, shift):
    placements = embed_path([parse_chord_symbol(t.name) for t in triads], anchor)
    for drawn in (placements, _translated(placements, shift)):
        assert render_tonnetz_svg(drawn, anchor) == render_tonnetz_svg_reference(
            drawn, anchor
        )


def test_render_empty_embedding_rejected():
    with pytest.raises(TonnetzlabError, match="^cannot render an empty embedding$"):
        render_tonnetz_svg(())


def test_start_and_end_circles_distinct_when_path_ends_elsewhere():
    chords = [parse_chord_symbol(t) for t in ["A", "E"]]
    svg = render_tonnetz_svg(embed_path(chords, anchor=A), anchor=A)
    root = ET.fromstring(svg)
    circles = [el for el in root.iter() if el.get("class") == "chord-circle"]
    assert len(circles) == 2


def _centroid(coords):
    centers = [hex_center(c) for c in coords]
    return (
        sum(c[0] for c in centers) / len(centers),
        sum(c[1] for c in centers) / len(centers),
    )


def place_triad_reference(triad, near=None, anchor=0):
    """``place_triad`` by a scan of every hexagon of its 17 x 33 window."""
    target = near if near is not None else (0.0, 0.0)
    ty = int(round(target[1] / _SQRT3_2))
    tx = int(round(target[0] - ty / 2.0))
    best = None
    for y in range(ty - 8, ty + 9):
        for x in range(tx - 16, tx + 17):
            if node_pitch_class((x, y), anchor) != triad.root:
                continue
            hexes = triad_hexes(triad, (x, y))
            point = _centroid(hexes)
            d2 = (point[0] - target[0]) ** 2 + (point[1] - target[1]) ** 2
            key = (round(d2, 9), x, y)
            if best is None or key < (best[0], best[1], best[2]):
                best = (key[0], x, y, hexes, point)
    assert best is not None  # the search window always contains instances
    return TriadPlacement(triad, best[3], best[4])


def _midpoint(p, q):
    return ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)


# targets where several instances lie at exactly the same distance: hexagon
# centers, triad points and the midpoints between neighbouring ones
_CENTERS = [hex_center((x, y)) for y in (-1, 0, 1) for x in (-1, 0, 1)]
_TRIAD_POINTS = [
    _centroid(triad_hexes(Triad(0, minor), root))
    for minor in (False, True)
    for root in ((0, 0), (1, -1), (-2, 1))
]
_TIE_TARGETS = [
    None,
    *_CENTERS,
    *_TRIAD_POINTS,
    *(_midpoint(hex_center((0, 0)), hex_center(h)) for h in ((1, 0), (0, 1), (1, -1))),
    *(_midpoint(p, q) for p, q in zip(_TRIAD_POINTS, _TRIAD_POINTS[1:])),
    hex_center((40, -25)),
]


@pytest.mark.parametrize("anchor", range(12))
def test_place_triad_matches_the_full_scan_on_tie_targets(anchor):
    for triad, near in itertools.product(ALL_TRIADS, _TIE_TARGETS):
        want = place_triad_reference(triad, near, anchor)
        got = place_triad(triad, near, anchor)
        assert (got.hexes, got.point) == (want.hexes, want.point), (triad, near)


# the tie targets moved by about 1e-10: candidate distances there differ by
# less than the 9-decimal rounding of the placement key
_NEAR_TIE_TARGETS = [
    (x + nx, y + ny)
    for x, y in _TIE_TARGETS[1:]
    for nx, ny in ((1e-10, 0.0), (-7e-11, 1.3e-10))
]


@pytest.mark.parametrize("anchor", range(12))
def test_place_triad_matches_the_full_scan_on_near_tie_targets(anchor):
    for triad, near in itertools.product(ALL_TRIADS, _NEAR_TIE_TARGETS):
        want = place_triad_reference(triad, near, anchor)
        got = place_triad(triad, near, anchor)
        assert (got.hexes, got.point) == (want.hexes, want.point), (triad, near)


def _window_distances(triad, near) -> list[float]:
    """Squared distance to ``near`` of every instance in the search window."""
    ty = int(round(near[1] / _SQRT3_2))
    tx = int(round(near[0] - ty / 2.0))
    d2 = []
    for y in range(ty - 8, ty + 9):
        for x in range(tx - 16, tx + 17):
            if node_pitch_class((x, y), 0) == triad.root:
                p = _centroid(triad_hexes(triad, (x, y)))
                d2.append((p[0] - near[0]) ** 2 + (p[1] - near[1]) ** 2)
    return d2


def test_near_tie_targets_hold_ties_only_after_rounding():
    # in about one case in ten, instances at different distances round to
    # the same nearest key, so the (x, y) tie-break decides among them
    ties = 0
    for triad, near in itertools.product(ALL_TRIADS, _NEAR_TIE_TARGETS):
        d2 = _window_distances(triad, near)
        nearest = min(round(d, 9) for d in d2)
        ties += len({d for d in d2 if round(d, 9) == nearest}) > 1
    assert ties > len(ALL_TRIADS) * len(_NEAR_TIE_TARGETS) // 20


def test_tie_targets_hold_exact_ties():
    # in over a tenth of the cases several instances are nearest, so the
    # (x, y) tie-break decides
    ties = 0
    for triad, near in itertools.product(ALL_TRIADS, _TIE_TARGETS[1:]):
        d2 = [round(d, 9) for d in _window_distances(triad, near)]
        ties += d2.count(min(d2)) > 1
    assert ties > len(ALL_TRIADS) * len(_TIE_TARGETS) // 10


_TARGET_COORD = st.one_of(
    st.floats(-50, 50, allow_nan=False), st.floats(-1e6, 1e6, allow_nan=False)
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(ALL_TRIADS),
    st.integers(0, 11),
    st.tuples(_TARGET_COORD, _TARGET_COORD),
)
def test_place_triad_matches_the_full_scan_on_random_targets(triad, anchor, near):
    want = place_triad_reference(triad, near, anchor)
    got = place_triad(triad, near, anchor)
    assert (got.hexes, got.point) == (want.hexes, want.point)


def test_embed_path_matches_the_full_scan_along_a_drifting_path():
    # a long walk drifts far from the origin; each step of the reference
    # chain is placed nearest the previous reference point
    rng = random.Random(19)
    triads = [rng.choice(ALL_TRIADS)]
    while len(triads) < 2000:
        triad = rng.choice(ALL_TRIADS)
        if triad != triads[-1]:
            triads.append(triad)
    want = [place_triad_reference(triads[0], None, A)]
    for triad in triads[1:]:
        want.append(place_triad_reference(triad, want[-1].point, A))
    chords = [ChordSymbol(t.root, t.minor) for t in triads]
    assert embed_path(chords, A) == tuple(want)


# the root coordinates of a triad's instances repeat along these two steps
_PERIOD_CELL = (hex_center((0, 3)), hex_center((-4, 1)))


@pytest.mark.parametrize("shift", [(0.0, 0.0), (987654.321, -123456.789)])
@pytest.mark.parametrize("anchor", range(12))
def test_nearest_instance_lies_within_the_covering_radius(anchor, shift):
    # The steps are 3 and sqrt(13) spacings long and their sum 4: an acute
    # triangle, whose circumradius, about 2.082, is the lattice's covering
    # radius. A point's y is (y +- 1/3) * sqrt(3)/2, so the nearest instance
    # lies within 3 rows of the target's row, the rows place_triad searches.
    (ax, ay), (bx, by) = _PERIOD_CELL
    for i, j in itertools.product(range(4), repeat=2):
        near = (shift[0] + (i * ax + j * bx) / 4, shift[1] + (i * ay + j * by) / 4)
        row = round(near[1] / _SQRT3_2)
        for triad in ALL_TRIADS:
            placement = place_triad_reference(triad, near, anchor)
            assert abs(placement.hexes[0][1] - row) <= 3, (triad, near)
            assert math.dist(placement.point, near) <= 2.09, (triad, near)


CHARTS = Path(__file__).resolve().parents[1] / "charts"

# SHA-256 over every section's name, a NUL byte and its render-tonnetz SVG,
# of each bundled chart transposed into each key; recorded with the scan of
# the whole window, so they pin all 12 anchors where test_golden pins two
TRANSPOSED_TONNETZ = {
    "in_my_life.chart": {
        "A":
            "9fe8564a9dd99752226986226dc71b05488bbdfd5a85712e6de176bfa9f07983",
        "A#":
            "8c4c55a65498113baf0a433d4dc1d00b24043c0807b14eaf273cb4cd96eafce4",
        "B":
            "44e91f169f0d78a1da2f1d4f29acb7b94f6864752582d80eeb1a959b0928d16b",
        "C":
            "6ea4421cb7b8abb94e9fb06ef83d02a450373a0b240b8614ef0e0d71d6086451",
        "C#":
            "bc6ec0e9f1d0cc167af1a4d6d82a6eaab8da417798824ecb84148faf3326c1b1",
        "D":
            "752109f32ce26565d0aa58b4d0d6f66ce4931ee3baa3a725d57175aa854fb834",
        "D#":
            "5ba072d6269882f1d85fb69caa3ac49b719fbd1c096c83d8cc071f182e14d962",
        "E":
            "473f3da8cf77e10f25b92b915046ce04b77c2cfe78456278eb95d7e603669b95",
        "F":
            "7a74d872dfc9211de7c111a94594f32630a72b475b9a4ecd490de6ab4c335fe3",
        "F#":
            "43197eb11ced5b2f40eb69dca60d2843823308e0b0015c08587f811b511d5d2f",
        "G":
            "f4f7de7b2e38440b37ad96088a9e42012522ed27258f5034a89197b236c54b96",
        "G#":
            "eecc31896f9e939302fae46e1acc85afe04e55bc557f9eaa59b6060154afd14e",
    },
    "in_my_life_recorded.chart": {
        "A":
            "12627a23bcba8ff3b4deee677fe21b3c0b965caa8072d93f0a415d3d059bbe4e",
        "A#":
            "bc640a94c2881168f28f2f6f2cd36cf3b9a2630e82b688789f963d53a0773b1e",
        "B":
            "0a32cdd8b1312c537d9daf430b064372112db9d7e0ee0801a1736d03a8cb9b29",
        "C":
            "1dc0a9c26ce1765724ea7777aee5ffcb507b74437ae7e36b0df2e880d4e19d81",
        "C#":
            "779f496ab0e34839a89d010765ecf5c63902b8915b4c3b251ffb96bdceea1d33",
        "D":
            "ce9256a064130325cc1a75347019ad35d5cee86dd4d6651a18caa88d10dc6a5c",
        "D#":
            "fb73c065f0fc6e6643e65d8c4e9baca6b80149ab9fef717fdb293df611a8223f",
        "E":
            "4d45be52d36e0d2e0250cd18a58686c7f4193393611493f31ad55f942195877d",
        "F":
            "cb05125c497126a1033b4b6bf3b6de619518fb50d22280a2613e0cf62bd6701b",
        "F#":
            "a02af751d2d8dc6425e8f4de5e76a33853bcee9a2dd24fc05a9492a757b66282",
        "G":
            "c306e5a6cc18ff59c53c1fa2a25a9ec7f8cb2295f6f97f79ecd78fb91f199290",
        "G#":
            "2029064decb3966318a0bf819e189607e53fde348ff3c5a6e362891916a05e02",
    },
}


def _transposed(doc: ChartDocument, shift: int) -> ChartDocument:
    def move(symbol):
        bass = None if symbol.bass is None else (symbol.bass + shift) % 12
        return symbol._replace(root=(symbol.root + shift) % 12, bass=bass, text="")

    sections = {
        name: section._replace(
            measures=tuple(
                tuple(e._replace(symbol=move(e.symbol)) for e in measure)
                for measure in section.measures
            ),
        )
        for name, section in doc.sections.items()
    }
    return doc._replace(key=(doc.key + shift) % 12, sections=sections)


@pytest.mark.parametrize("chart_name", sorted(TRANSPOSED_TONNETZ))
def test_render_tonnetz_in_every_key_matches_recorded_hashes(chart_name, tmp_path):
    doc = parse_chart((CHARTS / chart_name).read_text(encoding="utf-8"))
    got = {}
    for shift in range(12):
        moved = _transposed(doc, shift)
        chart = tmp_path / f"{shift}.chart"
        chart.write_text(serialize_chart(moved), encoding="utf-8")
        digest = hashlib.sha256()
        for name in moved.sections:
            svg = tmp_path / f"{shift}-{name}.svg"
            argv = ["render-tonnetz", str(chart), "--section", name, "--out", str(svg)]
            assert main(argv) == 0
            digest.update(name.encode() + b"\0" + svg.read_bytes())
        got[pitch_class_name(moved.key)] = digest.hexdigest()
    assert got == TRANSPOSED_TONNETZ[chart_name]
