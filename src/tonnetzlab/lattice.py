"""Planar Tonnetz geometry: pitch-class hexagons, triad points, path embedding.

The lattice is the dual (hexagon-per-pitch-class) picture of the Tonnetz.
Integer coordinates (x, y) step along the fifth axis and the major-third axis,
so the pitch class of a hexagon is (7x + 4y + anchor) mod 12. Hexagon centers
sit at ((x + y/2) * d, y * sqrt(3)/2 * d) with d the hexagon spacing; the
hexagons are pointy-top. A triad appears as the point where its three
pitch-class hexagons meet, approximated by the centroid of their centers:

    major with root at (x, y):  hexes (x, y), (x+1, y), (x, y+1)
    minor with root at (x, y):  hexes (x, y), (x+1, y), (x+1, y-1)

Every pitch class recurs periodically across the plane, so a triad has many
instances; placements pick the instance nearest a target point, breaking exact
ties toward the smallest (x, then y) root coordinate so results are
deterministic.

A triad's instances are the roots with 7x + 4y = root - anchor (mod 12). They
repeat along the steps (0, 3) and (-4, 1), 3 and sqrt(13) spacings long, with
a sum 4 long; that triangle is acute, so every target lies within its
circumradius R = 2.082 of an instance. A triad point's y is
(y +- 1/3) * sqrt(3)/2 and R / (sqrt(3)/2) + 1/3 + 1/2 < 4, so its root lies
within 3 rows of the target's row. In a row the instances are 12 columns apart
with points at x + y/2 + 1/2, so only the one nearest the target in x can lie
within R: the search evaluates these seven candidates. Each candidate's point
is computed inline with the same float operations, in the same order, as the
mean of its three ``hex_center`` points, so the chosen instance and its point
are exactly those a scan of any wider window gives. The key that decides is
(squared distance rounded to 9 decimals, x, y), and its ties lie within R.

The SVG writes every number with two decimals. A honeycomb corner's y depends
only on its row and its x only on the hexagon center's x, which repeats every
other row, so each row's corner and label y and each distinct center's corner
and label x are formatted once, not once per hexagon. The viewBox comes from
the two extreme centers, as fl(c - r) and fl(c + r) grow with c.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .errors import TonnetzlabError
from .harmony import ChordSymbol, PitchClass, Triad, pitch_class_name, triad_of
from .record import record
from .transforms import tonnetz_distance

LatticeCoord = tuple[int, int]
Point = tuple[float, float]

_SQRT3_2 = math.sqrt(3.0) / 2.0
HEX_SIZE = 60.0  # hexagon center spacing in SVG user units
MARGIN = 1  # extra hexagon rings around the path's bounding box


def node_pitch_class(coord: LatticeCoord, anchor: PitchClass) -> PitchClass:
    x, y = coord
    return (7 * x + 4 * y + anchor) % 12


def hex_center(coord: LatticeCoord) -> Point:
    """Center of a hexagon in units of the hexagon spacing."""
    x, y = coord
    return (x + y / 2.0, y * _SQRT3_2)


def triad_hexes(triad: Triad, root_coord: LatticeCoord) -> tuple[LatticeCoord, ...]:
    x, y = root_coord
    if triad.minor:
        return ((x, y), (x + 1, y), (x + 1, y - 1))
    return ((x, y), (x + 1, y), (x, y + 1))


@record
class TriadPlacement(NamedTuple):
    """One lattice instance of a triad: its three hexagons and their junction."""

    triad: Triad
    hexes: tuple[LatticeCoord, ...]
    point: Point


def place_triad(
    triad: Triad, near: Point | None = None, anchor: PitchClass = 0
) -> TriadPlacement:
    """Lattice instance of ``triad`` whose junction point is nearest ``near``.

    With ``near`` absent the instance nearest the origin is chosen. Exact
    distance ties break toward the smallest (x, then y) root coordinate.
    """
    target_x, target_y = near if near is not None else (0.0, 0.0)
    ty = round(target_y / _SQRT3_2)
    # the third hexagon sits at (x + dx3, y + dy3)
    dx3, dy3 = triad_hexes(triad, (0, 0))[2]
    candidates = []
    for y in range(ty - 3, ty + 4):
        half, half3 = y / 2.0, (y + dy3) / 2.0
        # 7x + 4y + anchor = root (mod 12), and 7 is its own inverse mod 12;
        # of those x, the one whose point x + y/2 + 1/2 lies nearest the target
        k = 7 * (triad.root - anchor - 4 * y) % 12
        x = k + 12 * round((target_x - half - 0.5 - k) / 12)
        row = y * _SQRT3_2
        # the centroid of the three hexagon centers, summed in hexes order
        px = (((x + half) + ((x + 1) + half)) + ((x + dx3) + half3)) / 3
        py = ((row + row) + (y + dy3) * _SQRT3_2) / 3
        d2 = (px - target_x) ** 2 + (py - target_y) ** 2
        candidates.append((round(d2, 9), x, y, px, py))
    _, x, y, px, py = min(candidates)
    return TriadPlacement(triad, triad_hexes(triad, (x, y)), (px, py))


def embed_path(
    chords: Iterable[ChordSymbol], anchor: PitchClass = 0
) -> tuple[TriadPlacement, ...]:
    """Greedy nearest-instance embedding of a chord sequence.

    Identity transitions (embellishment changes on one triad) collapse to a
    single placement. Each successive triad takes its instance nearest the
    previous point; the chaining is greedy, not globally optimal.
    """
    triads: list[Triad] = []
    for symbol in chords:
        t = triad_of(symbol)
        if not triads or triads[-1] != t:
            triads.append(t)
    if not triads:
        raise TonnetzlabError("no chords to embed")

    placements = [place_triad(triads[0], None, anchor)]
    for t in triads[1:]:
        placements.append(place_triad(t, placements[-1].point, anchor))
    return tuple(placements)


# No element has the note-marker class; the rule stays so that every SVG keeps
# its published bytes.
_STYLE = (
    ".pc-hex{fill:#fdfdf8;stroke:#555;stroke-width:1.2}"
    ".pc-label{font:italic %(label)dpx serif;fill:#333;text-anchor:middle}"
    ".move-arrow{stroke:#c0392b;stroke-width:2.4;fill:none}"
    ".move-arrow .head{fill:#c0392b;stroke:none}"
    ".chord-circle{fill:none;stroke:#c0392b;stroke-width:2.4}"
    ".note-marker{fill:none;stroke:#2855a0;stroke-width:2}"
)


def _fmt(value: float) -> str:
    """An SVG number: two decimals, never ``-0.00``.

    ``:.2f`` writes the correctly rounded decimal of the exact binary value,
    as ``round(value, 2)`` does, so this is the text of the rounded value.
    """
    text = f"{value:.2f}"
    return "0.00" if text == "-0.00" else text


def _svg_point(p: Point) -> Point:
    # lattice y grows upward; SVG y grows downward
    return (p[0] * HEX_SIZE, -p[1] * HEX_SIZE)


# (cos, sin) of the six corner angles of a pointy-top hexagon
_HEX_CORNERS = tuple(
    (math.cos(math.radians(30 + 60 * k)), math.sin(math.radians(30 + 60 * k)))
    for k in range(6)
)


def _arrow(start: Point, end: Point, double: bool) -> str:
    (x1, y1), (x2, y2) = _svg_point(start), _svg_point(end)
    dx, dy = x2 - x1, y2 - y1
    length = math.hypot(dx, dy)
    ux, uy = dx / length, dy / length
    trim = 0.16 * HEX_SIZE
    x1, y1 = x1 + ux * trim, y1 + uy * trim
    x2, y2 = x2 - ux * trim, y2 - uy * trim
    head = 0.12 * HEX_SIZE
    px, py = -uy, ux  # unit perpendicular
    base_x, base_y = x2 - ux * head, y2 - uy * head
    head_path = (
        f'<path class="head" d="M {_fmt(x2)} {_fmt(y2)} '
        f"L {_fmt(base_x + px * head * 0.55)} {_fmt(base_y + py * head * 0.55)} "
        f'L {_fmt(base_x - px * head * 0.55)} {_fmt(base_y - py * head * 0.55)} Z"/>'
    )
    shaft_end_x, shaft_end_y = x2 - ux * head * 0.8, y2 - uy * head * 0.8
    cls = "move-arrow move-arrow-double" if double else "move-arrow"
    lines = []
    offsets = (-0.045 * HEX_SIZE, 0.045 * HEX_SIZE) if double else (0.0,)
    for off in offsets:
        lines.append(
            f'<line x1="{_fmt(x1 + px * off)}" y1="{_fmt(y1 + py * off)}" '
            f'x2="{_fmt(shaft_end_x + px * off)}" y2="{_fmt(shaft_end_y + py * off)}"/>'
        )
    return f'<g class="{cls}">' + "".join(lines) + head_path + "</g>"


def render_tonnetz_svg(placements: tuple[TriadPlacement, ...]) -> str:
    """Render an embedded path as a standalone SVG 1.1 document.

    The honeycomb covers the path's bounding box plus a one-hex margin; red
    arrows join consecutive triad points (a move between triads two apart in
    the common-tone graph gets a doubled shaft) and the start and end chords
    are circled. Output is deterministic.
    """
    if not placements:
        raise TonnetzlabError("cannot render an empty embedding")
    # the labels' anchor: the first placement's first hexagon holds its root
    first = placements[0]
    anchor = (first.triad.root - node_pitch_class(first.hexes[0], 0)) % 12

    used = {h for p in placements for h in p.hexes}
    x_lo = min(h[0] for h in used) - MARGIN
    x_hi = max(h[0] for h in used) + MARGIN
    y_lo = min(h[1] for h in used) - MARGIN
    y_hi = max(h[1] for h in used) + MARGIN

    # A corner's y depends only on the row, and its x only on the center's x,
    # which recurs every other row: each coordinate is formatted once.
    radius = HEX_SIZE / math.sqrt(3.0)
    columns: dict[float, tuple[str, list[str]]] = {}
    hex_parts: list[str] = []
    for y in range(y_lo, y_hi + 1):
        cy = _svg_point(hex_center((x_lo, y)))[1]
        corner_ys = [_fmt(cy - radius * sin) for _, sin in _HEX_CORNERS]
        label_y = _fmt(cy + 0.11 * HEX_SIZE)
        for x in range(x_lo, x_hi + 1):
            center_x = hex_center((x, y))[0]
            if center_x not in columns:
                cx = _svg_point((center_x, 0.0))[0]
                corner_xs = [_fmt(cx + radius * cos) for cos, _ in _HEX_CORNERS]
                columns[center_x] = (_fmt(cx), corner_xs)
            label_x, corner_xs = columns[center_x]
            points = " ".join(f"{a},{b}" for a, b in zip(corner_xs, corner_ys))
            name = pitch_class_name(node_pitch_class((x, y), anchor))
            hex_parts.append(
                f'<polygon class="pc-hex" points="{points}"/>'
                f'<text class="pc-label" x="{label_x}" y="{label_y}">{name}</text>'
            )

    arrow_parts = [
        _arrow(a.point, b.point, tonnetz_distance(a.triad, b.triad) == 2)
        for a, b in zip(placements, placements[1:])
    ]

    circle_points = [placements[0].point]
    if placements[-1].point != circle_points[0]:
        circle_points.append(placements[-1].point)
    circle_parts = []
    for p in circle_points:
        cx, cy = _svg_point(p)
        circle_parts.append(
            f'<circle class="chord-circle" cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
            f'r="{_fmt(0.3 * HEX_SIZE)}"/>'
        )

    # fl(c - radius) and fl(c + radius) grow with c, so the extreme centers
    # give the honeycomb's extent
    min_cx, max_cy = _svg_point(hex_center((x_lo, y_lo)))
    max_cx, min_cy = _svg_point(hex_center((x_hi, y_hi)))
    pad = 0.2 * HEX_SIZE
    min_x, max_x = min_cx - radius - pad, max_cx + radius + pad
    min_y, max_y = min_cy - radius - pad, max_cy + radius + pad

    style = _STYLE % {"label": int(0.3 * HEX_SIZE)}
    body = "".join(hex_parts) + "".join(arrow_parts) + "".join(circle_parts)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(min_x)} {_fmt(min_y)} '
        f'{_fmt(max_x - min_x)} {_fmt(max_y - min_y)}">'
        f"<style>{style}</style>{body}</svg>\n"
    )
