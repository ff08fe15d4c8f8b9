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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import TonnetzlabError
from .harmony import PitchClass, Quality, Triad, pitch_class_name, triad_of
from .transforms import MoveKind, ProgressionAnnotation, tonnetz_distance

LatticeCoord = tuple[int, int]
Point = tuple[float, float]

_SQRT3_2 = math.sqrt(3.0) / 2.0
HEX_SIZE = 60.0  # hexagon center spacing in SVG user units
MARGIN = 1  # extra hexagon rings around the path's bounding box


class EmptyEmbedding(TonnetzlabError):
    """Rendering needs at least one placed triad."""


def node_pitch_class(coord: LatticeCoord, anchor: PitchClass) -> PitchClass:
    x, y = coord
    return (7 * x + 4 * y + anchor) % 12


def hex_center(coord: LatticeCoord) -> Point:
    """Center of a hexagon in units of the hexagon spacing."""
    x, y = coord
    return (x + y / 2.0, y * _SQRT3_2)


def triad_hexes(triad: Triad, root_coord: LatticeCoord) -> tuple[LatticeCoord, ...]:
    x, y = root_coord
    if triad.quality is Quality.MAJOR:
        return ((x, y), (x + 1, y), (x, y + 1))
    return ((x, y), (x + 1, y), (x + 1, y - 1))


@dataclass(frozen=True)
class TriadPlacement:
    """One lattice instance of a triad: its three hexagons and their junction."""

    triad: Triad
    hexes: tuple[LatticeCoord, ...]
    point: Point

    @property
    def root_coord(self) -> LatticeCoord:
        return self.hexes[0]


def _centroid(coords: tuple[LatticeCoord, ...]) -> Point:
    centers = [hex_center(c) for c in coords]
    return (
        sum(c[0] for c in centers) / len(centers),
        sum(c[1] for c in centers) / len(centers),
    )


def place_triad(
    triad: Triad, near: Point | None = None, anchor: PitchClass = 0
) -> TriadPlacement:
    """Lattice instance of ``triad`` whose junction point is nearest ``near``.

    With ``near`` absent the instance nearest the origin is chosen. Exact
    distance ties break toward the smallest (x, then y) root coordinate.
    """
    target = near if near is not None else (0.0, 0.0)
    ty = int(round(target[1] / _SQRT3_2))
    tx = int(round(target[0] - ty / 2.0))
    best: tuple[float, int, int, tuple[LatticeCoord, ...], Point] | None = None
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


@dataclass(frozen=True)
class PathEmbedding:
    """An embedded progression: one placement per (non-identity) chord.

    ``arities[i]`` is the Tonnetz arity of the move from placement i to
    placement i+1, so arrows can be drawn single or double.
    """

    placements: tuple[TriadPlacement, ...]
    arities: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.arities) != max(len(self.placements) - 1, 0):
            raise ValueError("need one arity per consecutive placement pair")


def embed_path(
    annotation: ProgressionAnnotation, anchor: PitchClass = 0
) -> PathEmbedding:
    """Greedy nearest-instance embedding of an annotated progression.

    Identity transitions (embellishment changes on one triad) collapse to a
    single placement. Each successive triad takes its instance nearest the
    previous point; the chaining is greedy, not globally optimal.
    """
    triads: list[Triad] = []
    for symbol in annotation.chords:
        t = triad_of(symbol)
        if not triads or triads[-1] != t:
            triads.append(t)
    if not triads:
        raise EmptyEmbedding("no chords to embed")

    placements = [place_triad(triads[0], None, anchor)]
    for t in triads[1:]:
        placements.append(place_triad(t, placements[-1].point, anchor))
    arities = tuple(
        tonnetz_distance(a.triad, b.triad)
        for a, b in zip(placements, placements[1:])
    )
    return PathEmbedding(tuple(placements), arities)


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
    """An SVG number: two decimals, never ``-0.00``."""
    rounded = round(value, 2)
    if rounded == 0:
        rounded = 0.0
    return f"{rounded:.2f}"


def _svg_point(p: Point, scale: float) -> Point:
    # lattice y grows upward; SVG y grows downward
    return (p[0] * scale, -p[1] * scale)


def _hexagon_path(center: Point, scale: float) -> str:
    cx, cy = _svg_point(center, scale)
    radius = scale / math.sqrt(3.0)
    pts = []
    for k in range(6):
        angle = math.radians(30 + 60 * k)
        pts.append(
            f"{_fmt(cx + radius * math.cos(angle))},"
            f"{_fmt(cy - radius * math.sin(angle))}"
        )
    return " ".join(pts)


def _arrow(start: Point, end: Point, scale: float, double: bool) -> str:
    (x1, y1), (x2, y2) = _svg_point(start, scale), _svg_point(end, scale)
    dx, dy = x2 - x1, y2 - y1
    length = math.hypot(dx, dy)
    ux, uy = dx / length, dy / length
    trim = 0.16 * scale
    x1, y1 = x1 + ux * trim, y1 + uy * trim
    x2, y2 = x2 - ux * trim, y2 - uy * trim
    head = 0.12 * scale
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
    offsets = (-0.045 * scale, 0.045 * scale) if double else (0.0,)
    for off in offsets:
        lines.append(
            f'<line x1="{_fmt(x1 + px * off)}" y1="{_fmt(y1 + py * off)}" '
            f'x2="{_fmt(shaft_end_x + px * off)}" y2="{_fmt(shaft_end_y + py * off)}"/>'
        )
    return f'<g class="{cls}">' + "".join(lines) + head_path + "</g>"


def render_tonnetz_svg(embedding: PathEmbedding, anchor: PitchClass = 0) -> str:
    """Render an embedded path as a standalone SVG 1.1 document.

    The honeycomb covers the path's bounding box plus a one-hex margin; red
    arrows join consecutive triad points (double moves get a doubled shaft)
    and the start and end chords are circled. Output is deterministic.
    """
    if not embedding.placements:
        raise EmptyEmbedding("cannot render an empty embedding")
    scale = HEX_SIZE

    used = {h for p in embedding.placements for h in p.hexes}
    xs = [h[0] for h in used]
    ys = [h[1] for h in used]
    grid = [
        (x, y)
        for y in range(min(ys) - MARGIN, max(ys) + MARGIN + 1)
        for x in range(min(xs) - MARGIN, max(xs) + MARGIN + 1)
    ]

    hex_parts: list[str] = []
    radius = scale / math.sqrt(3.0)
    for coord in grid:
        center = hex_center(coord)
        hex_parts.append(
            f'<polygon class="pc-hex" points="{_hexagon_path(center, scale)}"/>'
        )
        cx, cy = _svg_point(center, scale)
        name = pitch_class_name(node_pitch_class(coord, anchor))
        hex_parts.append(
            f'<text class="pc-label" x="{_fmt(cx)}" '
            f'y="{_fmt(cy + 0.11 * scale)}">{name}</text>'
        )

    arrow_parts = [
        _arrow(a.point, b.point, scale, arity == 2)
        for a, b, arity in zip(
            embedding.placements, embedding.placements[1:], embedding.arities
        )
    ]

    circle_points = [embedding.placements[0].point]
    if embedding.placements[-1].point != circle_points[0]:
        circle_points.append(embedding.placements[-1].point)
    circle_parts = []
    for p in circle_points:
        cx, cy = _svg_point(p, scale)
        circle_parts.append(
            f'<circle class="chord-circle" cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
            f'r="{_fmt(0.3 * scale)}"/>'
        )

    all_x: list[float] = []
    all_y: list[float] = []
    for coord in grid:
        cx, cy = _svg_point(hex_center(coord), scale)
        all_x.extend((cx - radius, cx + radius))
        all_y.extend((cy - radius, cy + radius))
    pad = 0.2 * scale
    min_x, max_x = min(all_x) - pad, max(all_x) + pad
    min_y, max_y = min(all_y) - pad, max(all_y) + pad

    style = _STYLE % {"label": int(0.3 * scale)}
    body = "".join(hex_parts) + "".join(arrow_parts) + "".join(circle_parts)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(min_x)} {_fmt(min_y)} '
        f'{_fmt(max_x - min_x)} {_fmt(max_y - min_y)}">'
        f"<style>{style}</style>{body}</svg>\n"
    )
