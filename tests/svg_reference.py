"""Reference SVG writers: each number rounded and formatted where it is drawn.

These are the straightforward forms of ``lattice._fmt``,
``lattice.render_tonnetz_svg`` and ``rhythm.render_clock_svg``, which format
every corner, label and tick on its own. The library formats each distinct
value once; the tests check that it writes the same bytes as these.
"""

from __future__ import annotations

import math

from tonnetzlab.errors import TonnetzlabError
from tonnetzlab.harmony import pitch_class_name
from tonnetzlab.lattice import (
    _HEX_CORNERS,
    _STYLE,
    HEX_SIZE,
    MARGIN,
    TriadPlacement,
    _arrow,
    _svg_point,
    hex_center,
    node_pitch_class,
)
from tonnetzlab.rhythm import _CLOCK_STYLE, RhythmClock, _escape, _hour_xy
from tonnetzlab.transforms import tonnetz_distance


def fmt_reference(value: float) -> str:
    """An SVG number: two decimals, never ``-0.00``."""
    rounded = round(value, 2)
    if rounded == 0:
        rounded = 0.0
    return f"{rounded:.2f}"


def _hexagon_path(center, scale: float) -> str:
    cx, cy = _svg_point(center, scale)
    radius = scale / math.sqrt(3.0)
    return " ".join(
        f"{fmt_reference(cx + radius * cos)},{fmt_reference(cy - radius * sin)}"
        for cos, sin in _HEX_CORNERS
    )


def render_tonnetz_svg_reference(
    placements: tuple[TriadPlacement, ...], anchor: int = 0
) -> str:
    if not placements:
        raise TonnetzlabError("cannot render an empty embedding")
    scale = HEX_SIZE

    used = {h for p in placements for h in p.hexes}
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
            f'<text class="pc-label" x="{fmt_reference(cx)}" '
            f'y="{fmt_reference(cy + 0.11 * scale)}">{name}</text>'
        )

    # the arrows format a handful of numbers each and are drawn by the library
    arrow_parts = [
        _arrow(a.point, b.point, scale, tonnetz_distance(a.triad, b.triad) == 2)
        for a, b in zip(placements, placements[1:])
    ]

    circle_points = [placements[0].point]
    if placements[-1].point != circle_points[0]:
        circle_points.append(placements[-1].point)
    circle_parts = []
    for p in circle_points:
        cx, cy = _svg_point(p, scale)
        circle_parts.append(
            f'<circle class="chord-circle" cx="{fmt_reference(cx)}" '
            f'cy="{fmt_reference(cy)}" r="{fmt_reference(0.3 * scale)}"/>'
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
        f'viewBox="{fmt_reference(min_x)} {fmt_reference(min_y)} '
        f'{fmt_reference(max_x - min_x)} {fmt_reference(max_y - min_y)}">'
        f"<style>{style}</style>{body}</svg>\n"
    )


def render_clock_svg_reference(clock: RhythmClock) -> str:
    fmt = fmt_reference
    size, cx, cy, rim = 220.0, 110.0, 110.0, 78.0
    parts = [
        f'<circle class="clock-rim" cx="{fmt(cx)}" cy="{fmt(cy)}" r="{fmt(rim)}"/>'
    ]
    for hour in range(clock.cycle):
        x1, y1 = _hour_xy(hour, clock.cycle, rim - 7, cx, cy)
        x2, y2 = _hour_xy(hour, clock.cycle, rim, cx, cy)
        parts.append(
            f'<line class="clock-tick" x1="{fmt(x1)}" y1="{fmt(y1)}" '
            f'x2="{fmt(x2)}" y2="{fmt(y2)}"/>'
        )
    for hour, label in clock.onsets:
        dx, dy = _hour_xy(hour, clock.cycle, rim, cx, cy)
        parts.append(
            f'<circle class="clock-onset" cx="{fmt(dx)}" cy="{fmt(dy)}" r="5.00"/>'
        )
        lx, ly = _hour_xy(hour, clock.cycle, rim + 22, cx, cy)
        parts.append(
            f'<text class="clock-label" x="{fmt(lx)}" y="{fmt(ly + 5)}">'
            f"{_escape(label)}</text>"
        )
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {fmt(size)} {fmt(size)}">'
        f"<style>{_CLOCK_STYLE}</style>" + "".join(parts) + "</svg>\n"
    )
