"""Harmonic-rhythm clocks over two-measure windows.

Chord onsets are plotted on a clock of 8 hours (one hour per quarter-note
beat, two 4/4 measures per cycle), hour 0 at the top, running clockwise.
Windows tile a section from its first beat. A chord sustained across a window
boundary produces no onset in the later window, so a window can be a pure
continuation with an empty clock.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .chart import TimedChord
from .errors import TonnetzlabError
from .lattice import _fmt

HOURS_PER_CYCLE = 8  # one hour per quarter-note beat
WINDOW_MEASURES = 2  # measures per clock window


class WindowMismatch(TonnetzlabError):
    """meter * WINDOW_MEASURES must equal the clock's hour count."""


class RhythmClass(enum.Enum):
    WHOLE_NOTE = "whole_note"
    HALF_NOTE = "half_note"
    MIXED = "mixed"
    CONTINUATION = "continuation"


@dataclass(frozen=True)
class RhythmClock:
    """Chord onsets of one window: (hour, chord label) pairs, hours ascending."""

    onsets: tuple[tuple[int, str], ...]
    partial: bool = False  # trailing window extends past the section's end

    def __post_init__(self) -> None:
        hours = [h for h, _ in self.onsets]
        if any(not 0 <= h < HOURS_PER_CYCLE for h in hours):
            raise ValueError("onset hour outside the cycle")
        if any(a >= b for a, b in zip(hours, hours[1:])):
            raise ValueError("onset hours must be strictly increasing")

    @property
    def hours(self) -> tuple[int, ...]:
        return tuple(h for h, _ in self.onsets)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for _, label in self.onsets)

    @property
    def is_continuation(self) -> bool:
        return not self.onsets


def clocks_for(timed: list[TimedChord], meter: int) -> list[RhythmClock]:
    """Tile a section's timed chords into per-window rhythm clocks."""
    if meter * WINDOW_MEASURES != HOURS_PER_CYCLE:
        raise WindowMismatch(
            f"{meter} beats x {WINDOW_MEASURES} measures != "
            f"{HOURS_PER_CYCLE}-hour cycle"
        )
    total = max((t.onset + t.duration for t in timed), default=0)
    count = math.ceil(total / HOURS_PER_CYCLE) if total else 0
    clocks = []
    for w in range(count):
        start = w * HOURS_PER_CYCLE
        onsets = tuple(
            (t.onset - start, t.symbol.display)
            for t in timed
            if start <= t.onset < start + HOURS_PER_CYCLE
        )
        clocks.append(RhythmClock(onsets, partial=start + HOURS_PER_CYCLE > total))
    return clocks


def classify_rhythm(clock: RhythmClock) -> RhythmClass:
    """Whole-note, half-note, or mixed, from the cyclic onset gaps."""
    if clock.is_continuation:
        return RhythmClass.CONTINUATION
    hours = clock.hours
    gaps = [b - a for a, b in zip(hours, hours[1:])]
    gaps.append(hours[0] + HOURS_PER_CYCLE - hours[-1])
    if all(g == 4 for g in gaps):
        return RhythmClass.WHOLE_NOTE
    if all(g == 2 for g in gaps):
        return RhythmClass.HALF_NOTE
    return RhythmClass.MIXED


def reflect_clock(clock: RhythmClock, axis_hour: int) -> RhythmClock:
    """Mirror a clock through the line passing through ``axis_hour``.

    Each onset hour h maps to (2 * axis_hour - h) mod cycle; labels ride
    along and the onsets are re-sorted. An involution for every axis.
    """
    if not 0 <= axis_hour < HOURS_PER_CYCLE:
        raise ValueError(f"axis hour {axis_hour} outside the cycle")
    mirrored = sorted(
        ((2 * axis_hour - h) % HOURS_PER_CYCLE, label) for h, label in clock.onsets
    )
    return RhythmClock(tuple(mirrored), clock.partial)


@dataclass(frozen=True)
class Alternation:
    """A maximal A-B-A-B run in the window sequence (length >= 3)."""

    start: int
    length: int
    clocks: tuple[int, int]


@dataclass(frozen=True)
class ReflectionPair:
    """Two distinct clocks whose hour sets mirror through hours 0 and 4."""

    first: int
    second: int
    axis_hours: tuple[int, int] = (0, 4)


@dataclass(frozen=True)
class SubstructureReport:
    distinct_clocks: tuple[RhythmClock, ...]
    occurrence_sequence: tuple[int, ...]
    classifications: tuple[RhythmClass, ...]
    alternations: tuple[Alternation, ...]
    reflections: tuple[ReflectionPair, ...]


def _alternation_runs(seq: tuple[int, ...]) -> tuple[Alternation, ...]:
    runs = []
    i = 0
    while i < len(seq) - 2:
        if seq[i + 1] != seq[i] and seq[i + 2] == seq[i]:
            j = i + 2
            while j + 1 < len(seq) and seq[j + 1] == seq[j - 1]:
                j += 1
            runs.append(Alternation(i, j - i + 1, (seq[i], seq[i + 1])))
            i = j
        else:
            i += 1
    return tuple(runs)


def detect_substructures(clocks: list[RhythmClock]) -> SubstructureReport:
    """Group windows by identical clocks and describe how they recur.

    Clocks are distinct when either their hour sets or their label sequences
    differ (the same rhythm over different chords is a different
    substructure). Reflection relations through the 0-4 mirror are reported
    for distinct pairs, comparing hour sets only.
    """
    distinct: list[RhythmClock] = []
    occurrence: list[int] = []
    for clock in clocks:
        key = (clock.onsets, clock.partial)
        for idx, seen in enumerate(distinct):
            if (seen.onsets, seen.partial) == key:
                occurrence.append(idx)
                break
        else:
            occurrence.append(len(distinct))
            distinct.append(clock)

    reflections = []
    for i in range(len(distinct)):
        for j in range(i + 1, len(distinct)):
            mirrored = set(reflect_clock(distinct[i], 0).hours)
            if mirrored == set(distinct[j].hours):
                reflections.append(ReflectionPair(i, j))

    return SubstructureReport(
        tuple(distinct),
        tuple(occurrence),
        tuple(classify_rhythm(c) for c in distinct),
        _alternation_runs(tuple(occurrence)),
        tuple(reflections),
    )


_CLOCK_STYLE = (
    ".clock-rim{fill:none;stroke:#222;stroke-width:2}"
    ".clock-tick{stroke:#222;stroke-width:1.5}"
    ".clock-onset{fill:#c0392b;stroke:none}"
    ".clock-label{font:16px serif;fill:#111;text-anchor:middle}"
)


def _hour_xy(hour: float, radius: float, cx: float, cy: float):
    theta = 2.0 * math.pi * hour / HOURS_PER_CYCLE  # clockwise from the top
    return cx + radius * math.sin(theta), cy - radius * math.cos(theta)


def render_clock_svg(clock: RhythmClock) -> str:
    """Render one rhythm clock as a standalone SVG 1.1 document."""
    size, cx, cy, rim = 220.0, 110.0, 110.0, 78.0
    parts = [
        f'<circle class="clock-rim" cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(rim)}"/>'
    ]
    for hour in range(HOURS_PER_CYCLE):
        x1, y1 = _hour_xy(hour, rim - 7, cx, cy)
        x2, y2 = _hour_xy(hour, rim, cx, cy)
        parts.append(
            f'<line class="clock-tick" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>'
        )
    for hour, label in clock.onsets:
        dx, dy = _hour_xy(hour, rim, cx, cy)
        parts.append(
            f'<circle class="clock-onset" cx="{_fmt(dx)}" cy="{_fmt(dy)}" r="5.00"/>'
        )
        lx, ly = _hour_xy(hour, rim + 22, cx, cy)
        parts.append(
            f'<text class="clock-label" x="{_fmt(lx)}" y="{_fmt(ly + 5)}">'
            f"{_escape(label)}</text>"
        )
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {_fmt(size)} {_fmt(size)}">'
        f"<style>{_CLOCK_STYLE}</style>" + "".join(parts) + "</svg>\n"
    )


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
