"""Harmonic-rhythm clocks over two-measure windows.

Chord onsets are plotted on a clock of one hour per quarter-note beat over two
measures (8 hours in 4/4, 6 in 3/4), hour 0 at the top, running clockwise.
Windows tile a section from its first beat. A chord sustained across a window
boundary produces no onset in the later window, so a window can be a pure
continuation with an empty clock.

A clock's SVG up to its onsets, and the dot and label position of an onset at
each hour, depend on the cycle alone, so each cycle's face is formatted once
and kept; the chart's meter (at most ``MAX_METER`` beats) bounds the cycles.
"""

from __future__ import annotations

import bisect
import functools
import math
from typing import NamedTuple

from .chart import MAX_METER, TimedChord
from .lattice import _fmt
from .record import record

WINDOW_MEASURES = 2  # measures per clock window


@record
class RhythmClock(NamedTuple):
    """Chord onsets of one window: (hour, chord label) pairs, hours ascending."""

    onsets: tuple[tuple[int, str], ...]
    cycle: int  # hours on the dial: one per beat of the window
    partial: bool = False  # trailing window extends past the section's end

    def _check(self) -> None:
        hours = [h for h, _ in self.onsets]
        if any(not 0 <= h < self.cycle for h in hours):
            raise ValueError("onset hour outside the cycle")
        if any(a >= b for a, b in zip(hours, hours[1:])):
            raise ValueError("onset hours must be strictly increasing")

    @property
    def hours(self) -> tuple[int, ...]:
        return tuple(h for h, _ in self.onsets)

    @property
    def is_continuation(self) -> bool:
        return not self.onsets


def clocks_for(timed: list[TimedChord], meter: int) -> list[RhythmClock]:
    """Tile a section's timed chords into clocks of two ``meter``-beat measures.

    ``timed`` is as ``chart.flatten`` gives it: in onset order, from beat 0,
    each chord at least one beat long. One pass puts each chord in its window.
    """
    cycle = meter * WINDOW_MEASURES
    total = max((t.onset + t.duration for t in timed), default=0)
    windows: list[list[tuple[int, str]]] = [[] for _ in range(0, total, cycle)]
    for t in timed:
        window, hour = divmod(t.onset, cycle)
        windows[window].append((hour, t.symbol.display))
    return [
        RhythmClock(tuple(onsets), cycle, partial=(i + 1) * cycle > total)
        for i, onsets in enumerate(windows)
    ]


def classify_rhythm(clock: RhythmClock) -> str:
    """``whole_note`` (every cyclic gap a measure), ``half_note`` (half one),
    ``mixed``, or ``continuation`` for a clock with no onset."""
    if clock.is_continuation:
        return "continuation"
    hours = clock.hours
    measure = clock.cycle // WINDOW_MEASURES
    gaps = [b - a for a, b in zip(hours, hours[1:])]
    gaps.append(hours[0] + clock.cycle - hours[-1])
    if all(g == measure for g in gaps):
        return "whole_note"
    if all(2 * g == measure for g in gaps):
        return "half_note"
    return "mixed"


def reflect_clock(clock: RhythmClock, axis_hour: int) -> RhythmClock:
    """Mirror a clock through the line passing through ``axis_hour``.

    Each onset hour h maps to (2 * axis_hour - h) mod cycle; labels ride
    along and the onsets are re-sorted. An involution for every axis.
    """
    if not 0 <= axis_hour < clock.cycle:
        raise ValueError(f"axis hour {axis_hour} outside the cycle")
    mirrored = sorted(
        ((2 * axis_hour - h) % clock.cycle, label) for h, label in clock.onsets
    )
    return RhythmClock(tuple(mirrored), clock.cycle, clock.partial)


@record
class Alternation(NamedTuple):
    """A maximal A-B-A-B run in the window sequence (length >= 3)."""

    start: int
    length: int
    clocks: tuple[int, int]


@record
class ReflectionPair(NamedTuple):
    """Two distinct clocks whose hour sets mirror through hour 0 and its opposite."""

    first: int
    second: int


@record
class SubstructureReport(NamedTuple):
    distinct_clocks: tuple[RhythmClock, ...]
    occurrence_sequence: tuple[int, ...]
    alternations: tuple[Alternation, ...]
    reflections: tuple[ReflectionPair, ...]

    @property
    def classifications(self) -> tuple[str, ...]:
        return tuple(classify_rhythm(c) for c in self.distinct_clocks)


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

    Clocks are distinct when any of their fields differ: the onsets' hours or
    chord labels (the same rhythm over different chords is a different
    substructure), the cycle, or whether the window is partial. Reflections
    through the mirror from hour 0 to the opposite hour are reported for
    distinct pairs, comparing hour sets only: each clock's mirror image is
    looked up among the clocks indexed by hour set, so the work is linear in
    the clocks plus the pairs found.
    """
    position: dict[RhythmClock, int] = {}
    occurrence = [position.setdefault(clock, len(position)) for clock in clocks]
    distinct = list(position)

    with_hours: dict[frozenset[int], list[int]] = {}
    for i, clock in enumerate(distinct):
        with_hours.setdefault(frozenset(clock.hours), []).append(i)
    reflections = []
    for i, clock in enumerate(distinct):
        mirrors = with_hours.get(frozenset(reflect_clock(clock, 0).hours), [])
        later = mirrors[bisect.bisect_right(mirrors, i) :]
        reflections += [ReflectionPair(i, j) for j in later]

    return SubstructureReport(
        tuple(distinct),
        tuple(occurrence),
        _alternation_runs(tuple(occurrence)),
        tuple(reflections),
    )


_CLOCK_STYLE = (
    ".clock-rim{fill:none;stroke:#222;stroke-width:2}"
    ".clock-tick{stroke:#222;stroke-width:1.5}"
    ".clock-onset{fill:#c0392b;stroke:none}"
    ".clock-label{font:16px serif;fill:#111;text-anchor:middle}"
)


def _hour_xy(hour: float, cycle: int, radius: float, cx: float, cy: float):
    theta = 2.0 * math.pi * hour / cycle  # clockwise from the top
    return cx + radius * math.sin(theta), cy - radius * math.cos(theta)


@functools.lru_cache(maxsize=WINDOW_MEASURES * MAX_METER)
def _clock_face(cycle: int) -> tuple[str, tuple[str, ...]]:
    """The SVG of a ``cycle``-hour clock up to its onsets, and each hour's onset
    markup up to its label."""
    size, cx, cy, rim = 220.0, 110.0, 110.0, 78.0
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {_fmt(size)} {_fmt(size)}">'
        f"<style>{_CLOCK_STYLE}</style>",
        f'<circle class="clock-rim" cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(rim)}"/>',
    ]
    onsets = []
    for hour in range(cycle):
        x1, y1 = _hour_xy(hour, cycle, rim - 7, cx, cy)
        x2, y2 = _hour_xy(hour, cycle, rim, cx, cy)
        parts.append(
            f'<line class="clock-tick" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>'
        )
        lx, ly = _hour_xy(hour, cycle, rim + 22, cx, cy)
        onsets.append(
            f'<circle class="clock-onset" cx="{_fmt(x2)}" cy="{_fmt(y2)}" r="5.00"/>'
            f'<text class="clock-label" x="{_fmt(lx)}" y="{_fmt(ly + 5)}">'
        )
    return "".join(parts), tuple(onsets)


def render_clock_svg(clock: RhythmClock) -> str:
    """Render one rhythm clock as a standalone SVG 1.1 document."""
    face, onsets = _clock_face(clock.cycle)
    labels = "".join(
        f"{onsets[hour]}{_escape(label)}</text>" for hour, label in clock.onsets
    )
    return f"{face}{labels}</svg>\n"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
