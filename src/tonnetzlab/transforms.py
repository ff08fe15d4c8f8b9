"""Neo-Riemannian operations and the common-tone triad graph.

The 24 major/minor triads form a graph whose edges join triads sharing at
least one pitch class. A transition between distinct triads is a *single*
transformation when they are adjacent in this graph and a *double*
transformation otherwise; the graph has diameter 2, so every move is one or
the other. Transitions that keep the underlying triad (such as A to A7) are
embellishment changes, not moves, and classify as identities with arity 0.

Arity is decided on underlying triads: sevenths and sixths are embellishments
and do not contribute common tones, which is why E7 to d is a double move even
though the seventh of E7 is a d-chord tone.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .harmony import (
    Accidental,
    ChordSymbol,
    PitchClass,
    Quality,
    RomanLabel,
    Triad,
    roman_numeral,
    triad_of,
)
from .record import record


class NeoRiemannianOp(enum.Enum):
    P = "P"  # parallel: same root, toggled quality
    L = "L"  # leittonwechsel
    R = "R"  # relative
    N = "N"  # nebenverwandt: major key to its minor subdominant and back


# root offset applied by each operation, keyed by (op, source quality)
_NR_ROOT_SHIFT = {
    (NeoRiemannianOp.P, Quality.MAJOR): 0,
    (NeoRiemannianOp.P, Quality.MINOR): 0,
    (NeoRiemannianOp.R, Quality.MAJOR): 9,
    (NeoRiemannianOp.R, Quality.MINOR): 3,
    (NeoRiemannianOp.L, Quality.MAJOR): 4,
    (NeoRiemannianOp.L, Quality.MINOR): 8,
    (NeoRiemannianOp.N, Quality.MAJOR): 5,
    (NeoRiemannianOp.N, Quality.MINOR): 7,
}


def apply_nr(op: NeoRiemannianOp, t: Triad) -> Triad:
    """Apply a neo-Riemannian operation; each one toggles triad quality."""
    shift = _NR_ROOT_SHIFT[(op, t.quality)]
    quality = Quality.MINOR if t.quality is Quality.MAJOR else Quality.MAJOR
    return Triad((t.root + shift) % 12, quality)


def tonnetz_distance(a: Triad, b: Triad) -> int:
    """Shortest-path length between triads in the common-tone graph (0-2).

    The graph has diameter 2, so distinct triads are 1 apart when they share
    a pitch class and 2 apart otherwise.
    """
    if a == b:
        return 0
    return 1 if a.pitch_classes() & b.pitch_classes() else 2


_KIND_NAMES = ("identity", "single", "double")  # indexed by arity


@record
class TonnetzMove(NamedTuple):
    """A classified transition between two chords' underlying triads."""

    source: ChordSymbol
    target: ChordSymbol
    arity: int
    nr_name: NeoRiemannianOp | None = None

    @property
    def kind(self) -> str:
        """The arity's name: ``identity``, ``single`` or ``double``."""
        return _KIND_NAMES[self.arity]


def classify_move(a: ChordSymbol, b: ChordSymbol) -> TonnetzMove:
    """Classify the transition from chord ``a`` to chord ``b``.

    Arity is the graph distance of the underlying triads; a name from
    {P, L, R, N} is attached when the triads are related by that involution.
    """
    ta, tb = triad_of(a), triad_of(b)
    arity = tonnetz_distance(ta, tb)
    nr_name = None  # every operation changes the quality, so none names arity 0
    for op in NeoRiemannianOp:
        if apply_nr(op, ta) == tb:
            nr_name = op
            break
    return TonnetzMove(a, b, arity, nr_name)


@record
class Cadence(NamedTuple):
    """A detected cadence pattern at a position in a progression."""

    kind: str  # "plagal_mixture" or "deceptive"
    start: int  # index of the pattern's first chord
    length: int


@record
class ProgressionAnnotation(NamedTuple):
    moves: tuple[TonnetzMove, ...]
    roman: tuple[RomanLabel, ...]
    cadences: tuple[Cadence, ...]


def _is_plain(label: RomanLabel, degree: int, quality: Quality) -> bool:
    return (
        label.degree == degree
        and label.quality is quality
        and label.accidental is Accidental.NATURAL
        and label.secondary_of is None
    )


def detect_cadences(roman: tuple[RomanLabel, ...]) -> tuple[Cadence, ...]:
    """Find IV-iv-I (plagal cadence with modal mixture) and V-vi (deceptive).

    Embellishments are ignored; secondary-dominant labels never match.
    """
    found: list[Cadence] = []
    for i in range(len(roman) - 2):
        if (
            _is_plain(roman[i], 4, Quality.MAJOR)
            and _is_plain(roman[i + 1], 4, Quality.MINOR)
            and _is_plain(roman[i + 2], 1, Quality.MAJOR)
        ):
            found.append(Cadence("plagal_mixture", i, 3))
    for i in range(len(roman) - 1):
        if _is_plain(roman[i], 5, Quality.MAJOR) and _is_plain(
            roman[i + 1], 6, Quality.MINOR
        ):
            found.append(Cadence("deceptive", i, 2))
    found.sort(key=lambda c: (c.start, c.kind))
    return tuple(found)


def annotate_progression(
    chords: list[ChordSymbol] | tuple[ChordSymbol, ...], key: PitchClass
) -> ProgressionAnnotation:
    """Move classification, Roman labels, and cadences (no moves below two chords)."""
    moves = tuple(classify_move(a, b) for a, b in zip(chords, chords[1:]))
    roman = tuple(roman_numeral(c, key) for c in chords)
    return ProgressionAnnotation(moves, roman, detect_cadences(roman))
