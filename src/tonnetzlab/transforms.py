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

from typing import NamedTuple

from .harmony import ChordSymbol, PitchClass, Triad, roman_numeral, triad_of
from .record import record

# P parallel, L leittonwechsel, R relative, N nebenverwandt (a major key to its
# minor subdominant and back): each maps a triad to one of the other mode
NR_OPS = "PLRN"

# root offset of each operation from a (major, minor) source, indexed by minor
_NR_ROOT_SHIFT = {"P": (0, 0), "R": (9, 3), "L": (4, 8), "N": (5, 7)}


def apply_nr(op: str, t: Triad) -> Triad:
    """Apply operation ``op``, a letter of ``NR_OPS``; each toggles the mode."""
    return Triad((t.root + _NR_ROOT_SHIFT[op][t.minor]) % 12, not t.minor)


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
    nr_name: str | None = None  # a letter of NR_OPS

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
    nr_name = None  # every operation changes the mode, so none names arity 0
    for op in NR_OPS:
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
    roman: tuple[str, ...]
    cadences: tuple[Cadence, ...]


def detect_cadences(roman: tuple[str, ...]) -> tuple[Cadence, ...]:
    """Find IV-iv-I (plagal cadence with modal mixture) and V-vi (deceptive).

    Embellishments are ignored; secondary-dominant labels never match.
    """
    plain = [label.rstrip("67") for label in roman]
    found: list[Cadence] = []
    for i in range(len(plain)):
        if plain[i : i + 3] == ["IV", "iv", "I"]:
            found.append(Cadence("plagal_mixture", i, 3))
        elif plain[i : i + 2] == ["V", "vi"]:
            found.append(Cadence("deceptive", i, 2))
    return tuple(found)


def annotate_progression(
    chords: list[ChordSymbol] | tuple[ChordSymbol, ...], key: PitchClass
) -> ProgressionAnnotation:
    """Move classification, Roman labels, and cadences (no moves below two chords)."""
    moves = tuple(classify_move(a, b) for a, b in zip(chords, chords[1:]))
    roman = tuple(roman_numeral(c, key) for c in chords)
    return ProgressionAnnotation(moves, roman, detect_cadences(roman))
