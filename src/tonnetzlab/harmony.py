"""Pitch-class arithmetic, chord-symbol parsing, and Roman-numeral labeling.

Pitch classes are integers 0-11 with C = 0; all interval arithmetic is mod 12.
Only major keys are supported, so a key is its tonic pitch class.
Chord symbols follow lead-sheet conventions: an uppercase root letter means a
major triad, a lowercase one a minor triad ("m" suffix is also accepted), an
optional 6 or 7 adds an embellishment tone, and "/X" names a bass note that
must belong to the chord. Enharmonic spelling collapses to pitch class; the
original token is kept on the symbol for display.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import TonnetzlabError, excerpt
from .record import record

PitchClass = int  # 0..11, C = 0

NOTE_NAMES = ["C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B"]

_LETTER_PCS = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}
_SHARP_CHARS = "#♯"  # '#' and '♯'
_FLAT_CHARS = "b♭"  # 'b' and '♭'

# the numeral of each interval above the tonic, 0 to 11
_NUMERALS = (
    "I", "♭II", "II", "♭III", "III", "IV", "♭V", "V", "♭VI", "VI", "♭VII", "VII"
)


class Quality(enum.Enum):
    MAJOR = "major"
    MINOR = "minor"


def pitch_class_name(pc: PitchClass) -> str:
    """Sharp-preferred note name for a pitch class."""
    return NOTE_NAMES[pc % 12]


def parse_pitch_class(text: str) -> PitchClass:
    """Parse a note name such as ``F#``, ``Bb`` or ``E♭`` to a pitch class."""
    if not text or text[0].upper() not in _LETTER_PCS:
        raise TonnetzlabError(f"unknown note letter in {excerpt(text)}")
    pc = _LETTER_PCS[text[0].upper()]
    rest = text[1:]
    if rest:
        if len(rest) > 1 or rest not in _SHARP_CHARS + _FLAT_CHARS:
            raise TonnetzlabError(f"bad accidental in {excerpt(text)}")
        pc += 1 if rest in _SHARP_CHARS else -1
    return pc % 12


@record
class Triad(NamedTuple):
    """A major or minor triad reduced to its root pitch class and quality."""

    root: PitchClass
    quality: Quality

    def pitch_classes(self) -> frozenset[PitchClass]:
        third = 4 if self.quality is Quality.MAJOR else 3
        return frozenset({self.root, (self.root + third) % 12, (self.root + 7) % 12})

    @property
    def name(self) -> str:
        base = pitch_class_name(self.root)
        return base if self.quality is Quality.MAJOR else base.lower()


ALL_TRIADS = tuple(
    Triad(root, quality) for quality in Quality for root in range(12)
)


@record
class ChordSymbol(NamedTuple):
    """A parsed lead-sheet chord token.

    ``text`` keeps the token as written (display only); equality and hashing
    use the structural fields so ``A``, ``a``-with-"M"-typo variants and
    enharmonic respellings compare by content.
    """

    root: PitchClass
    quality: Quality
    embellishment: str = ""  # "", "6" or "7"
    bass: PitchClass | None = None
    text: str = ""

    def __eq__(self, other) -> bool:
        return type(other) is ChordSymbol and self[:4] == other[:4]

    def __hash__(self) -> int:
        return hash(self[:4])

    def canonical(self) -> str:
        """Canonical token: sharp-preferred root, case encodes quality."""
        name = pitch_class_name(self.root)
        if self.quality is Quality.MINOR:
            name = name.lower()
        out = name + self.embellishment
        if self.bass is not None:
            out += "/" + pitch_class_name(self.bass)
        return out

    @property
    def display(self) -> str:
        return self.text or self.canonical()


def parse_chord_symbol(token: str) -> ChordSymbol:
    """Parse a chord token such as ``A``, ``f#7``, ``Bm``, or ``B/F#``.

    Raises TonnetzlabError on invalid input: an unknown root letter, a double
    accidental, trailing text, or a bass note outside the chord.
    """
    if not token:
        raise TonnetzlabError("empty chord token")
    letter = token[0]
    if letter.upper() not in _LETTER_PCS:
        raise TonnetzlabError(f"unknown root letter {letter!r} in {excerpt(token)}")
    quality = Quality.MAJOR if letter.isupper() else Quality.MINOR
    root = _LETTER_PCS[letter.upper()]
    rest = token[1:]

    if rest and rest[0] in _SHARP_CHARS + _FLAT_CHARS:
        if len(rest) > 1 and rest[1] in _SHARP_CHARS + _FLAT_CHARS:
            raise TonnetzlabError(f"double accidental in {excerpt(token)}")
        root += 1 if rest[0] in _SHARP_CHARS else -1
        rest = rest[1:]
    root %= 12

    # explicit minor suffix, tolerated on either letter case
    if rest.startswith("m"):
        quality = Quality.MINOR
        rest = rest[1:]

    embellishment = ""
    if rest[:1] in ("6", "7"):
        embellishment, rest = rest[0], rest[1:]

    bass: PitchClass | None = None
    if rest.startswith("/"):
        bass = parse_pitch_class(rest[1:])
        rest = ""

    if rest:
        raise TonnetzlabError(f"unexpected {excerpt(rest)} at end of {excerpt(token)}")

    symbol = ChordSymbol(root, quality, embellishment, bass, text=token)
    if bass is not None and bass not in pitch_class_set(symbol):
        raise TonnetzlabError(
            f"bass {pitch_class_name(bass)} is not a tone of {excerpt(token)}"
        )
    return symbol


def triad_of(symbol: ChordSymbol) -> Triad:
    """Underlying triad of a chord: embellishment and bass are dropped."""
    return Triad(symbol.root, symbol.quality)


def pitch_class_set(symbol: ChordSymbol) -> frozenset[PitchClass]:
    """Full pitch-class set: triad tones plus the embellishment tone.

    A seventh adds root+10 (dominant/minor seventh) for either quality; a
    sixth adds root+9.
    """
    tones = set(triad_of(symbol).pitch_classes())
    if symbol.embellishment == "7":
        tones.add((symbol.root + 10) % 12)
    elif symbol.embellishment == "6":
        tones.add((symbol.root + 9) % 12)
    return frozenset(tones)


def common_tones(a: ChordSymbol, b: ChordSymbol) -> frozenset[PitchClass]:
    """Pitch classes shared by two chords (embellishment tones included)."""
    return pitch_class_set(a) & pitch_class_set(b)


def roman_numeral(symbol: ChordSymbol, key: PitchClass) -> str:
    """Roman-numeral label, such as ``♭VII`` or ``ii7``, of a chord in the major
    key with tonic ``key``.

    A root outside the scale is spelled as the flat of the degree above it (G
    in A major is ♭VII). Lowercase marks a minor chord, and a 6 or 7 follows
    the numeral. A major chord with a seventh whose plain label would be I7 is
    labelled V7/IV, the secondary dominant of the subdominant.
    """
    interval = (symbol.root - key) % 12
    if (interval, symbol.quality, symbol.embellishment) == (0, Quality.MAJOR, "7"):
        return "V7/IV"
    numeral = _NUMERALS[interval]
    if symbol.quality is Quality.MINOR:
        numeral = numeral.lower()
    return numeral + symbol.embellishment
