"""Text chord-chart parsing: song form, sections, measures, timed chords.

Chart format
------------
Header lines come first::

    title: In My Life (lead sheet)
    key: A
    meter: 4/4
    form: Verse Bridge Verse Bridge Interlude Bridge Coda

``meter``'s numerator counts quarter-note beats per measure, from 1 to 12; the
denominator is not read, so ``6/8`` is a measure of six beats.
``form`` lists section names in playing order; every name must be defined.
Sections may also be defined without appearing in the form.

A section starts with ``[Name]`` on its own line. Body lines hold measures
separated by ``|`` (line breaks also end a measure). A measure is a list of
whitespace-separated events ``CHORD:beats``; ``:beats`` may be omitted for a
chord filling the whole measure. Event durations must sum to the meter.

A ``~`` prefix marks a tie: ``~A:2`` continues the previous A rather than
restriking it, which matters for harmonic-rhythm clocks (a tied chord produces
no new onset). The tied chord must match the previous event's chord.

``#`` starts a comment when it begins a line or follows whitespace; a ``#``
inside a token is an accidental (``f#:2`` is F-sharp minor for two beats).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import TonnetzlabError, clip, excerpt
from .harmony import (
    ChordSymbol,
    PitchClass,
    parse_chord_symbol,
    parse_pitch_class,
    pitch_class_name,
)
from .record import record

MAX_METER = 12  # beats per measure


@record
class ChordEvent(NamedTuple):
    symbol: ChordSymbol
    duration: int  # beats
    tied: bool = False  # continuation of the previous event's chord


Measure = tuple[ChordEvent, ...]


@record
class Section(NamedTuple):
    name: str
    measures: tuple[Measure, ...]


@record
class TimedChord(NamedTuple):
    symbol: ChordSymbol
    onset: int  # beats from section start
    duration: int


@record
class ChartDocument(NamedTuple):
    title: str
    key: PitchClass  # tonic of the major key
    meter: int  # beats per measure, quarter-note beat
    form: tuple[str, ...]
    sections: dict[str, Section]


def _strip_comment(line: str) -> str:
    for i, ch in enumerate(line):
        if ch == "#" and (i == 0 or line[i - 1].isspace()):
            return line[:i]
    return line


def _beats(text: str) -> int | None:
    # no count of beats reaches 100, and int() refuses a numeral over 4300 digits
    digits = text.lstrip("0")
    if not text.isdecimal() or not 1 <= len(digits) <= 2:
        return None
    return int(digits)


def _parse_meter(text: str, line_no: int) -> int:
    beats = _beats(text.split("/", 1)[0].strip())
    if beats is None or beats > MAX_METER:
        raise TonnetzlabError(
            f"line {line_no}: bad meter {excerpt(text)} "
            f"(1 to {MAX_METER} beats a measure)"
        )
    return beats


def _parse_event(token: str, line_no: int, column: int, meter: int) -> ChordEvent:
    tied = token.startswith("~")
    body = token[1:] if tied else token
    if ":" in body:
        chord_text, _, beats_text = body.partition(":")
        duration = _beats(beats_text)
        if duration is None:
            raise TonnetzlabError(
                f"line {line_no}, column {column}: bad duration in {excerpt(token)}"
            )
    else:
        chord_text, duration = body, meter
    try:
        symbol = parse_chord_symbol(chord_text)
    except TonnetzlabError as exc:
        raise TonnetzlabError(f"line {line_no}, column {column}: {exc}") from exc
    return ChordEvent(symbol, duration, tied)


def parse_chart(text: str) -> ChartDocument:
    """Parse and fully validate a chart document."""
    title = ""
    key: PitchClass | None = None
    meter: int | None = None
    form: tuple[str, ...] | None = None

    sections: dict[str, Section] = {}
    current: str | None = None
    measures: list[Measure] = []
    last_event: ChordEvent | None = None

    def close_section() -> None:
        nonlocal current, measures, last_event
        if current is not None:
            sections[current] = Section(current, tuple(measures))
        current, measures, last_event = None, [], None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).rstrip()
        if not line.strip():
            continue

        if line.strip().startswith("[") and line.strip().endswith("]"):
            close_section()
            name = line.strip()[1:-1].strip()
            if not name:
                raise TonnetzlabError(f"line {line_no}: empty section name")
            if name in sections:
                raise TonnetzlabError(
                    f"line {line_no}: section [{clip(name)}] redefined"
                )
            current = name
            continue

        if current is None:
            if ":" not in line:
                raise TonnetzlabError(f"line {line_no}: expected 'header: value'")
            head, _, value = line.partition(":")
            head, value = head.strip().lower(), value.strip()
            if head == "title":
                title = value
            elif head == "key":
                key = parse_pitch_class(value)
            elif head == "meter":
                meter = _parse_meter(value, line_no)
            elif head == "form":
                form = tuple(value.split())
            else:
                raise TonnetzlabError(f"line {line_no}: unknown header {excerpt(head)}")
            continue

        if meter is None:
            raise TonnetzlabError(
                f"line {line_no}: meter must be declared before sections"
            )
        end = 0  # where the previous token ends; a token's text can recur earlier
        for chunk in line.split("|"):
            tokens = chunk.split()
            if not tokens:
                continue
            events: list[ChordEvent] = []
            for token in tokens:
                start = raw.index(token, end)
                end = start + len(token)
                event = _parse_event(token, line_no, start + 1, meter)
                if event.tied:
                    if last_event is None:
                        raise TonnetzlabError(
                            f"line {line_no}: tie with no preceding chord"
                        )
                    if event.symbol != last_event.symbol:
                        raise TonnetzlabError(
                            f"line {line_no}: tie continues "
                            f"{last_event.symbol.display!r}, got {excerpt(token)}"
                        )
                events.append(event)
                last_event = event
            total = sum(e.duration for e in events)
            if total != meter:
                raise TonnetzlabError(
                    f"section [{clip(current)}] measure {len(measures) + 1}: "
                    f"durations sum to {total}, meter is {meter}"
                )
            measures.append(tuple(events))
    close_section()

    if key is None or meter is None or form is None:
        missing = [
            name
            for name, value in (("key", key), ("meter", meter), ("form", form))
            if value is None
        ]
        raise TonnetzlabError(f"missing header(s): {', '.join(missing)}")
    for name in form:
        if name not in sections:
            raise TonnetzlabError(f"form names unknown section {excerpt(name)}")
    return ChartDocument(title, key, meter, form, sections)


def flatten(section: Section) -> list[TimedChord]:
    """Timed chords with cumulative onsets; tied events extend their chord.

    Consecutive identical chords that are *not* tied stay separate: a
    restrike is a new onset and matters for harmonic rhythm.
    """
    out: list[TimedChord] = []
    beat = 0
    for measure in section.measures:
        for event in measure:
            if event.tied and out:
                prev = out[-1]
                out[-1] = TimedChord(prev.symbol, prev.onset, prev.duration + event.duration)
            else:
                out.append(TimedChord(event.symbol, beat, event.duration))
            beat += event.duration
    return out


def progression(section: Section) -> list[ChordSymbol]:
    """Chord sequence with consecutive duplicates collapsed.

    A chord held (or restruck) across a barline is one progression element.
    """
    out: list[ChordSymbol] = []
    for timed in flatten(section):
        if not out or out[-1] != timed.symbol:
            out.append(timed.symbol)
    return out


def _event_token(event: ChordEvent, meter: int) -> str:
    text = event.symbol.canonical()
    if event.duration != meter or event.tied:
        text += f":{event.duration}"
    return ("~" if event.tied else "") + text


def _writable(text: str) -> bool:
    """Whether ``text`` reads back unchanged after a space on a chart line."""
    line = " " + text
    one_line = text == text.strip() and len(text.splitlines()) <= 1
    return one_line and _strip_comment(line) == line


def serialize_chart(doc: ChartDocument) -> str:
    """Canonical text form; ``parse_chart`` of the result round-trips.

    Raises TonnetzlabError for a title or section name the format cannot carry:
    one with edge whitespace, a line break or a ``#`` that starts a comment,
    or a form entry that holds whitespace.
    """
    names = [*doc.form, *(section.name for section in doc.sections.values())]
    bad = [text for text in (doc.title, *names) if not _writable(text)]
    bad += [name for name in doc.form if name.split() != [name]]
    if bad:
        raise TonnetzlabError(f"{excerpt(bad[0])} cannot be written in a chart")
    lines = []
    if doc.title:
        lines.append(f"title: {doc.title}")
    lines.append(f"key: {pitch_class_name(doc.key)}")
    lines.append(f"meter: {doc.meter}/4")
    lines.append(f"form: {' '.join(doc.form)}")
    for section in doc.sections.values():
        lines.append("")
        lines.append(f"[{section.name}]")
        if section.measures:
            lines.append(
                " | ".join(
                    " ".join(_event_token(e, doc.meter) for e in measure)
                    for measure in section.measures
                )
            )
    return "\n".join(lines) + "\n"
