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
Sections may also be defined without appearing in the form. ``title`` is
optional and the other three are required; each header may appear only once,
and none after the first section.

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

from typing import Any, NamedTuple

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
    i = line.find("#")
    while i > 0 and not line[i - 1].isspace():
        i = line.find("#", i + 1)
    return line if i < 0 else line[:i]


def _beats(text: str) -> int | None:
    # no count of beats reaches 100, and int() refuses a numeral over 4300 digits
    digits = text.lstrip("0")
    if not text.isdecimal() or not 1 <= len(digits) <= 2:
        return None
    return int(digits)


def _parse_meter(text: str) -> int:
    beats = _beats(text.split("/", 1)[0].strip())
    if beats is None or beats > MAX_METER:
        raise TonnetzlabError(
            f"bad meter {excerpt(text)} (1 to {MAX_METER} beats a measure)"
        )
    return beats


# each header's parser, given the text after the colon
_HEADERS = {
    "title": str,
    "key": parse_pitch_class,
    "meter": _parse_meter,
    "form": lambda text: tuple(text.split()),
}


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
    headers: dict[str, tuple[int, Any]] = {}  # name: (line, value)
    sections: dict[str, list[Measure]] = {}
    current: str | None = None
    measures: list[Measure] = []  # the current section's
    last_event: ChordEvent | None = None
    parsed: dict[str, ChordEvent] = {}  # each distinct token's event, parsed once

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).rstrip()
        if not line.strip():
            continue

        if line.strip().startswith("[") and line.strip().endswith("]"):
            name = line.strip()[1:-1].strip()
            if not name:
                raise TonnetzlabError(f"line {line_no}: empty section name")
            if name in sections:
                raise TonnetzlabError(
                    f"line {line_no}: section [{clip(name)}] redefined"
                )
            current, measures, last_event = name, [], None
            sections[name] = measures
            continue

        if current is None:
            if ":" not in line:
                raise TonnetzlabError(f"line {line_no}: expected 'header: value'")
            head, _, value = line.partition(":")
            head = head.strip().lower()
            if head in headers:
                raise TonnetzlabError(
                    f"line {line_no}: {head} repeated from line {headers[head][0]}"
                )
            if head not in _HEADERS:
                raise TonnetzlabError(f"line {line_no}: unknown header {excerpt(head)}")
            try:
                headers[head] = line_no, _HEADERS[head](value.strip())
            except TonnetzlabError as exc:
                raise TonnetzlabError(f"line {line_no}: {exc}") from exc
            continue

        head, colon, _ = line.partition(":")
        head = head.strip().lower()
        if colon and head in _HEADERS:
            raise TonnetzlabError(
                f"line {line_no}: {head} header after a section; headers come first"
            )
        if "meter" not in headers:
            raise TonnetzlabError(
                f"line {line_no}: meter must be declared before sections"
            )
        meter = headers["meter"][1]
        end = 0  # where the previous token ends; a token's text can recur earlier
        for chunk in line.split("|"):
            tokens = chunk.split()
            if not tokens:
                continue
            events: list[ChordEvent] = []
            for token in tokens:
                start = raw.index(token, end)
                end = start + len(token)
                event = parsed.get(token)
                if event is None:
                    event = parsed[token] = _parse_event(token, line_no, start + 1, meter)
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

    missing = [n for n in ("key", "meter", "form") if n not in headers]
    if missing:
        raise TonnetzlabError(f"missing header(s): {', '.join(missing)}")
    values = {name: value for name, (_, value) in headers.items()}
    for name in values["form"]:
        if name not in sections:
            raise TonnetzlabError(f"form names unknown section {excerpt(name)}")
    return ChartDocument(
        values.get("title", ""),
        values["key"],
        values["meter"],
        values["form"],
        {name: Section(name, tuple(m)) for name, m in sections.items()},
    )


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


def progression(timed_chords: list[TimedChord]) -> list[ChordSymbol]:
    """Chord sequence of ``flatten``'s output with consecutive duplicates collapsed.

    A chord held (or restruck) across a barline is one progression element.
    """
    out: list[ChordSymbol] = []
    for timed in timed_chords:
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
