"""Command-line front end: JSON analysis reports, SVG diagrams, chord ID.

Commands::

    tonnetzlab analyze CHART [--key K] [--out report.json]
    tonnetzlab render-tonnetz CHART --section NAME [--out file.svg]
    tonnetzlab render-clocks CHART --section NAME --out-dir DIR
    tonnetzlab chord-id AUDIO.wav [--out segments.jsonl] [--spectrogram out.ppm]

All commands are deterministic: identical inputs and flags produce
byte-identical outputs, written as UTF-8 to stdout too, whatever the locale's
encoding. Exit codes: 0 success, 2 input or usage errors. Every input error is
a ``tonnetzlab.errors.TonnetzlabError`` or an ``OSError``; ``main`` reports it,
a ``MemoryError`` too, and the parser a usage error, as the one stderr line of
``errors.error_line``, which escapes every unprintable character. A value
that starts with ``-`` is given as ``--section=NAME`` or
``--pre-emphasis=-X``, as argparse reads a separate one as an option.

Only ``chord-id`` loads the audio package ``tonnetzlab.chroma``, and numpy with
it: ``load_wav`` and ``identify`` below import their chroma namesakes when first
called, so the chart commands start without numpy.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

from .chart import ChartDocument, Section, flatten, parse_chart, progression
from .errors import TonnetzlabError, clip, error_line
from .harmony import PitchClass, parse_pitch_class, pitch_class_name
from .lattice import embed_path, render_tonnetz_svg
from .rhythm import (
    SubstructureReport,
    clocks_for,
    detect_substructures,
    render_clock_svg,
)
from .transforms import ProgressionAnnotation, annotate_progression

if TYPE_CHECKING:
    from .chroma.identify import ChordEstimate
    from .chroma.spectral import Spectrogram
    from .chroma.wavio import AudioBuffer

REPORT_VERSION = 1

FLAT_SEVEN_NOTE = (
    "♭VII denotes the lowered-leading-tone chord; "
    "pop-era practice often writes the same chord as plain VII."
)


def load_wav(path: str | Path) -> AudioBuffer:
    """``tonnetzlab.chroma.wavio.load_wav``, imported on the first call."""
    from .chroma.wavio import load_wav

    return load_wav(path)


def identify(
    buffer: AudioBuffer, **kwargs
) -> tuple[list[ChordEstimate], Spectrogram]:
    """``tonnetzlab.chroma.identify.identify``, imported on the first call."""
    from .chroma.identify import identify

    return identify(buffer, **kwargs)


def _moves_json(annotation: ProgressionAnnotation) -> list[dict]:
    out = []
    for move in annotation.moves:
        out.append(
            {
                "from": move.source.display,
                "to": move.target.display,
                "arity": move.arity,
                "kind": move.kind,
                "nr": move.nr_name.value if move.nr_name else None,
            }
        )
    return out


def _rhythm_json(report: SubstructureReport) -> dict:
    return {
        "distinct_clocks": [
            {
                "onsets": [[hour, label] for hour, label in clock.onsets],
                "class": cls.value,
                "partial": clock.partial,
            }
            for clock, cls in zip(report.distinct_clocks, report.classifications)
        ],
        "occurrences": list(report.occurrence_sequence),
        "alternations": [
            {"start": a.start, "length": a.length, "clocks": list(a.clocks)}
            for a in report.alternations
        ],
        "reflections": [
            {"clocks": [r.first, r.second], "axis_hours": list(r.axis_hours)}
            for r in report.reflections
        ],
    }


def _section_json(section: Section, key: PitchClass, meter: int) -> dict:
    chords = progression(section)
    entry: dict = {
        "name": section.name,
        "progression": [c.display for c in chords],
    }
    notes: list[str] = []
    if len(chords) >= 2:
        annotation = annotate_progression(chords, key)
        entry["roman"] = [label.text for label in annotation.roman]
        entry["moves"] = _moves_json(annotation)
        entry["cadences"] = [
            {"kind": c.kind, "start": c.start, "length": c.length}
            for c in annotation.cadences
        ]
        if any("♭VII" in label.text for label in annotation.roman):
            notes.append(FLAT_SEVEN_NOTE)
    substructures = detect_substructures(clocks_for(flatten(section), meter))
    entry["rhythm"] = _rhythm_json(substructures)
    if notes:
        entry["notes"] = notes
    return entry


def build_report(doc: ChartDocument, key: PitchClass | None = None) -> dict:
    """Analysis report covering each distinct section named in the form."""
    key = doc.key if key is None else key  # C is pitch class 0
    return {
        "version": REPORT_VERSION,
        "title": doc.title,
        "key": pitch_class_name(key),
        "meter": doc.meter,
        "form": list(doc.form),
        "sections": [
            _section_json(doc.sections[name], key, doc.meter)
            for name in dict.fromkeys(doc.form)
        ],
    }


def _read_chart(path: str) -> ChartDocument:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        message = f"{path}: byte {exc.start} is not UTF-8 ({exc.reason})"
        raise TonnetzlabError(message) from exc
    # strip a byte-order mark after decoding: "utf-8-sig" would report the
    # offset of a later bad byte three too low
    return parse_chart(text.removeprefix("\ufeff"))


def _get_section(doc: ChartDocument, name: str) -> Section:
    if name not in doc.sections:
        raise TonnetzlabError(
            f"no section [{clip(name)}]; chart defines: {clip(', '.join(doc.sections))}"
        )
    return doc.sections[name]


def _write_text(path: str | None, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path``, or to stdout whatever its encoding."""
    data = text.encode("utf-8")
    if path is None:
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
    else:
        Path(path).write_bytes(data)


def _cmd_analyze(args: argparse.Namespace) -> int:
    doc = _read_chart(args.chart)
    key = parse_pitch_class(args.key) if args.key is not None else None
    report = build_report(doc, key)
    _write_text(args.out, json.dumps(report, indent=2, ensure_ascii=False) + "\n")
    return 0


def _cmd_render_tonnetz(args: argparse.Namespace) -> int:
    doc = _read_chart(args.chart)
    section = _get_section(doc, args.section)
    svg = render_tonnetz_svg(embed_path(progression(section), doc.key), doc.key)
    _write_text(args.out, svg)
    return 0


def _cmd_render_clocks(args: argparse.Namespace) -> int:
    doc = _read_chart(args.chart)
    section = _get_section(doc, args.section)
    report = detect_substructures(clocks_for(flatten(section), doc.meter))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for index, clock in enumerate(report.distinct_clocks, start=1):
        (out_dir / f"clock-{index}.svg").write_text(
            render_clock_svg(clock), encoding="utf-8"
        )
    return 0


def _cmd_chord_id(args: argparse.Namespace) -> int:
    from .chroma.spectral import render_spectrogram_ppm

    buffer = load_wav(args.audio)
    segments, spec = identify(buffer, pre_emphasis=args.pre_emphasis)
    lines = [
        json.dumps(
            {"label": s.label, "start_s": round(s.start, 6), "end_s": round(s.end, 6)},
            ensure_ascii=False,
        )
        for s in segments
    ]
    _write_text(args.out, "\n".join(lines) + "\n")
    if args.spectrogram:
        Path(args.spectrogram).write_bytes(render_spectrogram_ppm(spec))
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as the one line of ``errors.error_line`` and exits 2.

    Subcommand parsers are made by ``add_subparsers`` with the same class.
    """

    def error(self, message: str) -> NoReturn:
        self.exit(2, error_line(message))

    def _get_values(self, action: argparse.Action, arg_strings: list[str]):
        # argparse drops a "--" value, as in --section=--, as if it ended the options
        if action.option_strings and arg_strings == ["--"]:
            return self._get_value(action, "--")
        return super()._get_values(action, arg_strings)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tonnetzlab",
        description="Harmonic analysis: chord charts, Tonnetz diagrams, "
        "rhythm clocks, and audio chord identification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="write a JSON analysis report for a chart")
    p.add_argument("chart")
    p.add_argument("--key", help="override the chart's key (e.g. A, F#)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("render-tonnetz", help="render a section's path on the Tonnetz")
    p.add_argument("chart")
    p.add_argument("--section", required=True)
    p.add_argument("--out", help="output SVG path (default: stdout)")
    p.set_defaults(func=_cmd_render_tonnetz)

    p = sub.add_parser(
        "render-clocks", help="render one SVG per distinct rhythm clock"
    )
    p.add_argument("chart")
    p.add_argument("--section", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_render_clocks)

    p = sub.add_parser("chord-id", help="identify chords in a 16-bit PCM WAV file")
    p.add_argument("audio")
    p.add_argument("--out", help="output JSONL path (default: stdout)")
    p.add_argument("--spectrogram", help="also write a P6 PPM spectrogram")
    p.add_argument(
        "--pre-emphasis",
        type=float,
        default=0.0,
        dest="pre_emphasis",
        help="first-order pre-emphasis coefficient applied before analysis "
        "(0 disables; boosts upper harmonics)",
    )
    p.set_defaults(func=_cmd_chord_id)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TonnetzlabError, OSError) as exc:
        sys.stderr.write(error_line(exc))
        return 2
    except MemoryError as exc:
        cause = f": {exc}" if str(exc) else ""
        sys.stderr.write(error_line(f"out of memory{cause}"))
        return 2


if __name__ == "__main__":
    sys.exit(main())
