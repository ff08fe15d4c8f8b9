"""Output checks. Any failed check counts the operation as failed."""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET

from gen import VOCABULARY

# chord-id's analysis grid: the CLI's default window and hop, in samples
WINDOW = 4096
HOP = 2048


class CheckFailed(Exception):
    """An operation returned normally but its output is wrong."""


def parse_segments(text: str) -> list[dict]:
    segments = [json.loads(line) for line in text.splitlines() if line.strip()]
    if not segments:
        raise CheckFailed("chord-id wrote no segments")
    return segments


def check_segments(segments: list[dict], samples: int, sample_rate: int) -> None:
    """Segments tile [0, duration] with no gaps and use the 25-label vocabulary."""
    duration = samples / sample_rate
    if segments[0]["start_s"] != 0:
        raise CheckFailed(f"first segment starts at {segments[0]['start_s']}")
    for first, second in zip(segments, segments[1:]):
        if first["end_s"] != second["start_s"]:
            raise CheckFailed(f"gap or overlap at {first['end_s']} s")
    for segment in segments:
        if not segment["start_s"] < segment["end_s"]:
            raise CheckFailed(f"empty segment at {segment['start_s']} s")
        if segment["label"] not in VOCABULARY:
            raise CheckFailed(f"label {segment['label']!r} is outside the vocabulary")
    if abs(segments[-1]["end_s"] - duration) > 1e-6:
        raise CheckFailed(f"segments end at {segments[-1]['end_s']}, audio at {duration}")


def frame_truth(truth: list, samples: int) -> list[str | None]:
    """Ground-truth label per analysis frame; None where a frame straddles a change."""
    if samples < WINDOW:
        return []
    labels: list[str | None] = []
    for frame in range((samples - WINDOW) // HOP + 1):
        first, last = frame * HOP, frame * HOP + WINDOW
        inside = [label for start, end, label in truth if start <= first and last <= end]
        labels.append(inside[0] if inside else None)
    return labels


def frame_labels(segments: list[dict], frames: int, sample_rate: int) -> list[str]:
    """Predicted label per analysis frame, read at the middle of the hop it owns."""
    labels = []
    index = 0
    for frame in range(frames):
        when = (frame + 0.5) * HOP / sample_rate
        while index + 1 < len(segments) and segments[index]["end_s"] <= when:
            index += 1
        labels.append(segments[index]["label"])
    return labels


def frame_hits(
    segments: list[dict], truth: list, samples: int, sample_rate: int
) -> tuple[int, int]:
    """(frames labelled right, frames scored); straddling frames are not scored."""
    expected = frame_truth(truth, samples)
    predicted = frame_labels(segments, len(expected), sample_rate)
    scored = [(e, p) for e, p in zip(expected, predicted) if e is not None]
    return sum(e == p for e, p in scored), len(scored)


def check_report(text: str) -> dict:
    """An analyze report: every section has one move fewer than chords."""
    report = json.loads(text)
    for section in report["sections"]:
        chords = len(section["progression"])
        moves = len(section.get("moves", []))
        if moves != max(chords - 1, 0):
            raise CheckFailed(
                f"section {section['name']}: {moves} moves for {chords} chords"
            )
    return report


def check_svg(data: bytes) -> None:
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise CheckFailed(f"SVG does not parse: {exc}") from exc
    if not root.tag.endswith("svg"):
        raise CheckFailed(f"root element is {root.tag}, not svg")
