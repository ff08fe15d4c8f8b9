"""Seeded inputs for the benchmark: lead-sheet charts and chord audio.

Everything here is the benchmark's own code. Audio is synthesised as
harmonic stacks voiced the way ``tonnetzlab.chroma.synth`` voices chords
(root in octave 3, six harmonics decaying by 0.8), but without importing it,
so a change to the library's synthesiser cannot change the workload. The
same seed gives byte-identical chart text and WAV bytes.
"""

from __future__ import annotations

import io
import random
import wave
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

SAMPLE_RATE = 22050
NOTE_NAMES = ["C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B"]
# the 24 triads plus "no chord": the only labels chord-id may print
VOCABULARY = frozenset(NOTE_NAMES + [n.lower() for n in NOTE_NAMES] + ["N"])

# Audio corpus design: three song excerpts of 16, 32 and 64 s (16 and 64 s
# are the lengths at which NNLS was first measured), clean, at 20 dB and at
# 10 dB SNR; the first and last hold two seconds of digital silence. Each
# track takes about twice as long as the one before, so the median operation
# is always the 32 s track and the tail one of the 64 s track; with few
# tracks a run holds many runs of each.
# The mix is fixed so that every seed does the same amount of work; the seed
# chooses chords, chord lengths, where the silence falls and the noise itself.
TRACK_PLAN = (
    # (seconds, SNR in dB or None for clean audio, seconds of silence)
    (16.0, None, 2.0),
    (32.0, 20.0, 0.0),
    (64.0, 10.0, 2.0),
)
CLIP_SECONDS = 3.0

# Chart corpus design: the corpus has the same shape for every seed, so that
# every seed asks for the same operations over the same number of measures,
# and its largest charts are about the same size on every seed.
# The charts at ODD_METER_AT use a meter other than 4/4 and those at
# ONE_CHORD_AT hold a section of a single chord: the parser accepts both, the
# analysis currently crashes on them. The seed picks keys, meters, section
# names, forms and every chord.
CHARTS_PER_CORPUS = 20
SECTION_COUNTS = (2, 3, 4, 5)  # dealt round-robin over the charts
SECTION_MEASURES = (4, 8, 8, 12, 16)  # dealt round-robin over the sections
ODD_METER_AT = (3, 9)  # a chart of 5 sections and one of 3
ONE_CHORD_AT = (6, 12)  # a chart of 4 sections and one of 2

_SECTION_NAMES = ("Intro", "Verse", "Chorus", "Bridge", "Interlude", "Solo", "Coda")
_MAJOR_DEGREES = (0, 2, 4, 5, 7, 9, 11)
_DIATONIC_MINOR = {2, 4, 9}  # ii, iii and vi are minor in a major key


@dataclass
class Track:
    """A generated recording and its frame-level ground truth."""

    name: str
    wav: bytes
    samples: int
    snr_db: float | None
    # (first sample, end sample, triad label or "N") covering the track
    truth: list[tuple[int, int, str]] = field(default_factory=list)


@dataclass
class Chart:
    name: str
    text: str
    kind: str  # "plain", "odd-meter" or "one-chord"
    sections: list[str]
    one_chord_section: str | None  # the single-chord section of a "one-chord" chart
    cold_section: str  # the section the cold-CLI workload renders


# ---------------------------------------------------------------- charts


def _chord_token(rng: random.Random, root: int, minor: bool) -> str:
    name = NOTE_NAMES[root]
    token = name.lower() if minor else name
    roll = rng.random()
    if roll < 0.15:
        token += "7"
    elif roll < 0.22:
        token += "6"
    elif roll < 0.32:
        # first inversion: the third in the bass is always a chord tone
        token += "/" + NOTE_NAMES[(root + (3 if minor else 4)) % 12]
    return token


def _random_chord(rng: random.Random, tonic: int) -> str:
    roll = rng.random()
    if roll < 0.75:
        degree = rng.choice(_MAJOR_DEGREES[:6])
        minor = degree in _DIATONIC_MINOR
    elif roll < 0.88:
        # secondary dominant: a major chord on a diatonic degree
        degree, minor = rng.choice((2, 4, 9, 11)), False
    else:
        # modal mixture: iv, bVII or bVI
        degree, minor = rng.choice(((5, True), (10, False), (8, False)))
    return _chord_token(rng, (tonic + degree) % 12, minor)


def _section_lines(rng: random.Random, tonic: int, meter: int, measures: int) -> list[str]:
    chords = [_random_chord(rng, tonic) for _ in range(measures * 2)]
    # a section always moves: its first two chords differ
    while chords[1] == chords[0]:
        chords[1] = _random_chord(rng, tonic)
    bars = [chords[0]]
    previous, index = chords[0], 1
    for number in range(1, measures):
        roll = rng.random()
        if number > 1 and roll < 0.08:
            # tie over the barline: the previous chord keeps sounding
            bars.append(f"~{previous}:{meter}")
        elif roll < 0.40 and meter % 2 == 0:
            a, b = chords[index], chords[index + 1]
            index += 2
            if rng.random() < 0.3:
                # half-measure tie: the first chord is held into the second half
                bars.append(f"{a}:{meter // 2} ~{a}:{meter // 2}")
                previous = a
            else:
                bars.append(f"{a}:{meter // 2} {b}:{meter // 2}")
                previous = b
        else:
            bars.append(chords[index])
            previous = chords[index]
            index += 1
    return [" | ".join(bars[i : i + 4]) for i in range(0, len(bars), 4)]


def make_chart(rng: random.Random, name: str, kind: str, measures: list[int]) -> Chart:
    """A chart with one section per entry of ``measures``, that many measures long."""
    tonic = rng.randrange(12)
    meter, meter_text = 4, "4/4"
    if kind == "odd-meter":
        meter, meter_text = rng.choice(((3, "3/4"), (6, "6/8")))
    count = len(measures)
    names = rng.sample(_SECTION_NAMES, count)
    form = list(names)
    for _ in range(rng.randint(1, 4)):
        form.append(rng.choice(names))
    lines = [
        f"title: {name}",
        f"key: {NOTE_NAMES[tonic]}",
        f"meter: {meter_text}",
        f"form: {' '.join(form)}",
    ]
    single = rng.randrange(count) if kind == "one-chord" else -1
    for index, section in enumerate(names):
        lines.append("")
        lines.append(f"[{section}]")
        if index == single:
            chord = _random_chord(rng, tonic)
            lines.append(" | ".join([chord] * rng.randint(1, 4)))
        else:
            lines.extend(_section_lines(rng, tonic, meter, measures[index]))
    return Chart(
        name,
        "\n".join(lines) + "\n",
        kind,
        names,
        names[single] if single >= 0 else None,
        rng.choice(names),
    )


def make_charts(seed: int) -> list[Chart]:
    rng = random.Random(seed)
    charts = []
    dealt = 0
    for index in range(CHARTS_PER_CORPUS):
        kind = "odd-meter" if index in ODD_METER_AT else "plain"
        kind = "one-chord" if index in ONE_CHORD_AT else kind
        count = SECTION_COUNTS[index % len(SECTION_COUNTS)]
        measures = [SECTION_MEASURES[(dealt + i) % len(SECTION_MEASURES)] for i in range(count)]
        dealt += count
        charts.append(make_chart(rng, f"chart-{index:02d}", kind, measures))
    return charts


# ----------------------------------------------------------------- audio


def _midi_frequency(note: float) -> float:
    return 440.0 * 2.0 ** ((note - 69) / 12.0)


def _chord_wave(root: int, minor: bool, seventh: bool, samples: int, peak: float) -> np.ndarray:
    """Root-position voicing from octave 3; six harmonics decaying by 0.8."""
    t = np.arange(samples) / SAMPLE_RATE
    notes = [48 + root, 48 + root + (3 if minor else 4), 48 + root + 7]
    if seventh:
        notes.append(48 + root + 10)
    mix = np.zeros(samples)
    for note in notes:
        f0 = _midi_frequency(note)
        for k in range(1, 7):
            if k * f0 < SAMPLE_RATE / 2:
                mix += 0.8 ** (k - 1) * np.sin(2.0 * np.pi * k * f0 * t)
    return mix * (peak / np.abs(mix).max())


def _wav_bytes(pcm: bytes) -> bytes:
    """A mono 16-bit WAV file holding little-endian PCM frames."""
    buffer = io.BytesIO()
    with wave.open(buffer, "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(SAMPLE_RATE)
        handle.writeframes(pcm)
    return buffer.getvalue()


# Chords, their sevenths and their lengths are dealt from shuffled decks, so
# that every track of a given length holds nearly the same mix (NNLS takes
# from 110 to 210 iterations a frame depending on the chord) in seed order.
_TRIADS = tuple((root, minor) for minor in (False, True) for root in range(12))
_SEVENTHS = (True,) * 3 + (False,) * 7
CHORD_SECONDS = (1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5)


def _deck(rng: np.random.Generator, items: tuple) -> Iterator:
    """Endless draws from ``items``, reshuffled whenever they run out; the
    same item never comes twice in a row where the decks meet."""
    previous = None
    while True:
        order = [items[i] for i in rng.permutation(len(items))]
        if order[0] == previous:
            order[0], order[-1] = order[-1], order[0]
        yield from order
        previous = order[-1]


def make_track(
    rng: np.random.Generator, name: str, seconds: float, snr_db: float | None, silence: float
) -> Track:
    total = int(round(seconds * SAMPLE_RATE))
    gap = int(round(silence * SAMPLE_RATE))
    voiced = total - gap
    lengths: list[int] = []
    for chord_seconds in _deck(rng, CHORD_SECONDS):
        if sum(lengths) >= voiced:
            break
        lengths.append(int(round(chord_seconds * SAMPLE_RATE)))
    lengths[-1] -= sum(lengths) - voiced
    if lengths[-1] < SAMPLE_RATE // 2 and len(lengths) > 1:
        short = lengths.pop()
        lengths[-1] += short
    # the silence goes before chord number gap_at (0 = the start of the track)
    gap_at = int(rng.integers(0, len(lengths) + 1)) if gap else -1

    pieces: list[np.ndarray] = []
    truth: list[tuple[int, int, str]] = []
    position = 0
    triads, sevenths = _deck(rng, _TRIADS), _deck(rng, _SEVENTHS)
    for index, length in enumerate(lengths + [0]):
        if index == gap_at:
            pieces.append(np.zeros(gap))
            truth.append((position, position + gap, "N"))
            position += gap
        if index == len(lengths):
            break
        root, minor = next(triads)
        peak = float(rng.uniform(0.4, 0.8))
        wave_ = _chord_wave(root, minor, next(sevenths), length, peak)
        if snr_db is not None:
            noise = rng.standard_normal(length)
            rms = np.sqrt(np.mean(wave_**2))
            scale = rms / np.sqrt(np.mean(noise**2)) * 10.0 ** (-snr_db / 20.0)
            wave_ = wave_ + noise * scale
        pieces.append(wave_)
        label = NOTE_NAMES[root].lower() if minor else NOTE_NAMES[root]
        truth.append((position, position + length, label))
        position += length
    audio = np.concatenate(pieces)
    pcm = (np.clip(audio, -1.0, 1.0) * 32767.0).astype("<i2").tobytes()
    return Track(name, _wav_bytes(pcm), len(audio), snr_db, truth)


def make_tracks(seed: int, count: int = len(TRACK_PLAN)) -> list[Track]:
    """The first ``count`` tracks of the corpus; each has its own stream of the seed."""
    return [
        make_track(np.random.default_rng([seed, 1, i]), f"track-{i:02d}", seconds, snr, silence)
        for i, (seconds, snr, silence) in enumerate(TRACK_PLAN[:count])
    ]


def clip_of(track: Track, seconds: float = CLIP_SECONDS) -> Track:
    """The opening seconds of a track, with its ground truth cut to match."""
    samples = int(round(seconds * SAMPLE_RATE))
    with wave.open(io.BytesIO(track.wav), "rb") as handle:
        frames = handle.readframes(samples)
    truth = [(a, min(b, samples), label) for a, b, label in track.truth if a < samples]
    return Track(track.name + "-clip", _wav_bytes(frames), samples, track.snr_db, truth)


# ------------------------------------------------------------- manifest


def write_inputs(seed: int, directory: Path, tracks: int = len(TRACK_PLAN)) -> dict:
    """Write the inputs for ``seed`` under ``directory``: every chart, and the
    first ``tracks`` tracks with a clip of each. Return the manifest."""
    directory.mkdir(parents=True, exist_ok=True)
    manifest: dict = {
        "seed": seed, "sample_rate": SAMPLE_RATE, "charts": [], "tracks": [], "clips": []
    }
    for chart in make_charts(seed):
        path = directory / f"{chart.name}.chart"
        path.write_text(chart.text, encoding="utf-8")
        manifest["charts"].append(
            {
                "path": str(path),
                "kind": chart.kind,
                "sections": chart.sections,
                "one_chord_section": chart.one_chord_section,
                "cold_section": chart.cold_section,
            }
        )
    for track in make_tracks(seed, tracks):
        for item, key in ((track, "tracks"), (clip_of(track), "clips")):
            path = directory / f"{item.name}.wav"
            path.write_bytes(item.wav)
            manifest[key].append(
                {
                    "path": str(path),
                    "samples": item.samples,
                    "snr_db": item.snr_db,
                    "truth": item.truth,
                }
            )
    return manifest
