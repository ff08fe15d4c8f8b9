"""Synthetic audio for the chord-id tests, and a 16-bit PCM WAV writer.

Chords are voiced from the root in octave 3 (root MIDI = 48 + pitch class),
each tone a stack of harmonics with geometric amplitude decay, so the expected
chord labels are known by construction.
"""

from __future__ import annotations

import wave
from pathlib import Path

import numpy as np

from tonnetzlab.chroma.wavio import AudioBuffer
from tonnetzlab.harmony import ChordSymbol, Quality


def midi_frequency(note: float) -> float:
    """12-TET frequency with A4 = 440 Hz."""
    return 440.0 * 2.0 ** ((note - 69) / 12.0)


def write_wav(path: str | Path, samples: np.ndarray, sample_rate: int) -> None:
    """Write mono float samples in [-1, 1] as 16-bit PCM."""
    clipped = np.clip(samples, -1.0, 1.0)
    pcm = (clipped * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(sample_rate)
        handle.writeframes(pcm.tobytes())


def tone(
    midi_note: float,
    duration: float,
    sample_rate: int = 22050,
    harmonics: int = 6,
    decay: float = 0.8,
) -> np.ndarray:
    t = np.arange(int(round(duration * sample_rate))) / sample_rate
    f0 = midi_frequency(midi_note)
    out = np.zeros_like(t)
    for k in range(1, harmonics + 1):
        if k * f0 < sample_rate / 2:
            out += decay ** (k - 1) * np.sin(2.0 * np.pi * k * f0 * t)
    return out


def chord_midi_notes(symbol: ChordSymbol) -> list[int]:
    """Root-position voicing starting at octave 3 (A major -> A3, C#4, E4)."""
    root = 48 + symbol.root
    intervals = [0, 4 if symbol.quality is Quality.MAJOR else 3, 7]
    if symbol.embellishment == "7":
        intervals.append(10)
    elif symbol.embellishment == "6":
        intervals.append(9)
    return [root + i for i in intervals]


def chord_wave(
    symbol: ChordSymbol,
    duration: float,
    sample_rate: int = 22050,
    harmonics: int = 6,
    decay: float = 0.8,
    peak: float = 0.8,
) -> np.ndarray:
    notes = chord_midi_notes(symbol)
    mix = np.sum(
        [tone(n, duration, sample_rate, harmonics, decay) for n in notes], axis=0
    )
    top = np.abs(mix).max()
    return mix * (peak / top) if top > 0 else mix


def chord_sequence(
    symbols: list[ChordSymbol],
    seconds_each: float = 2.0,
    sample_rate: int = 22050,
    harmonics: int = 6,
    decay: float = 0.8,
    noise_snr_db: float | None = None,
    seed: int = 0,
) -> AudioBuffer:
    """Concatenated chord waves, optionally with noise at a given SNR."""
    audio = np.concatenate(
        [
            chord_wave(s, seconds_each, sample_rate, harmonics, decay)
            for s in symbols
        ]
    )
    if noise_snr_db is not None:
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal(audio.size)
        signal_rms = np.sqrt(np.mean(audio**2))
        noise_rms = np.sqrt(np.mean(noise**2))
        audio = audio + noise * (
            signal_rms / noise_rms * 10.0 ** (-noise_snr_db / 20.0)
        )
        audio = np.clip(audio, -1.0, 1.0)
    return AudioBuffer(audio, sample_rate)
