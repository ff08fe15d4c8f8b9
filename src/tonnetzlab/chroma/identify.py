"""Chroma folding, triad template matching, and the full chord-ID pipeline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..harmony import NOTE_NAMES
from .dictionary import NoteDictionary, build_note_dictionary
from .nnls import nnls_activations_batch
from .spectral import LOW_NOTE, Spectrogram, log_freq_map, stft
from .wavio import AudioBuffer

NO_CHORD = "N"

# 24 binary triad templates: majors C..B then minors c..b
TRIAD_LABELS = [NOTE_NAMES[r] for r in range(12)] + [
    NOTE_NAMES[r].lower() for r in range(12)
]

_TEMPLATES = np.zeros((24, 12))
for _r in range(12):
    _TEMPLATES[_r, [_r, (_r + 4) % 12, (_r + 7) % 12]] = 1.0
    _TEMPLATES[12 + _r, [_r, (_r + 3) % 12, (_r + 7) % 12]] = 1.0
_TEMPLATES_UNIT = _TEMPLATES / np.linalg.norm(_TEMPLATES, axis=1, keepdims=True)


@dataclass(frozen=True)
class ChordEstimate:
    """One labeled segment; ``N`` means no identifiable chord."""

    label: str
    start: float  # seconds
    end: float


def chroma_fold(activations: np.ndarray) -> np.ndarray:
    """Sum note activations into 12 pitch classes (last axis 73 -> 12)."""
    activations = np.asarray(activations, dtype=np.float64)
    single = activations.ndim == 1
    if single:
        activations = activations[None, :]
    chroma = np.zeros((activations.shape[0], 12))
    for index in range(activations.shape[1]):
        chroma[:, (LOW_NOTE + index) % 12] += activations[:, index]
    return chroma[0] if single else chroma


def _median_smooth(indices: np.ndarray, width: int) -> np.ndarray:
    half = width // 2
    out = np.empty_like(indices)
    for i in range(len(indices)):
        window = np.sort(indices[max(0, i - half) : i + half + 1])
        out[i] = window[len(window) // 2]
    return out


def match_chords(
    chroma: np.ndarray,
    boundaries: np.ndarray,
    energy_floor: float = 1e-4,
    smooth_frames: int = 5,
) -> list[ChordEstimate]:
    """Label chroma frames with the best of 24 triads, or ``N``.

    Per frame the label is the triad template with the highest cosine
    similarity; frames whose total chroma energy falls below
    ``energy_floor`` times the loudest frame's energy become ``N``. Labels
    are median-smoothed over ``smooth_frames`` frames (as template indices,
    with ``N`` ordered last) and adjacent identical labels merge into
    segments spanning ``boundaries[i]`` to ``boundaries[i+1]`` seconds.
    """
    chroma = np.asarray(chroma, dtype=np.float64)
    count = chroma.shape[0]
    if len(boundaries) != count + 1:
        raise ValueError("need one boundary more than frames")
    if count == 0:
        return []

    energy = chroma.sum(axis=1)
    norms = np.linalg.norm(chroma, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    similarity = (chroma / safe[:, None]) @ _TEMPLATES_UNIT.T
    best = similarity.argmax(axis=1)

    threshold = energy_floor * float(energy.max())
    indices = np.where((energy > 0) & (energy >= threshold), best, 24)
    indices = _median_smooth(indices, smooth_frames)

    segments: list[ChordEstimate] = []
    start = 0
    for i in range(1, count + 1):
        if i == count or indices[i] != indices[start]:
            label = NO_CHORD if indices[start] == 24 else TRIAD_LABELS[indices[start]]
            segments.append(
                ChordEstimate(label, float(boundaries[start]), float(boundaries[i]))
            )
            start = i
    return segments


def identify(
    buffer: AudioBuffer,
    dictionary: NoteDictionary | None = None,
    window_size: int = 4096,
    hop: int = 2048,
    energy_floor: float = 1e-4,
    smooth_frames: int = 5,
    pre_emphasis: float = 0.0,
) -> tuple[list[ChordEstimate], Spectrogram]:
    """Full pipeline from audio to chord segments.

    ``pre_emphasis`` applies the first-order filter y[n] = x[n] - c*x[n-1]
    before analysis, tilting energy toward the upper harmonics; 0 disables it.
    Returns the segment list and the spectrogram (for optional image export).
    Deterministic: identical samples produce identical segments.
    """
    if dictionary is None:
        dictionary = build_note_dictionary()
    if pre_emphasis:
        samples = buffer.samples
        filtered = np.concatenate(
            (samples[:1], samples[1:] - pre_emphasis * samples[:-1])
        )
        buffer = AudioBuffer(filtered, buffer.sample_rate)
    spec = stft(buffer, window_size, hop)
    activations = nnls_activations_batch(log_freq_map(spec), dictionary)
    chroma = chroma_fold(activations)
    boundaries = spec.frame_boundaries(len(buffer.samples))
    return match_chords(chroma, boundaries, energy_floor, smooth_frames), spec
