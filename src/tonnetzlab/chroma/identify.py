"""Chroma folding, triad template matching, and the full chord-ID pipeline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TonnetzlabError
from ..harmony import ALL_TRIADS
from .dictionary import build_note_dictionary
from .nnls import nnls_activations_batch
from .spectral import LOW_NOTE, NOTE_COUNT, Spectrogram, log_freq_map, stft
from .wavio import AudioBuffer

NO_CHORD = "N"
ENERGY_FLOOR = 1e-4  # frames below this share of the loudest frame's energy are N
SMOOTH_FRAMES = 5  # width of the median filter over frame labels

# chroma_fold's octave reshape needs note index 0 to be a C
assert LOW_NOTE % 12 == 0
_OCTAVES = (NOTE_COUNT + 11) // 12  # C1..B6 and the lone C7

# 24 binary triad templates: majors C..B then minors c..b
TRIAD_LABELS = [t.name for t in ALL_TRIADS]

_TEMPLATES = np.zeros((24, 12))
for _i, _t in enumerate(ALL_TRIADS):
    _TEMPLATES[_i, sorted(_t.pitch_classes())] = 1.0
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
    padded = np.zeros(activations.shape[:-1] + (12 * _OCTAVES,))
    padded[..., :NOTE_COUNT] = activations
    return padded.reshape(*activations.shape[:-1], _OCTAVES, 12).sum(axis=-2)


def _median_smooth(indices: np.ndarray, width: int) -> np.ndarray:
    half = width // 2
    out = np.empty_like(indices)
    for i in range(len(indices)):
        window = np.sort(indices[max(0, i - half) : i + half + 1])
        out[i] = window[len(window) // 2]
    return out


def match_chords(chroma: np.ndarray, boundaries: np.ndarray) -> list[ChordEstimate]:
    """Label chroma frames with the best of 24 triads, or ``N``.

    Per frame the label is the triad template with the highest cosine
    similarity; frames whose total chroma energy falls below
    ``ENERGY_FLOOR`` times the loudest frame's energy become ``N``. Labels
    are median-smoothed over ``SMOOTH_FRAMES`` frames (as template indices,
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

    threshold = ENERGY_FLOOR * float(energy.max())
    indices = np.where((energy > 0) & (energy >= threshold), best, 24)
    indices = _median_smooth(indices, SMOOTH_FRAMES)

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
    buffer: AudioBuffer, pre_emphasis: float = 0.0
) -> tuple[list[ChordEstimate], Spectrogram]:
    """Full pipeline from audio to chord segments.

    ``pre_emphasis`` applies the first-order filter y[n] = x[n] - c*x[n-1]
    before analysis, tilting energy toward the upper harmonics; 0 disables it.
    A coefficient outside [-1, 1], nan included, raises TonnetzlabError.
    Returns the segment list and the spectrogram (for optional image export).
    Deterministic: identical samples produce identical segments.
    """
    if not abs(pre_emphasis) <= 1.0:  # also true for nan
        raise TonnetzlabError(
            f"pre-emphasis coefficient must lie in [-1, 1], got {pre_emphasis}"
        )
    if pre_emphasis:
        samples = buffer.samples
        filtered = np.concatenate(
            (samples[:1], samples[1:] - pre_emphasis * samples[:-1])
        )
        buffer = AudioBuffer(filtered, buffer.sample_rate)
    spec = stft(buffer)
    activations = nnls_activations_batch(log_freq_map(spec), build_note_dictionary())
    chroma = chroma_fold(activations)
    boundaries = spec.frame_boundaries(len(buffer.samples))
    return match_chords(chroma, boundaries), spec
