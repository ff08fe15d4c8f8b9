"""Chroma folding, triad template matching, and the full chord-ID pipeline."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import TonnetzlabError
from ..harmony import ALL_TRIADS
from ..record import record
from .dictionary import build_note_dictionary
from .nnls import nnls_activations_batch
from .spectral import LOW_NOTE, NOTE_COUNT, frame_boundaries, log_freq_map, stft
from .wavio import AudioBuffer

NO_CHORD = "N"
ENERGY_FLOOR = 1e-4  # frames below this share of the loudest frame's energy are N
SMOOTH_FRAMES = 5  # width of the median filter over frame labels

# chroma_fold's octave reshape needs note index 0 to be a C
assert LOW_NOTE % 12 == 0
_OCTAVES = (NOTE_COUNT + 11) // 12  # C1..B6 and the lone C7

# 24 binary triad templates: majors C..B then minors c..b; N is label 24
_LABELS = (*(t.name for t in ALL_TRIADS), NO_CHORD)

_TEMPLATES = np.zeros((len(ALL_TRIADS), 12))
for _i, _t in enumerate(ALL_TRIADS):
    _TEMPLATES[_i, sorted(_t.pitch_classes())] = 1.0
_TEMPLATES_UNIT = _TEMPLATES / np.linalg.norm(_TEMPLATES, axis=1, keepdims=True)


@record
class ChordEstimate(NamedTuple):
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


def _median_smooth(indices: np.ndarray) -> np.ndarray:
    half, count = SMOOTH_FRAMES // 2, len(indices)
    out = np.empty_like(indices)
    if count >= SMOOTH_FRAMES:
        windows = np.sort(sliding_window_view(indices, SMOOTH_FRAMES), axis=1)
        out[half : count - half] = windows[:, half]
    # the windows cut short at either end take their upper median
    for i in (*range(min(half, count)), *range(max(half, count - half), count)):
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
    voiced = (energy > 0) & (energy >= threshold)
    indices = _median_smooth(np.where(voiced, best, len(ALL_TRIADS)))

    # a segment starts at frame 0 and wherever the label changes
    cuts = np.concatenate(([0], np.flatnonzero(np.diff(indices)) + 1, [count]))
    return [
        ChordEstimate(_LABELS[indices[a]], float(boundaries[a]), float(boundaries[b]))
        for a, b in zip(cuts[:-1], cuts[1:])
    ]


def identify(
    buffer: AudioBuffer, pre_emphasis: float = 0.0
) -> tuple[list[ChordEstimate], np.ndarray]:
    """Full pipeline from audio to chord segments.

    ``pre_emphasis`` applies the first-order filter y[n] = x[n] - c*x[n-1]
    before analysis, tilting energy toward the upper harmonics; 0 disables it.
    A coefficient outside [-1, 1], nan included, raises TonnetzlabError.
    Returns the segment list and the ``stft`` magnitudes (for optional image
    export). Deterministic: identical samples produce identical segments.
    """
    if not abs(pre_emphasis) <= 1.0:  # also true for nan
        raise TonnetzlabError(
            f"pre-emphasis coefficient must lie in [-1, 1], got {pre_emphasis}"
        )
    samples, rate = buffer
    if pre_emphasis:
        samples = np.concatenate(
            (samples[:1], samples[1:] - pre_emphasis * samples[:-1])
        )
    mags = stft(samples)
    activations = nnls_activations_batch(
        log_freq_map(mags, rate), build_note_dictionary()
    )
    chroma = chroma_fold(activations)
    boundaries = frame_boundaries(len(mags), len(samples), rate)
    return match_chords(chroma, boundaries), mags
