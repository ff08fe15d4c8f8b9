"""Chord-recognition quality measures, and the renderings of the paper's song.

Both measures are reimplemented after mir_eval (Raffel et al., ISMIR 2014);
nothing is fetched.

- Weighted chord symbol recall (Harte, PhD thesis 2010): the share of the
  time that carries the reference's label.
- Segmentation: 1 minus the larger of the two directional Hamming distances
  between the reference's segments and the estimate's (mir_eval's ``seg``,
  the smaller of ``overseg`` and ``underseg``).

A tie is a frame whose two best template cosines, on the chroma of exact NNLS
(scipy), lie within ``TIE_MARGIN``: which of the two a solver picks there is
rounding, not skill.
"""

from __future__ import annotations

import functools
import tempfile
from pathlib import Path

import numpy as np
import synth
from numpy.lib.stride_tricks import sliding_window_view

from tonnetzlab.chart import flatten, parse_chart
from tonnetzlab.chroma.dictionary import build_note_dictionary
from tonnetzlab.chroma.identify import _TEMPLATES_UNIT, SMOOTH_FRAMES, chroma_fold, identify
from tonnetzlab.chroma.spectral import frame_boundaries, log_freq_map
from tonnetzlab.chroma.wavio import load_wav
from tonnetzlab.harmony import triad_of

CHARTS = Path(__file__).resolve().parents[1] / "charts"
BPM = 103
TIE_MARGIN = 1e-4


def template_cosines(chroma: np.ndarray) -> np.ndarray:
    """(frames, 24): each frame's cosine with each triad template, as
    ``match_chords`` scores them."""
    norms = np.linalg.norm(chroma, axis=1, keepdims=True)
    return (chroma / np.where(norms > 0, norms, 1.0)) @ _TEMPLATES_UNIT.T


def exact_cosines(frames: np.ndarray) -> np.ndarray:
    """``template_cosines`` of the chroma of scipy's exact NNLS, in float64."""
    from scipy.optimize import nnls

    profiles = build_note_dictionary().profiles.astype(np.float64)
    exact = np.array([nnls(profiles, f.astype(np.float64))[0] for f in frames])
    return template_cosines(chroma_fold(exact))


def ties(cosines: np.ndarray) -> np.ndarray:
    """Frames whose two best cosines lie within ``TIE_MARGIN``."""
    top = np.sort(cosines, axis=1)
    return top[:, -1] - top[:, -2] < TIE_MARGIN


def tie_free(tie: np.ndarray) -> np.ndarray:
    """Frames whose five-frame smoothing window holds no tie."""
    pad = np.zeros(SMOOTH_FRAMES // 2, bool)
    return ~sliding_window_view(np.concatenate((pad, tie, pad)), SMOOTH_FRAMES).any(axis=1)


def chart_segments(chart_name: str, rate: int) -> tuple[np.ndarray, list[str], list]:
    """The form of a bundled chart at ``BPM``: its events' boundaries in
    samples, their triad names and their chord symbols."""
    doc = parse_chart((CHARTS / chart_name).read_text(encoding="utf-8"))
    events = [timed for name in doc.form for timed in flatten(doc.sections[name])]
    beats = np.cumsum([0] + [timed.duration for timed in events])
    bounds = np.round(beats * (60.0 / BPM) * rate).astype(np.int64)
    return bounds, [triad_of(e.symbol).name for e in events], [e.symbol for e in events]


@functools.cache
def _chord_wave(symbol, samples: int, rate: int) -> np.ndarray:
    return synth.chord_wave(symbol, samples / rate, rate)


def render(chart_name: str, rate: int, snr_db: float | None) -> np.ndarray:
    """The chart's form in ``synth`` voicings, as mono samples in [-1, 1]."""
    bounds, _, symbols = chart_segments(chart_name, rate)
    audio = np.concatenate(
        [_chord_wave(s, int(n), rate) for s, n in zip(symbols, np.diff(bounds))]
    )
    return audio if snr_db is None else synth.add_noise(audio, snr_db, seed=7)


def directional_hamming(overlap: np.ndarray) -> float:
    """mir_eval's directional Hamming distance from the rows' segmentation to
    the columns': the share of the time that lies outside each row segment's
    largest overlap with a column segment. ``overlap[i, j]`` is the time that
    row segment i shares with column segment j."""
    return float((overlap.sum(axis=1) - overlap.max(axis=1)).sum() / overlap.sum())


def score(
    reference: np.ndarray,
    reference_labels: list[str],
    estimate: np.ndarray,
    estimate_labels: list[str],
    frames: np.ndarray,
    weight: np.ndarray,
) -> tuple[float, float]:
    """Weighted chord symbol recall and segmentation of ``estimate`` against
    ``reference``, with the time of frame i weighted by ``weight[i]``.

    ``reference``, ``estimate`` and ``frames`` are segment boundaries in
    seconds, one more than their segments, and span the same time.
    Consecutive reference segments of one label merge, since a label cannot
    show a restrike.
    """
    keep = [0] + [
        i for i in range(1, len(reference_labels))
        if reference_labels[i] != reference_labels[i - 1]
    ]
    reference_labels = [reference_labels[i] for i in keep]
    reference = np.append(reference[keep], reference[-1])
    cuts = np.unique(np.concatenate((reference, estimate, frames)))
    middles = (cuts[:-1] + cuts[1:]) / 2
    ref, est, frame = (np.searchsorted(b, middles) - 1 for b in (reference, estimate, frames))
    time = np.diff(cuts) * weight[frame]
    right = np.array(reference_labels)[ref] == np.array(estimate_labels)[est]
    overlap = np.zeros((len(reference_labels), len(estimate_labels)))
    np.add.at(overlap, (ref, est), time)
    segmentation = 1.0 - max(directional_hamming(overlap), directional_hamming(overlap.T))
    return float(time[right].sum() / time.sum()), segmentation


@functools.cache
def curve_point(chart_name: str, rate: int, snr_db: float | None) -> dict:
    """Recall and segmentation of ``identify`` on one rendering read back
    from a 16-bit WAV, over all frames and over the tie-free ones."""
    bounds, labels, _ = chart_segments(chart_name, rate)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "take.wav"
        synth.write_wav(path, render(chart_name, rate, snr_db), rate)
        buffer = load_wav(path)
    segments, mags = identify(buffer)
    frames = frame_boundaries(len(mags), len(buffer.samples), rate)
    estimate = np.array([s.start for s in segments] + [segments[-1].end])
    clear = tie_free(ties(exact_cosines(log_freq_map(mags, rate))))
    args = (bounds / rate, labels, estimate, [s.label for s in segments], frames)
    return {
        "all": score(*args, np.ones(len(mags))),
        "tie_free": score(*args, clear.astype(np.float64)),
        "frames": len(mags),
        "tie_free_frames": int(clear.sum()),
    }
