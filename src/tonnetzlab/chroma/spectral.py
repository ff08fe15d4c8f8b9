"""STFT magnitudes, semitone log-frequency mapping, and PPM spectrogram export."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import TonnetzlabError
from .wavio import AudioBuffer

LOW_NOTE = 24  # C1
HIGH_NOTE = 96  # C7
NOTE_COUNT = HIGH_NOTE - LOW_NOTE + 1
WINDOW_SIZE = 4096  # samples per STFT frame
HOP = 2048  # samples between frame starts
FRAME_BLOCK = 64  # frames per block of the STFT and the NNLS matrix products
GAMMA = 100.0  # log compression of the PPM spectrogram


@dataclass(frozen=True)
class Spectrogram:
    """Non-negative magnitude frames, one row per frame."""

    frames: np.ndarray  # shape (n_frames, WINDOW_SIZE // 2 + 1)
    sample_rate: int

    @property
    def frame_count(self) -> int:
        return self.frames.shape[0]

    def frame_boundaries(self, total_samples: int) -> np.ndarray:
        """Segment boundaries in seconds: frame i owns [b[i], b[i+1]).

        The last boundary extends to the end of the audio (``total_samples``
        long), so segments tile the whole signal.
        """
        edges = np.arange(self.frame_count + 1, dtype=np.float64) * HOP
        edges[-1] = max(edges[-1], float(total_samples))
        return edges / self.sample_rate


def stft(buffer: AudioBuffer) -> Spectrogram:
    """Magnitude STFT with a Hann window.

    Frame count is floor((len - window) / hop) + 1; raises TonnetzlabError when
    the buffer does not cover one window. Frames are windowed, transformed and
    rectified FRAME_BLOCK at a time into one preallocated array: each step's
    arrays then stay in cache (a 64 s track's whole-track windows, spectrum
    and magnitudes are 11-22 MB each), and every frame's arithmetic is its
    own, so the magnitudes are bit for bit those of the whole-track product.
    """
    samples = np.asarray(buffer.samples, dtype=np.float64)
    if len(samples) < WINDOW_SIZE:
        raise TonnetzlabError(
            f"need at least {WINDOW_SIZE} samples, got {len(samples)}"
        )
    windows = sliding_window_view(samples, WINDOW_SIZE)[::HOP]
    hann = np.hanning(WINDOW_SIZE)
    mags = np.empty((len(windows), WINDOW_SIZE // 2 + 1))
    for start in range(0, len(windows), FRAME_BLOCK):
        block = slice(start, start + FRAME_BLOCK)
        np.abs(np.fft.rfft(windows[block] * hann, axis=1), out=mags[block])
    return Spectrogram(mags, buffer.sample_rate)


def log_freq_map(spec: Spectrogram) -> np.ndarray:
    """Fold FFT bins onto semitone bins for MIDI notes 24..96.

    Each note bin accumulates magnitudes under a triangular window of
    half-width one semitone centered at the note's 12-TET frequency. Only
    the FFT bins within a semitone of the note range carry weight, so only
    they enter the product. Returns (n_frames, 73).
    """
    if spec.sample_rate < 8000:
        raise TonnetzlabError(
            f"sample rate {spec.sample_rate} Hz is below 8 kHz "
            "and cannot resolve the note range"
        )
    freqs = np.fft.rfftfreq(WINDOW_SIZE, 1.0 / spec.sample_rate)[1:]  # bin 0 is DC
    semis = 69.0 + 12.0 * np.log2(freqs / 440.0)
    # semis rises with the bin, so the weighted bins are one slice, perhaps empty
    lo, hi = np.searchsorted(semis, [LOW_NOTE - 1, HIGH_NOTE + 1])
    notes = np.arange(LOW_NOTE, HIGH_NOTE + 1, dtype=np.float64)
    weights = np.maximum(1.0 - np.abs(semis[lo:hi] - notes[:, None]), 0.0)
    return spec.frames[:, 1 + lo : 1 + hi] @ weights.T


def render_spectrogram_ppm(spec: Spectrogram) -> bytes:
    """Binary P6 PPM: one pixel column per frame, low frequencies at the bottom.

    Values are log-compressed: v -> 255 * log(1 + GAMMA*v) / log(1 + GAMMA*vmax).
    """
    mags = spec.frames
    vmax = float(mags.max()) if mags.size else 0.0
    if vmax > 0:
        gray = 255.0 * np.log1p(GAMMA * mags) / math.log1p(GAMMA * vmax)
    else:
        gray = np.zeros_like(mags)
    # frames run left to right, bins bottom to top
    image = np.flipud(np.round(gray).astype(np.uint8).T)
    height, width = image.shape
    rgb = np.repeat(image[:, :, None], 3, axis=2)
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    return header + rgb.tobytes()
