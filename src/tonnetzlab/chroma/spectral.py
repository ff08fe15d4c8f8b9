"""STFT magnitudes, semitone log-frequency mapping, and PPM spectrogram export."""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import TonnetzlabError

LOW_NOTE = 24  # C1
HIGH_NOTE = 96  # C7
NOTE_COUNT = HIGH_NOTE - LOW_NOTE + 1
WINDOW_SIZE = 4096  # samples per STFT frame
HOP = 2048  # samples between frame starts
FRAME_BLOCK = 64  # frames per block of the STFT and the NNLS matrix products
GAMMA = 100.0  # log compression of the PPM spectrogram
# The audio path's one working precision, from the loaded samples through the
# NNLS solve: a 16-bit sample needs 16 bits of the 24 that float32 carries.
WORK_DTYPE = np.float32


def frame_boundaries(count: int, total_samples: int, sample_rate: int) -> np.ndarray:
    """Segment boundaries in seconds of ``count`` frames: frame i owns [b[i], b[i+1]).

    The last boundary is the end of the audio (``total_samples`` long), so
    segments tile the whole signal.
    """
    return np.append(np.arange(count) * HOP, total_samples) / sample_rate


def stft(samples: np.ndarray) -> np.ndarray:
    """Magnitude STFT with a Hann window: (n_frames, WINDOW_SIZE // 2 + 1).

    Frame count is floor((len - window) / hop) + 1; raises TonnetzlabError when
    the samples do not cover one window. Frames are windowed, transformed and
    rectified FRAME_BLOCK at a time into one preallocated array: each step's
    arrays then stay in cache (a 64 s track's whole-track windows, spectrum
    and magnitudes are 5.6-11 MB each), and every frame's arithmetic is its
    own, so the magnitudes are bit for bit those of the whole-track product.
    Samples, window, spectrum and magnitudes are all in WORK_DTYPE (numpy 2's
    ``rfft`` keeps float32 input in complex64).
    """
    samples = np.asarray(samples, dtype=WORK_DTYPE)
    if len(samples) < WINDOW_SIZE:
        raise TonnetzlabError(
            f"need at least {WINDOW_SIZE} samples, got {len(samples)}"
        )
    windows = sliding_window_view(samples, WINDOW_SIZE)[::HOP]
    hann = np.hanning(WINDOW_SIZE).astype(WORK_DTYPE)
    mags = np.empty((len(windows), WINDOW_SIZE // 2 + 1), WORK_DTYPE)
    for start in range(0, len(windows), FRAME_BLOCK):
        block = slice(start, start + FRAME_BLOCK)
        np.abs(np.fft.rfft(windows[block] * hann, axis=1), out=mags[block])
    return mags


def log_freq_map(mags: np.ndarray, sample_rate: int) -> np.ndarray:
    """Fold ``stft`` magnitudes onto semitone bins for MIDI notes 24..96.

    Each note bin accumulates magnitudes under a triangular window of
    half-width one semitone centered at the note's 12-TET frequency. Only
    the FFT bins within a semitone of the note range carry weight, so only
    they enter the product; the weights are WORK_DTYPE. Returns (n_frames,
    73). Raises TonnetzlabError for a rate below 8 kHz, or one so high that no
    bin lies in that range.
    """
    if sample_rate < 8000:
        raise TonnetzlabError(
            f"sample rate {sample_rate} Hz is below 8 kHz "
            "and cannot resolve the note range"
        )
    freqs = np.fft.rfftfreq(WINDOW_SIZE, 1.0 / sample_rate)[1:]  # bin 0 is DC
    semis = 69.0 + 12.0 * np.log2(freqs / 440.0)
    # semis rises with the bin, so the weighted bins are one slice
    lo, hi = np.searchsorted(semis, [LOW_NOTE - 1, HIGH_NOTE + 1])
    if lo == hi:
        raise TonnetzlabError(
            f"sample rate {sample_rate} Hz puts no FFT bin in the note range"
        )
    notes = np.arange(LOW_NOTE, HIGH_NOTE + 1, dtype=np.float64)
    weights = np.maximum(1.0 - np.abs(semis[lo:hi] - notes[:, None]), 0.0)
    return mags[:, 1 + lo : 1 + hi] @ weights.astype(WORK_DTYPE).T


def render_spectrogram_ppm(mags: np.ndarray) -> bytes:
    """Binary P6 PPM of ``stft`` magnitudes: one pixel column per frame, low
    frequencies at the bottom.

    Values are log-compressed: v -> 255 * log(1 + GAMMA*v) / log(1 + GAMMA*vmax).
    """
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
