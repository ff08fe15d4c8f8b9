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


def _frames(samples: np.ndarray) -> np.ndarray:
    """The WINDOW_SIZE-sample frames HOP apart, as a strided WORK_DTYPE view.

    Frame count is floor((len - window) / hop) + 1; raises TonnetzlabError when
    the samples do not cover one window.
    """
    samples = np.asarray(samples, dtype=WORK_DTYPE)
    if len(samples) < WINDOW_SIZE:
        raise TonnetzlabError(
            f"need at least {WINDOW_SIZE} samples, got {len(samples)}"
        )
    return sliding_window_view(samples, WINDOW_SIZE)[::HOP]


def _magnitudes(frames: np.ndarray, bins: slice) -> np.ndarray:
    """Hann-windowed FFT magnitudes of ``bins`` for every frame: (n_frames, K).

    Frames are windowed, transformed and rectified FRAME_BLOCK at a time
    through two buffers allocated once, so each step's arrays stay in cache
    and every frame's arithmetic is its own: the magnitudes are bit for bit
    those of the whole-track product. ``norm="forward"`` hands numpy's FFT a
    float32 scale, which selects its single-precision loop (the default norm
    passes the int 1 and runs the float64 loop between two casts); the
    window carries the inverse scale WINDOW_SIZE. Both scalings are powers
    of two, hence exact, so the spectrum is the unnormalised float32
    transform. Only the bins asked for are rectified.
    """
    count = len(frames)
    window = np.hanning(WINDOW_SIZE).astype(WORK_DTYPE) * WINDOW_SIZE
    windowed = np.empty((min(count, FRAME_BLOCK), WINDOW_SIZE), WORK_DTYPE)
    spectrum = np.empty(
        (len(windowed), WINDOW_SIZE // 2 + 1), np.result_type(WORK_DTYPE, 1j)
    )
    mags = np.empty((count, bins.stop - bins.start), WORK_DTYPE)
    for start in range(0, count, FRAME_BLOCK):
        block = frames[start : start + FRAME_BLOCK]
        rows = len(block)
        np.multiply(block, window, out=windowed[:rows])
        np.fft.rfft(windowed[:rows], axis=1, norm="forward", out=spectrum[:rows])
        np.abs(spectrum[:rows, bins], out=mags[start : start + rows])
    return mags


def _note_bins(sample_rate: int) -> tuple[slice, np.ndarray]:
    """The FFT bins within a semitone of the note range, and their pitches.

    Returns the bins as a slice of the ``rfft`` output and each one's pitch
    in (fractional) MIDI notes. Raises TonnetzlabError for a rate below
    8 kHz, or one so high that no bin lies in that range.
    """
    if sample_rate < 8000:
        raise TonnetzlabError(
            f"sample rate {sample_rate} Hz is below 8 kHz "
            "and cannot resolve the note range"
        )
    freqs = np.fft.rfftfreq(WINDOW_SIZE, 1.0 / sample_rate)[1:]  # bin 0 is DC
    semis = 69.0 + 12.0 * np.log2(freqs / 440.0)
    # semis rises with the bin, so the bins in range are one slice
    lo, hi = np.searchsorted(semis, [LOW_NOTE - 1, HIGH_NOTE + 1])
    if lo == hi:
        raise TonnetzlabError(
            f"sample rate {sample_rate} Hz puts no FFT bin in the note range"
        )
    return slice(1 + int(lo), 1 + int(hi)), semis[lo:hi]


def stft(samples: np.ndarray, sample_rate: int) -> np.ndarray:
    """Magnitude STFT with a Hann window, of the bins ``log_freq_map`` reads.

    Returns (n_frames, K) in WORK_DTYPE: the magnitudes of the K FFT bins
    within a semitone of the note range at ``sample_rate`` (K = 406 at
    22050 Hz). Raises TonnetzlabError when the samples do not cover one
    window, and then for a rate whose bins cannot resolve the note range.
    """
    frames = _frames(samples)  # the length error comes before the rate's
    return _magnitudes(frames, _note_bins(sample_rate)[0])


def spectrogram(samples: np.ndarray) -> np.ndarray:
    """Magnitudes of all WINDOW_SIZE // 2 + 1 bins of every frame, for
    ``render_spectrogram_ppm``: the transform of ``stft``, every bin kept."""
    return _magnitudes(_frames(samples), slice(0, WINDOW_SIZE // 2 + 1))


def log_freq_map(mags: np.ndarray, sample_rate: int) -> np.ndarray:
    """Fold ``stft`` magnitudes onto semitone bins for MIDI notes 24..96.

    Each note bin accumulates magnitudes under a triangular window of
    half-width one semitone centered at the note's 12-TET frequency; ``stft``
    keeps the bins within a semitone of the note range, the only ones that
    carry weight. The weights are WORK_DTYPE.
    Returns (n_frames, 73). Raises TonnetzlabError as ``stft`` does for the
    rate.
    """
    semis = _note_bins(sample_rate)[1]
    notes = np.arange(LOW_NOTE, HIGH_NOTE + 1, dtype=np.float64)
    weights = np.maximum(1.0 - np.abs(semis - notes[:, None]), 0.0)
    return mags @ weights.astype(WORK_DTYPE).T


def render_spectrogram_ppm(mags: np.ndarray) -> bytes:
    """Binary P6 PPM of ``spectrogram`` magnitudes: one pixel column per
    frame, low frequencies at the bottom.

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
