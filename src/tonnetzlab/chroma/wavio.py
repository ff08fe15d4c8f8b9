"""RIFF/WAVE ingestion limited to 16-bit PCM, mono or stereo."""

from __future__ import annotations

import wave
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..errors import TonnetzlabError
from ..record import record
from .spectral import WORK_DTYPE


@record
class AudioBuffer(NamedTuple):
    """Mono samples in [-1, 1] at a given sample rate."""

    samples: np.ndarray
    sample_rate: int


def load_wav(path: str | Path) -> AudioBuffer:
    """Load a 16-bit PCM WAV file, downmixing stereo to mono by averaging.

    The samples are WORK_DTYPE: ``code / 32768`` and the mean of two such values
    are exact in float32, so every sample keeps its value.
    """
    try:
        with wave.open(str(path), "rb") as handle:
            channels = handle.getnchannels()
            width = handle.getsampwidth()
            rate = handle.getframerate()
            frames = handle.readframes(handle.getnframes())
    except (wave.Error, EOFError) as exc:
        # wave raises a bare EOFError when the file ends inside a header, and
        # "unknown format: N" for every format tag N but PCM's
        reason = str(exc) or "the file ends inside a header"
        if reason.startswith("unknown format: "):
            tag = reason.partition(": ")[2]
            reason = f"only 16-bit PCM WAV is read, got format tag {tag}"
        raise TonnetzlabError(f"{path}: {reason}") from exc
    except RuntimeError as exc:
        # the chunk reader's seek raises a bare RuntimeError when a chunk's
        # declared size runs past the end of the file
        raise TonnetzlabError(f"{path}: a chunk runs past the end of the file") from exc
    if width != 2:
        raise TonnetzlabError(f"{path}: only 16-bit PCM is supported, got {8 * width}-bit")
    if channels not in (1, 2):
        raise TonnetzlabError(f"{path}: expected 1 or 2 channels, got {channels}")

    # a data chunk cut short can end mid-frame; drop the partial frame
    frames = frames[: len(frames) - len(frames) % (width * channels)]
    data = np.frombuffer(frames, dtype="<i2").astype(WORK_DTYPE) / 32768.0
    if channels == 2:
        data = data.reshape(-1, 2).mean(axis=1)
    return AudioBuffer(data, rate)
