"""RIFF/WAVE ingestion limited to 16-bit PCM, mono or stereo."""

from __future__ import annotations

import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import TonnetzlabError


class UnsupportedFormat(TonnetzlabError):
    pass


class CorruptHeader(TonnetzlabError):
    pass


@dataclass(frozen=True)
class AudioBuffer:
    """Mono samples in [-1, 1] at a given sample rate."""

    samples: np.ndarray
    sample_rate: int

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


def load_wav(path: str | Path) -> AudioBuffer:
    """Load a 16-bit PCM WAV file, downmixing stereo to mono by averaging."""
    try:
        with wave.open(str(path), "rb") as handle:
            channels = handle.getnchannels()
            width = handle.getsampwidth()
            rate = handle.getframerate()
            comp = handle.getcomptype()
            frames = handle.readframes(handle.getnframes())
    except (wave.Error, EOFError) as exc:
        # wave raises a bare EOFError when the file ends inside a header
        reason = str(exc) or "the file ends inside a header"
        raise CorruptHeader(f"{path}: {reason}") from exc
    except RuntimeError as exc:
        # the chunk reader's seek raises a bare RuntimeError when a chunk's
        # declared size runs past the end of the file
        raise CorruptHeader(f"{path}: a chunk runs past the end of the file") from exc
    if comp != "NONE":
        raise UnsupportedFormat(f"{path}: compressed WAV is not supported")
    if width != 2:
        raise UnsupportedFormat(f"{path}: only 16-bit PCM is supported, got {8 * width}-bit")
    if channels not in (1, 2):
        raise UnsupportedFormat(f"{path}: expected 1 or 2 channels, got {channels}")

    # a data chunk cut short can end mid-frame; drop the partial frame
    frames = frames[: len(frames) - len(frames) % (width * channels)]
    data = np.frombuffer(frames, dtype="<i2").astype(np.float64) / 32768.0
    if channels == 2:
        data = data.reshape(-1, 2).mean(axis=1)
    return AudioBuffer(data, rate)


def write_wav(path: str | Path, samples: np.ndarray, sample_rate: int) -> None:
    """Write mono float samples in [-1, 1] as 16-bit PCM."""
    clipped = np.clip(samples, -1.0, 1.0)
    pcm = (clipped * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(sample_rate)
        handle.writeframes(pcm.tobytes())
