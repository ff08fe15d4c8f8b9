"""Harmonic note dictionary for NNLS activation recovery.

Each column models one note as its stack of harmonics on the semitone grid:
the k-th harmonic of note n (k = 1..8) lands on bin n + round(12*log2(k)) with
weight 0.8**(k-1). Harmonics outside the note range are dropped and columns are
normalized to unit Euclidean length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import HIGH_NOTE, LOW_NOTE, NOTE_COUNT

HARMONICS = 8
DECAY = 0.8


@dataclass(frozen=True)
class NoteDictionary:
    profiles: np.ndarray  # (bins, notes), unit-norm columns

    def gram(self) -> np.ndarray:
        return self.profiles.T @ self.profiles

    def step_bound(self) -> float:
        """Largest eigenvalue of the Gram matrix (the 1/L step's L)."""
        return float(np.linalg.eigvalsh(self.gram())[-1])


def build_note_dictionary() -> NoteDictionary:
    profiles = np.zeros((NOTE_COUNT, NOTE_COUNT))
    for column, note in enumerate(range(LOW_NOTE, HIGH_NOTE + 1)):
        for k in range(1, HARMONICS + 1):
            bin_note = note + int(round(12.0 * math.log2(k)))
            if LOW_NOTE <= bin_note <= HIGH_NOTE:
                profiles[bin_note - LOW_NOTE, column] += DECAY ** (k - 1)
    profiles /= np.linalg.norm(profiles, axis=0, keepdims=True)
    return NoteDictionary(profiles)
