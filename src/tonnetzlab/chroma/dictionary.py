"""Harmonic note dictionary for NNLS activation recovery.

Each column models one note as its stack of harmonics on the semitone grid:
the k-th harmonic of note n (k = 1..8) lands on bin n + round(12*log2(k)) with
weight 0.8**(k-1). Harmonics outside the note range are dropped and columns are
normalized to unit Euclidean length. Every input is a module constant, so the
dictionary, its Gram matrix and step bound are built once per process and
handed out read-only.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .spectral import HIGH_NOTE, LOW_NOTE, NOTE_COUNT, WORK_DTYPE

HARMONICS = 8
DECAY = 0.8


class NoteDictionary:
    """The dictionary's matrices in WORK_DTYPE, read-only; hashed by identity.

    Built from float64 profiles: the Gram matrix and its largest eigenvalue
    are worked out in float64, then both matrices are cast once.
    """

    __slots__ = ("_profiles", "_gram", "_step_bound")

    def __init__(self, profiles: np.ndarray) -> None:
        gram = profiles.T @ profiles
        self._step_bound = float(np.linalg.eigvalsh(gram)[-1])
        self._profiles = profiles.astype(WORK_DTYPE)
        self._gram = gram.astype(WORK_DTYPE)
        self._profiles.flags.writeable = self._gram.flags.writeable = False

    @property
    def profiles(self) -> np.ndarray:
        """(bins, notes), unit-norm columns."""
        return self._profiles

    def gram(self) -> np.ndarray:
        """D^T D, exactly symmetric."""
        return self._gram

    def step_bound(self) -> float:
        """Largest eigenvalue of the Gram matrix (the 1/L step's L), a Python
        float: a numpy float64 scalar would promote the solver's arrays."""
        return self._step_bound


@cache
def build_note_dictionary() -> NoteDictionary:
    profiles = np.zeros((NOTE_COUNT, NOTE_COUNT))
    for column, note in enumerate(range(LOW_NOTE, HIGH_NOTE + 1)):
        for k in range(1, HARMONICS + 1):
            bin_note = note + int(round(12.0 * math.log2(k)))
            if LOW_NOTE <= bin_note <= HIGH_NOTE:
                profiles[bin_note - LOW_NOTE, column] += DECAY ** (k - 1)
    profiles /= np.linalg.norm(profiles, axis=0, keepdims=True)
    return NoteDictionary(profiles)
