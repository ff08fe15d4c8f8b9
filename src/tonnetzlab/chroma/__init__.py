"""Audio chord identification: WAV in, chord segments out.

Pipeline: STFT magnitudes, log-frequency (semitone) mapping, non-negative
least-squares note activations against a harmonic dictionary, chroma folding,
and triad template matching with median smoothing.
"""

from .dictionary import NoteDictionary, build_note_dictionary
from .identify import ChordEstimate, chroma_fold, identify, match_chords
from .nnls import nnls_activations_batch
from .spectral import Spectrogram, log_freq_map, render_spectrogram_ppm, stft
from .wavio import AudioBuffer, load_wav

__all__ = [
    "AudioBuffer",
    "ChordEstimate",
    "NoteDictionary",
    "Spectrogram",
    "build_note_dictionary",
    "chroma_fold",
    "identify",
    "load_wav",
    "log_freq_map",
    "match_chords",
    "nnls_activations_batch",
    "render_spectrogram_ppm",
    "stft",
]
