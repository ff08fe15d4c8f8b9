"""Audio chord identification: WAV in, chord segments out.

Pipeline: STFT magnitudes, log-frequency (semitone) mapping, non-negative
least-squares note activations against a harmonic dictionary, chroma folding,
and triad template matching with median smoothing. Every name is imported from
the module that defines it.
"""

# kept for perfbench/inprocess.py, which imports it from the package
from .dictionary import build_note_dictionary
