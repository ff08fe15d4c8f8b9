"""tonnetzlab: harmonic analysis of chord charts and audio.

Chord-symbol parsing, neo-Riemannian move classification on the common-tone
triad graph, planar Tonnetz diagrams, harmonic-rhythm clocks, and a
harmonics-based chord identifier for WAV audio, all wired to a CLI. Every name
is imported from the module that defines it; importing the package loads none.
"""
