from __future__ import annotations

import math
import os
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest
import quality
import synth
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import sliding_window_view
from synth import write_wav

import tonnetzlab
from tonnetzlab.chroma.dictionary import build_note_dictionary
from tonnetzlab.chroma.identify import (
    _TEMPLATES_UNIT,
    ENERGY_FLOOR,
    SMOOTH_FRAMES,
    ChordEstimate,
    _median_smooth,
    chroma_fold,
    identify,
    match_chords,
)
from tonnetzlab.chroma.nnls import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    MOMENTUM,
    ROUNDING_MARGIN,
    STEP_SCALE,
    _block_product,
    nnls_activations_batch,
    nnls_residual_history,
)
from tonnetzlab.chroma.spectral import (
    FRAME_BLOCK,
    HOP,
    LOW_NOTE,
    WINDOW_SIZE,
    _note_bins,
    frame_boundaries,
    log_freq_map,
    render_spectrogram_ppm,
    spectrogram,
    stft,
)
from tonnetzlab.chroma.wavio import AudioBuffer, load_wav
from tonnetzlab.errors import TonnetzlabError
from tonnetzlab.harmony import ALL_TRIADS, parse_chord_symbol


# ---------------------------------------------------------------- WAV I/O


def test_load_stereo_silence(tmp_path):
    path = tmp_path / "silence.wav"
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(2)
        handle.setsampwidth(2)
        handle.setframerate(44100)
        handle.writeframes(b"\x00" * (44100 * 2 * 2))
    buf = load_wav(path)
    assert buf.sample_rate == 44100
    assert len(buf.samples) == 44100
    assert not buf.samples.any()


def test_load_full_scale_sample(tmp_path):
    path = tmp_path / "fs.wav"
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(8000)
        handle.writeframes(np.array([32767], dtype="<i2").tobytes())
    buf = load_wav(path)
    assert buf.samples[0] == pytest.approx(32767 / 32768)


def test_load_rejects_24_bit(tmp_path):
    path = tmp_path / "deep.wav"
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(3)
        handle.setframerate(8000)
        handle.writeframes(b"\x00\x00\x00" * 16)
    with pytest.raises(TonnetzlabError, match="only 16-bit PCM is supported, got 24-bit$"):
        load_wav(path)


@pytest.mark.parametrize("tag", [0, 2, 3, 6, 65534])
def test_load_rejects_a_format_tag_other_than_pcm(tmp_path, tag):
    path = tmp_path / "float.wav"
    write_wav(path, np.zeros(64), 8000)
    data = bytearray(path.read_bytes())
    data[20:22] = tag.to_bytes(2, "little")  # the fmt chunk's format tag; PCM is 1
    path.write_bytes(bytes(data))
    message = f"float.wav: only 16-bit PCM WAV is read, got format tag {tag}$"
    with pytest.raises(TonnetzlabError, match=message):
        load_wav(path)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.wav"
    path.write_bytes(b"RIFF but not really a wav file")
    with pytest.raises(TonnetzlabError, match="garbage.wav: not a WAVE file$"):
        load_wav(path)


def test_load_rejects_chunk_past_end_of_file(tmp_path):
    path = tmp_path / "fmt-too-long.wav"
    write_wav(path, np.zeros(64), 8000)
    data = bytearray(path.read_bytes())
    data[16:20] = (10**6).to_bytes(4, "little")  # the fmt chunk's declared size
    path.write_bytes(bytes(data))
    with pytest.raises(TonnetzlabError, match="a chunk runs past the end of the file$"):
        load_wav(path)


@pytest.mark.parametrize(
    "channels, cut", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (2, 3)]
)
def test_load_drops_a_partial_trailing_frame(tmp_path, channels, cut):
    pcm = np.random.default_rng(7).integers(-32768, 32768, (501, channels)).astype("<i2")
    path = tmp_path / "cut.wav"
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(channels)
        handle.setsampwidth(2)
        handle.setframerate(8000)
        handle.writeframes(pcm.tobytes())
    if cut:
        path.write_bytes(path.read_bytes()[:-cut])
    kept = pcm[: len(pcm) - (cut > 0)]  # every cut here lands inside the last frame
    expected = (kept.astype(np.float64) / 32768.0).mean(axis=1).astype(np.float32)
    samples = load_wav(path).samples
    assert samples.dtype == np.float32
    assert np.array_equal(samples, expected)


def _write_pcm(path, pcm: np.ndarray, rate: int = 8000) -> None:
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(pcm.shape[1])
        handle.setsampwidth(2)
        handle.setframerate(rate)
        handle.writeframes(pcm.astype("<i2").tobytes())


def test_load_keeps_every_int16_code_exactly(tmp_path):
    codes = np.arange(-32768, 32768)
    path = tmp_path / "codes.wav"
    _write_pcm(path, codes[:, None])
    samples = load_wav(path).samples
    assert samples.dtype == np.float32
    # compared in float64: each float32 sample is exactly code / 32768
    assert np.array_equal(samples.astype(np.float64), codes / 32768.0)


def test_load_takes_the_exact_mean_of_two_channels(tmp_path):
    codes = np.arange(-32768, 32768)
    # every code meets its reverse, and a shuffle of the codes
    right = np.concatenate((codes[::-1], np.random.default_rng(3).permutation(codes)))
    left = np.concatenate((codes, codes))
    path = tmp_path / "stereo.wav"
    _write_pcm(path, np.stack((left, right), axis=1))
    samples = load_wav(path).samples
    assert samples.dtype == np.float32
    assert np.array_equal(samples.astype(np.float64), (left + right) / 65536.0)


def test_write_read_round_trip(tmp_path):
    path = tmp_path / "rt.wav"
    samples = np.sin(np.linspace(0, 40.0, 22050)) * 0.5
    write_wav(path, samples, 22050)
    buf = load_wav(path)
    assert buf.sample_rate == 22050
    assert np.max(np.abs(buf.samples - samples)) < 1e-4


# ------------------------------------------------------------------- STFT


def test_stft_sine_at_bin_center():
    sr, window = 44100, 4096
    bin_index = 100
    freq = bin_index * sr / window
    t = np.arange(sr) / sr
    samples = np.sin(2 * np.pi * freq * t)
    frame = spectrogram(samples)[2]
    assert frame.argmax() == bin_index
    peak = frame[bin_index]
    away = np.concatenate([frame[: bin_index - 1], frame[bin_index + 2 :]])
    # beyond the Hann main lobe everything sits at least 20 dB down
    assert away.max() < peak * 10 ** (-20 / 20)
    bins = _note_bins(sr)[0]
    assert stft(samples, sr)[2].argmax() == bin_index - bins.start


def test_stft_zeros_and_frame_count():
    samples = np.zeros(4096 + 3 * 2048)
    mags = stft(samples, 22050)
    assert mags.shape == (4, 406)
    assert not mags.any()
    assert spectrogram(samples).shape == (4, 4096 // 2 + 1)


def test_stft_dc_concentrates_in_bin_zero():
    assert (spectrogram(np.full(8192, 0.5)).argmax(axis=1) == 0).all()


def test_stft_too_short():
    for transform in (lambda s: stft(s, 22050), spectrogram):
        with pytest.raises(TonnetzlabError, match="^need at least 4096 samples, got 1024$"):
            transform(np.zeros(1024))


# stft reads the rate only once the samples cover a window
@pytest.mark.parametrize("sample_rate", [4000, 9_084_000])
def test_stft_reports_a_short_signal_before_a_bad_rate(sample_rate):
    with pytest.raises(TonnetzlabError, match="^need at least 4096 samples, got 1024$"):
        stft(np.zeros(1024), sample_rate)


# numpy's rfft with the default norm runs float32 input through its float64
# loop; stft must run the single-precision one. Its magnitudes then differ
# from the rounded float64 ones, by a few float32 eps of the frame's maximum.
def test_stft_runs_the_single_precision_transform():
    frame = np.random.default_rng(5).standard_normal(WINDOW_SIZE).astype(np.float32)
    windowed = frame * np.hanning(WINDOW_SIZE).astype(np.float32)
    double = np.abs(np.fft.rfft(windowed.astype(np.float64)).astype(np.complex64))
    got = stft(frame, 22050)[0]
    expected = double[_note_bins(22050)[0]]
    assert got.dtype == np.float32
    assert not np.array_equal(got, expected)
    eps = np.finfo(np.float32).eps
    assert np.abs(got - expected).max() <= 8 * eps * double.max()


# The single-precision, unnormalised transform: numpy's "forward" norm runs the
# float32 loop (a float32 scale), and its 1/4096 is undone exactly, as a power
# of two. The default norm would run the float64 loop instead.
def _single_precision_rfft(windowed: np.ndarray) -> np.ndarray:
    return np.fft.rfft(windowed, axis=1, norm="forward") * np.float32(WINDOW_SIZE)


# The list-stacked framing that stft's strided view replaced, kept as the
# reference the spectrogram must match bit for bit; in float32, as stft works.
def _reference_stft_frames(samples: np.ndarray) -> np.ndarray:
    window_size, hop = 4096, 2048
    samples = samples.astype(np.float32)
    count = (len(samples) - window_size) // hop + 1
    window = np.hanning(window_size).astype(np.float32)
    stacked = np.stack(
        [samples[i * hop : i * hop + window_size] * window for i in range(count)]
    )
    return np.abs(_single_precision_rfft(stacked))


@pytest.mark.parametrize("extra", [0, 1, 2047])
def test_stft_matches_reference_framing_on_a_noisy_buffer(extra):
    buffer = _acceptance_buffer(noise_snr_db=10.0)
    samples = np.concatenate((buffer.samples, np.full(extra, 0.25)))
    expected = _reference_stft_frames(samples)
    assert np.array_equal(spectrogram(samples), expected)
    rate = buffer.sample_rate
    assert np.array_equal(stft(samples, rate), expected[:, _note_bins(rate)[0]])


# The whole-track product that stft's FRAME_BLOCK loop replaced, kept as the
# reference the blocks must match bit for bit; in float32, as stft works.
def _reference_stft_magnitudes(samples: np.ndarray) -> np.ndarray:
    windows = sliding_window_view(samples.astype(np.float32), WINDOW_SIZE)[::HOP]
    window = np.hanning(WINDOW_SIZE).astype(np.float32)
    return np.abs(_single_precision_rfft(windows * window))


@pytest.mark.parametrize("count", [1, 63, 64, 65, 129, 688])
def test_stft_matches_the_whole_track_product_at_block_edges(count):
    length = WINDOW_SIZE + (count - 1) * HOP
    samples = np.random.default_rng(count).standard_normal(length)
    expected = _reference_stft_magnitudes(samples)
    mags = stft(samples, 22050)
    assert len(mags) == count
    assert np.array_equal(mags, expected[:, _note_bins(22050)[0]])
    assert np.array_equal(spectrogram(samples), expected)


# ----------------------------------------------------------- log-freq map


def _sine_buffer(freq: float, sr: int = 22050, seconds: float = 0.75) -> AudioBuffer:
    t = np.arange(int(sr * seconds)) / sr
    return AudioBuffer(np.sin(2 * np.pi * freq * t), sr)


def _semitone_frames(buffer: AudioBuffer) -> np.ndarray:
    return log_freq_map(stft(buffer.samples, buffer.sample_rate), buffer.sample_rate)


def test_log_freq_concert_a():
    frames = _semitone_frames(_sine_buffer(440.0))
    assert frames[0].argmax() == 69 - LOW_NOTE


def test_log_freq_middle_c():
    frames = _semitone_frames(_sine_buffer(261.63))
    assert frames[0].argmax() == 60 - LOW_NOTE


def test_log_freq_silence():
    frames = _semitone_frames(AudioBuffer(np.zeros(8192), 22050))
    assert not frames.any()


def test_log_freq_rejects_low_sample_rate():
    for map_at in (lambda rate: stft(np.zeros(8192), rate), _map_at):
        with pytest.raises(TonnetzlabError, match="^sample rate 4000 Hz is below 8 kHz"):
            map_at(4000)


def _map_at(sample_rate: int) -> np.ndarray:
    return log_freq_map(np.zeros((1, 406), np.float32), sample_rate)


# The full (notes x bins) triangle table that log_freq_map's slice of weighted
# bins replaced, kept as the reference. It takes the same float32 weights and
# magnitudes, and sums their products in float64: each product is exact there
# (24 + 24 bits of 53), so only the float64 sums round. Returns the reference
# and the number of non-zero weights of each note.
def _reference_log_freq_map(mags: np.ndarray, sample_rate: int):
    freqs = np.fft.rfftfreq(4096, 1.0 / sample_rate)
    semis = np.full_like(freqs, -1e9)
    positive = freqs > 0
    semis[positive] = 69.0 + 12.0 * np.log2(freqs[positive] / 440.0)
    notes = np.arange(24, 97, dtype=np.float64)
    table = np.maximum(1.0 - np.abs(semis[None, :] - notes[:, None]), 0.0)
    table = table.astype(np.float32).astype(np.float64)
    return mags.astype(np.float64) @ table.T, np.count_nonzero(table, axis=1)


def _gamma(terms: np.ndarray, unit_roundoff: float) -> np.ndarray:
    """Higham's gamma_m = m u / (1 - m u): the relative error bound of a sum of
    m rounded products in any order (Accuracy and Stability of Numerical
    Algorithms, section 3.1)."""
    return terms * unit_roundoff / (1.0 - terms * unit_roundoff)


# at 9.08 MHz only the first FFT bin lies in the top note's window
@pytest.mark.parametrize("sample_rate", [8000, 22050, 44100, 9_080_000])
def test_log_freq_map_matches_the_full_table(sample_rate):
    samples = _acceptance_buffer(noise_snr_db=10.0).samples
    expected, terms = _reference_log_freq_map(spectrogram(samples), sample_rate)
    got = log_freq_map(stft(samples, sample_rate), sample_rate)
    assert got.shape == expected.shape
    assert got.dtype == np.float32
    # A note sums m = terms non-zero products; a zero weight adds an exact 0.
    # Every term is >= 0, so the sum of their magnitudes is the exact sum s,
    # and float32 lands within gamma_m(2^-24) s of it, the float64 reference
    # within gamma_m(2^-53) s. With s <= expected / (1 - gamma_m(2^-53)):
    bound = (_gamma(terms, 2.0**-24) + 2 * _gamma(terms, 2.0**-53)) * expected
    assert (np.abs(got - expected) <= bound).all()
    assert got.any()


# From ~9.08 MHz up, the first FFT bin (rate / 4096) lies above the top note's
# window, so no bin carries weight; 2**32 - 1 is the largest rate a header holds.
@pytest.mark.parametrize("sample_rate", [9_084_000, 16_800_000, 2**31, 2**32 - 1])
def test_log_freq_map_rejects_a_rate_with_no_bin_in_the_note_range(sample_rate):
    message = f"^sample rate {sample_rate} Hz puts no FFT bin in the note range$"
    for map_at in (lambda rate: stft(np.zeros(8192), rate), _map_at):
        with pytest.raises(TonnetzlabError, match=message):
            map_at(sample_rate)


# ------------------------------------------------------------- dictionary


def test_dictionary_columns_are_unit_norm():
    dictionary = build_note_dictionary()
    norms = np.linalg.norm(dictionary.profiles, axis=0)
    assert np.allclose(norms, 1.0)


def test_dictionary_harmonic_stack_structure():
    dictionary = build_note_dictionary()
    # oracle: k-th harmonic of the lowest note lands on round(12*log2(k))
    offsets = [round(12 * math.log2(k)) for k in range(1, 9)]
    column = dictionary.profiles[:, 0]
    expected = np.zeros_like(column)
    for k, off in enumerate(offsets, start=1):
        expected[off] += 0.8 ** (k - 1)
    expected /= np.linalg.norm(expected)
    assert np.allclose(column, expected)


def test_dictionary_drops_out_of_range_harmonics():
    dictionary = build_note_dictionary()
    top = dictionary.profiles[:, -1]
    assert top.argmax() == top.nonzero()[0][0] == dictionary.profiles.shape[0] - 1
    assert np.count_nonzero(top) == 1  # every overtone falls above the range


# ------------------------------------------------------------------- NNLS


def _cd_oracle(profiles: np.ndarray, target: np.ndarray, sweeps: int = 400) -> np.ndarray:
    """Brute-force coordinate descent for min ||D x - f||, x >= 0."""
    gram = profiles.T @ profiles
    corr = profiles.T @ target
    x = np.zeros(profiles.shape[1])
    for _ in range(sweeps):
        for i in range(len(x)):
            step = (gram[i] @ x - corr[i]) / gram[i, i]
            x[i] = max(0.0, x[i] - step)
    return x


def test_nnls_recovers_a_single_column():
    dictionary = build_note_dictionary()
    for note_index in (0, 21, 45, 72):
        target = dictionary.profiles[:, note_index].copy()
        activations = nnls_activations_batch(target[None, :], dictionary)[0]
        assert abs(activations[note_index] - 1.0) <= 1e-3
        others = np.delete(activations, note_index)
        assert others.max() <= 1e-3


def test_nnls_zero_frame():
    dictionary = build_note_dictionary()
    assert not nnls_activations_batch(np.zeros(73)[None, :], dictionary)[0].any()


def test_nnls_three_note_mixture_matches_oracle():
    dictionary = build_note_dictionary()
    picks = [10, 30, 50]
    target = dictionary.profiles[:, picks].sum(axis=1)
    activations = nnls_activations_batch(target[None, :], dictionary)[0]
    assert all(activations[i] >= 0.9 for i in picks)
    residual = np.linalg.norm(dictionary.profiles @ activations - target)
    assert residual <= 1e-3
    oracle = _cd_oracle(dictionary.profiles, target)
    oracle_residual = np.linalg.norm(dictionary.profiles @ oracle - target)
    assert residual <= oracle_residual + 1e-3


def test_nnls_residual_monotone_non_increasing():
    dictionary = build_note_dictionary()
    rng = np.random.default_rng(3)
    target = np.abs(rng.standard_normal(73))
    _, history = nnls_residual_history(target, dictionary)
    diffs = np.diff(np.array(history))
    assert (diffs <= 1e-12).all()


def test_nnls_scale_equivariant():
    dictionary = build_note_dictionary()
    rng = np.random.default_rng(11)
    target = np.abs(rng.standard_normal(73))
    base = nnls_activations_batch(target[None, :], dictionary)[0]
    for c in (10.0, 0.25):
        scaled = nnls_activations_batch((c * target)[None, :], dictionary)[0]
        assert np.max(np.abs(scaled - c * base)) <= 1e-5 * max(1.0, c) * base.max()


def _block_row(row: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``row @ m`` as the solver computes it: row 0 of a zero-padded block."""
    block = np.zeros((FRAME_BLOCK, len(row)), np.float32)
    block[0] = row
    return (block @ m)[0]


# The FISTA iteration of chroma.nnls.nnls_activations_batch written out for one
# frame, the reference the batched solver must match bit for bit. It computes
# in float32, as the solver does, and its two matrix products take the
# solver's one GEMM shape, the FRAME_BLOCK-row block. The residuals are taken
# in float64, as nnls_residual_history takes them.
def nnls_solve_one(
    frame: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    residual_history: list[float] | None = None,
) -> np.ndarray:
    """Solve one NNLS instance; optionally record ||D x - f|| per iteration."""
    dictionary = build_note_dictionary()
    profiles, gram = dictionary.profiles, dictionary.gram()
    step = STEP_SCALE / dictionary.step_bound()
    frame = np.asarray(frame, np.float32)
    target = _block_row(frame, profiles)
    x = np.zeros(gram.shape[0], np.float32)
    history = [] if residual_history is None else residual_history
    exact_profiles, exact_frame = profiles.astype(np.float64), frame.astype(np.float64)
    history.append(float(np.linalg.norm(exact_profiles @ x - exact_frame)))
    if not target.any():
        return x
    stop = tol * np.abs(target).max()
    slack = ROUNDING_MARGIN * float(np.finfo(np.float32).eps) * np.abs(target).max()
    gx = -target  # x's gradient gram @ x - target
    v = target * step  # x's forward step x - step gx
    w = v  # the forward step from the extrapolated point
    t = np.float32(1.0)
    for _ in range(max_iter):
        z = np.maximum(w, 0.0)
        g = _block_row(z, gram) - target
        stopped = False
        # the objective would not fall by more than float32 resolves: keep x,
        # drop the momentum
        delta = z - x
        if float(delta @ (g + gx) + slack * np.sqrt(delta @ delta)) > 0.0:
            stopped = t == 1.0  # a plain step, rejected, would repeat exactly
            w, t = v, np.float32(1.0)
        else:
            stopped = np.abs(np.minimum(z, g)).max() <= stop
            v_z = z - g * step
            t_next = 0.5 + np.sqrt(0.25 + MOMENTUM * t * t)
            w = v_z + (t - 1.0) / t_next * (v_z - v)
            x, gx, v, t = z, g, v_z, t_next
        history.append(float(np.linalg.norm(exact_profiles @ x - exact_frame)))
        if stopped:
            break
    return x


def _reference_batch(frames: np.ndarray, max_iter: int = DEFAULT_MAX_ITER):
    """Row-by-row reference solve; returns activations and iterations per row."""
    out = np.zeros(frames.shape, np.float32)
    iterations = []
    for i, frame in enumerate(frames):
        history: list[float] = []
        out[i] = nnls_solve_one(frame, max_iter=max_iter, residual_history=history)
        iterations.append(len(history) - 1)
    return out, iterations


def _iterations(frame: np.ndarray, tol: float, max_iter: int) -> int:
    history = nnls_residual_history(frame, build_note_dictionary(), tol, max_iter)[1]
    return len(history) - 1


def test_nnls_batch_matches_reference_on_random_frames():
    frames = np.abs(np.random.default_rng(21).standard_normal((12, 73)))
    frames[4] = 0.0
    expected, _ = _reference_batch(frames)
    assert np.array_equal(nnls_activations_batch(frames, build_note_dictionary()), expected)


def _acceptance_buffer(noise_snr_db: float = 30.0, repeats: int = 1) -> AudioBuffer:
    """The 8-chord acceptance sequence, ``repeats`` times over (16 s each), at
    30 dB SNR unless told otherwise."""
    tokens = ["A", "E7", "A", "f#", "A7", "D", "d", "A"] * repeats
    return synth.chord_sequence(
        [parse_chord_symbol(t) for t in tokens],
        seconds_each=2.0, harmonics=6, decay=0.8, noise_snr_db=noise_snr_db, seed=7,
    )


def test_nnls_batch_matches_reference_on_acceptance_corpus():
    frames = _semitone_frames(_acceptance_buffer())
    frames[len(frames) // 2] = 0.0
    # these frames take 29-58 iterations: at 50 a few are cut off
    max_iter = 50
    expected, iterations = _reference_batch(frames, max_iter)
    assert iterations[len(frames) // 2] == 0
    assert 0 < min(it for it in iterations if it) < max(iterations) == max_iter
    got = nnls_activations_batch(frames, build_note_dictionary(), max_iter=max_iter)
    assert np.array_equal(got, expected)


def test_nnls_residual_history_matches_reference():
    dictionary = build_note_dictionary()
    for seed in (3, 17):
        frame = np.abs(np.random.default_rng(seed).standard_normal(73))
        expected: list[float] = []
        reference = nnls_solve_one(frame, residual_history=expected)
        activations, history = nnls_residual_history(frame, dictionary)
        assert history == expected
        assert np.array_equal(activations, reference)
    assert nnls_residual_history(np.zeros(73), dictionary)[1] == [0.0]


def test_nnls_batch_satisfies_stationarity():
    dictionary = build_note_dictionary()
    frames = np.abs(np.random.default_rng(0).standard_normal((6, 73)))
    targets = frames @ dictionary.profiles
    # tolerances well past the default probe the limit point; every frame
    # must reach them, not stall until max_iter
    max_iter = 20000
    for tol in (1e-8, 1e-14):
        assert all(_iterations(frame, tol, max_iter) < max_iter for frame in frames)
        out = nnls_activations_batch(frames, dictionary, tol, max_iter)
        grad = out @ dictionary.gram() - targets
        # KKT: gradient ~0 on active coordinates, >= 0 where clamped at zero
        active = out > 1e-9
        assert np.abs(grad[active]).max() < 1e-3
        assert grad[~active].min() > -1e-3
        assert out.min() >= 0.0


def test_batch_matches_per_frame_solve():
    frames = np.abs(np.random.default_rng(2).standard_normal((4, 73)))
    dictionary = build_note_dictionary()
    batch = nnls_activations_batch(frames, dictionary)
    for i in range(len(frames)):
        single = nnls_activations_batch(frames[i : i + 1], dictionary)[0]
        assert np.array_equal(batch[i], single)


def test_nnls_empty_batch():
    empty = nnls_activations_batch(np.zeros((0, 73)), build_note_dictionary())
    assert empty.shape == (0, 73)


@st.composite
def _frame_batches(draw, counts=st.integers(0, 40)):
    """Non-negative float32 frames, as the solver takes them, 0-40 unless
    ``counts`` says otherwise, some rows all zero, and a permutation of them."""
    count = draw(counts)
    elements = st.floats(0.0, 100.0, width=32)
    frames = draw(hnp.arrays(np.float32, (count, 73), elements=elements))
    frames[draw(hnp.arrays(np.bool_, count))] = 0.0
    return frames, np.array(draw(st.permutations(range(count))), dtype=np.intp)


def _assert_rows_independent(frames, order, tol, max_iter):
    """Each frame solves bit for bit alike in the batch, alone and permuted."""
    dictionary = build_note_dictionary()
    solved = nnls_activations_batch(frames, dictionary, tol, max_iter)
    assert solved.shape == frames.shape
    for i in range(len(frames)):
        alone = nnls_activations_batch(frames[i : i + 1], dictionary, tol, max_iter)
        assert np.array_equal(solved[i], alone[0])
    permuted = nnls_activations_batch(frames[order], dictionary, tol, max_iter)
    assert np.array_equal(permuted, solved[order])


@settings(max_examples=20, deadline=None)
@given(
    batch=_frame_batches(),
    # loose tolerances stop frames within 100 steps, the tight one at max_iter
    tol=st.sampled_from([1e-2, 1e-3, 1e-6]),
    max_iter=st.integers(1, 100),
)
def test_nnls_batch_rows_are_independent(batch, tol, max_iter):
    _assert_rows_independent(*batch, tol, max_iter)


@settings(max_examples=10, deadline=None)
@given(
    # batches that fill a block, overrun it by one row, or stop one row short
    batch=_frame_batches(st.sampled_from([63, 64, 65, 128, 129])),
    tol=st.sampled_from([1e-2, 1e-3, 1e-6]),
    max_iter=st.integers(1, 30),
)
def test_nnls_batch_rows_are_independent_across_block_boundaries(batch, tol, max_iter):
    _assert_rows_independent(*batch, tol, max_iter)


def test_block_product_rows_do_not_depend_on_position_or_neighbours():
    """The premise of the solver's bit-identity: in the fixed (FRAME_BLOCK, 73)
    GEMM a row's result depends on that row alone."""
    dictionary = build_note_dictionary()
    rng = np.random.default_rng(9)
    rows = np.abs(rng.standard_normal((3, 73))) * [[1.0], [1e-3], [1e3]]
    rows = rows.astype(np.float32)
    zeros = np.zeros((FRAME_BLOCK, 73), np.float32)
    noise = rng.random((FRAME_BLOCK, 73), np.float32)
    for m in (dictionary.profiles, dictionary.gram()):
        for row in rows:
            alone = _block_product(row[None, :], m)[0]
            for neighbours in (zeros, noise):
                for position in range(FRAME_BLOCK):
                    block = neighbours.copy()
                    block[position] = row
                    assert np.array_equal(_block_product(block, m)[position], alone)


# The block-by-block loop that _block_product's stacked matmul replaced, kept
# as the reference it must match bit for bit; in float32, as the solver works.
def _reference_block_product(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    a, m = a.astype(np.float32), m.astype(np.float32)
    out = np.empty((len(a), m.shape[1]), np.float32)
    whole = len(a) - len(a) % FRAME_BLOCK
    for start in range(0, whole, FRAME_BLOCK):
        block = slice(start, start + FRAME_BLOCK)
        np.matmul(a[block], m, out=out[block])
    if whole < len(a):
        padded = np.zeros((FRAME_BLOCK, a.shape[1]), np.float32)
        padded[: len(a) - whole] = a[whole:]
        out[whole:] = (padded @ m)[: len(a) - whole]
    return out


@pytest.mark.parametrize("rows", [1, 63, 64, 65, 300, 688, 2000])
def test_block_product_matches_the_block_loop(rows):
    dictionary = build_note_dictionary()
    a = np.abs(np.random.default_rng(rows).standard_normal((rows, 73), np.float32))
    for m in (dictionary.profiles, dictionary.gram()):
        assert np.array_equal(_block_product(a, m), _reference_block_product(a, m))


# Runs in a fresh interpreter: BLAS fixes its thread count when it loads.
_THREADED_CHECK = """
import numpy as np
import test_chroma as t

t.test_block_product_rows_do_not_depend_on_position_or_neighbours()
frames = t._semitone_frames(t._acceptance_buffer(noise_snr_db=10.0))
order = np.random.default_rng(5).permutation(len(frames))
t._assert_rows_independent(frames, order, t.DEFAULT_TOL, t.DEFAULT_MAX_ITER)
"""


def test_nnls_batch_rows_are_independent_under_two_blas_threads():
    """The benchmark pins one BLAS thread; this repeats the premise check and
    the 171 frames of the acceptance sequence (three blocks) under two."""
    path = [str(Path(__file__).parent), str(Path(tonnetzlab.__file__).parents[1])]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
    env["PYTHONPATH"] = os.pathsep.join(path)
    child = subprocess.run(
        [sys.executable, "-c", _THREADED_CHECK],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr


def test_nnls_batch_rows_are_independent_on_a_track():
    """The fixed case: all 688 frames of a 64 s track at 10 dB SNR."""
    frames = _semitone_frames(_acceptance_buffer(noise_snr_db=10.0, repeats=4))
    order = np.random.default_rng(5).permutation(len(frames))
    _assert_rows_independent(frames, order, DEFAULT_TOL, DEFAULT_MAX_ITER)


@settings(max_examples=20, deadline=None)
@given(
    batch=_frame_batches(),
    tol=st.sampled_from([1e-2, 1e-4, 1e-6]),
    max_iter=st.integers(1, 100),
)
def test_nnls_batch_stops_within_its_kkt_bound(batch, tol, max_iter):
    frames, _ = batch
    dictionary = build_note_dictionary()
    solved = nnls_activations_batch(frames, dictionary, tol, max_iter)
    assert (solved >= 0.0).all()
    # h and the gradient as the solver computes them, in FRAME_BLOCK-row blocks
    targets = _block_product(frames, dictionary.profiles)
    gradient = _block_product(solved, dictionary.gram()) - targets
    natural = np.abs(np.minimum(solved, gradient))
    for i in range(len(frames)):
        if 0 < _iterations(frames[i], tol, max_iter) < max_iter:
            assert natural[i].max() <= tol * np.abs(targets[i]).max()


@settings(max_examples=20, deadline=None)
@given(frame=hnp.arrays(np.float64, 73, elements=st.floats(0.0, 100.0)))
def test_nnls_residual_history_is_monotone(frame):
    _, history = nnls_residual_history(frame, build_note_dictionary())
    assert (np.diff(np.array(history)) <= 1e-12).all()


@pytest.mark.parametrize("snr_db", [30.0, 10.0])
def test_nnls_matches_exact_nnls_on_acceptance_corpus(snr_db):
    scipy_nnls = pytest.importorskip("scipy.optimize").nnls
    dictionary = build_note_dictionary()
    frames = _semitone_frames(_acceptance_buffer(snr_db))
    activations = nnls_activations_batch(frames, dictionary)
    exact = np.array([scipy_nnls(dictionary.profiles, frame)[0] for frame in frames])
    # per frame, the largest activation error relative to the largest activation
    deviation = np.abs(activations - exact).max(axis=1) / exact.max(axis=1)
    assert deviation.max() <= 5e-3


@pytest.mark.parametrize("snr_db", [30.0, 10.0])
def test_float32_activations_give_the_labels_of_exact_nnls(snr_db):
    scipy_nnls = pytest.importorskip("scipy.optimize").nnls
    dictionary = build_note_dictionary()
    buffer = _acceptance_buffer(snr_db)
    mags = stft(buffer.samples, buffer.sample_rate)
    frames = log_freq_map(mags, buffer.sample_rate)
    activations = nnls_activations_batch(frames, dictionary)
    assert activations.dtype == np.float32
    profiles = dictionary.profiles.astype(np.float64)
    exact = np.array([scipy_nnls(profiles, frame.astype(np.float64))[0] for frame in frames])
    boundaries = frame_boundaries(len(mags), len(buffer.samples), buffer.sample_rate)
    got = match_chords(chroma_fold(activations), boundaries)
    assert got == match_chords(chroma_fold(exact), boundaries)
    assert [s.label for s in got][:2] == ["A", "E"]


@pytest.mark.parametrize("snr_db", [30.0, 20.0, 10.0, 0.0])
def test_frame_labels_are_those_of_exact_nnls_away_from_ties(snr_db):
    """Before smoothing, every frame whose two best template cosines under
    exact NNLS lie at least quality.TIE_MARGIN apart gets exact NNLS's label."""
    pytest.importorskip("scipy.optimize")
    frames = _semitone_frames(_acceptance_buffer(snr_db))
    exact = quality.exact_cosines(frames)
    activations = nnls_activations_batch(frames, build_note_dictionary())
    got = quality.template_cosines(chroma_fold(activations)).argmax(axis=1)
    clear = ~quality.ties(exact)
    assert np.array_equal(got[clear], exact.argmax(axis=1)[clear])


# The frame-iterations of the 171 frames above, by SNR: 11,220 at 10 dB and
# 13,468 at 0 dB with the 1/L step and FISTA's momentum sequence; 8,318 and
# 16,025 with STEP_SCALE and MOMENTUM. The 0 dB count is the cost that pair
# takes at very low SNR, pinned so that it cannot grow unseen. The counts
# were taken with OpenBLAS's AVX-512 sgemm; its Haswell, Sandybridge and
# Katmai kernels gave counts up to 2 higher or lower, so the guard allows
# 0.1% more.
ACCEPTANCE_ITERATIONS = {10.0: 8318, 0.0: 16025}


@pytest.mark.parametrize("snr_db", sorted(ACCEPTANCE_ITERATIONS))
def test_nnls_takes_no_more_steps_on_the_acceptance_sequence(snr_db):
    frames = _semitone_frames(_acceptance_buffer(snr_db))
    assert len(frames) == 171
    dictionary = build_note_dictionary()
    steps = sum(len(nnls_residual_history(f, dictionary)[1]) - 1 for f in frames)
    assert steps <= ACCEPTANCE_ITERATIONS[snr_db] * 1.001


def test_a_16_bit_wav_stays_float32_through_the_solve(tmp_path):
    """Every stage from the loaded samples through the NNLS iterates is float32;
    a float64 scalar anywhere (NEP 50) would promote the arrays after it."""
    path = tmp_path / "take.wav"
    buffer = _acceptance_buffer()
    write_wav(path, buffer.samples, buffer.sample_rate)
    samples, rate = load_wav(path)
    mags = stft(samples, rate)
    frames = log_freq_map(mags, rate)
    dictionary = build_note_dictionary()
    activations = nnls_activations_batch(frames, dictionary)
    for array in (samples, mags, frames, dictionary.profiles, dictionary.gram(), activations):
        assert array.dtype == np.float32
    assert type(dictionary.step_bound()) is float
    iterates: list[np.ndarray] = []
    loud = frames[np.abs(frames).sum(axis=1).argmax()]
    nnls_activations_batch(loud[None, :], dictionary, iterates=iterates)
    assert len(iterates) > 2
    assert {x.dtype for x in iterates} == {np.dtype(np.float32)}


# ----------------------------------------------------------- chroma + ID


def test_chroma_fold_single_note():
    activations = np.zeros(73)
    activations[69 - LOW_NOTE] = 1.0
    chroma = chroma_fold(activations)
    assert chroma[9] == 1.0
    assert chroma.sum() == 1.0


def test_chroma_fold_octaves_accumulate():
    activations = np.zeros(73)
    activations[57 - LOW_NOTE] = 0.75
    activations[69 - LOW_NOTE] = 0.5
    assert chroma_fold(activations)[9] == pytest.approx(1.25)


def test_chroma_fold_zero():
    assert not chroma_fold(np.zeros(73)).any()


# The pitch-class loop that chroma_fold's octave reshape replaced, kept as the
# reference the fold must match bit for bit.
def _reference_chroma_fold(activations: np.ndarray) -> np.ndarray:
    activations = np.asarray(activations, dtype=np.float64)
    single = activations.ndim == 1
    if single:
        activations = activations[None, :]
    chroma = np.zeros((activations.shape[0], 12))
    for index in range(activations.shape[1]):
        chroma[:, (LOW_NOTE + index) % 12] += activations[:, index]
    return chroma[0] if single else chroma


@pytest.mark.parametrize("shape", [(73,), (0, 73), (1, 73), (50, 73)])
def test_chroma_fold_matches_reference_on_random_activations(shape):
    activations = np.abs(np.random.default_rng(8).standard_normal(shape)) * 1e3
    got = chroma_fold(activations)
    assert got.shape == shape[:-1] + (12,)
    assert np.array_equal(got, _reference_chroma_fold(activations))


def test_chroma_fold_matches_reference_on_acceptance_corpus():
    activations = nnls_activations_batch(
        _semitone_frames(_acceptance_buffer()), build_note_dictionary()
    )
    assert np.array_equal(chroma_fold(activations), _reference_chroma_fold(activations))


# The frame loop that _median_smooth's one sort of the whole windows replaced,
# kept as the reference it must match.
def _reference_median_smooth(indices: np.ndarray) -> np.ndarray:
    half = SMOOTH_FRAMES // 2
    out = np.empty_like(indices)
    for i in range(len(indices)):
        window = np.sort(indices[max(0, i - half) : i + half + 1])
        out[i] = window[len(window) // 2]
    return out


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.intp, st.integers(0, 40), elements=st.integers(0, 24)))
def test_median_smooth_matches_the_frame_loop(indices):
    assert np.array_equal(_median_smooth(indices), _reference_median_smooth(indices))


# The frame-by-frame loop that match_chords' cut at label changes replaced,
# kept as the reference its segments must equal.
def _reference_match_chords(chroma: np.ndarray, boundaries: np.ndarray) -> list:
    energy = chroma.sum(axis=1)
    norms = np.linalg.norm(chroma, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    best = ((chroma / safe[:, None]) @ _TEMPLATES_UNIT.T).argmax(axis=1)
    threshold = ENERGY_FLOOR * float(energy.max())
    voiced = (energy > 0) & (energy >= threshold)
    indices = _reference_median_smooth(np.where(voiced, best, 24))
    segments = []
    start = 0
    for i in range(1, len(chroma) + 1):
        if i == len(chroma) or indices[i] != indices[start]:
            label = "N" if indices[start] == 24 else ALL_TRIADS[indices[start]].name
            segments.append(
                ChordEstimate(label, float(boundaries[start]), float(boundaries[i]))
            )
            start = i
    return segments


@pytest.mark.parametrize("count", [1, 2, 5, 64, 300])
def test_match_chords_matches_the_frame_loop(count):
    rng = np.random.default_rng(count)
    # runs of one chroma row, some silent or below the energy floor
    rows = np.abs(rng.standard_normal((count, 12)))
    rows[rng.random(count) < 0.2] *= 1e-6
    rows[rng.random(count) < 0.1] = 0.0
    chroma = np.repeat(rows, rng.integers(1, 8, count), axis=0)[:count]
    boundaries = np.cumsum(rng.random(count + 1))
    assert match_chords(chroma, boundaries) == _reference_match_chords(chroma, boundaries)


def test_match_chords_scale_invariant():
    rng = np.random.default_rng(5)
    chroma = np.abs(rng.standard_normal((40, 12)))
    boundaries = np.linspace(0.0, 4.0, 41)
    base = match_chords(chroma, boundaries)
    scaled = match_chords(chroma * 37.5, boundaries)
    assert [s.label for s in base] == [s.label for s in scaled]


def test_identify_single_a_major_triad():
    # A3, C#4, E4 with 6 harmonics and 0.8 decay
    sr = 22050
    mix = sum(synth.tone(m, 2.0, sr) for m in (57, 61, 64))
    buf = AudioBuffer(mix / np.abs(mix).max() * 0.8, sr)
    segments, _ = identify(buf)
    assert [s.label for s in segments] == ["A"]
    assert segments[0].start == 0.0
    assert segments[0].end == pytest.approx(2.0)


def test_identify_silence_is_no_chord():
    segments, _ = identify(AudioBuffer(np.zeros(22050), 22050))
    assert [s.label for s in segments] == ["N"]


def test_identify_seventh_does_not_flip_the_triad():
    symbols = [parse_chord_symbol(t) for t in ["A", "E7", "A"]]
    buf = synth.chord_sequence(symbols, 1.5)
    segments, _ = identify(buf)
    assert [s.label for s in segments] == ["A", "E", "A"]


# the samples past the last frame's end: none, one, and one short of a hop
@pytest.mark.parametrize("extra", [0, 1, HOP - 1])
def test_identify_segments_tile_the_audio(extra):
    symbols = [parse_chord_symbol(t) for t in ["A", "d"]]
    buf = synth.chord_sequence(symbols, 1.5)
    length = WINDOW_SIZE + 29 * HOP + extra
    segments, mags = identify(AudioBuffer(buf.samples[:length], buf.sample_rate))
    assert len(mags) == 30
    assert segments[0].start == 0.0
    assert segments[-1].end == length / buf.sample_rate
    for first, second in zip(segments, segments[1:]):
        assert first.end == second.start


def test_identify_deterministic():
    symbols = [parse_chord_symbol(t) for t in ["D", "G"]]
    buf = synth.chord_sequence(symbols, 1.0, noise_snr_db=30.0, seed=4)
    first, _ = identify(buf)
    second, _ = identify(buf)
    assert first == second


# -------------------------------------------------------------------- PPM


def test_ppm_dimensions_and_header():
    data = render_spectrogram_ppm(np.zeros((5, 9)))
    assert data.startswith(b"P6\n5 9\n255\n")
    assert len(data) == len(b"P6\n5 9\n255\n") + 5 * 9 * 3


def test_ppm_zero_spectrogram_is_black():
    data = render_spectrogram_ppm(np.zeros((4, 6)))
    body = data.split(b"\n", 3)[3]
    assert set(body) == {0}


def test_ppm_single_bin_impulse():
    frames = np.zeros((3, 6))
    frames[1, 2] = 1.0
    data = render_spectrogram_ppm(frames)
    body = np.frombuffer(data.split(b"\n", 3)[3], dtype=np.uint8).reshape(6, 3, 3)
    lit = np.argwhere(body[:, :, 0] > 0)
    assert lit.tolist() == [[6 - 1 - 2, 1]]  # low bins render at the bottom
