"""The quality curve: chord-id on the paper's song, rendered from its two charts.

The form of each bundled *In My Life* chart is rendered at 103 bpm with
``synth.py``'s voicings, at 22050 and 44100 Hz, clean and with noise at 20 dB,
and read back through a 16-bit WAV by ``identify`` (``quality.curve_point``).
Each reading is scored by weighted chord symbol recall and by segmentation
against the chart's triads, over all frames and over the tie-free frames.
``FLOORS`` pins the tie-free values: a change to the audio path may raise
them but not lower them.
"""

from __future__ import annotations

import numpy as np
import pytest
from quality import curve_point, directional_hamming, score, tie_free

CHART_NAMES = ("in_my_life.chart", "in_my_life_recorded.chart")
RATES = (22050, 44100)
NOISE_SNR_DB = (None, 20.0)

# (chart, rate, snr) -> (recall, segmentation) over the tie-free frames, the
# measured values rounded down to four places. One frame is worth 3e-4 to 7e-4
# of recall, so a floor fails on a single flipped label; that is meant. The
# values are those of exact NNLS's labels, and they did not move under
# OpenBLAS's AVX-512, Haswell and Sandybridge sgemm kernels. One frame of the
# recorded chart at 44100 Hz, clean, is the exception: its exact top-2 margin
# is 1.6e-4, and the solver labels it otherwise, which raises that value by
# 3e-5; exact NNLS's value is above the floor too. The recorded chart's D6 (D F#
# A B, the pitch classes of Bm7) is most of its missed time: exact NNLS labels
# 98 of its 151 frames at 22050 Hz b, with a median top-2 margin of 0.04, so
# those frames are misses rather than ties.
FLOORS = {
    ("in_my_life.chart", 22050, None): (0.9776, 0.9776),
    ("in_my_life.chart", 22050, 20.0): (0.9776, 0.9776),
    ("in_my_life.chart", 44100, None): (0.9881, 0.9881),
    ("in_my_life.chart", 44100, 20.0): (0.9881, 0.9881),
    ("in_my_life_recorded.chart", 22050, None): (0.8956, 0.9299),
    ("in_my_life_recorded.chart", 22050, 20.0): (0.8905, 0.9356),
    ("in_my_life_recorded.chart", 44100, None): (0.9089, 0.9327),
    ("in_my_life_recorded.chart", 44100, 20.0): (0.9077, 0.9325),
}


def test_scores_on_a_hand_example():
    # the reference: A over [0, 4), D over [4, 6), A over [6, 8) and [8, 10),
    # the last two merged; the estimate: A [0, 3), D [3, 6), b [6, 7), A [7, 10)
    reference, reference_labels = np.array([0.0, 4, 6, 8, 10]), ["A", "D", "A", "A"]
    estimate, estimate_labels = np.array([0.0, 3, 6, 7, 10]), ["A", "D", "b", "A"]
    frames = np.arange(11.0)
    recall, segmentation = score(
        reference, reference_labels, estimate, estimate_labels, frames, np.ones(10)
    )
    assert recall == pytest.approx(8 / 10)
    # reference to estimate: [0, 4) and [6, 10) each lose 1 of 4: 2 of 10;
    # estimate to reference: [3, 6) loses 1 of 3: 1 of 10
    assert segmentation == pytest.approx(1 - 2 / 10)
    # with frame 6 weighted out, the b drops out of both measures
    weight = np.ones(10)
    weight[6] = 0.0
    recall, segmentation = score(
        reference, reference_labels, estimate, estimate_labels, frames, weight
    )
    assert recall == pytest.approx(8 / 9)
    assert segmentation == pytest.approx(1 - 1 / 9)


def test_directional_hamming_matches_the_mir_eval_definition():
    """mir_eval's loop: per reference segment, its length less the longest
    piece that the estimate's boundaries cut it into."""
    rng = np.random.default_rng(5)
    for _ in range(20):
        reference = np.unique(np.concatenate(([0.0, 10.0], rng.uniform(0, 10, 5))))
        estimate = np.unique(np.concatenate(([0.0, 10.0], rng.uniform(0, 10, 7))))
        expected = 0.0
        for start, end in zip(reference[:-1], reference[1:]):
            inside = estimate[(estimate >= start) & (estimate < end)]
            expected += (end - start) - np.diff(np.concatenate(([start], inside, [end]))).max()
        cuts = np.unique(np.concatenate((reference, estimate)))
        middles = (cuts[:-1] + cuts[1:]) / 2
        overlap = np.zeros((len(reference) - 1, len(estimate) - 1))
        np.add.at(
            overlap,
            (np.searchsorted(reference, middles) - 1, np.searchsorted(estimate, middles) - 1),
            np.diff(cuts),
        )
        assert directional_hamming(overlap) == pytest.approx(expected / 10.0)


def test_a_tie_clears_its_whole_smoothing_window():
    tie = np.zeros(9, bool)
    tie[[0, 6]] = True
    assert tie_free(tie).tolist() == [False] * 3 + [True] + [False] * 5


@pytest.mark.parametrize("snr_db", NOISE_SNR_DB)
@pytest.mark.parametrize("rate", RATES)
@pytest.mark.parametrize("chart_name", CHART_NAMES)
def test_tie_free_quality_holds_its_floor(chart_name, rate, snr_db):
    pytest.importorskip("scipy.optimize")
    recall, segmentation = curve_point(chart_name, rate, snr_db)["tie_free"]
    floor_recall, floor_segmentation = FLOORS[chart_name, rate, snr_db]
    assert recall >= floor_recall
    assert segmentation >= floor_segmentation
