"""Tests of the benchmark's own logic: inputs, statistics, spans and scoring.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import random

import pytest
from tonnetzlab.chart import parse_chart

import checks
import gen
from cold import parse_importtime
from ops import closed_loop, closed_loops, layer_of_traceback
from summary import TAIL_BEYOND, TAIL_STRETCH, self_times, stretch_tail, tail

SR = gen.SAMPLE_RATE


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    first = gen.write_inputs(7, tmp_path / "a")
    second = gen.write_inputs(7, tmp_path / "b")
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files_a == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert first["tracks"][0]["truth"] == second["tracks"][0]["truth"]


def test_other_seed_gives_other_inputs():
    assert [c.text for c in gen.make_charts(1)] != [c.text for c in gen.make_charts(2)]
    assert gen.make_tracks(1, 1)[0].wav != gen.make_tracks(2, 1)[0].wav


def test_corpus_mix_is_fixed_by_design():
    for seed in range(5):
        charts = gen.make_charts(seed)
        kinds = [chart.kind for chart in charts]
        assert kinds.count("odd-meter") == len(gen.ODD_METER_AT)
        assert kinds.count("one-chord") == len(gen.ONE_CHORD_AT)
        assert sum(len(chart.sections) for chart in charts) == 70
        chords = [sum(len(m) for s in parse_chart(c.text).sections.values() for m in s.measures)
                  for c in charts]
        # the largest operations are as large on every seed, give or take split measures
        assert 55 <= max(chords) <= 75
    tracks = gen.make_tracks(3)
    assert [t.samples for t in tracks] == [
        int(round(seconds * SR)) for seconds, _, _ in gen.TRACK_PLAN
    ]
    for track in tracks:
        # ground truth tiles the track
        assert track.truth[0][0] == 0 and track.truth[-1][1] == track.samples
        assert all(a[1] == b[0] for a, b in zip(track.truth, track.truth[1:]))
        # chords are dealt from a deck: no chord follows itself
        labels = [label for _, _, label in track.truth if label != "N"]
        assert all(a != b for a, b in zip(labels, labels[1:]))
    # the first tracks are the same whether or not the rest are made
    assert gen.make_tracks(3, 2)[1].wav == tracks[1].wav


@pytest.mark.parametrize("count", [11, 12, 20, 57, 100, 1000])
def test_tail_has_exactly_ten_samples_beyond(count):
    values = [float(v) for v in range(count)]
    random.Random(count).shuffle(values)
    pct, value, beyond = tail(values)
    assert beyond == TAIL_BEYOND
    assert sum(v > value for v in values) == TAIL_BEYOND
    # the next rank up would leave fewer than ten beyond it
    assert sum(v > value + 1 for v in values) < TAIL_BEYOND
    assert pct == pytest.approx(100.0 * (count - TAIL_BEYOND) / count)


def test_tail_of_one_hundred_is_the_ninetieth_percentile():
    assert tail([float(v) for v in range(1, 101)]) == (90.0, 90.0, 10)


def test_tail_with_too_few_samples_reports_the_shortfall():
    pct, value, beyond = tail([5.0, 1.0, 3.0])
    assert (value, beyond) == (1.0, 2)
    assert pct == pytest.approx(100.0 / 3)


def test_stretch_tail_is_the_median_of_each_stretch_tail():
    base = [float(v % 100) for v in range(TAIL_STRETCH)]
    # three stretches; a burst of slow operations lands in the second only
    values = base + [v + 1000.0 if v > 50 else v for v in base] + base
    pct, value, beyond, stretches = stretch_tail(values)
    assert stretches == 3 and beyond == TAIL_BEYOND
    assert value == tail(base)[1]
    # a short run is one stretch: the plain tail
    assert stretch_tail(base[:500]) == (*tail(base[:500]), 1)


def test_self_time_subtracts_nested_children():
    spans = [
        ("op", 0.0, 10.0, None, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 5.0, 9.0, 0, 0),
        ("c", 6.0, 8.0, 2, 0),  # child of b, grandchild of op
    ]
    assert self_times(spans) == [3.0, 3.0, 2.0, 2.0]


def test_self_time_counts_overlapping_children_once():
    spans = [("op", 0.0, 10.0, None, 0), ("a", 1.0, 5.0, 0, 0), ("b", 3.0, 7.0, 0, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_recorder_spans_nest_and_self_times_add_up():
    from tracing import Recorder

    rec = Recorder()
    rec.op = 0
    with rec.span("op"):
        with rec.span("outer"):
            with rec.span("inner"):
                sum(range(1000))
        with rec.span("second"):
            sum(range(1000))
    names = [s[0] for s in rec.spans]
    parents = [s[3] for s in rec.spans]
    assert names == ["op", "outer", "inner", "second"]
    assert parents == [None, 0, 1, 0]
    root = rec.spans[0][2] - rec.spans[0][1]
    assert sum(self_times(rec.spans)) == pytest.approx(root)


def _two_chords(boundary_s: float) -> list[dict]:
    return [
        {"label": "C", "start_s": 0.0, "end_s": boundary_s},
        {"label": "a", "start_s": boundary_s, "end_s": 4.0},
    ]


def test_frame_accuracy_on_two_chords():
    samples = 4 * SR
    truth = [(0, 2 * SR, "C"), (2 * SR, samples, "a")]
    # 42 frames; frames 20 and 21 straddle the change at 2 s and are not scored
    labels = checks.frame_truth(truth, samples)
    assert len(labels) == 42
    assert [i for i, label in enumerate(labels) if label is None] == [20, 21]
    assert checks.frame_hits(_two_chords(2.0), truth, samples, SR) == (40, 40)
    # a change found at 1.5 s mislabels frames 16 to 19 (middles at 1.53..1.67 s)
    assert checks.frame_hits(_two_chords(1.5), truth, samples, SR) == (36, 40)


def test_silence_is_scored_as_no_chord():
    samples = 2 * SR
    truth = [(0, SR, "N"), (SR, samples, "G")]
    segments = [
        {"label": "N", "start_s": 0.0, "end_s": 1.0},
        {"label": "G", "start_s": 1.0, "end_s": 2.0},
    ]
    right, scored = checks.frame_hits(segments, truth, samples, SR)
    assert right == scored > 0


def test_segment_checks():
    checks.check_segments(_two_chords(2.0), 4 * SR, SR)
    gap = _two_chords(2.0)
    gap[1]["start_s"] = 2.1
    with pytest.raises(checks.CheckFailed):
        checks.check_segments(gap, 4 * SR, SR)
    bad_label = _two_chords(2.0)
    bad_label[0]["label"] = "C7"
    with pytest.raises(checks.CheckFailed):
        checks.check_segments(bad_label, 4 * SR, SR)
    with pytest.raises(checks.CheckFailed):
        checks.check_segments(_two_chords(2.0), 5 * SR, SR)


def test_report_check_counts_moves():
    good = '{"sections": [{"name": "A", "progression": ["C", "G"], "moves": [{}]},' \
           ' {"name": "B", "progression": ["C"]}]}'
    checks.check_report(good)
    with pytest.raises(checks.CheckFailed):
        checks.check_report(
            '{"sections": [{"name": "A", "progression": ["C", "G"], "moves": []}]}'
        )


def test_svg_check():
    checks.check_svg(b'<svg xmlns="http://www.w3.org/2000/svg"></svg>')
    with pytest.raises(checks.CheckFailed):
        checks.check_svg(b"<svg><g></svg>")


def test_importtime_parsing():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:      2000 |     150000 |     numpy",
        "import time:       300 |     160000 |   tonnetzlab.chroma",
        "import time:       400 |      20000 | tonnetzlab",
        "import time:       500 |     170000 | tonnetzlab.cli",
    ])
    assert parse_importtime(stderr) == (190.0, 150.0)
    assert parse_importtime("import time:  5 |  5 | site") == (0.0, 0.0)


def test_traceback_layer_is_the_innermost_tonnetzlab_frame():
    text = (
        'Traceback (most recent call last):\n'
        '  File "/x/src/tonnetzlab/cli.py", line 10, in main\n'
        '  File "/x/src/tonnetzlab/rhythm.py", line 66, in clocks_for\n'
        'tonnetzlab.rhythm.WindowMismatch: 3 beats x 2 measures != 8-hour cycle\n'
    )
    assert layer_of_traceback(text) == "rhythm"
    assert layer_of_traceback("no frames here") == "other"


class _StubOp:
    def clear(self):
        pass

    def output(self):
        return b"same"


def test_closed_loop_runs_whole_passes_and_at_least_min_passes():
    ops = [_StubOp(), _StubOp(), _StubOp()]
    phase = closed_loop(ops, 0.0, lambda op: (0.001, None), min_passes=4)
    assert [index for index, _, _ in phase.records] == [0, 1, 2] * 4
    assert not phase.unstable


def test_closed_loops_take_turns_pass_by_pass():
    ops = [_StubOp(), _StubOp()]
    order = []
    runners = [lambda op: order.append("a") or (0.001, None),
               lambda op: order.append("b") or (0.001, None)]
    first, second = closed_loops(ops, 0.0, runners, min_passes=2)
    assert order == ["a", "a", "b", "b"] * 2
    assert len(first.records) == len(second.records) == 4


def test_tracing_runs_the_real_cli_and_restores_it(tmp_path):
    import tonnetzlab.cli as cli
    import tracing

    chart = next(c for c in gen.make_charts(3) if c.kind == "plain")
    path = tmp_path / "chart.txt"
    path.write_text(chart.text, encoding="utf-8")
    outputs = []
    rec = tracing.Recorder()
    originals = {attr: getattr(owner, attr) for owner, attr, _, _ in tracing.TARGETS}
    for traced in (False, True):
        out = tmp_path / f"report-{traced}.json"
        if traced:
            with tracing.instrument(rec):
                assert cli.main(["analyze", str(path), "--out", str(out)]) == 0
        else:
            assert cli.main(["analyze", str(path), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    names = {span[0] for span in rec.spans}
    assert {"cli.args", "cli.read", "chart.parse", "cli.report", "transforms.annotate",
            "rhythm.detect", "cli.json", "cli.write"} <= names
    assert rec.counts["chart.chords"] > 0
    for owner, attr, _, _ in tracing.TARGETS:
        assert getattr(owner, attr) is originals[attr]
    assert cli.json.dumps is __import__("json").dumps
