from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tempfile
import wave
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tonnetzlab
from tonnetzlab import cli
from tonnetzlab.chroma import synth, write_wav
from tonnetzlab.cli import main
from tonnetzlab.harmony import parse_chord_symbol


def _run(*argv):
    return main([str(a) for a in argv])


def _assert_one_line_error(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("tonnetzlab: error: ")
    assert captured.err.count("\n") == 1
    return captured.err


def test_analyze_report_shape(lead_chart_path, tmp_path):
    out = tmp_path / "report.json"
    assert _run("analyze", lead_chart_path, "--out", out) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["version"] == 1
    assert len(report["form"]) == 7
    assert [s["name"] for s in report["sections"]] == [
        "Verse",
        "Bridge",
        "Interlude",
        "Coda",
    ]
    verse = report["sections"][0]
    assert verse["roman"][:7] == ["I", "V7", "I", "V7", "I", "vi", "V7/IV"]
    assert {c["kind"] for c in verse["cadences"]} == {"plagal_mixture"}
    assert [c["class"] for c in verse["rhythm"]["distinct_clocks"]] == [
        "whole_note",
        "mixed",
        "mixed",
    ]
    bridge = report["sections"][1]
    assert "♭VII" in bridge["roman"]
    assert bridge["notes"]


def test_analyze_recorded_verse_double_moves(recorded_chart_path, tmp_path):
    out = tmp_path / "report.json"
    assert _run("analyze", recorded_chart_path, "--out", out) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    verse = report["sections"][0]
    doubles = [m for m in verse["moves"] if m["kind"] == "double"]
    assert len(doubles) == 2
    assert all((m["from"], m["to"]) == ("E", "f#") for m in doubles)
    deceptive = [c for c in verse["cadences"] if c["kind"] == "deceptive"]
    assert deceptive


def test_analyze_key_override(lead_chart_path, tmp_path):
    out = tmp_path / "report.json"
    assert _run("analyze", lead_chart_path, "--key", "D", "--out", out) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["key"] == "D"
    # A is now the dominant, not the tonic
    assert report["sections"][0]["roman"][0] == "V"


def test_analyze_missing_file(tmp_path, capsys):
    assert _run("analyze", tmp_path / "nope.chart") == 2
    assert "error" in capsys.readouterr().err


def test_analyze_stdout_deterministic(lead_chart_path, capsys):
    assert _run("analyze", lead_chart_path) == 0
    first = capsys.readouterr().out
    assert _run("analyze", lead_chart_path) == 0
    assert capsys.readouterr().out == first


def test_render_tonnetz_verse(lead_chart_path, tmp_path):
    out = tmp_path / "verse.svg"
    assert _run("render-tonnetz", lead_chart_path, "--section", "Verse", "--out", out) == 0
    root = ET.parse(out).getroot()
    arrows = [
        el
        for el in root.iter()
        if el.tag.endswith("g") and "move-arrow" in (el.get("class") or "")
    ]
    assert len(arrows) == 14


def test_render_tonnetz_coda_has_one_shared_circle(lead_chart_path, tmp_path):
    out = tmp_path / "coda.svg"
    assert _run("render-tonnetz", lead_chart_path, "--section", "Coda", "--out", out) == 0
    root = ET.parse(out).getroot()
    circles = [el for el in root.iter() if el.get("class") == "chord-circle"]
    assert len(circles) == 1  # the path starts and ends on the same chord


def test_render_tonnetz_unknown_section(lead_chart_path, capsys):
    assert _run("render-tonnetz", lead_chart_path, "--section", "Nope") == 2
    assert "Nope" in capsys.readouterr().err


def test_render_clocks_counts(lead_chart_path, recorded_chart_path, tmp_path):
    lead_dir = tmp_path / "lead" / "deep"
    assert _run("render-clocks", lead_chart_path, "--section", "Verse", "--out-dir", lead_dir) == 0
    assert sorted(p.name for p in lead_dir.iterdir()) == [
        "clock-1.svg",
        "clock-2.svg",
        "clock-3.svg",
    ]
    rec_dir = tmp_path / "rec"
    assert _run("render-clocks", recorded_chart_path, "--section", "Verse", "--out-dir", rec_dir) == 0
    assert len(list(rec_dir.iterdir())) == 4
    for path in rec_dir.iterdir():
        ET.parse(path)


def test_chord_id_single_chord(tmp_path):
    buf = synth.chord_sequence([parse_chord_symbol("A")], 2.0)
    wav = tmp_path / "a.wav"
    write_wav(wav, buf.samples, buf.sample_rate)
    out = tmp_path / "segments.jsonl"
    ppm = tmp_path / "spec.ppm"
    assert _run("chord-id", wav, "--out", out, "--spectrogram", ppm) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert [l["label"] for l in lines] == ["A"]
    assert set(lines[0]) == {"label", "start_s", "end_s"}
    assert ppm.read_bytes().startswith(b"P6\n")


def test_chord_id_pre_emphasis_flag(tmp_path):
    buf = synth.chord_sequence([parse_chord_symbol("d")], 2.0)
    wav = tmp_path / "d.wav"
    write_wav(wav, buf.samples, buf.sample_rate)
    out = tmp_path / "segments.jsonl"
    assert _run("chord-id", wav, "--pre-emphasis", "0.5", "--out", out) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert [l["label"] for l in lines] == ["d"]


@pytest.mark.parametrize("coefficient", ["nan", "inf", "-inf", "1e308", "1.5", "-1.01"])
def test_chord_id_rejects_a_pre_emphasis_outside_unit_range(
    tmp_path, capsys, coefficient
):
    buf = synth.chord_sequence([parse_chord_symbol("d")], 2.0)
    wav = tmp_path / "d.wav"
    write_wav(wav, buf.samples, buf.sample_rate)
    # the = form, as argparse would read a bare "-inf" as an option
    assert _run("chord-id", wav, f"--pre-emphasis={coefficient}") == 2
    assert "pre-emphasis" in _assert_one_line_error(capsys)


def test_chord_id_silence(tmp_path):
    wav = tmp_path / "silence.wav"
    write_wav(wav, np.zeros(22050), 22050)
    out = tmp_path / "segments.jsonl"
    assert _run("chord-id", wav, "--out", out) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert [l["label"] for l in lines] == ["N"]


def test_chord_id_truncated_wav(tmp_path, capsys):
    wav = tmp_path / "broken.wav"
    wav.write_bytes(b"RIFF\x00\x00\x00\x00WAVEfmt ")
    assert _run("chord-id", wav) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "samples, sample_rate, flags",
    [
        (np.zeros(0), 22050, []),  # empty
        (np.zeros(4095), 22050, []),  # one sample short of a window
        (np.zeros(0), 22050, ["--pre-emphasis", "0.9"]),
        (np.zeros(8192), 4000, []),  # below 8 kHz
    ],
    ids=["empty", "shorter-than-window", "empty-pre-emphasis", "low-sample-rate"],
)
def test_chord_id_unanalysable_wav_is_a_one_line_error(
    tmp_path, capsys, samples, sample_rate, flags
):
    wav = tmp_path / "unanalysable.wav"
    write_wav(wav, samples, sample_rate)
    assert _run("chord-id", wav, *flags) == 2
    _assert_one_line_error(capsys)


def test_render_outputs_byte_identical_across_runs(lead_chart_path, tmp_path):
    first, second = tmp_path / "a.svg", tmp_path / "b.svg"
    _run("render-tonnetz", lead_chart_path, "--section", "Bridge", "--out", first)
    _run("render-tonnetz", lead_chart_path, "--section", "Bridge", "--out", second)
    assert first.read_bytes() == second.read_bytes()


WALTZ_CHART = b"key: A\nmeter: 3/4\nform: Verse\n[Verse]\nA | E7\n"


@pytest.mark.parametrize(
    "chart, command",
    [
        (WALTZ_CHART, "analyze"),
        (WALTZ_CHART, "render-clocks"),
        (b"key: A\nmeter: 4/4\nform: Verse\n[Verse]\nA\n", "render-tonnetz"),
        (b"key: A\nmeter: 4/4\nform: Verse\n[Verse]\nA | E7 \xff\n", "analyze"),
    ],
    ids=["meter-3-analyze", "meter-3-render-clocks", "one-chord-section", "not-utf-8"],
)
def test_unanalysable_chart_is_a_one_line_error(tmp_path, capsys, chart, command):
    path = tmp_path / "input.chart"
    path.write_bytes(chart)
    flags = {
        "analyze": [],
        "render-tonnetz": ["--section", "Verse"],
        "render-clocks": ["--section", "Verse", "--out-dir", tmp_path / "clocks"],
    }[command]
    assert _run(command, path, *flags) == 2
    err = _assert_one_line_error(capsys)
    if b"\xff" in chart:  # the line names the file and the offset of the bad byte
        assert f"{path}: byte 45 is not UTF-8" in err


def _wav_bytes(channels: int = 1) -> bytes:
    """A 16-bit WAV of 8192 frames, 44-byte header, each channel the same sine."""
    pcm = (np.sin(np.arange(8192) * 0.07) * 16000).astype("<i2")
    out = io.BytesIO()
    with wave.open(out, "wb") as handle:
        handle.setnchannels(channels)
        handle.setsampwidth(2)
        handle.setframerate(22050)
        handle.writeframes(np.repeat(pcm, channels).tobytes())
    return out.getvalue()


def test_chord_id_chunk_past_end_of_file_is_a_one_line_error(tmp_path, capsys):
    data = bytearray(_wav_bytes())
    data[16:20] = (10**6).to_bytes(4, "little")  # the fmt chunk's declared size
    wav = tmp_path / "fmt-too-long.wav"
    wav.write_bytes(bytes(data))
    assert _run("chord-id", wav) == 2
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("channels, cut", [(1, 1), (2, 2), (2, 3)])
def test_chord_id_analyses_a_data_chunk_cut_mid_frame(tmp_path, capsys, channels, cut):
    wav = tmp_path / "cut.wav"
    wav.write_bytes(_wav_bytes(channels)[:-cut])
    assert _run("chord-id", wav) == 0
    assert capsys.readouterr().out


def test_cli_calls_the_audio_stages_by_their_module_names(tmp_path, monkeypatch):
    # the benchmark's tracing swaps spans into exactly these two names
    calls = []
    for name in ("load_wav", "identify"):
        original = getattr(cli, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
    wav = tmp_path / "a.wav"
    buf = synth.chord_sequence([parse_chord_symbol("A")], 1.0)
    write_wav(wav, buf.samples, buf.sample_rate)
    assert _run("chord-id", wav, "--out", tmp_path / "a.jsonl") == 0
    assert calls == ["load_wav", "identify"]


_IMPORT_PROBE = """
import sys
from tonnetzlab.cli import main

chart, out = sys.argv[1], sys.argv[2]
for argv in (
    ["analyze", chart, "--out", out + "/report.json"],
    ["render-tonnetz", chart, "--section", "Verse", "--out", out + "/verse.svg"],
    ["render-clocks", chart, "--section", "Verse", "--out-dir", out + "/clocks"],
):
    assert main(argv) == 0, argv
print("numpy" in sys.modules)
assert main(["chord-id", sys.argv[3], "--out", out + "/segments.jsonl"]) == 0
print("numpy" in sys.modules)
"""


def test_only_chord_id_imports_numpy(lead_chart_path, tmp_path):
    # a fresh interpreter: this one shares sys.modules with every other test
    wav = tmp_path / "a.wav"
    buf = synth.chord_sequence([parse_chord_symbol("A")], 1.0)
    write_wav(wav, buf.samples, buf.sample_rate)
    src = str(Path(tonnetzlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(lead_chart_path), str(tmp_path), str(wav)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]


# lines valid in 4/4, valid only in 3/4 (which cannot tile the clocks), or never valid
_CHART_LINES = [
    "A | E7",
    "f#:2 A7:2 | D:2 d:2",
    "D",
    "D:2 ~D:2",
    "E:3 ~E:1",
    "A:3",
    "A7:2 7:2",
    "A:\u00b2 E:2",
    "[Verse]",
]
_CHART_BYTES = st.one_of(
    st.binary(max_size=80),
    st.builds(
        lambda head, lines: (head + "\n".join(lines) + "\n").encode("utf-8"),
        st.sampled_from(
            [
                "key: A\nmeter: 4/4\nform: Verse\n[Verse]\n",
                "key: A\nmeter: 3/4\nform: Verse\n[Verse]\n",
            ]
        ),
        st.lists(st.sampled_from(_CHART_LINES), max_size=6),
    ),
)


@settings(max_examples=60, deadline=None)
@given(_CHART_BYTES)
def test_chart_commands_exit_0_or_2_on_any_bytes(data):
    with tempfile.TemporaryDirectory() as tmp:
        chart = Path(tmp) / "fuzz.chart"
        chart.write_bytes(data)
        for argv in (
            ["analyze", chart, "--out", Path(tmp) / "report.json"],
            ["render-tonnetz", chart, "--section", "Verse", "--out", Path(tmp) / "t.svg"],
            ["render-clocks", chart, "--section", "Verse", "--out-dir", Path(tmp) / "c"],
        ):
            assert _run(*argv) in (0, 2)


_VALID_WAV = _wav_bytes()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 43), st.integers(0, 255)), max_size=4),
    st.one_of(st.none(), st.integers(0, len(_VALID_WAV))),
)
def test_chord_id_exits_0_or_2_on_a_mangled_wav(header_edits, length):
    data = bytearray(_VALID_WAV)
    for offset, value in header_edits:
        data[offset] = value
    with tempfile.TemporaryDirectory() as tmp:
        wav = Path(tmp) / "fuzz.wav"
        wav.write_bytes(bytes(data[:length]))
        assert _run("chord-id", wav, "--out", Path(tmp) / "segments.jsonl") in (0, 2)
