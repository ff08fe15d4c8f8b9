from __future__ import annotations

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from tonnetzlab.chroma import synth, write_wav
from tonnetzlab.cli import main
from tonnetzlab.harmony import parse_chord_symbol


def _run(*argv):
    return main([str(a) for a in argv])


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
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("tonnetzlab: error: ")
    assert captured.err.count("\n") == 1


def test_render_outputs_byte_identical_across_runs(lead_chart_path, tmp_path):
    first, second = tmp_path / "a.svg", tmp_path / "b.svg"
    _run("render-tonnetz", lead_chart_path, "--section", "Bridge", "--out", first)
    _run("render-tonnetz", lead_chart_path, "--section", "Bridge", "--out", second)
    assert first.read_bytes() == second.read_bytes()
