from __future__ import annotations

import contextlib
import io
import json
import os
import pkgutil
import random
import re
import subprocess
import sys
import tempfile
import wave
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
import synth
from hypothesis import example, given, settings
from hypothesis import strategies as st
from synth import write_wav

import tonnetzlab
from tonnetzlab import cli
from tonnetzlab.cli import main
from tonnetzlab.harmony import parse_chord_symbol


def _run(*argv):
    return main([str(a) for a in argv])


def _exit_code(*argv) -> int:
    """``main``'s exit code, a usage error's ``SystemExit`` included."""
    try:
        return _run(*argv)
    except SystemExit as exc:
        return exc.code


# the prefix, then no C0 or C1 control character and no DEL up to the one
# trailing line break
_ONE_ERROR_LINE = re.compile(r"tonnetzlab: error: [^\x00-\x1f\x7f-\x9f]*\n")


def _is_one_error_line(err: str) -> bool:
    return _ONE_ERROR_LINE.fullmatch(err) is not None


def _assert_one_line_error(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _is_one_error_line(captured.err), captured.err
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
    # A is the dominant of D; C is pitch class 0, which must still override A
    for key, first in (("D", "V"), ("C", "VI")):
        assert _run("analyze", lead_chart_path, "--key", key, "--out", out) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["key"] == key
        assert report["sections"][0]["roman"][0] == first


def test_analyze_an_empty_key_is_an_error(lead_chart_path, capsys):
    assert _run("analyze", lead_chart_path, "--key=") == 2
    assert _assert_one_line_error(capsys) == "tonnetzlab: error: unknown note letter in ''\n"


def test_analyze_missing_file(tmp_path, capsys):
    assert _run("analyze", tmp_path / "nope.chart") == 2
    assert "error" in capsys.readouterr().err


def test_analyze_stdout_deterministic(lead_chart_path, capsys):
    assert _run("analyze", lead_chart_path) == 0
    first = capsys.readouterr().out
    assert _run("analyze", lead_chart_path) == 0
    assert capsys.readouterr().out == first


# text json escapes in each of its ways: quotes, backslashes, control, non-ASCII
# and astral characters, and any other character
_REPORT_TEXT = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\x85\u2028é♭\U0001d11e') | st.characters(),
    max_size=6,
)
_REPORT_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([-(2**70), -1, 0, 2**70, 10**400])
    | _REPORT_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_REPORT_TEXT, inner, max_size=4),
    max_leaves=30,
)


@given(_REPORT_VALUES)
@example([])
@example({})
@example({"": [[], {}]})
def test_report_writer_matches_json_dumps_with_indent(value):
    expected = json.dumps(value, indent=2, ensure_ascii=False)
    assert json.dumps(value, cls=cli._ReportEncoder) == expected


@pytest.mark.parametrize(
    "value",
    [0.5, (1, 2), {1: "a"}, [{"a": [1.0]}]],
    ids=["float", "tuple", "int-key", "nested-float"],
)
def test_report_writer_refuses_a_type_a_report_does_not_hold(value):
    with pytest.raises(TypeError):
        json.dumps(value, cls=cli._ReportEncoder)


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
    for name in ("Nope", "N" * 40):  # up to 40 characters, a name is repeated whole
        assert _run("render-tonnetz", lead_chart_path, "--section", name) == 2
        assert capsys.readouterr().err == (
            f"tonnetzlab: error: no section [{name}]; "
            "chart defines: Verse, Verse2, Bridge, Interlude, Coda\n"
        )


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


@pytest.mark.parametrize("data", [b"", b"RIF", b"RIFF\x00\x00"], ids=["empty", "3", "6"])
def test_chord_id_file_ending_in_a_header_names_the_cause(tmp_path, capsys, data):
    wav = tmp_path / "short.wav"
    wav.write_bytes(data)
    assert _run("chord-id", wav) == 2
    assert _assert_one_line_error(capsys).endswith(": the file ends inside a header\n")


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


_LONG_NAME = "S" * 5000  # a section name far past the 40 characters an error repeats


def _chart_flags(command: str, tmp_path: Path, section: str = "Verse") -> list:
    return {
        "analyze": [],
        "render-tonnetz": ["--section", section],
        "render-clocks": ["--section", section, "--out-dir", tmp_path / "clocks"],
    }[command]


@pytest.mark.parametrize(
    "meter_text, command",
    [("3/4", "analyze"), ("3/4", "render-clocks"),
     ("6/8", "analyze"), ("6/8", "render-clocks")],
    ids=["3-4-analyze", "3-4-render-clocks", "6-8-analyze", "6-8-render-clocks"],
)
def test_odd_meter_charts_get_two_measure_clocks(tmp_path, meter_text, command):
    meter = int(meter_text.split("/")[0])
    # hours {0, meter - 1, meter} and {0, meter, meter + 1} mirror through hour 0
    body = f"A:{meter - 1} E:1 | D | A | D:1 E:{meter - 1}"
    path = tmp_path / "input.chart"
    path.write_text(
        f"key: A\nmeter: {meter_text}\nform: Verse\n[Verse]\n{body}\n", encoding="utf-8"
    )
    if command == "analyze":
        report = tmp_path / "report.json"
        assert _run("analyze", path, "--out", report) == 0
        (verse,) = json.loads(report.read_text(encoding="utf-8"))["sections"]
        reflections = verse["rhythm"]["reflections"]
        assert reflections == [{"clocks": [0, 1], "axis_hours": [0, meter]}]
        return
    assert _run("render-clocks", path, *_chart_flags("render-clocks", tmp_path)) == 0
    svgs = sorted((tmp_path / "clocks").iterdir())
    assert len(svgs) == 2
    for svg in svgs:
        ticks = [el for el in ET.parse(svg).iter() if el.get("class") == "clock-tick"]
        assert len(ticks) == 2 * meter


def test_one_chord_section_is_one_circle_and_no_arrow(tmp_path):
    path = tmp_path / "input.chart"
    path.write_bytes(b"key: A\nmeter: 4/4\nform: Verse\n[Verse]\nA\n")
    out = tmp_path / "verse.svg"
    assert _run("render-tonnetz", path, "--section", "Verse", "--out", out) == 0
    classes = [el.get("class") or "" for el in ET.parse(out).iter()]
    assert classes.count("chord-circle") == 1
    assert not [c for c in classes if "move-arrow" in c]


@pytest.mark.parametrize(
    "chart, command, section",
    [
        (b"key: A\nmeter: 4/4\nform: Verse\n[Verse]\nA | E7 \xff\n", "analyze", "Verse"),
        (b"key: A\nmeter: 4/4\nform: Verse\n[Verse]\n", "render-tonnetz", "Verse"),
        (b"key: A\nmeter: 13/4\nform: Verse\n[Verse]\nA\n", "analyze", "Verse"),
        (f"key: A\nmeter: {'4' * 5000}/4\nform: Verse\n".encode(), "analyze", "Verse"),
        (f"key: A\nmeter: 4/4\nform: Verse\n[Verse]\nA:{'4' * 5000}\n".encode(),
         "render-clocks", "Verse"),
        (f"key: A\nmeter: 4/4\nform: Verse\n[Verse]\nA{'7' * 5000}\n".encode(),
         "render-tonnetz", "Verse"),
        (f"key: {'A' * 5000}\nmeter: 4/4\nform: Verse\n[Verse]\nA\n".encode(),
         "analyze", "Verse"),
        (b"key: A\nmeter: 4/4\nform: Verse\n[Verse]\nA\n", "render-tonnetz", _LONG_NAME),
        (f"key: A\nmeter: 4/4\nform: Verse\n[{_LONG_NAME}]\nA\n[{_LONG_NAME}]\nD\n"
         .encode(), "analyze", "Verse"),
        (f"key: A\nmeter: 4/4\nform: Verse\n[{_LONG_NAME}]\nA:2\n".encode(),
         "analyze", "Verse"),
        (b"key: H\nmeter: 4/4\nform: Verse\n[Verse]\nA\n", "analyze", "Verse"),
        (b"key: A\nmeter: 4/4\nform: Verse\nkey: Bb\n[Verse]\nA\n", "analyze", "Verse"),
        (b"key: A\nmeter: 4/4\nform: Verse\n[  ]\nA\n", "analyze", "Verse"),
        (b"key: A\nmeter: 4/4\ntempo: 120\nform: Verse\n[Verse]\nA\n", "analyze", "Verse"),
        (b"key A\nmeter: 4/4\nform: Verse\n[Verse]\nA\n", "analyze", "Verse"),
        (b"key: A\nmeter: 4/4\n[Verse]\nA\nform: Verse\n", "analyze", "Verse"),
    ],
    ids=["not-utf-8", "empty-section", "meter-13", "meter-over-4300-digits",
         "duration-over-4300-digits", "chord-of-5001-characters",
         "key-of-5000-characters", "section-flag-of-5000-characters",
         "section-of-5000-characters-redefined",
         "section-of-5000-characters-short-measure", "key-H", "key-repeated",
         "empty-section-name", "unknown-header", "header-without-colon",
         "header-after-section"],
)
def test_unanalysable_chart_is_a_one_line_error(
    tmp_path, capsys, chart, command, section
):
    path = tmp_path / "input.chart"
    path.write_bytes(chart)
    assert _run(command, path, *_chart_flags(command, tmp_path, section)) == 2
    err = _assert_one_line_error(capsys)
    assert len(err.encode()) < 200  # a long token is cut to a prefix and its length
    if b"\xff" in chart:  # the line names the file and the offset of the bad byte
        assert f"{path}: byte 45 is not UTF-8" in err
    if chart.startswith(b"key: H"):  # a header error names its line
        assert err == "tonnetzlab: error: line 1: unknown note letter in 'H'\n"
    if b"key: Bb" in chart:
        assert err == "tonnetzlab: error: line 4: key repeated from line 1\n"
    if b"[  ]" in chart:
        assert err == "tonnetzlab: error: line 4: empty section name\n"
    if b"tempo" in chart:
        assert err == "tonnetzlab: error: line 3: unknown header 'tempo'\n"
    if chart.startswith(b"key A"):
        assert err == "tonnetzlab: error: line 1: expected 'header: value'\n"
    if b"[Verse]\nA\nform:" in chart:
        assert err == (
            "tonnetzlab: error: line 5: form header after a section; headers come first\n"
        )


@pytest.mark.parametrize(
    "flags",
    [["render-tonnetz", "--section", "-:"], ["chord-id", "--pre-emphasis", "-inf"]],
    ids=["section", "pre-emphasis"],
)
def test_a_flag_value_read_as_a_flag_is_a_one_line_usage_error(
    tmp_path, capsys, flags
):
    command, *rest = flags
    with pytest.raises(SystemExit) as exit_info:
        main([command, str(tmp_path / "input"), *rest])
    assert exit_info.value.code == 2
    err = _assert_one_line_error(capsys)
    assert rest[0] in err


@pytest.mark.parametrize("command", ["render-tonnetz", "render-clocks"])
@pytest.mark.parametrize(
    "section, shown",
    [("Ver\nse", "Ver\\nse"), ("A\rB", "A\\rB"), ("\x1b[31mVerse", "\\x1b[31mVerse")],
    ids=["newline", "return", "escape"],
)
def test_a_section_flag_with_a_control_character_is_one_escaped_line(
    lead_chart_path, tmp_path, capsys, command, section, shown
):
    assert _run(command, lead_chart_path, *_chart_flags(command, tmp_path, section)) == 2
    assert _assert_one_line_error(capsys) == (
        f"tonnetzlab: error: no section [{shown}]; "
        "chart defines: Verse, Verse2, Bridge, Interlude, Coda\n"
    )


_TRUNCATED_WAV = b"RIFF\x24\x00\x00\x00WAVEfmt "
_NOT_UTF8_CHART = b"\xff\xfekey: A\n"


@pytest.mark.parametrize(
    "argv, shown",
    [
        (["chord-id", "x\ny.wav"], "x\\ny.wav: fmt chunk and/or data chunk missing"),
        (["analyze", "n\nu.chart"], "n\\nu.chart: byte 0 is not UTF-8 (invalid start byte)"),
        (["analyze", "CHART", "extra\x1b[31m"], "unrecognized arguments: extra\\x1b[31m"),
        (["render-tonnetz", "CHART", "--section", "\u202eabc"],
         "no section [\\u202eabc]; chart defines: Verse, Verse2, Bridge, Interlude, Coda"),
    ],
    ids=["wav-name", "chart-name", "usage-error", "section-flag"],
)
def test_unprintable_input_is_escaped_in_the_one_error_line(
    lead_chart_path, tmp_path, monkeypatch, capsys, argv, shown
):
    monkeypatch.chdir(tmp_path)
    Path("x\ny.wav").write_bytes(_TRUNCATED_WAV)
    Path("n\nu.chart").write_bytes(_NOT_UTF8_CHART)
    assert _exit_code(*(lead_chart_path if arg == "CHART" else arg for arg in argv)) == 2
    assert _assert_one_line_error(capsys) == f"tonnetzlab: error: {shown}\n"


def test_usage_error_with_a_line_break_stays_one_line(lead_chart_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["analyze", str(lead_chart_path), "extra\nargument"])
    assert exit_info.value.code == 2
    _assert_one_line_error(capsys)


@pytest.mark.parametrize(
    "argv, dest, code",
    [
        (["analyze", "CHART", "--key=--"], "key", 2),
        (["analyze", "CHART", "--out=--"], "out", 0),
        (["render-tonnetz", "CHART", "--section=--"], "section", 2),
        (["render-tonnetz", "CHART", "--section=Verse", "--out=--"], "out", 0),
        (["render-clocks", "CHART", "--section=--", "--out-dir=clocks"], "section", 2),
        (["render-clocks", "CHART", "--section=Verse", "--out-dir=--"], "out_dir", 0),
        (["chord-id", "a.wav", "--out=--"], "out", 0),
        (["chord-id", "a.wav", "--spectrogram=--"], "spectrogram", 0),
    ],
)
def test_a_lone_dash_dash_after_equals_is_the_options_value(
    lead_chart_path, tmp_path, monkeypatch, capsys, argv, dest, code
):
    # argparse alone turns --opt=-- into an empty list, as if "--" ended the options
    monkeypatch.chdir(tmp_path)
    buf = synth.chord_sequence([parse_chord_symbol("A")], 1.0)
    write_wav("a.wav", buf.samples, buf.sample_rate)
    argv = [str(lead_chart_path) if arg == "CHART" else arg for arg in argv]
    assert getattr(cli._build_parser().parse_args(argv), dest) == "--"
    assert _exit_code(*argv) == code
    if code:
        _assert_one_line_error(capsys)
    else:
        assert Path("--").exists()


def test_a_chart_with_a_byte_order_mark_reads_as_without(lead_chart_path, tmp_path):
    bom = tmp_path / "bom.chart"
    bom.write_bytes(b"\xef\xbb\xbf" + lead_chart_path.read_bytes())
    assert _run("analyze", bom, "--out", tmp_path / "bom.json") == 0
    assert _run("analyze", lead_chart_path, "--out", tmp_path / "plain.json") == 0
    assert (tmp_path / "bom.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_a_bad_byte_after_a_byte_order_mark_is_named_at_its_offset(tmp_path, capsys):
    chart = tmp_path / "bom.chart"
    chart.write_bytes(b"\xef\xbb\xbfab\xff")
    assert _run("analyze", chart) == 2
    assert _assert_one_line_error(capsys) == (
        f"tonnetzlab: error: {chart}: byte 5 is not UTF-8 (invalid start byte)\n"
    )


def test_help_keeps_argparse_output(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["render-tonnetz", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tonnetzlab render-tonnetz")


def test_a_section_name_starting_with_a_dash_renders_with_the_equals_form(tmp_path):
    path = tmp_path / "input.chart"
    path.write_text("key: A\nmeter: 4/4\nform: -:\n[-:]\nA | E7 | A\n", encoding="utf-8")
    out = tmp_path / "dash.svg"
    assert _run("render-tonnetz", path, "--section=-:", "--out", out) == 0
    ET.parse(out)


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


def test_chord_id_rate_with_no_bin_in_the_note_range_is_a_one_line_error(tmp_path, capsys):
    data = bytearray(_wav_bytes())
    data[24:28] = (2**32 - 1).to_bytes(4, "little")  # the fmt chunk's sample rate
    wav = tmp_path / "fast.wav"
    wav.write_bytes(bytes(data))
    assert _run("chord-id", wav) == 2
    assert _assert_one_line_error(capsys) == (
        "tonnetzlab: error: sample rate 4294967295 Hz puts no FFT bin in the note range\n"
    )


@pytest.mark.parametrize("channels, cut", [(1, 1), (2, 2), (2, 3)])
def test_chord_id_analyses_a_data_chunk_cut_mid_frame(tmp_path, capsys, channels, cut):
    wav = tmp_path / "cut.wav"
    wav.write_bytes(_wav_bytes(channels)[:-cut])
    assert _run("chord-id", wav) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize(
    "error, line",
    [
        (MemoryError(), "out of memory"),
        (MemoryError("Unable to allocate 8.00 GiB"), "out of memory: Unable to allocate 8.00 GiB"),
    ],
    ids=["bare", "with-message"],
)
def test_chord_id_out_of_memory_is_a_one_line_error(tmp_path, capsys, monkeypatch, error, line):
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "identify", exhausted)
    wav = tmp_path / "a.wav"
    wav.write_bytes(_wav_bytes())
    assert _run("chord-id", wav) == 2
    assert _assert_one_line_error(capsys) == f"tonnetzlab: error: {line}\n"


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
print("dataclasses" in sys.modules, "inspect" in sys.modules)
assert main(["chord-id", sys.argv[3], "--out", out + "/segments.jsonl"]) == 0
print("numpy" in sys.modules)
print("dataclasses" in sys.modules)
print(*sorted(m for m in sys.modules if m.partition(".")[0] == "tonnetzlab"))
"""


def _child_env(**extra: str) -> dict:
    """The environment of a child interpreter that imports this package."""
    src = str(Path(tonnetzlab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    # dev mode and warnings as errors: pyproject's filterwarnings acts only in-process
    return dict(
        os.environ,
        PYTHONPATH=path,
        PYTHONDEVMODE="1",
        PYTHONWARNINGS="error",
        PYTHONWARNDEFAULTENCODING="1",
        **extra,
    )


def test_only_chord_id_imports_numpy(lead_chart_path, tmp_path):
    # a fresh interpreter: this one shares sys.modules with every other test
    wav = tmp_path / "a.wav"
    buf = synth.chord_sequence([parse_chord_symbol("A")], 1.0)
    write_wav(wav, buf.samples, buf.sample_rate)
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(lead_chart_path), str(tmp_path), str(wav)],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    numpy_before, slow_before, numpy_after, slow_after, loaded = done.stdout.splitlines()
    assert [numpy_before, numpy_after] == ["False", "True"]
    # dataclasses, and inspect with it, would add ~20 ms to every cold command
    assert [slow_before, slow_after] == ["False False", "False"]
    # the four commands between them load every module the package ships
    shipped = {"tonnetzlab"} | {
        m.name for m in pkgutil.walk_packages(tonnetzlab.__path__, "tonnetzlab.")
    }
    assert set(loaded.split()) == shipped - {"tonnetzlab.__main__"}


_PACKAGE_PROBE = """
import sys
import tonnetzlab
print(*sorted(m for m in sys.modules if m.startswith("tonnetzlab.")))
import tonnetzlab.chroma
print(*sorted(m for m in sys.modules if m.startswith("tonnetzlab.")))
"""


def test_packages_load_no_module_they_do_not_need():
    done = subprocess.run(
        [sys.executable, "-c", _PACKAGE_PROBE],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    package, chroma = done.stdout.split("\n")[:2]
    assert package == ""
    chart_side = {"chart", "lattice", "rhythm", "transforms", "cli"}
    assert not {f"tonnetzlab.{name}" for name in chart_side} & set(chroma.split())
    assert "tonnetzlab.chroma.dictionary" in chroma.split()


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
@pytest.mark.parametrize(
    "command, flags",
    [("analyze", []), ("render-tonnetz", ["--section", "Bridge"])],
    ids=["analyze", "render-tonnetz"],
)
def test_stdout_is_utf8_whatever_the_locale(lead_chart_path, tmp_path, encoding, command, flags):
    # the lead sheet's report holds "♭VII", which neither encoding can write
    out = tmp_path / "out"
    runs = [
        subprocess.run(
            [sys.executable, "-m", "tonnetzlab", command, str(lead_chart_path), *flags, *to],
            env=_child_env(PYTHONIOENCODING=encoding), capture_output=True, timeout=120,
        )
        for to in (["--out", str(out)], [])
    ]
    assert [(run.returncode, run.stderr) for run in runs] == [(0, b"")] * 2
    assert runs[1].stdout == out.read_bytes()


@pytest.mark.parametrize("module", ["dataclasses", "enum"])
def test_no_module_imports(module):
    # a source grep: re imports enum, so sys.modules cannot show what the package imports
    package = Path(tonnetzlab.__file__).resolve().parent
    name = re.escape(module)
    imports = re.compile(rf"^\s*(from\s+{name}\b|import\s.*\b{name}\b)", re.M)
    found = [
        path.name
        for path in sorted(package.rglob("*.py"))
        if imports.search(path.read_text(encoding="utf-8"))
    ]
    assert found == []


# lines valid in every meter, in 4/4, in 3/4 or in 6/8 only, or never valid
_CHART_LINES = [
    "A | E7",
    "f#:2 A7:2 | D:2 d:2",
    "D",
    "D:2 ~D:2",
    "E:3 ~E:1",
    "A:3",
    "A:3 E:3",
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
                "key: A\nmeter: 6/8\nform: Verse\n[Verse]\n",
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


# random bytes alone, after a RIFF id, after a RIFF/WAVE header, and after a
# whole 44-byte header, where a body of 8 KB or more is long enough to analyse
_RANDOM_WAV_BYTES = st.one_of(
    st.binary(max_size=400),
    st.binary(max_size=2000).map(lambda body: b"RIFF" + body),
    st.binary(max_size=2000).map(lambda body: _VALID_WAV[:12] + body),
    st.builds(
        lambda seed, size: _VALID_WAV[:44] + random.Random(seed).randbytes(size),
        st.integers(0, 2**32), st.one_of(st.integers(0, 400), st.integers(8192, 20000)),
    ),
)


@settings(max_examples=150, deadline=None)
@given(_RANDOM_WAV_BYTES)
def test_chord_id_exits_0_or_2_with_one_line_on_random_bytes(data):
    with tempfile.TemporaryDirectory() as tmp:
        wav = Path(tmp) / "fuzz.wav"
        wav.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):  # a traceback would escape main
            code = _run("chord-id", wav, "--out", Path(tmp) / "segments.jsonl")
    assert code in (0, 2)
    if code == 2:
        assert _is_one_error_line(err.getvalue())
    else:
        assert err.getvalue() == ""


# what a command line can carry: any character but NUL, and lone surrogates only
# in U+DC80-U+DCFF, as os.fsdecode gives them for bytes that are not UTF-8; the
# unprintable characters an error line must escape are drawn more often
_ARG_CHARS = st.one_of(
    st.characters(exclude_characters="\x00", exclude_categories=("Cs",)),
    st.characters(min_codepoint=0xDC80, max_codepoint=0xDCFF),
    st.sampled_from("\n\r\t\x1b\x7f\x85\u2028\u202e"),
)
# a file name also holds no "/", is not "." or "..", and fits in 255 bytes
_FILE_NAMES = st.text(_ARG_CHARS.filter(lambda c: c != "/"), min_size=1, max_size=80).filter(
    lambda name: name not in (".", "..") and len(os.fsencode(name)) <= 255
)


def _exit_code_and_stderr(*argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = _exit_code(*argv)
    return code, err.getvalue()


@pytest.mark.parametrize(
    "command, data",
    [("analyze", _NOT_UTF8_CHART), ("chord-id", _TRUNCATED_WAV)],
    ids=["analyze", "chord-id"],
)
@settings(max_examples=100, deadline=None)
@given(name=_FILE_NAMES)
def test_a_bad_file_of_any_name_is_one_error_line(command, data, name):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data)
        code, err = _exit_code_and_stderr(command, path)
    assert code == 2
    assert _is_one_error_line(err), err


@settings(max_examples=150, deadline=None)
@given(text=st.text(_ARG_CHARS, max_size=40))
def test_any_section_flag_or_extra_argument_gives_exit_0_or_one_error_line(
    lead_chart_path, text
):
    # a text read as an option cannot write outside the directory: the later
    # --out overrides an --out=... it holds
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for argv in (
            ["render-tonnetz", lead_chart_path, "--section", text, "--out", "t.svg"],
            ["analyze", lead_chart_path, text, "--out", "report.json"],
        ):
            code, err = _exit_code_and_stderr(*argv)
            assert code in (0, 2)
            assert _is_one_error_line(err) if code == 2 else err == "", err
