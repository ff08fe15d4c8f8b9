"""Golden outputs: SHA-256 of every CLI output on the bundled inputs.

The hashes pin the bytes the command line writes, so a refactor that should
not change behaviour is checked against fixed values rather than against a
second run of the same tree. Inputs: ``analyze`` on both charts,
``render-tonnetz`` and every ``render-clocks`` file for every section of both
charts, the same on two small charts in 3/4 and 6/8 (the bundled charts are
both 4/4, so these pin the clock faces of 6 and 12 hours), and ``chord-id``
(JSONL, plus the PPM spectrogram and a pre-emphasised run) on the synthesized
8-chord acceptance sequence. The audio hashes rest on
the rounding of numpy's FFT and matrix products; they were recorded with numpy
2.4 on x86-64.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest
import synth
from synth import write_wav

from tonnetzlab.chart import parse_chart
from tonnetzlab.cli import main
from tonnetzlab.harmony import parse_chord_symbol

CHARTS = Path(__file__).resolve().parents[1] / "charts"
ACCEPTANCE_TOKENS = ["A", "E7", "A", "f#", "A7", "D", "d", "A"]

ODD_METER_CHARTS = {
    "waltz_3_4.chart": (
        "title: Waltz\nkey: D\nmeter: 3/4\nform: Verse Verse Turn\n"
        "[Verse]\nD | A7 | D:2 G:1 | A | b | G:1 A:2 | D | ~D\n"
        "[Turn]\nG | ~G:2 e:1 | D/F#:1 A:1 D:1 | A\n"
    ),
    "jig_6_8.chart": (
        "title: Jig\nkey: e\nmeter: 6/8\nform: Reel Reel Lift\n"
        "[Reel]\ne | D | e:3 C:3 | B7\ne:4 a:2 | G | C:3 B:3 | e\n"
        "[Lift]\nG:2 D:2 e:2 | ~e | C | B\n"
    ),
}

GOLDEN = {
    "in_my_life.chart": {
        "analyze":
            "14778a3d9fc662612877316eb81d97d589f64fab3376675b1e3c7ab0af4ca126",
        "tonnetz/Verse":
            "ac27308726c310c95d201d115a3fa0798d3cfcf8befc10e64cec782ec00599f1",
        "clocks/Verse/clock-1.svg":
            "0c9a2f63f6bdc629e9573ac26d92011660214448ced1c4a74c1786c953f48407",
        "clocks/Verse/clock-2.svg":
            "6f63947bc6ccd2183900dc6985d805b0868c68bdf333038b0de4e701797b4831",
        "clocks/Verse/clock-3.svg":
            "ea741b15666d641d825e9dbe33d6be6b2c36acbe99448d5f2ab82b2afa271b50",
        "tonnetz/Verse2":
            "7821784c9a7de4f66998903ca0ae77effeec317aa66eb76f5be6f6c1fe7f685d",
        "clocks/Verse2/clock-1.svg":
            "0c9a2f63f6bdc629e9573ac26d92011660214448ced1c4a74c1786c953f48407",
        "clocks/Verse2/clock-2.svg":
            "6f63947bc6ccd2183900dc6985d805b0868c68bdf333038b0de4e701797b4831",
        "clocks/Verse2/clock-3.svg":
            "ea741b15666d641d825e9dbe33d6be6b2c36acbe99448d5f2ab82b2afa271b50",
        "tonnetz/Bridge":
            "a77a066da7f28ab9b255d65aad1d1db5b33c23d6c625737778f245035effee87",
        "clocks/Bridge/clock-1.svg":
            "0d8bc57f6a2237912d1ea46e18ec0e545a65f8ef7a832ccd1f7f5a9618539839",
        "clocks/Bridge/clock-2.svg":
            "dd1d330051a4fd18045f9ba13bbc04c6f54473081d02ecb9096bd44903eaa224",
        "clocks/Bridge/clock-3.svg":
            "8eabd423fb13e65ff620d94fe383a08388d804bc42832030885546e2814e9d84",
        "clocks/Bridge/clock-4.svg":
            "f8ff6b3fc04476ba3caa68175931cc4ecbd97666b234510448c0df195f8b3323",
        "tonnetz/Interlude":
            "1609e5c85318c826b97ca45ae3d1ac86e09b36e0e1be8f4f5844fa69bcd5e609",
        "clocks/Interlude/clock-1.svg":
            "9687411bb82aa85d82589cdd0b07d0ed88697ce523b1b43558a5cd24a3ace81e",
        "clocks/Interlude/clock-2.svg":
            "ea741b15666d641d825e9dbe33d6be6b2c36acbe99448d5f2ab82b2afa271b50",
        "tonnetz/Coda":
            "8c9bc6f917ecef662939f44bc68dac33f38557ad49ad6f55bcdc848415f07ebd",
        "clocks/Coda/clock-1.svg":
            "0c9a2f63f6bdc629e9573ac26d92011660214448ced1c4a74c1786c953f48407",
        "clocks/Coda/clock-2.svg":
            "f8ff6b3fc04476ba3caa68175931cc4ecbd97666b234510448c0df195f8b3323",
        "clocks/Coda/clock-3.svg":
            "cd2ef931df73a9ab19237a72be1bb5efe1316c547bb0502b37f03dfd9270a3e9",
    },
    "in_my_life_recorded.chart": {
        "analyze":
            "100c68dd050ae5d54bcafcfecff5cd8f397029aee22858cea773fe3f3109870c",
        "tonnetz/Verse":
            "ae5193a06af58d71946038286706200c08ba715a3c293d4eb74229f03333d7bc",
        "clocks/Verse/clock-1.svg":
            "5ce44af202478246a81e5c23dd7840f6a2ade2954c9cea5c7a17ce4e93d83174",
        "clocks/Verse/clock-2.svg":
            "e4c57ab2624158921ae5ad8df153d47add9a62effd89875b524209e61dfc4414",
        "clocks/Verse/clock-3.svg":
            "ea741b15666d641d825e9dbe33d6be6b2c36acbe99448d5f2ab82b2afa271b50",
        "clocks/Verse/clock-4.svg":
            "0ddcbc381d869c99e9781168fd7219bdadcdc2fbe3bb9411ba8c2ad1ff8afb34",
        "tonnetz/Bridge":
            "6a1f3f92ed935578a50007630a82771bd6b2ccc80e2fc569631d4203ecd65821",
        "clocks/Bridge/clock-1.svg":
            "8b19d938431c675e7bee4b7b94588ccecd76d2fb5242d4d8a998d748e6112a90",
        "clocks/Bridge/clock-2.svg":
            "dd1d330051a4fd18045f9ba13bbc04c6f54473081d02ecb9096bd44903eaa224",
        "clocks/Bridge/clock-3.svg":
            "6c7780b70681e1a59855ce81ba0aeed357a2c9b63ada5e77b56b0274528b2457",
        "clocks/Bridge/clock-4.svg":
            "f8ff6b3fc04476ba3caa68175931cc4ecbd97666b234510448c0df195f8b3323",
        "tonnetz/Interlude":
            "1609e5c85318c826b97ca45ae3d1ac86e09b36e0e1be8f4f5844fa69bcd5e609",
        "clocks/Interlude/clock-1.svg":
            "9687411bb82aa85d82589cdd0b07d0ed88697ce523b1b43558a5cd24a3ace81e",
        "clocks/Interlude/clock-2.svg":
            "ea741b15666d641d825e9dbe33d6be6b2c36acbe99448d5f2ab82b2afa271b50",
        "tonnetz/Coda":
            "8c9bc6f917ecef662939f44bc68dac33f38557ad49ad6f55bcdc848415f07ebd",
        "clocks/Coda/clock-1.svg":
            "0c9a2f63f6bdc629e9573ac26d92011660214448ced1c4a74c1786c953f48407",
        "clocks/Coda/clock-2.svg":
            "f8ff6b3fc04476ba3caa68175931cc4ecbd97666b234510448c0df195f8b3323",
        "clocks/Coda/clock-3.svg":
            "cd2ef931df73a9ab19237a72be1bb5efe1316c547bb0502b37f03dfd9270a3e9",
    },
    "waltz_3_4.chart": {
        "analyze":
            "ab74803ba90ba1962c1a1c8fcd5dcb400f49fc30a89eebd47d7ca5c74e1615c6",
        "tonnetz/Verse":
            "f785b70b27b4ae60c2835e10b45725526f565a0e6e8d507076936d521ccacd4d",
        "clocks/Verse/clock-1.svg":
            "099611613c2b953a82dcf872706ffd0fd3188110e1062b1d22eb8478256dd07d",
        "clocks/Verse/clock-2.svg":
            "88773685013421062d941b6953f7e4fd99d9fbb6251058cdc649eecb92145ad0",
        "clocks/Verse/clock-3.svg":
            "058931e659bdf6ccb34c40eb7802aa61f0a4e2980774465bab4548eb1b8d9561",
        "clocks/Verse/clock-4.svg":
            "185e72c5810494d0d8161f1dcc37903bc5f9e7f4b6f5bb657b94a18c9a2955b6",
        "tonnetz/Turn":
            "d3fee4d4b7f2f0086d5436b669b83fb1c5467b4f62809fabd9572ba2a8e4d95a",
        "clocks/Turn/clock-1.svg":
            "79b8b01ca0668527544db2f479088cdaf8205c8ec7c1535b6fb50e0c920c3731",
        "clocks/Turn/clock-2.svg":
            "475d60472900b0ebf2f9334d3bd8d7575bd00e7f605f54a88683ba4b27faf0ec",
    },
    "jig_6_8.chart": {
        "analyze":
            "114c408016356a6f17b9995f38e288da79106ca450d4c667052735729adcd0aa",
        "tonnetz/Reel":
            "54882c61f67623c6dbe3a3b3013318cbce78d272460a0c251be238537b32184a",
        "clocks/Reel/clock-1.svg":
            "6b0fc57c79cdce698d894a2079b66f01c33a1fe8949f535976f92913a9ef99c3",
        "clocks/Reel/clock-2.svg":
            "95e2c2b7d96512c25407d49df76a9006ec5b59322b4d647f6e56f429d0c9f9fa",
        "clocks/Reel/clock-3.svg":
            "2db589a7310ade3735062a6b2b6e9067e2e29e50ffa63658392f42be17cde3bf",
        "clocks/Reel/clock-4.svg":
            "4b6762ebbbc386bbbdce9305765a3ad8bc4b9b3da533793b4eeaafc1625f6b91",
        "tonnetz/Lift":
            "0ef86ccd8099faaf1faf741348153e9a958f2d2313572f0d77b09d56227595b8",
        "clocks/Lift/clock-1.svg":
            "e193a77ce06f86acf650164a1eb28b0aefc3627b270a6ba7cee686ac4edc4202",
        "clocks/Lift/clock-2.svg":
            "f3dd7849d0be15d7e515fb7fa3968fad1ce07f42205a57a73c3e83e5dbe835e1",
    },
    "acceptance.wav": {
        "jsonl":
            "af54eadd71b9356217675179b0f87e691ecdc5b36e406f16ece46b0ab20d8752",
        "ppm":
            "146cb2f9ed46b046b5e90e7ab1ab84ab167605930bf10f8eab6286c8ca556aae",
        "jsonl --pre-emphasis 0.5":
            "af54eadd71b9356217675179b0f87e691ecdc5b36e406f16ece46b0ab20d8752",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _chart_outputs(chart, tmp_path) -> dict[str, str]:
    out: dict[str, str] = {}
    report = tmp_path / "report.json"
    assert main(["analyze", str(chart), "--out", str(report)]) == 0
    out["analyze"] = _sha(report.read_bytes())
    doc = parse_chart(chart.read_text(encoding="utf-8"))
    for name in doc.sections:
        svg = tmp_path / f"{name}.svg"
        argv = ["render-tonnetz", str(chart), "--section", name, "--out", str(svg)]
        assert main(argv) == 0
        out[f"tonnetz/{name}"] = _sha(svg.read_bytes())
        clock_dir = tmp_path / f"clocks-{name}"
        argv = ["render-clocks", str(chart), "--section", name, "--out-dir", str(clock_dir)]
        assert main(argv) == 0
        for path in sorted(clock_dir.iterdir()):
            out[f"clocks/{name}/{path.name}"] = _sha(path.read_bytes())
    return out


@pytest.mark.parametrize("chart_name", ["in_my_life.chart", "in_my_life_recorded.chart"])
def test_chart_outputs_match_golden_hashes(chart_name, tmp_path):
    assert _chart_outputs(CHARTS / chart_name, tmp_path) == GOLDEN[chart_name]


@pytest.mark.parametrize("chart_name", sorted(ODD_METER_CHARTS))
def test_odd_meter_chart_outputs_match_golden_hashes(chart_name, tmp_path):
    chart = tmp_path / chart_name
    chart.write_text(ODD_METER_CHARTS[chart_name], encoding="utf-8")
    assert _chart_outputs(chart, tmp_path) == GOLDEN[chart_name]


def test_chord_id_outputs_match_golden_hashes(tmp_path):
    buffer = synth.chord_sequence(
        [parse_chord_symbol(t) for t in ACCEPTANCE_TOKENS],
        seconds_each=2.0, harmonics=6, decay=0.8, noise_snr_db=30.0, seed=7,
    )
    wav = tmp_path / "acceptance.wav"
    write_wav(wav, buffer.samples, buffer.sample_rate)
    jsonl, ppm, emphasised = (tmp_path / n for n in ("a.jsonl", "a.ppm", "b.jsonl"))
    assert main(["chord-id", str(wav), "--out", str(jsonl), "--spectrogram", str(ppm)]) == 0
    assert main(["chord-id", str(wav), "--out", str(emphasised), "--pre-emphasis", "0.5"]) == 0
    got = {
        "jsonl": _sha(jsonl.read_bytes()),
        "ppm": _sha(ppm.read_bytes()),
        "jsonl --pre-emphasis 0.5": _sha(emphasised.read_bytes()),
    }
    assert got == GOLDEN["acceptance.wav"]
