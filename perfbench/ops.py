"""Operations of each workload, their outputs, and the checks on them.

Imports nothing from tonnetzlab, so the parent process that drives the
cold-CLI workload never loads the program it measures.
"""

from __future__ import annotations

import itertools
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
from summary import TAIL_BEYOND

# Charts of the corpus that the cold-CLI workload cycles through, one clip
# each: the first plain ones, so that every seed runs the same mix (the known
# crashes fail fast and would change ops_per_s by seed; charts counts them)
COLD_CHARTS = 3
# On audio-corpus, labels on at least this share of scored frames must match
# the ground truth; 25 seeds tried score 0.95 to 0.98.
FRAME_ACCURACY_FLOOR = 0.85
# Whole passes a loop runs at least, beyond its seconds. audio-corpus holds
# three tracks, the slowest once a pass; with this many passes its tail
# latency lies among the runs of that track, not in the gap below them.
MIN_PASSES = {"audio-corpus": TAIL_BEYOND + 1}
# every layer a failure can be attributed to (the tonnetzlab module that raised)
LAYERS = (
    "chart", "harmony", "transforms", "rhythm", "lattice", "chroma", "kernels", "cli", "other"
)


@dataclass
class Op:
    kind: str  # "chord-id", "analyze", "render-tonnetz" or "render-clocks"
    argv: list[str]  # arguments to the tonnetzlab command line
    out: Path  # output file, or output directory for render-clocks
    source: dict  # the manifest entry of the input
    expect_ok: bool  # False where the analysis is known to crash today

    def clear(self) -> None:
        if self.kind == "render-clocks" and self.out.exists():
            shutil.rmtree(self.out)

    def output(self) -> bytes:
        if self.kind != "render-clocks":
            return self.out.read_bytes()
        if not self.out.is_dir():
            return b""
        return b"".join(
            path.name.encode() + b"\0" + path.read_bytes() + b"\0"
            for path in sorted(self.out.iterdir())
        )


def _chart_ops(chart: dict, out: Path, sections: list[str]) -> list[Op]:
    stem = Path(chart["path"]).stem
    odd = chart["kind"] == "odd-meter"
    ops = [
        Op("analyze", ["analyze", chart["path"], "--out", str(out / f"{stem}.json")],
           out / f"{stem}.json", chart, not odd)
    ]
    for section in sections:
        svg = out / f"{stem}-{section}.svg"
        single = chart["kind"] == "one-chord" and section == chart["one_chord_section"]
        ops.append(
            Op("render-tonnetz",
               ["render-tonnetz", chart["path"], "--section", section, "--out", str(svg)],
               svg, chart, not single)
        )
        clocks = out / f"{stem}-{section}-clocks"
        ops.append(
            Op("render-clocks",
               ["render-clocks", chart["path"], "--section", section, "--out-dir", str(clocks)],
               clocks, chart, not odd)
        )
    return ops


def _chord_id_op(track: dict, out: Path) -> Op:
    jsonl = out / (Path(track["path"]).stem + ".jsonl")
    return Op("chord-id", ["chord-id", track["path"], "--out", str(jsonl)], jsonl, track, True)


def build_ops(workload: str, manifest: dict, out: Path) -> list[Op]:
    """One pass of the workload, in order."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "audio-corpus":
        return [_chord_id_op(track, out) for track in manifest["tracks"]]
    if workload == "charts":
        ops: list[Op] = []
        for chart in manifest["charts"]:
            ops.extend(_chart_ops(chart, out, chart["sections"]))
        return ops
    if workload == "cli-cold":
        ops = []
        plain = [chart for chart in manifest["charts"] if chart["kind"] == "plain"]
        for chart, clip in zip(plain[:COLD_CHARTS], manifest["clips"]):
            ops.extend(_chart_ops(chart, out, [chart["cold_section"]]))
            ops.append(_chord_id_op(clip, out))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Verdict:
    """What the checks found in one operation's output."""

    error: str | None = None  # a failed check
    frames_right: int = 0
    frames_scored: int = 0


def check_output(op: Op, data: bytes, sample_rate: int) -> Verdict:
    try:
        if op.kind == "chord-id":
            segments = checks.parse_segments(data.decode("utf-8"))
            checks.check_segments(segments, op.source["samples"], sample_rate)
            right, scored = checks.frame_hits(
                segments, op.source["truth"], op.source["samples"], sample_rate
            )
            return Verdict(None, right, scored)
        if op.kind == "analyze":
            checks.check_report(data.decode("utf-8"))
        elif op.kind == "render-tonnetz":
            checks.check_svg(data)
        else:
            files = data.split(b"\0")[1::2]
            if not files:
                raise checks.CheckFailed("render-clocks wrote no SVG")
            for svg in files:
                checks.check_svg(svg)
    except (checks.CheckFailed, ValueError, KeyError, IndexError) as exc:
        return Verdict(f"{op.kind} {op.argv[1]}: {exc}")
    return Verdict()


@dataclass
class Phase:
    """Every operation run in one closed loop, and what each input produced first."""

    records: list = field(default_factory=list)  # (op index, seconds, failure or None)
    first: dict = field(default_factory=dict)  # op index -> output bytes, None if it failed
    unstable: set = field(default_factory=set)  # op indices whose output changed on a re-run


def closed_loop(ops: list[Op], seconds: float, run_one, min_passes: int = 1) -> Phase:
    """Whole passes over ``ops`` until ``seconds`` have gone by, and at least ``min_passes``."""
    return closed_loops(ops, seconds, [run_one], min_passes)[0]


def closed_loops(ops: list[Op], seconds: float, runners: list, min_passes: int = 1) -> list[Phase]:
    """Whole passes over ``ops``, one with each of ``runners`` in turn, until
    ``seconds`` have gone by and each has made ``min_passes``. Taking turns
    pass by pass lets the runners see the same machine, whose speed drifts."""
    phases = [Phase() for _ in runners]
    start = perf_counter()
    for passes in itertools.count(1):
        for phase, run_one in zip(phases, runners):
            for index, op in enumerate(ops):
                op.clear()
                latency, failure = run_one(op)
                data = op.output() if failure is None else None
                phase.records.append((index, latency, failure))
                if index not in phase.first:
                    phase.first[index] = data
                elif phase.first[index] != data:
                    phase.unstable.add(index)
        if passes >= min_passes and perf_counter() - start >= seconds:
            return phases


def assess(ops: list[Op], phase: Phase, sample_rate: int) -> dict:
    """Failures, output checks and frame accuracy of an untraced loop."""
    verdicts = {i: check_output(ops[i], data, sample_rate)
                for i, data in phase.first.items() if data is not None}
    check_errors = [v.error for v in verdicts.values() if v.error]
    check_errors += [f"{ops[i].kind} {ops[i].argv[1]}: output differs on a re-run"
                     for i in sorted(phase.unstable)]
    bad = {i for i, v in verdicts.items() if v.error} | phase.unstable
    latencies, unexpected = [], []
    busy = audio_s = 0.0
    failed = 0
    # failures of one pass, by the layer that raised
    by_stage = dict.fromkeys(LAYERS, 0)
    for index, latency, failure in phase.records[: len(ops)]:
        if failure is not None:
            by_stage[failure[0]] += 1
    for index, latency, failure in phase.records:
        busy += latency
        if ops[index].kind == "chord-id":
            audio_s += ops[index].source["samples"] / sample_rate
        if failure is None and index not in bad:
            latencies.append(latency * 1000.0)
            continue
        failed += 1
        if failure is not None and ops[index].expect_ok:
            unexpected.append(f"{ops[index].kind} {ops[index].argv[1]}: {failure[1]}")
    right = sum(v.frames_right for v in verdicts.values())
    scored = sum(v.frames_scored for v in verdicts.values())
    return {
        "attempted": len(phase.records),
        "failed": failed,
        "latencies_ms": latencies,
        "busy_s": busy,
        "audio_s": audio_s,
        "frames_right": right,
        "frames_scored": scored,
        "failures_by_stage": by_stage,
        "check_errors": check_errors[:20],
        "unexpected_failures": sorted(set(unexpected))[:20],
    }


_FRAME = re.compile(r'File "[^"]*[/\\]tonnetzlab[/\\]([A-Za-z_]+)')


def layer_of_traceback(text: str) -> str:
    """The tonnetzlab layer named by the innermost frame of a printed traceback."""
    found = _FRAME.findall(text)
    if not found:
        return "other"
    return found[-1] if found[-1] in LAYERS else "other"


def layer_of_exception(exc: BaseException) -> str:
    """The tonnetzlab layer whose code raised ``exc`` (innermost frame wins)."""
    layer = "other"
    frame = exc.__traceback__
    while frame is not None:
        module = frame.tb_frame.f_globals.get("__name__", "")
        if module.startswith("tonnetzlab."):
            layer = module.split(".")[1]
        frame = frame.tb_next
    return layer if layer in LAYERS else "other"
