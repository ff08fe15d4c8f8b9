"""The in-process workloads: one client, one operation at a time.

Both loops call ``tonnetzlab.cli.main`` exactly as the command line does;
traced operations run it inside ``tracing.instrument``, after a check, once
per input, that it writes the same bytes as the untraced CLI did. A traced
run takes turns, pass by pass, between untraced and traced operations.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr
from pathlib import Path
from statistics import median
from time import perf_counter

import tonnetzlab.cli as cli
from tonnetzlab.chroma import build_note_dictionary
from tonnetzlab.chroma.nnls import DEFAULT_MAX_ITER, nnls_residual_history

import tracing
from ops import (
    MIN_PASSES, Op, Phase, assess, build_ops, closed_loop, closed_loops, layer_of_exception
)
from summary import self_times

# per-layer metric -> the spans whose self time it sums
LAYERS = {
    "audio-corpus": {
        "wavio.load_ms": ("wavio.load",),
        "spectral.stft_ms": ("spectral.stft",),
        "spectral.log_freq_map_ms": ("spectral.log_freq_map",),
        "dictionary.build_ms": ("dictionary.build", "dictionary.gram", "dictionary.step_bound"),
        "nnls.solve_ms": ("nnls.solve",),
        "identify.chroma_fold_ms": ("identify.chroma_fold",),
        "identify.match_ms": ("identify.match",),
        "cli.serialize_ms": ("cli.json",),
        # not named as layers, reported so the table accounts for the whole op
        "identify.other_ms": ("identify",),
        "cli.args_ms": ("cli.args",),
        "cli.io_ms": ("cli.write",),
    },
    "charts": {
        "chart.parse_ms": ("chart.parse",),
        "transforms.annotate_ms": ("transforms.annotate",),
        "rhythm.clocks_ms": ("rhythm.clocks_for", "rhythm.detect"),
        "cli.report_json_ms": ("cli.report", "cli.json"),
        "lattice.embed_ms": ("lattice.embed",),
        "lattice.render_ms": ("lattice.render",),
        "rhythm.render_ms": ("rhythm.render",),
        "chart.progression_ms": ("chart.progression", "chart.flatten"),
        "cli.args_ms": ("cli.args",),
        "cli.io_ms": ("cli.read", "cli.write"),
    },
}
NOTES = 73  # semitone bins and notes of the NNLS problem


class TraceMismatch(SystemExit):
    """The traced CLI wrote something else than the untraced one: it measures another program."""


def _call_cli(op: Op):
    with redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            code = cli.main(op.argv)
        except Exception as exc:  # the loop must go on; the failure is recorded
            return perf_counter() - start, (layer_of_exception(exc), type(exc).__name__)
        latency = perf_counter() - start
    return latency, None if code == 0 else ("cli", f"exit {code}")


def _call_traced(rec: tracing.Recorder, op: Op):
    rec.op += 1
    with tracing.instrument(rec), rec.span("op." + op.kind):
        return _call_cli(op)


def count_pass(ops: list[Op], reference: Phase | None = None) -> dict:
    """One traced pass over ``ops``, spans discarded, for the per-pass counts.

    Where ``reference`` is given, every output must match the untraced one.
    NNLS iterations per frame are counted on the frames the CLI solved.
    """
    rec = tracing.Recorder()
    solved = []  # the semitone frames of each NNLS call
    rec.on_call = lambda name, args: solved.append(args[0]) if name == "nnls.solve" else None
    for index, op in enumerate(ops):
        op.clear()
        _, failure = _call_traced(rec, op)
        data = op.output() if failure is None else None
        if reference is not None and data != reference.first[index]:
            raise TraceMismatch(
                f"traced {' '.join(op.argv[:2])} differs from the CLI's output; "
                "the trace would measure a different program"
            )
    dictionary = build_note_dictionary()
    iterations = [
        len(nnls_residual_history(row, dictionary)[1]) - 1 for frames in solved for row in frames
    ]
    return {**rec.counts, **_nnls_counts(iterations)}


def _nnls_counts(iterations: list[int]) -> dict:
    per_frame = sorted(iterations)
    if not per_frame:
        return {}
    total = sum(per_frame)
    stalled = sum(n >= DEFAULT_MAX_ITER for n in per_frame)
    return {
        "nnls.frames": len(per_frame),
        "nnls.iterations_total": total,
        "nnls.iterations_p50": median(per_frame),
        "nnls.iterations_max": per_frame[-1],
        "nnls.max_iter_frames": stalled,
        "nnls.converged_fraction": (len(per_frame) - stalled) / len(per_frame),
        # one iteration: a 73x73 matvec (2n^2 flops) plus seven n-vector passes
        "nnls.flops_computed": total * (2 * NOTES * NOTES + 7 * NOTES),
        # and it reads the Gram matrix and six n-vectors of float64
        "nnls.bytes_computed": total * 8 * (NOTES * NOTES + 6 * NOTES),
    }


def summarise_trace(
    workload: str, ops: list[Op], phase: Phase, rec: tracing.Recorder, counts: dict,
    trace_file: str,
) -> dict:
    """Layer self times of the traced operations, with the per-pass ``counts``;
    writes the spans to ``trace_file``."""
    self_s: dict[str, float] = {}
    for span, seconds_self in zip(rec.spans, self_times(rec.spans)):
        self_s[span[0]] = self_s.get(span[0], 0.0) + seconds_self
    missing = [s for spans in LAYERS[workload].values() for s in spans if s not in self_s]
    if missing:
        raise TraceMismatch(f"{workload} no longer reaches {sorted(set(missing))} when traced")
    op_count = len(phase.records)
    layer_ms = {
        name: 1000.0 * sum(self_s[s] for s in spans) / op_count
        for name, spans in LAYERS[workload].items()
    }
    layer_ms["op.self_ms"] = 1000.0 * sum(
        v for k, v in self_s.items() if k.startswith("op.")
    ) / op_count
    if counts.get("nnls.iterations_total"):
        passes = op_count / len(ops)
        layer_ms["nnls.us_per_frame_iteration"] = (
            1e6 * self_s["nnls.solve"] / (passes * counts["nnls.iterations_total"])
        )
    Path(trace_file).write_text(
        json.dumps({"fields": ["name", "start_s", "end_s", "parent", "op"], "spans": rec.spans}),
        encoding="utf-8",
    )
    return {
        "latencies_ms": [lat * 1000.0 for _, lat, failure in phase.records if failure is None],
        "op_mean_ms": 1000.0 * sum(lat for _, lat, _ in phase.records) / op_count,
        "layers_ms": layer_ms,
        "counts": counts,
        "spans": len(rec.spans),
    }


def run_workload(
    workload: str, manifest: dict, seconds: float, trace: bool, trace_file: str
) -> dict:
    ops = build_ops(workload, manifest, Path(manifest["out_dir"]))
    min_passes = MIN_PASSES.get(workload, 1)
    if not trace:
        untraced = closed_loop(ops, seconds, _call_cli, min_passes)
        return assess(ops, untraced, manifest["sample_rate"])
    # one untraced pass first, whose outputs the traced CLI must reproduce
    reference = closed_loop(ops, 0.0, _call_cli)
    counts = count_pass(ops, reference)
    rec = tracing.Recorder()
    untraced, traced = closed_loops(
        ops, seconds, [_call_cli, lambda op: _call_traced(rec, op)], min_passes
    )
    for index, data in traced.first.items():
        if data != reference.first[index] or index in traced.unstable:
            raise TraceMismatch(f"traced {' '.join(ops[index].argv[:2])} changed its output")
    result = assess(ops, untraced, manifest["sample_rate"])
    result["trace"] = summarise_trace(workload, ops, traced, rec, counts, trace_file)
    return result
