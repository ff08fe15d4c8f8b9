"""tonnetzlab benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload audio-corpus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Inputs are generated from ``--seed`` into
``.perfbench/`` and removed afterwards; the program is imported from
``src/``. Every metric is printed as ``name value unit``; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and the metrics
that BENCHMARK.json lists, end-to-end ones with ``--trace 0`` and per-layer
ones with ``--trace 1``. See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import gen
from cold import parse_importtime, run_cold
from ops import COLD_CHARTS, FRAME_ACCURACY_FLOOR
from summary import stretch_tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# workload -> tracks it needs synthesised (cli-cold plays a clip of each)
WORKLOADS = {"audio-corpus": len(gen.TRACK_PLAN), "charts": 0, "cli-cold": COLD_CHARTS}
# Fresh interpreters timed before and after the loop (about 0.3 s each);
# setup_s is their median. Timing some at each end keeps a slow patch of the
# machine at the start of a run from setting the figure alone.
SETUP_PROBES_EACH_END = 6
STARTUP_PROBES = 5
CHILD_TIMEOUT_S = 170
# One client, one thread: BLAS thread pools only spin on matrices this small
# and would take the second core from whatever else runs on the machine.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TIME_UNITS = ("s", "ms", "us")


def _child_env() -> dict:
    env = {**os.environ, **SINGLE_THREAD}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _probe(env: dict, importtime: bool) -> dict:
    flags = ["-X", "importtime"] if importtime else []
    done = subprocess.run(
        [sys.executable, *flags, str(HERE / "worker.py"), "probe", str(SRC)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(f"set-up probe failed:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if importtime:
        result["cli.import_ms"], result["numpy.import_ms"] = parse_importtime(done.stderr)
    return result


def _startup_ms(env: dict) -> float:
    times = []
    for _ in range(STARTUP_PROBES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True, timeout=60)
        times.append((perf_counter() - start) * 1000.0)
    return median(times)


def _worker(env: dict, *args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(f"worker {args[0]} {args[2]} failed:\n{done.stderr[-3000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, result: dict, probes: list[dict]) -> tuple[dict, list[str]]:
    """Untraced metrics, and the report lines that print them with their units."""
    latencies = result["latencies_ms"]
    pct, tail_ms, beyond, stretches = stretch_tail(latencies)
    values = {
        "ops_per_s": (len(latencies) / result["busy_s"], "1/s"),
        "op_p50_ms": (median(latencies), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "failed_fraction": (result["failed"] / result["attempted"], "fraction"),
        "setup_s": (median(p["setup_s"] for p in probes), "s"),
    }
    if workload == "audio-corpus":
        values["audio_x_realtime"] = (result["audio_s"] / result["busy_s"], "x")
    if result["frames_scored"]:
        values["frame_accuracy"] = (result["frames_right"] / result["frames_scored"], "fraction")
    notes = {
        "op_tail_ms": (
            f"(p{pct:.2f} of {len(latencies)} successful operations, {beyond} beyond)"
            if stretches == 1 else
            f"(median over {stretches} stretches of {len(latencies) // stretches} of "
            f"{len(latencies)} successful operations of each one's p{pct:.2f}, "
            f"at least {beyond} beyond in each)"
        ),
        "setup_s": f"(median of {len(probes)} fresh interpreters)",
        "failed_fraction": f"({result['failed']} of {result['attempted']})",
    }
    lines = [f"{name} {value:.6g} {unit} {notes.get(name, '')}".rstrip()
             for name, (value, unit) in values.items()]
    return {name: value for name, (value, _) in values.items()}, lines


def per_layer(
    workload: str, result: dict, probes: list[dict], startup_ms: float
) -> tuple[dict, list[str]]:
    """Traced metrics, and the report lines that print them."""
    trace = result["trace"]
    untraced_p50 = median(result["latencies_ms"])
    traced_p50 = median(trace["latencies_ms"])
    values: dict[str, float] = {"python.startup_ms": startup_ms}
    lines = []
    if workload == "cli-cold":
        values["cli.import_ms"] = trace["cli.import_ms"]
        values["numpy.import_ms"] = trace["numpy.import_ms"]
        values["cli.work_ms"] = trace["cli.work_ms"]
        for command, row in sorted(trace["by_command"].items()):
            lines += [f"{name}[{command}] {value:.6g} ms" for name, value in row.items()]
    else:
        values["cli.import_ms"] = median(p["cli.import_ms"] for p in probes)
        values["numpy.import_ms"] = median(p["numpy.import_ms"] for p in probes)
        # in process there is no start-up or import per operation
        values["cli.work_ms"] = untraced_p50
        op_mean = trace["op_mean_ms"]
        for name, value in trace["layers_ms"].items():
            share = f"({100.0 * value / op_mean:.1f}% of the mean traced operation)"
            unit = "us" if name == "nnls.us_per_frame_iteration" else "ms"
            lines.append(f"{name} {value:.6g} {unit} {share if unit == 'ms' else ''}".rstrip())
        lines.append(f"op.traced_mean_ms {op_mean:.6g} ms")
    values["trace.overhead_ms"] = traced_p50 - untraced_p50
    lines.append(
        f"trace.overhead_ms {values['trace.overhead_ms']:.6g} ms "
        f"(traced p50 {traced_p50:.6g} ms against untraced p50 {untraced_p50:.6g} ms)"
    )
    for name, value in trace["counts"].items():
        values[name] = value
    for layer, count in result["failures_by_stage"].items():
        values[f"failures.by_stage.{layer}"] = count
    return values, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tonnetzlab" / "cli.py").is_file():
        print(f"perfbench: no tonnetzlab sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    local = ROOT / ".perfbench"
    work = local / f"run-{os.getpid()}"
    try:
        manifest = gen.write_inputs(args.seed, work / "inputs", WORKLOADS[args.workload])
        manifest["out_dir"] = str(work / "out")
        manifest_path = work / "manifest.json"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        env = _child_env()
        # compile the sources once so that no timed interpreter pays for it
        subprocess.run([sys.executable, "-c", "import tonnetzlab.cli, tonnetzlab.chroma"],
                       env=env, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
        probes = [_probe(env, bool(args.trace)) for _ in range(SETUP_PROBES_EACH_END)]
        startup_ms = _startup_ms(env) if args.trace else None
        trace_file = local / f"trace-{args.workload}.json"
        if args.workload == "cli-cold":
            result = run_cold(manifest, args.seconds, bool(args.trace), sys.executable, env,
                              str(ROOT), startup_ms)
            if args.trace:
                result["trace"]["counts"] = _worker(
                    env, "counts", str(SRC), args.workload, str(manifest_path)
                )
        else:
            result = _worker(env, "run", str(SRC), args.workload, str(manifest_path),
                             repr(args.seconds), str(args.trace), str(trace_file))
        probes += [_probe(env, bool(args.trace)) for _ in range(SETUP_PROBES_EACH_END)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in {**probes[0]["env"], **SINGLE_THREAD}.items()))
    e2e, lines = end_to_end(args.workload, result, probes)
    values = e2e
    if args.trace:
        values, layer_lines = per_layer(args.workload, result, probes, startup_ms)
        # the set-up probes ran under -X importtime, so setup_s is not reported here
        lines = [f"untraced {line}" for line in lines if not line.startswith("setup_s")]
        lines += layer_lines
        printed = {line.split()[0] for line in lines}
        lines += [f"{m['name']} {values.get(m['name'], 0):.6g} {m['unit']}"
                  for m in wanted if m["name"] not in printed]
    for line in lines:
        print(line)
    problems = result["check_errors"]
    problems += [f"unexpected failure: {u}" for u in result["unexpected_failures"]]
    # cli-cold scores only three 3 s clips, too few frames for a floor
    accuracy = e2e.get("frame_accuracy") if args.workload == "audio-corpus" else None
    if accuracy is not None and accuracy < FRAME_ACCURACY_FLOOR:
        problems.append(f"frame_accuracy {accuracy:.4f} is below {FRAME_ACCURACY_FLOOR}")
    for problem in problems:
        print(f"check failed: {problem}")
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in values and metric["unit"] in TIME_UNITS:
            raise SystemExit(f"metric {name} was not measured on {args.workload}")
        # a count of a layer this workload never calls
        values.setdefault(name, 0)
        metrics[name] = {"value": values[name], "unit": metric["unit"]}
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
