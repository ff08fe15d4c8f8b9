"""The cli-cold workload: a fresh ``python -m tonnetzlab`` process per operation."""

from __future__ import annotations

import subprocess
from pathlib import Path
from statistics import median
from time import perf_counter

from ops import Op, assess, build_ops, closed_loop, closed_loops, layer_of_traceback

OP_TIMEOUT_S = 120


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(tonnetzlab import ms, numpy import ms) from ``-X importtime`` output.

    The tonnetzlab figure sums the cumulative times of the top-level imports
    of tonnetzlab modules; numpy's is its cumulative time wherever it was
    first imported, 0 when it never was.
    """
    ours = numpy = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative, name = int(parts[1]), parts[2]
        depth = len(name) - len(name.lstrip(" "))
        if depth == 1 and name.strip().startswith("tonnetzlab"):
            ours += cumulative
        if name.strip() == "numpy":
            numpy = cumulative
    return ours / 1000.0, numpy / 1000.0


class ColdRunner:
    """Runs each operation as its own interpreter, optionally under -X importtime."""

    def __init__(self, python: str, env: dict, cwd: str, importtime: bool) -> None:
        self.python, self.env, self.cwd = python, env, cwd
        self.importtime = importtime
        self.imports: list[tuple[str, float, float, float]] = []  # (command, wall, ours, numpy)

    def __call__(self, op: Op):
        flags = ["-X", "importtime"] if self.importtime else []
        start = perf_counter()
        try:
            done = subprocess.run(
                [self.python, *flags, "-m", "tonnetzlab", *op.argv],
                env=self.env, cwd=self.cwd, capture_output=True, timeout=OP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return perf_counter() - start, ("other", "timeout")
        latency = perf_counter() - start
        stderr = done.stderr.decode("utf-8", errors="replace")
        if self.importtime:
            self.imports.append((op.kind, latency * 1000.0, *parse_importtime(stderr)))
        if done.returncode == 0:
            return latency, None
        # exit 2 is the CLI's own error report; anything else escaped as a traceback
        layer = "cli" if done.returncode == 2 else layer_of_traceback(stderr)
        return latency, (layer, f"exit {done.returncode}")


def run_cold(manifest: dict, seconds: float, trace: bool, python: str, env: dict,
             cwd: str, startup_ms: float | None) -> dict:
    ops = build_ops("cli-cold", manifest, Path(manifest["out_dir"]))
    plain = ColdRunner(python, env, cwd, False)
    if not trace:
        return assess(ops, closed_loop(ops, seconds, plain), manifest["sample_rate"])
    # passes with and without -X importtime take turns, so both see the same machine
    runner = ColdRunner(python, env, cwd, True)
    untraced, traced = closed_loops(ops, seconds, [plain, runner])
    result = assess(ops, untraced, manifest["sample_rate"])
    for index, data in traced.first.items():
        if data != untraced.first[index]:
            command = " ".join(ops[index].argv[:2])
            raise SystemExit(f"{command} wrote other output under -X importtime")
    by_command: dict[str, dict[str, list[float]]] = {}
    for command, wall, ours, numpy in runner.imports:
        row = by_command.setdefault(command, {})
        row.setdefault("cli.import_ms", []).append(ours)
        row.setdefault("numpy.import_ms", []).append(numpy)
        row.setdefault("cli.work_ms", []).append(wall - startup_ms - ours)
    result["trace"] = {
        "latencies_ms": [lat * 1000.0 for _, lat, failure in traced.records if failure is None],
        "cli.import_ms": median(r[2] for r in runner.imports),
        "numpy.import_ms": sum(r[3] for r in runner.imports) / len(runner.imports),
        "cli.work_ms": median(r[1] - startup_ms - r[2] for r in runner.imports),
        "by_command": {
            command: {name: median(values) for name, values in row.items()}
            for command, row in by_command.items()
        },
    }
    return result
