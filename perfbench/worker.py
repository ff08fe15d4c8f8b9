"""Child interpreter of the benchmark.

``worker.py probe SRC`` times the import of ``tonnetzlab.cli`` and
``tonnetzlab.chroma`` in a fresh interpreter and describes the environment.
``worker.py run ...`` runs an in-process workload (audio-corpus or charts)
in a closed loop, one operation at a time, and prints its raw results as
one JSON line. ``worker.py counts ...`` runs one traced pass over a
workload's operations in process and prints its per-pass layer counts (the
cli-cold workload takes its counts this way). All are started by run.py;
none is meant to be run by hand.
"""

from __future__ import annotations

import json
import os
import sys
import time


def probe(src: str) -> dict:
    # nothing before this point may import numpy: its import is part of set-up
    start = time.perf_counter()
    import tonnetzlab.cli  # noqa: F401
    import tonnetzlab.chroma  # noqa: F401

    setup_s = time.perf_counter() - start
    import numpy

    _require_src(src)
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    except (TypeError, KeyError):  # numpy before 1.26 prints its config instead
        blas = {}
    kernels = sys.modules.get("tonnetzlab.kernels")
    return {
        "setup_s": setup_s,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "kernels.BACKEND": getattr(kernels, "BACKEND", None),
        },
    }


def _require_src(src: str) -> None:
    import tonnetzlab

    where = os.path.realpath(tonnetzlab.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"tonnetzlab was imported from {where}, not from {src}")


def main(argv: list[str]) -> int:
    if argv[0] == "probe":
        print(json.dumps(probe(argv[1])))
        return 0
    if argv[0] == "run":
        from inprocess import run_workload

        _, src, workload, manifest, seconds, trace, trace_file = argv
        _require_src(src)
        with open(manifest, encoding="utf-8") as handle:
            result = run_workload(
                workload, json.load(handle), float(seconds), trace == "1", trace_file
            )
        print(json.dumps(result))
        return 0
    if argv[0] == "counts":
        from pathlib import Path

        from inprocess import count_pass
        from ops import build_ops

        _, src, workload, manifest = argv
        _require_src(src)
        with open(manifest, encoding="utf-8") as handle:
            loaded = json.load(handle)
        print(json.dumps(count_pass(build_ops(workload, loaded, Path(loaded["out_dir"])))))
        return 0
    raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
