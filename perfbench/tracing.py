"""Spans around the layer calls of the real command line.

``instrument`` swaps a timing wrapper into every name that ``tonnetzlab.cli``
and ``tonnetzlab.chroma.identify`` look up at call time (and around the
dictionary's ``gram`` and ``step_bound``), then puts the originals back. The
traced loop calls ``tonnetzlab.cli.main`` unchanged, so it runs the same
program as the untraced loop through one code path. Spans live in memory
until the run ends. Nothing in the library is edited.
"""

from __future__ import annotations

import importlib
import json
import types
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator

import tonnetzlab.cli as cli
from tonnetzlab.chroma.dictionary import NoteDictionary

# the module; the package's attribute of that name is the function it defines
identify = importlib.import_module("tonnetzlab.chroma.identify")


def _svg_bytes(args, svg):
    return "svg.bytes", len(svg.encode("utf-8"))


# (module or class, attribute, span name, count taken from (args, result) or None)
TARGETS = (
    (cli, "_build_parser", "cli.args", None),
    (cli, "_read_chart", "cli.read", None),
    (cli, "parse_chart", "chart.parse",
     lambda args, doc: ("chart.chords",
                        sum(len(m) for s in doc.sections.values() for m in s.measures))),
    (cli, "progression", "chart.progression", None),
    (cli, "flatten", "chart.flatten", None),
    (cli, "build_report", "cli.report", None),
    (cli, "annotate_progression", "transforms.annotate",
     lambda args, annotation: ("transforms.moves", len(annotation.moves))),
    (cli, "clocks_for", "rhythm.clocks_for", None),
    (cli, "detect_substructures", "rhythm.detect",
     lambda args, report: ("rhythm.distinct_clocks", len(report.distinct_clocks))),
    (cli, "embed_path", "lattice.embed", None),
    (cli, "render_tonnetz_svg", "lattice.render", _svg_bytes),
    (cli, "render_clock_svg", "rhythm.render", _svg_bytes),
    (cli, "_write_text", "cli.write", None),
    (cli, "load_wav", "wavio.load", None),
    (cli, "identify", "identify", None),
    (identify, "build_note_dictionary", "dictionary.build", None),
    (identify, "stft", "spectral.stft", None),
    (identify, "log_freq_map", "spectral.log_freq_map",
     lambda args, frames: ("spectral.frames", len(frames))),
    (identify, "nnls_activations_batch", "nnls.solve", None),
    (identify, "chroma_fold", "identify.chroma_fold", None),
    (identify, "match_chords", "identify.match", None),
    (NoteDictionary, "gram", "dictionary.gram", None),
    (NoteDictionary, "step_bound", "dictionary.step_bound", None),
)


class Recorder:
    """Spans (name, start, end, parent index, operation id) and per-pass counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.op = -1
        self._open: list[int] = []
        # called with (span name, args) on every wrapped call
        self.on_call: Callable | None = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.op]
        self.spans.append(record)
        self._open.append(index)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable, counter: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            if self.on_call is not None:
                self.on_call(name, args)
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                self.count(*counter(args, result))
            return result

        return traced


@contextmanager
def instrument(rec: Recorder) -> Iterator[None]:
    """Give spans to every call in TARGETS, and to ``json.dumps`` as cli.py calls it."""
    # an AttributeError here means the program no longer calls that layer by that name
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TARGETS]
    originals.append((cli, "json", cli.json))
    for (owner, attr, fn), (_, _, name, counter) in zip(originals, TARGETS):
        setattr(owner, attr, rec.wrap(name, fn, counter))
    cli.json = types.SimpleNamespace(dumps=rec.wrap("cli.json", json.dumps))
    try:
        yield
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
