"""Tail latency and span self time."""

from __future__ import annotations

from statistics import median

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail latency
# Operations per stretch of a run whose tail is taken on its own. The charts
# workload makes thousands of operations a run; its tail over the whole run
# would be the host's worst hiccup, and differ from run to run.
TAIL_STRETCH = 1000


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) at the highest percentile that
    still has TAIL_BEYOND samples above it: the value ranked TAIL_BEYOND + 1
    from the top. With too few samples it is the smallest value, and the
    count says how many lie beyond it."""
    ordered = sorted(values)
    rank = max(len(ordered) - TAIL_BEYOND, 1)  # 1-based rank from the bottom
    return 100.0 * rank / len(ordered), ordered[rank - 1], len(ordered) - rank


def stretch_tail(values: list[float]) -> tuple[float, float, int, int]:
    """(percentile, value, samples beyond, stretches): the tail of each
    stretch of about TAIL_STRETCH values in run order, and the median of
    those. A run of fewer than two stretches is one stretch, its plain tail."""
    parts = max(1, len(values) // TAIL_STRETCH)
    tails = [tail(values[i * len(values) // parts : (i + 1) * len(values) // parts])
             for i in range(parts)]
    return (median(t[0] for t in tails), median(t[1] for t in tails),
            min(t[2] for t in tails), parts)


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    ``spans`` holds (name, start, end, parent index or None, operation id).
    Children may overlap each other; covered time is the union of their
    intervals, clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, op in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent, op) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out
