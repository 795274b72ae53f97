"""Pure helpers of the benchmark: percentiles, span self time, import times.

Nothing here imports the program under test or touches the file system, so
the unit tests in ``perfbench/tests`` exercise it directly.

A span is a tuple ``(span_id, parent_id, name, start_s, end_s, count)``:
``parent_id`` is ``None`` for a root, times come from one system-wide
monotonic clock (so spans of different processes line up), and ``count``
is the span's work counter (rows, bytes, trials, hit flag...).
"""

from __future__ import annotations

import math
import re
import statistics
from collections import defaultdict
from typing import Iterable, Sequence

SPAN_ID, SPAN_PARENT, SPAN_NAME, SPAN_START, SPAN_END, SPAN_COUNT = range(6)


def median(values: Sequence[float]) -> float:
    """The median, or NaN for no values."""
    return statistics.median(values) if values else math.nan


def tail_percentile(samples: Sequence[float], beyond: int = 10) -> tuple[float, float, int]:
    """The highest percentile that still has ``beyond`` samples above it.

    Returns ``(percentile, value, count_beyond)``.  With ``n`` sorted samples
    that is the value of rank ``n - beyond`` (1-based), i.e. percentile
    ``100 * (n - beyond) / n``.  Below ``2 * beyond`` samples that rank
    would fall under the median, so there is no tail percentile: the maximum
    is returned, with 0 samples beyond it.
    """
    if not samples:
        return math.nan, math.nan, 0
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * beyond:
        return 100.0, ordered[-1], 0
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1], beyond


def interval_union(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[tuple]) -> dict:
    """Each span's self time: its duration minus the part its children cover.

    Children are clipped to their parent's interval, and overlapping
    children are counted once, so a self time is never negative.
    """
    children: dict = defaultdict(list)
    for span in spans:
        if span[SPAN_PARENT] is not None:
            children[span[SPAN_PARENT]].append(span)
    result = {}
    for span in spans:
        start, end = span[SPAN_START], span[SPAN_END]
        covered = interval_union(
            (max(start, child[SPAN_START]), min(end, child[SPAN_END]))
            for child in children.get(span[SPAN_ID], ())
            if child[SPAN_END] > start and child[SPAN_START] < end
        )
        result[span[SPAN_ID]] = (end - start) - covered
    return result


def tree_roots(spans: Sequence[tuple]) -> dict:
    """The root of every span's tree (a span whose parent is absent is a root)."""
    by_id = {span[SPAN_ID]: span for span in spans}
    root_of: dict = {}
    for span in spans:
        path = []
        span_id = span[SPAN_ID]
        while span_id not in root_of:
            parent = by_id[span_id][SPAN_PARENT]
            if parent not in by_id:
                root_of[span_id] = span_id
                break
            path.append(span_id)
            span_id = parent
        for node in path:
            root_of[node] = root_of[span_id]
    return root_of


def tree_residuals(spans: Sequence[tuple], selfs: dict, roots: dict) -> list[float]:
    """For every tree, its root's duration minus the summed self time of its spans.

    Zero (to rounding) when children nest inside their parents without
    overlapping — the identity the traced run checks.
    """
    summed: dict = defaultdict(float)
    for span in spans:
        summed[roots[span[SPAN_ID]]] += selfs[span[SPAN_ID]]
    by_id = {span[SPAN_ID]: span for span in spans}
    return [
        (by_id[root][SPAN_END] - by_id[root][SPAN_START]) - total
        for root, total in summed.items()
    ]


def layer_totals(spans: Sequence[tuple], selfs: dict) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed self time and summed work counter."""
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "count": 0.0}
    )
    for span in spans:
        entry = totals[span[SPAN_NAME]]
        entry["calls"] += 1
        entry["self_s"] += selfs[span[SPAN_ID]]
        entry["count"] += span[SPAN_COUNT]
    return dict(totals)


_IMPORTTIME_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def parse_importtime(text: str) -> dict[str, float]:
    """Self import time in seconds per top-level package, from ``-X importtime``.

    Summing *self* times per package attributes each module once, so numpy
    imported on behalf of scipy still counts as numpy.
    """
    totals: dict[str, float] = defaultdict(float)
    for line in text.splitlines():
        match = _IMPORTTIME_LINE.match(line)
        if match is None:
            continue
        self_us, module = int(match.group(1)), match.group(4)
        totals[module.split(".")[0]] += self_us * 1e-6
    return dict(totals)
