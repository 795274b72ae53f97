"""Trace summarisation: the analysis behind the ``repro trace`` subcommand.

Takes the flat JSONL span list a traced sweep exports and answers the three
questions a slow run raises: *what ran* (the span tree, aggregated by name so
a thousand trials render as one line), *where the time went* (per-stage
totals and exclusive "self" time over every span of a name), and *which
trials were worst* (the slowest ``trial`` spans with their identifying
attributes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.telemetry.tracing import SpanRecord
from repro.utils.tables import format_table

__all__ = [
    "StageStat",
    "aggregate_stages",
    "aggregate_tree",
    "slowest_spans",
    "render_trace_summary",
]


@dataclass(frozen=True)
class StageStat:
    """Aggregate timing of every span sharing one name.

    ``total_s`` is inclusive (a span's whole duration); ``self_s`` is
    exclusive: each span's duration minus its direct children's, so nested
    stages are never counted twice.
    """

    name: str
    count: int
    total_s: float
    max_s: float
    self_s: float

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


def _self_times(records: Sequence[SpanRecord]) -> dict[str, float]:
    """Exclusive time per span id: its duration minus its direct children's.

    Floored at zero: children that ran concurrently (worker threads) can
    outlast their parent in sum.
    """
    child_s: dict[str | None, float] = {}
    for record in records:
        child_s[record.parent_id] = child_s.get(record.parent_id, 0.0) + record.duration_s
    return {
        record.span_id: max(0.0, record.duration_s - child_s.get(record.span_id, 0.0))
        for record in records
    }


def _stage(name: str, spans: Sequence[SpanRecord], self_times: Mapping[str, float]) -> StageStat:
    return StageStat(
        name=name,
        count=len(spans),
        total_s=sum(span.duration_s for span in spans),
        max_s=max(span.duration_s for span in spans),
        self_s=sum(self_times[span.span_id] for span in spans),
    )


def aggregate_stages(records: Sequence[SpanRecord]) -> list[StageStat]:
    """Per-name timing totals, sorted by total time (descending)."""
    self_times = _self_times(records)
    by_name: dict[str, list[SpanRecord]] = {}
    for record in records:
        by_name.setdefault(record.name, []).append(record)
    stats = [_stage(name, spans, self_times) for name, spans in by_name.items()]
    return sorted(stats, key=lambda stat: (-stat.total_s, stat.name))


def aggregate_tree(records: Sequence[SpanRecord]) -> list[tuple[int, StageStat]]:
    """The span tree with same-named siblings folded together.

    Returns ``(depth, stat)`` rows in depth-first order: every group of
    same-named spans sharing a *structural* position (the chain of ancestor
    names) becomes one row, so a million-trial trace renders in a screenful.
    Spans with dangling parents are treated as roots (a truncated trace file
    still summarises).
    """
    known = {record.span_id for record in records}
    self_times = _self_times(records)
    children: dict[str | None, list[SpanRecord]] = {}
    for record in records:
        parent = record.parent_id if record.parent_id in known else None
        children.setdefault(parent, []).append(record)

    rows: list[tuple[int, StageStat]] = []

    def walk(parent_ids: list[str | None], depth: int) -> None:
        group: dict[str, list[SpanRecord]] = {}
        order: list[str] = []
        for parent in parent_ids:
            for record in children.get(parent, ()):
                if record.name not in group:
                    group[record.name] = []
                    order.append(record.name)
                group[record.name].append(record)
        for name in order:
            spans = group[name]
            rows.append((depth, _stage(name, spans, self_times)))
            walk([span.span_id for span in spans], depth + 1)

    walk([None], 0)
    return rows


def slowest_spans(
    records: Sequence[SpanRecord], name: str = "trial", top: int = 5
) -> list[SpanRecord]:
    """The ``top`` longest spans named ``name``, slowest first."""
    matching = [record for record in records if record.name == name]
    return sorted(matching, key=lambda record: -record.duration_s)[:top]


def _format_attributes(attributes: Mapping[str, object]) -> str:
    return " ".join(f"{key}={value}" for key, value in sorted(attributes.items()))


def render_trace_summary(
    records: Sequence[SpanRecord], slowest: int = 5, slowest_name: str = "trial"
) -> str:
    """The full ``repro trace`` report: tree, stage table, slowest trials.

    The stage table ranks stages by self time; "Share" is that self time as
    a fraction of the trace's wall time, so nested stages add up instead of
    double-counting (the shares sum to at most 100% unless spans ran in
    parallel).
    """
    if not records:
        return "empty trace (0 spans)"
    stages = aggregate_stages(records)
    wall_s = max(record.end_s for record in records) - min(
        record.start_s for record in records
    )
    sections = [f"{len(records)} spans, {wall_s:.3f}s wall time"]

    tree_rows = []
    for depth, stat in aggregate_tree(records):
        tree_rows.append((
            "  " * depth + stat.name, stat.count,
            f"{stat.total_s:.4f}", f"{stat.mean_s * 1e3:.2f}", f"{stat.max_s * 1e3:.2f}",
        ))
    sections.append(format_table(
        ["Span", "Count", "Total (s)", "Mean (ms)", "Max (ms)"],
        tree_rows, title="Span tree (same-named siblings folded)",
    ))

    sections.append(format_table(
        ["Stage", "Count", "Total (s)", "Self (s)", "Mean (ms)", "Share"],
        [
            (
                stat.name, stat.count, f"{stat.total_s:.4f}", f"{stat.self_s:.4f}",
                f"{stat.mean_s * 1e3:.2f}",
                f"{stat.self_s / wall_s:.0%}" if wall_s > 0 else "-",
            )
            for stat in sorted(stages, key=lambda stat: (-stat.self_s, stat.name))
        ],
        title="Time per stage (all spans of a name; Share = self time / wall time)",
    ))

    slow = slowest_spans(records, name=slowest_name, top=slowest)
    if slow:
        sections.append(format_table(
            ["Duration (ms)", "Attributes"],
            [
                (f"{record.duration_s * 1e3:.2f}", _format_attributes(record.attributes))
                for record in slow
            ],
            title=f"Slowest {slowest_name!r} spans",
        ))
    return "\n\n".join(sections)
