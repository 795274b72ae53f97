"""Tests for trace summarisation: stage totals, tree folding, slowest spans."""

from __future__ import annotations

from repro.telemetry.summary import (
    aggregate_stages,
    aggregate_tree,
    render_trace_summary,
    slowest_spans,
)
from repro.telemetry.tracing import SpanRecord


def _record(name, span_id, parent_id=None, start_s=0.0, end_s=1.0, **attributes):
    return SpanRecord(name=name, span_id=span_id, parent_id=parent_id,
                      start_s=start_s, end_s=end_s, attributes=attributes)


def _sample_trace():
    return [
        _record("sweep", "1.0", None, 0.0, 10.0),
        _record("trial", "1.1", "1.0", 0.0, 4.0, trial_index=0),
        _record("trial", "1.2", "1.0", 4.0, 10.0, trial_index=1),
        _record("engine.step", "1.3", "1.1", 0.0, 1.0),
        _record("engine.step", "1.4", "1.2", 4.0, 9.0),
    ]


class TestAggregateStages:
    def test_totals_sorted_by_time(self):
        stats = {s.name: s for s in aggregate_stages(_sample_trace())}
        assert stats["trial"].count == 2
        assert stats["trial"].total_s == 10.0
        assert stats["trial"].max_s == 6.0
        assert stats["trial"].mean_s == 5.0
        assert [s.name for s in aggregate_stages(_sample_trace())][0] in ("sweep", "trial")

    def test_self_time_excludes_direct_children(self):
        stats = {s.name: s for s in aggregate_stages(_sample_trace())}
        assert stats["sweep"].self_s == 0.0  # fully covered by its trials
        assert stats["trial"].self_s == 4.0  # (4 - 1) + (6 - 5)
        assert stats["engine.step"].self_s == 6.0


class TestAggregateTree:
    def test_same_named_siblings_fold(self):
        rows = aggregate_tree(_sample_trace())
        assert [(depth, stat.name, stat.count) for depth, stat in rows] == [
            (0, "sweep", 1), (1, "trial", 2), (2, "engine.step", 2),
        ]

    def test_dangling_parents_become_roots(self):
        rows = aggregate_tree([_record("orphan", "1.0", parent_id="gone.1")])
        assert [(depth, stat.name) for depth, stat in rows] == [(0, "orphan")]


class TestSlowest:
    def test_ranked_by_duration(self):
        slow = slowest_spans(_sample_trace(), name="trial", top=1)
        assert len(slow) == 1
        assert slow[0].attributes["trial_index"] == 1  # the 6s trial

    def test_missing_name_is_empty(self):
        assert slowest_spans(_sample_trace(), name="nope") == []


class TestRender:
    def test_report_sections(self):
        report = render_trace_summary(_sample_trace())
        assert "5 spans" in report
        assert "Span tree" in report
        assert "Time per stage" in report
        assert "Slowest 'trial' spans" in report
        assert "trial_index=1" in report

    def test_nested_stage_shares_do_not_double_count(self):
        # a parent covering the whole trace with a child covering 60% of it:
        # shares are self time over wall time, so they sum to 100%, not 160%
        report = render_trace_summary([
            _record("parent", "1.0", None, 0.0, 10.0),
            _record("child", "1.1", "1.0", 2.0, 8.0),
        ])
        table = report.split("Time per stage")[1].split("\n\n")[0]
        shares = {}
        for line in table.splitlines():
            cells = [cell.strip() for cell in line.split("|")]
            if cells[0] in ("parent", "child"):
                shares[cells[0]] = int(cells[-1].rstrip("%"))
        assert shares == {"child": 60, "parent": 40}
        assert sum(shares.values()) <= 100

    def test_empty_trace(self):
        assert render_trace_summary([]) == "empty trace (0 spans)"
