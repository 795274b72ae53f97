"""Unit tests of the benchmark's percentile, self-time and import-time helpers.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from harness import SweepForm, axis_token  # noqa: E402
from stats import (  # noqa: E402
    interval_union,
    layer_totals,
    parse_importtime,
    self_times,
    tail_percentile,
    tree_residuals,
    tree_roots,
)


def span(span_id, parent, name, start, end, count=0):
    return (span_id, parent, name, start, end, count)


class TestTailPercentile:
    def test_keeps_ten_samples_beyond(self):
        samples = list(range(1, 101))  # 1..100
        percentile, value, beyond = tail_percentile(samples)
        assert percentile == 90.0
        assert value == 90
        assert beyond == 10
        assert sum(s > value for s in samples) == 10

    def test_order_does_not_matter(self):
        assert tail_percentile([5, 1, 4, 2, 3] * 5) == tail_percentile(sorted([5, 1, 4, 2, 3] * 5))

    def test_twenty_samples_gives_the_median(self):
        assert tail_percentile(list(range(20))) == (50.0, 9, 10)

    def test_too_few_samples_falls_back_to_the_maximum(self):
        assert tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)
        # 12 samples: rank n - 10 would sit below the median
        assert tail_percentile(list(range(12))) == (100.0, 11, 0)

    def test_no_samples(self):
        percentile, value, beyond = tail_percentile([])
        assert math.isnan(percentile) and math.isnan(value) and beyond == 0


class TestIntervalUnion:
    def test_overlapping_and_disjoint(self):
        assert interval_union([(0, 2), (1, 3), (5, 6)]) == 4

    def test_nested_and_touching(self):
        assert interval_union([(0, 10), (2, 3), (10, 12)]) == 12

    def test_empty(self):
        assert interval_union([]) == 0


class TestSelfTimes:
    def test_parent_minus_children(self):
        spans = [
            span("r", None, "root", 0.0, 10.0),
            span("a", "r", "a", 1.0, 4.0),
            span("b", "r", "b", 5.0, 6.0),
            span("c", "a", "c", 2.0, 3.0),
        ]
        selfs = self_times(spans)
        assert selfs == {"r": 6.0, "a": 2.0, "b": 1.0, "c": 1.0}
        assert tree_residuals(spans, selfs, tree_roots(spans)) == [0.0]

    def test_overlapping_children_count_once(self):
        spans = [
            span("r", None, "root", 0.0, 10.0),
            span("a", "r", "a", 1.0, 5.0),
            span("b", "r", "b", 3.0, 7.0),
        ]
        selfs = self_times(spans)
        assert selfs["r"] == 4.0
        # the self check notices that the children overlap
        assert tree_residuals(spans, selfs, tree_roots(spans)) == [-2.0]

    def test_child_outside_its_parent_is_clipped_and_detected(self):
        spans = [span("r", None, "root", 0.0, 10.0), span("a", "r", "a", 8.0, 12.0)]
        selfs = self_times(spans)
        assert selfs["r"] == 8.0
        assert tree_residuals(spans, selfs, tree_roots(spans)) == [-2.0]

    def test_missing_parent_makes_a_root(self):
        spans = [span("x", "gone", "x", 0.0, 1.0), span("y", "x", "y", 0.2, 0.5)]
        roots = tree_roots(spans)
        assert roots == {"x": "x", "y": "x"}
        assert tree_residuals(spans, self_times(spans), roots) == [0.0]

    def test_layer_totals_sum_self_time_and_counters(self):
        spans = [
            span("r", None, "runner", 0.0, 4.0),
            span("g1", "r", "cache.get", 0.0, 1.0, 1),
            span("g2", "r", "cache.get", 2.0, 2.5, 0),
        ]
        totals = layer_totals(spans, self_times(spans))
        assert totals["cache.get"] == {"calls": 2, "self_s": 1.5, "count": 1}
        assert totals["runner"]["self_s"] == 2.5


def test_parse_importtime_sums_self_time_per_package():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:       250 |        350 | numpy",
        "import time:      2000 |       2400 |     scipy.signal",
        "import time:        40 |       2800 | repro.cli",
        "some other stderr line",
    ])
    assert parse_importtime(text) == pytest.approx(
        {"numpy": 350e-6, "scipy": 2000e-6, "repro": 40e-6}
    )


class TestSweepForm:
    def test_argv_round_trips_values(self):
        form = SweepForm("s", (("x", (0.1, 2)), ("flag", (True,)), ("name", ("Virtex-4 1FC",))),
                         seed=5, replicates=2)
        assert form.argv() == ["s", "--set", "x=0.1,2", "--set", "flag=true",
                               "--set", "name=Virtex-4 1FC", "--seed", "5", "--replicates", "2"]
        assert axis_token(60.0) == "60.0"
