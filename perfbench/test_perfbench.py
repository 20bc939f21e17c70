"""Tests for the benchmark's own code: every output check must fire on
a bad result, and BENCHMARK.json must name what run.py reports.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json

from common import END_TO_END, ROOT, make_value, parse_value, require_source_tree

require_source_tree()

from checks import (  # noqa: E402 - repro must be importable first
    check_exit_codes,
    check_explore,
    check_lateness,
    check_read,
    check_readback,
    check_scan,
)
from layers import LIVE_LAYER, outermost_ms, self_time_ms  # noqa: E402

WRITTEN = {7: {0, 3}, 8: {0}, 9: {0, 5}}


def test_value_roundtrip():
    assert parse_value(make_value(42, 17)) == (42, 17)
    assert parse_value(b"short") is None
    assert parse_value(b"x" * 100) is None


class TestRead:
    def test_written_value_passes(self):
        assert check_read(7, make_value(7, 3), WRITTEN) == []

    def test_missing_value_fires(self):
        assert check_read(7, None, WRITTEN)

    def test_other_keys_value_fires(self):
        assert check_read(7, make_value(8, 0), WRITTEN)

    def test_unwritten_version_fires(self):
        assert check_read(7, make_value(7, 4), WRITTEN)

    def test_foreign_bytes_fire(self):
        assert check_read(7, b"v" * 100, WRITTEN)


def _row(key: int, version: int = 0):
    return (b"%020d" % key, make_value(key, version))


class TestScan:
    def test_sorted_rows_in_range_pass(self):
        assert check_scan([_row(7, 3), _row(8), _row(9, 5)], 7, 10, 3, WRITTEN) == []

    def test_unsorted_rows_fire(self):
        assert check_scan([_row(8), _row(7)], 7, 10, 3, WRITTEN)

    def test_duplicate_rows_fire(self):
        assert check_scan([_row(8), _row(8)], 7, 10, 3, WRITTEN)

    def test_row_outside_range_fires(self):
        assert check_scan([_row(7), _row(9)], 7, 9, 3, WRITTEN)

    def test_rows_over_limit_fire(self):
        assert check_scan([_row(7), _row(8), _row(9)], 7, 10, 2, WRITTEN)

    def test_wrong_value_fires(self):
        assert check_scan([(b"%020d" % 8, make_value(9, 0))], 7, 10, 3, WRITTEN)


def test_readback_stale_value_fires():
    assert check_readback(5, make_value(5, 9), 9) == []
    assert check_readback(5, make_value(5, 8), 9)
    assert check_readback(5, None, 9)


def test_unclean_exit_fires():
    assert check_exit_codes({"ingestor-0": 0, "reader-0": 0}) == []
    assert check_exit_codes({"ingestor-0": 0, "compactor-1": 3})
    assert check_exit_codes({"reader-0": -9})


def test_explore_checks_fire():
    assert check_explore(True, [["a", "b"], ["a", "b"]]) == []
    assert check_explore(False, [["a", "b"]])
    assert check_explore(True, [["a", "b"], ["a", "c"]])


def test_lateness_marks_run_invalid():
    assert check_lateness(10.0, 50.0) == []
    assert check_lateness(80.0, 50.0)


def test_self_time_subtracts_children():
    spans = [
        ("store.commit", 0.0, 1.0, -1, None),
        ("fs.remove", 0.1, 0.3, 0, None),
        ("fs.remove", 0.5, 0.6, 0, None),
    ]
    self_ms = self_time_ms(spans)
    assert round(self_ms["store.commit"], 6) == 700.0
    assert round(self_ms["fs.remove"], 6) == 300.0


def test_nested_view_builds_count_once():
    spans = [
        ("sortedview.rebuild", 0.0, 1.0, -1, None),
        ("sortedview.build", 0.2, 0.9, 0, None),
        ("sortedview.build", 2.0, 2.5, -1, None),
        ("fs.remove", 3.0, 3.1, -1, None),
    ]
    names = {"sortedview.build", "sortedview.rebuild"}
    assert round(outermost_ms(spans, names, (0.0, 10.0)), 6) == 1500.0
    assert round(outermost_ms(spans, names, (1.5, 10.0)), 6) == 500.0


def test_tracer_restore_unpatches():
    from repro.live import wire
    from tracing import Tracer, install_wire

    original = wire.decode_envelope
    tracer = Tracer()
    install_wire(tracer)
    assert wire.decode_envelope is not original
    tracer.restore()
    assert wire.decode_envelope is original


def test_mixed_schedule_is_seeded():
    from live import mixed_schedule

    keys = list(range(0, 1000, 10))
    first = mixed_schedule(3, 2.0, keys, 1000)
    assert first == mixed_schedule(3, 2.0, keys, 1000)
    assert first != mixed_schedule(4, 2.0, keys, 1000)
    assert all(op.due < 2.0 for op in first)
    assert {op.kind for op in first} == {"read", "upsert", "scan"}


def test_benchmark_json_matches_reported_metrics():
    from run import BENCHMARKED, OVERHEAD

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(BENCHMARKED)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == LIVE_LAYER + OVERHEAD
