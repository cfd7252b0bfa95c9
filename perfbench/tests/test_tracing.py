"""Span recording, self times and the tail percentile."""

import json

from perfbench.run import tail
from perfbench.tracing import JOIN_RUN, SpanRecorder, self_times


def test_self_time_subtracts_children():
    spans = [
        ("outer", 0.0, 10.0, -1, "q"),
        ("inner", 1.0, 4.0, 0, "q"),
        ("inner", 5.0, 6.0, 0, "q"),
        ("leaf", 2.0, 3.0, 1, "q"),
    ]
    seconds, calls = self_times(spans)
    assert seconds == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}
    assert calls == {"outer": 1, "inner": 2, "leaf": 1}
    assert sum(seconds.values()) == 10.0


def test_tail_keeps_ten_samples_beyond():
    values = list(range(100))
    assert tail(values) == 89
    assert sum(1 for v in values if v > tail(values)) == 10
    assert tail([3.0, 1.0, 2.0]) == 3.0


def test_recorder_wraps_layers_and_restores_them(tmp_path):
    from repro.core.bloom import BloomFilter
    from repro.core.joins.repartition import RepartitionJoin

    original_add = BloomFilter.add
    original_run = RepartitionJoin.run
    recorder = SpanRecorder()
    recorder.install()
    try:
        assert BloomFilter.add is not original_add
        bloom = BloomFilter(1024, 2)
        bloom.add([1, 2, 3])  # inactive: no span
        recorder.active = True
        recorder.set_query("r1")
        bloom.add([4])
        recorder.active = False
    finally:
        recorder.uninstall()
    assert BloomFilter.add is original_add
    assert RepartitionJoin.run is original_run
    assert [(name, parent, query)
            for name, _s, _e, parent, query in recorder.spans] == \
        [("bloom.add", -1, "r1")]
    recorder.write(tmp_path / "s.json", tmp_path / "c.json")
    events = json.loads((tmp_path / "c.json").read_text())["traceEvents"]
    assert events[0]["name"] == "bloom.add" and events[0]["ph"] == "X"
    assert JOIN_RUN == "joins.run"
