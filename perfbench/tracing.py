"""Spans around the program's layer functions, recorded from outside.

The traced run wraps each listed public function of ``repro`` so that
every call opens a span: name, start, end, parent span and query id.
Nothing inside ``src/`` changes; the wrappers are installed on the
classes and modules at run time and removed afterwards.  Spans stay in
memory and are written at the end as JSON and as a Chrome trace-event
file that Perfetto (ui.perfetto.dev) opens.

A layer's self time is its spans' duration minus the part covered by
their child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Span name -> (module, attribute path) of the wrapped function.  The
#: attribute path is ``Class.method`` or a module-level function name.
LAYERS: Dict[str, Tuple[str, str]] = {
    "kernels.join_index_build": ("repro.kernels.joinindex",
                                 "JoinBuildIndex.__init__"),
    "kernels.join_index_probe": ("repro.kernels.joinindex",
                                 "JoinBuildIndex.probe"),
    "jen.distributed_scan": ("repro.jen.engine", "Jen.distributed_scan"),
    "jen.shuffle_by_key": ("repro.jen.engine", "Jen.shuffle_by_key"),
    "jen.join_and_aggregate": ("repro.jen.engine", "Jen.join_and_aggregate"),
    "hdfs.read_block": ("repro.hdfs.filesystem", "HdfsFileSystem.read_block"),
    "bloom.add": ("repro.core.bloom", "BloomFilter.add"),
    "bloom.contains": ("repro.core.bloom", "BloomFilter.contains"),
    "edw.filter_project": ("repro.edw.database",
                           "ParallelDatabase.filter_project"),
    "edw.build_global_bloom": ("repro.edw.database",
                               "ParallelDatabase.build_global_bloom"),
    "edw.execute_hybrid_join": ("repro.edw.database",
                                "ParallelDatabase.execute_hybrid_join"),
    "sim.replay_trace": ("repro.sim.replay", "replay_trace"),
    "sql.explain": ("repro.sql.engine", "SqlSession.explain"),
    "sql.sample_estimate": ("repro.sql.engine", "SqlSession.sample_estimate"),
    "sql.advise": ("repro.sql.engine", "SqlSession.advise"),
    "service.submit": ("repro.service.server", "QueryService.submit"),
    "service.drain": ("repro.service.server", "QueryService.drain"),
}

#: Every algorithm's ``run`` is recorded under this one name; it opens a
#: new query id, so the spans below it belong to that query.
JOIN_RUN = "joins.run"

#: Every span name the recorder can produce, in report order.
SPAN_NAMES = tuple(LAYERS) + (JOIN_RUN,)

#: Spans that wrap a whole timed unit (an algorithm run, or a service
#: round's submits and drain): their self time is whatever no other
#: span covers.
CATCH_ALL_SPANS = (JOIN_RUN, "service.submit", "service.drain")

Span = Tuple[str, float, float, int, str]


class SpanRecorder:
    """Collects spans while :attr:`active`; installs and removes the
    wrappers around the layer functions."""

    def __init__(self):
        self.active = False
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self._query = ""
        self._joins = 0
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def set_query(self, query_id: str) -> None:
        """Query id given to spans opened outside any algorithm run."""
        self._query = query_id

    def _wrap(self, name: str, function: Callable) -> Callable:
        recorder = self
        opens_query = name == JOIN_RUN

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not recorder.active:
                return function(*args, **kwargs)
            index = len(recorder.spans)
            parent = recorder._stack[-1] if recorder._stack else -1
            recorder.spans.append(None)
            recorder._stack.append(index)
            outer_query = recorder._query
            if opens_query:
                recorder._joins += 1
                recorder._query = f"{outer_query}/q{recorder._joins}"
            query = recorder._query
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                recorder._stack.pop()
                recorder._query = outer_query
                recorder.spans[index] = (name, start, end, parent, query)

        return traced

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Wrap every layer function and every algorithm's ``run``."""
        import importlib

        import repro  # noqa: F401  (binds every module that imports a layer)
        from repro.core.joins.base import ALGORITHMS, JoinAlgorithm

        for name, (module_name, path) in LAYERS.items():
            module = importlib.import_module(module_name)
            if "." in path:
                owner_name, attribute = path.split(".")
                self._patch(getattr(module, owner_name), attribute, name)
            else:
                original = getattr(module, path)
                # A module-level function is also bound by name in every
                # module that imported it; rebind all of them.
                for other in list(sys.modules.values()):
                    if (getattr(other, "__name__", "").startswith("repro")
                            and getattr(other, path, None) is original):
                        self._patch(other, path, name)
        seen = set()
        for algorithm in ALGORITHMS.values():
            for owner in algorithm.__mro__:
                if (owner is JoinAlgorithm or owner in seen
                        or "run" not in vars(owner)):
                    continue
                seen.add(owner)
                self._patch(owner, "run", JOIN_RUN)

    def _patch(self, owner, attribute: str, name: str) -> None:
        original = vars(owner)[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, self._wrap(name, original))

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    # -- analysis -------------------------------------------------------
    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Per span name: total self seconds and number of calls."""
        return self_times(self.spans)

    # -- export ---------------------------------------------------------
    def write(self, spans_path, chrome_path) -> None:
        """Write the spans as JSON and as Chrome trace events."""
        spans = self.spans
        origin = min((span[1] for span in spans), default=0.0)
        records = [
            {"id": index, "name": name, "start_s": start - origin,
             "end_s": end - origin, "parent": parent, "query": query}
            for index, (name, start, end, parent, query) in enumerate(spans)
        ]
        with open(spans_path, "w") as handle:
            json.dump({"spans": records}, handle)
        events = [
            {"name": record["name"], "ph": "X", "pid": 1, "tid": 1,
             "ts": record["start_s"] * 1e6,
             "dur": (record["end_s"] - record["start_s"]) * 1e6,
             "args": {"query": record["query"], "parent": record["parent"],
                      "id": record["id"]}}
            for record in records
        ]
        with open(chrome_path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)


def self_times(spans: List[Span]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self seconds and call counts per span name.

    ``spans`` are ``(name, start, end, parent index, query)`` tuples;
    a span's self time is its duration minus its children's durations.
    """
    child_seconds = defaultdict(float)
    for _name, start, end, parent, _query in spans:
        if parent >= 0:
            child_seconds[parent] += end - start
    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for index, (name, start, end, _parent, _query) in enumerate(spans):
        seconds[name] += (end - start) - child_seconds[index]
        calls[name] += 1
    return dict(seconds), dict(calls)
