"""The benchmark's workloads: inputs, set-up, one round of requests,
and the check of every answer.

Each workload drives the program only through its public API:
``generate_workload`` and ``HybridWarehouse`` loading,
``algorithm_by_name(...).run``, and ``QueryService.submit``/``drain``
with SQL text.  A *round* is the workload's fixed request set; every
round does the same work, so a run attempts whole rounds and its share
of failed operations does not depend on how long it ran.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from perfbench.reference import (
    Thresholds,
    as_rows,
    paper_query_counts,
    rows_multiset,
)

#: Set-ups per run: at least ``SETUP_REPEATS``, and more until
#: ``SETUP_SECONDS`` have been spent; ``setup_s`` is their median.  The
#: first set-ups of a process run on cold memory and are the slowest,
#: and the host's speed drifts over seconds, so a set-up of 0.1 s needs
#: many repeats for its median to hold still from run to run.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0

#: The paper's Section 5 workload shape (Fig. 9/10 default point).
SELECTIVITIES = dict(sigma_t=0.1, sigma_l=0.4, s_t=0.2, s_l=0.1)

#: Phase kinds the join traces price; any other kind is summed as
#: ``other``.
PHASE_KINDS = ("db_scan", "db_cpu", "db_shuffle", "bloom", "hdfs_scan",
               "cpu", "shuffle", "transfer", "latency", "other")


@dataclass(frozen=True)
class DataShape:
    """Generated table sizes; ``scale`` is rows over paper-scale rows,
    so simulated seconds always refer to the paper's 15 B-row L."""

    t_rows: int
    l_rows: int
    n_keys: int
    key_skew: float = 0.0

    @property
    def scale(self) -> float:
        return self.l_rows / 15e9


@dataclass
class Prepared:
    """A loaded warehouse plus what the checks need."""

    workload: object
    warehouse: object
    setup_s: float
    setup_parts: Dict[str, float]
    requests: list = field(default_factory=list)
    expected: Dict[object, object] = field(default_factory=dict)


@dataclass
class Round:
    """What one round of requests measured."""

    host_s: float
    cpu_s: float
    attempted: int
    failed: int
    wrong: int
    query_host_s: List[float]
    sim_latency_s: List[float]
    executed: List[dict]
    service: Dict[str, float] = field(default_factory=dict)

    @property
    def answered(self) -> int:
        return self.attempted - self.failed


def summarize(join_result) -> dict:
    """The deterministic figures of one executed query."""
    stats = join_result.stats
    shipped = join_result.trace.metadata.get("bytes_shipped", {})
    kinds = defaultdict(float)
    for phase in join_result.trace:
        kind = phase.kind if phase.kind in PHASE_KINDS else "other"
        kinds[kind] += phase.seconds
    return {
        "sim_s": join_result.total_seconds,
        "bytes": {category: shipped.get(category, 0.0)
                  for category in ("export", "shuffle", "relay", "stitch",
                                   "cross_cluster")},
        "rows_scanned": stats.hdfs_rows_scanned,
        "rows_after_predicates": stats.hdfs_rows_after_predicates,
        "rows_after_bloom": stats.hdfs_rows_after_bloom,
        "tuples_shuffled": stats.hdfs_tuples_shuffled,
        "tuples_sent": stats.db_tuples_sent,
        "output_tuples": stats.join_output_tuples,
        "kinds": dict(kinds),
    }


def _setup_once(shape: DataShape, seed: int):
    from repro import (
        HybridWarehouse,
        WorkloadSpec,
        default_config,
        generate_workload,
    )

    t0 = time.perf_counter()
    workload = generate_workload(WorkloadSpec(
        **SELECTIVITIES, t_rows=shape.t_rows, l_rows=shape.l_rows,
        n_keys=shape.n_keys, key_skew=shape.key_skew, seed=seed,
    ))
    t1 = time.perf_counter()
    warehouse = HybridWarehouse(default_config(scale=shape.scale))
    warehouse.load_db_table("T", workload.t_table, distribute_on="uniqKey")
    warehouse.database.create_index("T", "idx_pred", ["corPred", "indPred"])
    warehouse.database.create_index(
        "T", "idx_bloom", ["corPred", "indPred", "joinKey"])
    t2 = time.perf_counter()
    warehouse.load_hdfs_table("L", workload.l_table, "parquet")
    t3 = time.perf_counter()
    parts = {"generate_workload": t1 - t0, "load_db": t2 - t1,
             "load_hdfs": t3 - t2}
    return workload, warehouse, parts


def set_up(shape: DataShape, seed: int) -> Prepared:
    """Generate and load repeatedly (see ``SETUP_SECONDS``); keep the
    last.

    Each earlier warehouse is dropped before the next is built, so the
    repeats do not raise the peak memory.
    """
    totals, parts = [], defaultdict(list)
    workload = warehouse = None
    while len(totals) < SETUP_REPEATS or sum(totals) < SETUP_SECONDS:
        workload = warehouse = None
        gc.collect()
        workload, warehouse, timing = _setup_once(shape, seed)
        totals.append(sum(timing.values()))
        for name, seconds in timing.items():
            parts[name].append(seconds)
    return Prepared(
        workload=workload, warehouse=warehouse,
        setup_s=statistics.median(totals),
        setup_parts={name: statistics.median(values)
                     for name, values in parts.items()},
    )


def _columns(table, names) -> Dict[str, np.ndarray]:
    return {name: table.column(name) for name in names}


def reference_rows(workload, thresholds: Thresholds):
    """The independent answer as a ``(prefix, count)`` row multiset."""
    t_columns = _columns(workload.t_table,
                         ("joinKey", "corPred", "indPred", "predAfterJoin"))
    l_columns = _columns(workload.l_table,
                         ("joinKey", "corPred", "indPred", "predAfterJoin",
                          "groupByExtractCol"))
    urls = workload.l_table.dictionary("groupByExtractCol")
    return as_rows(paper_query_counts(t_columns, l_columns, urls,
                                      thresholds))


def paper_thresholds(workload, t_factor: float = 1.0,
                     l_factor: float = 1.0) -> Thresholds:
    """The paper query's constants, independent thresholds scaled."""
    t, l = workload.t_thresholds, workload.l_thresholds
    return Thresholds(
        t_cor=t.cor_threshold, t_ind=round(t.ind_threshold * t_factor),
        l_cor=l.cor_threshold, l_ind=round(l.ind_threshold * l_factor),
    )


class _Timed:
    """Wall and CPU time of one timed unit, with garbage collected
    before it and the collector off inside it."""

    def __enter__(self):
        gc.collect()
        gc.disable()
        self.wall = time.perf_counter()
        self.cpu = time.process_time()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.wall
        self.cpu = time.process_time() - self.cpu
        gc.enable()
        return False


# ----------------------------------------------------------------------
# Batch workloads: one client, closed loop over algorithms
# ----------------------------------------------------------------------
#: The algorithms a batch round runs, in order: the paper's DB-side and
#: HDFS-side families.
ALGORITHMS = ("db", "db(BF)", "broadcast", "repartition", "repartition(BF)",
              "zigzag")


@dataclass(frozen=True)
class BatchWorkload:
    """The paper query run by each algorithm in turn, one at a time."""

    name: str
    shape: DataShape

    def prepare(self, seed: int) -> Prepared:
        from repro import build_paper_query

        prepared = set_up(self.shape, seed)
        query = build_paper_query(prepared.workload)
        prepared.requests = [(algorithm, query)
                             for algorithm in ALGORITHMS]
        return prepared

    def compute_reference(self, prepared: Prepared) -> None:
        prepared.expected["paper"] = reference_rows(
            prepared.workload, paper_thresholds(prepared.workload))

    def run_round(self, prepared: Prepared, recorder=None,
                  label: str = "") -> Round:
        from repro import algorithm_by_name

        expected = prepared.expected["paper"]
        result = Round(host_s=0.0, cpu_s=0.0, attempted=0, failed=0,
                       wrong=0, query_host_s=[], sim_latency_s=[],
                       executed=[])
        for index, (algorithm, query) in enumerate(prepared.requests):
            runner = algorithm_by_name(algorithm)
            if recorder is not None:
                recorder.set_query(f"{label}/{algorithm}")
            result.attempted += 1
            try:
                with _Timed() as timed:
                    join_result = runner.run(prepared.warehouse, query)
            except Exception as exc:  # counted, reported, and the round goes on
                print(f"error: {algorithm}: {type(exc).__name__}: {exc}")
                result.failed += 1
                continue
            result.host_s += timed.wall
            result.cpu_s += timed.cpu
            result.query_host_s.append(timed.wall)
            if rows_multiset(join_result.result.to_rows()) != expected:
                print(f"error: {algorithm} returned rows that differ from "
                      "the reference")
                result.failed += 1
                result.wrong += 1
                continue
            summary = summarize(join_result)
            result.sim_latency_s.append(summary["sim_s"])
            result.executed.append(summary)
        return result


# ----------------------------------------------------------------------
# Service mix: many SQL arrivals from several tenants, open loop
# ----------------------------------------------------------------------
#: Independent-threshold factors of the T and L predicates; every pair
#: is one distinct query text.
T_FACTORS = tuple(round(float(f), 4) for f in np.linspace(1.0, 0.2, 13))
L_FACTORS = (1.0, 0.6, 0.2)

#: Arrivals that repeat the exact text of an earlier one.
REPEATS = 11

#: Simulated seconds between arrivals.
ARRIVAL_GAP_S = 120.0

#: Tenants the arrivals go to, round-robin.
TENANTS = 3

#: Seed of the arrival order; fixed, so ``--seed`` changes the tables
#: but not the shape of the stream.
STREAM_SEED = 2015


def paper_sql(thresholds: Thresholds) -> str:
    """SQL text of the paper query with the given constants."""
    return (
        "SELECT extract_group(L.groupByExtractCol), COUNT(*) FROM T, L "
        f"WHERE T.corPred <= {thresholds.t_cor} "
        f"AND T.indPred <= {thresholds.t_ind} "
        f"AND L.corPred <= {thresholds.l_cor} "
        f"AND L.indPred <= {thresholds.l_ind} "
        "AND T.joinKey = L.joinKey "
        "AND days(T.predAfterJoin) - days(L.predAfterJoin) >= 0 "
        "AND days(T.predAfterJoin) - days(L.predAfterJoin) <= 1 "
        "GROUP BY extract_group(L.groupByExtractCol)"
    )


@dataclass(frozen=True)
class ServiceWorkload:
    """SQL arrivals on the simulated clock through a default service.

    Every distinct (T factor, L factor) pair arrives once; ``REPEATS``
    more arrivals repeat the exact text of an earlier one.  The order
    comes from ``STREAM_SEED``, so the run's seed changes the tables
    (and every estimate sampled from them) but not the shape of the
    stream.  Arrivals are ``ARRIVAL_GAP_S`` simulated seconds apart and
    go to the ``TENANTS`` round-robin.  Each round builds a fresh
    ``QueryService``, so every round does the same work.
    """

    name: str
    shape: DataShape

    def arrivals(self, workload) -> List[Tuple[str, Thresholds]]:
        """The arrival order as (SQL text, constants) pairs."""
        rng = np.random.default_rng(STREAM_SEED)
        distinct = [paper_thresholds(workload, t, l)
                    for t in T_FACTORS for l in L_FACTORS]
        stream = [distinct[i] for i in rng.permutation(len(distinct))]
        for _ in range(REPEATS):
            position = int(rng.integers(1, len(stream)))
            stream.insert(position + 1,
                          stream[int(rng.integers(0, position + 1))])
        return [(paper_sql(thresholds), thresholds) for thresholds in stream]

    def prepare(self, seed: int) -> Prepared:
        prepared = set_up(self.shape, seed)
        prepared.requests = [
            (text, f"tenant-{index % TENANTS}", index * ARRIVAL_GAP_S)
            for index, (text, _) in enumerate(
                self.arrivals(prepared.workload))
        ]
        return prepared

    def compute_reference(self, prepared: Prepared) -> None:
        for text, thresholds in self.arrivals(prepared.workload):
            if text not in prepared.expected:
                prepared.expected[text] = reference_rows(
                    prepared.workload, thresholds)

    def run_round(self, prepared: Prepared, recorder=None,
                  label: str = "") -> Round:
        from repro import QueryService

        if recorder is not None:
            recorder.set_query(label)
        with _Timed() as timed:
            service = QueryService(prepared.warehouse)
            tickets = [service.submit(text, tenant=tenant, at=at)
                       for text, tenant, at in prepared.requests]
            report = service.drain()
        result = Round(host_s=timed.wall, cpu_s=timed.cpu,
                       attempted=len(tickets), failed=0, wrong=0,
                       query_host_s=[], sim_latency_s=[], executed=[])
        for (text, _tenant, _at), ticket in zip(prepared.requests, tickets):
            outcome = ticket.outcome
            if outcome is None or not outcome.ok:
                status = "missing" if outcome is None else outcome.status
                print(f"error: arrival q{ticket.id} was {status}")
                result.failed += 1
                continue
            if rows_multiset(outcome.result.to_rows()) != \
                    prepared.expected[text]:
                source = "cache" if outcome.cache_hit else outcome.algorithm
                print(f"error: arrival q{ticket.id} ({source}) returned rows "
                      "that differ from the reference")
                result.failed += 1
                result.wrong += 1
                continue
            result.sim_latency_s.append(outcome.latency)
            if not outcome.cache_hit:
                result.executed.append(summarize(outcome.join_result))
        counters = service.metrics
        for cache, metric in (("result", "result"), ("bloom", "bloom"),
                              ("joinindex", "join_index")):
            hits = counters.counter(f"cache.{cache}.hits").value
            misses = counters.counter(f"cache.{cache}.misses").value
            result.service[f"{metric}_cache.hit_ratio"] = (
                hits / (hits + misses) if hits + misses else 0.0)
        result.service["queue_wait_s_p50"] = statistics.median(
            outcome.queue_wait for outcome in report.outcomes)
        return result


WORKLOADS = {
    workload.name: workload for workload in (
        BatchWorkload(
            name="paper-joins",
            shape=DataShape(t_rows=640_000, l_rows=6_000_000, n_keys=6_400),
        ),
        BatchWorkload(
            name="skewed-joins",
            shape=DataShape(t_rows=80_000, l_rows=750_000, n_keys=800,
                            key_skew=0.5),
        ),
        ServiceWorkload(
            name="service-mix",
            shape=DataShape(t_rows=64_000, l_rows=600_000, n_keys=640),
        ),
    )
}


def workload_by_name(name: str):
    try:
        return WORKLOADS[name]
    except KeyError:
        raise SystemExit(
            f"error: unknown workload {name!r}; choose from "
            f"{', '.join(WORKLOADS)}") from None
