"""Run one workload of the hybrid-join benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-joins --seed 1 \\
        --seconds 20 --trace 0

The run builds its inputs from ``--seed``, sets up several times,
runs one untimed warm-up round, then at least three whole timed
rounds and more while the next fits in ``--seconds``, checking every
answer against an independent reference.  With ``--trace 0`` it prints
the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced rounds and prints the per-layer metrics, writing the spans
under ``perfbench/out/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os
import sys

#: Fixed before the interpreter starts: hash seed and one thread for
#: every numeric library.
PINNED_ENVIRONMENT = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

if __name__ == "__main__" and any(
        os.environ.get(name) != value
        for name, value in PINNED_ENVIRONMENT.items()):
    # Replace this process with one that has the pinned environment.
    os.execve(sys.executable,
              [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
              {**os.environ, **PINNED_ENVIRONMENT})

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.tracing import (  # noqa: E402
    CATCH_ALL_SPANS,
    SPAN_NAMES,
    SpanRecorder,
)
from perfbench.workloads import (  # noqa: E402
    PHASE_KINDS,
    BatchWorkload,
    workload_by_name,
)

#: Span names whose call counts are reported too.
COUNTED_CALLS = ("kernels.join_index_build", "kernels.join_index_probe",
                 "hdfs.read_block", "bloom.add", "bloom.contains",
                 "sql.sample_estimate")

#: Timed rounds every run makes, however long they take; host metrics
#: are medians over them.
MIN_ROUNDS = 3


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    With ten samples or fewer there is no such percentile; the largest
    value is returned instead.
    """
    ordered = sorted(values)
    return ordered[len(ordered) - 11] if len(ordered) > 10 else ordered[-1]


def peak_rss_mb():
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def run_rounds(workload, prepared, seconds, recorder=None):
    """``MIN_ROUNDS`` whole rounds, then more while the next is expected
    to end within ``seconds``.

    The workloads' rounds are sized so that ``MIN_ROUNDS`` of them take
    14-19 s on the host the benchmark was tuned on; where they take
    longer than ``seconds``, the run measures for longer than
    ``seconds``.  With a recorder, rounds alternate untraced and
    traced, starting untraced, so at least two untraced rounds and one
    traced round run.  Returns ``(untraced, traced)`` rounds.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    index = 0
    while True:
        tracing = recorder is not None and index % 2 == 1
        if recorder is not None:
            recorder.active = tracing
        round_ = workload.run_round(prepared, recorder, label=f"r{index}")
        if recorder is not None:
            recorder.active = False
        (traced if tracing else untraced).append(round_)
        index += 1
        elapsed = time.perf_counter() - start
        if index >= MIN_ROUNDS and elapsed + elapsed / index > seconds:
            return untraced, traced


def _deterministic(first_round):
    """Per-executed-query means of one round (every round repeats them)."""
    executed = first_round.executed
    return {
        "sim_s": _mean([q["sim_s"] for q in executed]),
        "bytes": {category: _mean([q["bytes"][category] for q in executed])
                  for category in ("export", "shuffle", "relay", "stitch",
                                   "cross_cluster")},
        "counts": {name: _mean([q[name] for q in executed])
                   for name in ("rows_scanned", "rows_after_predicates",
                                "rows_after_bloom", "tuples_shuffled",
                                "tuples_sent", "output_tuples")},
        "kinds": {kind: _mean([q["kinds"].get(kind, 0.0) for q in executed])
                  for kind in PHASE_KINDS},
    }


def end_to_end_metrics(workload, prepared, rounds):
    """The user-visible metrics of an untraced run."""
    per_round_qps = [r.answered / r.host_s for r in rounds]
    if isinstance(workload, BatchWorkload):
        query_s = statistics.median(
            [s for r in rounds for s in r.query_host_s])
    else:
        # Queries run inside one drain: the median round's host
        # seconds per arrival.
        query_s = statistics.median([r.host_s / r.attempted for r in rounds])
    fixed = _deterministic(rounds[0])
    latencies = rounds[0].sim_latency_s
    return {
        "query_s_p50": (query_s, "s"),
        "queries_per_s": (statistics.median(per_round_qps), "1/s"),
        "sim_s_per_query": (fixed["sim_s"], "s"),
        "cross_cluster_mb_per_query": (
            fixed["bytes"]["cross_cluster"] / 1e6, "MB"),
        "sim_latency_s_p50": (statistics.median(latencies), "s"),
        "sim_latency_s_tail": (tail(latencies), "s"),
        "setup_s": (prepared.setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer_metrics(prepared, untraced, traced, recorder):
    """Layer self times per query from the traced rounds, plus the
    counts and the set-up split."""
    queries = sum(r.answered for r in traced)
    traced_wall = sum(r.host_s for r in traced)
    seconds, calls = recorder.self_times()
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = (seconds.get(name, 0.0) / queries, "s")
    for name in COUNTED_CALLS:
        metrics[f"{name}.calls"] = (calls.get(name, 0) / queries, "count")
    for part, value in prepared.setup_parts.items():
        metrics[f"setup.{part}_s"] = (value, "s")
    fixed = _deterministic(traced[0])
    counts = fixed["counts"]
    for metric, key in (("jen.rows_scanned", "rows_scanned"),
                        ("jen.rows_after_predicates", "rows_after_predicates"),
                        ("bloom.rows_after_bloom", "rows_after_bloom"),
                        ("jen.tuples_shuffled", "tuples_shuffled"),
                        ("edw.tuples_sent", "tuples_sent"),
                        ("join.output_tuples", "output_tuples")):
        metrics[metric] = (counts[key], "count")
    metrics["bloom.pass_ratio"] = (
        counts["rows_after_bloom"] / counts["rows_after_predicates"]
        if counts["rows_after_predicates"] else 1.0, "ratio")
    for category in ("export", "shuffle", "relay", "stitch"):
        metrics[f"net.{category}_mb"] = (
            fixed["bytes"][category] / 1e6, "MB")
    for kind in PHASE_KINDS:
        metrics[f"sim.{kind}_s"] = (fixed["kinds"][kind], "s")
    service = traced[0].service
    for name in ("result_cache.hit_ratio", "bloom_cache.hit_ratio",
                 "join_index_cache.hit_ratio"):
        metrics[f"service.{name}"] = (service.get(name, 0.0), "ratio")
    metrics["service.queue_wait_s_p50"] = (
        service.get("queue_wait_s_p50", 0.0), "s")
    every = untraced + traced
    metrics["host.off_cpu_s"] = (
        sum(r.host_s - r.cpu_s for r in every)
        / sum(r.answered for r in every), "s")
    metrics["trace.covered_fraction"] = (
        sum(seconds.values()) / traced_wall, "ratio")
    # The catch-all spans wrap whole timed units, so their self time
    # absorbs whatever no named layer covers; this share leaves it out.
    metrics["trace.layer_fraction"] = (
        sum(value for name, value in seconds.items()
            if name not in CATCH_ALL_SPANS) / traced_wall, "ratio")
    metrics["trace.overhead_fraction"] = (
        statistics.median(r.host_s for r in traced)
        / statistics.median(r.host_s for r in untraced) - 1.0, "ratio")
    return metrics


def declared_metric_names(trace):
    """Metric names BENCHMARK.json declares for this mode, if present."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    declared = json.loads(path.read_text())
    section = "per_layer" if trace else "end_to_end"
    return {entry["name"] for entry in declared[section]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workload_by_name(args.workload)

    recorder = None
    if args.trace:
        recorder = SpanRecorder()
        recorder.install()
    prepared = workload.prepare(args.seed)
    peak_before_reference = peak_rss_mb()
    workload.compute_reference(prepared)
    peak_after_reference = peak_rss_mb()
    warmup = workload.run_round(prepared, label="warmup")
    untraced, traced = run_rounds(workload, prepared, args.seconds,
                                  recorder)
    timed = untraced + traced
    if args.trace:
        recorder.uninstall()
        metrics = per_layer_metrics(prepared, untraced, traced, recorder)
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        recorder.write(out / f"{stem}.spans.json",
                       out / f"{stem}.chrome.json")
    else:
        metrics = end_to_end_metrics(workload, prepared, timed)

    if (peak_after_reference > peak_before_reference
            and peak_rss_mb() == peak_after_reference):
        raise SystemExit("error: the reference computation set the peak "
                         "memory, so peak_rss_mb would measure it")
    declared = declared_metric_names(args.trace)
    if declared is not None and declared != set(metrics):
        raise SystemExit(
            "error: metrics differ from BENCHMARK.json: "
            f"missing {sorted(declared - set(metrics))}, "
            f"extra {sorted(set(metrics) - declared)}")

    attempted = sum(r.attempted for r in timed)
    failed = sum(r.failed for r in timed)
    wrong = warmup.wrong + sum(r.wrong for r in timed)
    print(f"{args.workload} seed={args.seed}: {len(timed)} timed rounds, "
          f"{attempted} operations, {failed} failed, {wrong} wrong answers")
    print("  round host seconds: "
          + " ".join(f"{r.host_s:.3f}" for r in timed))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
