"""How steady is the benchmark?  Runs and compares sets of runs.

Each run is a fresh process of ``perfbench/run.py``.  For every metric
the command prints the median, the quartiles (``statistics.quantiles``
with ``n=4``) and the spread, the distance between the quartiles as a
share of the median, next to the metric's bound in ``BENCHMARK.json``.
With two sets it also prints how far the second median moved from the
first, counted in the worse direction, and whether the share of failed
operations is the same.

Examples (from the repository root)::

    # ten seeds of one workload, end-to-end metrics
    python3 perfbench/steady.py --workload paper-joins --seeds 1-10

    # the same seeds twice, then compare the two sets
    python3 perfbench/steady.py --workload service-mix --seeds 1-10 \\
        --sets 2 --out perfbench/results/service-mix.json

    # compare two saved sets (for example a parent and a change)
    python3 perfbench/steady.py --compare before.json after.json

Every run lasts ``run_seconds`` of ``BENCHMARK.json``, the length its
bounds were set at.  Exit status 1 when a spread exceeds its bound, a
median moved by more than its bound, or the failed shares differ.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text):
    """``"1-10"`` or ``"1,4,9"`` -> list of ints."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    """One fresh benchmark process; returns its parsed result line."""
    command = [sys.executable, str(RUN), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=900)
    if completed.returncode != 0:
        raise SystemExit(f"error: {' '.join(command)} exited "
                         f"{completed.returncode}:\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    return result


def summarize(runs, name):
    values = [run["metrics"][name]["value"] for run in runs]
    median = statistics.median(values)
    # A single run (a traced run, say) has no quartiles of its own.
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median, median, median))
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "unit": runs[0]["metrics"][name]["unit"]}


def failed_share(runs):
    return (sum(run["failed"] for run in runs),
            sum(run["attempted"] for run in runs))


def report_set(runs, metrics, label):
    """Print one set's table; returns whether every spread is in bound."""
    ok = True
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    correct = all(run["correct"] for run in runs)
    print(f"{label}: {len(runs)} runs, {failed}/{attempted} failed, "
          f"correct={correct}")
    print(f"  {'metric':<34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for metric in metrics:
        name = metric["name"]
        row = summarize(runs, name)
        bound = metric.get("bound")
        verdict = ""
        if bound is not None:
            if row["spread"] > bound:
                verdict, ok = "OVER BOUND", False
            elif row["spread"] > bound / 3:
                verdict = "over bound/3"
        print(f"  {name:<34s} {row['median']:12.6g} {row['q1']:12.6g} "
              f"{row['q3']:12.6g} {row['spread']:8.2%} "
              f"{'' if bound is None else format(bound, '.0%'):>6s} "
              f"{verdict}")
    return ok and correct


def compare_sets(first, second, metrics):
    """Print how far each median moved; returns whether all held."""
    ok = True
    print("second set against the first (positive = worse):")
    for metric in metrics:
        name, bound = metric["name"], metric.get("bound")
        before = summarize(first, name)["median"]
        after = summarize(second, name)["median"]
        change = (after - before) / before if before else 0.0
        worse = change if metric["better"] == "lower" else -change
        verdict = ""
        if bound is not None and worse > bound:
            verdict, ok = "WORSE THAN BOUND", False
        print(f"  {name:<34s} {before:12.6g} -> {after:12.6g} "
              f"{worse:+8.2%} {verdict}")
    first_share, second_share = failed_share(first), failed_share(second)
    same = (first_share[0] * second_share[1]
            == second_share[0] * first_share[1])
    print(f"  failed share {first_share[0]}/{first_share[1]} vs "
          f"{second_share[0]}/{second_share[1]}: "
          f"{'same' if same else 'DIFFERENT'}")
    return ok and same


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--out", type=Path,
                        help="save every run's result line as JSON")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("FIRST", "SECOND"),
                        help="compare two saved sets instead of running")
    args = parser.parse_args(argv)
    benchmark = load_benchmark()
    section = "per_layer" if args.trace else "end_to_end"

    if args.compare:
        first, second = (json.loads(path.read_text())["sets"][0]
                         for path in args.compare)
        metrics = benchmark["end_to_end"]
        ok = report_set(first, metrics, str(args.compare[0]))
        ok &= report_set(second, metrics, str(args.compare[1]))
        ok &= compare_sets(first, second, metrics)
        return 0 if ok else 1

    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    seconds = benchmark["run_seconds"]
    seeds = parse_seeds(args.seeds)
    metrics = benchmark[section]
    sets = []
    for index in range(args.sets):
        runs = []
        for seed in seeds:
            runs.append(run_once(args.workload, seed, seconds, args.trace))
            print(f"set {index + 1} seed {seed}: done", flush=True)
        sets.append(runs)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "workload": args.workload, "seeds": seeds, "seconds": seconds,
            "trace": args.trace, "sets": sets}, indent=1))
    ok = True
    for index, runs in enumerate(sets):
        ok &= report_set(runs, metrics, f"{args.workload} set {index + 1}")
    if len(sets) == 2 and not args.trace:
        ok &= compare_sets(sets[0], sets[1], metrics)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
