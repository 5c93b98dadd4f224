"""Benchmark of the deniable_fit certificate engine.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper_trials --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --out base.json
    python3 perfbench/run.py --workload all --compare base.json

One workload runs in one process and one thread (BLAS is pinned to one
thread).  It prepares its inputs from ``--seed`` through the package's
public functions, repeats whole rounds of operations for at least
``--seconds`` seconds and at least 40 operations that do not fail, checks
every output with the oracle in ``oracle.py``, prints each metric with its
unit and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
round twice, untraced and traced, and reports the per-layer metrics from
the traced copies, with the tracing overhead measured on the same rounds.
``--workload all`` runs the three workloads one after another, each in a
process of its own.  See README.md in this directory.
"""

import time

START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from importlib import metadata

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")
OUTPUT_DIR = os.path.join(CHECKOUT, ".perfbench")

WORKLOADS = ("paper_trials", "cert_issue", "cert_replay")
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}
MIN_OK_OPS = 40          # the tail percentile needs ten samples beyond it
MAX_EXTRA_S = 60.0       # stop waiting for MIN_OK_OPS this long after --seconds
TAIL_BEYOND = 10
SETUP_REPEATS = 3        # set-up is timed this many times; the median is reported


def per_layer_unit(name: str) -> str:
    if name == "trace.overhead_pct":
        return "%"
    if name == "deniability.craft_attempts":
        return "ratio"
    if name == "deniability.cert_bytes":
        return "bytes/op"
    if name.endswith("_s"):
        return "s/op"
    return "count/op"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="least timed wall time; whole rounds are always finished")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the results to this JSON file")
    parser.add_argument("--compare", metavar="BASE",
                        help="after running, compare with a result file written by --out")
    return parser.parse_args(argv)


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------

def time_rounds(plan, seconds: float, tracer=None):
    """Run whole rounds; return ``(op, seconds, record, traced)`` samples.

    Untraced: rounds until ``seconds`` have passed and MIN_OK_OPS operations
    are known not to fail (or MAX_EXTRA_S more have passed, when too many
    fail).  Traced: each round runs twice, once traced, the order
    alternating, until ``seconds`` have passed.
    """
    clock = time.perf_counter
    samples = []
    start = clock()
    r = ok = 0
    while True:
        for traced in ((False,) if tracer is None else ((False, True) if r % 2 == 0 else (True, False))):
            if traced:
                tracer.install()
            try:
                for op in plan.round(r):
                    call = tracer.root(op.run) if traced else op.run
                    t0 = clock()
                    try:
                        output = call()
                    except Exception as exc:   # the program raised: judged a failed operation
                        output = exc
                    seconds_taken = clock() - t0
                    record = op.record(output)
                    samples.append((op, seconds_taken, record, traced))
                    ok += op.surely_ok(record)
            finally:
                if traced:
                    tracer.restore()
        r += 1
        elapsed = clock() - start
        if elapsed >= seconds and (tracer is not None or ok >= MIN_OK_OPS or elapsed >= seconds + MAX_EXTRA_S):
            return samples


def judge(samples):
    """Oracle verdict per distinct operation; repeats must match the first record."""
    verdicts, first = {}, {}
    for op, _, record, _ in samples:
        if op.key not in first:
            first[op.key] = record
            verdicts[op.key] = op.check(record)
        elif record != first[op.key]:
            verdicts[op.key].problems.append("a repeated run gave a different output")
    return verdicts


def latency_metrics(ok_times, total_time):
    ordered = sorted(ok_times)
    n = len(ordered)
    metrics = {"ops_per_s": n / total_time if total_time > 0 else 0.0}
    notes = {"samples": n}
    if n:
        metrics["latency_p50_s"] = statistics.median(ordered)
    if n > TAIL_BEYOND:
        k = n - TAIL_BEYOND - 1
        metrics["latency_tail_s"] = ordered[k]
        notes["tail_percentile"] = round(100.0 * (k + 1) / n, 1)
    return metrics, notes


def run_workload(args, import_s: float) -> dict:
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    workdir = os.path.join(OUTPUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        prep = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            plan = workloads.PREPARE[args.workload](args.seed, workdir)
            prep.append(time.perf_counter() - t0)
        samples = time_rounds(plan, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        verdicts = judge(samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_kinds = {}
    ok_times, total_time = [], 0.0
    for op, seconds, _, traced in samples:
        kind = verdicts[op.key].kind
        if kind is not None:
            failed_kinds[kind] = failed_kinds.get(kind, 0) + 1
        elif not traced:
            ok_times.append(seconds)
        if not traced:
            total_time += seconds
    problems = {key: v.problems for key, v in verdicts.items() if v.problems}
    result = {
        "correct": not problems,
        "attempted": len(samples),
        "failed": sum(failed_kinds.values()),
        "failed_kinds": failed_kinds,
        "failed_ops": sorted({op.key for op, _, _, _ in samples if verdicts[op.key].kind}),
        "left_out_in_setup": dict(plan.left_out),
        "problems": problems,
        "margins": {key: v.margin for key, v in verdicts.items()},
        "op_median_s": {key: statistics.median(s for op, s, _, traced in samples if op.key == key and not traced)
                        for key in verdicts},
    }
    if tracer is None:
        metrics, notes = latency_metrics(ok_times, total_time)
        metrics["setup_s"] = import_s + statistics.median(prep)
        metrics["peak_rss_mb"] = peak_rss_mb
        result["notes"] = dict(notes, import_s=import_s, setup_repeats_s=prep)
        result["metrics"] = {name: {"value": metrics[name], "unit": unit}
                             for name, unit in END_TO_END.items() if name in metrics}
    else:
        traced_s = sum(s for _, s, _, traced in samples if traced)
        untraced_s = sum(s for _, s, _, traced in samples if not traced)
        cert_bytes = sum(rec.get("bytes", 0) for _, _, rec, traced in samples if traced)
        metrics = tracing.layer_metrics(tracer, cert_bytes)
        metrics["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
        trace_path = os.path.join(OUTPUT_DIR, f"trace-{args.workload}-seed{args.seed}.tsv")
        tracer.write(trace_path)
        result["notes"] = {"trace_file": os.path.relpath(trace_path, CHECKOUT),
                           "traced_ops": sum(1 for s in samples if s[3])}
        result["metrics"] = {name: {"value": value, "unit": per_layer_unit(name)}
                             for name, value in metrics.items()}
    return result


def print_result(name: str, result: dict) -> None:
    print(f"workload {name}: attempted {result['attempted']}, failed {result['failed']}"
          f" {result['failed_kinds'] or ''}, correct {result['correct']}")
    for key in result["failed_ops"]:
        print(f"  failing operation: {key} (margin {result['margins'][key]:.4g})")
    if result["left_out_in_setup"]:
        print(f"  left out in set-up: {result['left_out_in_setup']}")
    for key, problems in result["problems"].items():
        print(f"  WRONG OUTPUT {key}: {'; '.join(problems)}")
    notes = result.get("notes", {})
    for metric, entry in result["metrics"].items():
        extra = ""
        if metric == "latency_tail_s":
            extra = f"  (p{notes['tail_percentile']} of {notes['samples']} samples, {TAIL_BEYOND} beyond)"
        elif metric == "latency_p50_s":
            extra = f"  ({notes['samples']} samples)"
        print(f"  {metric:<28} {entry['value']:.6g} {entry['unit']}{extra}")


# ---------------------------------------------------------------------------
# All workloads, one process each; result files and comparison
# ---------------------------------------------------------------------------

def run_all(args) -> dict:
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with code {proc.returncode}")
        results[name] = json.loads(lines[-1])
    return results


def compare(base_path: str, results: dict) -> None:
    with open(base_path) as fh:
        base = json.load(fh)
    print(f"\ncompared with base {base_path} (ratio = this run / base)")
    for name, result in results.items():
        old = base.get("workloads", {}).get(name)
        if old is None:
            print(f"  {name}: not in the base")
            continue
        print(f"  {name}: attempted {old['attempted']} -> {result['attempted']},"
              f" failed {old['failed']} -> {result['failed']}")
        for metric, entry in result["metrics"].items():
            before = old["metrics"].get(metric, {}).get("value")
            if before is None:
                print(f"    {metric:<28} {'-':>12} {entry['value']:>12.6g} {entry['unit']}")
                continue
            ratio = f"{entry['value'] / before:.3f}" if before else "-"
            print(f"    {metric:<28} {before:>12.6g} {entry['value']:>12.6g} {entry['unit']:<9} x{ratio}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "deniable_fit", "__init__.py")):
        print(f"perfbench: no package source at {SRC}; run it from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        results = run_all(args)
    else:
        import numpy  # noqa: F401  (part of the import cost users pay)
        import deniable_fit  # noqa: F401
        import_s = time.perf_counter() - START
        result = run_workload(args, import_s)
        print_result(args.workload, result)
        results = {args.workload: result}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"environment": environment(), "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "workloads": results}, fh, indent=2)
            fh.write("\n")
    if args.compare:
        compare(args.compare, results)
    if args.workload != "all":
        result = results[args.workload]
        print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
