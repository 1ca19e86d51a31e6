#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cell-detailed --seed 1 --seconds 15 --trace 0

Each workload repeats a fixed batch of cells closed-loop for
``--seconds`` (the next batch starts when the previous one ends; at
least one batch always runs).  With ``--trace 0`` the last line of
standard output is a JSON object carrying every end-to-end metric;
with ``--trace 1`` untraced and traced batches alternate and the JSON
carries every per-layer metric, including the tracing overhead.  The
exit code is 1 when any output check failed, 2 when the checkout holds
no simulator sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Fresh interpreters timed from spawn until a cell could run.
SETUP_PROBES = 5
SETUP_SCRIPT = """
import sys, time
sys.path.insert(0, sys.argv[1])
import repro.experiments.fig10, repro.harness, repro.staticcheck
import repro.tiered, repro.validate
from repro.registry import load_plugins
from repro.harness import ResultStore, code_fingerprint
load_plugins()
began = time.perf_counter()
code_fingerprint()
fingerprint_s = time.perf_counter() - began
store = ResultStore(sys.argv[2])
store.generation_dir.mkdir(parents=True, exist_ok=True)
print(time.perf_counter(), fingerprint_s)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(work: Path):
    """Median spawn-to-ready time and code-fingerprint time of fresh
    interpreters (``perf_counter`` is system-wide on Linux, so the
    child's ready stamp compares with the parent's spawn stamp)."""
    from perfbench.metrics import median

    setups, fingerprints = [], []
    for i in range(SETUP_PROBES):
        spawned = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, str(ROOT / "src"),
             str(work / f"setup{i}")],
            capture_output=True, text=True, timeout=120, check=True)
        ready, fingerprint_s = (float(x) for x in done.stdout.split())
        setups.append(ready - spawned)
        fingerprints.append(fingerprint_s)
    return median(setups), median(fingerprints)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from perfbench import ensure_src_on_path

    ensure_src_on_path()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, WORKLOADS[args.workload], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


def run(args, workload, work: Path) -> int:
    from perfbench.layers import HOT_SPANS, Instrumentation
    from perfbench.metrics import UNITS, layer_table
    from perfbench.tracer import Tracer
    from perfbench.workloads import clock, describe, sim_digest, stats_digest

    setup_s, fingerprint_s = measure_setup(work)
    specs = workload.specs(args.seed)
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"  inputs: {workload.why}")

    tracer = Tracer(hot=HOT_SPANS) if args.trace else None
    batches, traced, untraced_walls, traced_walls = [], [], [], []
    deadline = clock() + args.seconds
    while True:
        began = clock()
        batches.append(workload.run_batch(
            specs, work / f"batch{len(batches) + len(traced)}"))
        untraced_walls.append(clock() - began)
        if tracer is not None:
            with Instrumentation(tracer, work / "spool") as inst:
                began = clock()
                traced.append(workload.run_batch(
                    specs, work / f"batch{len(batches) + len(traced)}",
                    tracer=tracer, collect_workers=inst.collect_workers))
                traced_walls.append(clock() - began)
        if clock() >= deadline:
            break

    everything = batches + traced
    attempted = sum(b.attempted for b in everything)
    failures = {}
    for batch in everything:
        failures.update(batch.failures)
    if len(everything) == 1:
        # One batch fit the budget: still check that a rerun repeats,
        # on its cheapest cell when cells can run alone.
        rerun = specs
        if batches[0].cell_keys and isinstance(specs, list):
            rerun = [min(zip(batches[0].cell_seconds, batches[0].cell_keys),
                         key=lambda pair: pair[0])[1]]
        everything.append(workload.run_batch(rerun, work / "rerun"))
        failures.update(everything[-1].failures)
    first = {}
    for batch in everything:
        for key, result in batch.results.items():
            digest = stats_digest(result)
            if first.setdefault(describe(key), digest) != digest:
                failures[describe(key)] = ("a rerun gave different "
                                           "SimStats/SchemeStats")

    if tracer is None:
        metrics = end_to_end(workload, batches, setup_s)
    else:
        metrics = per_layer(workload, specs, tracer, traced, batches,
                            untraced_walls, traced_walls, fingerprint_s,
                            failures)
        print("  per-layer spans (per traced batch):")
        for line in layer_table(tracer, len(traced)):
            print(line)
        for problem in tracer.violations():
            failures[f"trace {problem}"] = "span self time out of bounds"
    failed = min(attempted, len(failures))

    print(f"  batches: {len(batches)} untraced"
          + (f", {len(traced)} traced" if traced else "")
          + f", {batches[0].attempted} cells each")
    print(f"  sim_digest: {sim_digest(first)}")
    print(f"  fail_ratio: {failed}/{attempted} = {failed / attempted:.4f}")
    for cell, problem in sorted(failures.items()):
        print(f"  FAILED {cell}: {problem}")
    for name, value in metrics.items():
        print(f"  {name:34} {value:16.6f} {UNITS[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def end_to_end(workload, batches, setup_s):
    from perfbench.metrics import (TAIL_BEYOND, median, percentile_value,
                                   tail_percentile)
    from perfbench.workloads import describe

    samples = [s for b in batches for s in b.cell_seconds]
    per_cell = {}
    for batch in batches:
        for key, seconds in zip(batch.cell_keys, batch.cell_seconds):
            per_cell.setdefault(describe(key), []).append(seconds)
    # The batch mixes cells of very different cost, so the pooled median
    # would fall in the gap between them; the median over cells of each
    # cell's median time is the steady middle.
    p50 = median([median(times) for times in per_cell.values()])
    rates = [b.instructions / b.compute_s for b in batches if b.compute_s]
    percentile = tail_percentile(batches[0].attempted)
    if percentile is None:
        tail_s = p50
        print(f"  cell_s_tail is cell_s_p50: a batch of "
              f"{batches[0].attempted} cells leaves no percentile above the "
              f"median with {TAIL_BEYOND} samples beyond it")
    else:
        tail_s = percentile_value(samples, percentile)
        print(f"  cell_s_tail is p{percentile:.1f} over {len(samples)} "
              f"cell samples")
    print(f"  figure_warm_s (not gated, see README): "
          f"{warm_seconds(batches):.6f} s")
    return {
        "sim_instr_per_s": median(rates),
        "cell_s_p50": p50,
        "cell_s_tail": tail_s,
        "figure_cold_s": median([b.cold_s for b in batches]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "paper_gap_pp": workload.paper_gap_pp(batches[0]),
        "setup_s": setup_s,
    }


def warm_seconds(batches) -> float:
    """``figure_warm_s``: interquartile mean of every warm pass."""
    from perfbench.metrics import interquartile_mean

    return interquartile_mean([s for b in batches for s in b.warm_samples])


def per_layer(workload, specs, tracer, traced, untraced, untraced_walls,
              traced_walls, fingerprint_s, failures):
    from perfbench.metrics import PER_LAYER, median, layer_times, model_counts
    from perfbench.workloads import probe_overhead

    n = len(traced)
    metrics = layer_times(tracer, n, workload.jobs)
    metrics.update(model_counts(traced[0].results.values()))
    metrics["harness.retries"] = sum(b.retries for b in traced) / n
    metrics["harness.failures"] = sum(b.harness_failures for b in traced) / n
    metrics["harness.fingerprint_s"] = fingerprint_s
    ratio, mismatches = probe_overhead(workload, specs)
    metrics["pipeline.probe_overhead_ratio"] = ratio
    for cell in mismatches:
        failures[cell] = "probed and unprobed twin simulated different stats"
    metrics["trace.overhead_ratio"] = median(traced_walls) / median(untraced_walls)
    # Warm reads are timed on the untraced batches, as an end-to-end time.
    metrics["figure_warm_s"] = warm_seconds(untraced)
    print(f"  tracing overhead: {median(traced_walls):.3f}s traced vs "
          f"{median(untraced_walls):.3f}s untraced per batch")
    return {name: metrics[name] for name, *_ in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
