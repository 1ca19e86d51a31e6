"""Metric catalog and the arithmetic that turns measurements into it.

``END_TO_END`` is what a user of the simulator waits for, measured with
tracing off.  ``PER_LAYER`` comes from the separate traced run; each
time is per traced batch (a batch is one repetition of the workload's
fixed set of cells), so runs of different length compare directly.
``BENCHMARK.json`` must list exactly these names with these units;
``perfbench/tests`` checks that it does.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .layers import STAGES
from .tracer import Tracer

#: (name, unit, better, bound): bound is the share of the parent's median
#: by which the metric may worsen before a change counts as a regression.
#: Host times and memory get the widest bound allowed: on a shared 2-core
#: host the machine's speed drifted by more than 2x within an hour.
#: ``paper_gap_pp`` is simulated, so it repeats exactly for a seed; across
#: seeds it moves by at most about 6% (validate-probed's refs), which
#: leaves room for a tighter bound.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("sim_instr_per_s", "1/s", "higher", 0.25),
    ("cell_s_p50", "s", "lower", 0.25),
    ("cell_s_tail", "s", "lower", 0.25),
    ("figure_cold_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("paper_gap_pp", "pp", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
)

#: (name, unit, better) — reported by the traced run, no bound.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("workloads.build_s", "s", "lower"),
    ("workloads.build_calls", "count", "lower"),
    ("frontend.emulate_s", "s", "lower"),
    ("frontend.emulated_instr", "count", "lower"),
    ("frontend.useful_ratio", "ratio", "higher"),
    ("simpoint.pick_s", "s", "lower"),
    ("warmup.fast_forward_s", "s", "lower"),
    ("warmup.instr", "count", "lower"),
    ("tiered.stitch_s", "s", "lower"),
    ("tiered.detailed_frac", "ratio", "lower"),
    ("pipeline.core_run_s", "s", "lower"),
    ("pipeline.kcycles_per_s", "1/s", "higher"),
    ("pipeline.host_ns_per_instr", "ns", "lower"),
    ("pipeline.stage.fetch_s", "s", "lower"),
    ("pipeline.stage.rename_s", "s", "lower"),
    ("pipeline.stage.issue_s", "s", "lower"),
    ("pipeline.stage.execute_s", "s", "lower"),
    ("pipeline.stage.precommit_s", "s", "lower"),
    ("pipeline.stage.commit_s", "s", "lower"),
    ("pipeline.stage.flush_s", "s", "lower"),
    ("pipeline.scheme_tick_s", "s", "lower"),
    ("pipeline.loop_self_s", "s", "lower"),
    ("pipeline.ipc", "ratio", "higher"),
    ("pipeline.sim_cycles", "count", "lower"),
    ("pipeline.stall_freelist_cpi", "cpi", "lower"),
    ("pipeline.stall_rob_cpi", "cpi", "lower"),
    ("pipeline.stall_rs_cpi", "cpi", "lower"),
    ("pipeline.stall_lq_cpi", "cpi", "lower"),
    ("pipeline.stall_sq_cpi", "cpi", "lower"),
    ("pipeline.stall_empty_cpi", "cpi", "lower"),
    ("branch.flushes_pki", "1/kinstr", "lower"),
    ("pipeline.wrong_path_frac", "ratio", "lower"),
    ("scheme.atr_frees_pki", "1/kinstr", "higher"),
    ("scheme.atr_claims_pki", "1/kinstr", "higher"),
    ("scheme.claim_to_free_ratio", "ratio", "higher"),
    ("scheme.early_release_share", "ratio", "higher"),
    ("harness.encode_s", "s", "lower"),
    ("harness.decode_s", "s", "lower"),
    ("harness.store_put_s", "s", "lower"),
    ("harness.store_get_s", "s", "lower"),
    ("harness.result_bytes", "bytes", "lower"),
    ("harness.store_hits", "count", "higher"),
    ("harness.store_misses", "count", "lower"),
    ("harness.sched_wait_s", "s", "lower"),
    ("harness.retries", "count", "lower"),
    ("harness.failures", "count", "lower"),
    ("harness.fingerprint_s", "s", "lower"),
    ("experiments.figure_self_s", "s", "lower"),
    ("figure_warm_s", "s", "lower"),
    ("staticcheck.probe_build_s", "s", "lower"),
    ("validate.golden_s", "s", "lower"),
    ("validate.probed_core_run_s", "s", "lower"),
    ("pipeline.probe_overhead_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
)

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: The paper's per-RF ATR averages (Fig 10) are reported at 64 and 224
#: registers; cell workloads run at 128 and compare against the linear
#: interpolation between those two points.
CELL_RF = 128


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of the middle half of *values*.  Unlike the median it moves
    smoothly when the samples mix two latency modes, and unlike the mean
    it ignores stray spikes."""
    ordered = sorted(values)
    quarter = len(ordered) // 4
    middle = ordered[quarter:len(ordered) - quarter]
    return sum(middle) / len(middle)


#: A tail percentile is only reported when at least this many samples lie
#: beyond it.
TAIL_BEYOND = 10


def tail_percentile(batch_size: int) -> Optional[float]:
    """The highest percentile with ten samples beyond it in one batch of
    *batch_size* cells, or None when that is not above the median.

    The percentile is fixed by the batch size, not by how many batches a
    run fitted, so the metric means the same thing on every run.
    """
    percentile = 100.0 * (batch_size - TAIL_BEYOND) / batch_size
    return percentile if percentile > 50.0 else None


def percentile_value(values: Sequence[float], percentile: float) -> float:
    """Nearest-rank *percentile* of *values*."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def interpolated_paper_atr(which: str, rf_size: int = CELL_RF) -> float:
    """The paper's suite-average ATR speedup interpolated to *rf_size*."""
    from repro.experiments import expectations

    low, high = 64, 224
    v_low = expectations.FIG10[(low, "atr", which)]
    v_high = expectations.FIG10[(high, "atr", which)]
    return v_low + (v_high - v_low) * (rf_size - low) / (high - low)


def model_counts(results: Iterable) -> Dict[str, float]:
    """Modelled-design counts over one batch of cell results.

    These are simulated quantities: deterministic for a seed, and a
    change that only speeds up the simulator must leave them identical.
    """
    results = list(results)
    committed = sum(r.stats.committed for r in results)
    cycles = sum(r.stats.cycles for r in results)
    renamed = sum(r.stats.renamed for r in results)

    def total(attr: str) -> float:
        return float(sum(getattr(r.stats, attr) for r in results))

    def scheme_total(attr: str) -> float:
        return float(sum(getattr(r.scheme_stats, attr) for r in results))

    per_instr = 1.0 / committed if committed else 0.0
    atr_frees = scheme_total("atr_frees")
    all_frees = scheme_total("total_frees")
    tiered = [r.tier_info for r in results if r.tier_info]
    represented = sum(t["represented_instructions"] for t in tiered)
    counts = {
        "pipeline.ipc": committed / cycles if cycles else 0.0,
        "pipeline.sim_cycles": float(cycles),
        "branch.flushes_pki": 1000.0 * total("flushes") * per_instr,
        "pipeline.wrong_path_frac": (total("wrong_path_renamed") / renamed
                                     if renamed else 0.0),
        "scheme.atr_frees_pki": 1000.0 * atr_frees * per_instr,
        "scheme.atr_claims_pki": 1000.0 * scheme_total("atr_claims") * per_instr,
        "scheme.claim_to_free_ratio": (scheme_total("atr_claims") / atr_frees
                                       if atr_frees else 0.0),
        "scheme.early_release_share": (scheme_total("early_frees") / all_frees
                                       if all_frees else 0.0),
        "tiered.detailed_frac": (
            sum(t["detailed_instructions"] for t in tiered) / represented
            if represented else 0.0),
    }
    for cause in ("freelist", "rob", "rs", "lq", "sq", "empty"):
        counts[f"pipeline.stall_{cause}_cpi"] = total(f"stall_{cause}") * per_instr
    return counts


#: Span names the benchmark opens itself, around one cell or one pass.
ROOT_SPANS = ("bench.cell", "bench.pass")


def layer_times(tracer: Tracer, batches: int, jobs: int) -> Dict[str, float]:
    """Per-layer times, counts and ratios from a traced run's spans."""
    per = 1.0 / batches
    counters = tracer.counters
    busy, self_time = tracer.busy, tracer.self_time
    core_s = busy("pipeline.core_run")
    cycles = counters["pipeline.run_cycles"]
    committed = counters["pipeline.run_committed"]
    emulated = counters["frontend.emulated_instr"]
    traces = counters["workloads.traces"]
    metrics = {
        "workloads.build_s": busy("workloads.build") * per,
        "workloads.build_calls": (tracer.calls("workloads.build") / traces
                                  if traces else 0.0),
        "frontend.emulate_s": busy("frontend.emulate") * per,
        "frontend.emulated_instr": emulated * per,
        "frontend.useful_ratio": (counters["frontend.kept_instr"] / emulated
                                  if emulated else 0.0),
        "simpoint.pick_s": busy("simpoint.pick") * per,
        "warmup.fast_forward_s": busy("warmup.fast_forward") * per,
        "warmup.instr": counters["warmup.instr"] * per,
        "tiered.stitch_s": self_time("tiered.run_tiered") * per,
        "pipeline.core_run_s": core_s * per,
        "pipeline.kcycles_per_s": cycles / core_s / 1e3 if core_s else 0.0,
        "pipeline.host_ns_per_instr": (core_s / committed * 1e9
                                       if committed else 0.0),
        "pipeline.stage.flush_s": self_time("pipeline.stage.flush") * per,
        "pipeline.scheme_tick_s": self_time("pipeline.scheme_tick") * per,
        "pipeline.loop_self_s": self_time("pipeline.core_run") * per,
        "harness.encode_s": busy("harness.encode") * per,
        "harness.decode_s": busy("harness.decode") * per,
        "harness.store_put_s": busy("harness.store_put") * per,
        "harness.store_get_s": busy("harness.store_get") * per,
        "harness.result_bytes": counters["harness.result_bytes"] * per,
        "harness.store_hits": counters["harness.store_hits"] * per,
        "harness.store_misses": counters["harness.store_misses"] * per,
        "harness.sched_wait_s": max(
            0.0, busy("harness.sweep") - busy("harness.execute") / jobs) * per,
        "experiments.figure_self_s": sum(
            self_time(name) for name in tracer.names()
            if name.startswith("experiments.")) * per,
        "staticcheck.probe_build_s": busy("staticcheck.probe_build") * per,
        "validate.golden_s": busy("validate.golden") * per,
        "validate.probed_core_run_s": tracer.busy_under(
            "pipeline.core_run", "validate.chaos_cell") * per,
    }
    for stage in STAGES:
        metrics[f"pipeline.stage.{stage}_s"] = self_time(
            f"pipeline.stage.{stage}") * per
    roots = [s for s in tracer.spans
             if s.name in ROOT_SPANS or s.name == "harness.worker"]
    wall = sum(s.duration for s in roots)
    metrics["trace.coverage"] = (1.0 - sum(s.self_s for s in roots) / wall
                                 if wall else 0.0)
    return metrics


def layer_table(tracer: Tracer, batches: int) -> List[str]:
    """Human-readable per-span busy/self/calls table, per batch."""
    lines = [f"  {'span':34} {'busy_s':>10} {'self_s':>10} {'calls':>10}"]
    rows = sorted(tracer.names(), key=lambda n: -tracer.self_time(n))
    for name in rows:
        lines.append(f"  {name:34} {tracer.busy(name) / batches:10.4f} "
                     f"{tracer.self_time(name) / batches:10.4f} "
                     f"{tracer.calls(name) / batches:10.1f}")
    return lines
