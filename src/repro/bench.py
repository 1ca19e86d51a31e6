"""Host-side performance benchmark of the cycle core (``repro bench``).

Measures *simulator* throughput on a fixed two-tier protocol, so hot-loop
regressions show up as numbers rather than vibes:

* **detailed cells** — 505.mcf_r and 503.bwaves_r (one int
  pointer-chaser, one fp/vector kernel), baseline and atr schemes,
  rf=128, n=20000, full-trace cycle simulation.  This is the seed
  protocol, unchanged, so BENCH_history.json entries stay comparable
  across PRs.
* **tiered cells** — the same four cells at n=100000 under the tiered
  protocol (fast-forward warmup + SimPoint-weighted detailed windows;
  see ``repro.tiered``).  Throughput counts *represented* instructions:
  the point of the tier is that most of them never enter the cycle core.
  Value execution is off, as in every harness cell, so warmup replays
  the trace's records instead of stepping the emulator through them.

Timing is best-of-N wall time per cell (per-process best, not mean, to
shave scheduler noise); probes stay off — the zero-cost-when-off path is
the one that matters.  Aggregates are reported two ways, because the
per-cell rates differ by ~6x and a plain mean lets one fast cell mask a
regression in a slow one:

* ``instr_per_sec`` — total instructions / total wall (work-weighted);
* ``instr_per_sec_geomean`` — geometric mean of per-cell rates
  (cell-weighted, scale-free).

``--quick`` shrinks the protocol to a CI smoke whose job is to crash
loudly if either hot path breaks.  ``--profile`` re-runs each cell under
cProfile and prints the top-25 cumulative hotspots.  ``--ab`` runs an
interleaved A/B/C comparison (spin-loop detailed / skip-ahead detailed /
tiered) and exits non-zero if tiered throughput is below 3x the
spin-loop arm or if skip-ahead makes pure-detailed simulation >5%
slower — the CI regression gate.

Results are printed and written to ``BENCH_core.json`` (latest) and
appended, timestamped, to ``BENCH_history.json`` (trajectory);
EXPERIMENTS.md records the accepted baseline numbers for the current
machine class.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import replace
from datetime import datetime, timezone
from typing import Dict, List, Optional

#: The fixed measurement protocol.
BENCH_BENCHMARKS = ("505.mcf_r", "503.bwaves_r")
BENCH_SCHEMES = ("baseline", "atr")
DEFAULT_INSTRUCTIONS = 20_000
DEFAULT_TIERED_INSTRUCTIONS = 100_000
DEFAULT_RF_SIZE = 128
DEFAULT_REPEATS = 3
TIER_INTERVAL = 2_000
TIER_WINDOWS = 6

HISTORY_LIMIT = 200  #: BENCH_history.json keeps at most this many entries


def _geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _profile_cell(fn, label: str) -> None:
    """Re-run *fn* under cProfile and print the top-25 cumulative hotspots."""
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    fn()
    profiler.disable()
    stream = io.StringIO()
    pstats.Stats(profiler, stream=stream).sort_stats("cumulative") \
        .print_stats(25)
    print(f"--- profile: {label} (top 25 by cumulative time) ---")
    print(stream.getvalue().rstrip())


def bench_core(instructions: int = DEFAULT_INSTRUCTIONS,
               tiered_instructions: int = DEFAULT_TIERED_INSTRUCTIONS,
               rf_size: int = DEFAULT_RF_SIZE,
               repeats: int = DEFAULT_REPEATS,
               verbose: bool = False,
               profile: bool = False) -> Dict:
    """Run the two-tier core-throughput protocol; returns the result dict."""
    from .pipeline import Core, golden_cove_config
    from .tiered import run_tiered
    from .workloads import build_trace

    cells: List[Dict] = []
    tiered_cells: List[Dict] = []
    for benchmark in BENCH_BENCHMARKS:
        trace = build_trace(benchmark, instructions)
        tiered_trace = build_trace(benchmark, tiered_instructions)
        for scheme in BENCH_SCHEMES:
            config = golden_cove_config(rf_size=rf_size, scheme=scheme)
            tiered_config = replace(config, execute_values=False)

            best = None
            cycles = committed = 0
            for _ in range(repeats):
                core = Core(config, trace)
                start = time.perf_counter()
                stats = core.run()
                elapsed = time.perf_counter() - start
                if best is None or elapsed < best:
                    best = elapsed
                cycles, committed = stats.cycles, stats.committed
            cell = {
                "benchmark": benchmark,
                "scheme": scheme,
                "instructions": committed,
                "sim_cycles": cycles,
                "best_seconds": round(best, 6),
                "kcycles_per_sec": round(cycles / best / 1e3, 1),
                "instr_per_sec": round(committed / best, 1),
            }
            cells.append(cell)
            if verbose:
                print(f"  {benchmark}/{scheme}: "
                      f"{cell['kcycles_per_sec']:.1f} kcycles/s")
            if profile:
                _profile_cell(lambda: Core(config, trace).run(),
                              f"{benchmark}/{scheme} detailed n={instructions}")

            best_t = None
            tier_info = est_cycles = None
            for _ in range(repeats):
                start = time.perf_counter()
                stats, _scheme_stats, tier_info = run_tiered(
                    tiered_config, tiered_trace,
                    interval=TIER_INTERVAL, max_windows=TIER_WINDOWS)
                elapsed = time.perf_counter() - start
                if best_t is None or elapsed < best_t:
                    best_t = elapsed
                est_cycles = stats.cycles
            represented = tier_info["represented_instructions"]
            tiered_cell = {
                "benchmark": benchmark,
                "scheme": scheme,
                "instructions": represented,
                "detailed_instructions": tier_info["detailed_instructions"],
                "windows": len(tier_info["windows"]),
                "est_cycles": est_cycles,
                "best_seconds": round(best_t, 6),
                "instr_per_sec": round(represented / best_t, 1),
            }
            tiered_cells.append(tiered_cell)
            if verbose:
                print(f"  {benchmark}/{scheme} tiered: "
                      f"{tiered_cell['instr_per_sec']:.1f} instr/s")
            if profile:
                _profile_cell(
                    lambda: run_tiered(tiered_config, tiered_trace,
                                       interval=TIER_INTERVAL,
                                       max_windows=TIER_WINDOWS),
                    f"{benchmark}/{scheme} tiered n={tiered_instructions}")

    def _aggregate(section: List[Dict]) -> Dict:
        total_instr = sum(c["instructions"] for c in section)
        total_time = sum(c["best_seconds"] for c in section)
        return {
            "instr_per_sec": round(total_instr / total_time, 1),
            "instr_per_sec_geomean": round(
                _geomean([c["instr_per_sec"] for c in section]), 1),
            "wall_seconds": round(total_time, 3),
        }

    aggregate = _aggregate(cells)
    total_cycles = sum(c["sim_cycles"] for c in cells)
    detailed_wall = sum(c["best_seconds"] for c in cells)
    aggregate["kcycles_per_sec"] = round(total_cycles / detailed_wall / 1e3, 1)
    return {
        "protocol": {
            "instructions": instructions,
            "tiered_instructions": tiered_instructions,
            "tier_interval": TIER_INTERVAL,
            "tier_windows": TIER_WINDOWS,
            "tiered_execute_values": False,
            "rf_size": rf_size,
            "repeats": repeats,
            "benchmarks": list(BENCH_BENCHMARKS),
            "schemes": list(BENCH_SCHEMES),
        },
        "cells": cells,
        "tiered_cells": tiered_cells,
        "aggregate": aggregate,
        "tiered_aggregate": _aggregate(tiered_cells),
    }


def format_bench(result: Dict) -> str:
    proto = result["protocol"]
    lines = [
        f"core throughput (n={proto['instructions']}, rf={proto['rf_size']}, "
        f"best of {proto['repeats']}):",
        f"  {'cell':<24} {'kcycles/s':>10} {'instr/s':>12}",
    ]
    for cell in result["cells"]:
        name = f"{cell['benchmark']}/{cell['scheme']}"
        lines.append(f"  {name:<24} {cell['kcycles_per_sec']:>10.1f} "
                     f"{cell['instr_per_sec']:>12.1f}")
    agg = result["aggregate"]
    lines.append(f"  {'aggregate':<24} {agg['kcycles_per_sec']:>10.1f} "
                 f"{agg['instr_per_sec']:>12.1f}   "
                 f"(geomean {agg['instr_per_sec_geomean']:.1f}, "
                 f"{agg['wall_seconds']:.2f}s wall)")
    if result.get("tiered_cells"):
        lines.append(
            f"tiered protocol (n={proto['tiered_instructions']}, "
            f"interval={proto['tier_interval']}, "
            f"windows<={proto['tier_windows']}):")
        lines.append(f"  {'cell':<24} {'detailed':>10} {'instr/s':>12}")
        for cell in result["tiered_cells"]:
            name = f"{cell['benchmark']}/{cell['scheme']}"
            lines.append(f"  {name:<24} {cell['detailed_instructions']:>10} "
                         f"{cell['instr_per_sec']:>12.1f}")
        tagg = result["tiered_aggregate"]
        ratio = tagg["instr_per_sec"] / agg["instr_per_sec"]
        lines.append(f"  {'aggregate':<24} {'':>10} "
                     f"{tagg['instr_per_sec']:>12.1f}   "
                     f"(geomean {tagg['instr_per_sec_geomean']:.1f}, "
                     f"{tagg['wall_seconds']:.2f}s wall, "
                     f"{ratio:.1f}x detailed)")
    return "\n".join(lines)


def append_history(result: Dict, path: str) -> None:
    """Append a timestamped summary of *result* to the trajectory file.

    The history entry keeps only the aggregates and protocol (the full
    per-cell detail lives in the latest-results file), so the trajectory
    stays small enough to eyeball across dozens of PRs.
    """
    history: List[Dict] = []
    if os.path.exists(path):
        try:
            with open(path) as fh:
                history = json.load(fh)
        except (json.JSONDecodeError, OSError):
            history = []  # corrupt trajectory: restart rather than crash
        if not isinstance(history, list):
            history = []
    history.append({
        "timestamp": datetime.now(timezone.utc)
        .isoformat(timespec="seconds"),
        "protocol": result["protocol"],
        "aggregate": result["aggregate"],
        "tiered_aggregate": result.get("tiered_aggregate"),
    })
    with open(path, "w") as fh:
        json.dump(history[-HISTORY_LIMIT:], fh, indent=1, sort_keys=True)


def bench_ab(instructions: int, tiered_instructions: int,
             rf_size: int = DEFAULT_RF_SIZE, rounds: int = 3,
             verbose: bool = False) -> Dict:
    """Interleaved A/B/C throughput comparison; the CI regression gate.

    Three arms measured round-robin (A, B, C, A, B, C, ...) so drift in
    machine load hits all arms equally:

    * **A (spin)** — the seed protocol: full-trace detailed simulation
      with ``skip_ahead`` disabled, i.e. the per-cycle spin loop.
    * **B (skip)** — the same cells with skip-ahead enabled: the
      production pure-detailed path.
    * **C (tiered)** — the tiered protocol at *tiered_instructions*.

    Gates: C aggregate must be >=3x A (the tiered win is real on this
    machine), and B must not fall below 0.95x A (skip-ahead must never
    make pure-detailed slower).  Per-arm time is best-of-*rounds*.
    """
    from .pipeline import Core, golden_cove_config
    from .tiered import run_tiered
    from .workloads import build_trace

    arms = {"spin": {}, "skip": {}, "tiered": {}}
    traces = {b: build_trace(b, instructions) for b in BENCH_BENCHMARKS}
    tiered_traces = {b: build_trace(b, tiered_instructions)
                     for b in BENCH_BENCHMARKS}
    for rnd in range(rounds):
        for benchmark in BENCH_BENCHMARKS:
            for scheme in BENCH_SCHEMES:
                key = (benchmark, scheme)
                config = golden_cove_config(rf_size=rf_size, scheme=scheme)

                spin_config = replace(config, skip_ahead=False)
                start = time.perf_counter()
                Core(spin_config, traces[benchmark]).run()
                spin = time.perf_counter() - start

                start = time.perf_counter()
                Core(config, traces[benchmark]).run()
                skip = time.perf_counter() - start

                start = time.perf_counter()
                run_tiered(config, tiered_traces[benchmark],
                           interval=TIER_INTERVAL, max_windows=TIER_WINDOWS)
                tiered = time.perf_counter() - start

                for arm, elapsed in (("spin", spin), ("skip", skip),
                                     ("tiered", tiered)):
                    prev = arms[arm].get(key)
                    if prev is None or elapsed < prev:
                        arms[arm][key] = elapsed
                if verbose:
                    print(f"  round {rnd + 1} {benchmark}/{scheme}: "
                          f"spin {spin:.2f}s skip {skip:.2f}s "
                          f"tiered {tiered:.2f}s")

    n_cells = len(BENCH_BENCHMARKS) * len(BENCH_SCHEMES)
    spin_rate = n_cells * instructions / sum(arms["spin"].values())
    skip_rate = n_cells * instructions / sum(arms["skip"].values())
    tiered_rate = (n_cells * tiered_instructions
                   / sum(arms["tiered"].values()))
    return {
        "protocol": {
            "instructions": instructions,
            "tiered_instructions": tiered_instructions,
            "rf_size": rf_size,
            "rounds": rounds,
        },
        "spin_instr_per_sec": round(spin_rate, 1),
        "skip_instr_per_sec": round(skip_rate, 1),
        "tiered_instr_per_sec": round(tiered_rate, 1),
        "tiered_speedup": round(tiered_rate / spin_rate, 2),
        "skip_ratio": round(skip_rate / spin_rate, 3),
    }


def run_bench_cli(quick: bool = False, output: Optional[str] = "BENCH_core.json",
                  instructions: Optional[int] = None,
                  rf_size: int = DEFAULT_RF_SIZE,
                  repeats: Optional[int] = None,
                  verbose: bool = False,
                  profile: bool = False,
                  ab: bool = False,
                  history: Optional[str] = "BENCH_history.json") -> int:
    """CLI entry: run, print, persist (latest + trajectory)."""
    if quick:
        n = instructions if instructions is not None else 4_000
        tiered_n = 30_000
        reps = repeats or 1
    else:
        n = instructions if instructions is not None else DEFAULT_INSTRUCTIONS
        tiered_n = DEFAULT_TIERED_INSTRUCTIONS
        reps = repeats or DEFAULT_REPEATS

    if ab:
        # The tiered arm always runs at protocol scale: the 3x gate is a
        # statement about the real protocol, and a shrunken tiered trace
        # under-amortizes the fixed detailed-window cost.
        result = bench_ab(instructions=n,
                          tiered_instructions=DEFAULT_TIERED_INSTRUCTIONS,
                          rf_size=rf_size, rounds=reps if not quick else 2,
                          verbose=verbose)
        print(f"A/B (best of interleaved rounds): "
              f"spin {result['spin_instr_per_sec']:.1f} instr/s, "
              f"skip {result['skip_instr_per_sec']:.1f} instr/s "
              f"({result['skip_ratio']:.3f}x), "
              f"tiered {result['tiered_instr_per_sec']:.1f} instr/s "
              f"({result['tiered_speedup']:.2f}x)")
        failed = False
        if result["tiered_speedup"] < 3.0:
            print(f"FAIL: tiered speedup {result['tiered_speedup']:.2f}x "
                  f"< 3x over the spin-loop protocol")
            failed = True
        if result["skip_ratio"] < 0.95:
            print(f"FAIL: skip-ahead detailed throughput is "
                  f"{result['skip_ratio']:.3f}x of the spin loop "
                  f"(regression > 5%)")
            failed = True
        if output:
            with open(output, "w") as fh:
                json.dump(result, fh, indent=1, sort_keys=True)
            print(f"wrote {output}")
        return 1 if failed else 0

    result = bench_core(instructions=n, tiered_instructions=tiered_n,
                        rf_size=rf_size, repeats=reps, verbose=verbose,
                        profile=profile)
    print(format_bench(result))
    if output:
        with open(output, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
        print(f"wrote {output}")
        if history:
            append_history(result, history)
            print(f"appended to {history}")
    return 0
