"""The benchmark's workloads: fixed batches of cells, run closed-loop.

Each workload turns ``--seed`` into a fixed list of specs (the program
only ever sees those specs), runs the batch cold — every cell from spec
in to stored result out, with an empty store and a cold trace cache —
renders its report, then re-requests the report with every cell stored,
which only reads.  The next batch starts when the previous one ends.

Every batch checks the program's outputs; each failed check counts one
failed operation against the cell it concerns.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .metrics import CELL_RF, interpolated_paper_atr, median

clock = time.perf_counter

#: How many times each batch re-reads its report from the warm store.  A
#: fixed count, not a time: every read also rewrites the store's counter
#: file, so every run should do the same number of them.
WARM_REPEATS = 30


@contextlib.contextmanager
def span(tracer, name: str):
    """A benchmark-side span (a no-op in the untraced run)."""
    if tracer is None:
        yield
        return
    frame = tracer.begin(name)
    try:
        yield
    finally:
        tracer.end(frame)


def pick_variant(seed: int, benchmark: str) -> str:
    """``benchmark`` or ``benchmark/ref2``, drawn from the seed.

    Only the seed decides; the choice is made per benchmark so one seed
    mixes inputs and a claim can be rechecked on held-back refs.
    """
    from repro.workloads import WORKLOADS

    entry = WORKLOADS.get(benchmark)
    names = ["ref"] + [v.name for v in entry.variants]
    chosen = random.Random(f"perfbench|{seed}|{benchmark}").choice(names)
    return benchmark if chosen == "ref" else f"{benchmark}/{chosen}"


def stats_digest(result) -> str:
    """Digest of a cell's simulated outputs (stats, scheme stats, tier)."""
    payload = json.dumps([result.stats.to_dict(), result.scheme_stats.to_dict(),
                          result.tier_info], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def sim_digest(per_cell: Dict[str, str]) -> str:
    """One digest over every cell's :func:`stats_digest`."""
    payload = json.dumps(sorted(per_cell.items()))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def same_result(a, b) -> bool:
    """Whether two cell results encode identically (the store's
    contract).  Uses the inner encoder, which the traced run does not
    wrap, so the check is not billed to the harness layer."""
    from repro.harness.serialize import encode_cell_result

    return (json.dumps(encode_cell_result(a), sort_keys=True)
            == json.dumps(encode_cell_result(b), sort_keys=True))


@dataclass
class Batch:
    """One cold + warm repetition of a workload."""

    cell_seconds: List[float] = field(default_factory=list)
    #: The key of each timed cell, aligned with ``cell_seconds``.
    cell_keys: List[object] = field(default_factory=list)
    #: Simulated instructions (committed, or represented when tiered).
    instructions: int = 0
    #: Host seconds the instructions took: summed cell time when cells
    #: run one by one, the pass's wall time when they run in parallel.
    compute_s: float = 0.0
    cold_s: float = 0.0
    #: Seconds of each warm pass.
    warm_samples: List[float] = field(default_factory=list)
    results: Dict[object, object] = field(default_factory=dict)
    #: Failed cells: description -> what went wrong (one per cell).
    failures: Dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    retries: int = 0
    harness_failures: int = 0
    text: str = ""
    #: paper_gap_pp when it comes from the rendered figure itself.
    gap: Optional[float] = None


class CellWorkload:
    """Cells resolved one at a time through ``harness.sweep`` (jobs=1)."""

    name = ""
    why = ""
    executor = None  #: None: the harness's default cell executor
    jobs = 1

    def specs(self, seed: int) -> List[object]:
        raise NotImplementedError

    def check(self, spec, result) -> Optional[str]:
        """A description of what is wrong with *result*, or None."""
        if result.stats.committed != spec.instructions:
            return (f"committed {result.stats.committed} != requested "
                    f"{spec.instructions}")
        return None

    def paper_gap_pp(self, batch: Batch) -> float:
        raise NotImplementedError

    def render(self, results: Dict) -> str:
        lines = [f"{'cell':44} {'instructions':>12} {'cycles':>10} {'ipc':>7}"]
        for spec, result in results.items():
            lines.append(f"{spec.describe():44} {result.stats.committed:12d} "
                         f"{result.stats.cycles:10d} {result.stats.ipc:7.4f}")
        return "\n".join(lines)

    def run_batch(self, specs: Sequence, work: Path, tracer=None,
                  collect_workers=None) -> Batch:
        from repro.harness import ResultStore, SweepProgress, sweep
        from repro.workloads import clear_trace_cache

        batch = Batch()
        roots = [work / f"cell{i}" for i in range(len(specs))]
        start = clock()
        for spec, root in zip(specs, roots):
            clear_trace_cache()
            # Collect the previous cell's garbage outside the timed region,
            # so no cell pays for another's and peak memory is one cell's.
            gc.collect()
            progress = SweepProgress()
            with span(tracer, "bench.cell"):
                began = clock()
                report = sweep([spec], jobs=1, store=ResultStore(root),
                               executor=self.executor, progress=progress)
                elapsed = clock() - began
            batch.attempted += 1
            batch.retries += progress.retries
            batch.harness_failures += progress.failed
            result = report.results.get(spec)
            problem = (report.failures[0].describe() if report.failures
                       else self.check(spec, result))
            if problem is not None:
                batch.failures[spec.describe()] = problem
                continue
            batch.results[spec] = result
            batch.cell_seconds.append(elapsed)
            batch.cell_keys.append(spec)
            batch.instructions += result.stats.committed
            batch.compute_s += elapsed
        batch.text = self.render(batch.results)
        batch.cold_s = clock() - start
        clear_trace_cache()
        gc.collect()
        self._warm(batch, specs, roots)
        return batch

    def _warm(self, batch: Batch, specs: Sequence, roots: Sequence[Path]):
        """Re-request the report from the stores the cold pass filled."""
        from repro.harness import ResultStore, SweepProgress, sweep

        stale = set()
        for _ in range(WARM_REPEATS):
            start = clock()
            warm = {}
            for spec, root in zip(specs, roots):
                if spec not in batch.results:
                    continue
                # A miss must not recompute: the refusing executor turns
                # it into a failed cell instead.
                report = sweep([spec], jobs=1, store=ResultStore(root),
                               retries=0, executor=_refuse,
                               progress=SweepProgress())
                warm[spec] = report.results.get(spec)
            text = self.render(warm) if None not in warm.values() else ""
            batch.warm_samples.append(clock() - start)
            if len(batch.warm_samples) == 1:
                stale.update(spec for spec, result in warm.items()
                             if result is None
                             or not same_result(result, batch.results[spec]))
            if text != batch.text:
                stale.update(warm)
        for spec in stale:
            batch.failures[spec.describe()] = ("stored result does not decode "
                                               "equal to the computed one")


def _refuse(spec):
    raise RuntimeError(f"{spec.describe()} missing from a warm store")


class CellDetailed(CellWorkload):
    name = "cell-detailed"
    why = ("the four repro bench core cells (mcf, bwaves x baseline, atr, "
           "rf=128), detailed, cold: the cycle loop dominates mcf, trace "
           "building dominates bwaves")
    instructions_per_cell = 10_000

    def specs(self, seed):
        from repro.harness import CellSpec

        return [CellSpec(pick_variant(seed, b), CELL_RF, scheme,
                         self.instructions_per_cell, tier=self.tier(seed))
                for b in ("505.mcf_r", "503.bwaves_r")
                for scheme in ("baseline", "atr")]

    def tier(self, seed):
        from repro.harness import DETAILED

        return DETAILED

    def paper_gap_pp(self, batch):
        from repro.workloads import is_fp

        ipc = {(s.benchmark, s.scheme): r.stats.ipc
               for s, r in batch.results.items()}
        gaps = []
        for benchmark in sorted({b for b, _ in ipc}):
            measured = ipc[(benchmark, "atr")] / ipc[(benchmark, "baseline")] - 1
            paper = interpolated_paper_atr("fp" if is_fp(benchmark) else "int")
            gaps.append(abs(measured - paper) * 100)
        return sum(gaps) / len(gaps)


class CellTiered(CellDetailed):
    name = "cell-tiered"
    why = ("the same four cells tiered at the legacy 100k size: trace "
           "build, fast_forward and SimPoint picking dominate; the cycle loop "
           "sees about a tenth")
    instructions_per_cell = 100_000

    def tier(self, seed):
        from repro.harness import TierPolicy

        # The clustering RNG takes non-negative seeds only.
        return TierPolicy(mode="tiered", interval=2_000, max_windows=6,
                          seed=seed % 2**32)

    def check(self, spec, result):
        represented = (result.tier_info or {}).get("represented_instructions")
        if represented != spec.instructions:
            return f"represented {represented} != requested {spec.instructions}"
        return super().check(spec, result)


class ValidateProbed(CellWorkload):
    name = "validate-probed"
    why = ("chaos cells with the sanitizer and both static probes: the only "
           "workload running the spin loop, probes and staticcheck")
    instructions_per_cell = 2_500
    benchmarks = ("505.mcf_r", "531.deepsjeng_r", "557.xz_r", "500.perlbench_r")
    schemes = ("atr", "combined")
    #: Chaos machines per (benchmark, scheme): each seed jitters the
    #: machine differently, so several even out the batch's cost.
    machines = 2
    rf_size = 64

    @property
    def executor(self):
        from repro.validate.chaos import execute_chaos_spec

        return execute_chaos_spec

    def specs(self, seed):
        from repro.validate.chaos import ChaosSpec

        cells = [(pick_variant(seed, b), scheme) for b in self.benchmarks
                 for _ in range(self.machines) for scheme in self.schemes]
        return [ChaosSpec(variant, scheme, self.rf_size,
                          self.instructions_per_cell,
                          seed=seed * len(cells) + k, intensity="medium")
                for k, (variant, scheme) in enumerate(cells)]

    def check(self, spec, result):
        if result.error is not None:
            return f"chaos cell reported an error: {result.error}"
        return super().check(spec, result)

    def paper_gap_pp(self, batch):
        """Gap between the probed int traces' atomic-register ratio and
        the paper's SPECint average (Fig 6) — the one paper number these
        jittered machines still share with the paper: it is a property
        of the traces, not of the timing."""
        from repro.analysis import classify_regions
        from repro.experiments import expectations
        from repro.workloads import build_trace

        benchmarks = sorted({spec.benchmark for spec in batch.results})
        ratios = [classify_regions(build_trace(b, self.instructions_per_cell))
                  .ratio("atomic") for b in benchmarks]
        measured = sum(ratios) / len(ratios)
        return abs(measured - expectations.FIG06_INT_ATOMIC_RATIO) * 100


class FigureSweep:
    """``experiments.fig10.run`` over the quick suite, cold then warm."""

    name = "figure-sweep"
    why = ("Fig 10 over the quick suite (32 cells, jobs<=nproc), cold then "
           "warm store: fixed per-cell costs and store writes against reads")
    instructions_per_cell = 2_000
    int_benchmarks = ("505.mcf_r", "531.deepsjeng_r")
    fp_benchmarks = ("503.bwaves_r", "508.namd_r")
    sizes = (64, 224)

    def __init__(self):
        # The CPUs this process may run on, which in a container can be
        # fewer than the host's count.
        self.jobs = min(2, len(os.sched_getaffinity(0)))

    def specs(self, seed):
        """The figure's arguments: the quick suite on its default refs.

        The seed picks no refs here.  Each suite average covers only two
        kernels, and deepsjeng's ``ref2`` moves its speedups by 7-20
        points.  Drawing refs from the seed would make ``paper_gap_pp``
        depend on the seed more than on the code.
        """
        return list(self.int_benchmarks), list(self.fp_benchmarks)

    def _cells(self, suites):
        from repro.experiments import fig10

        ints, fps = suites
        return [(b, rf, s) for b in list(ints) + list(fps)
                for rf in self.sizes for s in ("baseline",) + fig10.SCHEMES]

    def run_batch(self, suites, work: Path, tracer=None,
                  collect_workers=None) -> Batch:
        from repro.experiments import fig10, runner
        from repro.harness import SweepProgress, set_default_progress
        from repro.workloads import clear_trace_cache

        ints, fps = suites
        kwargs = dict(int_benchmarks=list(ints), fp_benchmarks=list(fps),
                      sizes=self.sizes, instructions=self.instructions_per_cell,
                      jobs=self.jobs)
        batch = Batch()
        cells = self._cells(suites)
        previous = os.environ.get("REPRO_CACHE_DIR")
        os.environ["REPRO_CACHE_DIR"] = str(work / "store")
        try:
            runner.clear_result_cache()
            clear_trace_cache()
            gc.collect()
            progress = SweepProgress()
            set_default_progress(progress)
            with span(tracer, "bench.pass"):
                began = clock()
                figure = fig10.run(**kwargs)
                batch.text = figure.render()
                batch.cold_s = clock() - began
            if collect_workers is not None:
                collect_workers()
            batch.attempted = len(cells)
            batch.retries = progress.retries
            batch.harness_failures = progress.failed
            batch.cell_keys = [name for name, _ in progress.cell_times]
            batch.cell_seconds = [elapsed for _, elapsed in progress.cell_times]
            batch.compute_s = batch.cold_s
            for cell in cells:
                result = runner.run_cell(cell[0], cell[1], cell[2],
                                         self.instructions_per_cell)
                if result.stats.committed != self.instructions_per_cell:
                    batch.failures[describe(cell)] = (
                        f"committed {result.stats.committed} != requested "
                        f"{self.instructions_per_cell}")
                    continue
                batch.results[cell] = result
                batch.instructions += result.stats.committed
            batch.gap = _fig10_gap_pp(figure)
            gc.collect()
            self._warm(batch, kwargs)
        finally:
            set_default_progress(None)
            runner.clear_result_cache()
            if previous is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = previous
        return batch

    def _warm(self, batch: Batch, kwargs) -> None:
        from repro.experiments import fig10, runner
        from repro.harness import SweepProgress, set_default_progress

        for _ in range(WARM_REPEATS):
            runner.clear_result_cache()
            progress = SweepProgress()
            set_default_progress(progress)
            start = clock()
            text = fig10.run(**kwargs).render()
            batch.warm_samples.append(clock() - start)
            if progress.completed or text != batch.text:
                batch.failures["figure"] = (
                    f"warm figure recomputed {progress.completed} cell(s) or "
                    f"rendered different text")
            if len(batch.warm_samples) > 1:
                continue
            for cell, result in batch.results.items():
                stored = runner.run_cell(cell[0], cell[1], cell[2],
                                         self.instructions_per_cell)
                if not same_result(stored, result):
                    batch.failures[describe(cell)] = (
                        "stored result does not decode equal to the "
                        "computed one")

    def paper_gap_pp(self, batch: Batch) -> float:
        return batch.gap


def describe(key) -> str:
    """Display name of a batch result key (a spec or a figure cell)."""
    if hasattr(key, "describe"):
        return key.describe()
    return "/".join(str(part) for part in key)


def _fig10_gap_pp(figure) -> float:
    """Mean absolute gap, in points, over the eight Fig 10 compare lines."""
    from repro.experiments import expectations

    e = expectations.FIG10
    pairs = []
    for which in ("int", "fp"):
        pairs.append((figure.average(which, 64, "atr"), e[(64, "atr", which)]))
        pairs.append((figure.average(which, 64, "nonspec_er"),
                      e[(64, "nonspec_er", which)]))
        pairs.append((figure.combined_over_nonspec(which, 64),
                      e[(64, "combined_over_nonspec", which)]))
        pairs.append((figure.average(which, 224, "atr"),
                      e[(224, "atr", which)]))
    return sum(abs(m - p) for m, p in pairs) / len(pairs) * 100


WORKLOADS = {w.name: w for w in (CellDetailed(), CellTiered(), FigureSweep(),
                                 ValidateProbed())}


def probe_overhead(workload, specs):
    """``(ratio, mismatches)``: probed ``Core.run`` time over an unprobed
    twin of the same chaos cells, and the cells whose twin simulated
    different stats (probes and the sanitizer must only observe).

    The twin rebuilds the cell exactly as ``run_chaos_cell`` does — same
    seeded RNG stream, jittered machine and interrupt schedule — minus
    the sanitizer and the static probes.  Workloads without probes
    report a ratio of 0 (not measured).
    """
    if not isinstance(workload, ValidateProbed):
        return 0.0, []
    probed_s = twin_s = 0.0
    mismatches = []
    for spec in specs:
        probed, probed_stats = _time_chaos_core(spec, probes=True)
        twin, twin_stats = _time_chaos_core(spec, probes=False)
        probed_s += probed
        twin_s += twin
        if probed_stats != twin_stats:
            mismatches.append(spec.describe())
    return probed_s / twin_s, mismatches


def _time_chaos_core(spec, probes: bool):
    from dataclasses import replace

    from repro.staticcheck import AtrSoundnessProbe, StaticBoundProbe
    from repro.validate import chaos
    from repro.workloads import build_trace

    knobs = chaos.INTENSITIES[spec.intensity]
    rng = chaos._chaos_rng(spec)
    trace = build_trace(spec.benchmark, spec.instructions)
    config = chaos.chaos_config(spec, rng)
    if not probes:
        config = replace(config, check_invariants=False)
    core = chaos.ChaosCore(config, trace, rng, flip_prob=knobs["flip_prob"],
                           exec_jitter=knobs["exec_jitter"])
    # Consumes the RNG exactly as run_chaos_cell does, so both cores see
    # the same fault stream.
    chaos._schedule_interrupts(core, rng, knobs["max_interrupts"],
                               horizon=spec.instructions * 3)
    if probes:
        core.add_probe(AtrSoundnessProbe(
            trace.program, strict_unclaimed=(spec.scheme == "atr")))
        core.add_probe(StaticBoundProbe(trace.program))
    began = clock()
    stats = core.run()
    elapsed = clock() - began
    return elapsed, (stats.to_dict(), core.scheme.stats.to_dict())
