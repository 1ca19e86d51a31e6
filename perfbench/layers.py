"""Layer instrumentation for the traced run, wrapped from outside.

Nothing is added inside ``src/repro``: :class:`Instrumentation` swaps
each layer's public function (or method) for a wrapper that opens a
span around the call, and puts the originals back on exit.  A module
function is replaced under every name a loaded ``repro`` module binds
it to (``from .x import f`` copies the reference), so callers that
imported it directly are traced too.

The stage and scheme-tick wrappers are installed on the classes, so a
:class:`~repro.pipeline.Core` must be built *after* installation: it
caches bound stage methods when it is constructed.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional, Tuple

from .tracer import Tracer

#: Per-cycle span names, folded into per-parent summaries.
STAGES = ("fetch", "rename", "issue", "execute", "precommit", "commit")
HOT_SPANS = tuple(f"pipeline.stage.{s}" for s in STAGES) + ("pipeline.scheme_tick",)

#: Modules whose import binds the traced functions under other names.
_IMPORTS = ("repro.harness", "repro.tiered", "repro.experiments.fig10",
            "repro.validate")


def _count_emulated(tracer, args, kwargs, trace, token):
    tracer.count("frontend.emulated_instr", len(trace.entries))


def _count_fast_forward(tracer, args, kwargs, states, token):
    stops = args[2] if len(args) > 2 else kwargs["stops"]
    prefix = max(stops, default=0)
    tracer.count("warmup.instr", prefix)
    # fast_forward re-emulates the program prefix the trace already holds.
    tracer.count("frontend.emulated_instr", prefix)


def _emulated_before(tracer, args, kwargs):
    return tracer.counters["frontend.emulated_instr"]


def _count_kept(tracer, args, kwargs, trace, emulated_before):
    # A trace-cache hit emulates nothing and keeps nothing new.
    if tracer.counters["frontend.emulated_instr"] != emulated_before:
        tracer.count("workloads.traces", 1)
        tracer.count("frontend.kept_instr", len(trace.entries))


def _count_core_run(tracer, args, kwargs, stats, token):
    tracer.count("pipeline.run_cycles", stats.cycles)
    tracer.count("pipeline.run_committed", stats.committed)


def _count_store_get(tracer, args, kwargs, result, token):
    tracer.count("harness.store_misses" if result is None
                 else "harness.store_hits")


def _count_store_put(tracer, args, kwargs, path, token):
    tracer.count("harness.result_bytes", Path(path).stat().st_size)


class Target(NamedTuple):
    """One traced call: where it lives, its span name, optional hooks."""

    module: str
    path: str  #: attribute path inside the module, e.g. ``Core.run``
    span: str
    before: Optional[Callable] = None
    after: Optional[Callable] = None


_STAGE_MODULE = "repro.pipeline.stages"

TARGETS: Tuple[Target, ...] = (
    Target("repro.workloads.suite", "build_trace", "workloads.build_trace",
           _emulated_before, _count_kept),
    Target("repro.workloads.suite", "Workload.build", "workloads.build"),
    Target("repro.frontend.emulator", "Emulator.run", "frontend.emulate",
           after=_count_emulated),
    Target("repro.frontend.emulator", "final_state", "validate.golden"),
    Target("repro.workloads.simpoint", "pick_simpoints", "simpoint.pick"),
    Target("repro.pipeline.warmup", "fast_forward", "warmup.fast_forward",
           after=_count_fast_forward),
    Target("repro.tiered", "run_tiered", "tiered.run_tiered"),
    Target("repro.pipeline.core", "Core.run", "pipeline.core_run",
           after=_count_core_run),
    *(Target(f"{_STAGE_MODULE}.{stage}", f"{stage.capitalize()}Stage.run",
             f"pipeline.stage.{stage}") for stage in STAGES),
    Target(f"{_STAGE_MODULE}.flush", "FlushStage.flush_from",
           "pipeline.stage.flush"),
    Target(f"{_STAGE_MODULE}.flush", "FlushStage.interrupt_flush",
           "pipeline.stage.flush"),
    Target("repro.rename.schemes.base", "ReleaseScheme.tick",
           "pipeline.scheme_tick"),
    Target("repro.rename.schemes.atr", "AtrScheme.tick", "pipeline.scheme_tick"),
    Target("repro.harness.jobs", "execute_spec", "harness.execute"),
    Target("repro.validate.chaos", "execute_chaos_spec", "harness.execute"),
    Target("repro.harness.serialize", "encode_result", "harness.encode"),
    Target("repro.harness.serialize", "decode_result", "harness.decode"),
    Target("repro.harness.store", "ResultStore.get", "harness.store_get",
           after=_count_store_get),
    Target("repro.harness.store", "ResultStore.put", "harness.store_put",
           after=_count_store_put),
    Target("repro.harness.sweep", "sweep", "harness.sweep"),
    Target("repro.experiments.fig10", "run", "experiments.figure"),
    Target("repro.experiments.fig10", "Fig10Result.render",
           "experiments.render"),
    Target("repro.experiments.runner", "prime_cells", "experiments.prime_cells"),
    Target("repro.experiments.runner", "run_cell", "experiments.run_cell"),
    Target("repro.validate.chaos", "run_chaos_cell", "validate.chaos_cell"),
    Target("repro.staticcheck.oracle", "AtrSoundnessProbe.__init__",
           "staticcheck.probe_build"),
    Target("repro.staticcheck.pressure", "StaticBoundProbe.__init__",
           "staticcheck.probe_build"),
)


def _span_wrapper(fn: Callable, name: str, tracer: Tracer,
                  before: Optional[Callable], after: Optional[Callable]):
    begin, end = tracer.begin, tracer.end
    if before is None and after is None:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(frame)
        return traced

    @functools.wraps(fn)
    def traced_with_hooks(*args, **kwargs):
        token = before(tracer, args, kwargs) if before is not None else None
        frame = begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            end(frame)
        if after is not None:
            after(tracer, args, kwargs, result, token)
        return result
    return traced_with_hooks


def _worker_wrapper(fn: Callable, tracer: Tracer, spool: Path):
    """Scheduler worker body that records its own spans and writes them
    to *spool* before the forked process exits."""

    @functools.wraps(fn)
    def traced_worker(executor, spec, conn):
        tracer.reset_for_fork()
        try:
            frame = tracer.begin("harness.worker")
            try:
                fn(executor, spec, conn)
            finally:
                tracer.end(frame)
        finally:
            tracer.dump(spool / f"worker-{os.getpid()}.json")
    return traced_worker


class Instrumentation:
    """Context manager installing every layer wrapper on one tracer."""

    def __init__(self, tracer: Tracer, spool: Path):
        self.tracer = tracer
        self.spool = spool
        self._undo: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        for module in _IMPORTS:
            importlib.import_module(module)
        try:
            for target in TARGETS:
                owner, attr, original = _resolve(target.module, target.path)
                self._replace(owner, attr, original,
                              _span_wrapper(original, target.span, self.tracer,
                                            target.before, target.after))
            scheduler = importlib.import_module("repro.harness.scheduler")
            self.spool.mkdir(parents=True, exist_ok=True)
            self._replace(scheduler, "_worker", scheduler._worker,
                          _worker_wrapper(scheduler._worker, self.tracer,
                                          self.spool))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def collect_workers(self) -> int:
        """Merge and remove the span files written by worker processes."""
        paths = sorted(self.spool.glob("worker-*.json"))
        merged = self.tracer.merge(paths)
        for path in paths:
            path.unlink()
        return merged

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        if isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # A module function: rebind it wherever a repro module holds it.
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith(
                    "repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, wrapper)


def _resolve(module_name: str, path: str):
    """``(owner, attribute, original)`` for a dotted attribute path."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        original = owner.__dict__[attr]  # defined on this class itself
    else:
        original = getattr(owner, attr)
    return owner, attr, original
