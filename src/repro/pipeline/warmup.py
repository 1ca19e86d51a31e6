"""Functional fast-forward warmup for tiered simulation.

The tiered protocol (DESIGN.md, "Tiered simulation") replays a trace
prefix's own records — every executed pc, branch outcome and memory
address is already there — while updating only the cheap-to-model
microarchitectural state that matters for detailed accuracy, then hands
the result to a detailed :class:`~.core.Core` so the cycle-level window
starts hot instead of cold:

* **branch state** — every correct-path control instruction trains the
  direction predictor, BTB, indirect predictor, and RAS through the same
  ``predict``-then-``resolve`` sequence the fetch stage performs, so the
  predictor tables at the window boundary match what a detailed run from
  the start would have produced up to timing-dependent wrong-path noise
  (wrong-path fetch trains nothing in this machine, which is what makes
  this approximation tight);
* **cache/memory state** — instruction fetch touches the icache once per
  fetch-target block, loads and stores touch the data side, with the
  instruction index as a pseudo-cycle so MSHR merging and DRAM row state
  evolve plausibly; snapshots clear the MSHR file (all fills have
  logically arrived by the window boundary);
* **architectural state** — only with ``config.execute_values``, the
  one mode that reads it: the golden emulator steps alongside the
  records (checking it stays on the trace's pc path), and its registers,
  FLAGS and memory are installed through the initial RAT so the window's
  value execution and end-of-window architectural comparison see the
  prefix's effects.  Without value execution the prefix is never
  emulated and ``WarmupState.arch`` is ``None``.

What is deliberately **not** primed: ROB/queue occupancy, in-flight
instructions, rename state beyond the architectural mapping, and store
buffers — the pipeline drains at a window boundary by construction, and
the first ~pipeline-depth cycles of a window re-fill the frontend (the
classic "detailed warmup" transient; EXPERIMENTS.md quantifies it).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..branch import BranchUnit
from ..frontend import ArchState, Emulator, Trace
from ..isa import FLAGS, I_BYTES, RegClass, ireg, vreg
from ..memory import MemoryHierarchy
from .config import CoreConfig


def _clone(obj):
    """Deep copy via pickle — several times faster than ``copy.deepcopy``
    on the dict-heavy predictor/cache state cloned here (enum members
    pickle by name, so singletons stay singletons)."""
    return pickle.loads(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))


@dataclass
class WarmupState:
    """Primed state at one fast-forward stop.

    ``apply_warmup`` deep-copies the mutable members, so one
    ``WarmupState`` may seed any number of detailed cores.
    """

    instructions: int  #: prefix length executed before this stop
    #: Emulator state at the stop; ``None`` unless the warming config
    #: executes values (nothing else reads it).
    arch: Optional[ArchState]
    branch_unit: BranchUnit
    memory: MemoryHierarchy


def fast_forward(config: CoreConfig, trace: Trace,
                 stops: Sequence[int]) -> List[WarmupState]:
    """Replay *trace*'s prefix records once, snapshotting at *stops*.

    Each stop is an instruction count (0 = cold start); stops are
    deduplicated and visited in ascending order, so a multi-window tiered
    run pays one pass over the records regardless of window count.
    """
    from .stages.fetch import make_predictor

    entries = trace.entries
    ordered = sorted(set(stops))
    if ordered and (ordered[0] < 0 or ordered[-1] > len(entries)):
        raise ValueError(
            f"warmup stops {ordered[0]}..{ordered[-1]} outside trace of "
            f"{len(entries)} instructions")

    branch_unit = BranchUnit(direction=make_predictor(config.predictor))
    memory = MemoryHierarchy(config.memory)
    if config.model_icache:
        # Same code-image pre-warm as build_state, so a window boundary
        # never looks *colder* than a from-reset detailed run.
        code_bytes = len(trace.program) * I_BYTES
        for addr in range(0, code_bytes, config.memory.line_bytes):
            memory.l1i.fill(addr)
            memory.l2.fill(addr)

    # Only value execution reads the architectural state, so only then
    # does the golden emulator step alongside the trace's records.
    emulator = Emulator(trace.program) if config.execute_values else None
    model_icache = config.model_icache
    ft_block_bytes = config.ft_block_bytes
    fetch, load, store = memory.fetch, memory.load, memory.store
    predict, resolve = branch_unit.predict, branch_unit.resolve
    last_fetch_block = -1
    executed = 0
    snapshots: List[WarmupState] = []
    for n, stop in enumerate(ordered, 1):
        for seq in range(executed, stop):
            record = entries[seq]
            pc = record.pc
            if emulator is not None:
                golden = emulator.step()
                if golden is None or golden.pc != pc:
                    raise RuntimeError(
                        f"fast-forward diverged from trace at instruction "
                        f"{seq} (pc {pc})")
            instr = record.instr
            if model_icache:
                block = (pc * I_BYTES) // ft_block_bytes
                if block != last_fetch_block:
                    fetch(seq, pc * I_BYTES)
                    last_fetch_block = block
                if record.taken:
                    last_fetch_block = -1
            if instr.is_control and not instr.is_halt:
                resolve(pc, instr, predict(pc, instr), record.taken, record.next_pc)
            if record.mem_addr is not None:
                if instr.is_load:
                    load(seq, record.mem_addr, pc=pc)
                elif instr.is_store:
                    store(seq, record.mem_addr, pc=pc)
        executed = stop
        # The last stop takes the live state; earlier ones take clones,
        # since the replay goes on mutating it.
        last = n == len(ordered)
        warm_memory = memory if last else _clone(memory)
        # Pseudo-time ends at the window boundary: every outstanding fill
        # has logically arrived, so the detailed window (which restarts
        # the clock at 0) must not inherit pseudo-cycle completion times.
        warm_memory.clear_mshr()
        snapshots.append(WarmupState(
            instructions=executed,
            arch=emulator.snapshot() if emulator is not None else None,
            branch_unit=branch_unit if last else _clone(branch_unit),
            memory=warm_memory,
        ))
    return snapshots


def apply_warmup(state, warmup: WarmupState, consume: bool = False) -> None:
    """Install *warmup* into a freshly built ``PipelineState``.

    Must run before stages are constructed (stages cache identity-stable
    references to ``state.branch_unit`` / ``state.memory``).  Under value
    execution the architectural registers are primed through the initial
    RAT mapping, so the window's value execution continues exactly from
    the prefix; otherwise the value state is left alone.

    With ``consume=True`` the warmup's mutable members move into the
    pipeline instead of being cloned — a single-use optimization for
    callers (like ``repro.tiered``) that discard the checkpoint after
    seeding exactly one core.
    """
    if consume:
        state.branch_unit = warmup.branch_unit
        state.memory = warmup.memory
    else:
        state.branch_unit = _clone(warmup.branch_unit)
        state.memory = _clone(warmup.memory)
    if not state.config.execute_values:
        return
    arch = warmup.arch
    if arch is None:
        raise ValueError(
            "warmup carries no architectural state: fast_forward it with "
            "a config that executes values")
    unit = state.rename_unit
    int_rat = unit.files[RegClass.INT].rat
    vec_rat = unit.files[RegClass.VEC].rat
    int_values = state.values[RegClass.INT]
    vec_values = state.values[RegClass.VEC]
    for i in range(16):
        int_values[int_rat.read(ireg(i).srt_slot)] = arch.int_regs[i]
        vec_values[vec_rat.read(vreg(i).srt_slot)] = arch.vec_regs[i]
    int_values[int_rat.read(FLAGS.srt_slot)] = arch.flags
    state.mem_values.clear()
    state.mem_values.update(arch.memory)
