"""Functional emulator — the golden model.

Executes a :class:`~repro.isa.program.Program` architecturally (no timing)
and records the dynamic trace the cycle simulator replays.  The cycle
simulator's committed architectural state must match this emulator's final
state exactly, for every release scheme; the integration tests enforce
that equivalence, which is the strongest correctness check on ATR's early
release and flush-walk logic.

Value semantics live in :mod:`repro.isa.semantics` and are shared with the
cycle simulator's value-execution mode, so the two models cannot drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..isa import (
    FLAGS,
    INT_SRT_SLOTS,
    NUM_INT_REGS,
    NUM_VEC_REGS,
    VEC_LANES,
    ArchReg,
    Instruction,
    Opcode,
    Program,
    RegClass,
)
from ..isa.semantics import BRANCH_CONDITIONS, MASK64, operation
from .trace import DynamicInstruction, Trace

#: 8-byte words; vector memory operations touch VEC_LANES consecutive words.
WORD_BYTES = 8


def canonical_memory(memory: Dict[int, int]) -> Dict[int, int]:
    """Drop zero-valued words from a memory image.

    Loads from unwritten addresses return zero, so an explicit zero store
    and an untouched address are architecturally indistinguishable; every
    golden-model comparison must canonicalize *both* sides with this one
    helper, or a model that materializes zeros (the emulator) diverges
    spuriously from one that filters them (the cycle core).
    """
    return {addr: value for addr, value in memory.items() if value != 0}


@dataclass
class ArchState:
    """Architectural state snapshot: registers, flags, memory."""

    int_regs: Tuple[int, ...]
    vec_regs: Tuple[Tuple[int, ...], ...]
    flags: int
    memory: Dict[int, int] = field(default_factory=dict)

    def read(self, reg: ArchReg):
        if reg.cls is RegClass.FLAGS:
            return self.flags
        if reg.cls is RegClass.INT:
            return self.int_regs[reg.index]
        return self.vec_regs[reg.index]

    def canonicalize(self) -> "ArchState":
        """A copy whose memory has zero-valued words dropped."""
        return ArchState(
            int_regs=self.int_regs,
            vec_regs=self.vec_regs,
            flags=self.flags,
            memory=canonical_memory(self.memory),
        )

    def diff(self, other: "ArchState", limit: int = 8) -> List[str]:
        """Mismatches against *other*, as human-readable lines.

        Both sides are canonicalized first, so callers may pass raw
        states.  Returns at most *limit* lines (empty = equivalent).
        """
        mine, theirs = self.canonicalize(), other.canonicalize()
        out: List[str] = []
        for i, (a, b) in enumerate(zip(mine.int_regs, theirs.int_regs)):
            if a != b:
                out.append(f"r{i}: {a:#x} != {b:#x}")
        if mine.flags != theirs.flags:
            out.append(f"flags: {mine.flags:#x} != {theirs.flags:#x}")
        for i, (a, b) in enumerate(zip(mine.vec_regs, theirs.vec_regs)):
            if a != b:
                out.append(f"v{i}: {a} != {b}")
        for addr in sorted(set(mine.memory) | set(theirs.memory)):
            a = mine.memory.get(addr, 0)
            b = theirs.memory.get(addr, 0)
            if a != b:
                out.append(f"mem[{addr:#x}]: {a:#x} != {b:#x}")
        if len(out) > limit:
            out = out[:limit] + [f"... and {len(out) - limit} more mismatches"]
        return out


def canonical_state(state: ArchState) -> ArchState:
    """Canonical form of *state* for golden-model comparison."""
    return state.canonicalize()


class EmulationError(RuntimeError):
    """Raised on architecturally impossible situations (bad PC, etc.)."""


#: A decoded static instruction: executes it as dynamic instruction
#: number ``seq`` and returns the record.
Handler = Callable[[int], DynamicInstruction]


class Emulator:
    """Architectural executor for the reproduction ISA.

    All integer arithmetic is modulo 2**64; division by zero yields zero
    (the *possibility* of the exception is what matters for atomic-region
    classification, and the paper's simulated SimPoints likewise take no
    real faults).  Loads from unwritten memory return zero.

    Each static instruction is decoded once, at construction, into a
    handler closure with its opcode, operand slots and immediate
    resolved; :meth:`step` and :meth:`run` both execute through
    :meth:`_execute`, the one interpreter loop over those handlers.
    """

    def __init__(self, program: Program):
        self.program = program
        #: The 16 GPRs followed by FLAGS (the integer file's SRT order).
        self.regs = [0] * INT_SRT_SLOTS
        self.vec_regs = [(0,) * VEC_LANES for _ in range(NUM_VEC_REGS)]
        self.memory: Dict[int, int] = dict(program.data)
        self.pc = 0
        self.halted = False
        self.executed = 0
        self._handlers: List[Handler] = [
            self._decode(pc, instr) for pc, instr in enumerate(program.instructions)]

    # -- state access --------------------------------------------------------
    def snapshot(self) -> ArchState:
        return ArchState(
            int_regs=tuple(self.regs[:NUM_INT_REGS]),
            vec_regs=tuple(self.vec_regs),
            flags=self.regs[FLAGS.srt_slot],
            memory=dict(self.memory),
        )

    def _slot(self, reg: ArchReg):
        """The (register list, index) pair holding *reg*."""
        return (self.vec_regs if reg.cls is RegClass.VEC else self.regs), reg.srt_slot

    # -- decode ----------------------------------------------------------------
    def _decode(self, pc: int, instr: Instruction) -> Handler:
        """Bind *instr* at *pc* to a handler closure.

        Register writes from :data:`~repro.isa.semantics.OPERATIONS` need
        no masking (its results are canonical); loaded words and stored
        values are masked exactly where the architecture defines them.
        """
        op = instr.opcode
        imm = instr.imm
        target = instr.target
        memory = self.memory
        regs = self.regs
        record = DynamicInstruction
        nxt = pc + 1

        if op is Opcode.HALT:
            return lambda seq: record(seq, pc, instr, pc, False, None)
        if op is Opcode.NOP:
            return lambda seq: record(seq, pc, instr, nxt, False, None)
        if op is Opcode.JMP:
            return lambda seq: record(seq, pc, instr, target, True, None)
        if instr.is_conditional_branch:
            taken_if = BRANCH_CONDITIONS[op]
            flags = FLAGS.srt_slot

            def branch(seq):
                if taken_if(regs[flags]):
                    return record(seq, pc, instr, target, True, None)
                return record(seq, pc, instr, nxt, False, None)
            return branch
        if op is Opcode.CALL:
            link, link_slot = self._slot(instr.dests[0])

            def call(seq):
                link[link_slot] = nxt
                return record(seq, pc, instr, target, True, None)
            return call
        if op in (Opcode.JR, Opcode.RET):
            via, via_slot = self._slot(instr.srcs[0])
            return lambda seq: record(seq, pc, instr, via[via_slot] & MASK64, True, None)
        if instr.is_load:
            base, base_slot = self._slot(instr.srcs[0])
            if op is Opcode.LD:
                dest, dest_slot = self._slot(instr.dests[0])

                def load(seq):
                    addr = (base[base_slot] + imm) & MASK64
                    dest[dest_slot] = memory.get(addr, 0) & MASK64
                    return record(seq, pc, instr, nxt, False, addr)
                return load
            if op is Opcode.VLD:
                dest, dest_slot = self._slot(instr.dests[0])

                def vload(seq):
                    addr = (base[base_slot] + imm) & MASK64
                    dest[dest_slot] = tuple(
                        memory.get((addr + i * WORD_BYTES) & MASK64, 0) & MASK64
                        for i in range(VEC_LANES))
                    return record(seq, pc, instr, nxt, False, addr)
                return vload
        if instr.is_store:
            src, src_slot = self._slot(instr.srcs[0])
            base, base_slot = self._slot(instr.srcs[1])
            if op is Opcode.ST:
                def store(seq):
                    addr = (base[base_slot] + imm) & MASK64
                    memory[addr] = src[src_slot] & MASK64
                    return record(seq, pc, instr, nxt, False, addr)
                return store

            def vstore(seq):
                addr = (base[base_slot] + imm) & MASK64
                for i, lane in enumerate(src[src_slot]):
                    memory[(addr + i * WORD_BYTES) & MASK64] = lane & MASK64
                return record(seq, pc, instr, nxt, False, addr)
            return vstore

        fn = operation(op)
        dest, dest_slot = self._slot(instr.dests[0])
        sources = [self._slot(reg) for reg in instr.srcs]
        if not sources:
            def alu0(seq):
                dest[dest_slot] = fn((), imm)
                return record(seq, pc, instr, nxt, False, None)
            return alu0
        if len(sources) == 1:
            (a, a_slot), = sources

            def alu1(seq):
                dest[dest_slot] = fn((a[a_slot],), imm)
                return record(seq, pc, instr, nxt, False, None)
            return alu1
        if len(sources) == 2:
            (a, a_slot), (b, b_slot) = sources

            def alu2(seq):
                dest[dest_slot] = fn((a[a_slot], b[b_slot]), imm)
                return record(seq, pc, instr, nxt, False, None)
            return alu2

        def alu(seq):
            dest[dest_slot] = fn([f[i] for f, i in sources], imm)
            return record(seq, pc, instr, nxt, False, None)
        return alu

    # -- execution -------------------------------------------------------------
    def _execute(self, limit: int, out: List[DynamicInstruction]) -> None:
        """Execute up to *limit* instructions, appending their records to
        *out*; stops after HALT."""
        if self.halted:
            return
        handlers = self._handlers
        size = len(handlers)
        append = out.append
        before = len(out)
        pc = self.pc
        try:
            for seq in range(self.executed, self.executed + limit):
                if not 0 <= pc < size:
                    raise EmulationError(
                        f"pc {pc} outside program {self.program.name!r}")
                record = handlers[pc](seq)
                append(record)
                pc = record.next_pc
                if record.instr.is_halt:
                    self.halted = True
                    break
        finally:
            self.pc = pc
            self.executed += len(out) - before

    def step(self) -> Optional[DynamicInstruction]:
        """Execute one instruction; return its dynamic record, or ``None``
        if the machine has halted."""
        out: List[DynamicInstruction] = []
        self._execute(1, out)
        return out[0] if out else None

    def run(self, max_instructions: int = 1_000_000) -> Trace:
        """Run until HALT or *max_instructions*; return the trace."""
        entries: List[DynamicInstruction] = []
        self._execute(max_instructions, entries)
        return Trace(program=self.program, entries=entries)


def run_program(program: Program, max_instructions: int = 1_000_000) -> Trace:
    """Convenience: emulate *program* from reset and return its trace."""
    return Emulator(program).run(max_instructions=max_instructions)


def final_state(program: Program, max_instructions: int = 1_000_000) -> ArchState:
    """Architectural state after emulating *program*."""
    emulator = Emulator(program)
    emulator.run(max_instructions=max_instructions)
    return emulator.snapshot()
