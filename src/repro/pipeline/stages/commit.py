"""Commit stage: in-order retirement, up to retire width.

Stores write the memory image here (address/value were captured at
issue), and the release scheme's commit hook performs conventional
frees.  Per-instruction stage timings are observed through the
``commit`` probe event (:class:`repro.analysis.TimelineProbe`).
"""

from __future__ import annotations

from . import Stage


class CommitStage(Stage):
    """Retire completed, precommitted instructions from the ROB head."""

    name = "commit"

    def __init__(self, state):
        super().__init__(state)
        self.width = self.config.retire_width
        self.rob = state.rob
        self.scheme = state.scheme
        self.checkpoints = state.checkpoints
        self.memory = state.memory
        self.stats = state.stats
        self.stores = state.stores
        self.mem_values = state.mem_values

    def run(self, state, cycle: int) -> None:
        rob = self.rob
        scheme = self.scheme
        stats = self.stats
        probes = state.probes
        for _ in range(self.width):
            entry = rob.head()
            if entry is None or not entry.completed or not entry.precommitted:
                break
            rob.pop_head()
            entry.committed = True
            entry.cycle_commit = cycle
            instr = entry.instr
            if instr.is_store:
                self._commit_store(state, entry, cycle)
            if instr.is_load:
                state.lq_used -= 1
            scheme.on_commit(entry, cycle)
            if entry.dyn.trace_seq >= 0:
                state.last_committed_trace_seq = entry.dyn.trace_seq
            if probes is not None:
                for fn in probes.commit:
                    fn(entry, cycle)
            if entry.has_checkpoint:
                self.checkpoints.release_older_equal(entry.seq)
            stats.count_commit(instr.op_class.value)

    def _commit_store(self, state, entry, cycle: int) -> None:
        record = self.stores.pop(entry.seq, None)
        if record is not None:
            mem_values = self.mem_values
            for addr, value in record.words:
                mem_values[addr] = value
            try:
                state.store_order.remove(entry.seq)
            except ValueError:
                pass
        state.drop_store_words(entry)
        state.sq_used -= 1
        if entry.dyn.mem_addr is not None:
            self.memory.store(cycle, entry.dyn.mem_addr, pc=entry.dyn.pc)
