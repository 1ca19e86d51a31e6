"""TAGE direction predictor (TAGE-SC-L-lite).

A faithful-in-structure implementation of the TAGE predictor the paper's
Golden-Cove-like Scarab configuration uses ("TAGE-SC-L + BPU enhancements"):
a bimodal base predictor plus N partially-tagged tables indexed by
geometrically increasing global-history lengths, with provider/altpred
selection, useful counters, and graceful allocation on mispredictions.
A small loop predictor provides the "L" component; the statistical
corrector is omitted (it corrects <1% of predictions and does not affect
register-release behaviour).
"""

from __future__ import annotations

from typing import List, Optional

from .interface import DirectionPredictor, saturate
from .simple import Bimodal


class _TaggedTable:
    """One partially-tagged TAGE component.

    Entries are three parallel lists (tag, 3-bit counter, 2-bit useful).
    The index and tag hashes fold the table's ``history_length`` most
    recent outcomes down to their widths; the folds are kept up to date
    incrementally by :meth:`push`, which is exact (see there), so a
    lookup never refolds the history.  :meth:`_fold` is the from-scratch
    definition the incremental folds must always equal.
    """

    def __init__(self, entries: int, tag_bits: int, history_length: int):
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.tag_bits = tag_bits
        self.history_length = history_length
        self.tags = [0] * entries
        self.counters = [4] * entries  # weakly taken at 4 (range 0..7)
        self.useful = [0] * entries
        #: Fold widths and folded histories of the index, tag and
        #: shifted-tag hashes.
        self.widths = (entries.bit_length() - 1, tag_bits, tag_bits - 1)
        if min(self.widths) < 1:
            raise ValueError("a tagged table needs at least 2 entries and 2 tag bits")
        self.folds = [0, 0, 0]
        self._push_constants = tuple(
            (width, (1 << width) - 1, history_length % width) for width in self.widths)

    def _fold(self, history: int, bits: int) -> int:
        """Fold ``history_length`` history bits down to *bits* bits."""
        masked = history & ((1 << self.history_length) - 1)
        folded = 0
        while masked:
            folded ^= masked & ((1 << bits) - 1)
            masked >>= bits
        return folded

    def push(self, history: int, taken: int) -> None:
        """Advance the folds as *taken* shifts into *history*.

        Folding XORs every history bit at position p into fold bit
        ``p mod width``.  Shifting moves each bit from p to p + 1, so the
        new fold is the old one rotated left by one, XOR the incoming bit
        at 0, XOR the bit leaving the window (old position
        ``history_length - 1``) at ``history_length mod width``.
        """
        outgoing = (history >> (self.history_length - 1)) & 1
        folds = self.folds
        for i, (width, mask, leaving_at) in enumerate(self._push_constants):
            folded = (folds[i] << 1) | taken
            folds[i] = (folded ^ (folded >> width) ^ (outgoing << leaving_at)) & mask

    def index(self, pc: int) -> int:
        return (pc ^ (pc >> 4) ^ self.folds[0]) & (self.entries - 1)

    def tag(self, pc: int) -> int:
        folds = self.folds
        return (pc ^ folds[1] ^ (folds[2] << 1)) & ((1 << self.tag_bits) - 1)


class _LoopEntry:
    __slots__ = ("tag", "trip_count", "current", "confidence")

    def __init__(self):
        self.tag = 0
        self.trip_count = 0
        self.current = 0
        self.confidence = 0


class LoopPredictor:
    """Detects fixed-trip-count loops and predicts their exit."""

    def __init__(self, entries: int = 64, confidence_max: int = 3):
        self.entries = entries
        self.confidence_max = confidence_max
        self.table = [_LoopEntry() for _ in range(entries)]

    def _entry(self, pc: int) -> _LoopEntry:
        return self.table[pc % self.entries]

    def predict(self, pc: int) -> Optional[bool]:
        """Confident loop prediction, or ``None`` if not applicable."""
        e = self._entry(pc)
        if e.tag != pc or e.confidence < self.confidence_max or e.trip_count == 0:
            return None
        return e.current < e.trip_count

    def update(self, pc: int, taken: bool) -> None:
        e = self._entry(pc)
        if e.tag != pc:
            e.tag = pc
            e.trip_count = 0
            e.current = 0
            e.confidence = 0
            if not taken:
                return
        if taken:
            e.current += 1
        else:
            # Loop exit: does the trip count repeat?
            if e.trip_count == e.current and e.trip_count > 0:
                e.confidence = saturate(e.confidence, 1, 0, self.confidence_max)
            else:
                e.trip_count = e.current
                e.confidence = 0
            e.current = 0


class Tage(DirectionPredictor):
    """TAGE with a bimodal base, tagged components, and a loop predictor."""

    def __init__(
        self,
        num_tables: int = 6,
        table_entries: int = 1024,
        tag_bits: int = 9,
        min_history: int = 4,
        max_history: int = 128,
        base_entries: int = 8192,
        with_loop_predictor: bool = True,
    ):
        self.base = Bimodal(entries=base_entries, counter_bits=2)
        lengths = _geometric_lengths(num_tables, min_history, max_history)
        # The global history keeps max_history bits, so no table can see
        # further back than that (_geometric_lengths may overshoot it).
        self.tables: List[_TaggedTable] = [
            _TaggedTable(table_entries, tag_bits, min(length, max_history))
            for length in lengths
        ]
        self.history = 0
        self.history_bits = max_history
        self.loop = LoopPredictor() if with_loop_predictor else None
        self.use_alt_on_new = 8  # 4-bit counter, >=8 prefers altpred for fresh entries
        # Prediction bookkeeping (provider table etc.) keyed by pc for the
        # common predict -> update flow.
        self._last: dict = {}
        # (pc, lookup) of the latest lookup; tables and history change only
        # in update(), which clears it, so until then it stays exact.
        self._memo = None

    # -- prediction ----------------------------------------------------------
    def _lookup(self, pc: int):
        memo = self._memo
        if memo is not None and memo[0] == pc:
            return memo[1]
        provider = None
        provider_index = -1
        alt = None
        alt_index = -1
        for t in range(len(self.tables) - 1, -1, -1):
            table = self.tables[t]
            idx = table.index(pc)
            if table.tags[idx] == table.tag(pc):
                if provider is None:
                    provider, provider_index = t, idx
                elif alt is None:
                    alt, alt_index = t, idx
                    break
        found = (provider, provider_index, alt, alt_index)
        self._memo = (pc, found)
        return found

    def predict(self, pc: int) -> bool:
        if self.loop is not None:
            loop_pred = self.loop.predict(pc)
        else:
            loop_pred = None
        provider, p_idx, alt, a_idx = self._lookup(pc)
        base_pred = self.base.predict(pc)
        if provider is None:
            pred = base_pred
            alt_pred = base_pred
        else:
            table = self.tables[provider]
            counter = table.counters[p_idx]
            provider_pred = counter >= 4
            if alt is not None:
                alt_pred = self.tables[alt].counters[a_idx] >= 4
            else:
                alt_pred = base_pred
            newly_allocated = table.useful[p_idx] == 0 and counter in (3, 4)
            if newly_allocated and self.use_alt_on_new >= 8:
                pred = alt_pred
            else:
                pred = provider_pred
        self._last[pc] = (provider, p_idx, alt, a_idx, pred, alt_pred)
        return loop_pred if loop_pred is not None else pred

    def confidence(self, pc: int) -> bool:
        """High confidence when the provider counter is strongly saturated."""
        provider, p_idx, _, _ = self._lookup(pc)
        if provider is None:
            return self.base.confidence(pc)
        counter = self.tables[provider].counters[p_idx]
        return counter <= 1 or counter >= 6

    # -- update ----------------------------------------------------------------
    def update(self, pc: int, taken: bool) -> None:
        if self.loop is not None:
            self.loop.update(pc, taken)
        state = self._last.pop(pc, None)
        if state is None:
            # update without a preceding predict (e.g. replayed): look up now
            provider, p_idx, alt, a_idx = self._lookup(pc)
            pred = alt_pred = None
        else:
            provider, p_idx, alt, a_idx, pred, alt_pred = state
        self._memo = None

        if provider is not None:
            table = self.tables[provider]
            if pred is not None and pred != alt_pred:
                # provider was useful iff it was right where altpred was wrong
                table.useful[p_idx] = saturate(
                    table.useful[p_idx], 1 if pred == taken else -1, 0, 3)
                self.use_alt_on_new = saturate(
                    self.use_alt_on_new, -1 if pred == taken else 1, 0, 15
                )
            table.counters[p_idx] = saturate(
                table.counters[p_idx], 1 if taken else -1, 0, 7)
        else:
            self.base.update(pc, taken)

        mispredicted = pred is not None and pred != taken
        if mispredicted:
            self._allocate(pc, taken, provider)

        bit = int(taken)
        for table in self.tables:
            table.push(self.history, bit)
        self.history = ((self.history << 1) | bit) & ((1 << self.history_bits) - 1)

    def _allocate(self, pc: int, taken: bool, provider: Optional[int]) -> None:
        """Allocate a new entry in a longer-history table on a mispredict."""
        start = (provider + 1) if provider is not None else 0
        for t in range(start, len(self.tables)):
            table = self.tables[t]
            idx = table.index(pc)
            if table.useful[idx] == 0:
                table.tags[idx] = table.tag(pc)
                table.counters[idx] = 4 if taken else 3
                return
        # No victim: age the candidate entries instead.
        for t in range(start, len(self.tables)):
            table = self.tables[t]
            idx = table.index(pc)
            table.useful[idx] = saturate(table.useful[idx], -1, 0, 3)


def _geometric_lengths(count: int, shortest: int, longest: int) -> List[int]:
    """Geometrically spaced history lengths, TAGE-style."""
    if count == 1:
        return [shortest]
    ratio = (longest / shortest) ** (1.0 / (count - 1))
    lengths = []
    for i in range(count):
        length = int(round(shortest * ratio**i))
        if lengths and length <= lengths[-1]:
            length = lengths[-1] + 1
        lengths.append(length)
    return lengths
