"""Set-associative cache model.

Timing-directed: the hierarchy asks each level whether a block hits and
installs blocks on fills.  Replacement is true LRU per set; writebacks are
modeled by tracking dirty state (they cost DRAM bandwidth only in the
statistics, not extra latency, matching Scarab's default L1/L2 writeback
treatment).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

#: Line state flags: one small int per resident block.
DIRTY = 1
PREFETCHED = 2  #: installed by a prefetch, not yet hit by demand


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    prefetch_fills: int = 0
    prefetch_hits: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """One cache level.

    Args:
        name: For statistics reporting ("L1D", ...).
        size_bytes: Total capacity.
        ways: Associativity.
        line_bytes: Block size (power of two).
        latency: Hit latency in cycles (access time of this level).
    """

    def __init__(self, name: str, size_bytes: int, ways: int, line_bytes: int, latency: int):
        if line_bytes & (line_bytes - 1):
            raise ValueError("line_bytes must be a power of two")
        sets = size_bytes // (ways * line_bytes)
        if sets <= 0:
            raise ValueError("cache too small for its geometry")
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.latency = latency
        self.num_sets = sets
        self._line_shift = line_bytes.bit_length() - 1
        # set index -> OrderedDict {block_addr: DIRTY|PREFETCHED flags}; last = MRU
        self._sets: Dict[int, OrderedDict] = {}
        self.stats = CacheStats()

    def block_of(self, addr: int) -> int:
        return addr >> self._line_shift

    def lookup(self, addr: int, is_write: bool = False, update_stats: bool = True) -> bool:
        """Probe for *addr*; on hit, update LRU (and dirty on writes)."""
        block = addr >> self._line_shift
        target_set = self._sets.get(block % self.num_sets)
        if update_stats:
            self.stats.accesses += 1
        if target_set is not None and block in target_set:
            target_set.move_to_end(block)
            line = target_set[block]
            if is_write:
                line |= DIRTY
            if update_stats:
                self.stats.hits += 1
                if line & PREFETCHED:
                    self.stats.prefetch_hits += 1
                    line &= ~PREFETCHED
            target_set[block] = line
            return True
        if update_stats:
            self.stats.misses += 1
        return False

    def contains(self, addr: int) -> bool:
        """Probe without side effects."""
        block = addr >> self._line_shift
        target_set = self._sets.get(block % self.num_sets)
        return target_set is not None and block in target_set

    def fill(self, addr: int, dirty: bool = False, prefetched: bool = False) -> Optional[int]:
        """Install the block containing *addr*.

        Returns the evicted block's base address if a dirty block was
        written back, else ``None``.
        """
        block = addr >> self._line_shift
        target_set = self._sets.get(block % self.num_sets)
        if target_set is None:
            target_set = self._sets[block % self.num_sets] = OrderedDict()
        if block in target_set:
            target_set.move_to_end(block)
            if dirty:
                target_set[block] |= DIRTY
            return None
        writeback = None
        if len(target_set) >= self.ways:
            victim_block, victim = target_set.popitem(last=False)
            self.stats.evictions += 1
            if victim & DIRTY:
                self.stats.writebacks += 1
                writeback = victim_block << self._line_shift
        target_set[block] = (DIRTY if dirty else 0) | (PREFETCHED if prefetched else 0)
        if prefetched:
            self.stats.prefetch_fills += 1
        return writeback

    def invalidate(self, addr: int) -> None:
        block = self.block_of(addr)
        target_set = self._sets.get(block % self.num_sets)
        if target_set is not None:
            target_set.pop(block, None)

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    @property
    def resident_blocks(self) -> int:
        return sum(len(s) for s in self._sets.values())
