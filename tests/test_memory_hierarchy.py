"""Memory hierarchy timing: level latencies, MSHR merging, prefetch."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory import (
    CompositePrefetcher,
    HierarchyConfig,
    MemoryHierarchy,
    NextLinePrefetcher,
    StridePrefetcher,
)


def _hierarchy(**overrides):
    config = HierarchyConfig(enable_prefetch=False, **overrides)
    return MemoryHierarchy(config)


class TestLatencies:
    def test_l1_hit_after_fill(self):
        m = _hierarchy()
        first = m.load(0, 0x1000)
        assert first > m.config.l1d_latency  # cold miss
        # wait for the fill to land, then hit
        second = m.load(first + 1, 0x1000)
        assert second == first + 1 + m.config.l1d_latency

    def test_cold_miss_goes_to_dram(self):
        m = _hierarchy()
        completion = m.load(0, 0x2000)
        assert completion >= m.config.llc_latency + m.config.dram_latency

    def test_l2_hit_latency(self):
        m = _hierarchy()
        done = m.load(0, 0x3000)
        # evict from L1 only
        m.l1d.invalidate(0x3000)
        second = m.load(done + 1, 0x3000)
        assert second - (done + 1) == m.config.l1d_latency + m.config.l2_latency

    def test_ifetch_uses_l1i(self):
        m = _hierarchy()
        done = m.fetch(0, 0x100)
        hit = m.fetch(done + 1, 0x100)
        assert hit == done + 1 + m.config.l1i_latency


class TestMshr:
    def test_merge_same_block(self):
        m = _hierarchy()
        first = m.load(0, 0x4000)
        merged = m.load(2, 0x4008)  # same line, still in flight
        assert merged == first
        assert m.mshr_merges == 1

    def test_in_flight_hit_waits_for_fill(self):
        """A 'hit' on a line whose fill is still in flight cannot complete
        before the data arrives (the serial-pointer-chase case)."""
        m = _hierarchy()
        first = m.load(0, 0x5000)
        hit = m.load(5, 0x5000)  # same address: L1 'hits' instantly
        assert hit == max(first, 5 + m.config.l1d_latency)
        assert hit == first

    def test_full_mshr_serializes(self):
        m = _hierarchy(mshr_entries=2)
        m.load(0, 0x10000)
        m.load(0, 0x20000)
        third = m.load(0, 0x30000)
        assert m.mshr_stalls == 1
        assert third > m.config.llc_latency + m.config.dram_latency

    def test_mshr_reaped_after_completion(self):
        m = _hierarchy(mshr_entries=1)
        done = m.load(0, 0x10000)
        # after completion, new misses do not stall
        m.load(done + 1, 0x20000)
        assert m.mshr_stalls == 0


class TestPrefetchTiming:
    def test_prefetch_is_not_instant(self):
        config = HierarchyConfig(enable_prefetch=True)
        m = MemoryHierarchy(config)
        # Train a stride stream from one PC.
        cycle = 0
        completions = []
        for i in range(8):
            done = m.load(cycle, 0x40000 + i * 64, pc=0x10)
            completions.append(done - cycle)
            cycle = done + 1
        # Prefetching must help eventually...
        assert min(completions[3:]) < completions[0]
        # ...but a prefetched line demanded immediately is not free:
        # issue a demand right after the prefetch train starts.
        m2 = MemoryHierarchy(HierarchyConfig(enable_prefetch=True))
        for i in range(3):
            m2.load(i, 0x50000 + i * 64, pc=0x20)
        demanded = m2.load(4, 0x50000 + 4 * 64, pc=0x999)
        assert demanded - 4 > m2.config.l1d_latency + m2.config.l2_latency


class TestPrefetchers:
    def test_stride_detector_needs_confirmation(self):
        p = StridePrefetcher(threshold=2, degree=2)
        assert p.observe(100, pc=1) == []
        assert p.observe(108, pc=1) == []   # stride learned
        assert p.observe(116, pc=1) == []   # confirmed once
        out = p.observe(124, pc=1)          # confident now
        assert out == [132, 140]

    def test_stride_reset_on_change(self):
        p = StridePrefetcher(threshold=1, degree=1)
        p.observe(0, pc=1)
        p.observe(8, pc=1)
        assert p.observe(16, pc=1) == [24]
        assert p.observe(100, pc=1) == []  # broken stride

    def test_next_line(self):
        p = NextLinePrefetcher(line_bytes=64, degree=2)
        assert p.observe(130, pc=0) == [192, 256]

    def test_composite_deduplicates(self):
        p = CompositePrefetcher(line_bytes=64)
        for i in range(4):
            p.observe(i * 64, pc=7)
        out = p.observe(4 * 64, pc=7)
        assert len(out) == len(set(out))


def test_stats_table_structure():
    m = _hierarchy()
    m.load(0, 0)
    table = m.stats_table()
    assert set(table) == {"L1I", "L1D", "L2", "LLC", "DRAM"}
    assert table["L1D"]["accesses"] == 1


def test_dram_row_conflicts_counted():
    m = _hierarchy()
    m.load(0, 0)
    m.load(0, 1 << 20)
    assert m.dram.accesses == 2
    assert m.dram.row_misses >= 1


class _FullScanHierarchy(MemoryHierarchy):
    """The MSHR reap's definition: scan every entry on every access."""

    def _reap_mshr(self, cycle):
        done = [b for b, when in self._mshr.items() if when <= cycle]
        for b in done:
            del self._mshr[b]


_ACCESS = st.tuples(
    st.sampled_from(("load", "store", "fetch")),
    st.integers(min_value=-8, max_value=80),            # cycle step
    st.integers(min_value=0, max_value=63),             # line
    st.sampled_from((0, 8, 64 * 7, -64)),               # offset / stride
    st.integers(min_value=0, max_value=7),              # pc
)


@settings(max_examples=200, deadline=None)
@given(accesses=st.lists(_ACCESS, max_size=200),
       mshr_entries=st.integers(min_value=1, max_value=6),
       prefetch=st.booleans())
def test_mshr_reap_skip_matches_full_scan(accesses, mshr_entries, prefetch):
    """Reaping only the due fills off the completion heap (and nothing
    before the earliest is due) changes nothing: same completion
    cycles, merges, stalls, cache statistics and MSHR contents."""
    config = HierarchyConfig(mshr_entries=mshr_entries, enable_prefetch=prefetch,
                             l1d_size=4 * 1024, l1d_ways=2)
    fast, reference = MemoryHierarchy(config), _FullScanHierarchy(config)
    cycle = 0
    for kind, step, line, offset, pc in accesses:
        cycle = max(0, cycle + step)
        addr = max(0, 0x10000 + line * 64 * 13 + offset)
        if kind == "fetch":
            assert fast.fetch(cycle, addr) == reference.fetch(cycle, addr)
        else:
            access = "load" if kind == "load" else "store"
            assert (getattr(fast, access)(cycle, addr, pc=pc)
                    == getattr(reference, access)(cycle, addr, pc=pc))
        if cycle % 97 == 0:
            fast.clear_mshr()
            reference.clear_mshr()
    assert fast.mshr_merges == reference.mshr_merges
    assert fast.mshr_stalls == reference.mshr_stalls
    assert fast.stats_table() == reference.stats_table()
    assert fast._mshr == reference._mshr
