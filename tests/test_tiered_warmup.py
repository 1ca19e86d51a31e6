"""Tiered simulation: warmup equivalence, window stitching, spec plumbing.

The load-bearing property is *warmup equivalence*: functionally
fast-forwarding a prefix and then running a detailed window must land on
exactly the architectural state the golden emulator reaches at the
window's end — on every kernel in the suite.  If warmup primed a wrong
register value, skipped a store, or diverged from the trace, the
detailed window's value execution would expose it here.
"""

import dataclasses

import pytest

from repro.frontend.emulator import Emulator
from repro.harness import (
    CellSpec,
    TierPolicy,
    simulate_cell,
    spec_digest,
    spec_from_dict,
    spec_to_dict,
)
from repro.pipeline import Core, fast_test_config
from repro.pipeline.warmup import fast_forward
from repro.tiered import run_tiered
from repro.workloads import ALL_BENCHMARKS, build_trace
from repro.workloads.simpoint import SimPoint, slice_trace


@pytest.mark.parametrize("kernel", sorted(ALL_BENCHMARKS))
def test_warmup_equivalence_kernel_suite(kernel):
    """fast-forward -> detailed window == emulator-from-reset, exactly."""
    trace = build_trace(kernel, 2400)
    total = len(trace.entries)
    start = total // 2
    config = fast_test_config(rf_size=64, scheme="atr")

    warm = fast_forward(config, trace, [start])[0]
    assert warm.instructions == start

    window = SimPoint(interval_index=0, start=start, length=total - start,
                      weight=1.0, cluster=0)
    core = Core(config, slice_trace(trace, window), warmup=warm)
    core.run()

    emulator = Emulator(trace.program)
    for _ in range(total):
        assert emulator.step() is not None
    golden = emulator.snapshot()

    mismatches = core.architectural_state().diff(golden, limit=16)
    assert not mismatches, "\n".join(mismatches)


def test_warmup_stops_deduplicated_and_ordered():
    trace = build_trace("505.mcf_r", 1200)
    config = fast_test_config(rf_size=64)
    snapshots = fast_forward(config, trace, [800, 0, 400, 800])
    assert [w.instructions for w in snapshots] == [0, 400, 800]
    # The cold checkpoint carries reset-state registers.
    assert snapshots[0].arch.int_regs == tuple([0] * 16)


def test_warmup_rejects_out_of_range_stops():
    trace = build_trace("505.mcf_r", 600)
    config = fast_test_config(rf_size=64)
    with pytest.raises(ValueError):
        fast_forward(config, trace, [len(trace.entries) + 1])


def test_warmup_checkpoint_seeds_many_cores():
    """Without consume, one checkpoint must be reusable: two cores seeded
    from it may not alias each other's branch/cache state."""
    trace = build_trace("531.deepsjeng_r", 1600)
    config = fast_test_config(rf_size=64, scheme="atr")
    start = 800
    warm = fast_forward(config, trace, [start])[0]
    window = SimPoint(interval_index=0, start=start, length=800,
                      weight=1.0, cluster=0)
    first = Core(config, slice_trace(trace, window), warmup=warm)
    second = Core(config, slice_trace(trace, window), warmup=warm)
    assert first.state.memory is not second.state.memory
    assert first.state.branch_unit is not second.state.branch_unit
    a, b = first.run(), second.run()
    assert a.to_dict() == b.to_dict()


def test_tiered_stitching_scales_to_full_trace():
    trace = build_trace("505.mcf_r", 6000)
    config = fast_test_config(rf_size=64, scheme="atr")
    stats, scheme_stats, info = run_tiered(config, trace, interval=1000,
                                           max_windows=3)
    assert stats.committed == len(trace.entries)
    assert stats.cycles > 0
    assert info["mode"] == "tiered"
    assert info["detailed_instructions"] == sum(
        w["length"] for w in info["windows"])
    assert info["detailed_instructions"] <= len(trace.entries)
    assert abs(sum(w["weight"] for w in info["windows"]) - 1.0) < 1e-9
    # Committed-instruction classes are scaled to full-trace magnitude.
    assert sum(stats.committed_by_class.values()) == pytest.approx(
        stats.committed, rel=0.05)
    # The scheme's accounting scales with it (atr frees registers early).
    assert scheme_stats.atr_frees > 0


def test_tiered_ipc_tracks_detailed_reference():
    """The tiered estimate is within a loose band of the full detailed
    run — this is a fidelity smoke, EXPERIMENTS.md holds the real data."""
    trace = build_trace("505.mcf_r", 6000)
    config = fast_test_config(rf_size=64, scheme="atr")
    stats, _, _ = run_tiered(config, trace, interval=1000, max_windows=3)
    detailed = Core(config, trace).run()
    assert stats.ipc == pytest.approx(detailed.ipc, rel=0.25)


def test_warmup_without_values_skips_arch():
    """Only value execution reads the architectural state, so without it
    the prefix is replayed from the records alone."""
    trace = build_trace("505.mcf_r", 1200)
    config = dataclasses.replace(fast_test_config(rf_size=64),
                                 execute_values=False)
    warm = fast_forward(config, trace, [600])[0]
    assert warm.instructions == 600
    assert warm.arch is None
    # A value-executing core cannot start from a state with no values.
    with pytest.raises(ValueError, match="architectural state"):
        Core(fast_test_config(rf_size=64), trace, warmup=warm)


@pytest.mark.parametrize("kernel",
                         ["505.mcf_r", "503.bwaves_r", "531.deepsjeng_r"])
def test_tiered_timing_independent_of_value_execution(kernel):
    """Skipping the architectural warmup moves no timing: tiered runs
    with and without value execution simulate identical statistics."""
    trace = build_trace(kernel, 4000)
    config = fast_test_config(rf_size=64, scheme="atr")
    runs = [run_tiered(dataclasses.replace(config, execute_values=values),
                       trace, interval=1000, max_windows=3)
            for values in (True, False)]
    (on_stats, on_scheme, on_info), (off_stats, off_scheme, off_info) = runs
    assert off_stats.to_dict() == on_stats.to_dict()
    assert off_scheme.to_dict() == on_scheme.to_dict()
    assert off_info == on_info


def test_tier_policy_spec_roundtrip_and_identity():
    tiered = CellSpec("505.mcf_r", 64, "atr", 4000,
                      tier=TierPolicy(mode="tiered"))
    detailed = CellSpec("505.mcf_r", 64, "atr", 4000)
    assert spec_from_dict(spec_to_dict(tiered)) == tiered
    assert spec_from_dict(spec_to_dict(detailed)) == detailed
    # The tier is part of the spec identity: a tiered result must never
    # answer a detailed request from the cache.
    assert spec_digest(tiered) != spec_digest(detailed)
    assert "tiered" in tiered.describe()
    with pytest.raises(ValueError):
        TierPolicy(mode="approximate")


def test_tiered_cell_through_harness():
    spec = CellSpec("505.mcf_r", 64, "atr", 4000,
                    tier=TierPolicy(mode="tiered", interval=1000,
                                    max_windows=2))
    result = simulate_cell(spec)
    assert result.stats.committed == 4000
    assert result.tier_info is not None
    assert len(result.tier_info["windows"]) <= 2

    from repro.harness import decode_cell_result, encode_cell_result
    decoded = decode_cell_result(encode_cell_result(result))
    assert decoded.tier_info == result.tier_info
    assert decoded.stats.to_dict() == result.stats.to_dict()


@pytest.mark.parametrize("tier", [TierPolicy(), TierPolicy(mode="tiered")])
@pytest.mark.parametrize("instructions", [0, -3])
def test_cell_rejects_non_positive_length(instructions, tier):
    spec = CellSpec("505.mcf_r", 128, "atr", instructions, tier=tier)
    with pytest.raises(ValueError, match=str(instructions)):
        simulate_cell(spec)


def test_tiered_rejects_register_event_recording():
    spec = CellSpec("505.mcf_r", 64, "atr", 4000,
                    record_register_events=True,
                    tier=TierPolicy(mode="tiered"))
    with pytest.raises(ValueError, match="detailed"):
        simulate_cell(spec)
