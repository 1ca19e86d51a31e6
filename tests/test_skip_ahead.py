"""Skip-ahead soundness: jumping the clock must be invisible to observers.

``Core.run`` advances the cycle counter over provably quiescent windows
instead of spinning through them, unless something must see every
cycle: a subscriber to a per-cycle probe event (``phase``,
``rename_stall``, ``cycle_end``) or an interrupt controller.  The
reference is therefore the same core with a ``cycle_end`` subscriber
attached.

The contract is *bit-identity* with that spin loop: every ``SimStats``
field (cycles included), the scheme's accounting, the rename unit's
stall counter, the final architectural state, and everything the
event-driven observers record — the event stream with its cycles, the
register-event log, the stage timeline and both static probes'
verdicts — on every kernel and on chaos-jittered machines whose
latencies and flush patterns are nothing like the golden-cove default.
"""

from dataclasses import replace

import pytest

from repro.analysis import TimelineProbe
from repro.frontend.emulator import canonical_state
from repro.pipeline import (
    PHASE_ORDER,
    Core,
    DeadlockError,
    InterruptController,
    Probe,
    RecordingProbe,
    RegisterEventProbe,
    fast_test_config,
)
from repro.staticcheck import AtrSoundnessProbe, StaticBoundProbe
from repro.validate.chaos import ChaosCore, ChaosSpec, _chaos_rng, chaos_config
from repro.workloads import ALL_BENCHMARKS, build_trace


class CycleCounter(Probe):
    """A ``cycle_end`` subscriber: forces the spin loop (the reference)."""

    def __init__(self):
        self.count = 0

    def on_cycle_end(self, cycle):
        self.count += 1


class EventRecorder(RecordingProbe):
    """:class:`RecordingProbe` without its per-cycle handlers, so it
    records every event-driven event and leaves skip-ahead on."""

    on_phase = Probe.on_phase
    on_rename_stall = Probe.on_rename_stall
    on_cycle_end = Probe.on_cycle_end


def _count_steps(core) -> list:
    """Wrap ``core.step``; the returned one-item list counts its calls."""
    calls = [0]
    step = core.step

    def counted():
        calls[0] += 1
        step()

    core.step = counted
    return calls


def _fingerprint(core, stats):
    return (
        stats.to_dict(),
        core.scheme.stats.to_dict(),
        core.state.rename_unit.stall_cycles,
        canonical_state(core.architectural_state()),
    )


def _observed_run(core, spin: bool):
    """Run *core* under every event-driven observer, plus a
    :class:`CycleCounter` when *spin*; returns ``(step calls,
    fingerprint)``."""
    program = core.trace.program
    recorder = core.add_probe(EventRecorder())
    events = core.add_probe(RegisterEventProbe())
    timeline = core.add_probe(TimelineProbe())
    oracle = core.add_probe(AtrSoundnessProbe(
        program, strict_unclaimed=(core.config.scheme == "atr")))
    bound = core.add_probe(StaticBoundProbe(program))
    if spin:
        core.add_probe(CycleCounter())
    assert core.state.probes.per_cycle is spin
    steps = _count_steps(core)
    stats = core.run()
    return steps[0], _fingerprint(core, stats) + (
        recorder.events,
        [record.to_dict() for record in events.log.records],
        timeline.rows,
        oracle.summary(), oracle.violations,
        bound.summary(), bound.violations,
    )


def assert_skip_identical(make_core) -> tuple:
    """Observed skip-ahead run == observed spin run, and skip-ahead
    really engaged (fewer ``step()`` calls than simulated cycles);
    returns the fingerprint."""
    spin_steps, spin = _observed_run(make_core(), spin=True)
    skip_steps, skip = _observed_run(make_core(), spin=False)
    assert skip == spin
    cycles = skip[0]["cycles"]
    assert spin_steps == cycles
    assert skip_steps < cycles
    return skip


@pytest.mark.parametrize("kernel", sorted(ALL_BENCHMARKS))
def test_skip_matches_spin_kernel_suite(kernel):
    trace = build_trace(kernel, 1500)
    config = fast_test_config(rf_size=40, scheme="atr")
    observed = assert_skip_identical(lambda: Core(config, trace))
    # An unprobed core simulates the same machine.
    core = Core(config, trace)
    assert _fingerprint(core, core.run()) == observed[:4]


@pytest.mark.parametrize("scheme", ["baseline", "nonspec_er", "combined"])
def test_skip_matches_spin_schemes(scheme):
    trace = build_trace("505.mcf_r", 2000)
    config = fast_test_config(rf_size=32, scheme=scheme)
    assert_skip_identical(lambda: Core(config, trace))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kernel", ["505.mcf_r", "503.bwaves_r"])
def test_skip_matches_spin_chaos_machines(kernel, seed):
    """Jittered machine shapes *and* jittered timing faults.

    Chaos faults draw from the seeded RNG per instruction event, not per
    cycle, so the event sequence is clock-jump-invariant and identity
    must still hold.  (The sanitizer is detached: its ``cycle_end``
    check forces the spin loop, which would make this test vacuous.)
    """
    spec = ChaosSpec(benchmark=kernel, scheme="atr", rf_size=40,
                     instructions=1500, seed=seed)
    config = replace(chaos_config(spec, _chaos_rng(spec)),
                     check_invariants=False)
    trace = build_trace(kernel, 1500)
    assert_skip_identical(lambda: ChaosCore(
        config, trace, rng=_chaos_rng(spec), flip_prob=0.02, exec_jitter=3))


class PhaseCounter(Probe):
    def __init__(self):
        self.count = 0

    def on_phase(self, name, cycle):
        self.count += 1


class StallCounter(Probe):
    def __init__(self):
        self.count = 0

    def on_rename_stall(self, cause, cycle):
        self.count += 1


@pytest.mark.parametrize("event", ["phase", "rename_stall", "cycle_end"])
def test_per_cycle_subscriber_sees_every_cycle(event):
    """A subscriber to one per-cycle event forces the spin loop, sees
    that event in every cycle it fires, and the run still matches the
    unprobed skip-ahead loop."""
    trace = build_trace("505.mcf_r", 1200)
    config = fast_test_config(rf_size=40, scheme="atr")
    skip_core = Core(config, trace)
    skip_stats = skip_core.run()

    core = Core(config, trace)
    probe = core.add_probe({"phase": PhaseCounter,
                            "rename_stall": StallCounter,
                            "cycle_end": CycleCounter}[event]())
    steps = _count_steps(core)
    stats = core.run()
    assert steps[0] == stats.cycles
    expected = {
        "phase": stats.cycles * len(PHASE_ORDER),
        "rename_stall": (stats.stall_empty + stats.stall_rob + stats.stall_rs
                         + stats.stall_lq + stats.stall_sq
                         + stats.stall_freelist),
        "cycle_end": stats.cycles,
    }[event]
    assert probe.count == expected
    assert _fingerprint(core, stats) == _fingerprint(skip_core, skip_stats)


def test_interrupt_controller_forces_spin_loop():
    trace = build_trace("505.mcf_r", 1200)
    core = Core(fast_test_config(rf_size=40, scheme="atr"), trace)
    controller = InterruptController(core, policy="flush", service_cycles=30)
    controller.schedule(at_cycle=200)
    steps = _count_steps(core)
    stats = core.run()
    assert controller.stats.serviced == 1
    assert steps[0] == stats.cycles


def test_probes_force_spin_loop():
    """A full :class:`RecordingProbe` subscribes to the per-cycle events
    too, so it forces the spin loop and sees one ``cycle_end`` per
    cycle; the probed run still matches the unprobed skip-ahead loop."""
    trace = build_trace("505.mcf_r", 1200)
    config = fast_test_config(rf_size=40, scheme="atr")
    skip_stats = Core(config, trace).run()

    core = Core(config, trace)
    probe = core.add_probe(RecordingProbe())
    steps = _count_steps(core)
    probed_stats = core.run()
    assert probed_stats.to_dict() == skip_stats.to_dict()
    assert steps[0] == len(probe.of_kind("cycle_end")) == probed_stats.cycles


def test_deadlock_raises_at_the_same_cycle():
    """The skip bound is clamped so max-cycle exhaustion fires at exactly
    the cycle the spin loop would report."""
    trace = build_trace("505.mcf_r", 1500)
    config = fast_test_config(rf_size=40, scheme="atr")
    cycles = []
    for spin in (True, False):
        core = Core(config, trace)
        if spin:
            core.add_probe(CycleCounter())
        with pytest.raises(DeadlockError):
            core.run(max_cycles=60)
        cycles.append(core.state.cycle)
    assert cycles[0] == cycles[1]
