"""Golden tiered results and emulated traces.

``tests/data/golden_tiered.json`` pins two things the detailed golden
stats (``golden_stats.json``) do not cover:

* **tiered cells** — the stitched ``SimStats``, ``SchemeStats`` and
  ``tier_info`` of mcf and bwaves x baseline and atr, at rf=128, n=20k,
  up to four 2k-instruction SimPoint windows (mcf picks four, so its
  warmup passes three cloned stops and the live last one; bwaves is
  phase-stable and picks one).  These run through the kernel
  build, the emulator, ``fast_forward`` and the detailed core, so any
  drift in the functional layers (kernel data, predictor, caches,
  warmup handover) shows here;
* **emulated traces** — for each of the 31 refs at n=2000, a digest of
  the emulated records, the program image and the emulator's final
  architectural state.

Regenerate (only for a deliberate behaviour change, stated in the
change's notes) with ``PYTHONPATH=src python -m tests.test_golden_tiered``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.frontend import Emulator
from repro.harness.jobs import simulate_cell
from repro.harness.spec import CellSpec, TierPolicy
from repro.workloads import workload_names
from repro.workloads.suite import workload_for

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_tiered.json"

TIERED_BENCHMARKS = ("505.mcf_r", "503.bwaves_r")
TIERED_SCHEMES = ("baseline", "atr")
TIERED_RF = 128
TIERED_INSTRUCTIONS = 20_000
TIERED_POLICY = TierPolicy(mode="tiered", interval=2_000, max_windows=4)
TRACE_INSTRUCTIONS = 2_000


def _normalize(d):
    """JSON round-trip: int histogram keys become strings, tuples lists."""
    return json.loads(json.dumps(d, sort_keys=True))


def tiered_cell(benchmark: str, scheme: str) -> dict:
    result = simulate_cell(CellSpec(
        benchmark=benchmark, rf_size=TIERED_RF, scheme=scheme,
        instructions=TIERED_INSTRUCTIONS, tier=TIERED_POLICY))
    return _normalize({
        "sim_stats": result.stats.to_dict(),
        "scheme_stats": result.scheme_stats.to_dict(),
        "tier_info": result.tier_info,
    })


def _sha(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, separators=(",", ":")).encode()).hexdigest()


def trace_digest(name: str) -> dict:
    """Digests of one ref's program, emulated records and final state."""
    entry, variant = workload_for(name)
    program = entry.build(TRACE_INSTRUCTIONS, variant=variant)
    emulator = Emulator(program)
    trace = emulator.run(max_instructions=TRACE_INSTRUCTIONS)
    state = emulator.snapshot()
    return {
        "program": _sha([[i.render() for i in program.instructions],
                         sorted(program.data.items())]),
        "records": _sha([(r.seq, r.pc, r.next_pc, r.taken, r.mem_addr)
                         for r in trace.entries]),
        "state": _sha([state.int_regs, state.vec_regs, state.flags,
                       sorted(state.canonicalize().memory.items())]),
        "length": len(trace.entries),
    }


def capture() -> dict:
    return {
        "tiered": {f"{b}|{s}": tiered_cell(b, s)
                   for b in TIERED_BENCHMARKS for s in TIERED_SCHEMES},
        "traces": {name: trace_digest(name)
                   for name in workload_names(variants=True)},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_ref(golden):
    assert sorted(golden["traces"]) == sorted(workload_names(variants=True))
    assert len(golden["traces"]) == 31
    assert len(golden["tiered"]) == 4


@pytest.mark.parametrize("bench", TIERED_BENCHMARKS)
@pytest.mark.parametrize("scheme", TIERED_SCHEMES)
def test_tiered_cell_reproduces_exactly(golden, bench, scheme):
    expected = golden["tiered"][f"{bench}|{scheme}"]
    actual = tiered_cell(bench, scheme)
    assert actual["tier_info"] == expected["tier_info"]
    assert actual["sim_stats"] == expected["sim_stats"]
    assert actual["scheme_stats"] == expected["scheme_stats"]


@pytest.mark.parametrize("name", workload_names(variants=True))
def test_emulated_trace_reproduces_exactly(golden, name):
    assert trace_digest(name) == golden["traces"][name]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
