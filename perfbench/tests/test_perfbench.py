"""Tiny-scale tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import ensure_src_on_path  # noqa: E402

ensure_src_on_path()

from perfbench import metrics, run, workloads  # noqa: E402
from perfbench.layers import HOT_SPANS, Instrumentation  # noqa: E402
from perfbench.tracer import Tracer, union_length  # noqa: E402


class TinyCells(workloads.CellDetailed):
    """Two cheap deepsjeng cells: the cell-detailed flow at tiny scale."""

    name = "tiny"

    def specs(self, seed):
        from repro.harness import CellSpec

        return [CellSpec(workloads.pick_variant(seed, "531.deepsjeng_r"),
                         metrics.CELL_RF, scheme, 400)
                for scheme in ("baseline", "atr")]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def _run_tiny(tmp_path, monkeypatch, trace: int, workload=None):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    args = SimpleNamespace(workload="tiny", seed=3, seconds=0.01, trace=trace)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.run(args, workload or TinyCells(), tmp_path)
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]), out.getvalue()


def test_end_to_end_metrics_emitted_with_units(tmp_path, monkeypatch):
    code, result, _ = _run_tiny(tmp_path, monkeypatch, trace=0)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {name: unit for name, unit, *_ in metrics.END_TO_END}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, entry in result["metrics"].items():
        assert metrics.NAME_RE.match(name)
        assert metrics.UNIT_RE.match(entry["unit"])
        assert isinstance(entry["value"], float) and entry["value"] > 0


def test_per_layer_metrics_emitted_with_units(tmp_path, monkeypatch):
    code, result, text = _run_tiny(tmp_path, monkeypatch, trace=1)
    assert code == 0, text
    expected = {name: unit for name, unit, _ in metrics.PER_LAYER}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name in expected:
        assert metrics.NAME_RE.match(name)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["pipeline.core_run_s"] > 0
    assert values["harness.store_misses"] == 2  # one cold miss per cell
    assert 0.9 < values["trace.coverage"] <= 1.0


def test_benchmark_json_matches_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(metrics.PER_LAYER)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


class CorruptingCells(TinyCells):
    """Tampers with every stored result between the cold and warm pass."""

    def _warm(self, batch, specs, roots):
        for root in roots:
            for path in root.rglob("cell-*.json"):
                payload = json.loads(path.read_text())
                payload["result"]["data"]["stats"]["cycles"] += 1
                path.write_text(json.dumps(payload))
        super()._warm(batch, specs, roots)


def test_corrupted_stored_result_trips_output_check(tmp_path, monkeypatch):
    workload = CorruptingCells()
    batch = workload.run_batch(workload.specs(3), tmp_path)
    assert len(batch.failures) == 2
    assert all("decode equal" in why for why in batch.failures.values())
    code, result, _ = _run_tiny(tmp_path / "run", monkeypatch, trace=0,
                                workload=workload)
    assert code == 1
    assert result["failed"] == result["attempted"] and not result["correct"]


def test_nested_self_time_and_hot_summaries():
    clock = FakeClock()
    tracer = Tracer(hot=("hot",), clock=clock)
    outer = tracer.begin("outer")
    clock.tick(1.0)
    for _ in range(3):
        hot = tracer.begin("hot")
        clock.tick(0.5)
        inner = tracer.begin("inner")
        clock.tick(0.25)
        tracer.end(inner)
        tracer.end(hot)
    clock.tick(1.0)
    tracer.end(outer)
    assert tracer.busy("outer") == pytest.approx(4.25)
    assert tracer.self_time("outer") == pytest.approx(2.0)
    assert tracer.self_time("hot") == pytest.approx(1.5)
    assert tracer.calls("hot") == 3
    # A span nested in a hot span is parented to the nearest stored one.
    outer_span = next(s for s in tracer.spans if s.name == "outer")
    assert all(s.parent == outer_span.id for s in tracer.spans
               if s.name == "inner")
    assert tracer.violations() == []


def test_concurrent_worker_spans_use_interval_union(tmp_path):
    clock = FakeClock()
    parent = Tracer(clock=clock)
    sweep = parent.begin("sweep")
    worker = Tracer(hot=("hot",), clock=clock)
    worker._stack = list(parent._stack)  # what a forked child inherits
    worker.reset_for_fork()
    worker._pid = parent._pid + 1  # a forked child has its own pid
    # Two workers overlapping in [1, 4] and [2, 5] inside a 6 s sweep; the
    # first holds a 2 s hot span with a stored 0.5 s span nested in it.
    clock.now = 1.0
    first = worker.begin("harness.worker")
    clock.now = 1.5
    hot = worker.begin("hot")
    clock.now = 2.0
    inner = worker.begin("inner")
    clock.now = 2.5
    worker.end(inner)
    clock.now = 3.5
    worker.end(hot)
    clock.now = 4.0
    worker.end(first)
    clock.now = 2.0
    second = worker.begin("harness.worker")
    clock.now = 5.0
    worker.end(second)
    worker.dump(tmp_path / "worker-1.json")
    clock.now = 6.0
    parent.end(sweep)
    assert parent.merge([tmp_path / "worker-1.json"]) == 1
    assert parent.self_time("sweep") == pytest.approx(2.0)  # 6 - |[1, 5]|
    # The worker's own self times are kept, not recomputed: 3 - 2 and 3.
    assert parent.self_time("harness.worker") == pytest.approx(1.0 + 3.0)
    assert parent.self_time("hot") == pytest.approx(1.5)
    assert parent.violations() == []


def test_child_self_never_exceeds_parent_in_traced_batch(tmp_path):
    tracer = Tracer(hot=HOT_SPANS)
    workload = TinyCells()
    with Instrumentation(tracer, tmp_path / "spool"):
        batch = workload.run_batch(workload.specs(5), tmp_path / "b",
                                   tracer=tracer)
    assert not batch.failures
    assert tracer.violations() == []
    by_id = {s.id: s for s in tracer.spans}
    for span in tracer.spans:
        parent = by_id.get(span.parent)
        if parent is not None:
            assert span.self_s <= parent.duration + 1e-9
    for summary in tracer.summaries.values():
        assert summary.self_s <= by_id[summary.parent].duration + 1e-9


def test_instrumentation_restores_originals(tmp_path):
    import importlib

    from repro.pipeline import Core
    from repro.workloads import suite

    sweep_module = importlib.import_module("repro.harness.sweep")
    before = (Core.run, suite.build_trace, sweep_module.sweep)
    with Instrumentation(Tracer(), tmp_path / "spool"):
        assert Core.run is not before[0]
    assert (Core.run, suite.build_trace, sweep_module.sweep) == before


def test_tail_and_union_helpers():
    assert metrics.tail_percentile(4) is None  # cell-detailed's batch
    assert metrics.tail_percentile(16) is None  # p37.5: below the median
    assert metrics.tail_percentile(32) == 68.75  # figure-sweep's batch
    samples = [float(i) for i in range(1, 33)]
    assert metrics.percentile_value(samples, 68.75) == 22.0  # ten above
    assert metrics.percentile_value(samples * 2, 68.75) == 22.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)


def test_seed_selects_inputs():
    picks = {workloads.pick_variant(seed, "505.mcf_r") for seed in range(20)}
    assert picks == {"505.mcf_r", "505.mcf_r/ref2"}
    assert workloads.pick_variant(7, "508.namd_r") == "508.namd_r"  # no ref2


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cell-detailed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
