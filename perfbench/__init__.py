"""The repository benchmark: spec-to-stored-result cell throughput,
figure regeneration and probed validation, with a per-layer traced run.

Run it from the root of a checkout::

    python3 perfbench/run.py --workload cell-detailed --seed 1 --seconds 15 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and what
each per-layer metric is expected to move.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent
#: The simulator sources the benchmark drives, built from this checkout.
SRC = ROOT / "src"


def ensure_src_on_path() -> None:
    """Make ``import repro`` resolve to this checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
