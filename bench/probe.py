"""One setup probe: a fresh interpreter imports dglevels and dglevels.cli and
runs a workload's warm-up queries, with the gauge sampled throughout.

    python3 bench/probe.py <workload> <seed>

The last stdout line is one JSON object: the gauge times taken during the
probe and the time they took, which run.py takes out of the probe's wall
time before scaling it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import gauge

sampler = gauge.Sampler()
sampler.start()

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import dglevels.cli  # noqa: E402,F401
import workloads as wl  # noqa: E402

queries, _ = wl.make_queries(sys.argv[1], int(sys.argv[2]), ROOT / ".bench_out" / "models")
for q in wl.warmup_queries(queries):
    try:
        wl.execute(q)
    except Exception:      # counted as a failure by the timed loop, not here
        pass
gauges, spent_ns = sampler.stop()
print(json.dumps({"gauges": gauges, "spent_ns": spent_ns}))
