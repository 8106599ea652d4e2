"""What the benchmark measures: workloads, metrics, bounds and layers.

This module is the single description of the benchmark.  ``run.py
--write-spec`` renders it into ``BENCHMARK.json`` at the repository
root; the workload and tracing code read the names from here.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Seconds one run measures.  ``serve-mixed`` at 40 req/s needs at least
#: 25 s to hold the 1,000 requests its p99 needs; 30 s averages more of
#: the host's speed swings and keeps a full regression check (70 runs
#: of the three gated workloads) near 2,800 s.
RUN_SECONDS = 30

#: name -> why it was chosen (one line each).
WORKLOADS = {
    "ssa-paper": (
        "8-product batches of 786,432-bit operands, in-process: NTT "
        "stage kernels, multiply-reduce and SSA carry do all the work"
    ),
    "ssa-mp": (
        "the same products on software-mp at nproc workers, untuned "
        "environment: the only workload that shards and moves rows"
    ),
    "rlwe-depth2": (
        "8 depth-2 RLWE circuits per batch (n=1024, t=17, 3 RNS primes): "
        "many 1024-point NTT rows instead of few 64K rows"
    ),
    "serve-mixed": (
        "open-loop Poisson 40 req/s, 4 tenants, 3:1 multiply:rlwe-multiply "
        "over TCP: admission, queueing, coalescing and JSON dominate"
    ),
}

#: Workloads BENCHMARK.json gates.  Every workload in WORKLOADS stays
#: runnable by name and in the one-command run.
GATED_WORKLOADS = ("ssa-paper", "rlwe-depth2", "serve-mixed")

#: End-to-end metrics, measured with tracing off, that BENCHMARK.json gates.
#: Every workload reports each of them under these names (ALIASES gives
#: the workload's own name for the throughput).  Latencies are printed
#: but not gated: on the 2-CPU host this was sized on, run-to-run CPU
#: speed swings of ~30% move closed-loop batch times by 10-25% and,
#: through queueing near saturation, serve-mixed's p50 between 11 and
#: 56 ms, which no bound of at most 0.25 can hold.
END_TO_END = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

#: workload -> the workload-specific name of ``ops_per_s``.
ALIASES = {
    "ssa-paper": "products_per_s",
    "ssa-mp": "products_per_s",
    "rlwe-depth2": "circuits_per_s",
    "serve-mixed": "goodput_rps",
}

#: Per-layer metrics of the traced run: (name, unit).  ``*.s`` values
#: are span self time summed over the timed window (plan builds and
#: keygen over the whole run, since they happen in set-up).
PER_LAYER = [
    ("ntt.forward.calls", "count"),
    ("ntt.forward.rows", "count"),
    ("ntt.forward.s", "s"),
    ("ntt.inverse.calls", "count"),
    ("ntt.inverse.rows", "count"),
    ("ntt.inverse.s", "s"),
    ("ntt.stage_dft.s", "s"),
    ("field.mulreduce.s", "s"),
    ("ntt.plan.builds", "count"),
    ("ntt.plan.build_s", "s"),
    ("ssa.decompose.s", "s"),
    ("ssa.carry.s", "s"),
    ("ssa.recompose.s", "s"),
    ("rlwe.keygen.s", "s"),
    ("rlwe.encrypt.s", "s"),
    ("rlwe.tensor.s", "s"),
    ("rlwe.relinearize.s", "s"),
    ("rlwe.mod_switch.s", "s"),
    ("rlwe.decrypt.s", "s"),
    ("engine.mp.shards", "count"),
    ("engine.mp.bytes_moved", "B"),
    ("engine.mp.wait_s", "s"),
    ("engine.mp.respawns", "count"),
    ("engine.mp.fault_events", "count"),
    ("jobs.run.multiply.s", "s"),
    ("jobs.run.rlwe-multiply.s", "s"),
    ("serve.decode.multiply.s", "s"),
    ("serve.decode.rlwe-multiply.s", "s"),
    ("serve.encode.multiply.s", "s"),
    ("serve.encode.rlwe-multiply.s", "s"),
    ("serve.queue_wait.p50_ms", "ms"),
    ("serve.queue_wait.p90_ms", "ms"),
    ("serve.requests_per_batch", "count"),
    ("serve.fill_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("serve.timeouts", "count"),
    ("loadgen.late_max_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("hw.ssa_product.cycles", "cycles"),
    ("hw.model.s", "s"),
    ("trace.coverage", "ratio"),
]

#: Layers whose per-layer ``*.s`` totals count over the whole traced
#: run rather than the timed window: they are set-up work.
SETUP_LAYERS = ("ntt.plan.build", "rlwe.keygen")


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document for this spec."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": WORKLOADS[name]}
            for name in GATED_WORKLOADS
        ],
        "end_to_end": END_TO_END,
        "per_layer": [
            {"name": name, "unit": unit, "better": _better(name)}
            for name, unit in PER_LAYER
        ],
    }


def _better(name: str) -> str:
    higher = ("serve.requests_per_batch", "serve.fill_ratio", "trace.coverage")
    return "higher" if name in higher else "lower"


def write_benchmark_json(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    return path
