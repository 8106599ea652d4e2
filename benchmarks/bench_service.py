"""Service-tier perf trajectory: coalescing under many-client load.

Standalone benchmark (also importable under pytest) driving the
:mod:`repro.serve` compute service with an **open-loop synthetic
many-client load**: several tenants fire single-item requests as fast
as admission allows (no client-side pacing), and the run measures what
the serving tier — not the raw engine — delivers:

- **sustained jobs/s**, naive vs coalesced: the same request stream is
  run once with coalescing disabled (every request is its own engine
  pass: the "library-internal FIFO" baseline the subsystem replaces)
  and once with the coalescing scheduler merging compatible requests
  into single ``*_many`` batched engine passes;
- **p99 latency** (client-observed: queue wait + execution), from the
  per-response ``latency_s`` the service stamps;
- **batch-fill ratio** from the metrics registry: mean requests and
  items per engine pass against the per-batch item budget.

Bit-identity is asserted on every measurement: the coalesced run's
per-request results must equal the naive run's, which must equal
ground truth.  The smoke gate (CI) requires coalesced throughput
≥ 1.3× naive on the multiply stream; full runs additionally measure a
batched-RLWE ``multiply_plain`` stream (the paper's workload) and
write the ``BENCH_service.json`` trajectory point rendered by
``plot_trajectory.py``.

Usage::

    python benchmarks/bench_service.py            # full
    python benchmarks/bench_service.py --smoke    # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from pathlib import Path
from typing import List, Optional

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.fhe.rlwe import RLWE, RLWEParams  # noqa: E402
from repro.jobs import MultiplyJob, RLWEMultiplyPlainJob  # noqa: E402
from repro.serve import ComputeService, ServiceConfig  # noqa: E402
from repro.serve.metrics import percentile  # noqa: E402

DEFAULT_JSON = REPO_ROOT / "BENCH_service.json"
OUTPUT_DIR = Path(__file__).resolve().parent / "output"

#: The acceptance gate: coalesced service throughput must beat naive
#: one-engine-pass-per-request submission by this factor on the
#: open-loop multiply stream, with bit-identical per-request results.
COALESCING_FLOOR = 1.3

#: Tenants the synthetic load is spread across (round-robin).
TENANTS = ("alice", "bob", "carol", "dave")

#: Queue bounds sized so the open-loop burst is *admitted*, not
#: rejected — this benchmark measures throughput, not backpressure.
_BENCH_QUEUE = dict(max_queue_per_tenant=4096, max_queue_global=8192)


def _service(coalesce: bool) -> ComputeService:
    return ComputeService(
        config=ServiceConfig(coalesce=coalesce, **_BENCH_QUEUE)
    )


def _drive(service: ComputeService, ops) -> dict:
    """Open-loop: submit every request at once, wait for all.

    Returns wall time, per-request results (submission order),
    client-observed latencies, and the service metrics snapshot.
    """
    start = time.perf_counter()
    futures = [
        service.submit(op, tenant=TENANTS[i % len(TENANTS)])
        for i, op in enumerate(ops)
    ]
    responses = [future.result() for future in futures]
    elapsed = time.perf_counter() - start
    if not all(r.ok for r in responses):
        bad = next(r for r in responses if not r.ok)
        raise RuntimeError(
            f"service run failed: {bad.status} {bad.error!r}"
        )
    return {
        "elapsed_s": elapsed,
        "results": [r.result for r in responses],
        "latencies": [r.latency_s for r in responses],
        "snapshot": service.stats(),
    }


def _measure_mode(make_ops, coalesce: bool, repeats: int) -> dict:
    """Best-of-repeats drive of a fresh service per repeat."""
    best = None
    for _ in range(repeats):
        service = _service(coalesce)
        try:
            run = _drive(service, make_ops())
        finally:
            service.shutdown()
        if best is None or run["elapsed_s"] < best["elapsed_s"]:
            best = run
    return best


def multiply_case(
    requests: int, bits: int, repeats: int, seed: int
) -> dict:
    """Open-loop single-pair multiply stream, naive vs coalesced."""
    rng = random.Random(seed)
    pairs = [
        (rng.getrandbits(bits) | 1, rng.getrandbits(bits) | 1)
        for _ in range(requests)
    ]
    truth = [[a * b] for a, b in pairs]

    def make_ops():
        return [MultiplyJob.batched([pair]) for pair in pairs]

    naive = _measure_mode(make_ops, coalesce=False, repeats=repeats)
    coalesced = _measure_mode(make_ops, coalesce=True, repeats=repeats)

    def as_ints(results):
        return [[int(v) for v in row] for row in results]

    identical = (
        as_ints(naive["results"]) == truth
        and as_ints(coalesced["results"]) == truth
    )
    batching = coalesced["snapshot"]["coalescing"]
    return {
        "op": "multiply",
        "bits": bits,
        "requests": requests,
        "tenants": len(TENANTS),
        "naive_s": naive["elapsed_s"],
        "coalesced_s": coalesced["elapsed_s"],
        "naive_jobs_per_s": requests / naive["elapsed_s"],
        "coalesced_jobs_per_s": requests / coalesced["elapsed_s"],
        "coalescing_speedup": naive["elapsed_s"]
        / coalesced["elapsed_s"],
        "p99_latency_ms": percentile(
            sorted(coalesced["latencies"]), 0.99
        )
        * 1e3,
        "naive_p99_latency_ms": percentile(
            sorted(naive["latencies"]), 0.99
        )
        * 1e3,
        "requests_per_batch": batching["requests_per_batch"],
        "batch_fill_ratio": batching.get("fill_ratio", 0.0),
        "identical": identical,
    }


def rlwe_case(requests: int, n: int, repeats: int, seed: int) -> dict:
    """Open-loop single-ciphertext RLWE ``multiply_plain`` stream."""
    params = RLWEParams(n=n, t=256, noise_bound=4)
    scheme = RLWE(params, rng=random.Random(seed))
    secret = scheme.generate_secret()
    rng = random.Random(seed + 1)
    messages = [
        [rng.randrange(params.t) for _ in range(n)]
        for _ in range(requests)
    ]
    plains = [
        [rng.randrange(params.t) for _ in range(n)]
        for _ in range(requests)
    ]
    cts = scheme.encrypt_many(secret, messages)

    def make_ops():
        return [
            RLWEMultiplyPlainJob(
                params=params, ciphertexts=[ct], plains=[plain]
            )
            for ct, plain in zip(cts, plains)
        ]

    naive = _measure_mode(make_ops, coalesce=False, repeats=repeats)
    coalesced = _measure_mode(make_ops, coalesce=True, repeats=repeats)
    identical = all(
        np.array_equal(got[0].c0, want[0].c0)
        and np.array_equal(got[0].c1, want[0].c1)
        for got, want in zip(coalesced["results"], naive["results"])
    )
    batching = coalesced["snapshot"]["coalescing"]
    return {
        "op": "rlwe-multiply-plain",
        "n": n,
        "requests": requests,
        "tenants": len(TENANTS),
        "naive_s": naive["elapsed_s"],
        "coalesced_s": coalesced["elapsed_s"],
        "naive_jobs_per_s": requests / naive["elapsed_s"],
        "coalesced_jobs_per_s": requests / coalesced["elapsed_s"],
        "coalescing_speedup": naive["elapsed_s"]
        / coalesced["elapsed_s"],
        "p99_latency_ms": percentile(
            sorted(coalesced["latencies"]), 0.99
        )
        * 1e3,
        "naive_p99_latency_ms": percentile(
            sorted(naive["latencies"]), 0.99
        )
        * 1e3,
        "requests_per_batch": batching["requests_per_batch"],
        "batch_fill_ratio": batching.get("fill_ratio", 0.0),
        "identical": identical,
    }


def render_table(report: dict) -> str:
    lines = [
        "Service tier: open-loop many-client load, naive vs coalesced",
        "",
        f"{'op':>20} {'size':>7} {'reqs':>5} {'naive/s':>9} "
        f"{'coal/s':>9} {'speedup':>8} {'p99 ms':>8} {'fill':>6} "
        f"{'r/batch':>8} {'ident':>6}",
    ]
    for r in report["results"]:
        size = r.get("bits", r.get("n", 0))
        lines.append(
            f"{r['op']:>20} {size:>7} {r['requests']:>5} "
            f"{r['naive_jobs_per_s']:>9.1f} "
            f"{r['coalesced_jobs_per_s']:>9.1f} "
            f"{r['coalescing_speedup']:>7.2f}x "
            f"{r['p99_latency_ms']:>8.1f} "
            f"{r['batch_fill_ratio']:>6.0%} "
            f"{r['requests_per_batch']:>8.2f} "
            f"{'yes' if r['identical'] else 'NO':>6}"
        )
    lines += [
        "",
        "naive = coalescing disabled (one engine pass per request); "
        "coalesced = the",
        "service scheduler merging compatible requests into batched "
        "*_many passes.",
        "p99 is client-observed (queue wait + execution) on the "
        "coalesced run.",
    ]
    return "\n".join(lines)


def evaluate(report: dict) -> List[str]:
    failures = []
    for r in report["results"]:
        tag = f"op={r['op']} requests={r['requests']}"
        if not r["identical"]:
            failures.append(
                f"{tag}: coalesced results NOT bit-identical to "
                f"individual submission"
            )
        if r["coalescing_speedup"] < COALESCING_FLOOR:
            failures.append(
                f"{tag}: coalescing {r['coalescing_speedup']:.2f}x "
                f"< {COALESCING_FLOOR}x floor over naive submission"
            )
        if r["requests_per_batch"] <= 1.0:
            failures.append(
                f"{tag}: no batching happened "
                f"({r['requests_per_batch']:.2f} requests/batch)"
            )
    return failures


def run_suite(smoke: bool, repeats: Optional[int], seed: int) -> dict:
    if smoke:
        repeats = repeats or 2
        results = [multiply_case(96, 2048, repeats, seed)]
    else:
        repeats = repeats or 3
        results = [
            multiply_case(192, 2048, repeats, seed),
            multiply_case(96, 4096, repeats, seed + 1),
            rlwe_case(96, 256, repeats, seed + 2),
        ]
    report = {
        "benchmark": "service",
        "schema_version": 1,
        "mode": "smoke" if smoke else "full",
        "created_unix": time.time(),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "config": {
            "repeats": repeats,
            "seed": seed,
            "tenants": list(TENANTS),
            "max_coalesce_requests": ServiceConfig().max_coalesce_requests,
            "max_coalesce_items": ServiceConfig().max_coalesce_items,
            "timer": "best-of-repeats wall clock, open-loop",
        },
        "results": results,
    }
    failures = evaluate(report)
    report["acceptance"] = {
        "coalescing_floor": COALESCING_FLOOR,
        "failures": failures,
        "passed": not failures,
    }
    return report


def test_smoke_workload():
    """Pytest hook: the smoke suite must pass its gates."""
    report = run_suite(smoke=True, repeats=1, seed=0xD5)
    assert report["acceptance"]["passed"], report["acceptance"]["failures"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small multiply stream for CI; same 1.3x coalescing gate",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="repeats per mode"
    )
    parser.add_argument("--seed", type=int, default=0xD5)
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help=(
            "where to write the JSON report (default: repo-root "
            "BENCH_service.json on full runs, nowhere on --smoke)"
        ),
    )
    args = parser.parse_args(argv)

    report = run_suite(args.smoke, args.repeats, args.seed)
    table = render_table(report)
    print(table)

    json_path = args.json
    if json_path is None and not args.smoke:
        json_path = DEFAULT_JSON
    if json_path is not None:
        json_path.parent.mkdir(parents=True, exist_ok=True)
        json_path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {json_path}")
    if not args.smoke:
        OUTPUT_DIR.mkdir(exist_ok=True)
        (OUTPUT_DIR / "service.txt").write_text(table + "\n")

    failures = report["acceptance"]["failures"]
    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(
        "\nPASS: coalesced results bit-identical, "
        f">= {COALESCING_FLOOR}x naive throughput"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
