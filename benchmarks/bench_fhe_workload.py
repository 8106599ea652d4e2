"""FHE-workload perf trajectory — the paper's end-to-end motivation.

Standalone benchmark (also importable under pytest) timing layers of
DGHV homomorphic AND gates — the workload the accelerator exists for —
through the Engine façade:

- **direct**: ``scheme.multiply_many`` batching the γ×γ-bit ciphertext
  products into one SSA pass;
- **jobs**: the same layer through ``JobScheduler.map("dghv-mult",...)``
  (the futures-style service shape);
- **modeled**: one gate on the ``hw-model`` backend for the cycle
  count, next to the paper's 122.88 µs Table II anchor;
- **rlwe**: batched ``multiply_plain_many`` ring products on the
  *fused* negacyclic plan vs the explicit-twist unfused path —
  bit-identity is checked on every measurement, and the full run
  gates the paper 64K plan at ≥ 1.15× (ISSUE 5 acceptance);
- **ordering**: the same ring products on the permutation-free
  (decimated DIF/DIT) fused plan vs the natural-order fused plan —
  bit-identity strict, ≥1× floor with a timer-jitter allowance
  (ISSUE 6).

Every gate is decrypted and checked against the plaintext AND truth.
Results go to two places:

- ``BENCH_fhe_workload.json`` at the repo root — the machine-readable
  perf-trajectory point (FHE-workload series, one point per PR);
- ``benchmarks/output/fhe_workload.txt`` — the human-readable table.

With ``--inject`` the script switches into **resilience mode** (ISSUE
7): it measures the ``software-mp`` batch-multiply throughput clean vs
with one worker SIGKILLed mid-batch by the deterministic injection
harness (:mod:`repro.engine.faultinject`), asserts bit-identical
recovery on every run, and gates the recovery overhead — CI runs
``--smoke --inject worker-kill`` and fails if recovering from the kill
costs more than 25% over the clean run.  Full resilience runs measure
the paper's 64K workload (786432-bit products) and write the
``BENCH_resilience.json`` trajectory point.

Usage::

    python benchmarks/bench_fhe_workload.py            # full
    python benchmarks/bench_fhe_workload.py --smoke    # CI gate
    python benchmarks/bench_fhe_workload.py --smoke --inject worker-kill
    python benchmarks/bench_fhe_workload.py --inject worker-kill  # 64K
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

from repro.engine import Engine  # noqa: E402
from repro.fhe.params import MEDIUM, SMALL_DGHV, TOY  # noqa: E402
from repro.hw.timing import PAPER_TIMING  # noqa: E402
from repro.ntt.kernels import default_kernel  # noqa: E402

DEFAULT_JSON = REPO_ROOT / "BENCH_fhe_workload.json"
DEFAULT_RESILIENCE_JSON = REPO_ROOT / "BENCH_resilience.json"
OUTPUT_DIR = Path(__file__).resolve().parent / "output"

#: The jobs path reuses the same batched SSA pass; it must stay within
#: a small constant factor of calling ``multiply_many`` directly.
FULL_MAX_JOBS_OVERHEAD = 2.0
SMOKE_MAX_JOBS_OVERHEAD = 5.0
#: Fused negacyclic plans must beat the explicit-twist route by this
#: factor on the paper 64K plan (ISSUE 5 acceptance; full runs only —
#: smoke checks bit-identity without a timing gate).
RLWE_FUSED_SPEEDUP_FLOOR = 1.15
RLWE_ACCEPTANCE_N = 65536
#: Permutation-free vs permuted RLWE ring products (ISSUE 6): the
#: decimated pair strictly drops the digit-reversal gathers, but on a
#: fused plan that is the *only* saving (~1% of a limb-matmul
#: convolution — ψ-untwist and n⁻¹ are already stage constants), so
#: the ≥1× floor carries a timer-jitter allowance: bit-identity is
#: strict, and a real regression still trips the gate while sub-noise
#: effects cannot flake CI.
RLWE_ORDERING_FLOOR = 1.0
RLWE_ORDERING_JITTER = 0.05
#: Resilience mode (ISSUE 7): recovering from one worker SIGKILL must
#: cost at most this fraction over the clean run on the smoke workload
#: (CI gate).  Recovery replays the lost shards on a respawned pool
#: whose workers rebuild their engines and plan caches from scratch,
#: so the workload is sized to amortize that fixed cost well below the
#: gate (~4-8x headroom on a 1-CPU container).
MAX_RECOVERY_OVERHEAD = 0.25
#: Full resilience runs measure the paper's 64K workload, where the
#: respawned workers' 64K-point plan rebuild is a much larger fixed
#: cost; the lenient ceiling catches catastrophic regressions (e.g.
#: recovery re-running the whole batch more than once) without gating
#: on machine-dependent plan-build times.
FULL_MAX_RECOVERY_OVERHEAD = 0.75
#: (bits, batch) of the resilience workloads: smoke amortizes recovery
#: under the CI gate; full is the paper point (786432-bit products ↔
#: 64K-point transforms).
RESILIENCE_SMOKE_WORKLOAD = (98_304, 96)
RESILIENCE_FULL_WORKLOAD = (786_432, 48)


def _best_time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _interleaved_best(fn_a, fn_b, repeats: int):
    """Best-of timing with A/B samples interleaved (noise-robust)."""
    best_a = best_b = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


def run_case(
    engine: Engine, params, gates: int, repeats: int, seed: int
) -> dict:
    """One AND-gate layer at one parameter point, direct vs jobs."""
    rng = random.Random(seed)
    scheme = engine.fhe(params, rng=rng)
    keys = scheme.generate_keys()
    plain = [(rng.randrange(2), rng.randrange(2)) for _ in range(gates)]
    pairs = [
        (scheme.encrypt(keys, a), scheme.encrypt(keys, b))
        for a, b in plain
    ]
    truth = [a & b for a, b in plain]

    def direct():
        return scheme.multiply_many(keys, pairs)

    def jobs():
        return engine.map("dghv-mult", pairs, x0=keys.x0)

    decrypted_direct = [scheme.decrypt(keys, c) for c in direct()]
    decrypted_jobs = [scheme.decrypt(keys, c) for c in jobs()]
    correct = decrypted_direct == truth and decrypted_jobs == truth

    direct_s = _best_time(direct, repeats)
    jobs_s = _best_time(jobs, repeats)
    return {
        "params": params.name,
        "gamma_bits": params.gamma,
        "gates": gates,
        "direct_s": direct_s,
        "jobs_s": jobs_s,
        "direct_gates_per_s": gates / direct_s,
        "jobs_gates_per_s": gates / jobs_s,
        "jobs_overhead": jobs_s / direct_s,
        "correct": correct,
    }


def rlwe_case(n: int, batch: int, repeats: int, seed: int) -> dict:
    """Fused vs unfused ``multiply_plain_many`` at one ring dimension.

    Two RLWE contexts share the same parameters and ciphertexts; one is
    pinned to the fused negacyclic plan, the other to the explicit-twist
    cyclic plan.  Outputs must be bit-identical; the timing ratio is the
    fused-negacyclic speedup on the RLWE hot path.
    """
    from repro.fhe.rlwe import RLWE, RLWEParams
    from repro.ntt.plan import TWIST_NEGACYCLIC, plan_for_size

    params = RLWEParams(n=n, t=256, noise_bound=4)
    fused_scheme = RLWE(
        params,
        rng=random.Random(seed),
        plan=plan_for_size(n, twist=TWIST_NEGACYCLIC),
    )
    unfused_scheme = RLWE(
        params, rng=random.Random(seed), plan=plan_for_size(n)
    )
    rng = random.Random(seed + 1)
    secret = fused_scheme.generate_secret()
    messages = [
        [rng.randrange(params.t) for _ in range(n)] for _ in range(batch)
    ]
    plains = [
        [rng.randrange(params.t) for _ in range(n)] for _ in range(batch)
    ]
    cts = fused_scheme.encrypt_many(secret, messages)

    fused_out = fused_scheme.multiply_plain_many(cts, plains)
    unfused_out = unfused_scheme.multiply_plain_many(cts, plains)
    identical = all(
        np.array_equal(f.c0, u.c0) and np.array_equal(f.c1, u.c1)
        for f, u in zip(fused_out, unfused_out)
    )

    fused_s = _best_time(
        lambda: fused_scheme.multiply_plain_many(cts, plains), repeats
    )
    unfused_s = _best_time(
        lambda: unfused_scheme.multiply_plain_many(cts, plains), repeats
    )
    return {
        "n": n,
        "batch": batch,
        "unfused_s": unfused_s,
        "fused_s": fused_s,
        "fused_speedup": unfused_s / fused_s,
        "fused_products_per_s": 2 * batch / fused_s,
        "identical": identical,
    }


def ordering_rlwe_case(n: int, batch: int, repeats: int, seed: int) -> dict:
    """Permutation-free vs permuted RLWE ``multiply_plain_many``.

    Both schemes run ψ-fused plans; one keeps natural-order spectra
    (paying digit-reversal gathers around the pointwise product), the
    other runs the decimated DIF/DIT pair — the plan flavor
    ``Engine.fhe`` now binds by default.  Ciphertext outputs must be
    bit-identical; the timing ratio is the permutation-free speedup.
    """
    from repro.fhe.rlwe import RLWE, RLWEParams
    from repro.ntt.plan import (
        TWIST_NEGACYCLIC,
        decimated_companion,
        plan_for_size,
    )

    params = RLWEParams(n=n, t=256, noise_bound=4)
    natural = plan_for_size(n, twist=TWIST_NEGACYCLIC)
    permuted_scheme = RLWE(params, rng=random.Random(seed), plan=natural)
    free_scheme = RLWE(
        params, rng=random.Random(seed), plan=decimated_companion(natural)
    )
    rng = random.Random(seed + 1)
    secret = permuted_scheme.generate_secret()
    messages = [
        [rng.randrange(params.t) for _ in range(n)] for _ in range(batch)
    ]
    plains = [
        [rng.randrange(params.t) for _ in range(n)] for _ in range(batch)
    ]
    cts = permuted_scheme.encrypt_many(secret, messages)

    permuted_out = permuted_scheme.multiply_plain_many(cts, plains)
    free_out = free_scheme.multiply_plain_many(cts, plains)
    identical = all(
        np.array_equal(f.c0, u.c0) and np.array_equal(f.c1, u.c1)
        for f, u in zip(free_out, permuted_out)
    )

    permuted_s, free_s = _interleaved_best(
        lambda: permuted_scheme.multiply_plain_many(cts, plains),
        lambda: free_scheme.multiply_plain_many(cts, plains),
        repeats,
    )
    return {
        "n": n,
        "batch": batch,
        "permuted_s": permuted_s,
        "permutation_free_s": free_s,
        "speedup": permuted_s / free_s,
        "identical": identical,
    }


def modeled_gate() -> dict:
    """Cycle-model numbers: one toy gate plus the paper anchor."""
    engine = Engine(backend="hw-model")
    scheme = engine.fhe(TOY, rng=random.Random(99))
    keys = scheme.generate_keys()
    ca = scheme.encrypt(keys, 1)
    cb = scheme.encrypt(keys, 1)
    ands = scheme.multiply_many(keys, [(ca, cb)])
    report = engine.last_report
    report = report[0] if isinstance(report, list) else report
    ok = scheme.decrypt(keys, ands[0]) == 1 and report.total_cycles > 0
    return {
        "toy_gate_us": report.time_us,
        "toy_gate_cycles": report.total_cycles,
        "paper_gate_us": PAPER_TIMING.multiplication_time_us(),
        "paper_gamma_bits": SMALL_DGHV.gamma,
        "correct": ok,
    }


def render_table(report: dict) -> str:
    lines = [
        "FHE workload: DGHV AND-gate layers through the Engine",
        "",
        f"{'params':>10} {'gamma':>7} {'gates':>6} {'direct s':>10} "
        f"{'jobs s':>10} {'direct/s':>9} {'jobs/s':>9} {'ok':>4}",
    ]
    for r in report["results"]:
        lines.append(
            f"{r['params']:>10} {r['gamma_bits']:>7} {r['gates']:>6} "
            f"{r['direct_s']:>10.4f} {r['jobs_s']:>10.4f} "
            f"{r['direct_gates_per_s']:>9.1f} "
            f"{r['jobs_gates_per_s']:>9.1f} "
            f"{'yes' if r['correct'] else 'NO':>4}"
        )
    lines += [
        "",
        "RLWE multiply_plain_many: fused negacyclic plan vs explicit twist",
        "",
        f"{'n':>7} {'batch':>6} {'unfused s':>10} {'fused s':>10} "
        f"{'speedup':>8} {'ident':>6}",
    ]
    for r in report["rlwe"]:
        lines.append(
            f"{r['n']:>7} {r['batch']:>6} {r['unfused_s']:>10.4f} "
            f"{r['fused_s']:>10.4f} {r['fused_speedup']:>7.2f}x "
            f"{'yes' if r['identical'] else 'NO':>6}"
        )
    lines += [
        "",
        "RLWE orderings: permutation-free DIF/DIT pair vs permuted (fused)",
        "",
        f"{'n':>7} {'batch':>6} {'permuted s':>11} {'perm-free s':>12} "
        f"{'speedup':>8} {'ident':>6}",
    ]
    for r in report["ordering"]:
        lines.append(
            f"{r['n']:>7} {r['batch']:>6} {r['permuted_s']:>11.4f} "
            f"{r['permutation_free_s']:>12.4f} {r['speedup']:>7.2f}x "
            f"{'yes' if r['identical'] else 'NO':>6}"
        )
    model = report["modeled"]
    lines += [
        "",
        "cycle model context:",
        f"  toy gate ({TOY.gamma}-bit ciphertexts): "
        f"{model['toy_gate_us']:.2f} us "
        f"({model['toy_gate_cycles']} cycles)",
        f"  paper gate ({model['paper_gamma_bits']}-bit ciphertexts): "
        f"{model['paper_gate_us']:.2f} us (Table II) "
        f"-> ~{1e6 / model['paper_gate_us']:,.0f} AND gates/s/device",
        "  Gentry-Halevi software baseline the paper cites: "
        "> 1 s to encrypt a single bit",
    ]
    return "\n".join(lines)


def evaluate(report: dict, smoke: bool) -> List[str]:
    ceiling = SMOKE_MAX_JOBS_OVERHEAD if smoke else FULL_MAX_JOBS_OVERHEAD
    failures = []
    for r in report["results"]:
        tag = f"params={r['params']} gates={r['gates']}"
        if not r["correct"]:
            failures.append(f"{tag}: homomorphic ANDs decrypted wrong")
        if r["jobs_overhead"] > ceiling:
            failures.append(
                f"{tag}: jobs path cost {r['jobs_overhead']:.2f}x direct "
                f"(> {ceiling}x ceiling)"
            )
    if not report["modeled"]["correct"]:
        failures.append("cycle model gate failed its decrypt check")
    if abs(report["modeled"]["paper_gate_us"] - 122.88) > 0.01:
        failures.append("paper timing anchor drifted from 122.88 us")
    for r in report["rlwe"]:
        tag = f"rlwe n={r['n']} batch={r['batch']}"
        if not r["identical"]:
            failures.append(
                f"{tag}: fused multiply_plain_many diverged from the "
                f"explicit-twist path"
            )
        if not smoke and r["n"] == RLWE_ACCEPTANCE_N:
            if r["fused_speedup"] < RLWE_FUSED_SPEEDUP_FLOOR:
                failures.append(
                    f"{tag}: fused speedup {r['fused_speedup']:.2f}x "
                    f"< {RLWE_FUSED_SPEEDUP_FLOOR}x acceptance floor"
                )
    if not smoke and not any(
        r["n"] == RLWE_ACCEPTANCE_N for r in report["rlwe"]
    ):
        failures.append(
            f"no {RLWE_ACCEPTANCE_N}-point rlwe measurement present"
        )
    ordering_floor = RLWE_ORDERING_FLOOR - RLWE_ORDERING_JITTER
    for r in report["ordering"]:
        tag = f"ordering n={r['n']} batch={r['batch']}"
        if not r["identical"]:
            failures.append(
                f"{tag}: permutation-free multiply_plain_many diverged "
                f"from the natural-order path"
            )
        if r["speedup"] < ordering_floor:
            failures.append(
                f"{tag}: permutation-free pipeline regressed to "
                f"{r['speedup']:.2f}x (< {ordering_floor:.2f}x permuted)"
            )
    return failures


def run_suite(smoke: bool, repeats: Optional[int], seed: int) -> dict:
    engine = Engine()
    if smoke:
        cases = [(TOY, 8)]
        rlwe_cases = [(1024, 4)]
        ordering_cases = [(1024, 4)]
        repeats = repeats or 2
    else:
        cases = [(TOY, 64), (MEDIUM, 16)]
        rlwe_cases = [(4096, 8), (RLWE_ACCEPTANCE_N, 4)]
        ordering_cases = [(4096, 8), (RLWE_ACCEPTANCE_N, 4)]
        repeats = repeats or 3
    try:
        results = [
            run_case(engine, params, gates, repeats, seed + i)
            for i, (params, gates) in enumerate(cases)
        ]
    finally:
        engine.close()
    rlwe_results = [
        rlwe_case(n, batch, repeats, seed + 50 + i)
        for i, (n, batch) in enumerate(rlwe_cases)
    ]
    # Gather-only margin: interleaved best-of-5-or-more keeps the
    # permutation-free ratio honest on a noisy machine.
    ordering_results = [
        ordering_rlwe_case(n, batch, max(repeats, 5), seed + 70 + i)
        for i, (n, batch) in enumerate(ordering_cases)
    ]
    report = {
        "benchmark": "fhe_workload",
        "schema_version": 3,
        "mode": "smoke" if smoke else "full",
        "created_unix": time.time(),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "config": {
            "engine_kernel": default_kernel(),
            "repeats": repeats,
            "seed": seed,
            "timer": "best-of-repeats wall clock",
        },
        "results": results,
        "rlwe": rlwe_results,
        "ordering": ordering_results,
        "modeled": modeled_gate(),
    }
    failures = evaluate(report, smoke)
    report["acceptance"] = {
        "max_jobs_overhead": (
            SMOKE_MAX_JOBS_OVERHEAD if smoke else FULL_MAX_JOBS_OVERHEAD
        ),
        "rlwe_fused_speedup_floor": (
            None if smoke else RLWE_FUSED_SPEEDUP_FLOOR
        ),
        "rlwe_ordering_floor": RLWE_ORDERING_FLOOR,
        "rlwe_ordering_jitter": RLWE_ORDERING_JITTER,
        "failures": failures,
        "passed": not failures,
    }
    return report


def resilience_case(
    bits: int, count: int, repeats: int, seed: int, inject_spec: str
) -> dict:
    """Clean vs injected-kill ``software-mp`` batch-multiply throughput.

    Every run (clean and injected alike) is asserted bit-identical to
    Python big-int truth; the injected runs re-arm the fault plan per
    repeat, so each one pays one worker SIGKILL plus the full recovery
    (pool respawn, worker re-warm, lost-shard replay).
    """
    from repro.engine import ExecutionConfig, faultinject

    rng = random.Random(seed)
    pairs = [
        (rng.getrandbits(bits) | 1, rng.getrandbits(bits) | 1)
        for _ in range(count)
    ]
    left = [a for a, _ in pairs]
    right = [b for _, b in pairs]
    truth = [a * b for a, b in pairs]
    flags = {"clean_ok": True, "injected_ok": True}
    engine = Engine(
        config=ExecutionConfig(workers=2), backend="software-mp"
    )
    try:
        # Warm the pool, the worker engines and every plan cache so
        # the clean baseline measures steady-state throughput.
        flags["clean_ok"] &= engine.multiply(left, right) == truth

        def clean():
            flags["clean_ok"] &= engine.multiply(left, right) == truth

        clean_s = _best_time(clean, repeats)
        respawns_before = engine.backend.fault_report.respawns

        def injected():
            with faultinject.inject(inject_spec):
                flags["injected_ok"] &= (
                    engine.multiply(left, right) == truth
                )

        injected_s = _best_time(injected, repeats)
        respawns = engine.backend.fault_report.respawns - respawns_before
        fault_events = [
            event.render() for event in engine.backend.fault_report.events
        ]
    finally:
        engine.close()
    return {
        "bits": bits,
        "count": count,
        "inject": inject_spec,
        "clean_s": clean_s,
        "injected_s": injected_s,
        "clean_ops_per_s": count / clean_s,
        "injected_ops_per_s": count / injected_s,
        "recovery_overhead": injected_s / clean_s - 1.0,
        "respawns": respawns,
        "clean_ok": flags["clean_ok"],
        "injected_ok": flags["injected_ok"],
        "fault_events": fault_events,
    }


def evaluate_resilience(report: dict, smoke: bool) -> List[str]:
    ceiling = (
        MAX_RECOVERY_OVERHEAD if smoke else FULL_MAX_RECOVERY_OVERHEAD
    )
    failures = []
    for r in report["resilience"]:
        tag = f"resilience bits={r['bits']} count={r['count']}"
        if not r["clean_ok"]:
            failures.append(f"{tag}: clean products diverged from truth")
        if not r["injected_ok"]:
            failures.append(
                f"{tag}: recovered products NOT bit-identical to truth"
            )
        if r["respawns"] < 1:
            failures.append(
                f"{tag}: no pool respawn recorded — the injected kill "
                f"never fired"
            )
        if r["recovery_overhead"] > ceiling:
            failures.append(
                f"{tag}: recovery overhead "
                f"{r['recovery_overhead']:+.1%} exceeds the "
                f"{ceiling:.0%} ceiling"
            )
    return failures


def run_resilience_suite(
    smoke: bool, repeats: Optional[int], seed: int, inject_spec: str
) -> dict:
    if inject_spec in ("worker-kill", "kill"):
        inject_spec = "worker-kill:0"
    bits, count = (
        RESILIENCE_SMOKE_WORKLOAD if smoke else RESILIENCE_FULL_WORKLOAD
    )
    repeats = repeats or (2 if smoke else 2)
    results = [resilience_case(bits, count, repeats, seed, inject_spec)]
    report = {
        "benchmark": "resilience",
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
            "workers": 2,
            "inject": inject_spec,
            "timer": "best-of-repeats wall clock",
        },
        "resilience": results,
    }
    failures = evaluate_resilience(report, smoke)
    report["acceptance"] = {
        "max_recovery_overhead": (
            MAX_RECOVERY_OVERHEAD if smoke else FULL_MAX_RECOVERY_OVERHEAD
        ),
        "failures": failures,
        "passed": not failures,
    }
    return report


def render_resilience_table(report: dict) -> str:
    lines = [
        "Resilience: software-mp throughput, clean vs one injected "
        "worker kill",
        "",
        f"{'bits':>8} {'count':>6} {'clean s':>9} {'injected s':>11} "
        f"{'overhead':>9} {'respawns':>9} {'ok':>4}",
    ]
    for r in report["resilience"]:
        ok = r["clean_ok"] and r["injected_ok"]
        lines.append(
            f"{r['bits']:>8} {r['count']:>6} {r['clean_s']:>9.3f} "
            f"{r['injected_s']:>11.3f} {r['recovery_overhead']:>+8.1%} "
            f"{r['respawns']:>9} {'yes' if ok else 'NO':>4}"
        )
    lines.append("")
    lines.append("fault events observed:")
    for r in report["resilience"]:
        for event in r["fault_events"]:
            lines.append(f"  {event}")
    return "\n".join(lines)


def test_smoke_workload():
    """Pytest hook: the smoke suite must pass its gates."""
    report = run_suite(smoke=True, repeats=1, seed=0xFE)
    assert report["acceptance"]["passed"], report["acceptance"]["failures"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small layer for CI; lenient overhead ceiling",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing repeats per case"
    )
    parser.add_argument("--seed", type=int, default=0xFE)
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help=(
            "where to write the JSON report (default: repo-root "
            "BENCH_fhe_workload.json — or BENCH_resilience.json with "
            "--inject — on full runs, nowhere on --smoke)"
        ),
    )
    parser.add_argument(
        "--inject",
        type=str,
        default=None,
        metavar="SPEC",
        help=(
            "resilience mode: measure software-mp throughput clean vs "
            "with this fault injected (e.g. 'worker-kill'); gates "
            "recovery overhead and bit-identical recovery instead of "
            "the FHE-workload gates"
        ),
    )
    args = parser.parse_args(argv)

    if args.inject:
        report = run_resilience_suite(
            args.smoke, args.repeats, args.seed, args.inject
        )
        table = render_resilience_table(report)
        default_json = DEFAULT_RESILIENCE_JSON
        output_name = "resilience.txt"
    else:
        report = run_suite(args.smoke, args.repeats, args.seed)
        table = render_table(report)
        default_json = DEFAULT_JSON
        output_name = "fhe_workload.txt"
    print(table)

    json_path = args.json
    if json_path is None and not args.smoke:
        json_path = default_json
    if json_path is not None:
        json_path.parent.mkdir(parents=True, exist_ok=True)
        json_path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {json_path}")
    if not args.smoke:
        OUTPUT_DIR.mkdir(exist_ok=True)
        (OUTPUT_DIR / output_name).write_text(table + "\n")

    failures = report["acceptance"]["failures"]
    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    if args.inject:
        print(
            "\nPASS: recovery bit-identical, respawn recorded, "
            "overhead gate met"
        )
    else:
        print("\nPASS: every gate decrypts correctly, overhead gates met")
    return 0


if __name__ == "__main__":
    sys.exit(main())
