"""RLWE homomorphic-pipeline perf trajectory (ISSUE 10).

Standalone benchmark (also importable under pytest) timing the full
BV-style RLWE pipeline behind the unified :class:`~repro.fhe.HEScheme`
API — the encrypted-analytics workload the ct×ct machinery exists for:

- **multiply**: batched ``multiply_many`` (tensor + relinearization)
  throughput at production batch sizes, single-modulus and RNS/CRT,
  every product decrypted against schoolbook negacyclic truth and the
  batched path checked bit-identical to the one-at-a-time loop;
- **chain**: a depth-2 circuit ``(m1·m2)·m3`` on the 3-prime RNS
  chain with BGV modulus switching between levels — the ISSUE 10
  acceptance circuit — gated on a positive remaining noise budget;
- **aggregate**: an encrypted sum-of-products analytic (k ct×ct
  products folded with homomorphic adds into one ciphertext before a
  single decrypt) — the canonical private-aggregation query shape;
- **modeled**: one ct×ct multiply on the ``hw-model`` backend so the
  relinearized ring products carry accelerator cycle counts.

Results go to two places:

- ``BENCH_rlwe_pipeline.json`` at the repo root — the machine-readable
  perf-trajectory point (RLWE-pipeline series, one point per PR);
- ``benchmarks/output/rlwe_pipeline.txt`` — the human-readable table.

Usage::

    python benchmarks/bench_rlwe_pipeline.py            # full
    python benchmarks/bench_rlwe_pipeline.py --smoke    # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import repro.ntt.negacyclic as negacyclic  # noqa: E402
from repro.engine import Engine  # noqa: E402
from repro.fhe.rlwe import (  # noqa: E402
    RLWE,
    RLWEParams,
    default_rns_primes,
)
from repro.ntt.kernels import default_kernel  # noqa: E402

DEFAULT_JSON = REPO_ROOT / "BENCH_rlwe_pipeline.json"
OUTPUT_DIR = Path(__file__).resolve().parent / "output"

#: Plaintext modulus shared by every case: prime, so the RNS prime
#: search (``q ≡ 1 (mod t)``) stays fast, and small enough that the
#: depth-2 noise fits the 3-prime chain at every benchmarked ``n``.
PLAINTEXT_T = 17
NOISE_BOUND = 4
#: ``multiply_many`` batches the tensor/relin ring products into
#: ``*_many`` passes; it must not regress below the one-at-a-time
#: ``multiply`` loop on full runs (smoke checks bit-identity only).
#: At large ``n`` the transforms dominate, so the ratio follows the NTT
#: rows per product (``rows_per_product``): a batch transforms each
#: relinearization key row once, a loop once per product.  The
#: allowance keeps timer jitter from flaking the gate while a real
#: regression (e.g. batching forcing extra copies) still trips.
BATCH_SPEEDUP_FLOOR = 1.0
BATCH_SPEEDUP_JITTER = 0.25
#: Full runs must include at least one production-size measurement.
FULL_MIN_RING = 1024


def _best_time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@contextmanager
def _counted_rows():
    """Count the forward and inverse NTT rows a free scheme runs."""
    rows = {"forward": 0, "inverse": 0}
    originals = (
        negacyclic.execute_plan_batch,
        negacyclic.execute_plan_inverse_batch,
    )

    def counting(direction, execute):
        def run(values, plan):
            rows[direction] += values.shape[0]
            return execute(values, plan)

        return run

    negacyclic.execute_plan_batch = counting("forward", originals[0])
    negacyclic.execute_plan_inverse_batch = counting("inverse", originals[1])
    try:
        yield rows
    finally:
        (
            negacyclic.execute_plan_batch,
            negacyclic.execute_plan_inverse_batch,
        ) = originals


def school_negacyclic(
    a: Sequence[int], b: Sequence[int], t: int
) -> List[int]:
    """Schoolbook negacyclic product in ``Z_t[x]/(x^n + 1)``."""
    n = len(a)
    acc = [0] * n
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            k = i + j
            if k < n:
                acc[k] += ai * bj
            else:
                acc[k - n] -= ai * bj
    return [x % t for x in acc]


def _params(n: int, primes: int = 0) -> RLWEParams:
    rns = (
        default_rns_primes(n, PLAINTEXT_T, primes) if primes else None
    )
    return RLWEParams(
        n=n, t=PLAINTEXT_T, noise_bound=NOISE_BOUND, rns_primes=rns
    )


def _messages(rng: random.Random, n: int, count: int) -> List[List[int]]:
    return [
        [rng.randrange(PLAINTEXT_T) for _ in range(n)]
        for _ in range(count)
    ]


def multiply_case(
    n: int, primes: int, batch: int, repeats: int, seed: int
) -> dict:
    """Batched ct×ct ``multiply_many`` throughput at one ring size.

    Every product is relinearized back to degree 1 and decrypted
    against schoolbook truth; the batched path must be bit-identical
    to looping ``multiply`` one pair at a time.
    """
    params = _params(n, primes)
    scheme = RLWE(params, rng=random.Random(seed))
    keys = scheme.keygen()
    rng = random.Random(seed + 1)
    lefts = _messages(rng, n, batch)
    rights = _messages(rng, n, batch)
    pairs = list(
        zip(
            scheme.encrypt_many(keys, lefts),
            scheme.encrypt_many(keys, rights),
        )
    )
    truth = [
        school_negacyclic(a, b, params.t)
        for a, b in zip(lefts, rights)
    ]

    with _counted_rows() as batched_rows:
        batched = scheme.multiply_many(keys, pairs)
    with _counted_rows() as looped_rows:
        looped = [scheme.multiply(keys, x, y) for x, y in pairs]
    identical = all(
        np.array_equal(p.c0, q.c0) and np.array_equal(p.c1, q.c1)
        for p, q in zip(batched, looped)
    )
    correct = scheme.decrypt_many(keys, batched) == truth

    batched_s = _best_time(
        lambda: scheme.multiply_many(keys, pairs), repeats
    )
    looped_s = _best_time(
        lambda: [scheme.multiply(keys, x, y) for x, y in pairs],
        repeats,
    )
    return {
        "n": n,
        "rns_primes": primes,
        "batch": batch,
        "batched_s": batched_s,
        "looped_s": looped_s,
        "batch_speedup": looped_s / batched_s,
        "ct_products_per_s": batch / batched_s,
        "rows_per_product": {
            path: {k: v / batch for k, v in rows.items()}
            for path, rows in (
                ("batched", batched_rows),
                ("looped", looped_rows),
            )
        },
        "identical": identical,
        "correct": correct,
    }


def chain_case(n: int, batch: int, repeats: int, seed: int) -> dict:
    """Depth-2 ``(m1·m2)·m3`` on the 3-prime RNS chain (ISSUE 10).

    Each level transition is a BGV modulus switch; both operands of
    the second multiply are switched so they meet at level 2, and the
    final product is switched once more before decrypting at level 1.
    """
    params = _params(n, primes=3)
    scheme = RLWE(params, rng=random.Random(seed))
    keys = scheme.keygen()
    rng = random.Random(seed + 1)
    m1s = _messages(rng, n, batch)
    m2s = _messages(rng, n, batch)
    m3s = _messages(rng, n, batch)
    c1s = scheme.encrypt_many(keys, m1s)
    c2s = scheme.encrypt_many(keys, m2s)
    c3s = scheme.encrypt_many(keys, m3s)
    truth = [
        school_negacyclic(
            school_negacyclic(a, b, params.t), c, params.t
        )
        for a, b, c in zip(m1s, m2s, m3s)
    ]

    def circuit():
        p12 = scheme.multiply_many(keys, list(zip(c1s, c2s)))
        lhs = scheme.mod_switch_many(p12)
        rhs = scheme.mod_switch_many(c3s)
        p123 = scheme.multiply_many(keys, list(zip(lhs, rhs)))
        return scheme.mod_switch_many(p123)

    out = circuit()
    correct = scheme.decrypt_many(keys, out) == truth
    budget = min(scheme.noise_budget(keys, ct) for ct in out)
    fresh_budget = min(
        scheme.noise_budget(keys, ct) for ct in c1s
    )
    chain_s = _best_time(circuit, repeats)
    return {
        "n": n,
        "rns_primes": 3,
        "batch": batch,
        "depth": 2,
        "chain_s": chain_s,
        "circuits_per_s": batch / chain_s,
        "fresh_budget_bits": fresh_budget,
        "final_budget_bits": budget,
        "correct": correct,
    }


def aggregate_case(
    n: int, terms: int, repeats: int, seed: int
) -> dict:
    """Encrypted sum-of-products: ``Σ aᵢ·bᵢ`` under one decrypt.

    ``terms`` ct×ct products fold through homomorphic adds into a
    single ciphertext — the private-aggregation query shape — and the
    one decrypt must equal the plaintext sum of schoolbook products.
    """
    params = _params(n)
    scheme = RLWE(params, rng=random.Random(seed))
    keys = scheme.keygen()
    rng = random.Random(seed + 1)
    lefts = _messages(rng, n, terms)
    rights = _messages(rng, n, terms)
    pairs = list(
        zip(
            scheme.encrypt_many(keys, lefts),
            scheme.encrypt_many(keys, rights),
        )
    )
    truth = [0] * n
    for a, b in zip(lefts, rights):
        for k, v in enumerate(school_negacyclic(a, b, params.t)):
            truth[k] = (truth[k] + v) % params.t

    def query():
        products = scheme.multiply_many(keys, pairs)
        acc = products[0]
        for ct in products[1:]:
            acc = scheme.add(acc, ct)
        return acc

    out = query()
    correct = scheme.decrypt(keys, out) == truth
    budget = scheme.noise_budget(keys, out)
    query_s = _best_time(query, repeats)
    return {
        "n": n,
        "terms": terms,
        "query_s": query_s,
        "terms_per_s": terms / query_s,
        "final_budget_bits": budget,
        "correct": correct,
    }


def modeled_multiply(n: int, seed: int) -> dict:
    """One ct×ct multiply on ``hw-model``: cycles for the ring products."""
    engine = Engine(backend="hw-model")
    try:
        scheme = engine.fhe(_params(n, primes=2), rng=random.Random(seed))
        keys = scheme.keygen()
        rng = random.Random(seed + 1)
        m1, m2 = _messages(rng, n, 2)
        c1, c2 = scheme.encrypt_many(keys, [m1, m2])
        product = scheme.multiply(keys, c1, c2)
        report = engine.last_report
        cycles = report.total_cycles if report is not None else 0
        if callable(cycles):
            cycles = cycles()
        correct = scheme.decrypt(keys, product) == school_negacyclic(
            m1, m2, PLAINTEXT_T
        )
    finally:
        engine.close()
    return {
        "n": n,
        "ring_product_cycles": int(cycles),
        "correct": correct,
    }


def render_table(report: dict) -> str:
    lines = [
        "RLWE pipeline: ct x ct multiply_many (tensor + relinearize)",
        "",
        f"{'n':>6} {'primes':>6} {'batch':>6} {'batched s':>10} "
        f"{'looped s':>10} {'speedup':>8} {'ct/s':>8} "
        f"{'fwd+inv rows/ct b|l':>23} {'ok':>4}",
    ]
    for r in report["multiply"]:
        ok = r["correct"] and r["identical"]
        rows = " | ".join(
            f"{p['forward']:.1f}+{p['inverse']:.1f}"
            for p in (
                r["rows_per_product"]["batched"],
                r["rows_per_product"]["looped"],
            )
        )
        lines.append(
            f"{r['n']:>6} {r['rns_primes']:>6} {r['batch']:>6} "
            f"{r['batched_s']:>10.4f} {r['looped_s']:>10.4f} "
            f"{r['batch_speedup']:>7.2f}x "
            f"{r['ct_products_per_s']:>8.1f} {rows:>23} "
            f"{'yes' if ok else 'NO':>4}"
        )
    lines += [
        "",
        "depth-2 circuit (m1*m2)*m3 on the 3-prime RNS chain, "
        "mod-switched per level",
        "",
        f"{'n':>6} {'batch':>6} {'chain s':>9} {'circ/s':>8} "
        f"{'fresh bits':>11} {'final bits':>11} {'ok':>4}",
    ]
    for r in report["chain"]:
        lines.append(
            f"{r['n']:>6} {r['batch']:>6} {r['chain_s']:>9.4f} "
            f"{r['circuits_per_s']:>8.1f} "
            f"{r['fresh_budget_bits']:>11.1f} "
            f"{r['final_budget_bits']:>11.1f} "
            f"{'yes' if r['correct'] else 'NO':>4}"
        )
    lines += [
        "",
        "encrypted aggregation: sum of k ct x ct products, one decrypt",
        "",
        f"{'n':>6} {'terms':>6} {'query s':>9} {'terms/s':>8} "
        f"{'final bits':>11} {'ok':>4}",
    ]
    for r in report["aggregate"]:
        lines.append(
            f"{r['n']:>6} {r['terms']:>6} {r['query_s']:>9.4f} "
            f"{r['terms_per_s']:>8.1f} "
            f"{r['final_budget_bits']:>11.1f} "
            f"{'yes' if r['correct'] else 'NO':>4}"
        )
    model = report["modeled"]
    lines += [
        "",
        "cycle model context:",
        f"  hw-model ct x ct multiply (n={model['n']}, 2-prime RNS): "
        f"{model['ring_product_cycles']} cycles for the last ring "
        f"product batch",
    ]
    return "\n".join(lines)


def evaluate(report: dict, smoke: bool) -> List[str]:
    failures = []
    for r in report["multiply"]:
        tag = (
            f"multiply n={r['n']} primes={r['rns_primes']} "
            f"batch={r['batch']}"
        )
        if not r["correct"]:
            failures.append(
                f"{tag}: relinearized products decrypted wrong"
            )
        if not r["identical"]:
            failures.append(
                f"{tag}: multiply_many diverged from the one-at-a-time "
                f"multiply loop"
            )
        floor = BATCH_SPEEDUP_FLOOR - BATCH_SPEEDUP_JITTER
        if not smoke and r["batch_speedup"] < floor:
            failures.append(
                f"{tag}: batched path regressed to "
                f"{r['batch_speedup']:.2f}x the looped path "
                f"(< {floor:.2f}x floor)"
            )
    for r in report["chain"]:
        tag = f"chain n={r['n']} batch={r['batch']}"
        if not r["correct"]:
            failures.append(
                f"{tag}: depth-2 circuit decrypted wrong after "
                f"modulus switching"
            )
        if r["final_budget_bits"] <= 0:
            failures.append(
                f"{tag}: noise budget exhausted "
                f"({r['final_budget_bits']:.1f} bits) at depth 2"
            )
    for r in report["aggregate"]:
        tag = f"aggregate n={r['n']} terms={r['terms']}"
        if not r["correct"]:
            failures.append(
                f"{tag}: encrypted sum-of-products decrypted wrong"
            )
        if r["final_budget_bits"] <= 0:
            failures.append(
                f"{tag}: noise budget exhausted after aggregation"
            )
    if not report["modeled"]["correct"]:
        failures.append("hw-model ct x ct multiply decrypted wrong")
    if report["modeled"]["ring_product_cycles"] <= 0:
        failures.append(
            "hw-model reported no cycles for the RLWE ring products"
        )
    if not smoke and not any(
        r["n"] >= FULL_MIN_RING for r in report["multiply"]
    ):
        failures.append(
            f"no n >= {FULL_MIN_RING} multiply measurement present"
        )
    return failures


def run_suite(smoke: bool, repeats: Optional[int], seed: int) -> dict:
    if smoke:
        multiply_cases = [(64, 0, 4), (64, 2, 4)]
        chain_cases = [(64, 2)]
        aggregate_cases = [(64, 8)]
        modeled_n = 64
        repeats = repeats or 2
    else:
        multiply_cases = [
            (256, 0, 16),
            (1024, 0, 8),
            (1024, 3, 8),
        ]
        chain_cases = [(1024, 4)]
        aggregate_cases = [(256, 32)]
        modeled_n = 256
        repeats = repeats or 3
    multiply_results = [
        multiply_case(n, primes, batch, repeats, seed + i)
        for i, (n, primes, batch) in enumerate(multiply_cases)
    ]
    chain_results = [
        chain_case(n, batch, repeats, seed + 40 + i)
        for i, (n, batch) in enumerate(chain_cases)
    ]
    aggregate_results = [
        aggregate_case(n, terms, repeats, seed + 60 + i)
        for i, (n, terms) in enumerate(aggregate_cases)
    ]
    report = {
        "benchmark": "rlwe_pipeline",
        "schema_version": 1,
        "mode": "smoke" if smoke else "full",
        "created_unix": time.time(),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "kernel": default_kernel(),
        },
        "config": {
            "t": PLAINTEXT_T,
            "noise_bound": NOISE_BOUND,
            "repeats": repeats,
            "seed": seed,
            "timer": "best-of-repeats wall clock",
        },
        "multiply": multiply_results,
        "chain": chain_results,
        "aggregate": aggregate_results,
        "modeled": modeled_multiply(modeled_n, seed + 90),
    }
    failures = evaluate(report, smoke)
    report["acceptance"] = {
        "batch_speedup_floor": (
            None if smoke else BATCH_SPEEDUP_FLOOR
        ),
        "batch_speedup_jitter": BATCH_SPEEDUP_JITTER,
        "failures": failures,
        "passed": not failures,
    }
    return report


def test_smoke_workload():
    """Pytest hook: the smoke suite must pass its gates."""
    report = run_suite(smoke=True, repeats=1, seed=0xA0)
    assert report["acceptance"]["passed"], report["acceptance"]["failures"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small rings for CI; no timing floors",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing repeats per case"
    )
    parser.add_argument("--seed", type=int, default=0xA0)
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help=(
            "where to write the JSON report (default: repo-root "
            "BENCH_rlwe_pipeline.json on full runs, nowhere on --smoke)"
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
        (OUTPUT_DIR / "rlwe_pipeline.txt").write_text(table + "\n")

    failures = report["acceptance"]["failures"]
    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(
        "\nPASS: every product decrypts to schoolbook truth, "
        "noise budgets positive, cycle model engaged"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
