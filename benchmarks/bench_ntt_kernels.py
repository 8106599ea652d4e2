"""E10 — NTT stage-kernel backends: ``loop``, ``limb-matmul``, ``compiled``.

Standalone benchmark (also importable under pytest) comparing the
stage-DFT backends of :mod:`repro.ntt.kernels` on the forward NTT at
several batch sizes, cross-checking bit-exactness on every
measurement (``compiled`` runs when its C library builds on the host,
and must be bit-exact against ``loop`` and at least as fast as
``limb-matmul``; the fused ring product is timed on it too), plus the
fused-negacyclic gate: the ψ-fused plans must be
bit-identical to the explicit-twist ``loop``-kernel oracle and at
least as fast as the unfused limb-matmul route on a full
forward+pointwise+inverse ring product.  The permutation-free gate
(ISSUE 6) additionally pits the decimated DIF/DIT convolution
pipeline against the permuted (natural-order) one: bit-identical to
the loop oracle, never slower, and on full runs the best batched
64K-point case must clear the acceptance speedup.  Results go to two
places:

- ``BENCH_ntt_kernels.json`` at the repo root — the machine-readable
  perf-trajectory point (first of its series);
- ``benchmarks/output/ntt_kernels.txt`` — the human-readable table.

Usage::

    python benchmarks/bench_ntt_kernels.py            # full: 64K points
    python benchmarks/bench_ntt_kernels.py --smoke    # CI: 4K points

Exit status is non-zero if the limb-matmul backend loses bit-exactness
anywhere, regresses below 1× the loop backend, the compiled backend
loses bit-exactness or drops below 1× limb-matmul, the fused negacyclic
path loses bit-identity / drops below 1× the unfused path, or the
permutation-free pipeline loses bit-identity / regresses below its
floor; the full run additionally enforces the ≥3× acceptance threshold
on the single-shot (batch = 1) 64K-point transform and the ≥1.05×
ordering acceptance on the best batched 64K convolution.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import List, Optional

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.field.solinas import P  # noqa: E402
from repro.ntt.convolution import cyclic_convolution_many  # noqa: E402
from repro.ntt.kernels import (  # noqa: E402
    KERNEL_COMPILED,
    KERNEL_LIMB_MATMUL,
    KERNEL_LOOP,
    available_kernels,
)
from repro.ntt.negacyclic import (  # noqa: E402
    negacyclic_convolution_many,
)
from repro.ntt.plan import (  # noqa: E402
    ORDER_DECIMATED,
    TWIST_NEGACYCLIC,
    plan_for_size,
)
from repro.ntt.staged import execute_plan_batch  # noqa: E402

DEFAULT_JSON = REPO_ROOT / "BENCH_ntt_kernels.json"
OUTPUT_DIR = Path(__file__).resolve().parent / "output"

#: Acceptance thresholds (see ISSUE 2): the fast backend must never be
#: slower than the reference, and the full run must show ≥3× on the
#: single-shot 64K transform.  The compiled backend must never be
#: slower than limb-matmul.
MIN_SPEEDUP = 1.0
MIN_COMPILED_SPEEDUP = 1.0
COMPILED = KERNEL_COMPILED in available_kernels()
ACCEPTANCE_SPEEDUP = 3.0
ACCEPTANCE_N = 65536
#: The fused negacyclic route strictly removes vector passes, so it
#: must never lose to the explicit-twist route (ISSUE 5).
MIN_NEGACYCLIC_SPEEDUP = 1.0
#: The permutation-free (decimated DIF/DIT) convolution pipeline also
#: strictly removes passes — the digit-reversal gathers, plus the
#: trailing ``n^{-1}`` scale on unfused plans — so it must never lose
#: to the permuted pipeline (ISSUE 6).  The floor is strict where the
#: removed work is a few percent of the pipeline (unfused cyclic:
#: gathers + scale pass); flavors whose only saving is the gathers
#: (~1% of a limb-matmul convolution — fused plans already fold the
#: scale) get a timer-jitter allowance so a sub-noise-floor effect
#: cannot flake CI, while real regressions still trip the gate.
MIN_ORDERING_SPEEDUP = 1.0
ORDERING_JITTER = 0.05
#: Full runs gate the headline ISSUE 6 number: the best batched
#: 64K-point permutation-free convolution must clear this.
ORDERING_ACCEPTANCE_SPEEDUP = 1.05


def _best_time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _interleaved_best(fn_a, fn_b, repeats: int):
    """Best-of timing with A/B samples interleaved.

    Alternating the two pipelines makes both sample the same slow/fast
    phases of a noisy machine, so the best-vs-best ratio reflects the
    work difference instead of which side drew the quieter window.
    """
    best_a = best_b = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


def run_case(n: int, radices, batch: int, repeats: int, seed: int) -> dict:
    """Time both backends on one ``(n, batch)`` point; verify exactness."""
    loop_plan = plan_for_size(n, radices, kernel=KERNEL_LOOP)
    fast_plan = plan_for_size(n, radices, kernel=KERNEL_LIMB_MATMUL)
    rng = np.random.default_rng(seed)
    data = rng.integers(0, P, size=(batch, n), dtype=np.uint64)

    loop_out = execute_plan_batch(data, loop_plan)  # warm + reference
    fast_out = execute_plan_batch(data, fast_plan)
    bit_exact = bool(np.array_equal(loop_out, fast_out))

    loop_s = _best_time(lambda: execute_plan_batch(data, loop_plan), repeats)
    fast_s = _best_time(lambda: execute_plan_batch(data, fast_plan), repeats)
    result = {
        "n": n,
        "radices": list(radices),
        "batch": batch,
        "loop_s": loop_s,
        "limb_matmul_s": fast_s,
        "speedup": loop_s / fast_s,
        "loop_transforms_per_s": batch / loop_s,
        "limb_matmul_transforms_per_s": batch / fast_s,
        "bit_exact": bit_exact,
    }
    if COMPILED:
        compiled_plan = plan_for_size(n, radices, kernel=KERNEL_COMPILED)
        compiled_out = execute_plan_batch(data, compiled_plan)
        fast_s, compiled_s = _interleaved_best(
            lambda: execute_plan_batch(data, fast_plan),
            lambda: execute_plan_batch(data, compiled_plan),
            repeats,
        )
        result.update(
            compiled_s=compiled_s,
            compiled_speedup=fast_s / compiled_s,
            compiled_transforms_per_s=batch / compiled_s,
            compiled_bit_exact=bool(np.array_equal(loop_out, compiled_out)),
        )
    return result


def run_negacyclic_case(
    n: int, radices, batch: int, repeats: int, seed: int
) -> dict:
    """Fused vs explicit-twist negacyclic ring product at one point.

    Exactness: the fused plans (both kernels) must reproduce the
    explicit-twist ``loop``-kernel oracle bit for bit.  Speed: the
    fused limb-matmul route is timed against the unfused limb-matmul
    route on a full ``negacyclic_convolution_many`` (forward +
    pointwise + inverse), the RLWE ring-product shape.
    """
    oracle_plan = plan_for_size(n, radices, kernel=KERNEL_LOOP)
    unfused_plan = plan_for_size(n, radices, kernel=KERNEL_LIMB_MATMUL)
    fused_plan = plan_for_size(
        n, radices, kernel=KERNEL_LIMB_MATMUL, twist=TWIST_NEGACYCLIC
    )
    fused_loop_plan = plan_for_size(
        n, radices, kernel=KERNEL_LOOP, twist=TWIST_NEGACYCLIC
    )
    rng = np.random.default_rng(seed)
    a = rng.integers(0, P, size=(batch, n), dtype=np.uint64)
    b = rng.integers(0, P, size=(batch, n), dtype=np.uint64)

    oracle = negacyclic_convolution_many(a, b, oracle_plan)
    fused_out = negacyclic_convolution_many(a, b, fused_plan)
    fused_loop_out = negacyclic_convolution_many(a, b, fused_loop_plan)
    unfused_out = negacyclic_convolution_many(a, b, unfused_plan)
    bit_exact = bool(
        np.array_equal(oracle, fused_out)
        and np.array_equal(oracle, fused_loop_out)
        and np.array_equal(oracle, unfused_out)
    )

    unfused_s, fused_s = _interleaved_best(
        lambda: negacyclic_convolution_many(a, b, unfused_plan),
        lambda: negacyclic_convolution_many(a, b, fused_plan),
        repeats,
    )
    result = {
        "n": n,
        "radices": list(radices),
        "batch": batch,
        "unfused_s": unfused_s,
        "fused_s": fused_s,
        "speedup": unfused_s / fused_s,
        "fused_products_per_s": batch / fused_s,
        "bit_exact": bit_exact,
    }
    if COMPILED:
        compiled_plan = plan_for_size(
            n, radices, kernel=KERNEL_COMPILED, twist=TWIST_NEGACYCLIC
        )
        compiled_out = negacyclic_convolution_many(a, b, compiled_plan)
        fused_s, compiled_s = _interleaved_best(
            lambda: negacyclic_convolution_many(a, b, fused_plan),
            lambda: negacyclic_convolution_many(a, b, compiled_plan),
            repeats,
        )
        result.update(
            fused_compiled_s=compiled_s,
            compiled_speedup=fused_s / compiled_s,
            fused_compiled_products_per_s=batch / compiled_s,
            compiled_bit_exact=bool(np.array_equal(oracle, compiled_out)),
        )
    return result


def run_ordering_case(
    flavor: str, n: int, radices, batch: int, repeats: int, seed: int
) -> dict:
    """Permutation-free vs permuted convolution pipeline at one point.

    ``flavor`` is ``"cyclic"`` (unfused plans: the decimated pair skips
    three digit-reversal gathers *and* the trailing ``n^{-1}`` scale
    pass) or ``"negacyclic"`` (ψ-fused plans: only the gathers remain
    to skip).  Both pipelines run the limb-matmul kernel; bit-exactness
    is checked against the natural-order ``loop``-kernel oracle.
    """
    twist = TWIST_NEGACYCLIC if flavor == "negacyclic" else ""
    conv = (
        negacyclic_convolution_many
        if flavor == "negacyclic"
        else cyclic_convolution_many
    )
    oracle_plan = plan_for_size(n, radices, kernel=KERNEL_LOOP)
    permuted_plan = plan_for_size(
        n, radices, kernel=KERNEL_LIMB_MATMUL, twist=twist
    )
    free_plan = plan_for_size(
        n,
        radices,
        kernel=KERNEL_LIMB_MATMUL,
        twist=twist,
        ordering=ORDER_DECIMATED,
    )
    rng = np.random.default_rng(seed)
    a = rng.integers(0, P, size=(batch, n), dtype=np.uint64)
    b = rng.integers(0, P, size=(batch, n), dtype=np.uint64)

    oracle = conv(a, b, oracle_plan)
    permuted_out = conv(a, b, permuted_plan)  # warm + reference
    free_out = conv(a, b, free_plan)
    bit_exact = bool(
        np.array_equal(oracle, permuted_out)
        and np.array_equal(oracle, free_out)
    )

    permuted_s, free_s = _interleaved_best(
        lambda: conv(a, b, permuted_plan),
        lambda: conv(a, b, free_plan),
        repeats,
    )
    return {
        "flavor": flavor,
        "n": n,
        "radices": list(radices),
        "batch": batch,
        "permuted_s": permuted_s,
        "permutation_free_s": free_s,
        "speedup": permuted_s / free_s,
        "permutation_free_products_per_s": batch / free_s,
        "bit_exact": bit_exact,
        # Strict floor only where the skipped work is above the timer
        # noise floor; gather-only flavors get the jitter allowance.
        "strict_floor": flavor == "cyclic",
    }


def _compiled_cells(r: dict, seconds_key: str) -> str:
    if seconds_key not in r:
        return f" {'(no compiler)':>24}"
    return (
        f" {r[seconds_key]:>11.4f} {r['compiled_speedup']:>6.2f}x "
        f"{'yes' if r['compiled_bit_exact'] else 'NO':>5}"
    )


def render_table(results: List[dict]) -> str:
    lines = [
        "NTT stage-kernel backends: loop vs limb-matmul vs compiled "
        "(forward NTT; compiled speedup is over limb-matmul)",
        "",
        f"{'n':>7} {'batch':>6} {'loop s':>10} {'limb-matmul s':>14} "
        f"{'speedup':>8} {'exact':>6} {'compiled s':>11} {'speedup':>7} "
        f"{'exact':>5}",
    ]
    for r in results:
        lines.append(
            f"{r['n']:>7} {r['batch']:>6} {r['loop_s']:>10.4f} "
            f"{r['limb_matmul_s']:>14.4f} {r['speedup']:>7.2f}x "
            f"{'yes' if r['bit_exact'] else 'NO':>6}"
            + _compiled_cells(r, "compiled_s")
        )
    return "\n".join(lines)


def render_negacyclic_table(results: List[dict]) -> str:
    lines = [
        "",
        "fused negacyclic ring products: psi-fused plans vs explicit twist "
        "(limb-matmul), then fused on compiled",
        "",
        f"{'n':>7} {'batch':>6} {'unfused s':>10} {'fused s':>10} "
        f"{'speedup':>8} {'exact':>6} {'compiled s':>11} {'speedup':>7} "
        f"{'exact':>5}",
    ]
    for r in results:
        lines.append(
            f"{r['n']:>7} {r['batch']:>6} {r['unfused_s']:>10.4f} "
            f"{r['fused_s']:>10.4f} {r['speedup']:>7.2f}x "
            f"{'yes' if r['bit_exact'] else 'NO':>6}"
            + _compiled_cells(r, "fused_compiled_s")
        )
    return "\n".join(lines)


def render_ordering_table(results: List[dict]) -> str:
    lines = [
        "",
        "permutation-free convolutions: decimated DIF/DIT pair vs permuted",
        "",
        f"{'flavor':>10} {'n':>7} {'batch':>6} {'permuted s':>11} "
        f"{'perm-free s':>12} {'speedup':>8} {'exact':>6}",
    ]
    for r in results:
        lines.append(
            f"{r['flavor']:>10} {r['n']:>7} {r['batch']:>6} "
            f"{r['permuted_s']:>11.4f} {r['permutation_free_s']:>12.4f} "
            f"{r['speedup']:>7.2f}x "
            f"{'yes' if r['bit_exact'] else 'NO':>6}"
        )
    return "\n".join(lines)


def evaluate(
    results: List[dict],
    smoke: bool,
    negacyclic: Optional[List[dict]] = None,
    ordering: Optional[List[dict]] = None,
) -> List[str]:
    """Gate failures (empty list == pass)."""
    failures = []
    for r in results:
        tag = f"n={r['n']} batch={r['batch']}"
        if not r["bit_exact"]:
            failures.append(f"{tag}: limb-matmul output diverged from loop")
        if r["speedup"] < MIN_SPEEDUP:
            failures.append(
                f"{tag}: limb-matmul regressed to "
                f"{r['speedup']:.2f}x (< {MIN_SPEEDUP}x loop)"
            )
    for r in results + (negacyclic or []):
        if "compiled_speedup" not in r:
            continue
        tag = f"compiled n={r['n']} batch={r['batch']}"
        if not r["compiled_bit_exact"]:
            failures.append(f"{tag}: compiled output diverged from loop")
        if r["compiled_speedup"] < MIN_COMPILED_SPEEDUP:
            failures.append(
                f"{tag}: compiled regressed to "
                f"{r['compiled_speedup']:.2f}x "
                f"(< {MIN_COMPILED_SPEEDUP}x limb-matmul)"
            )
    for r in negacyclic or []:
        tag = f"negacyclic n={r['n']} batch={r['batch']}"
        if not r["bit_exact"]:
            failures.append(
                f"{tag}: fused output diverged from the explicit-twist "
                f"loop oracle"
            )
        if r["speedup"] < MIN_NEGACYCLIC_SPEEDUP:
            failures.append(
                f"{tag}: fused route regressed to {r['speedup']:.2f}x "
                f"(< {MIN_NEGACYCLIC_SPEEDUP}x the unfused path)"
            )
    for r in ordering or []:
        tag = f"ordering {r['flavor']} n={r['n']} batch={r['batch']}"
        if not r["bit_exact"]:
            failures.append(
                f"{tag}: permutation-free output diverged from the "
                f"natural-order loop oracle"
            )
        floor = MIN_ORDERING_SPEEDUP - (
            0.0 if r["strict_floor"] else ORDERING_JITTER
        )
        if r["speedup"] < floor:
            failures.append(
                f"{tag}: permutation-free pipeline regressed to "
                f"{r['speedup']:.2f}x (< {floor:.2f}x the permuted path)"
            )
    if not smoke and ordering:
        batched = [
            r
            for r in ordering
            if r["n"] == ACCEPTANCE_N and r["batch"] > 1
        ]
        if not batched:
            failures.append(
                f"no batched {ACCEPTANCE_N}-point ordering measurement "
                f"present"
            )
        elif (
            max(r["speedup"] for r in batched)
            < ORDERING_ACCEPTANCE_SPEEDUP
        ):
            failures.append(
                f"best batched {ACCEPTANCE_N}-point permutation-free "
                f"speedup "
                f"{max(r['speedup'] for r in batched):.2f}x "
                f"< {ORDERING_ACCEPTANCE_SPEEDUP}x acceptance threshold"
            )
    if not smoke:
        single = [
            r
            for r in results
            if r["n"] == ACCEPTANCE_N and r["batch"] == 1
        ]
        if not single:
            failures.append(
                f"no batch-1 {ACCEPTANCE_N}-point measurement present"
            )
        elif single[0]["speedup"] < ACCEPTANCE_SPEEDUP:
            failures.append(
                f"single-shot {ACCEPTANCE_N}-point speedup "
                f"{single[0]['speedup']:.2f}x "
                f"< {ACCEPTANCE_SPEEDUP}x acceptance threshold"
            )
    return failures


def run_suite(smoke: bool, repeats: Optional[int], seed: int) -> dict:
    if smoke:
        cases = [(4096, (64, 64), b) for b in (1, 8)]
        negacyclic_cases = [(4096, (64, 64), 4)]
        ordering_cases = [
            ("cyclic", 4096, (64, 64), 4),
            ("negacyclic", 4096, (64, 64), 4),
        ]
        repeats = repeats or 2
    else:
        cases = [(65536, (64, 64, 16), b) for b in (1, 8, 32)]
        negacyclic_cases = [
            (65536, (64, 64, 16), 1),
            (65536, (64, 64, 16), 4),
        ]
        ordering_cases = [
            ("cyclic", 65536, (64, 64, 16), 4),
            ("cyclic", 65536, (64, 64, 16), 8),
            ("negacyclic", 65536, (64, 64, 16), 4),
        ]
        repeats = repeats or 3
    results = [
        run_case(n, radices, batch, repeats, seed + i)
        for i, (n, radices, batch) in enumerate(cases)
    ]
    # The fused-vs-unfused margin is a handful of vector passes, so
    # the negacyclic gate takes extra repeats: best-of-N timing keeps
    # scheduler noise from swamping a strictly-less-work comparison.
    negacyclic_results = [
        run_negacyclic_case(
            n, radices, batch, max(repeats, 5), seed + 100 + i
        )
        for i, (n, radices, batch) in enumerate(negacyclic_cases)
    ]
    # Same reasoning for the ordering gate: its margin is a few skipped
    # vector passes, so interleaved best-of-5-or-more keeps the ratio
    # honest on a noisy machine.
    ordering_results = [
        run_ordering_case(
            flavor, n, radices, batch, max(repeats, 5), seed + 200 + i
        )
        for i, (flavor, n, radices, batch) in enumerate(ordering_cases)
    ]
    failures = evaluate(results, smoke, negacyclic_results, ordering_results)
    return {
        "benchmark": "ntt_kernels",
        "schema_version": 3,
        "mode": "smoke" if smoke else "full",
        "created_unix": time.time(),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": len(os.sched_getaffinity(0)),
            "kernels": list(available_kernels()),
        },
        "config": {
            "repeats": repeats,
            "seed": seed,
            "timer": "best-of-repeats wall clock",
        },
        "results": results,
        "negacyclic": negacyclic_results,
        "ordering": ordering_results,
        "acceptance": {
            "min_speedup": MIN_SPEEDUP,
            "min_compiled_speedup": MIN_COMPILED_SPEEDUP,
            "min_negacyclic_speedup": MIN_NEGACYCLIC_SPEEDUP,
            "min_ordering_speedup": MIN_ORDERING_SPEEDUP,
            "ordering_jitter": ORDERING_JITTER,
            "single_shot_threshold": (
                None if smoke else ACCEPTANCE_SPEEDUP
            ),
            "ordering_threshold": (
                None if smoke else ORDERING_ACCEPTANCE_SPEEDUP
            ),
            "failures": failures,
            "passed": not failures,
        },
    }


def test_smoke_comparison():
    """Pytest hook: the smoke suite must pass its gates."""
    report = run_suite(smoke=True, repeats=1, seed=0xDA7E)
    assert report["acceptance"]["passed"], report["acceptance"]["failures"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes for CI; skips the 3x single-shot gate",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing repeats per case"
    )
    parser.add_argument("--seed", type=int, default=0xDA7E)
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help=(
            "where to write the JSON report (default: repo-root "
            "BENCH_ntt_kernels.json on full runs, nowhere on --smoke)"
        ),
    )
    args = parser.parse_args(argv)

    report = run_suite(args.smoke, args.repeats, args.seed)
    table = (
        render_table(report["results"])
        + "\n"
        + render_negacyclic_table(report["negacyclic"])
        + "\n"
        + render_ordering_table(report["ordering"])
    )
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
        (OUTPUT_DIR / "ntt_kernels.txt").write_text(table + "\n")

    failures = report["acceptance"]["failures"]
    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(
        "\nPASS: bit-exact everywhere (compiled kernel, fused negacyclic "
        "and permutation-free pipelines included), speedup gates met"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
