"""Architecture design-space exploration trajectory — ISSUE 9.

Standalone benchmark (also importable under pytest) driving the
:mod:`repro.arch` explorer over the declarative hardware model:

- **sweep**: enumerate the default :class:`~repro.arch.explore.DesignSpace`
  (PE count × FFT units × dot/carry widths × exchange topology ×
  radix plan), price every candidate through the cycle model on the
  paper 64K-SSA and RLWE-4096 workloads, and prune to the Pareto
  frontier of total cycles vs the area proxy;
- **paper anchor**: the DATE'16 operating point (4 PEs, hypercube,
  64×64×16 plan) is always evaluated and located against the frontier
  — the acceptance gate requires it to be on the frontier or strictly
  dominated (fewer cycles at equal-or-lower area);
- **overlap**: the pipelined batch schedule's cross-row stall hiding,
  reported at the paper point (exchanges fully hidden — 0% headroom)
  and at 16 PEs where the exchange becomes the bottleneck and the
  overlap recovers ~23% of the serial schedule;
- **determinism**: the sweep runs twice (jobs-parallel and inline) and
  the two reports must be byte-identical.

Results go to two places:

- ``BENCH_arch_dse.json`` at the repo root — the machine-readable
  perf-trajectory point (arch-DSE series, one point per PR);
- ``benchmarks/output/arch_dse.txt`` — the human-readable table
  (plus ``arch_dse.png`` when matplotlib is available).

Usage::

    python benchmarks/bench_arch_dse.py            # full
    python benchmarks/bench_arch_dse.py --smoke    # CI gate
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

from repro.arch.explore import (  # noqa: E402
    DEFAULT_WORKLOADS,
    DesignSpace,
    ExplorationResult,
    explore,
    plot_frontier,
)
from repro.arch.spec import ArchSpec  # noqa: E402
from repro.hw.accelerator import HEAccelerator  # noqa: E402
from repro.ntt.plan import plan_for_size  # noqa: E402

DEFAULT_JSON = REPO_ROOT / "BENCH_arch_dse.json"
OUTPUT_DIR = Path(__file__).resolve().parent / "output"

#: Smoke trims the enumeration to keep the CI gate under a second.
SMOKE_MAX_CANDIDATES = 24


def overlap_case(pes: int, rows: int) -> dict:
    """Cross-row stall hiding of the pipelined batch schedule.

    Prices a ``rows``-row 64K batch at ``pes`` PEs and reports how many
    exchange cycles the steady-state overlap hides relative to the
    serial back-to-back schedule.
    """
    arch = ArchSpec.paper_variant(pes=pes)
    accelerator = HEAccelerator(
        plan=plan_for_size(65536, (64, 64, 16)), arch=arch
    )
    batch = accelerator.batch_schedule(rows)
    serial = batch.serial_total_cycles
    hidden = batch.hidden_stall_cycles
    return {
        "pes": pes,
        "rows": rows,
        "total_cycles": batch.total_cycles,
        "serial_cycles": serial,
        "hidden_stall_cycles": hidden,
        "improvement_pct": 100.0 * hidden / serial if serial else 0.0,
        "time_us": batch.time_us,
    }


def evaluate(report: dict) -> List[str]:
    """Acceptance gates; returns human-readable failure strings."""
    failures: List[str] = []
    results = report["results"]
    if not results["frontier"]:
        failures.append("Pareto frontier is empty")
    if not (results["paper_on_frontier"] or results["dominating_paper"]):
        failures.append(
            "paper point is neither on the frontier nor strictly "
            "dominated by a frontier member"
        )
    if not report["determinism"]["runs_identical"]:
        failures.append(
            "jobs-parallel and inline sweeps produced different reports"
        )
    return failures


def run_suite(smoke: bool) -> "tuple[dict, ExplorationResult]":
    """One trajectory point: sweep twice, compare, gate, report."""
    max_candidates = SMOKE_MAX_CANDIDATES if smoke else 512
    space = DesignSpace(max_candidates=max_candidates)
    start = time.perf_counter()
    first = explore(space, use_jobs=not smoke)
    sweep_s = time.perf_counter() - start
    second = explore(space, use_jobs=False)
    runs_identical = first.to_json() == second.to_json()

    overlap = [overlap_case(4, 8)]
    if not smoke:
        overlap.append(overlap_case(16, 16))

    report = {
        "benchmark": "arch_dse",
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
            "max_candidates": max_candidates,
            "workloads": [w.name for w in DEFAULT_WORKLOADS],
            "first_run_used_jobs": not smoke,
            "sweep_seconds": sweep_s,
        },
        "results": first.to_dict(),
        "overlap": overlap,
        "determinism": {"runs_identical": runs_identical},
    }
    failures = evaluate(report)
    report["acceptance"] = {
        "failures": failures,
        "passed": not failures,
    }
    return report, first


def render_table(report: dict, result: ExplorationResult) -> str:
    lines = [
        f"architecture design-space exploration ({report['mode']})",
        "",
        result.render(limit=14),
        "",
        "batch overlap (pipelined cross-row schedule vs serial):",
        f"{'PEs':>4} {'rows':>5} {'total':>10} {'serial':>10} "
        f"{'hidden':>8} {'saved':>7}",
    ]
    for case in report["overlap"]:
        lines.append(
            f"{case['pes']:>4} {case['rows']:>5} "
            f"{case['total_cycles']:>10,} {case['serial_cycles']:>10,} "
            f"{case['hidden_stall_cycles']:>8,} "
            f"{case['improvement_pct']:>6.1f}%"
        )
    lines.append(
        "(at the paper point the exchanges are fully hidden inside "
        "compute, so the overlap saves 0%; at 16 PEs the exchange "
        "dominates and the overlap recovers the difference)"
    )
    lines.append("")
    lines.append(
        "determinism: jobs vs inline sweeps "
        + (
            "byte-identical"
            if report["determinism"]["runs_identical"]
            else "DIVERGED"
        )
    )
    return "\n".join(lines)


def test_smoke_arch_dse():
    """Pytest hook: the smoke sweep must pass its gates."""
    report, _ = run_suite(smoke=True)
    assert report["acceptance"]["passed"], report["acceptance"]["failures"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="trimmed enumeration for CI; no JSON artifact",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help=(
            "where to write the JSON report (default: repo-root "
            "BENCH_arch_dse.json on full runs, nowhere on --smoke)"
        ),
    )
    args = parser.parse_args(argv)

    report, result = run_suite(args.smoke)
    table = render_table(report, result)
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
        (OUTPUT_DIR / "arch_dse.txt").write_text(table + "\n")
        png = plot_frontier(result, str(OUTPUT_DIR / "arch_dse.png"))
        if png:
            print(f"wrote {png}")

    failures = report["acceptance"]["failures"]
    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nall arch-DSE gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
