"""Render every ``BENCH_*.json`` perf series across commits.

The repo root carries one machine-readable trajectory point per
benchmark per PR (``BENCH_ntt_kernels.json``, ``BENCH_ssa_multiply.json``,
``BENCH_fhe_workload.json``, ...).  This tool walks the git history of
each file, extracts one headline metric per commit, and renders the
trajectory as an ASCII chart (plus a PNG when matplotlib happens to be
installed — it is an optional extra, never a requirement).

Usage::

    python benchmarks/plot_trajectory.py                 # all series
    python benchmarks/plot_trajectory.py --bench ssa_multiply
    python benchmarks/plot_trajectory.py --output out.txt

Exit status is non-zero only on malformed history (a tracked
``BENCH_*.json`` that never parses); an empty history is fine (the
working tree counts as one point).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_DIR = Path(__file__).resolve().parent / "output"
BAR_WIDTH = 40


def _headline_ntt_kernels(report: dict) -> Tuple[str, float]:
    best = max(
        max(
            r["limb_matmul_transforms_per_s"],
            r.get("compiled_transforms_per_s", 0.0),
        )
        for r in report["results"]
    )
    return "best fast-kernel transforms/s", best


def _headline_ssa_multiply(report: dict) -> Tuple[str, float]:
    best = max(r["batched_ops_per_s"] for r in report["results"])
    return "best batched products/s", best


def _headline_fhe_workload(report: dict) -> Tuple[str, float]:
    best = max(
        max(r["direct_gates_per_s"], r.get("jobs_gates_per_s", 0.0))
        for r in report["results"]
    )
    return "best AND gates/s", best


def _headline_resilience(report: dict) -> Tuple[str, float]:
    best = max(r["injected_ops_per_s"] for r in report["resilience"])
    return "injected-kill products/s", best


def _headline_service(report: dict) -> Tuple[str, float]:
    best = max(r["coalesced_jobs_per_s"] for r in report["results"])
    return "best coalesced jobs/s", best


def _headline_rlwe_pipeline(report: dict) -> Tuple[str, float]:
    best = max(r["ct_products_per_s"] for r in report["multiply"])
    return "best ct x ct products/s", best


def _headline_arch_dse(report: dict) -> Tuple[str, float]:
    results = report["results"]
    paper = results["paper"]["total_cycles"]
    best = min(m["total_cycles"] for m in results["frontier"])
    saved = 100.0 * max(0, paper - best) / paper
    return "best frontier cycles saved vs paper (%)", saved


def _headline_generic(report: dict) -> Tuple[str, float]:
    """Fallback: first positive float leaf under ``results``."""

    def leaves(node):
        if isinstance(node, dict):
            for value in node.values():
                yield from leaves(value)
        elif isinstance(node, list):
            for value in node:
                yield from leaves(value)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            yield float(node)

    for value in leaves(report.get("results", report)):
        if value > 0:
            return "first metric", value
    raise ValueError("no numeric leaf found")


HEADLINES: Dict[str, Callable[[dict], Tuple[str, float]]] = {
    "ntt_kernels": _headline_ntt_kernels,
    "ssa_multiply": _headline_ssa_multiply,
    "fhe_workload": _headline_fhe_workload,
    "resilience": _headline_resilience,
    "service": _headline_service,
    "rlwe_pipeline": _headline_rlwe_pipeline,
    "arch_dse": _headline_arch_dse,
}


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def history_points(path: Path) -> List[dict]:
    """One point per commit touching ``path``, oldest first, plus the
    working tree if it differs from HEAD (or is untracked)."""
    name = path.name
    points: List[dict] = []
    try:
        commits = _git(
            "log", "--reverse", "--format=%H %ct %s", "--", name
        ).splitlines()
    except subprocess.CalledProcessError:
        commits = []  # not a git checkout: working tree only
    last_blob: Optional[str] = None
    for line in commits:
        sha, stamp, _, = line.split(" ", 2)
        try:
            blob = _git("show", f"{sha}:{name}")
        except subprocess.CalledProcessError:
            continue  # deleted at this commit
        try:
            report = json.loads(blob)
        except json.JSONDecodeError as error:
            raise ValueError(f"{name} at {sha[:8]} is not JSON: {error}")
        points.append(
            {"commit": sha[:8], "unix": int(stamp), "report": report}
        )
        last_blob = blob
    if path.exists():
        blob = path.read_text()
        if blob != last_blob:
            points.append(
                {
                    "commit": "worktree",
                    "unix": int(path.stat().st_mtime),
                    "report": json.loads(blob),
                }
            )
    return points


def series_rows(name: str, points: List[dict]) -> List[dict]:
    """Extract the headline metric once per point (shared by the ASCII
    and PNG renderers; off-schema historical points fall back to the
    generic extractor instead of crashing)."""
    extractor = HEADLINES.get(name, _headline_generic)
    rows = []
    for point in points:
        try:
            label, value = extractor(point["report"])
        except Exception:
            label, value = _headline_generic(point["report"])
        rows.append(
            {
                "commit": point["commit"],
                "unix": point["unix"],
                "label": label,
                "value": value,
            }
        )
    return rows


def render_series(name: str, rows: List[dict]) -> str:
    if not rows:
        return f"{name}: no points"
    label = rows[-1]["label"]
    peak = max(row["value"] for row in rows)
    lines = [f"{name} — {label} (peak {peak:,.1f})"]
    for row in rows:
        value = row["value"]
        bar = "#" * max(1, round(BAR_WIDTH * value / peak)) if peak else ""
        day = time.strftime("%Y-%m-%d", time.localtime(row["unix"]))
        lines.append(
            f"  {row['commit']:>9} {day} {value:>14,.1f} {bar}"
        )
    return "\n".join(lines)


def maybe_png(series: Dict[str, List[dict]], path: Path) -> bool:
    """Best-effort PNG; returns False when matplotlib is missing."""
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return False
    fig, axes = plt.subplots(
        len(series), 1, figsize=(8, 3 * len(series)), squeeze=False
    )
    for ax, (name, rows) in zip(axes.flat, series.items()):
        values = [row["value"] for row in rows]
        ax.plot(range(len(values)), values, marker="o")
        ax.set_xticks(range(len(values)))
        ax.set_xticklabels(
            [row["commit"] for row in rows], rotation=45, fontsize=7
        )
        ax.set_title(name)
    fig.tight_layout()
    fig.savefig(path)
    return True


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench",
        action="append",
        default=None,
        help="series name (e.g. ssa_multiply); repeatable; default all",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="text output path (default benchmarks/output/trajectory.txt)",
    )
    args = parser.parse_args(argv)

    files = sorted(REPO_ROOT.glob("BENCH_*.json"))
    if args.bench:
        wanted = set(args.bench)
        files = [
            f for f in files if f.stem.replace("BENCH_", "") in wanted
        ]
        missing = wanted - {f.stem.replace("BENCH_", "") for f in files}
        if missing:
            print(f"error: no BENCH json for {sorted(missing)}", file=sys.stderr)
            return 1
    if not files:
        print("no BENCH_*.json series at the repo root", file=sys.stderr)
        return 1

    series: Dict[str, List[dict]] = {}
    blocks: List[str] = []
    for path in files:
        name = path.stem.replace("BENCH_", "")
        try:
            rows = series_rows(name, history_points(path))
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        series[name] = rows
        blocks.append(render_series(name, rows))

    text = "\n\n".join(
        ["perf trajectory across commits (one point per PR)", *blocks]
    )
    print(text)
    output = args.output
    if output is None:
        output = OUTPUT_DIR / "trajectory.txt"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(text + "\n")
    print(f"\nwrote {output}")
    # The PNG render lands next to the text output, so CI can publish
    # both from one artifact directory.
    png_path = output.with_suffix(".png")
    if maybe_png(series, png_path):
        print(f"wrote {png_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
