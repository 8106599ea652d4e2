"""perfbench: the repository benchmark (see perfbench/README.md).

Usage::

    python3 perfbench/run.py                      # every workload, untraced
                                                  # then traced, with overhead
    python3 perfbench/run.py --workload ssa-paper --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --write-spec         # BENCHMARK.json from spec.py

Every measurement runs in a fresh process (``workload.py``).  With
``--workload`` the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics, or with ``--trace 1`` the per-layer ones).  The exit code is 1
when an output failed its oracle, 2 when the benchmark itself could not
run, and 3 when the traced run's own checks failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

#: Fresh processes timed from start to verified warm-up per run; the
#: reported ``setup_s`` is their median.
SETUP_RUNS = 3
#: Every run ends within this many seconds (a run may take at most 180).
RUN_LIMIT_S = 170.0
#: Traced runs of these workloads must cover this share of the timed
#: wall time with per-layer self time.
COVERAGE_FLOOR = 0.90
COVERAGE_WORKLOADS = ("ssa-paper", "rlwe-depth2")
UNITS = {m["name"]: m["unit"] for m in spec.END_TO_END}
UNITS.update(dict(spec.PER_LAYER))
#: Printed, ungated end-to-end latencies (ms) a workload may report.
LATENCIES = ("batch_p50_ms", "p50_ms", "p99_ms", "multiply.p90_ms",
             "rlwe-multiply.p90_ms")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child(workload, seed, seconds, trace, deadline, setup_only=False, corrupt=False):
    """Run ``workload.py`` in a fresh process; its JSON result."""
    command = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if setup_only:
        command.append("--setup-only")
    if corrupt:
        command.append("--corrupt")
    launched = time.monotonic()
    process = subprocess.Popen(
        command + ["--launched", repr(launched)],
        stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
        text=True,
        start_new_session=True,
    )
    try:
        output, _ = process.communicate(timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchError(f"{workload}: run exceeded {RUN_LIMIT_S:.0f} s") from None
    finally:
        try:  # nothing the child started outlives it
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = output.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise BenchError(f"{workload}: workload process exited {process.returncode}")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace, corrupt=False):
    """One run: extra set-up samples, then the measured process."""
    deadline = time.monotonic() + RUN_LIMIT_S
    samples, attempted, failed = [], 0, 0
    for _ in range(SETUP_RUNS - 1):
        warm = child(workload, seed, seconds, trace, deadline, setup_only=True)
        samples.append(warm["setup_s"])
        attempted += warm["warmup"]["attempted"]
        failed += warm["warmup"]["failed"]
    result = child(workload, seed, seconds, trace, deadline, corrupt=corrupt)
    samples.append(result["setup_s"])
    result["metrics"]["setup_s"] = statistics.median(samples)
    result["setup_samples"] = samples
    result["attempted"] += attempted
    result["failed"] += failed
    result["mismatched"] += failed
    return result


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def show(workload, seed, seconds, trace, result) -> None:
    print(f"perfbench {workload} seed={seed} seconds={seconds:g} trace={trace}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    metrics, extra = result["metrics"], result["extra"]
    for m in spec.END_TO_END:
        name = m["name"]
        label = f"{spec.ALIASES[workload]} ({name})" if name == "ops_per_s" else name
        note = ""
        if name == "setup_s":
            samples = ", ".join(f"{s:.3f}" for s in result["setup_samples"])
            note = f"  median of {len(result['setup_samples'])}: {samples}"
        print(f"  {label:<34} {fmt(metrics[name]):>12} {m['unit']:<5}{note}")
    print("  not gated:")
    if "batches" in extra:
        print(f"  {'batch_p50_ms':<34} {fmt(extra['batch_p50_ms']):>12} ms"
              f"     median of {extra['batches']} batches")
    if "requests" in extra:
        print(f"  {'p50_ms':<34} {fmt(extra['p50_ms']):>12} ms"
              f"     over {extra['requests']} requests")
        for name in LATENCIES[2:]:
            print(f"  {name:<34} {fmt(extra[name]):>12} ms")
        print(f"  {'generator late max / p99':<34} "
              f"{fmt(extra['late_max_ms']):>12} / {fmt(extra['late_p99_ms'])} ms")
    if "workers" in extra:
        print(f"  {'software-mp workers':<34} {extra['workers']:>12}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'fail_frac':<34} {fmt(failed / attempted):>12} ratio "
          f"({failed} of {attempted} operations)")
    if trace:
        print(f"  per-layer (traced run; spans in {result['trace_file']}):")
        for name, unit in spec.PER_LAYER:
            print(f"    {name:<32} {fmt(result['layers'][name]):>12} {unit}")


def traced_problems(workload, result) -> list:
    problems = [f"wrapper recorded no call: {w}" for w in result["missing_wrappers"]]
    coverage = result["layers"]["trace.coverage"]
    if workload in COVERAGE_WORKLOADS and coverage < COVERAGE_FLOOR:
        problems.append(
            f"per-layer spans cover {coverage:.1%} of the timed wall time "
            f"(floor {COVERAGE_FLOOR:.0%})"
        )
    return problems


def run_one(args) -> int:
    result = measure(args.workload, args.seed, args.seconds, args.trace, args.corrupt)
    show(args.workload, args.seed, args.seconds, args.trace, result)
    if args.trace:
        problems = traced_problems(args.workload, result)
        if problems:
            for problem in problems:
                print(f"perfbench: {problem}", file=sys.stderr)
            return 3
        names = [name for name, _ in spec.PER_LAYER]
        values = result["layers"]
    else:
        names = [m["name"] for m in spec.END_TO_END]
        values = result["metrics"]
    print(json.dumps({
        "correct": result["mismatched"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": values[n], "unit": UNITS[n]} for n in names},
    }))
    return 1 if result["mismatched"] else 0


def run_all(args) -> int:
    """Every workload, untraced then traced, and the tracing overhead."""
    status = 0
    overhead = {}
    for workload in spec.WORKLOADS:
        plain = measure(workload, args.seed, args.seconds, 0)
        show(workload, args.seed, args.seconds, 0, plain)
        traced = measure(workload, args.seed, args.seconds, 1)
        show(workload, args.seed, args.seconds, 1, traced)
        for problem in traced_problems(workload, traced):
            print(f"perfbench: {workload}: {problem}", file=sys.stderr)
            status = max(status, 3)
        if plain["mismatched"] or traced["mismatched"]:
            status = max(status, 1)
        deltas = {
            m["name"]: (traced["metrics"][m["name"]] - plain["metrics"][m["name"]],
                        m["unit"])
            for m in spec.END_TO_END
        }
        for name in LATENCIES:
            if name in plain["extra"]:
                deltas[name] = (traced["extra"][name] - plain["extra"][name], "ms")
        overhead[workload] = deltas
        print()
    print("tracing overhead (traced minus untraced):")
    for workload, deltas in overhead.items():
        cells = "  ".join(
            f"{name} {delta:+.4g} {unit}" for name, (delta, unit) in deltas.items()
        )
        print(f"  {workload:<12} {cells}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt", action="store_true",
        help="alter one output before its check (the checker self-test)",
    )
    parser.add_argument(
        "--write-spec", action="store_true", help="write BENCHMARK.json and exit"
    )
    args = parser.parse_args()
    if args.write_spec:
        print(spec.write_benchmark_json(ROOT))
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        return run_one(args) if args.workload else run_all(args)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
