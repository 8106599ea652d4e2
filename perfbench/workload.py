"""One workload in a fresh process: set up, warm up, measure, check.

``run.py`` starts this script once per measurement (and once per extra
set-up sample with ``--setup-only``).  Progress goes to stderr; the
result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
#: Where a traced run writes its spans when it ends.
TRACES = HERE / "traces"

import oracles  # noqa: E402
import tracing  # noqa: E402

#: The paper's DGHV ciphertext size, and the batch every closed loop runs.
SSA_BITS = 786_432
BATCH = 8
#: Distinct input batches per run, cycled by the closed loops.
POOL_BATCHES = 4
#: RLWE parameters of ``rlwe-depth2`` (and of serve-mixed's heavy class).
RLWE_N, RLWE_T, RLWE_PRIMES, RLWE_NOISE = 1024, 17, 3, 4


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def environment(seed: int) -> dict:
    """The facts a reader needs to compare two results."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = {"name": "unknown"}
    method = multiprocessing.get_start_method(allow_none=True)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads_env": {
            k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")
        },
        "mp_start_method": method
        or f"{multiprocessing.get_all_start_methods()[0]} (default, unset)",
        "seed": seed,
    }


def peak_rss_mb(pid: int = 0) -> float:
    """Peak resident memory of this process (``pid=0``) or of ``pid``."""
    if pid == 0:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class ClosedLoop:
    """One caller running batches back to back for a fixed time.

    ``run(i)`` executes batch ``i`` (timed); ``check(i, out)`` returns
    how many of its results failed the oracle (untimed).
    """

    def __init__(self, recorder: tracing.Recorder, corrupt):
        self.recorder = recorder
        self.corrupt = corrupt
        self.times = []
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0

    def measure(self, seconds: float, run, check) -> None:
        end = time.monotonic() + seconds
        i = 0
        while time.monotonic() < end:
            self.recorder.phase = "timed"
            start = time.monotonic()
            try:
                out = run(i)
            except Exception:  # counted as failed work, the loop goes on
                self.recorder.phase = "check"
                log(traceback.format_exc())
                self.attempted += BATCH
                self.failed += BATCH
                i += 1
                continue
            self.times.append(time.monotonic() - start)
            self.recorder.phase = "check"
            if i == 0 and self.corrupt:
                out = self.corrupt(out)
            bad = check(i, out)
            self.attempted += BATCH
            self.failed += bad
            self.mismatched += bad
            i += 1

    def metrics(self) -> dict:
        wall = sum(self.times)
        ok = self.attempted - self.failed
        return {"ops_per_s": ok / wall if wall else 0.0}

    def extra(self) -> dict:
        return {
            "batch_p50_ms": statistics.median(self.times) * 1e3 if self.times else 0.0,
            "batches": len(self.times),
            "timed_s": sum(self.times),
        }


def run_ssa(args, recorder, result) -> None:
    backend = "software-mp" if args.workload == "ssa-mp" else "software"
    rng = random.Random(args.seed)
    # The two check primes come from the seed; the program never sees them.
    check = oracles.ResidueCheck(oracles.random_primes(rng, 2, 61))
    top = 1 << (SSA_BITS - 1)
    pool = []
    for _ in range(POOL_BATCHES):
        pairs = [
            (rng.getrandbits(SSA_BITS) | top, rng.getrandbits(SSA_BITS) | top)
            for _ in range(BATCH)
        ]
        pool.append((
            [a for a, _ in pairs],
            [b for _, b in pairs],
            [check.expect(a, b) for a, b in pairs],
        ))

    from repro.engine import Engine

    engine = Engine(backend=backend)
    a, b, _ = pool[0]
    warm = engine.multiply(a, b)
    warm_bad = sum(p != x * y for p, x, y in zip(warm, a, b))
    result["setup_end"] = time.monotonic()
    result["warmup"] = {"attempted": BATCH, "failed": warm_bad}
    if args.setup_only:
        engine.close()
        return

    def run(i):
        a, b, _ = pool[i % POOL_BATCHES]
        return engine.multiply(a, b)

    def verify(i, products):
        expected = pool[i % POOL_BATCHES][2]
        return sum(not check.ok(p, e) for p, e in zip(products, expected))

    def flip_bit(products):
        return [products[0] ^ 1] + products[1:]

    loop = ClosedLoop(recorder, flip_bit if args.corrupt else None)
    loop.measure(args.seconds, run, verify)
    result["loop"] = loop
    rss = peak_rss_mb()
    if backend == "software-mp":
        rss += sum(peak_rss_mb(pid) for pid in engine.backend.worker_pids)
        result["layers_extra"] = {
            "engine.mp.respawns": engine.backend.pool_generation - 1,
            "engine.mp.fault_events": len(engine.backend.fault_report.events),
        }
        result["extra"] = {"workers": len(engine.backend.worker_pids)}
    result["peak_rss_mb"] = rss
    engine.close()

    if args.trace and backend == "software":
        # Modeled time, reported beside the measured seconds: one
        # paper-size product on the cycle model (the second call, once
        # its plan and accelerator are built).
        recorder.phase = "after"
        hw = Engine(backend="hw-model")
        a0, b0 = pool[0][0][0], pool[0][1][0]
        hw_bad = hw.multiply(a0, b0) != a0 * b0
        start = time.monotonic()
        hw_bad += hw.multiply(a0, b0) != a0 * b0
        result["layers_extra"] = {
            "hw.model.s": time.monotonic() - start,
            "hw.ssa_product.cycles": hw.last_report.total_cycles,
        }
        result["warmup"]["attempted"] += 2
        result["warmup"]["failed"] += hw_bad


def run_rlwe(args, recorder, result) -> None:
    rng = random.Random(args.seed)
    pool = [
        [[rng.randrange(RLWE_T) for _ in range(RLWE_N)] for _ in range(3 * BATCH)]
        for _ in range(POOL_BATCHES)
    ]
    scheme_seed = rng.getrandbits(64)

    from repro.engine import Engine
    from repro.fhe.rlwe import RLWEParams, default_rns_primes

    params = RLWEParams(
        n=RLWE_N,
        t=RLWE_T,
        noise_bound=RLWE_NOISE,
        rns_primes=default_rns_primes(RLWE_N, RLWE_T, RLWE_PRIMES),
    )
    scheme = Engine().fhe(params, rng=random.Random(scheme_seed))
    keys = scheme.keygen()
    expected = {}

    def run(i):
        # encrypt -> (m1·m2) -> mod-switch -> ·m3 -> decrypt, 8 at once.
        cts = scheme.encrypt_many(keys, pool[i % POOL_BATCHES])
        c1, c2, c3 = cts[:BATCH], cts[BATCH : 2 * BATCH], cts[2 * BATCH :]
        p12 = scheme.multiply_many(keys.relin, list(zip(c1, c2)))
        low = scheme.mod_switch_many(p12 + c3)
        out = scheme.multiply_many(keys.relin, list(zip(low[:BATCH], low[BATCH:])))
        return out, scheme.decrypt_many(keys, out)

    def verify(i, out):
        cts, plains = out
        k = i % POOL_BATCHES
        if k not in expected:
            m = pool[k]
            expected[k] = [
                oracles.depth2_plain(m[j], m[BATCH + j], m[2 * BATCH + j], RLWE_T)
                for j in range(BATCH)
            ]
        bad = sum(
            not np.array_equal(np.asarray(p, dtype=np.int64), e)
            for p, e in zip(plains, expected[k])
        )
        if scheme.noise_budget(keys, cts[0]) <= 0:
            bad = max(bad, 1)
        return bad

    warm_bad = verify(0, run(0))
    result["setup_end"] = time.monotonic()
    result["warmup"] = {"attempted": BATCH, "failed": warm_bad}
    if args.setup_only:
        return

    def wrong_coefficient(out):
        cts, plains = out
        plains = [list(p) for p in plains]
        plains[0][0] = (plains[0][0] + 1) % RLWE_T
        return cts, plains

    loop = ClosedLoop(recorder, wrong_coefficient if args.corrupt else None)
    loop.measure(args.seconds, run, verify)
    result["loop"] = loop
    result["peak_rss_mb"] = peak_rss_mb()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()

    recorder = tracing.Recorder()
    if args.trace and args.workload != "serve-mixed":
        # serve-mixed is traced inside its server (serve_launcher.py).
        tracing.install(recorder)
    result = {"env": environment(args.seed), "layers_extra": {}}

    if args.workload == "serve-mixed":
        import loadgen

        loadgen.run(args, recorder, result)
    elif args.workload in ("ssa-paper", "ssa-mp"):
        run_ssa(args, recorder, result)
    elif args.workload == "rlwe-depth2":
        run_rlwe(args, recorder, result)
    else:
        raise SystemExit(f"unknown workload {args.workload!r}")

    out = {
        "env": result["env"],
        # serve-mixed times its own set-up: server launch to warm-up answers.
        "setup_s": (
            result["setup_s"] if "setup_s" in result
            else result["setup_end"] - args.launched
        ),
        "warmup": result["warmup"],
    }
    if not args.setup_only:
        out.update(report(args, recorder, result))
    print(json.dumps(out))
    return 0


def report(args, recorder, result) -> dict:
    """End-to-end metrics, failure counts and, when traced, layers."""
    if "serve" in result:
        serve = result["serve"]
        metrics, attempted = serve["metrics"], serve["attempted"]
        failed, mismatched = serve["failed"], serve["mismatched"]
        extra = serve["extra"]
    else:
        loop = result["loop"]
        metrics = loop.metrics()
        extra = loop.extra()
        extra.update(result.get("extra", {}))
        attempted, failed, mismatched = loop.attempted, loop.failed, loop.mismatched
    metrics["peak_rss_mb"] = result["peak_rss_mb"]
    warm = result["warmup"]
    out = {
        "metrics": metrics,
        "extra": extra,
        "attempted": attempted + warm["attempted"],
        "failed": failed + warm["failed"],
        "mismatched": mismatched + warm["failed"],
    }
    if args.trace:
        rows = result.get("server_spans")
        if rows is None:
            rows = recorder.export()
            layers = tracing.layer_metrics(rows, lambda row: row[5] == "timed")
        else:
            window = result["window"]
            layers = tracing.layer_metrics(
                rows, lambda row: window[0] <= row[2] and row[3] <= window[1]
            )
        covered = layers.pop("_covered_s")
        timed = extra.get("timed_s")
        layers["trace.coverage"] = covered / timed if timed else 0.0
        layers.update(result["layers_extra"])
        out["layers"] = layers
        out["missing_wrappers"] = tracing.check_wrappers(rows, args.workload)
        TRACES.mkdir(exist_ok=True)
        path = TRACES / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"columns": tracing.COLUMNS, "spans": rows}))
        out["trace_file"] = str(path.relative_to(HERE.parent))
    return out


if __name__ == "__main__":
    sys.exit(main())
