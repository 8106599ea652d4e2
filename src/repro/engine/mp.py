"""Worker-process side of the ``software-mp`` compute backend.

The parent process never ships engines, plans or multipliers across
the pipe — only an :class:`~repro.engine.config.ExecutionConfig` (at
pool construction) and per-shard payloads (SSA parameters and operand
pairs).  Each worker rebuilds its own :class:`~repro.engine.Engine`
from the pickled config in :func:`initialize_worker` and keeps it for
the life of the pool, so its :class:`~repro.ntt.plan.PlanCache` warms
once — the first shard of a given size pays the plan build, every
later shard hits the cache.

Everything in this module must stay importable at top level (picklable
by reference) for both the ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import os
from typing import List, Sequence, Tuple

from repro.engine.config import ExecutionConfig

#: The per-process engine, built once by :func:`initialize_worker`.
_WORKER_ENGINE = None


def initialize_worker(config: ExecutionConfig) -> None:
    """Pool initializer: rebuild the engine from the pickled config.

    The worker always runs the plain ``software`` backend at
    ``workers=1`` — sharding recursion (a worker spawning its own
    process pool) is structurally impossible, and a worker starts no
    batch-axis threads, so the pool's processes never oversubscribe
    the CPUs it was sized for.
    """
    global _WORKER_ENGINE
    from repro.engine.core import Engine

    _WORKER_ENGINE = Engine(
        config=config.with_overrides(workers=1), backend="software"
    )


def _engine():
    """The worker's engine (tolerates pools built without initializer)."""
    global _WORKER_ENGINE
    if _WORKER_ENGINE is None:  # pragma: no cover - defensive
        initialize_worker(ExecutionConfig())
    return _WORKER_ENGINE


def apply_inject(inject: str) -> None:
    """Execute a fault-injection directive inside the worker.

    ``""`` is the hot path (no fault armed).  ``"kill"`` SIGKILLs this
    worker before it computes — the parent sees a broken pool exactly
    as it would for an OOM kill.  ``"delay:<s>"`` sleeps, modelling a
    hung shard.  Directives arrive in the task payload (never via
    shared state), so they behave identically under ``fork`` and
    ``spawn`` and cannot leak into replayed shards.
    """
    if not inject:
        return
    if inject == "kill":
        import signal

        os.kill(os.getpid(), signal.SIGKILL)
    elif inject.startswith("delay:"):
        import time

        time.sleep(float(inject.split(":", 1)[1]))
    else:  # pragma: no cover - parent validates specs before shipping
        raise ValueError(f"unknown inject directive {inject!r}")


def multiply_shard(
    params, pairs: Sequence[Tuple[int, int]], inject: str = ""
) -> List[int]:
    """One contiguous shard of a ``multiply_many`` batch.

    ``params`` is the :class:`~repro.ssa.encode.SSAParameters` the
    *parent* sized for the full batch, so every shard uses the same
    transform length regardless of which operands it drew.  The shard
    runs through the worker engine's ``software`` backend, so the
    config's ``batch_chunk`` (the peak-working-set bound on one SSA
    pass) is honored by the same code path the parent uses.
    """
    apply_inject(inject)
    engine = _engine()
    products, _ = engine.backend.multiply_many(
        engine, engine.multiplier(params=params), list(pairs)
    )
    return products


def probe(block_s: float = 0.0) -> int:
    """Liveness probe: returns this worker's PID.

    ``block_s`` briefly occupies the worker before answering, so a
    health check submitting one probe per worker can force *distinct*
    workers to answer (an idle worker picks up the next queued probe
    instead of the one already blocking) — that is how
    :class:`~repro.engine.backends.SoftwareMPBackend` declares a pool
    healthy only once every worker has answered.
    """
    if block_s > 0:
        import time

        time.sleep(block_s)
    return os.getpid()


__all__ = [
    "initialize_worker",
    "apply_inject",
    "multiply_shard",
    "probe",
]
