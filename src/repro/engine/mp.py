"""Worker-process side of the ``software-mp`` compute backend.

The parent process never ships engines, plans or multipliers across
the pipe — only an :class:`~repro.engine.config.ExecutionConfig` (at
pool construction) and per-shard payloads (operand pairs or coefficient
rows).  Each worker rebuilds its own :class:`~repro.engine.Engine` from
the pickled config in :func:`initialize_worker` and keeps it for the
life of the pool, so its :class:`~repro.ntt.plan.PlanCache` warms once
— the first shard of a given shape pays the plan build, every later
shard hits the cache.

Large transform batches skip the pipe entirely: the parent places the
operand matrix in a :mod:`multiprocessing.shared_memory` block, workers
attach by name (:func:`transform_shard_shm`), transform their row range
in place and write results into a second parent-owned block — only
block names and row bounds are pickled, never ``(batch, 64K)`` rows.

Everything in this module must stay importable at top level (picklable
by reference) for both the ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple

import numpy as np

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


def _shard_plan(
    n: int,
    radices: Optional[Tuple[int, ...]],
    twist: str,
    ordering: str,
):
    from repro.ntt.plan import ORDER_DECIMATED, decimated_companion

    plan = _engine().plan(n, radices, twist=twist)
    return decimated_companion(plan) if ordering == ORDER_DECIMATED else plan


def transform_shard(
    n: int,
    radices: Optional[Tuple[int, ...]],
    rows: np.ndarray,
    inverse: bool,
    twist: str = "",
    ordering: str = "",
    inject: str = "",
) -> np.ndarray:
    """One contiguous row-shard of a ``(batch, n)`` transform.

    ``twist`` and ``ordering`` travel with the shard so a fused and/or
    decimated parent plan is rebuilt as the *same* flavor of plan in
    the worker — the constants are derived deterministically, so shard
    results stay bit-identical to the parent's in-process path
    (decimated shards emit decimated spectra, exactly like the parent
    would).
    """
    from repro.ntt.staged import (
        execute_plan_batch,
        execute_plan_inverse_batch,
    )

    apply_inject(inject)
    plan = _shard_plan(n, radices, twist, ordering)
    if inverse:
        return execute_plan_inverse_batch(rows, plan)
    return execute_plan_batch(rows, plan)


def _attach_shm(name: str):
    """Attach to a parent-owned shared-memory block, untracked.

    The parent creates and unlinks every block, so a worker must not
    register its attach with the resource tracker: on Python < 3.13
    every attach registers unconditionally (bpo-39959), and N workers
    attaching the same block would race the shared tracker with N
    unregisters for one entry.  Pool workers run tasks serially on
    their main thread, so briefly stubbing the register hook is safe.
    """
    from multiprocessing import resource_tracker, shared_memory

    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


def transform_shard_shm(
    in_name: str,
    out_name: str,
    shape: Tuple[int, int],
    start: int,
    stop: int,
    n: int,
    radices: Optional[Tuple[int, ...]],
    inverse: bool,
    twist: str = "",
    ordering: str = "",
    inject: str = "",
) -> Tuple[int, int]:
    """Shared-memory variant of :func:`transform_shard`.

    The parent placed the full ``shape`` operand matrix in the
    ``in_name`` block and preallocated an equal-shape ``out_name``
    block; this worker transforms rows ``[start, stop)`` and writes
    them straight into the output block.  Only the two block names and
    the row range cross the pipe — the ``(batch, n)`` payload itself is
    never pickled.
    """
    from repro.ntt.staged import (
        execute_plan_batch,
        execute_plan_inverse_batch,
    )

    apply_inject(inject)
    plan = _shard_plan(n, radices, twist, ordering)
    shm_in = _attach_shm(in_name)
    shm_out = _attach_shm(out_name)
    try:
        values = np.ndarray(shape, dtype=np.uint64, buffer=shm_in.buf)
        out = np.ndarray(shape, dtype=np.uint64, buffer=shm_out.buf)
        rows = values[start:stop]
        if inverse:
            out[start:stop] = execute_plan_inverse_batch(rows, plan)
        else:
            out[start:stop] = execute_plan_batch(rows, plan)
    finally:
        shm_in.close()
        shm_out.close()
    return start, stop


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
    "transform_shard",
    "transform_shard_shm",
    "probe",
]
