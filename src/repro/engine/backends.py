"""Compute backends: where an :class:`~repro.engine.Engine` runs its math.

The paper describes one machine with two faces — the *values* an
FFT/SSA pipeline produces and the *cycles* the FPGA spends producing
them.  A :class:`ComputeBackend` is that seam made explicit: the engine
routes every transform and every multiplication through its backend,
and the two stock backends answer with identical bits:

``software``
    The staged vectorized executor (:mod:`repro.ntt.staged`) and the
    functional :class:`repro.ssa.SSAMultiplier`.  Fast; no timing.

``hw-model``
    The transaction-level accelerator model
    (:class:`repro.hw.accelerator.HEAccelerator`): the same values —
    from the same staged executor on ``fast`` fidelity, through the
    beat-exact FFT-64 datapath on ``datapath`` — plus cycle-accurate
    :class:`~repro.hw.accelerator.MultiplyReport` /
    :class:`~repro.hw.accelerator.DistributedFFTReport` timing from
    :func:`repro.hw.accelerator.plan_schedule`.  Accelerator instances
    are cached per plan, so repeated workloads reuse them.

``software-mp``
    The software executor sharded over a persistent
    :class:`concurrent.futures.ProcessPoolExecutor`: the batch axis of
    ``multiply_many`` and of ``(batch, n)`` transforms is split into
    balanced contiguous shards (:func:`repro.ssa.multiplier.split_batch`),
    each worker rebuilds its engine from the pickled
    :class:`~repro.engine.config.ExecutionConfig` and warms its own
    plan cache once, and results are reassembled in submission order —
    bit-identical to ``software``.  Transform batches of ≥1 MiB move
    through :mod:`multiprocessing.shared_memory` blocks instead of
    being pickled row-shard by row-shard.

Third-party backends register through :func:`register_backend` and are
then constructible by name: ``Engine(backend="my-backend")``.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.engine.config import CACHE_OFF, ExecutionConfig
from repro.ntt.plan import TransformPlan
from repro.ntt.staged import execute_plan_batch, execute_plan_inverse_batch
from repro.ssa.encode import SSAParameters
from repro.ssa.multiplier import SSAMultiplier

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.engine.core import Engine

try:  # Python 3.8+: typing.Protocol
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - ancient interpreters
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


SOFTWARE = "software"
SOFTWARE_MP = "software-mp"
HW_MODEL = "hw-model"


@runtime_checkable
class ComputeBackend(Protocol):
    """The contract an engine backend fulfils.

    A backend is a *value producer*: given a plan and operands it must
    return bit-exact GF(p) results.  It may additionally produce timing
    reports, which the engine surfaces via ``Engine.last_report``.
    """

    name: str

    def transform(
        self,
        engine: "Engine",
        plan: TransformPlan,
        values: np.ndarray,
        inverse: bool = False,
    ) -> np.ndarray:
        """Row-wise (inverse) NTT of a ``(batch, n)`` uint64 matrix."""
        ...

    def multiply(
        self, engine: "Engine", multiplier: SSAMultiplier, a: int, b: int
    ) -> Tuple[int, Optional[object]]:
        """One exact product; returns ``(product, report-or-None)``."""
        ...

    def multiply_many(
        self,
        engine: "Engine",
        multiplier: SSAMultiplier,
        pairs: List[Tuple[int, int]],
    ) -> Tuple[List[int], Optional[object]]:
        """Batched exact products; ``(products, report-or-None)``."""
        ...


_REGISTRY: Dict[str, Callable[[], ComputeBackend]] = {}


def register_backend(
    name: str, factory: Callable[[], ComputeBackend]
) -> None:
    """Register a backend constructor under ``name``.

    Registered names are accepted by ``Engine(backend=...)``.  Names
    are unique; re-registering an existing name replaces it (useful for
    tests injecting instrumented backends).
    """
    if not name:
        raise ValueError("backend name must be non-empty")
    _REGISTRY[name] = factory


def available_backends() -> Tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def create_backend(name: str) -> ComputeBackend:
    """Instantiate a registered backend by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; expected one of "
            f"{available_backends()}"
        ) from None
    return factory()


class SoftwareBackend:
    """Staged vectorized execution — values only, maximum throughput."""

    name = SOFTWARE

    def transform(
        self,
        engine: "Engine",
        plan: TransformPlan,
        values: np.ndarray,
        inverse: bool = False,
    ) -> np.ndarray:
        if inverse:
            return execute_plan_inverse_batch(values, plan)
        return execute_plan_batch(values, plan)

    def multiply(
        self, engine: "Engine", multiplier: SSAMultiplier, a: int, b: int
    ) -> Tuple[int, Optional[object]]:
        return multiplier.multiply(a, b), None

    def multiply_many(
        self,
        engine: "Engine",
        multiplier: SSAMultiplier,
        pairs: List[Tuple[int, int]],
    ) -> Tuple[List[int], Optional[object]]:
        chunk = engine.config.batch_chunk
        if chunk is None or len(pairs) <= chunk:
            return multiplier.multiply_many(pairs), None
        products: List[int] = []
        for start in range(0, len(pairs), chunk):
            products.extend(
                multiplier.multiply_many(pairs[start : start + chunk])
            )
        return products, None


class SoftwareMPBackend(SoftwareBackend):
    """Batch-axis sharding over a *supervised* worker-process pool.

    The throughput backend for multi-core hosts: big batches of SSA
    products and big ``(batch, n)`` transforms are split into balanced
    contiguous shards (:func:`repro.ssa.multiplier.split_batch`), each
    shard runs on one worker of a lazily created
    :class:`~concurrent.futures.ProcessPoolExecutor`, and the ordered
    reassembly is bit-identical to :class:`SoftwareBackend`.

    Workers are initialized exactly once per pool with the engine's
    pickled :class:`~repro.engine.config.ExecutionConfig`
    (:func:`repro.engine.mp.initialize_worker`); their engines — and
    therefore their plan caches — persist across shards.  Single
    products, one-row transforms and batches below
    :attr:`min_shard_items` run inline on the parent's software path,
    where the inter-process copy would cost more than it buys.

    **Supervision.**  Shards are pure functions of ``(config,
    payload)``, so every recovery below is bit-identical to the clean
    run by construction:

    - a worker death mid-shard (``BrokenProcessPool``) rebuilds the
      pool — re-warming worker engines via ``initialize_worker`` and
      re-probing every worker — and replays *only the lost shards*;
    - after :attr:`~repro.engine.config.ExecutionConfig.max_respawns`
      pool rebuilds within one batch the backend stops trusting the
      pool and degrades gracefully: the remaining shards run in-process
      on the ``software`` path and the batch still succeeds;
    - a shard blocking past the ambient
      :class:`~repro.engine.resilience.Deadline` (threaded down from
      ``JobScheduler.submit(timeout=...)``) raises
      :class:`~repro.engine.resilience.JobTimeoutError` and abandons
      the hung pool (it respawns lazily on next use);
    - with ``ExecutionConfig(verify_shards=True)`` the first
      row/product of every shard is spot-checked against the
      in-process oracle and any mismatch raises
      :class:`~repro.engine.resilience.ShardVerificationError` instead
      of reassembling silently.

    Every event lands in :attr:`fault_report`
    (a cumulative :class:`~repro.engine.resilience.FaultReport`);
    :attr:`worker_pids` exposes the PIDs that answered the most recent
    health probe, so tests can assert a respawn actually happened.
    """

    name = SOFTWARE_MP
    #: Below this many batch items the work runs inline (IPC floor).
    min_shard_items = 2
    #: Operand matrices at least this large move through
    #: :mod:`multiprocessing.shared_memory` instead of being pickled
    #: row-shard by row-shard (``transform_shard_shm``): the parent
    #: publishes one input and one output block, workers attach by name
    #: and write their rows in place.  Below the threshold the pickle
    #: path is cheaper than two block creations.
    min_shm_bytes = 1 << 20
    #: Probe block times per health-check round (seconds).  Rounds
    #: escalate until every worker has answered with a distinct PID;
    #: short early rounds keep the common case cheap.
    probe_schedule = (0.0, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0)
    #: Hard ceiling on one probe answer (covers ``spawn`` cold starts).
    probe_timeout_s = 60.0

    def __init__(
        self,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
    ):
        import itertools
        import threading

        from repro.engine.resilience import FaultReport

        self._workers_override = workers
        self._start_method = start_method
        self._pool = None
        self._pool_key: Optional[Tuple[ExecutionConfig, int]] = None
        # Guards pool create/replace/close: the engine is reachable
        # from both the caller's thread and a scheduler's dispatcher
        # thread, and an unsynchronized double-create would orphan a
        # pool (its workers never shut down).
        self._pool_lock = threading.Lock()
        #: Cumulative log of crashes, respawns, timeouts, degradations
        #: and verification failures over this backend's lifetime.
        self.fault_report = FaultReport()
        self._worker_pids: Tuple[int, ...] = ()
        # Pool generation: bumped on every (re)build and baked into
        # shared-memory block names, so a respawned pool can never
        # collide with a block a dying worker still has attached.
        self._generation = 0
        self._shm_seq = itertools.count()

    # -- pool management ---------------------------------------------------

    def workers(self, engine: "Engine") -> int:
        """Resolved worker count: override > config.workers > cpu_count."""
        if self._workers_override is not None:
            return self._workers_override
        if engine.config.workers is not None:
            return engine.config.workers
        return os.cpu_count() or 1

    @property
    def worker_pids(self) -> Tuple[int, ...]:
        """PIDs that answered the most recent pool health probe."""
        return self._worker_pids

    @property
    def pool_generation(self) -> int:
        """How many pools this backend has built (respawns included)."""
        return self._generation

    def _pool_for(self, engine: "Engine"):
        """The persistent pool for ``engine``'s config (built lazily).

        Rebuilt only if the same backend instance is reused by an
        engine with a different config — workers must mirror the
        config they were initialized with.  A freshly built pool is
        only returned once every worker answered the liveness probe
        (:meth:`_health_check`).
        """
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        from repro.engine import mp as mp_workers

        key = (engine.config, self.workers(engine))
        with self._pool_lock:
            if self._pool is not None and self._pool_key == key:
                return self._pool
            stale, self._pool = self._pool, None
            self._pool_key = None
            if stale is not None:
                stale.shutdown(wait=True)
            mp_context = None
            if self._start_method is not None:
                mp_context = multiprocessing.get_context(
                    self._start_method
                )
            pool = ProcessPoolExecutor(
                max_workers=key[1],
                mp_context=mp_context,
                initializer=mp_workers.initialize_worker,
                initargs=(engine.config,),
            )
            self._generation += 1
            try:
                self._health_check(pool, key[1])
            except BaseException:
                pool.shutdown(wait=False, cancel_futures=True)
                raise
            self._pool = pool
            self._pool_key = key
            return self._pool

    def _health_check(self, pool, workers: int) -> None:
        """Probe until every worker answers (distinct PIDs) or give up.

        Each round submits one :func:`repro.engine.mp.probe` per
        worker; rounds escalate the probe's block time so busy/slow
        workers are forced to pick up their own probe rather than one
        fast worker answering them all.  Raises
        :class:`~repro.engine.resilience.WorkerCrashError` when a
        worker dies probing or never answers.
        """
        from concurrent.futures import TimeoutError as FuturesTimeout
        from concurrent.futures.process import BrokenProcessPool

        from repro.engine import mp as mp_workers
        from repro.engine.resilience import WorkerCrashError

        pids: set = set()
        for block_s in self.probe_schedule:
            futures = [
                pool.submit(mp_workers.probe, block_s)
                for _ in range(workers)
            ]
            try:
                for future in futures:
                    pids.add(future.result(timeout=self.probe_timeout_s))
            except (BrokenProcessPool, FuturesTimeout, OSError) as error:
                raise WorkerCrashError(
                    f"worker died answering the liveness probe: {error!r}"
                ) from error
            if len(pids) >= workers:
                self._worker_pids = tuple(sorted(pids))
                return
        raise WorkerCrashError(
            f"only {len(pids)} of {workers} workers answered the "
            f"liveness probe"
        )

    def _discard_pool(self) -> None:
        """Abandon the current pool without waiting (crash/timeout path).

        ``shutdown(wait=False, cancel_futures=True)`` returns at once
        even when a worker is hung or dead; the next
        :meth:`_pool_for` call builds a fresh generation.
        """
        with self._pool_lock:
            stale, self._pool = self._pool, None
            self._pool_key = None
        if stale is not None:
            stale.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the worker pool down (it restarts lazily on next use)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
            self._pool_key = None
        if pool is not None:
            pool.shutdown(wait=True)

    def clear(self) -> None:
        """``Engine.clear_cache`` hook: drop the pool with the caches."""
        self.close()

    # -- sharded execution -------------------------------------------------

    def _shards(self, engine: "Engine", count: int) -> List[slice]:
        from repro.ssa.multiplier import split_batch

        return split_batch(count, self.workers(engine))

    def _run_supervised(
        self,
        engine: "Engine",
        count: int,
        submit_one,
        inline_one,
        describe: str,
    ) -> Dict[int, object]:
        """Run ``count`` shards through the pool under supervision.

        ``submit_one(pool, index)`` submits shard ``index`` and returns
        its future; ``inline_one(index)`` computes the same shard
        in-process (the degradation path).  Returns ``{index: result}``
        for every shard, replaying crashed shards on a respawned pool
        up to ``engine.config.max_respawns`` times, then degrading
        in-process.  Raises
        :class:`~repro.engine.resilience.JobTimeoutError` when the
        ambient deadline expires mid-wait (the hung pool is abandoned,
        not joined).
        """
        from concurrent.futures import TimeoutError as FuturesTimeout
        from concurrent.futures.process import BrokenProcessPool

        from repro.engine.resilience import (
            JobTimeoutError,
            WorkerCrashError,
            current_deadline,
        )

        deadline = current_deadline()
        pending = list(range(count))
        results: Dict[int, object] = {}
        respawns = 0
        while pending:
            if respawns > engine.config.max_respawns:
                self.fault_report.record(
                    "degraded",
                    f"{describe}: max_respawns="
                    f"{engine.config.max_respawns} exhausted; running "
                    f"{len(pending)} shard(s) in-process on the "
                    f"software path",
                    shards=tuple(pending),
                )
                for index in pending:
                    results[index] = inline_one(index)
                return results
            try:
                pool = self._pool_for(engine)
                futures = {i: submit_one(pool, i) for i in pending}
            except (
                BrokenProcessPool,
                WorkerCrashError,
                OSError,
            ) as error:
                respawns += 1
                self.fault_report.record(
                    "respawn",
                    f"{describe}: pool unusable at submit "
                    f"({error!r}); rebuild {respawns}",
                    shards=tuple(pending),
                )
                self._discard_pool()
                continue
            failed: List[int] = []
            crash: Optional[BaseException] = None
            for index, future in futures.items():
                timeout = None
                if deadline is not None:
                    timeout = max(deadline.remaining(), 0.0)
                try:
                    results[index] = future.result(timeout=timeout)
                except FuturesTimeout:
                    self.fault_report.record(
                        "timeout",
                        f"{describe}: shard {index} missed its "
                        f"deadline; abandoning the pool",
                        shards=(index,),
                    )
                    self._discard_pool()
                    raise JobTimeoutError(
                        f"{describe}: shard {index} exceeded its "
                        f"deadline (hung workers abandoned; the pool "
                        f"respawns lazily)"
                    ) from None
                except (
                    BrokenProcessPool,
                    BrokenPipeError,
                    EOFError,
                ) as error:
                    crash = error
                    failed.append(index)
            if failed:
                respawns += 1
                self.fault_report.record(
                    "worker-crash",
                    f"{describe}: worker died mid-shard ({crash!r})",
                    shards=tuple(failed),
                )
                self.fault_report.record(
                    "respawn",
                    f"{describe}: rebuild {respawns}, replaying "
                    f"{len(failed)} shard(s)",
                    shards=tuple(failed),
                )
                self._discard_pool()
            pending = failed
        return results

    def transform(
        self,
        engine: "Engine",
        plan: TransformPlan,
        values: np.ndarray,
        inverse: bool = False,
    ) -> np.ndarray:
        batch = values.shape[0]
        if self.workers(engine) <= 1 or batch < self.min_shard_items:
            return super().transform(engine, plan, values, inverse=inverse)
        values = np.ascontiguousarray(values, dtype=np.uint64)
        shards = self._shards(engine, batch)
        if values.nbytes >= self.min_shm_bytes:
            return self._transform_shm(engine, plan, values, inverse, shards)
        from repro.engine import faultinject
        from repro.engine import mp as mp_workers

        def submit_one(pool, index: int):
            return pool.submit(
                mp_workers.transform_shard,
                plan.n,
                plan.radices,
                values[shards[index]],
                inverse,
                plan.twist,
                plan.ordering,
                faultinject.directive_for_shard(index),
            )

        def inline_one(index: int):
            return SoftwareBackend.transform(
                self, engine, plan, values[shards[index]], inverse=inverse
            )

        results = self._run_supervised(
            engine, len(shards), submit_one, inline_one, "transform"
        )
        pieces = []
        for index in range(len(shards)):
            rows_out = results[index]
            if faultinject.should_corrupt(index):
                rows_out = faultinject.corrupt_result(rows_out)
            pieces.append(rows_out)
        result = np.concatenate(pieces, axis=0)
        if engine.config.verify_shards:
            self._verify_transform_shards(
                engine, plan, values, inverse, shards, result
            )
        return result

    def _create_block(self, nbytes: int):
        """A parent-owned shared-memory block with a generation-tagged
        name (``repro-mp-<pid>-g<generation>-<seq>``).

        Deterministic names make leak checks trivial (anything matching
        ``repro-mp-*`` in ``/dev/shm`` after a run is a bug) and the
        generation tag guarantees a respawned pool's fresh blocks never
        reuse a name some dying worker of a previous generation still
        has attached.
        """
        from multiprocessing import shared_memory

        while True:
            name = (
                f"repro-mp-{os.getpid()}-g{self._generation}"
                f"-{next(self._shm_seq)}"
            )
            try:
                return shared_memory.SharedMemory(
                    name=name, create=True, size=nbytes
                )
            except FileExistsError:  # pragma: no cover - stale leftover
                continue

    def _transform_shm(
        self,
        engine: "Engine",
        plan: TransformPlan,
        values: np.ndarray,
        inverse: bool,
        shards: List[slice],
    ) -> np.ndarray:
        """Shared-memory row transfer: pickle names and bounds, not rows.

        The parent owns both blocks (created here, unlinked in the
        ``finally`` below — no exception, injected kill or timeout can
        strand a ``/dev/shm`` block); workers attach by name, transform
        their row range and write results straight into the output
        block, so a ``(batch, 64K)`` operand matrix crosses the process
        boundary zero times.  The blocks outlive any pool respawn
        inside this call, so replayed shards simply overwrite their own
        rows.
        """
        from repro.engine import faultinject
        from repro.engine import mp as mp_workers

        shm_in = self._create_block(values.nbytes)
        try:
            shm_out = self._create_block(values.nbytes)
            try:
                src = np.ndarray(
                    values.shape, dtype=np.uint64, buffer=shm_in.buf
                )
                np.copyto(src, values)
                out = np.ndarray(
                    values.shape, dtype=np.uint64, buffer=shm_out.buf
                )

                def submit_one(pool, index: int):
                    rows = shards[index]
                    return pool.submit(
                        mp_workers.transform_shard_shm,
                        shm_in.name,
                        shm_out.name,
                        values.shape,
                        rows.start,
                        rows.stop,
                        plan.n,
                        plan.radices,
                        inverse,
                        plan.twist,
                        plan.ordering,
                        faultinject.directive_for_shard(index),
                    )

                def inline_one(index: int):
                    rows = shards[index]
                    out[rows] = SoftwareBackend.transform(
                        self, engine, plan, values[rows], inverse=inverse
                    )
                    return rows.start, rows.stop

                self._run_supervised(
                    engine,
                    len(shards),
                    submit_one,
                    inline_one,
                    "transform-shm",
                )
                for index, rows in enumerate(shards):
                    if faultinject.should_corrupt(index):
                        out[rows.start, 0] ^= np.uint64(1)
                if engine.config.verify_shards:
                    self._verify_transform_shards(
                        engine, plan, values, inverse, shards, out
                    )
                result = out.copy()
            finally:
                shm_out.close()
                shm_out.unlink()
        finally:
            shm_in.close()
            shm_in.unlink()
        return result

    def _verify_transform_shards(
        self,
        engine: "Engine",
        plan: TransformPlan,
        values: np.ndarray,
        inverse: bool,
        shards: List[slice],
        result: np.ndarray,
    ) -> None:
        """Spot-check the first row of every shard against the oracle."""
        from repro.engine.resilience import ShardVerificationError

        for index, rows in enumerate(shards):
            first = rows.start
            oracle = SoftwareBackend.transform(
                self,
                engine,
                plan,
                values[first : first + 1],
                inverse=inverse,
            )
            if not np.array_equal(result[first : first + 1], oracle):
                self.fault_report.record(
                    "shard-corruption",
                    f"transform shard {index} (row {first}) failed its "
                    f"in-process oracle spot-check",
                    shards=(index,),
                )
                raise ShardVerificationError(
                    f"transform shard {index} (row {first}) does not "
                    f"match the in-process oracle — corrupted shard "
                    f"result detected before reassembly was trusted"
                )

    def multiply_many(
        self,
        engine: "Engine",
        multiplier: SSAMultiplier,
        pairs: List[Tuple[int, int]],
    ) -> Tuple[List[int], Optional[object]]:
        if self.workers(engine) <= 1 or len(pairs) < self.min_shard_items:
            return super().multiply_many(engine, multiplier, pairs)
        from repro.engine import faultinject
        from repro.engine import mp as mp_workers

        shards = self._shards(engine, len(pairs))

        def submit_one(pool, index: int):
            return pool.submit(
                mp_workers.multiply_shard,
                multiplier.params,
                pairs[shards[index]],
                faultinject.directive_for_shard(index),
            )

        def inline_one(index: int):
            products, _ = SoftwareBackend.multiply_many(
                self, engine, multiplier, pairs[shards[index]]
            )
            return products

        results = self._run_supervised(
            engine, len(shards), submit_one, inline_one, "multiply_many"
        )
        products: List[int] = []
        for index in range(len(shards)):
            shard_products = results[index]
            if faultinject.should_corrupt(index):
                shard_products = faultinject.corrupt_result(shard_products)
            products.extend(shard_products)
        if engine.config.verify_shards:
            self._verify_multiply_shards(
                multiplier, pairs, shards, products
            )
        return products, None

    def _verify_multiply_shards(
        self,
        multiplier: SSAMultiplier,
        pairs: List[Tuple[int, int]],
        shards: List[slice],
        products: List[int],
    ) -> None:
        """Spot-check the first product of every shard in-process."""
        from repro.engine.resilience import ShardVerificationError

        for index, shard in enumerate(shards):
            a, b = pairs[shard.start]
            if products[shard.start] != multiplier.multiply(a, b):
                self.fault_report.record(
                    "shard-corruption",
                    f"multiply shard {index} (pair {shard.start}) "
                    f"failed its in-process oracle spot-check",
                    shards=(index,),
                )
                raise ShardVerificationError(
                    f"multiply shard {index} (pair {shard.start}) does "
                    f"not match the in-process oracle — corrupted shard "
                    f"result detected before reassembly was trusted"
                )


class HardwareModelBackend:
    """The cycle-counted accelerator model as an engine backend.

    Values are bit-identical to :class:`SoftwareBackend` — on ``fast``
    fidelity they come from the same staged executor — and every call
    additionally produces the paper's timing reports.  One
    :class:`~repro.hw.accelerator.HEAccelerator` is built per transform
    plan and reused across calls, so its per-PE state (activity
    ledgers, banked buffers) persists for the life of the engine and is
    not safe to share between threads.
    """

    name = HW_MODEL
    #: The shift-only FFT unit supports radices 8..64, so the smallest
    #: transform the model can execute is 8 points; Engine.multiplier
    #: floors its sizing here.
    min_transform_size = 8

    def __init__(self) -> None:
        self._accelerators: Dict[object, object] = {}

    def clear(self) -> None:
        """Drop the accelerator pool (called by ``Engine.clear_cache``).

        The pool is keyed by plan identity, so it must be emptied
        whenever the engine drops its plan cache — otherwise every
        evicted plan would stay alive through its pooled accelerator.
        """
        self._accelerators.clear()

    # -- accelerator pool -------------------------------------------------

    def accelerator(
        self,
        engine: "Engine",
        plan: Optional[TransformPlan] = None,
        params: Optional[SSAParameters] = None,
    ):
        """The pooled :class:`HEAccelerator` for ``(plan, params)``.

        ``plan`` defaults to the paper's 64K plan (built in the
        engine's cache) and ``params`` to the matching SSA sizing.  The
        architecture is the engine config's
        :class:`~repro.arch.spec.ArchSpec`, with the PE count shrunk to
        the largest power of two the plan's smallest stage can still be
        partitioned over.
        """
        from repro.hw.accelerator import HEAccelerator
        from repro.ssa.encode import PAPER_PARAMETERS

        if plan is None:
            if params is None:
                params = PAPER_PARAMETERS
            plan = engine.plan(params.transform_size)
        elif params is None:
            params = engine._params_for_plan(plan)
        arch = engine.config.arch
        pes = self._compatible_pes(arch.pes, plan)
        if pes != arch.pes:
            arch = arch.with_overrides(
                pes=pes, name=f"{arch.name}-shrunk-p{pes}"
            )
        key = (id(plan), params, arch)
        accelerator = self._accelerators.get(key)
        if accelerator is None:
            accelerator = HEAccelerator(
                plan=plan,
                params=params,
                arch=arch,
            )
            # With cache="off" every plan() call yields a fresh object,
            # so an id-keyed pool would grow without bound — skip it.
            if engine.config.cache != CACHE_OFF:
                self._accelerators[key] = accelerator
        return accelerator

    @staticmethod
    def _compatible_pes(pes: int, plan: TransformPlan) -> int:
        """Largest power of two ≤ ``pes`` dividing every stage's work."""
        while pes > 1 and any(
            count % pes for _, count in plan.sub_transform_counts()
        ):
            pes //= 2
        return pes

    # -- backend contract -------------------------------------------------

    def transform(
        self,
        engine: "Engine",
        plan: TransformPlan,
        values: np.ndarray,
        inverse: bool = False,
    ) -> np.ndarray:
        accelerator = self.accelerator(
            engine, plan, engine._params_for_plan(plan)
        )
        # One batched call: the whole row batch streams through the
        # cycle model's macro-pipeline (no per-row Python loop on the
        # fast fidelity).
        out, report = accelerator.distributed_ntt_batch(
            values, inverse=inverse, fidelity=engine.config.fidelity
        )
        engine._record_report(
            report.per_row if report.rows == 1 else report
        )
        return out

    def multiply(
        self, engine: "Engine", multiplier: SSAMultiplier, a: int, b: int
    ) -> Tuple[int, Optional[object]]:
        accelerator = self.accelerator(
            engine, multiplier.plan, multiplier.params
        )
        product, report = accelerator.multiply(
            a, b, fidelity=engine.config.fidelity
        )
        return product, report

    def multiply_many(
        self,
        engine: "Engine",
        multiplier: SSAMultiplier,
        pairs: List[Tuple[int, int]],
    ) -> Tuple[List[int], Optional[object]]:
        accelerator = self.accelerator(
            engine, multiplier.plan, multiplier.params
        )
        products: List[int] = []
        reports = []
        for a, b in pairs:
            product, report = accelerator.multiply(
                a, b, fidelity=engine.config.fidelity
            )
            products.append(product)
            reports.append(report)
        return products, reports


register_backend(SOFTWARE, SoftwareBackend)
register_backend(SOFTWARE_MP, SoftwareMPBackend)
register_backend(HW_MODEL, HardwareModelBackend)

__all__ = [
    "ComputeBackend",
    "SoftwareBackend",
    "SoftwareMPBackend",
    "HardwareModelBackend",
    "register_backend",
    "available_backends",
    "create_backend",
    "SOFTWARE",
    "SOFTWARE_MP",
    "HW_MODEL",
]
