"""Compute backends: where an :class:`~repro.engine.Engine` runs its math.

The paper describes one machine with two faces — the *values* an
FFT/SSA pipeline produces and the *cycles* the FPGA spends producing
them.  A :class:`ComputeBackend` is that seam made explicit: the engine
routes every transform and every batch of products through its
backend, and the three stock backends answer with identical bits:

``software``
    The staged vectorized executor (:mod:`repro.ntt.staged`) and the
    functional :class:`repro.ssa.SSAMultiplier`.  Fast; no timing.
    Big batches of products split over a persistent thread pool on
    the GIL-free ``compiled`` kernels, one thread per usable CPU
    (:meth:`SoftwareBackend.workers`, which sizes ``software-mp`` too).

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
    SSA products sharded over a persistent
    :class:`concurrent.futures.ProcessPoolExecutor`: the batch axis of
    ``multiply_many`` is split into balanced contiguous shards
    (:func:`repro.ssa.multiplier.split_batch`), each worker rebuilds
    its engine from the pickled
    :class:`~repro.engine.config.ExecutionConfig` and warms its own
    plan cache once, and products are reassembled in submission order
    — bit-identical to ``software``.  ``(batch, n)`` ring transforms
    run on the caller's thread, exactly as on ``software``.

A single product is a batch of one: the contract is ``name``,
:meth:`~ComputeBackend.transform` and
:meth:`~ComputeBackend.multiply_many`, and any object that has them
serves an engine when passed as ``Engine(backend=instance)``.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple
from typing import Protocol, runtime_checkable

import numpy as np

from repro.engine.config import CACHE_OFF, ExecutionConfig
from repro.ntt.kernels import KERNEL_COMPILED
from repro.ntt.plan import TransformPlan
from repro.ntt.staged import execute_plan_batch, execute_plan_inverse_batch
from repro.ssa.encode import SSAParameters
from repro.ssa.multiplier import SSAMultiplier, split_batch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.engine.core import Engine


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

    def multiply_many(
        self,
        engine: "Engine",
        multiplier: SSAMultiplier,
        pairs: List[Tuple[int, int]],
    ) -> Tuple[List[int], Optional[List[object]]]:
        """Exact products of ``pairs``, in order — every engine product,
        single ones as a batch of one.

        Returns ``(products, reports)``: ``reports`` holds one timing
        report per product, or is ``None`` for a backend that does not
        time its work.
        """
        ...


#: Smallest batch shard a pool thread takes, in transform rows × points
#: (a product counts its two operand rows).  Measured on a 2-CPU host
#: with the ``compiled`` kernel, one batch on two threads against one:
#: product shards of 16,384–65,536 elements ran 1.3–1.8× faster and
#: of 8,192 about even.  The floor stays at 65,536 because only batches
#: of paper-size products (131,072 a pair) have shown an end-to-end
#: gain, on the ``ssa-paper`` loop.
MIN_THREAD_SHARD = 1 << 16


class SoftwareBackend:
    """Staged vectorized execution — values only, maximum throughput.

    The batch axis of ``multiply_many`` is split into balanced
    contiguous shards (:func:`repro.ssa.multiplier.split_batch`): the
    calling thread runs the first and a persistent
    :class:`~concurrent.futures.ThreadPoolExecutor` the rest, which
    overlap because the ``compiled`` stage DFT, multiply-reduce and
    carry are ctypes calls that release the GIL.  Products are
    reassembled in order, bit-identical to one thread.  A batch is
    split only when its plan's stage kernel is ``compiled``
    (``limb-matmul`` already runs multithreaded BLAS), :meth:`workers`
    is above one and every shard holds at least
    :data:`MIN_THREAD_SHARD` elements; otherwise it runs whole on the
    caller's thread, as transforms always do.  Pool threads run only
    :meth:`SSAMultiplier.multiply_many` on their slice, never a
    backend method, so fan-outs cannot nest.  The pool is built on
    first use and shut down by :meth:`close` (``Engine.close()``); the
    next split batch rebuilds it.
    """

    name = SOFTWARE

    def __init__(self) -> None:
        self._threads: Optional[ThreadPoolExecutor] = None
        # Guards pool create/submit/close: close() may come from
        # another thread than the one computing.
        self._threads_lock = threading.Lock()

    def workers(self, engine: "Engine") -> int:
        """Resolved width: ``config.workers``, else the usable CPUs.

        Usable CPUs are the process's affinity set, so a run pinned to
        one CPU (``taskset -c 0``, a cpuset) gets width one.  The same
        width sizes ``software-mp``'s process pool.
        """
        if engine.config.workers is not None:
            return engine.config.workers
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity call on this platform
            return os.cpu_count() or 1

    def _threads_for(self, engine: "Engine", plan: TransformPlan) -> int:
        """How many threads a batch on ``plan`` may split over."""
        if plan.kernel != KERNEL_COMPILED:
            return 1
        return self.workers(engine)

    def _multiply_split(
        self,
        engine: "Engine",
        multiplier: SSAMultiplier,
        pairs: List[Tuple[int, int]],
    ) -> List[int]:
        """``multiplier.multiply_many(pairs)``, split over threads.

        The caller's thread runs the first shard and the pool the rest;
        one shard means no pool at all.  Every shard finishes before a
        shard's exception reaches the caller, so no partial result is
        returned and no shard outlives the call.
        """
        plan = multiplier.convolution_plan
        threads = self._threads_for(engine, plan)
        width = min(threads, len(pairs) * 2 * plan.n // MIN_THREAD_SHARD)
        shards = split_batch(len(pairs), max(width, 1))
        futures = []
        if len(shards) > 1:
            with self._threads_lock:
                if self._threads is None:
                    self._threads = ThreadPoolExecutor(
                        threads - 1, thread_name_prefix="repro-software"
                    )
                futures = [
                    self._threads.submit(multiplier.multiply_many, pairs[s])
                    for s in shards[1:]
                ]
        try:
            products = multiplier.multiply_many(pairs[shards[0]])
        finally:
            wait(futures)
        for future in futures:
            products.extend(future.result())
        return products

    def close(self) -> None:
        """Shut the thread pool down (it restarts lazily on next use)."""
        with self._threads_lock:
            pool, self._threads = self._threads, None
        if pool is not None:
            pool.shutdown(wait=True)

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

    def multiply_many(
        self,
        engine: "Engine",
        multiplier: SSAMultiplier,
        pairs: List[Tuple[int, int]],
    ) -> Tuple[List[int], Optional[List[object]]]:
        # batch_chunk bounds the pairs in flight across all threads.
        chunk = engine.config.batch_chunk or max(len(pairs), 1)
        products: List[int] = []
        for start in range(0, len(pairs), chunk):
            products.extend(
                self._multiply_split(
                    engine, multiplier, pairs[start : start + chunk]
                )
            )
        return products, None


class SoftwareMPBackend(SoftwareBackend):
    """Product sharding over a *supervised* worker-process pool.

    Batches of SSA products are split into balanced contiguous shards
    (:func:`repro.ssa.multiplier.split_batch`), each shard runs on one
    worker of a lazily created
    :class:`~concurrent.futures.ProcessPoolExecutor`, and the ordered
    reassembly is bit-identical to :class:`SoftwareBackend`.  The pool
    buys crash isolation for big products; ``(batch, n)`` ring
    transforms run on the caller's thread through the inherited
    :meth:`SoftwareBackend.transform` and never build a pool.

    Workers are initialized exactly once per pool with the engine's
    pickled :class:`~repro.engine.config.ExecutionConfig`
    (:func:`repro.engine.mp.initialize_worker`); their engines — and
    therefore their plan caches — persist across shards.  Single
    products and batches below :attr:`min_shard_items` run inline on
    the parent's software path, where the inter-process copy would
    cost more than it buys.

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
    - with ``ExecutionConfig(verify_shards=True)`` the first product
      of every shard is spot-checked against the in-process oracle
      and any mismatch raises
      :class:`~repro.engine.resilience.ShardVerificationError` instead
      of reassembling silently.

    Every event lands in :attr:`fault_report`
    (a cumulative :class:`~repro.engine.resilience.FaultReport`);
    :attr:`worker_pids` exposes the PIDs that answered the most recent
    health probe, so tests can assert a respawn actually happened.
    """

    name = SOFTWARE_MP
    #: Below this many products the batch runs inline (IPC floor).
    min_shard_items = 2
    #: Probe block times per health-check round (seconds).  Rounds
    #: escalate until every worker has answered with a distinct PID;
    #: short early rounds keep the common case cheap.
    probe_schedule = (0.0, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0)
    #: Hard ceiling on one probe answer (covers ``spawn`` cold starts).
    probe_timeout_s = 60.0

    def __init__(self, start_method: Optional[str] = None):
        from repro.engine.resilience import FaultReport

        super().__init__()
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
        self._generation = 0

    # -- pool management ---------------------------------------------------

    def _threads_for(self, engine: "Engine", plan: TransformPlan) -> int:
        """One: the in-process paths (inline batches, degraded shards)
        start no threads, so a later pool build never forks a
        multi-threaded parent."""
        return 1

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
        even when a worker is hung or dead, and the stale pool's
        workers are terminated: a hung one would otherwise run its
        shard to the end, and the interpreter's exit hook joins the
        pool, so the process could not exit before it.  The next
        :meth:`_pool_for` call builds a fresh generation.
        """
        with self._pool_lock:
            stale, self._pool = self._pool, None
            self._pool_key = None
        if stale is None:
            return
        # ProcessPoolExecutor has no public terminate before Python
        # 3.14; its private worker table is read behind a guard, and
        # before shutdown, which drops it.
        workers = list((getattr(stale, "_processes", None) or {}).values())
        stale.shutdown(wait=False, cancel_futures=True)
        for worker in workers:
            worker.terminate()

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

    def multiply_many(
        self,
        engine: "Engine",
        multiplier: SSAMultiplier,
        pairs: List[Tuple[int, int]],
    ) -> Tuple[List[int], Optional[List[object]]]:
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

    def multiply_many(
        self,
        engine: "Engine",
        multiplier: SSAMultiplier,
        pairs: List[Tuple[int, int]],
    ) -> Tuple[List[int], Optional[List[object]]]:
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


__all__ = [
    "ComputeBackend",
    "SoftwareBackend",
    "SoftwareMPBackend",
    "HardwareModelBackend",
    "SOFTWARE",
    "SOFTWARE_MP",
    "HW_MODEL",
]
