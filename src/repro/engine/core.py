"""The :class:`Engine` façade — one configurable front door to the stack.

The paper describes a single coherent machine: one FFT-64 datapath
serving SSA big-integer multiplication for homomorphic-encryption
workloads.  :class:`Engine` is that machine's software face:

>>> from repro.engine import Engine, ExecutionConfig
>>> eng = Engine(config=ExecutionConfig(batch_chunk=16))
>>> eng.multiply(3, 5)                      # SSA big-int product
15
>>> ring = eng.ring(64)                     # cyclic/negacyclic algebra
>>> spectrum = ring.forward(vector)         # (n,) or (batch, n) alike
>>> hw = Engine(backend="hw-model")         # same values + cycle model
>>> product = hw.multiply(a, b)
>>> hw.last_report.render()                 # the Section V phase timing

An engine owns:

- a **per-engine plan cache** (:class:`repro.ntt.plan.PlanCache`) —
  plans, twiddles and kernel tables built once per engine rather than
  leaked into process-global state;
- a pool of :class:`~repro.ssa.SSAMultiplier` instances keyed by
  operand sizing, all pinned to the engine's plan cache;
- a :class:`~repro.engine.backends.ComputeBackend` that actually runs
  transforms and multiplications — ``"software"`` for throughput
  (big product batches split over threads), ``"software-mp"`` to shard
  batches over worker processes, ``"hw-model"`` for the
  cycle-counted accelerator model, or any backend instance passed in.
"""

from __future__ import annotations

import random
import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.backends import (
    ComputeBackend,
    HardwareModelBackend,
    SoftwareBackend,
    SoftwareMPBackend,
)
from repro.engine.config import (
    CACHE_OFF,
    CACHE_SHARED,
    ExecutionConfig,
)
from repro.engine.ring import Ring
from repro.ntt.kernels import default_kernel
from repro.ntt.plan import (
    DEFAULT_PLAN_CACHE,
    PlanCache,
    PlanCacheStats,
    TransformPlan,
    decimated_companion,
)
from repro.ssa.encode import PAPER_PARAMETERS, SSAParameters, params_for_bits
from repro.ssa.multiplier import SSAMultiplier

_STOCK_BACKENDS = {
    cls.name: cls
    for cls in (SoftwareBackend, SoftwareMPBackend, HardwareModelBackend)
}


class Engine:
    """One configurable entry point to the field→NTT→SSA→FHE→hw stack.

    Parameters
    ----------
    config:
        An :class:`~repro.engine.config.ExecutionConfig`; defaults to
        ``ExecutionConfig()``.
    backend:
        A stock backend name (``"software"``, ``"software-mp"``,
        ``"hw-model"``) or a ready
        :class:`~repro.engine.backends.ComputeBackend` instance.
    """

    def __init__(
        self,
        config: Optional[ExecutionConfig] = None,
        backend: Union[str, ComputeBackend] = "software",
    ):
        self.config = config if config is not None else ExecutionConfig()
        if isinstance(backend, str):
            if backend not in _STOCK_BACKENDS:
                raise ValueError(
                    f"unknown backend {backend!r}; expected one of "
                    f"{tuple(sorted(_STOCK_BACKENDS))}"
                )
            backend = _STOCK_BACKENDS[backend]()
        self.backend: ComputeBackend = backend
        if self.config.cache == CACHE_SHARED:
            self._plan_cache: Optional[PlanCache] = DEFAULT_PLAN_CACHE
        elif self.config.cache == CACHE_OFF:
            self._plan_cache = None
        else:
            self._plan_cache = PlanCache()
        self._rings: Dict[Tuple[int, Optional[Tuple[int, ...]]], Ring] = {}
        self._multipliers: Dict[SSAParameters, SSAMultiplier] = {}
        self._scheduler = None  # lazily built by scheduler()
        # Per-thread report slots: the jobs dispatcher must never
        # clobber (or inherit) the caller thread's report.  This keeps
        # *reports* from cross-talking; it does NOT make concurrent
        # compute on one engine safe — see last_report's docstring.
        self._thread_reports = threading.local()

    @property
    def last_report(self) -> Optional[object]:
        """Timing artifact of this thread's most recent backend call.

        ``None`` for backends that do not produce one (``software``).
        The slot is per-thread so a completed job's report
        (:attr:`repro.engine.jobs.JobHandle.report`) is exactly the
        job's own, never the caller's.  Note this isolation covers
        reports only: running compute on an engine from two threads at
        once (e.g. synchronous calls while jobs are in flight) is not
        supported — caches and the hw-model's per-PE state (activity
        ledgers, banked buffers) are unsynchronized.  Route concurrent
        work through the job queue.  The ``software`` backend's own
        pool threads are not such callers: each runs one slice of the
        calling thread's product batch and never calls back into the
        engine.
        """
        return getattr(self._thread_reports, "value", None)

    @last_report.setter
    def last_report(self, report: Optional[object]) -> None:
        self._thread_reports.value = report

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Engine(backend={self.backend.name!r}, "
            f"kernel={default_kernel()!r}, cache={self.config.cache!r})"
        )

    # -- plans and rings ---------------------------------------------------

    def plan(
        self,
        n: int,
        radices: Optional[Sequence[int]] = None,
        omega: Optional[int] = None,
        twist: str = "",
    ) -> TransformPlan:
        """An ``n``-point natural-ordering plan from the engine's cache,
        on the host's stage kernel.

        ``twist=TWIST_NEGACYCLIC`` yields the fused negacyclic variant
        (see :meth:`repro.ntt.plan.PlanCache.plan_for_size`); the
        permutation-free pair of any plan is
        :func:`~repro.ntt.plan.decimated_companion`.
        """
        cache = self._plan_cache
        if cache is None:  # cache="off": build fresh, keep nothing
            cache = PlanCache()
        return cache.plan_for_size(n, radices, omega, twist=twist)

    def ring(
        self, n: int, radices: Optional[Sequence[int]] = None
    ) -> Ring:
        """The :class:`~repro.engine.ring.Ring` of transform length ``n``.

        Rings are cached per ``(n, radices)``; every transform they run
        dispatches through the engine's backend.
        """
        key = (n, tuple(radices) if radices is not None else None)
        ring = self._rings.get(key)
        if ring is None:
            ring = Ring(self, self.plan(n, radices))
            self._rings[key] = ring
        return ring

    # -- SSA multiplication ------------------------------------------------

    def multiplier(
        self,
        bits: Optional[int] = None,
        params: Optional[SSAParameters] = None,
    ) -> SSAMultiplier:
        """A pooled :class:`SSAMultiplier` for the given sizing.

        Exactly one of ``bits`` (operand bit length, cut into the
        paper's 24-bit digits and rounded up to the next power-of-two
        coefficient count) or ``params`` (explicit
        :class:`~repro.ssa.SSAParameters`) must be given.  The
        multiplier's plan comes from the engine's cache.
        """
        if (bits is None) == (params is None):
            raise ValueError("give exactly one of bits= or params=")
        if params is None:
            assert bits is not None
            # Backends may require a minimum transform length (the
            # hw-model's shift-only FFT unit starts at radix 8).
            params = params_for_bits(
                bits,
                min_coefficients=getattr(
                    self.backend, "min_transform_size", 2
                )
                // 2,
            )
        multiplier = self._multipliers.get(params)
        if multiplier is None:
            multiplier = SSAMultiplier(
                params=params, plan=self.plan(params.transform_size)
            )
            self._multipliers[params] = multiplier
        return multiplier

    def multiply(
        self,
        a: Union[int, Sequence[int]],
        b: Union[int, Sequence[int]],
    ) -> Union[int, List[int]]:
        """Exact SSA product(s) through the engine's backend.

        ``multiply(int, int)`` returns one product, run as a batch of
        one; two equal-length sequences return the elementwise products
        as a list (one batched SSA pass on the software backend, chunked
        per ``config.batch_chunk``).  Any timing artifact the backend
        produced is available as :attr:`last_report` afterwards.
        """
        if isinstance(a, (int, np.integer)) != isinstance(
            b, (int, np.integer)
        ):
            raise TypeError("multiply takes two ints or two sequences")
        if isinstance(a, (int, np.integer)):
            product, _ = self.multiply_with_report(a, b)
            return product
        left = [int(x) for x in a]
        right = [int(y) for y in b]
        if len(left) != len(right):
            raise ValueError("operand sequences must have equal length")
        pairs = list(zip(left, right))
        if not pairs:
            self._record_report(None)
            return []
        bits = max(max(x.bit_length(), y.bit_length(), 1) for x, y in pairs)
        products, reports = self.backend.multiply_many(
            self, self.multiplier(bits=bits), pairs
        )
        self._record_report(reports)
        return products

    def multiply_with_report(
        self, a: int, b: int
    ) -> Tuple[int, Optional[object]]:
        """One product plus the backend's timing report (or ``None``)."""
        (product,) = self.multiply([int(a)], [int(b)])
        reports = self.last_report
        report = None if reports is None else reports[0]
        self._record_report(report)
        return product, report

    # -- jobs --------------------------------------------------------------

    def scheduler(self):
        """The engine's lazily created :class:`~repro.engine.jobs.JobScheduler`.

        One scheduler per engine: jobs submitted through
        :meth:`submit` / :meth:`map` all share its FIFO dispatcher
        thread (and therefore execute in submission order against this
        engine).  Shut down via :meth:`close`.
        """
        from repro.engine.jobs import JobScheduler

        if self._scheduler is None or not self._scheduler.active:
            self._scheduler = JobScheduler(self)
        return self._scheduler

    def submit(self, job):
        """Queue a job (see :mod:`repro.engine.jobs`); returns its handle."""
        return self.scheduler().submit(job)

    def map(self, op, items, chunk=None, **op_kwargs):
        """Chunked job map over ``items`` — ordered, flattened results.

        Delegates to :meth:`repro.engine.jobs.JobScheduler.map` on the
        engine's scheduler.
        """
        return self.scheduler().map(op, items, chunk, **op_kwargs)

    def close(self) -> None:
        """Release the engine's asynchronous resources (idempotent).

        Drains and stops the job scheduler (if one was created) and
        shuts down any pool the backend holds (the ``software``
        backend's batch-axis threads, the ``software-mp`` process
        pool).  The engine itself stays usable for synchronous calls;
        schedulers and pools are rebuilt lazily on next use.
        """
        if self._scheduler is not None:
            self._scheduler.shutdown(wait=True)
            self._scheduler = None
        close_backend = getattr(self.backend, "close", None)
        if close_backend is not None:
            close_backend()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- FHE contexts ------------------------------------------------------

    def fhe(self, params=None, rng: Optional[random.Random] = None):
        """An FHE context bound to this engine.

        ``params`` selects the scheme by type:

        - :class:`repro.fhe.params.FHEParams` (default: ``TOY``) → a
          :class:`repro.fhe.DGHV` instance whose ciphertext products
          run through :meth:`multiply` (and therefore through the
          engine's backend — on ``hw-model`` every homomorphic AND is
          cycle-counted);
        - :class:`repro.fhe.rlwe.RLWEParams` → an
          :class:`repro.fhe.RLWE` instance whose negacyclic ring
          products use the engine's *fused, decimated* negacyclic plan
          (from the engine's cache) — ψ-twist and untwist folded into
          the stage constants and the digit-reversal gathers skipped:
          RLWE spectra are internal to the scheme, so the
          permutation-free pair is safe end to end.  The scheme is also
          bound to this engine's compute backend, so every ring product
          (encryption masks, plaintext products, tensor/relinearization
          passes) is cycle-counted on ``hw-model``; on ``software`` and
          ``software-mp`` alike it runs on the caller's thread.

        Both return types implement the
        :class:`repro.fhe.ops.HEScheme` protocol.  ``rng`` is the
        scheme's randomness: a seeded ``random.Random`` makes
        reproducible keys and ciphertexts, and ``None`` draws from
        ``random.SystemRandom``.
        """
        from repro.fhe.dghv import DGHV
        from repro.fhe.params import FHEParams, TOY
        from repro.fhe.rlwe import RLWE, RLWEParams
        from repro.ntt.plan import TWIST_NEGACYCLIC

        if params is None:
            params = TOY
        if isinstance(params, RLWEParams):
            return RLWE(
                params,
                rng=rng,
                plan=decimated_companion(
                    self.plan(params.n, twist=TWIST_NEGACYCLIC)
                ),
                engine=self,
            )
        if isinstance(params, FHEParams):
            return DGHV(
                params, multiplier=EngineMultiplier(self), rng=rng
            )
        raise TypeError(
            f"params must be FHEParams or RLWEParams, got {type(params)!r}"
        )

    # -- hardware model ----------------------------------------------------

    def hardware(
        self,
        plan: Optional[TransformPlan] = None,
        params: Optional[SSAParameters] = None,
    ):
        """The pooled :class:`~repro.hw.accelerator.HEAccelerator`.

        Only meaningful on the ``hw-model`` backend (raises otherwise).
        Defaults to the paper's 64K plan and SSA sizing.
        """
        if not isinstance(self.backend, HardwareModelBackend):
            raise ValueError(
                "hardware() requires the 'hw-model' backend; this engine "
                f"runs {self.backend.name!r}"
            )
        return self.backend.accelerator(self, plan, params)

    # -- cache management --------------------------------------------------

    def cache_stats(self) -> PlanCacheStats:
        """Stats of the engine's plan cache (empty when ``cache="off"``)."""
        if self._plan_cache is None:
            return PlanCacheStats(size=0, hits=0, misses=0)
        return self._plan_cache.stats()

    def clear_cache(self) -> None:
        """Drop the engine's cached plans, rings and multipliers.

        Also clears whatever the backend pooled against those plans
        (the hw-model's accelerator pool), so no dropped plan stays
        pinned through a backend reference.
        """
        if self._plan_cache is not None:
            self._plan_cache.clear()
        self._rings.clear()
        self._multipliers.clear()
        clear_backend = getattr(self.backend, "clear", None)
        if clear_backend is not None:
            clear_backend()

    # -- backend plumbing --------------------------------------------------

    def _transform(
        self,
        plan: TransformPlan,
        values: np.ndarray,
        inverse: bool = False,
    ) -> np.ndarray:
        """Backend dispatch for :class:`Ring` (``(batch, n)`` matrices)."""
        return self.backend.transform(self, plan, values, inverse=inverse)

    def _record_report(self, report: Optional[object]) -> None:
        self.last_report = report

    def _params_for_plan(self, plan: TransformPlan) -> SSAParameters:
        """SSA sizing matching ``plan`` (for accelerator construction)."""
        return SSAParameters(
            coefficient_bits=PAPER_PARAMETERS.coefficient_bits,
            operand_coefficients=plan.n // 2,
        )


class EngineMultiplier:
    """A multiplier *strategy* delegating to an engine.

    Fulfils the pluggable-multiplier contract of :class:`repro.fhe.DGHV`
    (a ``(int, int) -> int`` callable) and additionally exposes
    ``multiply_many`` so :meth:`repro.fhe.DGHV.multiply_many` batches
    whole gate layers through one SSA pass.
    """

    def __init__(self, engine: Engine):
        self.engine = engine

    def __call__(self, a: int, b: int) -> int:
        return self.engine.multiply(a, b)  # type: ignore[return-value]

    def multiply(self, a: int, b: int) -> int:
        return self(a, b)

    def multiply_many(
        self, pairs: Sequence[Tuple[int, int]]
    ) -> List[int]:
        pairs = list(pairs)
        return self.engine.multiply(  # type: ignore[return-value]
            [a for a, _ in pairs], [b for _, b in pairs]
        )


_default_engine: Optional[Engine] = None


def default_engine() -> Engine:
    """The lazily-built process-default engine.

    Backs the deprecated top-level convenience functions
    (:func:`repro.ssa_multiply`, :func:`repro.plan_for_size`, ...).  It
    shares the process-wide plan cache, so plans it builds are the same
    objects legacy module-level calls see.  Constructed on first use.
    """
    global _default_engine
    if _default_engine is None:
        _default_engine = Engine(
            config=ExecutionConfig(cache=CACHE_SHARED)
        )
    return _default_engine


__all__ = ["Engine", "EngineMultiplier", "default_engine"]
