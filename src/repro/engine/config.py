"""Execution configuration for the :class:`repro.engine.Engine` façade.

One frozen :class:`ExecutionConfig` fixes every knob that used to be
hand-threaded through the stack (the modeled machine, batch chunking,
worker pools) so the whole field→NTT→SSA→FHE→hw pipeline is configured
in exactly one place.  The NTT stage kernel is not one of
them: the host picks it (``compiled`` when its C library loads, else
``limb-matmul``; see :mod:`repro.ntt.kernels`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.arch.spec import ArchSpec

#: Allowed values of :attr:`ExecutionConfig.cache`.
CACHE_PRIVATE = "private"
CACHE_SHARED = "shared"
CACHE_OFF = "off"
_CACHE_MODES = (CACHE_PRIVATE, CACHE_SHARED, CACHE_OFF)


@dataclass(frozen=True)
class ExecutionConfig:
    """Every tunable of an :class:`repro.engine.Engine`, in one object.

    Parameters
    ----------
    batch_chunk:
        Upper bound on the number of operand pairs fed to one batched
        SSA pass.  ``None`` runs any batch in a single pass; a positive
        value bounds the peak working-set of very large batches.
    cache:
        Plan-cache policy.  ``"private"`` (default) gives the engine
        its own :class:`repro.ntt.plan.PlanCache`; ``"shared"`` uses the
        process-wide default cache (what the legacy module-level API
        uses, so plans are shared with it); ``"off"`` rebuilds plans on
        every request.
    arch:
        The machine the ``hw-model`` backend models: one declarative
        :class:`repro.arch.spec.ArchSpec` (PE count, clock, per-PE
        units, exchange, dot-product and carry provisioning), the
        paper's 4-PE, 200 MHz operating point by default.  The backend
        shrinks its PE count for transforms too small to partition
        over all of them.
    fidelity:
        ``hw-model`` simulation fidelity: ``"fast"`` (values from the
        staged executor) or ``"datapath"`` (every beat through the
        banked memories and the shift-only FFT-64 unit); both report
        the same analytic cycle schedule.
    workers:
        Batch-axis width: the most threads a ``software`` product
        batch splits over (when the ``compiled`` stage kernel runs it
        and the batch is big enough), or the worker-process count of
        the ``software-mp`` pool.  ``None`` asks for the CPUs this process
        may run on (its affinity set, else ``os.cpu_count()``);
        ``hw-model`` ignores it.
    max_respawns:
        How many times the ``software-mp`` backend rebuilds its worker
        pool *within one batch* after a worker crash before it stops
        retrying the pool and degrades gracefully: the remaining shards
        run in-process on the ``software`` path (bit-identical by
        construction), the batch still succeeds, and the degradation is
        recorded in the backend's
        :class:`~repro.engine.resilience.FaultReport`.
    verify_shards:
        ``software-mp`` spot-check: after reassembling a sharded product
        batch, re-run the first product of every shard on the
        in-process ``software`` oracle and raise
        :class:`~repro.engine.resilience.ShardVerificationError` on any
        mismatch instead of returning silently wrong values.  Costs one
        extra product per shard; off by default.

    A config is hashable and pickle-stable: a config shipped to a
    ``software-mp`` worker process reconstructs the *same* engine, and
    ``pickle.loads(pickle.dumps(cfg)) == cfg`` always holds.
    """

    batch_chunk: Optional[int] = None
    cache: str = CACHE_PRIVATE
    arch: ArchSpec = field(default_factory=ArchSpec.paper_default)
    fidelity: str = "fast"
    workers: Optional[int] = None
    max_respawns: int = 2
    verify_shards: bool = False

    def __post_init__(self) -> None:
        if self.cache not in _CACHE_MODES:
            raise ValueError(
                f"cache must be one of {_CACHE_MODES}, got {self.cache!r}"
            )
        if self.batch_chunk is not None and self.batch_chunk < 1:
            raise ValueError("batch_chunk must be a positive integer")
        if self.fidelity not in ("fast", "datapath"):
            raise ValueError(
                f"fidelity must be 'fast' or 'datapath', got {self.fidelity!r}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be a positive integer or None")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")

    def with_overrides(self, **overrides: object) -> "ExecutionConfig":
        """A copy with the given fields replaced (validation re-run)."""
        return replace(self, **overrides)  # type: ignore[arg-type]


__all__ = [
    "ExecutionConfig",
    "CACHE_PRIVATE",
    "CACHE_SHARED",
    "CACHE_OFF",
]
