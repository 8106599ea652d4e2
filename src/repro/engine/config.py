"""Execution configuration for the :class:`repro.engine.Engine` façade.

One frozen :class:`ExecutionConfig` fixes every knob that used to be
hand-threaded through the stack (PE counts, clock period, batch
chunking, worker pools) so the whole field→NTT→SSA→FHE→hw pipeline is
configured in exactly one place.  The NTT stage kernel is not one of
them: the host picks it (``compiled`` when its C library loads, else
``limb-matmul``; see :mod:`repro.ntt.kernels`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
        every request.  ``True`` / ``False`` are accepted as aliases
        for ``"private"`` / ``"off"``.
    arch:
        Full declarative architecture description
        (:class:`repro.arch.spec.ArchSpec`) for the ``hw-model``
        backend.  When given it is authoritative: ``pes`` and
        ``clock_ns`` are overwritten from it so every reader of the
        config sees one consistent configuration.  When ``None`` the
        two scalars act as back-compat shorthands and a paper-shaped
        spec is built from them.
    pes:
        Processing-element count for the ``hw-model`` backend (power of
        two).  Backends shrink this automatically for transforms too
        small to partition over the full count.
    clock_ns:
        Clock period of the ``hw-model`` cycle model (5 ns = 200 MHz,
        the paper's Stratix V operating point).
    fidelity:
        ``hw-model`` simulation fidelity: ``"fast"`` (values from the
        staged executor) or ``"datapath"`` (every beat through the
        banked memories and the shift-only FFT-64 unit); both report
        the same analytic cycle schedule.
    coefficient_bits:
        SSA digit width used when the engine sizes a multiplier from an
        operand bit length (the paper uses 24).
    workers:
        Worker-process count for the ``software-mp`` backend (the
        batch-axis sharding pool).  ``None`` asks for one worker per
        CPU (``os.cpu_count()``); other backends ignore it.
    max_respawns:
        How many times the ``software-mp`` backend rebuilds its worker
        pool *within one batch* after a worker crash before it stops
        retrying the pool and degrades gracefully: the remaining shards
        run in-process on the ``software`` path (bit-identical by
        construction), the batch still succeeds, and the degradation is
        recorded in the backend's
        :class:`~repro.engine.resilience.FaultReport`.
    verify_shards:
        ``software-mp`` spot-check: after reassembling a sharded batch,
        re-run the first row/product of every shard on the in-process
        ``software`` oracle and raise
        :class:`~repro.engine.resilience.ShardVerificationError` on any
        mismatch instead of returning silently wrong values.  Costs one
        extra row/product per shard; off by default.

    A config is hashable and pickle-stable: a config shipped to a
    ``software-mp`` worker process reconstructs the *same* engine, and
    ``pickle.loads(pickle.dumps(cfg)) == cfg`` always holds.
    """

    batch_chunk: Optional[int] = None
    cache: object = CACHE_PRIVATE
    arch: Optional[ArchSpec] = None
    pes: int = 4
    clock_ns: float = 5.0
    fidelity: str = "fast"
    coefficient_bits: int = 24
    workers: Optional[int] = None
    max_respawns: int = 2
    verify_shards: bool = False

    def __post_init__(self) -> None:
        cache = self.cache
        if cache is True:
            cache = CACHE_PRIVATE
        elif cache is False:
            cache = CACHE_OFF
        if cache not in _CACHE_MODES:
            raise ValueError(
                f"cache must be one of {_CACHE_MODES} (or True/False), "
                f"got {self.cache!r}"
            )
        object.__setattr__(self, "cache", cache)
        if self.batch_chunk is not None and self.batch_chunk < 1:
            raise ValueError("batch_chunk must be a positive integer")
        if self.arch is not None:
            # The spec is authoritative: mirror its scalars so every
            # reader of config.pes / config.clock_ns stays consistent.
            object.__setattr__(self, "pes", self.arch.pes)
            object.__setattr__(self, "clock_ns", self.arch.clock_ns)
        if self.pes < 1 or self.pes & (self.pes - 1):
            raise ValueError("pes must be a power of two")
        if self.fidelity not in ("fast", "datapath"):
            raise ValueError(
                f"fidelity must be 'fast' or 'datapath', got {self.fidelity!r}"
            )
        if self.coefficient_bits < 1:
            raise ValueError("coefficient_bits must be positive")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be a positive integer or None")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")

    @classmethod
    def default(cls, **overrides: object) -> "ExecutionConfig":
        """The stock configuration; ``ExecutionConfig(**overrides)``."""
        return cls(**overrides)  # type: ignore[arg-type]

    def with_overrides(self, **overrides: object) -> "ExecutionConfig":
        """A copy with the given fields replaced (validation re-run)."""
        return replace(self, **overrides)  # type: ignore[arg-type]

    def resolved_arch(self) -> ArchSpec:
        """The effective architecture description.

        The explicit ``arch`` when set; otherwise a paper-shaped spec
        carrying the ``pes``/``clock_ns`` shorthands.
        """
        if self.arch is not None:
            return self.arch
        spec = ArchSpec.paper_default()
        if self.pes != spec.pes or self.clock_ns != spec.clock_ns:
            spec = spec.with_overrides(
                pes=self.pes,
                clock_ns=self.clock_ns,
                name=f"hypercube-p{self.pes}",
            )
        return spec


__all__ = [
    "ExecutionConfig",
    "CACHE_PRIVATE",
    "CACHE_SHARED",
    "CACHE_OFF",
]
