"""``repro.engine`` — the configurable façade over the whole stack.

One :class:`Engine` object is the front door to everything the library
does: mixed-radix NTT rings (:meth:`Engine.ring`), Schönhage–Strassen
multiplication (:meth:`Engine.multiply`), FHE contexts
(:meth:`Engine.fhe`) and the cycle-counted hardware model
(``Engine(backend="hw-model")``).  Configuration lives in one frozen
:class:`ExecutionConfig`; plans live in a per-engine
:class:`~repro.ntt.plan.PlanCache`; compute runs on one of the three
stock backends or on any
:class:`~repro.engine.backends.ComputeBackend` instance passed in.

Quickstart::

    from repro.engine import Engine

    eng = Engine()                       # software backend
    assert eng.multiply(a, b) == a * b   # SSA, sized automatically
    ring = eng.ring(4096)                # (n,) or (batch, n) polymorphic
    spec = ring.forward(rows)

    hw = Engine(backend="hw-model")      # same values, plus timing
    product = hw.multiply(a, b)
    print(hw.last_report.render())       # ≈122 us at the paper's point
"""

from repro.engine.backends import (
    HW_MODEL,
    SOFTWARE,
    SOFTWARE_MP,
    ComputeBackend,
    HardwareModelBackend,
    SoftwareBackend,
    SoftwareMPBackend,
)
from repro.engine.config import (
    CACHE_OFF,
    CACHE_PRIVATE,
    CACHE_SHARED,
    ExecutionConfig,
)
from repro.engine.core import Engine, EngineMultiplier, default_engine
from repro.engine.jobs import JobHandle, JobScheduler, as_completed
from repro.engine.resilience import (
    NO_RETRY,
    Deadline,
    FaultEvent,
    FaultReport,
    JobTimeoutError,
    RetryPolicy,
    RuntimeFaultError,
    ShardVerificationError,
    WorkerCrashError,
    current_deadline,
    deadline_scope,
)
from repro.engine.ring import Ring

__all__ = [
    "Engine",
    "EngineMultiplier",
    "ExecutionConfig",
    "Ring",
    "JobScheduler",
    "JobHandle",
    "as_completed",
    "ComputeBackend",
    "SoftwareBackend",
    "SoftwareMPBackend",
    "HardwareModelBackend",
    "default_engine",
    "SOFTWARE",
    "SOFTWARE_MP",
    "HW_MODEL",
    "CACHE_PRIVATE",
    "CACHE_SHARED",
    "CACHE_OFF",
    "RetryPolicy",
    "NO_RETRY",
    "Deadline",
    "deadline_scope",
    "current_deadline",
    "RuntimeFaultError",
    "WorkerCrashError",
    "JobTimeoutError",
    "ShardVerificationError",
    "FaultEvent",
    "FaultReport",
]
