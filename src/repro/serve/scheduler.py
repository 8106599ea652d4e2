"""The service scheduler: fair queues, admission control, coalescing.

This is the layer that turns the library-internal FIFO
(:class:`repro.engine.jobs.JobScheduler`) into a *shared* resource many
tenants can safely pound on:

**Per-tenant weighted-fair queues with priorities.**  Each tenant owns
one queue ordered by ``(-priority, arrival)``.  Dispatch picks the
backlogged tenant with the lowest *pass* value (stride scheduling): a
tenant's pass advances by ``items / weight`` for every item it gets
executed, so long-run throughput shares converge to the configured
weights and a hog cannot starve anyone.  A tenant going idle keeps its
pass; on re-arrival it is bumped to the current virtual time, so idling
earns credit for at most one scheduling round, never a burst.

**Admission control and backpressure.**  Queue depth is bounded per
tenant and globally.  A request beyond either bound is *never queued*:
its future resolves immediately to a typed ``REJECTED`` response naming
the exhausted bound.  Overload therefore costs O(caps) memory and the
client learns to back off, instead of the service growing an unbounded
heap of promises.

**Request coalescing.**  When the dispatcher pulls a request, it scans
the queues (in fairness order) for further requests with the same
coalesce key — same op, same plan shape, same parameters — and merges
up to ``max_coalesce_requests`` / ``max_coalesce_items`` of them into
ONE batched ``*_many`` engine pass, splitting results back per request.
Because the dispatcher blocks on the engine while the batch runs,
requests arriving meanwhile pile up and the *next* batch is larger:
batch fill self-tunes to load, which is exactly the paper's
macro-pipelined throughput model driven from software.

Failures ride the PR 7 resilience vertical: jobs run under the
service's :class:`~repro.engine.resilience.RetryPolicy` and deadline,
and each member request's response carries the job's fault events
(worker crashes, respawns, retries, dead-letter).
"""

from __future__ import annotations

import bisect
import itertools
import threading
import time
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.engine.jobs import Job, JobScheduler
from repro.engine.resilience import (
    NO_RETRY,
    JobTimeoutError,
    RetryPolicy,
)
from repro.serve.metrics import MetricsRegistry
from repro.serve.protocol import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    Response,
)

REJECT_TENANT_FULL = "tenant-queue-full"
REJECT_GLOBAL_FULL = "global-queue-full"
REJECT_SHUTDOWN = "shutting-down"


@dataclass(frozen=True)
class ServiceConfig:
    """Every serving-tier knob in one frozen object.

    Parameters
    ----------
    max_queue_per_tenant:
        Queued-request bound per tenant; the ``max_queue_global`` bound
        applies across tenants.  Both are *requests*, the unit clients
        submit and the unit rejections are reported in.
    max_coalesce_requests / max_coalesce_items:
        Per-batch merge budgets: at most this many requests, carrying
        at most this many items, share one engine pass.
    coalesce:
        ``False`` disables merging entirely (every request runs as its
        own engine pass) — the naive baseline the service benchmark
        measures against.
    weights:
        Tenant → weight for the fair scheduler (share of executed
        items); unlisted tenants get ``default_weight``.
    job_timeout_s:
        Deadline for each batched engine job (``None`` = unbounded).
        Per-request ``timeout=`` values additionally expire requests
        still waiting in the queue.
    retry:
        :class:`~repro.engine.resilience.RetryPolicy` for batched jobs
        (retries re-run the *whole* batch; results stay bit-identical).
    """

    max_queue_per_tenant: int = 64
    max_queue_global: int = 256
    max_coalesce_requests: int = 32
    max_coalesce_items: int = 256
    coalesce: bool = True
    default_weight: float = 1.0
    weights: Mapping[str, float] = field(default_factory=dict)
    job_timeout_s: Optional[float] = None
    retry: RetryPolicy = NO_RETRY

    def __post_init__(self) -> None:
        if self.max_queue_per_tenant < 1:
            raise ValueError("max_queue_per_tenant must be >= 1")
        if self.max_queue_global < self.max_queue_per_tenant:
            raise ValueError(
                "max_queue_global must be >= max_queue_per_tenant"
            )
        if self.max_coalesce_requests < 1:
            raise ValueError("max_coalesce_requests must be >= 1")
        if self.max_coalesce_items < 1:
            raise ValueError("max_coalesce_items must be >= 1")
        if self.default_weight <= 0:
            raise ValueError("default_weight must be positive")
        if any(w <= 0 for w in self.weights.values()):
            raise ValueError("tenant weights must be positive")

    def weight_of(self, tenant: str) -> float:
        return float(self.weights.get(tenant, self.default_weight))


@dataclass
class PendingRequest:
    """One admitted request waiting for (or riding) an engine pass."""

    seq: int
    tenant: str
    op: Job
    priority: int
    request_id: Optional[object]
    enqueued_at: float
    deadline_at: Optional[float]  # monotonic stamp, None = no deadline
    future: "Future[Response]" = field(default_factory=Future)
    dequeued_at: float = 0.0

    @property
    def sort_key(self) -> Tuple[int, int]:
        # Higher priority first; FIFO within a priority level.
        return (-self.priority, self.seq)

    @property
    def expired(self) -> bool:
        return (
            self.deadline_at is not None
            and time.monotonic() >= self.deadline_at
        )


class _TenantQueue:
    """One tenant's sorted backlog plus its fair-share pass value."""

    def __init__(self, name: str, weight: float, pass_value: float):
        self.name = name
        self.weight = weight
        #: Stride-scheduling pass: advanced by items/weight on dispatch.
        self.pass_value = pass_value
        #: ``(sort_key, request)`` kept ascending (bisect insertion).
        self.entries: List[Tuple[Tuple[int, int], PendingRequest]] = []

    def push(self, request: PendingRequest) -> None:
        bisect.insort(self.entries, (request.sort_key, request))

    def __len__(self) -> int:
        return len(self.entries)


class ServiceScheduler:
    """Weighted-fair, coalescing dispatch over one `JobScheduler`."""

    def __init__(
        self,
        jobs: JobScheduler,
        config: Optional[ServiceConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.jobs = jobs
        self.config = config if config is not None else ServiceConfig()
        self.metrics = (
            metrics
            if metrics is not None
            else MetricsRegistry(
                batch_item_budget=self.config.max_coalesce_items
            )
        )
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._tenants: Dict[str, _TenantQueue] = {}
        self._seq = itertools.count()
        self._depth = 0
        self._vtime = 0.0
        self._stopping = False
        self._paused = False
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-dispatch", daemon=True
        )
        self._thread.start()

    # -- admission ---------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._depth

    def submit(
        self,
        tenant: str,
        op: Job,
        *,
        priority: int = 0,
        timeout: Optional[float] = None,
        request_id: Optional[object] = None,
    ) -> "Future[Response]":
        """Admit one request; the future resolves to its Response.

        Admission is decided *here, synchronously*: a request that
        exceeds a queue bound (or arrives during shutdown) resolves
        immediately to a typed ``REJECTED`` response and is never
        queued — queue memory stays bounded no matter how hard a
        client pushes.
        """
        now = time.monotonic()
        request = PendingRequest(
            seq=next(self._seq),
            tenant=tenant,
            op=op,
            priority=int(priority),
            request_id=request_id,
            enqueued_at=now,
            deadline_at=(now + timeout) if timeout else None,
        )
        self.metrics.on_submitted(tenant, op.count)
        with self._cond:
            reason = None
            if self._stopping:
                reason = REJECT_SHUTDOWN
            elif self._depth >= self.config.max_queue_global:
                reason = REJECT_GLOBAL_FULL
            else:
                queue = self._tenants.get(tenant)
                if (
                    queue is not None
                    and len(queue) >= self.config.max_queue_per_tenant
                ):
                    reason = REJECT_TENANT_FULL
            if reason is None:
                queue = self._tenants.get(tenant)
                if queue is None:
                    queue = self._tenants[tenant] = _TenantQueue(
                        tenant,
                        self.config.weight_of(tenant),
                        self._vtime,
                    )
                elif not queue.entries:
                    # Re-arriving after idle: credit stops at the
                    # current virtual time (no stored-up burst).
                    queue.pass_value = max(queue.pass_value, self._vtime)
                queue.push(request)
                self._depth += 1
                self.metrics.on_accepted(tenant)
                self._cond.notify_all()
                return request.future
        # Rejected: resolve outside the lock.
        self.metrics.on_rejected(tenant)
        request.future.set_result(
            Response(
                status=STATUS_REJECTED,
                request_id=request_id,
                error=reason,
                error_type="AdmissionError",
            )
        )
        return request.future

    # -- dispatch ----------------------------------------------------------

    def _backlogged(self) -> List[_TenantQueue]:
        """Backlogged tenants in fairness order (locked)."""
        return sorted(
            (q for q in self._tenants.values() if q.entries),
            key=lambda q: (q.pass_value, q.name),
        )

    def _resolve_timeout(self, request: PendingRequest) -> None:
        now = time.monotonic()
        self.metrics.on_dequeued(
            request.tenant, now - request.enqueued_at
        )
        self.metrics.on_failed(
            request.tenant, now - request.enqueued_at, timed_out=True
        )
        request.future.set_result(
            Response(
                status=STATUS_TIMEOUT,
                request_id=request.request_id,
                error="request expired while queued",
                error_type=JobTimeoutError.__name__,
                latency_s=now - request.enqueued_at,
            )
        )

    def _take_batch_locked(self) -> List[PendingRequest]:
        """Pop the next fair batch (may be empty after expiries)."""
        order = self._backlogged()
        if not order:
            return []
        head = order[0]
        self._vtime = head.pass_value
        _, primary = head.entries.pop(0)
        self._depth -= 1
        if primary.expired:
            self._resolve_timeout(primary)
            return []
        primary.dequeued_at = time.monotonic()
        self.metrics.on_dequeued(
            primary.tenant, primary.dequeued_at - primary.enqueued_at
        )
        batch = [primary]
        taken_items: Dict[str, int] = {primary.tenant: primary.op.count}
        if self.config.coalesce and primary.op.coalescible:
            key = primary.op.coalesce_key()
            budget_requests = self.config.max_coalesce_requests - 1
            budget_items = (
                self.config.max_coalesce_items - primary.op.count
            )
            for queue in self._backlogged():
                if budget_requests <= 0 or budget_items <= 0:
                    break
                kept: List[Tuple[Tuple[int, int], PendingRequest]] = []
                for entry in queue.entries:
                    request = entry[1]
                    if (
                        budget_requests > 0
                        and budget_items >= request.op.count
                        and request.op.coalescible
                        and request.op.coalesce_key() == key
                    ):
                        self._depth -= 1
                        if request.expired:
                            self._resolve_timeout(request)
                            continue
                        request.dequeued_at = time.monotonic()
                        self.metrics.on_dequeued(
                            request.tenant,
                            request.dequeued_at - request.enqueued_at,
                        )
                        batch.append(request)
                        taken_items[request.tenant] = (
                            taken_items.get(request.tenant, 0)
                            + request.op.count
                        )
                        budget_requests -= 1
                        budget_items -= request.op.count
                    else:
                        kept.append(entry)
                queue.entries = kept
        # Charge the fair shares: pass advances by items/weight.
        for tenant, items in taken_items.items():
            queue = self._tenants[tenant]
            queue.pass_value += items / queue.weight
        return batch

    def _job_timeout(self, batch: List[PendingRequest]) -> Optional[float]:
        """Deadline for the merged job.

        The service-level ``job_timeout_s`` always applies; when every
        member also carries its own deadline, the job additionally
        never outlives the *latest* of them (a single short-deadline
        member must not kill a shared batch for everyone else).
        """
        timeout = self.config.job_timeout_s
        deadlines = [r.deadline_at for r in batch]
        if all(d is not None for d in deadlines):
            remaining = max(d for d in deadlines) - time.monotonic()  # type: ignore[operator]
            remaining = max(remaining, 1e-3)
            timeout = (
                remaining if timeout is None else min(timeout, remaining)
            )
        return timeout

    def _execute_batch(self, batch: List[PendingRequest]) -> None:
        ops = [request.op for request in batch]
        job_type = type(ops[0])
        total_items = sum(op.count for op in ops)
        try:
            handle = self.jobs.submit(
                job_type.merge(ops),
                timeout=self._job_timeout(batch),
                retry=self.config.retry,
            )
            error = handle.exception()
        except BaseException as err:  # merge/submit failure
            handle = None
            error = err
        fault_events = (
            [event.render() for event in handle.fault_report.events]
            if handle is not None
            else []
        )
        dead_lettered = (
            handle is not None and handle in self.jobs.dead_letters
        )
        if error is None:
            self.metrics.on_batch(len(batch), total_items)
            results = job_type.split(ops, handle.result())
            now = time.monotonic()
            for request, result in zip(batch, results):
                latency = now - request.enqueued_at
                self.metrics.on_completed(
                    request.tenant, request.op.count, latency
                )
                request.future.set_result(
                    Response(
                        status=STATUS_OK,
                        request_id=request.request_id,
                        result=result,
                        fault_events=fault_events,
                        coalesced=len(batch),
                        queue_wait_s=(
                            request.dequeued_at - request.enqueued_at
                        ),
                        latency_s=latency,
                    )
                )
            return
        timed_out = isinstance(error, JobTimeoutError)
        status = STATUS_TIMEOUT if timed_out else STATUS_ERROR
        now = time.monotonic()
        for request in batch:
            latency = now - request.enqueued_at
            self.metrics.on_failed(
                request.tenant,
                latency,
                timed_out=timed_out,
                dead_lettered=dead_lettered,
            )
            request.future.set_result(
                Response(
                    status=status,
                    request_id=request.request_id,
                    error=str(error),
                    error_type=type(error).__name__,
                    fault_events=fault_events,
                    dead_lettered=dead_lettered,
                    coalesced=len(batch),
                    queue_wait_s=request.dequeued_at - request.enqueued_at,
                    latency_s=latency,
                )
            )

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._stopping and (
                    self._paused or self._depth == 0
                ):
                    self._cond.wait()
                if self._stopping and self._depth == 0:
                    return
                batch = self._take_batch_locked()
            if batch:
                self._execute_batch(batch)

    # -- lifecycle ---------------------------------------------------------

    @contextmanager
    def paused(self):
        """Hold dispatch (tests): queued requests accumulate — and
        therefore coalesce deterministically — until the block exits.
        The batch already executing, if any, is unaffected."""
        with self._cond:
            self._paused = True
        try:
            yield self
        finally:
            with self._cond:
                self._paused = False
                self._cond.notify_all()

    def stop(
        self, drain: bool = True, timeout: Optional[float] = None
    ) -> bool:
        """Stop accepting requests; drain or reject the backlog.

        ``drain=True`` executes everything already admitted (responses
        are delivered) before the dispatcher exits; ``drain=False``
        resolves queued requests to ``REJECTED``/``shutting-down``.
        Returns ``True`` once the dispatcher thread has exited.
        """
        with self._cond:
            self._stopping = True
            if not drain:
                dropped = [
                    entry[1]
                    for queue in self._tenants.values()
                    for entry in queue.entries
                ]
                for queue in self._tenants.values():
                    queue.entries = []
                self._depth = 0
            else:
                dropped = []
            self._cond.notify_all()
        for request in dropped:
            self.metrics.on_dequeued(
                request.tenant,
                time.monotonic() - request.enqueued_at,
            )
            self.metrics.on_rejected(request.tenant)
            request.future.set_result(
                Response(
                    status=STATUS_REJECTED,
                    request_id=request.request_id,
                    error=REJECT_SHUTDOWN,
                    error_type="AdmissionError",
                )
            )
        self._thread.join(timeout)
        return not self._thread.is_alive()


__all__ = [
    "ServiceConfig",
    "ServiceScheduler",
    "PendingRequest",
    "REJECT_TENANT_FULL",
    "REJECT_GLOBAL_FULL",
    "REJECT_SHUTDOWN",
]
