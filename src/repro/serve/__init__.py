"""``repro.serve`` — the multi-tenant FHE compute service tier.

Turns the batched engine (NTT → SSA → FHE, PR 1–6) and its
fault-tolerant job runtime (PR 7) into a *shared service*: an asyncio
TCP front end speaking length-prefixed JSON, per-tenant weighted-fair
queues with priorities, bounded admission (typed ``REJECTED`` under
overload), request coalescing into single batched engine passes, and a
per-tenant metrics registry exported over a ``stats`` RPC.

The ops are the job types of :mod:`repro.engine.jobs`:
:data:`~repro.engine.jobs.JOB_TYPES` maps each wire op name to its
type, which carries its own JSON codec, coalesce key, merge and split.
This package is transport and scheduling over those jobs.

Quickstart (in-process)::

    from repro.jobs import MultiplyJob
    from repro.serve import ComputeService, ServiceClient

    with ComputeService() as service:
        client = ServiceClient(service, tenant="alice")
        response = client.call(MultiplyJob.batched([(3, 5), (7, 11)]))
        assert response.result == [15, 77]

Over TCP: ``repro serve --port 7100`` and ``repro client submit ...``,
or :class:`TCPServiceClient`.
"""

from repro.serve.client import ServiceClient, TCPServiceClient
from repro.serve.metrics import MetricsRegistry, render_stats
from repro.serve.ops import decode_op
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    ProtocolError,
    Response,
)
from repro.serve.scheduler import (
    REJECT_GLOBAL_FULL,
    REJECT_SHUTDOWN,
    REJECT_TENANT_FULL,
    ServiceConfig,
    ServiceScheduler,
)
from repro.serve.service import ComputeService, ServiceServer, run_server

__all__ = [
    "ComputeService",
    "ServiceServer",
    "run_server",
    "ServiceClient",
    "TCPServiceClient",
    "ServiceConfig",
    "ServiceScheduler",
    "MetricsRegistry",
    "render_stats",
    "decode_op",
    "Response",
    "ProtocolError",
    "MAX_FRAME_BYTES",
    "STATUS_OK",
    "STATUS_REJECTED",
    "STATUS_TIMEOUT",
    "STATUS_ERROR",
    "REJECT_TENANT_FULL",
    "REJECT_GLOBAL_FULL",
    "REJECT_SHUTDOWN",
]
