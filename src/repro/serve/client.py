"""Service clients: in-process and blocking TCP.

Two ways to talk to the service, one :class:`Response` surface:

- :class:`ServiceClient` — in-process, wraps a
  :class:`~repro.serve.service.ComputeService` directly.  No sockets,
  no JSON: ops are the :mod:`repro.engine.jobs` job types built from
  live objects (numpy rows, ciphertexts) and results come back raw.
  The tool of choice for tests and benchmarks.
- :class:`TCPServiceClient` — blocking sockets, for scripts and the
  ``repro client`` CLI.  One call = submit + wait, but pipelining is
  available through :meth:`~TCPServiceClient.send` /
  :meth:`~TCPServiceClient.wait` (responses arrive completion-ordered
  and are matched by id).  Asyncio code runs its blocking calls
  through :func:`asyncio.to_thread`.
"""

from __future__ import annotations

import itertools
import socket
from typing import Any, Dict, Optional

from repro.engine.jobs import Job
from repro.serve.protocol import (
    ProtocolError,
    Response,
    recv_frame,
    send_frame,
    submit_message,
)
from repro.serve.service import ComputeService


class ServiceClient:
    """In-process client over a :class:`ComputeService`.

    ``submit`` returns the raw ``Future[Response]`` (open-loop load,
    concurrency); ``call`` blocks — e.g.
    ``client.call(MultiplyJob.batched([(a, b)])).result[0]``.
    """

    def __init__(self, service: ComputeService, *, tenant: str = "default"):
        self.service = service
        self.tenant = tenant

    def submit(
        self,
        op: Job,
        *,
        tenant: Optional[str] = None,
        priority: int = 0,
        timeout: Optional[float] = None,
        request_id=None,
    ):
        return self.service.submit(
            op,
            tenant=tenant if tenant is not None else self.tenant,
            priority=priority,
            timeout=timeout,
            request_id=request_id,
        )

    def call(self, op: Job, **kwargs) -> Response:
        return self.submit(op, **kwargs).result()

    def stats(self) -> dict:
        return self.service.stats()


class TCPServiceClient:
    """Blocking-socket client speaking the length-prefixed framing.

    Not thread-safe; one instance per thread.  Every frame is read
    through one helper that caches ``response`` frames by id, so
    responses that arrive out of order (the server answers
    completion-ordered) or ahead of a ``ping``/``stats`` reply are
    delivered by :meth:`wait`: ``send``/``send``/``stats``/``wait``/
    ``wait`` pipelines work regardless of which job finishes first.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        tenant: str = "default",
        connect_timeout: Optional[float] = 10.0,
    ):
        self.tenant = tenant
        self._sock = socket.create_connection(
            (host, port), timeout=connect_timeout
        )
        self._sock.settimeout(None)
        self._ids = itertools.count(1)
        self._responses: Dict[Any, Response] = {}

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "TCPServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def ping(self) -> bool:
        send_frame(self._sock, {"type": "ping"})
        try:
            while self._recv().get("type") != "pong":
                pass
        except (ConnectionError, ProtocolError):
            return False
        return True

    def stats(self) -> dict:
        request_id = f"stats-{next(self._ids)}"
        send_frame(self._sock, {"type": "stats", "id": request_id})
        while True:
            message = self._recv()
            if (
                message.get("type") == "stats"
                and message.get("id") == request_id
            ):
                return message.get("stats", {})

    def send(
        self,
        op: str,
        payload: dict,
        *,
        tenant: Optional[str] = None,
        priority: int = 0,
        timeout: Optional[float] = None,
    ):
        """Pipeline one submit; returns the request id for :meth:`wait`."""
        request_id = next(self._ids)
        send_frame(
            self._sock,
            submit_message(
                op,
                payload,
                tenant=tenant if tenant is not None else self.tenant,
                priority=priority,
                timeout=timeout,
                request_id=request_id,
            ),
        )
        return request_id

    def wait(self, request_id) -> Response:
        """The response for one pipelined submit (any arrival order)."""
        while request_id not in self._responses:
            self._recv()
        return self._responses.pop(request_id)

    def request(self, op: str, payload: dict, **kwargs) -> Response:
        """Submit one request and block for its response."""
        return self.wait(self.send(op, payload, **kwargs))

    def _recv(self) -> dict:
        """The next frame; a ``response`` frame is also cached by id
        for :meth:`wait`."""
        message = recv_frame(self._sock)
        if message is None:
            raise ConnectionError("service closed the connection")
        if message.get("type") == "error":
            raise ProtocolError(str(message.get("error")))
        if message.get("type") == "response":
            response = Response.from_wire(message)
            self._responses[response.request_id] = response
        return message


__all__ = [
    "ServiceClient",
    "TCPServiceClient",
]
