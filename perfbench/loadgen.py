"""``serve-mixed``: open-loop mixed-tenant load against ``repro serve``.

The load process builds every request frame before the timed window,
starts the server (``serve_launcher.py``: ``repro serve`` with its
defaults, told how many requests to answer before it exits), then sends
each frame at its seeded due time over two TCP connections, whatever
the server's progress.  Responses are stored raw
with their arrival time and checked only after the window, so checking
never slows the generator.  Latency runs from each request's due time.

The mix (3 multiply : 1 rlwe-multiply, 4 tenants) and the 40 req/s rate
are assumptions: the repository has no production trace.
"""

from __future__ import annotations

import json
import math
import random
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracles
from workload import RLWE_N, RLWE_NOISE, RLWE_PRIMES, RLWE_T, peak_rss_mb

HERE = Path(__file__).resolve().parent

RATE = 40.0
TENANTS = 4
CONNECTIONS = 2
MULTIPLY_SHARE = 0.75
MULTIPLY_BITS = 4096
#: A response later than this after its due time misses the goodput.
GOOD_MS = 250.0
#: How long after the last due time responses are still awaited.
DRAIN_S = 30.0
_LENGTH = struct.Struct(">I")


def frame(body: str) -> bytes:
    data = body.encode()
    return _LENGTH.pack(len(data)) + data


def read_frame(sock: socket.socket):
    """One raw frame body, or None when the connection closed."""
    head = _read_exactly(sock, _LENGTH.size)
    if head is None:
        return None
    return _read_exactly(sock, _LENGTH.unpack(head)[0])


def _read_exactly(sock: socket.socket, count: int):
    chunks = []
    while count:
        chunk = sock.recv(min(count, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tenant:
    """One tenant's RLWE keyset and the JSON prefix of its requests."""

    def __init__(self, name: str, engine, params, seed: int):
        self.name = name
        self.scheme = engine.fhe(params, rng=random.Random(seed))
        self.keys = self.scheme.keygen()
        self.payload_head = (
            json.dumps(
                {
                    "n": params.n,
                    "t": params.t,
                    "noise_bound": params.noise_bound,
                    "rns_primes": list(params.rns_primes),
                },
                separators=(",", ":"),
            )[:-1]
            + ',"relin":'
            + json.dumps(self.keys.relin.to_payload(), separators=(",", ":"))
        )

    def rlwe_frames(self, ids, message_pairs):
        """Submit frames for ``rlwe-multiply`` of each (m1, m2) pair."""
        flat = [m for pair in message_pairs for m in pair]
        cts = self.scheme.encrypt_many(self.keys, flat)
        frames = []
        for k, request_id in enumerate(ids):
            pair = [
                [ct.c0.tolist(), ct.c1.tolist()] for ct in cts[2 * k : 2 * k + 2]
            ]
            frames.append(frame(
                '{"type":"submit","id":%s,"tenant":"%s","op":"rlwe-multiply",'
                '"priority":0,"payload":%s,"pairs":[%s]}}'
                % (
                    json.dumps(request_id),
                    self.name,
                    self.payload_head,
                    json.dumps(pair, separators=(",", ":")),
                )
            ))
        return frames


def multiply_frame(request_id, tenant: str, a: int, b: int) -> bytes:
    return frame(json.dumps(
        {
            "type": "submit",
            "id": request_id,
            "tenant": tenant,
            "op": "multiply",
            "priority": 0,
            "payload": {"pairs": [[a, b]]},
        },
        separators=(",", ":"),
    ))


def operands(rng, kind: str) -> tuple:
    """Two 4096-bit integers, or two message polynomials mod ``t``."""
    if kind == "multiply":
        top = 1 << (MULTIPLY_BITS - 1)
        return (rng.getrandbits(MULTIPLY_BITS) | top,
                rng.getrandbits(MULTIPLY_BITS) | top)
    return tuple([rng.randrange(RLWE_T) for _ in range(RLWE_N)] for _ in range(2))


class Request:
    __slots__ = ("id", "kind", "tenant", "conn", "due", "frame", "data")

    def __init__(self, request_id, kind, tenant, conn, due):
        self.id, self.kind, self.tenant = request_id, kind, tenant
        self.conn, self.due = conn, due


def build_requests(rng, seconds, tenants, setup_only):
    """The seeded schedule and every frame it sends.

    Exactly ``RATE · seconds`` arrivals, uniform on ``[0, seconds)``
    (a Poisson process conditioned on its count), carrying an exact 3:1
    class mix with equal tenant shares per class in seeded order: runs
    on different seeds differ in burst pattern and content, not in
    offered load.
    """
    count = round(RATE * seconds)
    multiplies = round(count * MULTIPLY_SHARE)
    mix = [("multiply", i % TENANTS) for i in range(multiplies)]
    mix += [("rlwe-multiply", i % TENANTS) for i in range(count - multiplies)]
    rng.shuffle(mix)
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    requests = []
    for i, ((kind, k), due) in enumerate(zip(mix, dues)):
        requests.append(Request(i, kind, k, k % CONNECTIONS, due))
    # Warm-up: one request of each class, checked like the rest.
    warm = [Request("warm-multiply", "multiply", 0, 0, 0.0),
            Request("warm-rlwe", "rlwe-multiply", 0, 0, 0.0)]
    for request in requests + warm:
        request.data = operands(rng, request.kind)
    if setup_only:
        requests = []
    for request in warm + requests:
        if request.kind == "multiply":
            request.frame = multiply_frame(
                request.id, tenants[request.tenant].name, *request.data
            )
    for k, tenant in enumerate(tenants):
        mine = [r for r in warm + requests
                if r.kind == "rlwe-multiply" and r.tenant == k]
        if mine:
            frames = tenant.rlwe_frames([r.id for r in mine], [r.data for r in mine])
            for request, data in zip(mine, frames):
                request.frame = data
    return warm, requests


class Server:
    """The server subprocess and its two client connections.

    The server is told how many submits it will answer (``repro serve
    --max-requests``) and exits by itself after the last one: a final
    one-pair ``multiply`` sent by :meth:`stop`.  SIGINT is not used,
    because an idle ``repro serve`` can miss it (see the README).
    """

    STOP_ID = "stop"

    def __init__(self, trace: bool, submits: int):
        command = [
            sys.executable, str(HERE / "serve_launcher.py"),
            "--max-requests", str(submits + 1),
        ]
        if trace:
            command.append("--trace")
        self.started = time.monotonic()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True
        )
        self.socks = []
        line = self.process.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        port = int(line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])
        self.socks = [
            socket.create_connection(("127.0.0.1", port))
            for _ in range(CONNECTIONS)
        ]

    def call(self, data: bytes, request_id) -> dict:
        """Send one frame on connection 0; wait for the reply to it."""
        sock = self.socks[0]
        sock.sendall(data)
        while True:
            body = read_frame(sock)
            if body is None:
                raise ConnectionError("server closed the connection")
            reply = json.loads(body)
            if reply.get("id") == request_id:
                return reply

    def stats(self, request_id: str) -> dict:
        body = json.dumps({"type": "stats", "id": request_id})
        return self.call(frame(body), request_id)["stats"]

    def stop(self) -> str:
        """Send the last submit, wait for the exit; what it printed."""
        if self.socks and self.process.poll() is None:
            self.socks[0].settimeout(30)
            try:
                self.call(multiply_frame(self.STOP_ID, "stop", 1, 1), self.STOP_ID)
            except OSError:
                pass  # a dead or hung server is killed below
        for sock in self.socks:
            sock.close()
        try:
            return self.process.communicate(timeout=30)[0]
        except subprocess.TimeoutExpired:
            self.process.kill()
            return self.process.communicate()[0]


def run(args, recorder, result) -> None:
    rng = random.Random(args.seed)
    from repro.engine import Engine
    from repro.fhe.rlwe import RLWEParams, default_rns_primes

    params = RLWEParams(
        n=RLWE_N,
        t=RLWE_T,
        noise_bound=RLWE_NOISE,
        rns_primes=default_rns_primes(RLWE_N, RLWE_T, RLWE_PRIMES),
    )
    engine = Engine()
    tenants = [
        Tenant(f"tenant-{k}", engine, params, rng.getrandbits(64))
        for k in range(TENANTS)
    ]
    warm, requests = build_requests(rng, args.seconds, tenants, args.setup_only)

    server = Server(bool(args.trace), len(warm) + len(requests))
    try:
        warm_replies = [server.call(r.frame, r.id) for r in warm]
        result["setup_s"] = time.monotonic() - server.started
        warm_bad = sum(
            not check(r, reply, tenants, params) for r, reply in zip(warm, warm_replies)
        )
        result["warmup"] = {"attempted": len(warm), "failed": warm_bad}
        if args.setup_only:
            return
        before = server.stats("stats-before")
        arrivals, lateness, window = open_loop(server, requests)
        after = server.stats("stats-after")
        rss = peak_rss_mb(server.process.pid)
    finally:
        output = server.stop()
    if server.process.returncode != 0:
        raise RuntimeError(f"server exited with {server.process.returncode}")
    if args.trace:
        trace_line = [l for l in output.splitlines() if l.startswith("TRACE ")]
        result["server_spans"] = json.loads(trace_line[-1][len("TRACE "):])
        result["window"] = window

    responses = {}
    for arrival, body in arrivals:
        reply = json.loads(body)
        responses[reply.get("id")] = (arrival, reply)
    if args.corrupt:  # the checker self-test: alter one multiply result
        for request in requests:
            reply = responses.get(request.id, (None, {}))[1]
            if request.kind == "multiply" and reply.get("status") == "ok":
                reply["result"][0] += 1
                break
    result["peak_rss_mb"] = rss
    result["serve"] = summarize(
        requests, responses, lateness, window, before, after, tenants, params,
        args.seconds,
    )
    result["layers_extra"].update(result["serve"].pop("layers"))


def open_loop(server: Server, requests):
    """Send every frame at its due time; collect raw responses.

    Returns ``(arrivals, lateness, window)``: ``(monotonic arrival,
    body)`` pairs, how late each send started (s), and the
    ``(start, end)`` monotonic window the requests occupied.
    """
    start = time.monotonic() + 0.05
    deadline = start + requests[-1].due + DRAIN_S
    lateness = [0.0] * len(requests)
    arrivals = []

    def send(conn: int) -> None:
        sock = server.socks[conn]
        for request in requests:
            if request.conn != conn:
                continue
            due = start + request.due
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            lateness[request.id] = time.monotonic() - due
            sock.sendall(request.frame)

    def receive(conn: int, expected: int) -> None:
        sock = server.socks[conn]
        sock.settimeout(max(1.0, deadline - time.monotonic()))
        try:
            for _ in range(expected):
                body = read_frame(sock)
                if body is None:
                    return
                arrivals.append((time.monotonic(), body))
        except socket.timeout:
            return

    threads = [threading.Thread(target=send, args=(c,)) for c in range(CONNECTIONS)]
    threads += [
        threading.Thread(
            target=receive,
            args=(c, sum(r.conn == c for r in requests)),
        )
        for c in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for sock in server.socks:
        sock.settimeout(None)
    end = max([a for a, _ in arrivals], default=start)
    return arrivals, lateness, (start, end)


def check(request, reply, tenants, params) -> bool:
    """Whether ``reply`` is the correct answer to ``request``."""
    if reply.get("status") != "ok":
        return False
    if request.kind == "multiply":
        a, b = request.data
        return reply["result"] == [a * b]
    (c0, c1), = reply["result"]
    secret = tenants[request.tenant].keys.secret
    plain = oracles.rlwe_decrypt(c0, c1, secret, params.rns_primes, params.t)
    return bool((plain == oracles.negacyclic(*request.data, params.t)).all())


def summarize(requests, responses, lateness, window, before, after, tenants,
              params, schedule_s):
    """Metrics, failure counts and scheduler figures of one window."""
    start, end = window
    cap = schedule_s + DRAIN_S
    latency = {}
    failed = mismatched = good = 0
    queue_waits = []
    for request in requests:
        arrival, reply = responses.get(request.id, (None, None))
        if reply is not None and check(request, reply, tenants, params):
            latency[request.id] = (arrival - start - request.due) * 1e3
            queue_waits.append(reply.get("queue_wait_s", 0.0) * 1e3)
            good += latency[request.id] <= GOOD_MS
            continue
        failed += 1
        if reply is not None and reply.get("status") == "ok":
            mismatched += 1
        # A failed, refused or missing request misses every latency limit.
        latency[request.id] = cap * 1e3
    values = list(latency.values())

    def by_kind(kind):
        return [latency[r.id] for r in requests if r.kind == kind]

    batches = after["coalescing"]["batches"] - before["coalescing"]["batches"]
    items = after["coalescing"]["batched_items"] - before["coalescing"]["batched_items"]
    coalesced = (
        after["coalescing"]["batched_requests"]
        - before["coalescing"]["batched_requests"]
    )
    budget = 256  # ServiceConfig().max_coalesce_items, the serve default
    totals = {k: after["totals"][k] - before["totals"][k] for k in ("rejected", "timed_out")}
    return {
        "metrics": {"ops_per_s": good / schedule_s},
        "extra": {
            "p50_ms": percentile(values, 0.50),
            "requests": len(requests),
            "schedule_s": schedule_s,
            "timed_s": end - start,
            "p99_ms": percentile(values, 0.99),
            "multiply.p90_ms": percentile(by_kind("multiply"), 0.90),
            "rlwe-multiply.p90_ms": percentile(by_kind("rlwe-multiply"), 0.90),
            "late_max_ms": max(lateness) * 1e3,
            "late_p99_ms": percentile(lateness, 0.99) * 1e3,
        },
        "layers": {
            "serve.queue_wait.p50_ms": percentile(queue_waits, 0.5),
            "serve.queue_wait.p90_ms": percentile(queue_waits, 0.9),
            "serve.requests_per_batch": coalesced / batches if batches else 0.0,
            "serve.fill_ratio": items / (batches * budget) if batches else 0.0,
            "serve.rejected": totals["rejected"],
            "serve.timeouts": totals["timed_out"],
            "loadgen.late_max_ms": max(lateness) * 1e3,
            "loadgen.late_p99_ms": percentile(lateness, 0.99) * 1e3,
        },
        "attempted": len(requests),
        "failed": failed,
        "mismatched": mismatched,
    }
