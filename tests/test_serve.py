"""Service-tier tests: protocol, ops, fair scheduling, TCP front end.

The acceptance invariants of the serving tier live here:

- coalesced batches are **bit-identical** to individual submission
  (multiply, RLWE ``multiply_plain``);
- backpressure is **bounded and typed**: queue caps hold under a
  flooding tenant, overflow resolves to ``REJECTED`` immediately, and
  the light tenant's p99 stays within 2× its unloaded p99;
- priorities order dispatch, weighted-fair queues prevent starvation;
- PR 7 faults (worker kill) propagate into per-request responses;
- shutdown is clean with jobs in flight, and
  :meth:`JobScheduler.drain` surfaces terminal state from any thread.
"""

import asyncio
import json
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.engine import Engine, ExecutionConfig, faultinject
from repro.engine.jobs import (
    ConvolveJob,
    DGHVMultJob,
    JobScheduler,
    MultiplyJob,
    RingTransformJob,
    RLWEMultiplyJob,
    RLWEMultiplyPlainJob,
)
from repro.engine.resilience import JobTimeoutError
from repro.fhe.params import TOY
from repro.fhe.rlwe import RLWE, RLWEParams
from repro.field.solinas import P
from repro.serve import (
    REJECT_GLOBAL_FULL,
    REJECT_SHUTDOWN,
    REJECT_TENANT_FULL,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    ComputeService,
    ProtocolError,
    Response,
    ServiceClient,
    ServiceConfig,
    ServiceServer,
    TCPServiceClient,
    decode_op,
)
from repro.serve.metrics import percentile
from repro.serve.protocol import decode_body, encode_frame, read_frame


@pytest.fixture(autouse=True)
def _disarm_faults():
    faultinject.deactivate()
    yield
    faultinject.deactivate()


def _service(**config) -> ComputeService:
    return ComputeService(config=ServiceConfig(**config))


# -- protocol --------------------------------------------------------------


class TestProtocol:
    def test_frame_roundtrip(self):
        message = {"type": "submit", "x": [1, 2 ** 200]}
        frame = encode_frame(message)
        assert decode_body(frame[4:]) == message

    def test_bad_json_rejected(self):
        with pytest.raises(ProtocolError):
            decode_body(b"\xff\xfe not json")
        with pytest.raises(ProtocolError):
            decode_body(b"[1, 2]")  # not an object

    def test_response_wire_roundtrip(self):
        response = Response(
            status=STATUS_OK,
            request_id=7,
            coalesced=4,
            queue_wait_s=0.25,
            latency_s=0.5,
        )
        wire = response.to_wire(encoded_result=[21])
        back = Response.from_wire(wire)
        assert back.ok and back.request_id == 7
        assert back.result == [21] and back.coalesced == 4

    def test_error_response_carries_type_and_faults(self):
        response = Response(
            status="error",
            request_id="a",
            error="boom",
            error_type="WorkerCrashError",
            fault_events=["[worker-crash] pid 1"],
            dead_lettered=True,
        )
        back = Response.from_wire(response.to_wire())
        assert back.error_type == "WorkerCrashError"
        assert back.dead_lettered and back.fault_events


def _rlwe_wire_request():
    """A 2-prime ``rlwe-multiply`` wire payload for one pair, with the
    scheme, keys and plaintexts that produced it."""
    from repro.fhe.rlwe import RLWE, default_rns_primes

    params = RLWEParams(
        n=64,
        t=17,
        noise_bound=4,
        rns_primes=default_rns_primes(64, 17, 2),
    )
    scheme = RLWE(params, rng=random.Random(47))
    keys = scheme.keygen()
    rng = random.Random(48)
    m1 = [rng.randrange(params.t) for _ in range(params.n)]
    m2 = [rng.randrange(params.t) for _ in range(params.n)]
    c1, c2 = scheme.encrypt_many(keys, [m1, m2])

    def encode(ct):
        return [
            [[int(v) for v in row] for row in ct.c0],
            [[int(v) for v in row] for row in ct.c1],
        ]

    payload = {
        "n": params.n,
        "t": params.t,
        "noise_bound": params.noise_bound,
        "rns_primes": list(params.rns_primes),
        "relin": keys.relin.to_payload(),
        "pairs": [[encode(c1), encode(c2)]],
    }
    return scheme, keys, (m1, m2), payload


#: Out-of-range RNS residues: the channel prime itself, a negative and
#: a huge int (the wire carries arbitrary JSON integers).
BAD_RESIDUES = ("q_j", -1, 1 << 40)


def _with_bad_residue(payload, bad, where):
    """A copy of ``payload`` with one channel-1 coefficient replaced."""
    payload = json.loads(json.dumps(payload))
    prime = payload["rns_primes"][1]
    value = prime if bad == "q_j" else bad
    if where == "ciphertext":
        payload["pairs"][0][1][0][1][7] = value  # second ct, c0, channel 1
    else:
        payload["relin"]["levels"]["2"][0][0][1][7] = value
    return payload


# -- op vocabulary ---------------------------------------------------------


class TestOps:
    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            decode_op("nope", {})

    def test_multiply_payload_validation(self):
        with pytest.raises(ProtocolError):
            decode_op("multiply", {"pairs": [[1]]})
        with pytest.raises(ProtocolError):
            decode_op("multiply", {"pairs": [[-1, 2]]})
        with pytest.raises(ProtocolError):
            decode_op("multiply", {})

    def test_multiply_coalesce_key_buckets_width(self):
        small_a = MultiplyJob.of(3, 5)
        small_b = MultiplyJob.of(7, 2)
        big = MultiplyJob.of(1 << 600, 3)
        assert small_a.coalesce_key() == small_b.coalesce_key()
        assert small_a.coalesce_key() != big.coalesce_key()

    def test_ring_keys_split_on_direction_and_size(self):
        fwd = RingTransformJob(n=8, values=[list(range(8))])
        inv = RingTransformJob(n=8, values=[list(range(8))], inverse=True)
        other = RingTransformJob(n=16, values=[list(range(16))])
        assert fwd.coalesce_key() != inv.coalesce_key()
        assert fwd.coalesce_key() != other.coalesce_key()

    def test_broadcast_convolve_not_coalescible(self):
        a = np.ones((3, 8), dtype=np.uint64)
        b = np.ones((1, 8), dtype=np.uint64)
        job = ConvolveJob(n=8, a=a, b=b)
        assert not job.coalescible
        assert ConvolveJob(n=8, a=a, b=a).coalescible

    @pytest.mark.parametrize("where", ["ciphertext", "relin"])
    @pytest.mark.parametrize("bad", BAD_RESIDUES)
    def test_rlwe_multiply_rejects_out_of_range_residues(self, bad, where):
        _, _, _, payload = _rlwe_wire_request()
        assert decode_op("rlwe-multiply", payload).count == 1
        with pytest.raises(ProtocolError, match="channel 1 "):
            decode_op("rlwe-multiply", _with_bad_residue(payload, bad, where))

    @pytest.mark.parametrize("where", ["ciphertext", "relin"])
    def test_single_modulus_rlwe_multiply_rejects_floats(self, where):
        """A non-integer coefficient is a typed error in every
        single-modulus component, never truncated to an int."""
        params = RLWEParams(n=16, t=17, noise_bound=4)
        scheme = RLWE(params, rng=random.Random(49))
        keys = scheme.keygen()
        c1, c2 = scheme.encrypt_many(keys, [[1] * 16, [2] * 16])
        payload = {
            "n": 16,
            "t": 17,
            "noise_bound": 4,
            "relin": keys.relin.to_payload(),
            "pairs": [[[ct.c0.tolist(), ct.c1.tolist()] for ct in (c1, c2)]],
        }
        assert decode_op("rlwe-multiply", payload).count == 1
        if where == "ciphertext":
            payload["pairs"][0][1][0][3] = 1.5  # second ct, c0
        else:
            payload["relin"]["levels"]["1"][0][0][3] = 1.5  # digit 0, k0
        with pytest.raises(ProtocolError, match="integers"):
            decode_op("rlwe-multiply", payload)

    def test_dghv_noise_bits_must_be_numeric(self):
        params = {
            "name": "toy",
            "lam": 8,
            "rho": 8,
            "eta": 96,
            "gamma": 2048,
            "tau": 8,
        }
        with pytest.raises(ProtocolError, match="noise_bits"):
            decode_op(
                "dghv-mult",
                {
                    "params": params,
                    "pairs": [[[5, "loud"], [7, 1.0]]],
                },
            )
        with pytest.raises(ProtocolError, match="noise_bits"):
            decode_op(
                "dghv-mult",
                {
                    "params": params,
                    "pairs": [[[5, 10 ** 400], [7, 1.0]]],
                },
            )

    def test_rlwe_multiply_plain_rns_payload(self):
        """An RNS ``rlwe-multiply-plain`` payload decodes under its
        primes, matches the in-process batch and decrypts to the
        negacyclic product mod ``t``."""
        from repro.ntt.reference import convolution_reference

        scheme, keys, (m1, m2), payload = _rlwe_wire_request()
        wire = {
            key: payload[key]
            for key in ("n", "t", "noise_bound", "rns_primes")
        }
        wire["ciphertexts"] = [payload["pairs"][0][0]]
        wire["plains"] = [m2]
        job = decode_op("rlwe-multiply-plain", wire)
        assert job.params == scheme.params
        engine = Engine()
        try:
            got = job.run(engine)
        finally:
            engine.close()
        want = scheme.multiply_plain_many(list(job.ciphertexts), [m2])
        assert job.encode_result(got) == job.encode_result(want)
        product = [
            (v - P if v > P // 2 else v) % scheme.params.t
            for v in convolution_reference(m1, m2, negacyclic=True)
        ]
        assert scheme.decrypt(keys, got[0]) == product


# -- in-process service basics ---------------------------------------------


class TestServiceBasics:
    def test_multiply(self):
        with _service() as service:
            client = ServiceClient(service, tenant="t")
            response = client.call(
                MultiplyJob.batched([(3, 5), (1 << 100, 3)])
            )
            assert response.ok
            assert response.result == [15, 3 << 100]
            assert response.coalesced == 1

    def test_ring_transform_matches_engine(self):
        rng = np.random.default_rng(5)
        rows = rng.integers(0, P, size=(3, 64), dtype=np.uint64)
        with Engine() as engine:
            oracle = engine.ring(64).negacyclic_forward(rows)
        with _service() as service:
            got = ServiceClient(service).call(
                RingTransformJob(n=64, values=rows, negacyclic=True)
            )
            assert got.ok and np.array_equal(got.result, oracle)

    def test_dghv_mult_decrypts(self):
        engine = Engine()
        scheme = engine.fhe(TOY, rng=random.Random(11))
        keys = scheme.generate_keys()
        plain = [(0, 0), (0, 1), (1, 0), (1, 1)]
        pairs = [
            (scheme.encrypt(keys, a), scheme.encrypt(keys, b))
            for a, b in plain
        ]
        engine.close()
        with _service() as service:
            response = ServiceClient(service).call(
                DGHVMultJob(pairs=pairs, x0=keys.x0)
            )
            assert response.ok
            assert [
                scheme.decrypt(keys, ct) for ct in response.result
            ] == [0, 0, 0, 1]

    def test_stats_counters(self):
        with _service() as service:
            client = ServiceClient(service, tenant="alice")
            for _ in range(3):
                assert client.call(MultiplyJob.of(2, 3)).ok
            snapshot = client.stats()
            alice = snapshot["tenants"]["alice"]
            assert alice["completed"] == 3
            assert alice["items_completed"] == 3
            assert snapshot["totals"]["completed"] == 3
            assert snapshot["coalescing"]["batches"] >= 1
            assert alice["latency"]["p99_ms"] > 0


# -- coalescing ------------------------------------------------------------


class TestCoalescing:
    def test_multiply_coalesces_and_matches_individual(self):
        # Same-width operands: one coalesce bucket, one engine pass.
        pairs = [(100 + i, 200 + i) for i in range(6)]
        # Individual submissions, coalescing disabled: the oracle.
        with _service(coalesce=False) as service:
            client = ServiceClient(service)
            oracle = [
                client.call(MultiplyJob.batched([pair])).result[0]
                for pair in pairs
            ]
        with _service() as service:
            client = ServiceClient(service)
            with service.scheduler.paused():
                futures = [
                    client.submit(
                        MultiplyJob.batched([pair]), tenant=f"t{i % 3}"
                    )
                    for i, pair in enumerate(pairs)
                ]
            responses = [f.result(timeout=30) for f in futures]
            assert all(r.ok for r in responses)
            assert [r.result[0] for r in responses] == oracle
            assert [r.coalesced for r in responses] == [6] * 6
            snapshot = service.stats()
            assert snapshot["coalescing"]["batches"] == 1
            assert snapshot["coalescing"]["batched_requests"] == 6

    def test_rlwe_coalesced_bit_identical(self):
        params = RLWEParams(n=64, t=64, noise_bound=4)
        engine = Engine()
        scheme = engine.fhe(params, rng=random.Random(13))
        secret = scheme.generate_secret()
        rng = random.Random(17)
        messages = [
            [rng.randrange(params.t) for _ in range(params.n)]
            for _ in range(4)
        ]
        plains = [
            [rng.randrange(params.t) for _ in range(params.n)]
            for _ in range(4)
        ]
        cts = [scheme.encrypt(secret, m) for m in messages]
        engine.close()
        with _service(coalesce=False) as service:
            client = ServiceClient(service)
            oracle = [
                client.call(
                    RLWEMultiplyPlainJob(
                        params=params, ciphertexts=[ct], plains=[plain]
                    )
                ).result[0]
                for ct, plain in zip(cts, plains)
            ]
        with _service() as service:
            client = ServiceClient(service)
            with service.scheduler.paused():
                futures = [
                    client.submit(
                        RLWEMultiplyPlainJob(
                            params=params, ciphertexts=[ct], plains=[plain]
                        ),
                        tenant=f"t{i}",
                    )
                    for i, (ct, plain) in enumerate(zip(cts, plains))
                ]
            responses = [f.result(timeout=30) for f in futures]
        assert all(r.ok for r in responses)
        assert {r.coalesced for r in responses} == {4}
        for response, want in zip(responses, oracle):
            got = response.result[0]
            assert np.array_equal(got.c0, want.c0)
            assert np.array_equal(got.c1, want.c1)

    def test_rlwe_ct_multiply_coalesced_bit_identical(self):
        from repro.fhe.rlwe import default_rns_primes

        params = RLWEParams(
            n=64,
            t=17,
            noise_bound=4,
            rns_primes=default_rns_primes(64, 17, 2),
        )
        engine = Engine()
        scheme = engine.fhe(params, rng=random.Random(19))
        keys = scheme.keygen()
        rng = random.Random(23)
        messages = [
            [rng.randrange(params.t) for _ in range(params.n)]
            for _ in range(8)
        ]
        cts = scheme.encrypt_many(keys, messages)
        pairs = [(cts[i], cts[i + 1]) for i in range(0, 8, 2)]
        engine.close()
        with _service(coalesce=False) as service:
            client = ServiceClient(service)
            oracle = [
                client.call(
                    RLWEMultiplyJob(params=params, relin=keys, pairs=[pair])
                ).result[0]
                for pair in pairs
            ]
        with _service() as service:
            client = ServiceClient(service)
            with service.scheduler.paused():
                futures = [
                    client.submit(
                        RLWEMultiplyJob(
                            params=params, relin=keys, pairs=[pair]
                        ),
                        tenant=f"t{i}",
                    )
                    for i, pair in enumerate(pairs)
                ]
            responses = [f.result(timeout=30) for f in futures]
        assert all(r.ok for r in responses)
        assert {r.coalesced for r in responses} == {4}
        for response, want in zip(responses, oracle):
            got = response.result[0]
            assert np.array_equal(got.c0, want.c0)
            assert np.array_equal(got.c1, want.c1)

    def test_rlwe_ct_multiply_different_keysets_do_not_merge(self):
        params = RLWEParams(n=64, t=17, noise_bound=4)
        scheme_a = Engine().fhe(params, rng=random.Random(31))
        keys_a = scheme_a.keygen()
        scheme_b = Engine().fhe(params, rng=random.Random(32))
        keys_b = scheme_b.keygen()
        ct_a = scheme_a.encrypt(keys_a, [1] * params.n)
        ct_b = scheme_b.encrypt(keys_b, [1] * params.n)
        with _service() as service:
            client = ServiceClient(service)
            with service.scheduler.paused():
                f_a = client.submit(
                    RLWEMultiplyJob(
                        params=params, relin=keys_a, pairs=[(ct_a, ct_a)]
                    ),
                    tenant="alice",
                )
                f_b = client.submit(
                    RLWEMultiplyJob(
                        params=params, relin=keys_b, pairs=[(ct_b, ct_b)]
                    ),
                    tenant="bob",
                )
            r_a = f_a.result(timeout=30)
            r_b = f_b.result(timeout=30)
        assert r_a.ok and r_b.ok
        assert r_a.coalesced == 1 and r_b.coalesced == 1

    def test_different_keys_do_not_merge(self):
        with _service() as service:
            client = ServiceClient(service)
            with service.scheduler.paused():
                f_small = client.submit(MultiplyJob.of(3, 5))
                f_ring = client.submit(
                    RingTransformJob(n=8, values=[list(range(8))])
                )
            r_small = f_small.result(timeout=30)
            r_ring = f_ring.result(timeout=30)
        assert r_small.ok and r_ring.ok
        assert r_small.coalesced == 1 and r_ring.coalesced == 1

    def test_item_budget_caps_batches(self):
        with _service(max_coalesce_items=4) as service:
            client = ServiceClient(service)
            with service.scheduler.paused():
                futures = [
                    client.submit(MultiplyJob.of(i, i + 1))
                    for i in range(10)
                ]
            responses = [f.result(timeout=30) for f in futures]
        assert all(r.ok for r in responses)
        assert max(r.coalesced for r in responses) <= 4


# -- priorities and fairness -----------------------------------------------


class TestPriorityAndFairness:
    def test_priority_orders_dispatch(self):
        order = []
        with _service(coalesce=False) as service:
            client = ServiceClient(service)
            with service.scheduler.paused():
                futures = {
                    prio: client.submit(
                        MultiplyJob.of(prio + 2, 3), priority=prio
                    )
                    for prio in (0, 5, 1)
                }
                for prio, future in futures.items():
                    future.add_done_callback(
                        lambda _f, p=prio: order.append(p)
                    )
            for future in futures.values():
                assert future.result(timeout=30).ok
        assert order == [5, 1, 0]

    def test_hog_tenant_cannot_starve_light_tenant(self):
        """The backpressure acceptance: bounded, typed, p99 ≤ 2×.

        A hog floods tiny single-item multiplies open-loop while a
        light tenant runs a closed loop of heavier batched multiplies.
        Queue caps must hold (typed REJECTED for the overflow), and
        the light tenant's loaded p99 must stay within 2× unloaded.
        """
        config = dict(
            max_queue_per_tenant=32,
            max_queue_global=64,
            max_coalesce_requests=8,
            max_coalesce_items=8,
            weights={"light": 4.0},
        )
        rng = random.Random(7)
        pairs = [
            (rng.getrandbits(2048) | 1, rng.getrandbits(2048) | 1)
            for _ in range(8)
        ]

        def measure(client, samples, depths=None):
            latencies = []
            for _ in range(samples):
                start = time.perf_counter()
                response = client.call(
                    MultiplyJob.batched(pairs), tenant="light"
                )
                latencies.append(time.perf_counter() - start)
                assert response.ok
                if depths is not None:
                    depths.append(client.service.scheduler.queue_depth)
            return latencies

        with _service(**config) as service:
            client = ServiceClient(service)
            measure(client, 3)  # warm plans and pools
            unloaded = measure(client, 12)

            stop = threading.Event()
            rejected = {
                REJECT_TENANT_FULL: 0,
                REJECT_GLOBAL_FULL: 0,
            }
            accepted_futures = []

            def flood():
                while not stop.is_set():
                    future = service.submit(
                        MultiplyJob.of(3, 5), tenant="hog"
                    )
                    if future.done():
                        response = future.result()
                        if response.rejected:
                            rejected[response.error] += 1
                            time.sleep(0.0005)
                            continue
                    accepted_futures.append(future)

            hog = threading.Thread(target=flood, daemon=True)
            hog.start()
            depths = []
            try:
                loaded = measure(client, 12, depths)
            finally:
                stop.set()
                hog.join(timeout=30)

            # Bounded: the queue never exceeded the global cap, and the
            # overflow came back as *typed* rejections, immediately.
            assert max(depths) <= config["max_queue_global"]
            assert sum(rejected.values()) > 0
            # Isolated: the light tenant's tail is within 2x unloaded
            # (floor guards sub-25ms baselines against timer noise).
            unloaded_p99 = percentile(sorted(unloaded), 0.99)
            loaded_p99 = percentile(sorted(loaded), 0.99)
            assert loaded_p99 <= 2.0 * max(unloaded_p99, 0.025), (
                f"hog starved the light tenant: loaded p99 "
                f"{loaded_p99 * 1e3:.1f}ms vs unloaded "
                f"{unloaded_p99 * 1e3:.1f}ms"
            )
            for future in accepted_futures:
                assert future.result(timeout=60).ok


# -- backpressure ----------------------------------------------------------


class TestBackpressure:
    def test_caps_are_typed_and_bounded(self):
        with _service(
            max_queue_per_tenant=3, max_queue_global=5
        ) as service:
            client = ServiceClient(service)
            with service.scheduler.paused():
                alice = [
                    client.submit(MultiplyJob.of(i, 2), tenant="a")
                    for i in range(5)
                ]
                bob = [
                    client.submit(MultiplyJob.of(i, 3), tenant="b")
                    for i in range(4)
                ]
                # Tenant cap: alice's 4th/5th rejected immediately.
                tenant_rejects = [
                    f.result() for f in alice[3:] if f.done()
                ]
                assert len(tenant_rejects) == 2
                assert {r.status for r in tenant_rejects} == {
                    STATUS_REJECTED
                }
                assert {r.error for r in tenant_rejects} == {
                    REJECT_TENANT_FULL
                }
                # Global cap: 3 + 2 fills it; bob's later submits get
                # the *global* rejection.
                global_rejects = [
                    f.result() for f in bob[2:] if f.done()
                ]
                assert len(global_rejects) == 2
                assert {r.error for r in global_rejects} == {
                    REJECT_GLOBAL_FULL
                }
                assert service.scheduler.queue_depth == 5
            # Resume: everything admitted completes normally.
            for future in alice[:3] + bob[:2]:
                assert future.result(timeout=30).ok
            snapshot = service.stats()
            assert snapshot["totals"]["rejected"] == 4
            assert snapshot["tenants"]["a"]["rejected"] == 2

    def test_submit_after_shutdown_rejected(self):
        service = _service()
        client = ServiceClient(service)
        assert client.call(MultiplyJob.of(2, 3)).ok
        service.shutdown()
        response = client.call(MultiplyJob.of(5, 7))
        assert response.status == STATUS_REJECTED
        assert response.error == REJECT_SHUTDOWN


# -- faults and deadlines --------------------------------------------------


class TestFaultsAndDeadlines:
    def test_worker_kill_propagates_fault_events(self):
        service = ComputeService(
            ExecutionConfig(workers=2),
            backend="software-mp",
            config=ServiceConfig(),
        )
        try:
            client = ServiceClient(service)
            pairs = [(3 << 64, 5), (7, 11 << 32)]
            truth = [a * b for a, b in pairs]
            # Warm the pool so the kill hits an established worker.
            assert client.call(MultiplyJob.batched(pairs)).result == truth
            with faultinject.inject("worker-kill:0"):
                response = client.call(MultiplyJob.batched(pairs))
            assert response.ok and response.result == truth
            assert any(
                "worker-crash" in event
                for event in response.fault_events
            ), response.fault_events
        finally:
            service.shutdown()

    def test_job_timeout_stops_the_shard_wait(self):
        """A serve job deadline reaches the ``software-mp`` shard wait:
        a delayed shard is abandoned at the deadline, not waited out,
        and the next request runs on a fresh pool."""
        service = ComputeService(
            ExecutionConfig(workers=2),
            backend="software-mp",
            config=ServiceConfig(job_timeout_s=0.5),
        )
        try:
            client = ServiceClient(service)
            pairs = [(3 << 64, 5), (7, 11 << 32), (13, 17), (19, 23 << 96)]
            truth = [a * b for a, b in pairs]
            backend = service.jobs.engine.backend
            # Build the pool outside any deadline.
            assert service.jobs.engine.multiply(
                [a for a, _ in pairs], [b for _, b in pairs]
            ) == truth
            with faultinject.inject("shard-delay:0:3"):
                start = time.monotonic()
                response = client.call(MultiplyJob.batched(pairs))
                elapsed = time.monotonic() - start
            assert response.status == STATUS_TIMEOUT
            assert elapsed < 2.5
            assert any(
                "[timeout]" in event for event in response.fault_events
            ), response.fault_events
            generation = backend.pool_generation
            again = client.call(MultiplyJob.batched(pairs))
            assert again.ok and again.result == truth
            assert backend.pool_generation == generation + 1
        finally:
            service.shutdown()

    def test_queued_request_times_out_typed(self):
        with _service() as service:
            client = ServiceClient(service)
            with service.scheduler.paused():
                future = client.submit(MultiplyJob.of(3, 5), timeout=0.05)
                time.sleep(0.15)
            response = future.result(timeout=30)
        assert response.status == STATUS_TIMEOUT
        assert response.error_type == JobTimeoutError.__name__


# -- drain and shutdown ----------------------------------------------------


class _SleepJob:
    kind = "sleep"

    def __init__(self, seconds):
        self.seconds = seconds

    def run(self, engine):
        time.sleep(self.seconds)
        return "slept"


class TestDrainAndShutdown:
    def test_drain_waits_and_returns_dead_letters(self):
        with JobScheduler(Engine()) as jobs:
            handles = [
                jobs.submit(MultiplyJob.of(i, i + 1)) for i in range(4)
            ]
            dead = jobs.drain(timeout=30)
            assert dead == []
            assert all(h.done() for h in handles)
            # The scheduler is still usable after draining.
            assert jobs.submit(MultiplyJob.of(6, 7)).result() == [42]

    def test_drain_timeout_raises(self):
        with JobScheduler(Engine()) as jobs:
            handle = jobs.submit(_SleepJob(0.5))
            with pytest.raises(JobTimeoutError):
                jobs.drain(timeout=0.05)
            assert handle.result(timeout=30) == "slept"

    def test_shutdown_with_in_flight_jobs_is_clean(self):
        service = _service()
        client = ServiceClient(service)
        futures = [
            client.submit(MultiplyJob.of(i + 2, i + 5))
            for i in range(8)
        ]
        dead = service.shutdown(drain=True, timeout=60)
        assert dead == []
        for i, future in enumerate(futures):
            response = future.result(timeout=1)
            assert response.ok
            assert response.result == [(i + 2) * (i + 5)]

    def test_shutdown_without_drain_rejects_queued(self):
        service = _service()
        client = ServiceClient(service)
        with service.scheduler.paused():
            futures = [
                client.submit(MultiplyJob.of(i, 2)) for i in range(4)
            ]
            service.shutdown(drain=False, timeout=30)
        statuses = {f.result(timeout=5).status for f in futures}
        assert statuses <= {STATUS_REJECTED, STATUS_OK}
        assert STATUS_REJECTED in statuses


# -- TCP front end (asyncio) -----------------------------------------------


async def _on_client(port, call, **client_kwargs):
    """Run ``call(client)`` on a fresh :class:`TCPServiceClient`, off the
    event loop, so the server keeps serving on the test's loop."""

    def run():
        with TCPServiceClient(port=port, **client_kwargs) as client:
            client._sock.settimeout(30)  # a lost frame fails, never hangs
            return call(client)

    return await asyncio.to_thread(run)


class TestTCPService:
    def test_concurrent_multi_tenant_clients(self):
        service = _service()

        def pipelined(client):
            # All 6 requests are in flight before the first wait.
            ids = [
                client.send("multiply", {"pairs": [[i + 2, i + 3]]})
                for i in range(6)
            ]
            return [client.wait(request_id) for request_id in ids]

        async def scenario():
            server = await ServiceServer(service, port=0).start()
            loads = await asyncio.gather(
                *(
                    _on_client(server.port, pipelined, tenant=name)
                    for name in ("alice", "bob", "carol")
                )
            )
            snapshot = await _on_client(
                server.port, TCPServiceClient.stats
            )
            server.request_stop()
            await server.serve_until_done()
            return loads, snapshot

        try:
            loads, snapshot = asyncio.run(scenario())
        finally:
            service.shutdown()
        for responses in loads:
            assert all(r.ok for r in responses)
            for i, response in enumerate(responses):
                assert response.result == [(i + 2) * (i + 3)]
        assert set(snapshot["tenants"]) >= {"alice", "bob", "carol"}
        assert snapshot["totals"]["completed"] == 18

    @pytest.mark.parametrize("control", ["stats", "ping"])
    def test_control_call_keeps_pipelined_response(self, control):
        """A ``response`` frame that arrives ahead of the ``stats`` or
        ``pong`` reply is kept for the later ``wait``."""
        service = _service()

        def scenario_client(client):
            request_id = client.send("multiply", {"pairs": [[6, 7]]})
            # The reply is waiting in the socket before the control call.
            readable, _, _ = select.select([client._sock], [], [], 30)
            assert readable
            if control == "stats":
                assert client.stats()["totals"]["completed"] == 1
            else:
                assert client.ping()
            return client.wait(request_id)

        async def scenario():
            server = await ServiceServer(service, port=0).start()
            response = await _on_client(server.port, scenario_client)
            server.request_stop()
            await server.serve_until_done()
            return response

        try:
            response = asyncio.run(scenario())
        finally:
            service.shutdown()
        assert response.ok and response.result == [42]

    def test_tcp_rlwe_multiply_roundtrip(self):
        """Wire-level smoke: keygen → encrypt → submit rlwe-multiply
        over TCP → decode → decrypt equals the schoolbook product."""
        from repro.fhe.rlwe import RLWECiphertext
        from repro.field.vector import to_field_matrix

        scheme, keys, (m1, m2), payload = _rlwe_wire_request()
        params = scheme.params
        service = _service()

        async def scenario():
            server = await ServiceServer(service, port=0).start()
            response = await _on_client(
                server.port,
                lambda client: client.request("rlwe-multiply", payload),
                tenant="tcp-rlwe",
            )
            server.request_stop()
            await server.serve_until_done()
            return response

        try:
            response = asyncio.run(scenario())
        finally:
            service.shutdown()
        assert response.ok
        (raw_c0, raw_c1), = response.result
        product = RLWECiphertext(
            c0=to_field_matrix(raw_c0),
            c1=to_field_matrix(raw_c1),
            params=params,
            level=2,
        )
        truth = [0] * params.n
        for i in range(params.n):
            for j in range(params.n):
                k = i + j
                if k < params.n:
                    truth[k] += m1[i] * m2[j]
                else:
                    truth[k - params.n] -= m1[i] * m2[j]
        truth = [x % params.t for x in truth]
        assert scheme.decrypt(keys, product) == truth

    def test_tcp_bad_payload_is_typed_error(self):
        service = _service()

        async def scenario():
            server = await ServiceServer(service, port=0).start()
            response = await _on_client(
                server.port,
                lambda client: client.request(
                    "multiply", {"pairs": "nope"}
                ),
            )
            server.request_stop()
            await server.serve_until_done()
            return response

        try:
            response = asyncio.run(scenario())
        finally:
            service.shutdown()
        assert response.status == "error"
        assert response.error_type == "ProtocolError"

    def test_tcp_out_of_range_residues_are_typed_errors(self):
        """Each bad residue gets a typed error naming its channel, and
        the same connection then serves a valid request."""
        _, _, _, payload = _rlwe_wire_request()
        bad_payloads = [
            _with_bad_residue(payload, bad, where)
            for bad in BAD_RESIDUES
            for where in ("ciphertext", "relin")
        ]
        service = _service()

        def requests(client):
            rejected = [
                client.request("rlwe-multiply", bad) for bad in bad_payloads
            ]
            return rejected, client.request("rlwe-multiply", payload)

        async def scenario():
            server = await ServiceServer(service, port=0).start()
            result = await _on_client(server.port, requests)
            server.request_stop()
            await server.serve_until_done()
            return result

        try:
            rejected, accepted = asyncio.run(scenario())
        finally:
            service.shutdown()
        for response in rejected:
            assert response.status == "error"
            assert response.error_type == "ProtocolError"
            assert "channel 1 " in response.error
        assert accepted.ok

    def test_tcp_operand_past_digit_limit_is_typed_error(self):
        """A 5,000-digit operand gets the typed ``error`` frame that bad
        JSON gets, and the server keeps answering new connections."""
        body = (
            '{"type":"submit","id":1,"op":"multiply","payload":'
            '{"pairs":[[' + "7" * 5000 + ",3]]}}"
        ).encode()
        service = _service()

        async def scenario():
            server = await ServiceServer(service, port=0).start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(len(body).to_bytes(4, "big") + body)
            await writer.drain()
            reply = await asyncio.wait_for(read_frame(reader), 30)
            writer.close()
            after = await _on_client(
                server.port,
                lambda client: client.request(
                    "multiply", {"pairs": [[6, 7]]}
                ),
            )
            server.request_stop()
            await server.serve_until_done()
            return reply, after

        try:
            reply, after = asyncio.run(scenario())
        finally:
            service.shutdown()
        assert reply is not None and reply["type"] == "error"
        assert "4300 digits" in reply["error"]
        assert after.ok and after.result == [42]

    def test_tcp_product_past_digit_limit_is_typed_error(self):
        """Two 4,000-digit operands decode, but their 8,000-digit
        product cannot be encoded: the client gets a typed error
        response, the request counts towards ``max_requests``, and a
        new connection is answered."""
        a, b = 10**3999 + 7, 10**3999 + 9
        service = _service()

        async def scenario():
            server = await ServiceServer(
                service, port=0, max_requests=2
            ).start()
            big = await _on_client(
                server.port,
                lambda client: client.request(
                    "multiply", {"pairs": [[a, b]]}
                ),
            )
            after = await _on_client(
                server.port,
                lambda client: client.request(
                    "multiply", {"pairs": [[6, 7]]}
                ),
            )
            # Both requests counted: max_requests=2 stops the server.
            await asyncio.wait_for(server.serve_until_done(), 30)
            return big, after

        try:
            big, after = asyncio.run(scenario())
        finally:
            service.shutdown()
        assert big.status == "error"
        assert big.error_type == "ProtocolError"
        assert "4300 digits" in big.error
        assert after.ok and after.result == [42]


# -- signals ---------------------------------------------------------------

#: Runs ``run_server`` (the body of ``repro serve``) once per signal
#: number in argv; each time ``on_ready`` sends that signal to the
#: dispatcher thread while the event loop sits idle.
_SIGNAL_SCRIPT = """
import signal, sys, threading, time
from repro.serve import run_server

def on_ready(server):
    dispatch = next(
        t for t in threading.enumerate() if t.name == "repro-serve-dispatch"
    )

    def fire():
        time.sleep(0.2)
        signal.pthread_kill(dispatch.ident, signum)

    threading.Thread(target=fire, daemon=True).start()

for signum in map(int, sys.argv[1:]):
    run_server(port=0, on_ready=on_ready)
    print("stopped", signal.Signals(signum).name, flush=True)
"""


class TestSignals:
    def test_signal_on_non_main_thread_stops_server(self):
        """The kernel may deliver a process-directed signal to any
        thread; SIGINT and SIGTERM must still drain and stop the
        server promptly."""
        src = Path(__file__).parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(src) + os.pathsep + env.get("PYTHONPATH", "")
        )
        signums = [signal.SIGINT, signal.SIGTERM]
        process = subprocess.Popen(
            [sys.executable, "-c", _SIGNAL_SCRIPT]
            + [str(int(signum)) for signum in signums],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            output, _ = process.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            process.kill()
            output, _ = process.communicate()
            pytest.fail(f"server still running after 20 s: {output!r}")
        assert process.returncode == 0, output
        assert output.split() == ["stopped", "SIGINT", "stopped", "SIGTERM"]
