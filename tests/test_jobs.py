"""Tests for the jobs layer (ISSUE 4): ``repro.jobs`` and ``software-mp``.

Covers futures-style submission (submit/map/as_completed, ordering,
exception propagation, shutdown), the job types over every workload of
the stack (SSA, ring, DGHV, RLWE), and the sharded ``software-mp``
backend's bit-identity with ``software`` over mixed batch shapes.
"""

import dataclasses
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine, ExecutionConfig
from repro.field.solinas import P
from repro.fhe.dghv import DGHV
from repro.fhe.params import TOY
from repro.fhe.rlwe import RLWE, RLWEParams, default_rns_primes
from repro.jobs import (
    JOB_TYPES,
    ConvolveJob,
    DGHVMultJob,
    JobScheduler,
    MultiplyJob,
    RingTransformJob,
    RLWEMultiplyJob,
    RLWEMultiplyPlainJob,
    as_completed,
)
from repro.ssa.multiplier import split_batch


@pytest.fixture(scope="module")
def mp_engine():
    """One software-mp engine for the whole module (pool reuse)."""
    engine = Engine(
        config=ExecutionConfig(workers=2), backend="software-mp"
    )
    yield engine
    engine.close()


def _pairs(rng, count, bits=512):
    return [
        (rng.getrandbits(bits), rng.getrandbits(bits))
        for _ in range(count)
    ]


class TestSplitBatch:
    def test_balanced_contiguous(self):
        slices = split_batch(7, 3)
        assert slices == [slice(0, 3), slice(3, 5), slice(5, 7)]

    def test_never_empty_never_more_than_count(self):
        for count in range(0, 9):
            for shards in range(1, 6):
                slices = split_batch(count, shards)
                assert len(slices) == min(count, shards)
                items = [i for s in slices for i in range(s.start, s.stop)]
                assert items == list(range(count))

    def test_validation(self):
        with pytest.raises(ValueError):
            split_batch(-1, 2)
        with pytest.raises(ValueError):
            split_batch(4, 0)


class TestSubmit:
    def test_submit_returns_immediately_resolves_correctly(self):
        with JobScheduler(Engine()) as jobs:
            handle = jobs.submit(MultiplyJob.of(6, 7))
            assert handle.result() == [42]
            assert handle.done()
            assert handle.exception() is None
            assert handle.report is None  # software backend: no timing

    def test_submission_order_is_execution_order(self):
        order = []

        class Probe:
            kind = "probe"

            def __init__(self, tag):
                self.tag = tag

            def run(self, engine):
                order.append(self.tag)
                return self.tag

        with JobScheduler(Engine()) as jobs:
            handles = [jobs.submit(Probe(i)) for i in range(8)]
            assert [h.result() for h in handles] == list(range(8))
        assert order == list(range(8))

    def test_exception_propagates(self):
        class Boom:
            kind = "boom"

            def run(self, engine):
                raise RuntimeError("kaput")

        with JobScheduler(Engine()) as jobs:
            handle = jobs.submit(Boom())
            with pytest.raises(RuntimeError, match="kaput"):
                handle.result()
            assert isinstance(handle.exception(), RuntimeError)
            # The queue survives a failing job.
            assert jobs.submit(MultiplyJob.of(2, 3)).result() == [6]

    def test_non_job_rejected(self):
        with JobScheduler(Engine()) as jobs:
            with pytest.raises(TypeError, match="run"):
                jobs.submit(object())

    def test_hw_model_jobs_carry_reports(self):
        with JobScheduler(Engine(backend="hw-model")) as jobs:
            handle = jobs.submit(MultiplyJob.batched([(3, 5), (7, 11)]))
            assert handle.result() == [15, 77]
            assert isinstance(handle.report, list)
            assert all(r.total_cycles > 0 for r in handle.report)


class TestSchedulerLifecycle:
    def test_construct_from_config(self):
        scheduler = JobScheduler(ExecutionConfig(batch_chunk=3))
        try:
            assert scheduler.engine.config.batch_chunk == 3
            assert scheduler.submit(MultiplyJob.of(4, 5)).result() == [20]
        finally:
            scheduler.shutdown()

    def test_construct_from_none_with_backend(self):
        scheduler = JobScheduler(backend="hw-model")
        try:
            assert scheduler.engine.backend.name == "hw-model"
        finally:
            scheduler.shutdown()

    def test_backend_kwarg_conflicts_with_engine(self):
        with pytest.raises(ValueError, match="backend"):
            JobScheduler(Engine(), backend="hw-model")

    def test_bad_source_type(self):
        with pytest.raises(TypeError):
            JobScheduler(42)

    def test_shutdown_drains_then_rejects(self):
        jobs = JobScheduler(Engine())
        handle = jobs.submit(MultiplyJob.of(9, 9))
        jobs.shutdown(wait=True)
        assert handle.result() == [81]
        assert not jobs.active
        with pytest.raises(RuntimeError, match="shut down"):
            jobs.submit(MultiplyJob.of(1, 1))
        jobs.shutdown()  # idempotent

    def test_engine_scheduler_is_lazy_and_rebuilt_after_close(self):
        engine = Engine()
        assert engine._scheduler is None
        first = engine.scheduler()
        assert engine.scheduler() is first
        assert engine.submit(MultiplyJob.of(2, 2)).result() == [4]
        engine.close()
        assert engine._scheduler is None
        # close() is idempotent and the engine recovers lazily
        engine.close()
        assert engine.map("multiply", [(2, 3)]) == [6]
        engine.close()

    def test_engine_context_manager(self):
        with Engine() as engine:
            assert engine.submit(MultiplyJob.of(3, 3)).result() == [9]

    def test_shutdown_closes_privately_built_engine(self):
        scheduler = JobScheduler(
            ExecutionConfig(workers=2), backend="software-mp"
        )
        pairs = _pairs(random.Random(51), 4, bits=256)
        assert scheduler.submit(MultiplyJob.batched(pairs)).result() == [
            a * b for a, b in pairs
        ]
        assert scheduler.engine.backend._pool is not None
        scheduler.shutdown()
        assert scheduler.engine.backend._pool is None

    def test_shutdown_leaves_caller_owned_engine_open(self):
        engine = Engine(
            config=ExecutionConfig(workers=2), backend="software-mp"
        )
        try:
            pairs = _pairs(random.Random(53), 4, bits=256)
            left = [a for a, _ in pairs]
            right = [b for _, b in pairs]
            with JobScheduler(engine) as jobs:
                jobs.submit(MultiplyJob.batched(pairs)).result()
            # The scheduler must not tear down an engine it was handed.
            assert engine.backend._pool is not None
            assert engine.multiply(left, right) == [
                a * b for a, b in pairs
            ]
        finally:
            engine.close()

    def test_shutdown_nowait_closes_owned_engine_after_drain(self):
        import time

        scheduler = JobScheduler(
            ExecutionConfig(workers=2), backend="software-mp"
        )
        pairs = _pairs(random.Random(57), 4, bits=256)
        handle = scheduler.submit(MultiplyJob.batched(pairs))
        scheduler.shutdown(wait=False)  # must not block on the queue
        assert handle.result() == [a * b for a, b in pairs]
        deadline = time.monotonic() + 30
        while (
            scheduler.engine.backend._pool is not None
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        assert scheduler.engine.backend._pool is None

    def test_failed_job_does_not_inherit_previous_report(self):
        class Boom:
            kind = "boom"

            def run(self, engine):
                raise RuntimeError("no backend call made")

        with JobScheduler(Engine(backend="hw-model")) as jobs:
            good = jobs.submit(MultiplyJob.of(3, 5))
            assert good.result() == [15]
            assert good.report is not None
            bad = jobs.submit(Boom())
            with pytest.raises(RuntimeError):
                bad.result()
            assert bad.report is None  # not the previous job's report

    def test_reports_are_per_thread(self):
        """A job's report never clobbers the caller's last_report."""
        engine = Engine(backend="hw-model")
        engine.multiply(3, 5)
        own_report = engine.last_report
        assert own_report is not None
        with JobScheduler(engine) as jobs:
            handle = jobs.submit(MultiplyJob.batched([(7, 11), (13, 17)]))
            assert handle.result() == [77, 221]
        assert isinstance(handle.report, list)  # the job's own reports
        assert len(handle.report) == 2
        # ...while this thread still sees its own single-product report.
        assert engine.last_report is own_report


class TestMap:
    def test_map_ordered_and_flattened(self):
        rng = random.Random(1)
        pairs = _pairs(rng, 10)
        truth = [a * b for a, b in pairs]
        with JobScheduler(Engine()) as jobs:
            assert jobs.map("multiply", pairs, chunk=3) == truth
            assert jobs.map("multiply", pairs, chunk=100) == truth
            assert jobs.map("multiply", []) == []

    def test_map_chunk_validation_and_unknown_op(self):
        with JobScheduler(Engine()) as jobs:
            with pytest.raises(ValueError, match="chunk"):
                jobs.map("multiply", [(1, 2)], chunk=0)
            with pytest.raises(ValueError, match="unknown map op"):
                jobs.map("warp", [(1, 2)])

    def test_map_with_callable_factory(self):
        pairs = [(2, 3), (4, 5), (6, 7)]
        with JobScheduler(Engine()) as jobs:
            got = jobs.map(
                lambda chunk: MultiplyJob.batched(chunk), pairs, chunk=2
            )
        assert got == [6, 20, 42]

    def test_map_callable_receives_kwargs(self):
        """Extra kwargs reach a callable op (never silently dropped)."""
        rng = np.random.default_rng(7)
        rows = rng.integers(0, P, size=(4, 64), dtype=np.uint64)
        engine = Engine()
        oracle = engine.ring(64).negacyclic_forward(rows)
        with JobScheduler(engine) as jobs:
            got = jobs.map(
                lambda chunk, negacyclic: RingTransformJob(
                    n=64, values=np.vstack(chunk), negacyclic=negacyclic
                ),
                list(rows),
                chunk=2,
                negacyclic=True,
            )
            assert np.array_equal(got, oracle)
            # a callable that accepts no kwargs raises instead of
            # silently ignoring the caller's parameters
            with pytest.raises(TypeError):
                jobs.map(
                    lambda chunk: MultiplyJob.batched(chunk),
                    [(1, 2)],
                    x0=99,
                )

    def test_map_ring_rows_restacked(self):
        rng = np.random.default_rng(5)
        rows = rng.integers(0, P, size=(6, 64), dtype=np.uint64)
        engine = Engine()
        oracle = engine.ring(64).forward(rows)
        with JobScheduler(engine) as jobs:
            got = jobs.map("ring-transform", list(rows), chunk=2, n=64)
            assert isinstance(got, np.ndarray)
            assert np.array_equal(got, oracle)
            back = jobs.map(
                "ring-transform", list(got), chunk=4, n=64, inverse=True
            )
            assert np.array_equal(back, rows)

    def test_map_over_a_job_type_forwards_kwargs(self):
        """A string op names a job type: each chunk fills its first
        batch field and the kwargs go to the job."""
        params = RLWEParams(
            n=64, t=17, noise_bound=4, rns_primes=default_rns_primes(64, 17, 2)
        )
        engine = Engine()
        scheme = engine.fhe(params, rng=random.Random(71))
        keys = scheme.keygen()
        rng = random.Random(72)
        cts = scheme.encrypt_many(
            keys, [[rng.randrange(17) for _ in range(64)] for _ in range(6)]
        )
        pairs = list(zip(cts[::2], cts[1::2]))
        oracle = scheme.multiply_many(keys, pairs)
        with JobScheduler(engine) as jobs:
            got = jobs.map(
                "rlwe-multiply", pairs, chunk=2, params=params, relin=keys
            )
        assert len(got) == len(oracle) == 3
        for got_ct, want_ct in zip(got, oracle):
            assert np.array_equal(got_ct.c0, want_ct.c0)
            assert np.array_equal(got_ct.c1, want_ct.c1)

    def test_map_op_names_are_the_job_types(self):
        with JobScheduler(Engine()) as jobs:
            for retired in ("ring-forward", "ring-inverse"):
                with pytest.raises(ValueError, match="unknown map op"):
                    jobs.map(retired, [np.zeros(8, np.uint64)], n=8)
            # a kwarg the job does not take is an error, not ignored
            with pytest.raises(TypeError):
                jobs.map("multiply", [(1, 2)], n=8)

    def test_as_completed_yields_every_handle(self):
        pairs = _pairs(random.Random(2), 6, bits=128)
        with JobScheduler(Engine()) as jobs:
            handles = jobs.submit_map("multiply", pairs, chunk=2)
            seen = {h.job_id for h in as_completed(handles)}
        assert seen == {h.job_id for h in handles}
        assert [h.result() for h in handles] == [
            [a * b for a, b in pairs[i : i + 2]]
            for i in range(0, len(pairs), 2)
        ]

    def test_default_chunk_covers_items(self):
        with JobScheduler(Engine()) as jobs:
            assert jobs.default_chunk(10) >= 1
            pairs = _pairs(random.Random(3), 5, bits=64)
            assert jobs.map("multiply", pairs) == [a * b for a, b in pairs]


class TestFHEJobs:
    def test_dghv_layer_through_queue(self):
        engine = Engine()
        scheme = engine.fhe(TOY, rng=random.Random(11))
        keys = scheme.generate_keys()
        plain = [(0, 0), (0, 1), (1, 0), (1, 1)]
        pairs = [
            (scheme.encrypt(keys, a), scheme.encrypt(keys, b))
            for a, b in plain
        ]
        with JobScheduler(engine) as jobs:
            handle = jobs.submit(
                DGHVMultJob(pairs=tuple(pairs), x0=keys.x0)
            )
            ands = handle.result()
            mapped = jobs.map("dghv-mult", pairs, chunk=2, x0=keys.x0)
        assert [scheme.decrypt(keys, c) for c in ands] == [0, 0, 0, 1]
        assert [scheme.decrypt(keys, c) for c in mapped] == [0, 0, 0, 1]

    def test_rlwe_multiply_plain_job_matches_scheme(self):
        params = RLWEParams(n=64, t=64, noise_bound=4)
        engine = Engine()
        scheme = engine.fhe(params, rng=random.Random(13))
        secret = scheme.generate_secret()
        rng = random.Random(17)
        messages = [
            [rng.randrange(params.t) for _ in range(params.n)]
            for _ in range(3)
        ]
        plains = [
            [rng.randrange(params.t) for _ in range(params.n)]
            for _ in range(3)
        ]
        cts = [scheme.encrypt(secret, m) for m in messages]
        oracle = scheme.multiply_plain_many(cts, plains)
        with JobScheduler(engine) as jobs:
            got = jobs.submit(
                RLWEMultiplyPlainJob(
                    params=params,
                    ciphertexts=tuple(cts),
                    plains=tuple(tuple(p) for p in plains),
                )
            ).result()
        for got_ct, want_ct in zip(got, oracle):
            assert np.array_equal(got_ct.c0, want_ct.c0)
            assert np.array_equal(got_ct.c1, want_ct.c1)

    def test_convolve_job_matches_ring(self):
        rng = np.random.default_rng(19)
        a = rng.integers(0, P, size=(3, 64), dtype=np.uint64)
        b = rng.integers(0, P, size=(3, 64), dtype=np.uint64)
        engine = Engine()
        oracle = engine.ring(64).convolve(a, b, negacyclic=True)
        with JobScheduler(engine) as jobs:
            got = jobs.submit(
                ConvolveJob(n=64, a=a, b=b, negacyclic=True)
            ).result()
        assert np.array_equal(got, oracle)

    def test_ring_transform_job_negacyclic_roundtrip(self):
        rng = np.random.default_rng(23)
        rows = rng.integers(0, P, size=(2, 64), dtype=np.uint64)
        with JobScheduler(Engine()) as jobs:
            spec = jobs.submit(
                RingTransformJob(n=64, values=rows, negacyclic=True)
            ).result()
            back = jobs.submit(
                RingTransformJob(
                    n=64, values=spec, inverse=True, negacyclic=True
                )
            ).result()
        assert np.array_equal(back, rows)


def _multiply_samples():
    rng = random.Random(61)
    top = 1 << 199
    batches = [
        [(rng.getrandbits(200) | top, rng.getrandbits(200)) for _ in range(k)]
        for k in (1, 3, 2)
    ]
    jobs = [MultiplyJob.batched(pairs) for pairs in batches]
    return jobs, {"pairs": [list(pair) for pair in batches[0]]}


def _ring_samples():
    rng = np.random.default_rng(62)
    rows = [
        rng.integers(0, P, size=(k, 16), dtype=np.uint64) for k in (1, 2, 3)
    ]
    jobs = [
        RingTransformJob(n=16, values=rows[0][0], negacyclic=True),
        RingTransformJob(n=16, values=rows[1], negacyclic=True),
        RingTransformJob(n=16, values=rows[2].tolist(), negacyclic=True),
    ]
    return jobs, {"n": 16, "values": rows[0][0].tolist(), "negacyclic": True}


def _convolve_samples():
    rng = np.random.default_rng(63)
    a = [rng.integers(0, P, size=(k, 16), dtype=np.uint64) for k in (1, 3, 2)]
    b = [rng.integers(0, P, size=(k, 16), dtype=np.uint64) for k in (1, 3, 2)]
    jobs = [ConvolveJob(n=16, a=a[0][0], b=b[0][0], negacyclic=True)] + [
        ConvolveJob(n=16, a=x, b=y, negacyclic=True)
        for x, y in zip(a[1:], b[1:])
    ]
    payload = {
        "n": 16,
        "a": a[0][0].tolist(),
        "b": b[0][0].tolist(),
        "negacyclic": True,
    }
    return jobs, payload


def _dghv_samples():
    scheme = DGHV(TOY, rng=random.Random(64))
    keys = scheme.generate_keys()
    cts = [scheme.encrypt(keys, bit) for bit in (1, 1, 0, 1, 1, 0, 1, 1)]
    pairs = list(zip(cts[::2], cts[1::2]))
    jobs = [
        DGHVMultJob(pairs=chunk, x0=keys.x0)
        for chunk in (pairs[:1], pairs[1:3], pairs[3:])
    ]
    payload = {
        "params": dataclasses.asdict(TOY),
        "x0": keys.x0,
        "pairs": [
            [[a.value, a.noise_bits], [b.value, b.noise_bits]]
            for a, b in pairs[:1]
        ],
    }
    return jobs, payload


def _rlwe_plain_samples():
    params = RLWEParams(n=16, t=17, noise_bound=4)
    scheme = RLWE(params, rng=random.Random(65))
    secret = scheme.generate_secret()
    rng = random.Random(66)
    messages = [[rng.randrange(17) for _ in range(16)] for _ in range(8)]
    cts = scheme.encrypt_many(secret, messages[:4])
    plains = messages[4:]
    jobs = [
        RLWEMultiplyPlainJob(
            params=params, ciphertexts=cts[i:j], plains=plains[i:j]
        )
        for i, j in ((0, 1), (1, 3), (3, 4))
    ]
    payload = {
        "n": 16,
        "t": 17,
        "noise_bound": 4,
        "ciphertexts": [[cts[0].c0.tolist(), cts[0].c1.tolist()]],
        "plains": [plains[0]],
    }
    return jobs, payload


def _rlwe_samples():
    params = RLWEParams(
        n=16, t=17, noise_bound=4, rns_primes=default_rns_primes(16, 17, 2)
    )
    scheme = RLWE(params, rng=random.Random(67))
    keys = scheme.keygen()
    rng = random.Random(68)
    cts = scheme.encrypt_many(
        keys, [[rng.randrange(17) for _ in range(16)] for _ in range(8)]
    )
    pairs = list(zip(cts[::2], cts[1::2]))
    jobs = [
        RLWEMultiplyJob(params=params, relin=keys, pairs=pairs[i:j])
        for i, j in ((0, 1), (1, 3), (3, 4))
    ]
    payload = {
        "n": 16,
        "t": 17,
        "noise_bound": 4,
        "rns_primes": list(params.rns_primes),
        "relin": keys.relin.to_payload(),
        "pairs": [
            [[ct.c0.tolist(), ct.c1.tolist()] for ct in pairs[0]]
        ],
    }
    return jobs, payload


#: Op name -> three same-key jobs and the wire payload of the first.
JOB_SAMPLES = {
    "multiply": _multiply_samples,
    "ring-transform": _ring_samples,
    "convolve": _convolve_samples,
    "dghv-mult": _dghv_samples,
    "rlwe-multiply-plain": _rlwe_plain_samples,
    "rlwe-multiply": _rlwe_samples,
}


def _wire(job, result):
    """``result`` as the service sends it (DGHV noise estimates compare
    by value: a decoded ciphertext carries them as floats)."""
    return json.loads(json.dumps(job.encode_result(result)))


class TestJobTypes:
    """Every registered job type, as a queue job and as a serve op."""

    @pytest.mark.parametrize("kind", sorted(JOB_TYPES))
    def test_merge_run_split_matches_each_job_alone(self, kind):
        jobs, _ = JOB_SAMPLES[kind]()
        job_type = JOB_TYPES[kind]
        assert all(type(job) is job_type for job in jobs)
        assert all(job.coalescible for job in jobs)
        assert len({job.coalesce_key() for job in jobs}) == 1
        merged = job_type.merge(jobs)
        assert merged.count == sum(job.count for job in jobs)
        engine = Engine()
        parts = job_type.split(jobs, merged.run(engine))
        assert [len(part) for part in parts] == [job.count for job in jobs]
        for job, part in zip(jobs, parts):
            assert _wire(job, part) == _wire(job, job.run(engine))

    @pytest.mark.parametrize("kind", sorted(JOB_TYPES))
    def test_payload_roundtrip(self, kind):
        jobs, payload = JOB_SAMPLES[kind]()
        decoded = JOB_TYPES[kind].from_payload(json.loads(json.dumps(payload)))
        assert decoded.kind == decoded.name == kind
        assert decoded.count == jobs[0].count
        assert decoded.coalesce_key() == jobs[0].coalesce_key()
        engine = Engine()
        assert _wire(decoded, decoded.run(engine)) == _wire(
            jobs[0], jobs[0].run(engine)
        )

    @pytest.mark.parametrize("kind", ["ring-transform", "convolve"])
    def test_flat_row_answered_flat(self, kind):
        _, payload = JOB_SAMPLES[kind]()
        job = JOB_TYPES[kind].from_payload(payload)
        assert job.flat and job.count == 1
        encoded = job.encode_result(job.run(Engine()))
        assert len(encoded) == 16 and all(isinstance(v, int) for v in encoded)
        field = "values" if kind == "ring-transform" else "a"
        rows = dict(payload, **{field: [payload[field]]})
        assert JOB_TYPES[kind].from_payload(rows).encode_result(
            job.run(Engine())
        ) == [encoded]

    @pytest.mark.parametrize("flat", [True, False])
    def test_rows_keep_ints_past_int64_exactly(self, flat):
        """A row mixing a value in ``[2^63, 2^64)`` with small ones is
        held exactly, not rounded through float64."""
        big = 2**63 + 5
        row = [big] + list(range(1, 8))
        rows = row if flat else [row]
        job = RingTransformJob(n=8, values=rows)
        conv = ConvolveJob(n=8, a=rows, b=[1] * 8)
        assert job.flat == conv.flat == flat
        assert int(job.values[0, 0]) == big
        assert int(conv.a[0, 0]) == big
        assert job.values[0].tolist() == row

    def test_rlwe_multiply_keeps_only_relin_keys(self):
        from repro.fhe.rlwe import RelinKeys

        jobs, _ = _rlwe_samples()
        assert all(isinstance(job.relin, RelinKeys) for job in jobs)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: MultiplyJob(pairs=()),
            lambda: MultiplyJob.of(-1, 2),
            lambda: RingTransformJob(n=8, values=np.zeros((2, 4), np.uint64)),
            lambda: ConvolveJob(
                n=8,
                a=np.zeros((1, 8), np.uint64),
                b=np.zeros((2, 8), np.uint64),
            ),
            lambda: DGHVMultJob(pairs=((1, 2),)),
            lambda: RLWEMultiplyPlainJob(
                params=RLWEParams(n=16), ciphertexts=(), plains=()
            ),
        ],
    )
    def test_invalid_jobs_rejected(self, build):
        with pytest.raises((TypeError, ValueError)):
            build()


class TestSoftwareMP:
    def test_small_batches_run_inline(self, mp_engine):
        # Below the shard floor no pool is spun up.
        assert mp_engine.multiply(3, 5) == 15
        assert mp_engine.multiply([2], [9]) == [18]

    def test_multiply_bit_identical(self, mp_engine):
        rng = random.Random(29)
        pairs = _pairs(rng, 7, bits=2048)
        left = [a for a, _ in pairs]
        right = [b for _, b in pairs]
        truth = [a * b for a, b in pairs]
        assert mp_engine.multiply(left, right) == truth
        assert Engine().multiply(left, right) == truth

    def test_transform_bit_identical(self, mp_engine):
        rng = np.random.default_rng(31)
        rows = rng.integers(0, P, size=(5, 256), dtype=np.uint64)
        soft = Engine().ring(256)
        spectra = mp_engine.ring(256).forward(rows)
        assert np.array_equal(spectra, soft.forward(rows))
        assert np.array_equal(mp_engine.ring(256).inverse(spectra), rows)

    def test_workers_resolution(self, mp_engine):
        assert mp_engine.backend.workers(mp_engine) == 2

    def test_pool_is_persistent_and_closable(self, mp_engine):
        pairs = _pairs(random.Random(37), 4, bits=256)
        left = [a for a, _ in pairs]
        right = [b for _, b in pairs]
        mp_engine.multiply(left, right)
        pool = mp_engine.backend._pool
        assert pool is not None
        mp_engine.multiply(left, right)
        assert mp_engine.backend._pool is pool  # same pool reused
        mp_engine.backend.close()
        assert mp_engine.backend._pool is None
        # and it comes back lazily
        assert mp_engine.multiply(left, right) == [
            a * b for a, b in pairs
        ]

    def test_scheduler_map_over_mp_engine(self, mp_engine):
        pairs = _pairs(random.Random(41), 6, bits=1024)
        truth = [a * b for a, b in pairs]
        assert mp_engine.map("multiply", pairs, chunk=3) == truth

    def test_workers_config_validation(self):
        with pytest.raises(ValueError, match="workers"):
            ExecutionConfig(workers=0)

    def test_batch_chunk_honored_in_workers(self):
        """The peak-working-set bound applies inside mp shards too."""
        rng = random.Random(43)
        pairs = _pairs(rng, 9, bits=512)
        left = [a for a, _ in pairs]
        right = [b for _, b in pairs]
        engine = Engine(
            config=ExecutionConfig(workers=2, batch_chunk=2),
            backend="software-mp",
        )
        try:
            assert engine.multiply(left, right) == [
                a * b for a, b in pairs
            ]
        finally:
            engine.close()

    @settings(deadline=None, max_examples=8)
    @given(
        bits=st.sampled_from([64, 256, 1024]),
        batch=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_hypothesis_equivalence_mixed_shapes(
        self, mp_engine, bits, batch, seed
    ):
        rng = random.Random(seed)
        pairs = _pairs(rng, batch, bits=bits)
        left = [a for a, _ in pairs]
        right = [b for _, b in pairs]
        truth = [a * b for a, b in pairs]
        assert mp_engine.multiply(left, right) == truth
        assert Engine().multiply(left, right) == truth
        n = 64
        rows = np.array(
            [[rng.randrange(P) for _ in range(n)] for _ in range(batch)],
            dtype=np.uint64,
        )
        assert np.array_equal(
            mp_engine.ring(n).forward(rows),
            Engine().ring(n).forward(rows),
        )
