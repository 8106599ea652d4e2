"""Runtime fault tolerance: supervision, retry, timeout, degradation.

Every scenario here is driven by the deterministic injection harness
(:mod:`repro.engine.faultinject`): a worker SIGKILLed mid-shard, a
shard hung past its deadline, a bit flipped in a shard result.  The
invariants under test are the tentpole guarantees of the resilience
layer:

- recovery is *bit-identical* — replayed shards, degraded in-process
  execution and retried jobs all produce exactly the bits the clean
  ``software`` backend produces;
- every fault and every recovery action is visible in a
  :class:`~repro.engine.resilience.FaultReport`.

Crash/recovery is exercised under both ``fork`` and ``spawn`` start
methods (the directive travels in the task payload, so behavior must
not depend on inherited parent state).
"""

import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.engine import Engine, ExecutionConfig, faultinject
from repro.engine.backends import SoftwareMPBackend
from repro.engine.jobs import JobScheduler, MultiplyJob
from repro.engine.resilience import (
    NO_RETRY,
    Deadline,
    FaultReport,
    JobTimeoutError,
    RetryPolicy,
    ShardVerificationError,
    WorkerCrashError,
    current_deadline,
    deadline_scope,
)


def _pairs(rng, count, bits):
    return [
        (rng.getrandbits(bits) | 1, rng.getrandbits(bits) | 1)
        for _ in range(count)
    ]


def _mp_engine(start_method=None, **config):
    config.setdefault("workers", 2)
    return Engine(
        config=ExecutionConfig(**config),
        backend=SoftwareMPBackend(start_method=start_method),
    )


@pytest.fixture(autouse=True)
def _disarm_faults():
    """No fault plan may leak between tests."""
    faultinject.deactivate()
    yield
    faultinject.deactivate()


# -- the resilience vocabulary --------------------------------------------


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(
            max_retries=5,
            base_delay_s=0.01,
            backoff_factor=2.0,
            max_delay_s=0.05,
        )
        assert policy.delays() == [0.01, 0.02, 0.04, 0.05, 0.05]
        # A pure function of the policy: same schedule every time.
        assert policy.delays() == policy.delays()

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=1.0, max_delay_s=0.5)
        with pytest.raises(ValueError):
            RetryPolicy().delay(-1)

    def test_should_retry_gates_on_type_and_budget(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.should_retry(WorkerCrashError("x"), 0)
        assert policy.should_retry(WorkerCrashError("x"), 1)
        assert not policy.should_retry(WorkerCrashError("x"), 2)
        # A blown deadline is not transient: retrying cannot help.
        assert not policy.should_retry(JobTimeoutError("x"), 0)
        assert not policy.should_retry(ValueError("x"), 0)
        assert not NO_RETRY.should_retry(WorkerCrashError("x"), 0)


class TestDeadline:
    def test_after_validates(self):
        with pytest.raises(ValueError):
            Deadline.after(0)
        with pytest.raises(ValueError):
            Deadline.after(-1)

    def test_remaining_and_expiry(self):
        deadline = Deadline.after(60.0)
        assert 0 < deadline.remaining() <= 60.0
        assert not deadline.expired
        past = Deadline(expires_at=time.monotonic() - 1.0)
        assert past.expired
        assert past.remaining() < 0

    def test_scope_nesting(self):
        assert current_deadline() is None
        outer, inner = Deadline.after(60.0), Deadline.after(30.0)
        with deadline_scope(outer):
            assert current_deadline() is outer
            with deadline_scope(inner):
                assert current_deadline() is inner
            with deadline_scope(None):  # None nests as a no-op
                assert current_deadline() is outer
            assert current_deadline() is outer
        assert current_deadline() is None


class TestFaultSpec:
    def test_parse_clauses(self):
        plan = faultinject.parse_spec(
            "worker-kill:1,shard-delay:2:0.25,corrupt-shard,repeat"
        )
        assert plan.kill_on_shard == 1
        assert plan.delay_on_shard == 2
        assert plan.delay_s == 0.25
        assert plan.corrupt_on_shard == 0
        assert plan.repeat

    def test_defaults_target_shard_zero(self):
        plan = faultinject.parse_spec("worker-kill")
        assert plan.kill_on_shard == 0
        assert plan.delay_on_shard is None
        assert not plan.repeat

    @pytest.mark.parametrize(
        "bad", ["", "explode", "worker-kill:x", "shard-delay:0:fast"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            faultinject.parse_spec(bad)

    def test_one_shot_consumption(self):
        plan = faultinject.parse_spec("worker-kill:0")
        assert plan.directive_for_shard(0) == "kill"
        # Consumed: the replayed shard runs clean.
        assert plan.directive_for_shard(0) == ""

    def test_repeat_refires(self):
        plan = faultinject.parse_spec("worker-kill:0,repeat")
        assert plan.directive_for_shard(0) == "kill"
        assert plan.directive_for_shard(0) == "kill"


class TestFaultReport:
    def test_counts_and_render(self):
        report = FaultReport()
        assert report.clean
        assert "clean" in report.render()
        report.record("worker-crash", "boom", shards=(0,))
        report.record("respawn", "rebuild 1", shards=(0,))
        report.record("degraded", "gave up on the pool")
        assert report.respawns == 1
        assert report.degraded
        assert not report.clean
        text = report.render()
        assert "worker-crash" in text and "shards=[0]" in text


# -- worker crash recovery (fork AND spawn) -------------------------------


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
class TestWorkerCrashRecovery:
    def test_multiply_recovers_bit_identically(self, start_method):
        rng = random.Random(21)
        pairs = _pairs(rng, 6, 512)
        truth = [a * b for a, b in pairs]
        engine = _mp_engine(start_method)
        try:
            # Warm the pool so the kill hits an established worker.
            assert engine.multiply(
                [a for a, _ in pairs], [b for _, b in pairs]
            ) == truth
            pids_before = engine.backend.worker_pids
            with faultinject.inject("worker-kill:0"):
                recovered = engine.multiply(
                    [a for a, _ in pairs], [b for _, b in pairs]
                )
            assert recovered == truth
            report = engine.backend.fault_report
            assert report.respawns >= 1
            assert report.count("worker-crash") >= 1
            assert not report.degraded
            # The respawned pool is a different set of processes.
            assert engine.backend.worker_pids != pids_before
        finally:
            engine.close()


# -- timeouts --------------------------------------------------------------


#: A caller whose job times out on a shard hung for 20 s: it closes its
#: engine and exits.
_ABANDONED_SHARD = """
from repro.engine import Engine, ExecutionConfig, faultinject
from repro.engine.jobs import JobScheduler, MultiplyJob
from repro.engine.resilience import JobTimeoutError

engine = Engine(config=ExecutionConfig(workers=2), backend="software-mp")
pairs = [(3 << 64, 5), (7, 11 << 32), (13, 17), (19, 23 << 96)]
engine.multiply([a for a, _ in pairs], [b for _, b in pairs])
with JobScheduler(engine) as jobs:
    with faultinject.inject("shard-delay:0:20"):
        handle = jobs.submit(MultiplyJob.batched(pairs), timeout=0.5)
        try:
            handle.result()
        except JobTimeoutError:
            print("timed out")
engine.close()
"""


class TestTimeout:
    def test_abandoned_worker_does_not_hold_process_exit(self):
        """The hung worker is terminated with its abandoned pool, so
        the caller exits promptly instead of when the shard ends."""
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-c", _ABANDONED_SHARD],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = process.communicate(timeout=8)
        finally:  # no worker outlives the test, whatever happened
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait(timeout=60)
        assert process.returncode == 0, err
        assert out.split() == ["timed", "out"]

    def test_hung_shard_times_out_and_pool_recovers(self):
        rng = random.Random(24)
        pairs = _pairs(rng, 4, 512)
        truth = [a * b for a, b in pairs]
        engine = _mp_engine("fork")
        try:
            with JobScheduler(engine) as jobs:
                with faultinject.inject("shard-delay:0:30"):
                    handle = jobs.submit(
                        MultiplyJob.batched(pairs), timeout=0.5
                    )
                    with pytest.raises(JobTimeoutError):
                        handle.result()
                assert handle.fault_report.count("timeout") >= 1
                # The scheduler (and a fresh lazily respawned pool)
                # stay usable after the hung pool was abandoned.
                ok = jobs.submit(MultiplyJob.batched(pairs))
                assert ok.result() == truth
        finally:
            engine.close()

    def test_queued_job_expires_before_running(self):
        engine = _mp_engine("fork")

        class Slow:
            kind = "slow"

            def run(self, engine):
                time.sleep(0.6)
                return "slow-done"

        try:
            with JobScheduler(engine) as jobs:
                slow = jobs.submit(Slow())
                # Queued behind Slow with a budget Slow outlives: the
                # deadline clock starts at submission.
                starved = jobs.submit(MultiplyJob.of(3, 4), timeout=0.1)
                with pytest.raises(JobTimeoutError):
                    starved.result()
                assert slow.result() == "slow-done"
                assert starved in jobs.dead_letters
        finally:
            engine.close()


# -- graceful degradation --------------------------------------------------


class TestDegradation:
    def test_exhausting_respawns_degrades_bit_identically(self):
        rng = random.Random(25)
        pairs = _pairs(rng, 4, 512)
        truth = [a * b for a, b in pairs]
        engine = _mp_engine("fork", max_respawns=1)
        try:
            # repeat: the kill re-fires on every replay, exhausting
            # the respawn budget and forcing in-process execution.
            with faultinject.inject("worker-kill:0,repeat"):
                degraded = engine.multiply(
                    [a for a, _ in pairs], [b for _, b in pairs]
                )
            assert degraded == truth
            report = engine.backend.fault_report
            assert report.degraded
            assert report.respawns == 2  # max_respawns + the final try
        finally:
            engine.close()

    def test_max_respawns_zero_degrades_on_first_crash(self):
        rng = random.Random(26)
        pairs = _pairs(rng, 4, 256)
        engine = _mp_engine("fork", max_respawns=0)
        try:
            with faultinject.inject("worker-kill:0,repeat"):
                products = engine.multiply(
                    [a for a, _ in pairs], [b for _, b in pairs]
                )
            assert products == [a * b for a, b in pairs]
            assert engine.backend.fault_report.degraded
        finally:
            engine.close()

    def test_degraded_paper_batch_starts_no_threads(self):
        """A degraded shard of paper-size pairs, big enough to split
        over ``software``'s threads, runs on the caller's thread: a
        live thread pool would make the next pool fork a
        multi-threaded parent."""
        top = (1 << 786_432) - 1
        a = [top - k for k in range(4)]
        b = [k + 2 for k in range(4)]
        engine = _mp_engine("fork", max_respawns=0)
        try:
            with faultinject.inject("worker-kill:0,repeat"):
                products = engine.multiply(a, b)
            assert products == [x * y for x, y in zip(a, b)]
            assert engine.backend.fault_report.degraded
            assert engine.backend._threads is None
            assert not [
                thread
                for thread in threading.enumerate()
                if thread.name.startswith("repro-software")
            ]
        finally:
            engine.close()


# -- shard verification ----------------------------------------------------


class TestShardVerification:
    def test_corrupted_shard_is_caught(self):
        rng = random.Random(27)
        pairs = _pairs(rng, 4, 512)
        engine = _mp_engine("fork", verify_shards=True)
        try:
            with faultinject.inject("corrupt-shard:0"):
                with pytest.raises(ShardVerificationError):
                    engine.multiply(
                        [a for a, _ in pairs], [b for _, b in pairs]
                    )
            assert (
                engine.backend.fault_report.count("shard-corruption") == 1
            )
        finally:
            engine.close()

    def test_clean_run_passes_verification(self):
        rng = random.Random(29)
        pairs = _pairs(rng, 4, 512)
        engine = _mp_engine("fork", verify_shards=True)
        try:
            assert engine.multiply(
                [a for a, _ in pairs], [b for _, b in pairs]
            ) == [a * b for a, b in pairs]
            assert engine.backend.fault_report.clean
        finally:
            engine.close()

    def test_corruption_without_verification_goes_unnoticed(self):
        # Control case: verify_shards is what catches the flip.
        rng = random.Random(30)
        pairs = _pairs(rng, 4, 512)
        truth = [a * b for a, b in pairs]
        engine = _mp_engine("fork", verify_shards=False)
        try:
            with faultinject.inject("corrupt-shard:0"):
                products = engine.multiply(
                    [a for a, _ in pairs], [b for _, b in pairs]
                )
            assert products != truth
            assert products[0] == truth[0] ^ 1
        finally:
            engine.close()


# -- scheduler-level retry / dead letters / cancellation -------------------


class _FlakyJob:
    kind = "flaky"

    def __init__(self, failures, error=WorkerCrashError):
        self.remaining = failures
        self.error = error
        self.attempts = 0

    def run(self, engine):
        self.attempts += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise self.error("injected flake")
        return "ok"


class TestSchedulerResilience:
    def test_retry_recovers_flaky_job(self):
        with JobScheduler() as jobs:
            job = _FlakyJob(failures=2)
            handle = jobs.submit(
                job,
                retry=RetryPolicy(max_retries=3, base_delay_s=0.001),
            )
            assert handle.result() == "ok"
            assert job.attempts == 3
            assert handle.fault_report.retries == 2
            assert handle.fault_report.count("recovered") == 1

    def test_exhausted_retries_dead_letter(self):
        with JobScheduler() as jobs:
            handle = jobs.submit(
                _FlakyJob(failures=10),
                retry=RetryPolicy(max_retries=2, base_delay_s=0.001),
            )
            with pytest.raises(WorkerCrashError):
                handle.result()
            assert handle in jobs.dead_letters
            assert handle.fault_report.count("dead-letter") == 1

    def test_value_errors_are_not_retried(self):
        with JobScheduler() as jobs:
            job = _FlakyJob(failures=5, error=ValueError)
            handle = jobs.submit(
                job, retry=RetryPolicy(max_retries=3, base_delay_s=0.001)
            )
            with pytest.raises(ValueError):
                handle.result()
            assert job.attempts == 1  # the job's own math is not transient
            assert handle not in jobs.dead_letters

    def test_close_cancels_queued_jobs(self):
        from concurrent.futures import CancelledError

        class Slow:
            kind = "slow"

            def run(self, engine):
                time.sleep(0.5)
                return "done"

        jobs = JobScheduler()
        running = jobs.submit(Slow())
        queued = [jobs.submit(MultiplyJob.of(i, i + 1)) for i in range(4)]
        cancelled = jobs.close()
        assert len(cancelled) == 4
        assert set(cancelled) == set(queued)
        for handle in queued:
            with pytest.raises(CancelledError):
                handle.result()
            assert handle in jobs.dead_letters
            assert handle.fault_report.count("dead-letter") == 1
        assert running.result() == "done"  # in-flight job completes
        assert not jobs.active

    def test_close_is_idempotent(self):
        jobs = JobScheduler()
        assert jobs.close() == []
        assert jobs.close() == []

    def test_handle_fault_report_sees_backend_events(self):
        rng = random.Random(31)
        pairs = _pairs(rng, 4, 512)
        engine = _mp_engine("fork")
        try:
            with JobScheduler(engine) as jobs:
                with faultinject.inject("worker-kill:0"):
                    handle = jobs.submit(MultiplyJob.batched(pairs))
                    assert handle.result() == [a * b for a, b in pairs]
                assert handle.fault_report.respawns >= 1
        finally:
            engine.close()
