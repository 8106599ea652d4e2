"""Self-verification: one call that checks the library's key invariants.

``python -m repro.cli verify`` (or :func:`run_self_check`) executes a
condensed end-to-end validation — the checks a user should see pass
before trusting any number the library prints:

1. field structure (prime, 2**96 ≡ −1, ω_64k**1024 = 8);
2. vectorized arithmetic against scalar oracles;
3. every NTT path against the O(n²) reference at small size;
4. a mid-size SSA multiply against Python integers;
5. the batched execution engine (matrix executor and
   ``multiply_many``) against the per-vector oracles;
6. the distributed accelerator (datapath fidelity) against the
   executor;
7. the analytic timing against the paper's headline numbers;
8. a DGHV encrypt–evaluate–decrypt roundtrip;
9. the Engine façade: ``software`` vs ``hw-model`` backend products
   bit-identical, ring scalar/batch polymorphism consistent;
10. the jobs layer: ``software-mp`` sharded products and its
    in-process ring transforms bit-identical to ``software``,
    ``JobScheduler`` submit/map ordering intact;
11. fused negacyclic plans (ψ-twist folded into stage constants)
    bit-identical to the big-integer convolution oracle, on every
    stage kernel this host runs and through the hw-model ring;
12. permutation-free (decimated) plan pairs: DIF-forward spectra are
    the natural spectra under the digit-reversal permutation, and
    cyclic/fused-negacyclic convolutions through the DIT inverse are
    bit-identical to the big-integer convolution oracle, including
    through the hw-model ring;
13. the fault-tolerant runtime: a ``software-mp`` batch with one
    worker SIGKILLed mid-shard recovers automatically — the respawned
    pool replays the lost shards, the recovered products are
    bit-identical to the ``software`` backend, and the respawn is
    recorded in the backend's fault report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Tuple


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def render(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        suffix = f" — {self.detail}" if self.detail else ""
        return f"[{mark}] {self.name}{suffix}"


def _check_field() -> CheckResult:
    from repro.field.roots import omega_64k
    from repro.field.solinas import P

    ok = (
        P == 2**64 - 2**32 + 1
        and pow(2, 96, P) == P - 1
        and pow(omega_64k(), 1024, P) == 8
    )
    return CheckResult("field structure (p, 2^96 = -1, w^1024 = 8)", ok)

def _check_vector() -> CheckResult:
    from repro.field.solinas import P
    from repro.field.vector import from_field_array, to_field_array, vmul

    rng = random.Random(1)
    values = [rng.randrange(P) for _ in range(256)] + [0, 1, P - 1]
    a = to_field_array(values)
    b = to_field_array(list(reversed(values)))
    want = [x * y % P for x, y in zip(values, reversed(values))]
    ok = from_field_array(vmul(a, b)) == want
    return CheckResult("vectorized GF(p) multiply vs scalar oracle", ok)


def _check_ntt_paths() -> CheckResult:
    from repro.field.solinas import P
    from repro.field.vector import from_field_array, to_field_array
    from repro.ntt.cooley_tukey import ntt_cooley_tukey
    from repro.ntt.plan import plan_for_size
    from repro.ntt.radix2 import ntt_radix2
    from repro.ntt.radix64 import ntt64_two_stage, ntt_shift_radix
    from repro.ntt.reference import dft_reference
    from repro.ntt.staged import execute_plan

    rng = random.Random(2)
    x = [rng.randrange(P) for _ in range(64)]
    ref = dft_reference(x)
    staged = from_field_array(
        execute_plan(to_field_array(x), plan_for_size(64, (8, 8)))
    )
    ok = (
        ntt_radix2(x) == ref
        and ntt_cooley_tukey(x, radices=[8, 8]) == ref
        and ntt_shift_radix(x, 64) == ref
        and ntt64_two_stage(x) == ref
        and staged == ref
    )
    return CheckResult("five NTT implementations vs O(n^2) reference", ok)


def _check_ssa() -> CheckResult:
    from repro.ssa.multiplier import SSAMultiplier

    rng = random.Random(3)
    a, b = rng.getrandbits(50_000), rng.getrandbits(50_000)
    ok = SSAMultiplier.for_bits(50_000).multiply(a, b) == a * b
    return CheckResult("50,000-bit SSA multiply vs Python ints", ok)


def _check_batch() -> CheckResult:
    import numpy as np

    from repro.field.solinas import P
    from repro.ntt.plan import plan_for_size
    from repro.ntt.staged import execute_plan, execute_plan_batch
    from repro.ssa.multiplier import SSAMultiplier

    rng = random.Random(6)
    plan = plan_for_size(256, (16, 16))
    matrix = np.array(
        [[rng.randrange(P) for _ in range(256)] for _ in range(4)],
        dtype=np.uint64,
    )
    rows_match = all(
        np.array_equal(row_out, execute_plan(row_in, plan))
        for row_in, row_out in zip(matrix, execute_plan_batch(matrix, plan))
    )
    mul = SSAMultiplier.for_bits(2048)
    pairs = [
        (rng.getrandbits(2048), rng.getrandbits(2048)) for _ in range(4)
    ]
    products_match = mul.multiply_many(pairs) == [a * b for a, b in pairs]
    return CheckResult(
        "batched executor / multiply_many vs per-vector oracles",
        rows_match and products_match,
    )


def _check_accelerator() -> CheckResult:
    import numpy as np

    from repro.field.solinas import P
    from repro.field.vector import to_field_array
    from repro.hw.accelerator import HEAccelerator
    from repro.ntt.plan import plan_for_size
    from repro.ntt.staged import execute_plan
    from repro.ssa.encode import SSAParameters

    rng = random.Random(4)
    params = SSAParameters(coefficient_bits=24, operand_coefficients=512)
    plan = plan_for_size(1024, (64, 16))
    acc = HEAccelerator(pes=4, plan=plan, params=params)
    x = to_field_array([rng.randrange(P) for _ in range(1024)])
    got, _ = acc.distributed_ntt(x, fidelity="datapath")
    ok = np.array_equal(got, execute_plan(x, plan))
    return CheckResult(
        "datapath-fidelity accelerator vs staged executor", ok
    )


def _check_timing() -> CheckResult:
    from repro.hw.timing import PAPER_TIMING

    fft = PAPER_TIMING.fft_time_us()
    mult = PAPER_TIMING.multiplication_time_us()
    ok = abs(fft - 30.72) < 0.01 and abs(mult - 122.88) < 0.01
    return CheckResult(
        "paper timing anchors",
        ok,
        f"T_FFT = {fft:.2f} us, T_MULT = {mult:.2f} us",
    )


def _check_fhe() -> CheckResult:
    from repro.fhe.dghv import DGHV
    from repro.fhe.ops import _he_add, _he_mult
    from repro.fhe.params import TOY

    scheme = DGHV(TOY, rng=random.Random(5))
    keys = scheme.generate_keys()
    ok = True
    for a in (0, 1):
        for b in (0, 1):
            ca, cb = scheme.encrypt(keys, a), scheme.encrypt(keys, b)
            ok &= scheme.decrypt(keys, _he_add(ca, cb, x0=keys.x0)) == a ^ b
            ok &= (
                scheme.decrypt(keys, _he_mult(scheme, ca, cb, x0=keys.x0))
                == a & b
            )
    return CheckResult("DGHV encrypt/XOR/AND/decrypt truth tables", ok)


def _check_engine() -> CheckResult:
    import numpy as np

    from repro.engine import Engine
    from repro.field.solinas import P

    rng = random.Random(7)
    a, b = rng.getrandbits(4096), rng.getrandbits(4096)
    software = Engine()
    hardware = Engine(backend="hw-model")
    products_match = (
        software.multiply(a, b) == hardware.multiply(a, b) == a * b
    )
    ring = software.ring(256)
    rows = np.array(
        [[rng.randrange(P) for _ in range(256)] for _ in range(3)],
        dtype=np.uint64,
    )
    spectra = ring.forward(rows)
    ring_match = all(
        np.array_equal(spectra[i], ring.forward(rows[i])) for i in range(3)
    ) and np.array_equal(ring.inverse(spectra), rows)
    return CheckResult(
        "Engine backends bit-identical; ring scalar/batch consistent",
        products_match and ring_match,
    )


def _check_jobs_mp() -> CheckResult:
    import numpy as np

    from repro.engine import Engine, ExecutionConfig
    from repro.engine.jobs import JobScheduler, MultiplyJob
    from repro.field.solinas import P

    rng = random.Random(8)
    pairs = [
        (rng.getrandbits(1024), rng.getrandbits(1024)) for _ in range(6)
    ]
    truth = [a * b for a, b in pairs]
    software = Engine()
    mp_engine = Engine(
        config=ExecutionConfig(workers=2), backend="software-mp"
    )
    try:
        left = [a for a, _ in pairs]
        right = [b for _, b in pairs]
        products_match = (
            mp_engine.multiply(left, right)
            == software.multiply(left, right)
            == truth
        )
        rows = np.array(
            [[rng.randrange(P) for _ in range(128)] for _ in range(4)],
            dtype=np.uint64,
        )
        rows_match = np.array_equal(
            mp_engine.ring(128).forward(rows),
            software.ring(128).forward(rows),
        )
        with JobScheduler(software) as jobs:
            handle = jobs.submit(MultiplyJob.batched(pairs))
            jobs_match = (
                handle.result() == truth
                and jobs.map("multiply", pairs, chunk=2) == truth
            )
    finally:
        mp_engine.close()
    return CheckResult(
        "software-mp sharding bit-identical; job queue ordered",
        products_match and rows_match and jobs_match,
    )


def _random_rows(rng: random.Random, count: int, n: int):
    import numpy as np

    from repro.field.solinas import P

    return np.array(
        [[rng.randrange(P) for _ in range(n)] for _ in range(count)],
        dtype=np.uint64,
    )


def _convolution_oracle(a, b, negacyclic: bool):
    """Row-wise :func:`repro.ntt.reference.convolution_reference`."""
    import numpy as np

    from repro.ntt.reference import convolution_reference

    return np.array(
        [
            convolution_reference(x.tolist(), y.tolist(), negacyclic)
            for x, y in zip(a, b)
        ],
        dtype=np.uint64,
    )


def _check_negacyclic_fused() -> CheckResult:
    import numpy as np

    from repro.engine import Engine
    from repro.ntt.kernels import available_kernels
    from repro.ntt.negacyclic import negacyclic_convolution_many
    from repro.ntt.plan import TWIST_NEGACYCLIC, plan_for_size

    rng = random.Random(9)
    n, radices = 256, (16, 4, 4)
    a, b = _random_rows(rng, 3, n), _random_rows(rng, 3, n)
    oracle = _convolution_oracle(a, b, negacyclic=True)
    fused_ok = all(
        np.array_equal(
            oracle,
            negacyclic_convolution_many(
                a,
                b,
                plan_for_size(
                    n, radices, kernel=kernel, twist=TWIST_NEGACYCLIC
                ),
            ),
        )
        for kernel in available_kernels()
    )
    # The hw ring uses the default shift-only radices ((16, 16) at 256
    # points); the ring product is factorization-independent.
    hw_ok = np.array_equal(
        oracle,
        Engine(backend="hw-model").ring(n).negacyclic_convolve(a, b),
    )
    return CheckResult(
        "fused negacyclic plans vs big-integer convolution oracle",
        fused_ok and hw_ok,
    )


def _check_ordering() -> CheckResult:
    import numpy as np

    from repro.engine import Engine
    from repro.ntt.convolution import cyclic_convolution_many
    from repro.ntt.negacyclic import negacyclic_convolution_many
    from repro.ntt.order import reorder_to_natural
    from repro.ntt.plan import (
        TWIST_NEGACYCLIC,
        decimated_companion,
        plan_for_size,
    )
    from repro.ntt.staged import execute_plan_batch

    rng = random.Random(10)
    n, radices = 256, (4, 16, 4)
    a, b = _random_rows(rng, 3, n), _random_rows(rng, 3, n)
    natural = plan_for_size(n, radices, kernel="loop")
    decimated = decimated_companion(natural)
    spectra_ok = np.array_equal(
        reorder_to_natural(execute_plan_batch(a, decimated), decimated),
        execute_plan_batch(a, natural),
    )
    cyclic = _convolution_oracle(a, b, negacyclic=False)
    conv_ok = np.array_equal(cyclic_convolution_many(a, b, decimated), cyclic)
    fused_ok = np.array_equal(
        negacyclic_convolution_many(
            a,
            b,
            decimated_companion(
                plan_for_size(
                    n, radices, kernel="limb-matmul", twist=TWIST_NEGACYCLIC
                )
            ),
        ),
        _convolution_oracle(a, b, negacyclic=True),
    )
    hw_ring = Engine(backend="hw-model").ring(n)
    hw_ok = np.array_equal(hw_ring.convolve(a, b), cyclic)
    return CheckResult(
        "permutation-free plans vs big-integer convolution oracle",
        spectra_ok and conv_ok and fused_ok and hw_ok,
    )


def _check_runtime_faults() -> CheckResult:
    from repro.engine import Engine, ExecutionConfig, faultinject

    rng = random.Random(13)
    pairs = [
        (rng.getrandbits(768), rng.getrandbits(768)) for _ in range(6)
    ]
    truth = [a * b for a, b in pairs]
    left = [a for a, _ in pairs]
    right = [b for _, b in pairs]
    software = Engine()
    mp_engine = Engine(
        config=ExecutionConfig(workers=2), backend="software-mp"
    )
    try:
        with faultinject.inject("worker-kill:0"):
            recovered = mp_engine.multiply(left, right)
        identical = recovered == software.multiply(left, right) == truth
        respawned = mp_engine.backend.fault_report.respawns >= 1
    finally:
        mp_engine.close()
    return CheckResult(
        "worker kill mid-batch recovers bit-identically",
        identical and respawned,
        "" if respawned else "no respawn recorded",
    )


CHECKS: List[Callable[[], CheckResult]] = [
    _check_field,
    _check_vector,
    _check_ntt_paths,
    _check_ssa,
    _check_batch,
    _check_accelerator,
    _check_timing,
    _check_fhe,
    _check_engine,
    _check_jobs_mp,
    _check_negacyclic_fused,
    _check_ordering,
    _check_runtime_faults,
]


def run_self_check(verbose: bool = False) -> Tuple[bool, List[CheckResult]]:
    """Run every check; returns (all_ok, results)."""
    results = []
    for check in CHECKS:
        try:
            results.append(check())
        except Exception as error:  # surface, don't crash the report
            results.append(
                CheckResult(check.__name__, False, f"raised {error!r}")
            )
    all_ok = all(r.ok for r in results)
    if verbose:
        for r in results:
            print(r.render())
        print("self-check:", "ALL PASS" if all_ok else "FAILURES PRESENT")
    return all_ok, results
