"""Fused negacyclic plans: bit-identity against the explicit-twist
``loop``-kernel oracle across kernels, shapes, radix mixes and compute
backends (repro.ntt.plan / negacyclic / engine / hw-model)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine
from repro.field.solinas import P
from repro.ntt.convolution import cyclic_convolution_many
from repro.ntt.kernels import (
    KERNEL_LIMB_MATMUL,
    KERNEL_LOOP,
    available_kernels,
)
from repro.ntt.negacyclic import (
    negacyclic_convolution,
    negacyclic_convolution_broadcast,
    negacyclic_convolution_many,
    negacyclic_inverse_many,
    negacyclic_transform_many,
    twist_tables,
)
from repro.ntt.plan import TWIST_NEGACYCLIC, plan_for_size
from repro.ntt.staged import execute_plan_batch, execute_plan_inverse_batch

#: (n, radices) points covering single-stage, two-stage, three-stage
#: and deliberately odd radix mixes next to the shift-only defaults.
SHAPES = [
    (4, (4,)),
    (8, (8,)),
    (16, (4, 4)),
    (64, (2, 4, 8)),
    (64, (8, 8)),
    (128, (16, 8)),
    (256, (4, 4, 4, 4)),
    (512, (8, 8, 8)),
    (1024, (64, 16)),
]


#: Every kernel this host runs: ``compiled`` too when it builds.
KERNELS = list(available_kernels())


def _rows(rng, batch, n):
    return rng.integers(0, P, size=(batch, n), dtype=np.uint64)


def _oracle_plan(n, radices):
    """The explicit-twist bit-exactness oracle: unfused loop kernel."""
    return plan_for_size(n, radices, kernel=KERNEL_LOOP)


class TestFusedPlanConstruction:
    def test_fused_plan_is_cached_and_marked(self):
        fused = plan_for_size(64, twist=TWIST_NEGACYCLIC)
        assert fused is plan_for_size(64, twist=TWIST_NEGACYCLIC)
        assert fused.twist == TWIST_NEGACYCLIC
        assert fused.inverse_plan.twist == TWIST_NEGACYCLIC
        assert fused is not plan_for_size(64)
        assert fused.base_plan is plan_for_size(64)

    def test_fused_keying_includes_kernel(self):
        loop = plan_for_size(
            64, kernel=KERNEL_LOOP, twist=TWIST_NEGACYCLIC
        )
        fast = plan_for_size(
            64, kernel=KERNEL_LIMB_MATMUL, twist=TWIST_NEGACYCLIC
        )
        assert loop is not fast
        assert loop.kernel == KERNEL_LOOP and fast.kernel == KERNEL_LIMB_MATMUL

    def test_fused_limb_planes_precomputed(self):
        fused = plan_for_size(128, (16, 8), twist=TWIST_NEGACYCLIC)
        for plan in (fused, fused.inverse_plan):
            for stage in plan.stages:
                assert stage.dft_limbs is not None
                assert stage.dft_limbs.shape == (
                    4,
                    stage.radix,
                    stage.radix,
                )

    def test_unknown_twist_rejected(self):
        with pytest.raises(ValueError):
            plan_for_size(64, twist="moebius")

    def test_custom_omega_rejected(self):
        from repro.field.roots import root_of_unity
        from repro.field.solinas import pow_mod

        # A different primitive root has no canonical psi; the fuse
        # must refuse rather than silently use the wrong twist.
        other = pow_mod(root_of_unity(128), 3)  # order still 128
        with pytest.raises(ValueError):
            plan_for_size(128, omega=other, twist=TWIST_NEGACYCLIC)

    def test_cyclic_convolution_rejects_fused_plan(self):
        fused = plan_for_size(64, twist=TWIST_NEGACYCLIC)
        rows = np.ones((2, 64), dtype=np.uint64)
        with pytest.raises(ValueError):
            cyclic_convolution_many(rows, rows, fused)


class TestFusedEquivalence:
    """Fused plans == explicit-twist loop oracle, bit for bit."""

    @pytest.mark.parametrize("n,radices", SHAPES)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_forward_inverse_roundtrip(self, n, radices, kernel):
        rng = np.random.default_rng(n * 7 + len(radices))
        fused = plan_for_size(n, radices, kernel=kernel, twist=TWIST_NEGACYCLIC)
        # The fused first forward and last inverse stages factor too.
        stages = fused.stages + fused.inverse_plan.stages
        assert all(stage.factors is not None for stage in stages)
        oracle = _oracle_plan(n, radices)
        for batch in (1, 3):
            rows = _rows(rng, batch, n)
            want = negacyclic_transform_many(rows, oracle)
            got = negacyclic_transform_many(rows, fused)
            assert np.array_equal(want, got)
            back = negacyclic_inverse_many(got, fused)
            assert np.array_equal(back, rows)
            assert np.array_equal(
                back, negacyclic_inverse_many(want, oracle)
            )

    @pytest.mark.parametrize("n,radices", SHAPES)
    def test_convolution_many_and_broadcast(self, n, radices):
        rng = np.random.default_rng(n * 13)
        fused = plan_for_size(n, radices, twist=TWIST_NEGACYCLIC)
        oracle = _oracle_plan(n, radices)
        a, b = _rows(rng, 4, n), _rows(rng, 4, n)
        assert np.array_equal(
            negacyclic_convolution_many(a, b, oracle),
            negacyclic_convolution_many(a, b, fused),
        )
        fixed = _rows(rng, 1, n)[0]
        assert np.array_equal(
            negacyclic_convolution_broadcast(a, fixed, oracle),
            negacyclic_convolution_broadcast(a, fixed, fused),
        )

    def test_flat_convolution_defaults_to_fused(self):
        rng = np.random.default_rng(3)
        a, b = _rows(rng, 1, 128)[0], _rows(rng, 1, 128)[0]
        assert np.array_equal(
            negacyclic_convolution(a, b),
            negacyclic_convolution(a, b, _oracle_plan(128, (16, 8))),
        )

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_hypothesis_kernel_equivalence(self, data):
        n, radices = data.draw(st.sampled_from(SHAPES))
        batch = data.draw(st.integers(min_value=1, max_value=4))
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        rng = np.random.default_rng(seed)
        rows = _rows(rng, batch, n)
        oracle = negacyclic_transform_many(rows, _oracle_plan(n, radices))
        for kernel in KERNELS:
            fused = plan_for_size(
                n, radices, kernel=kernel, twist=TWIST_NEGACYCLIC
            )
            assert np.array_equal(
                oracle, negacyclic_transform_many(rows, fused)
            )
            assert np.array_equal(
                rows, negacyclic_inverse_many(oracle, fused)
            )

    def test_spectra_interchangeable_between_flavors(self):
        # Fused and explicit-twist spectra are the same bits, so a
        # spectrum from one flavor inverts through the other.
        rng = np.random.default_rng(11)
        rows = _rows(rng, 2, 256)
        fused = plan_for_size(256, twist=TWIST_NEGACYCLIC)
        spectra = negacyclic_transform_many(rows, fused)
        assert np.array_equal(
            rows, negacyclic_inverse_many(spectra, plan_for_size(256))
        )


class TestFusedExecutorContract:
    def test_fused_forward_is_plain_plan_execution(self):
        rng = np.random.default_rng(5)
        rows = _rows(rng, 2, 128)
        fused = plan_for_size(128, twist=TWIST_NEGACYCLIC)
        forward, _ = twist_tables(128)
        from repro.field.vector import vmul

        want = execute_plan_batch(
            vmul(rows, forward[np.newaxis, :]), plan_for_size(128)
        )
        assert np.array_equal(want, execute_plan_batch(rows, fused))

    def test_fused_inverse_skips_scale_pass(self):
        rng = np.random.default_rng(6)
        rows = _rows(rng, 2, 64)
        fused = plan_for_size(64, twist=TWIST_NEGACYCLIC)
        spectra = execute_plan_batch(rows, fused)
        assert np.array_equal(
            rows, execute_plan_inverse_batch(spectra, fused)
        )


class TestFusedAcrossBackends:
    def test_software_vs_hw_model_ring_identity(self):
        rng = np.random.default_rng(21)
        rows = _rows(rng, 3, 256)
        other = _rows(rng, 3, 256)
        sw = Engine().ring(256)
        hw = Engine(backend="hw-model").ring(256)
        assert np.array_equal(
            sw.negacyclic_forward(rows), hw.negacyclic_forward(rows)
        )
        assert np.array_equal(
            sw.negacyclic_convolve(rows, other),
            hw.negacyclic_convolve(rows, other),
        )
        spectra = sw.negacyclic_forward(rows)
        assert np.array_equal(
            sw.negacyclic_inverse(spectra), hw.negacyclic_inverse(spectra)
        )
        assert np.array_equal(sw.negacyclic_inverse(spectra), rows)

    def test_hw_model_datapath_matches_fused_fast(self):
        from repro.engine import ExecutionConfig

        rng = np.random.default_rng(22)
        rows = _rows(rng, 1, 64)
        fast = Engine(backend="hw-model").ring(64)
        beat = Engine(
            config=ExecutionConfig(fidelity="datapath"), backend="hw-model"
        ).ring(64)
        want = fast.negacyclic_forward(rows[0])
        assert np.array_equal(want, beat.negacyclic_forward(rows[0]))
        assert np.array_equal(
            fast.negacyclic_inverse(want), beat.negacyclic_inverse(want)
        )
        assert np.array_equal(beat.negacyclic_inverse(want), rows[0])

    def test_hw_model_reports_unchanged_schedule(self):
        # Fusing changes stage constants, never the stage schedule: the
        # fused negacyclic transform reports the same cycle count as
        # the plain cyclic transform of the same shape.
        engine = Engine(backend="hw-model")
        ring = engine.ring(256)
        rows = np.ones((2, 256), dtype=np.uint64)
        ring.forward(rows)
        cyclic_cycles = engine.last_report.total_cycles
        ring.negacyclic_forward(rows)
        assert engine.last_report.total_cycles == cyclic_cycles

    def test_software_mp_fused_transform_identity(self):
        from repro.engine import ExecutionConfig

        rng = np.random.default_rng(23)
        rows = _rows(rng, 4, 128)
        mp_engine = Engine(
            config=ExecutionConfig(workers=2), backend="software-mp"
        )
        try:
            assert np.array_equal(
                Engine().ring(128).negacyclic_forward(rows),
                mp_engine.ring(128).negacyclic_forward(rows),
            )
        finally:
            mp_engine.close()


class TestFusedRLWE:
    def test_multiply_plain_many_fused_vs_unfused(self):
        import random

        from repro.fhe.rlwe import RLWE, RLWEParams

        params = RLWEParams(n=128, t=64, noise_bound=4)
        fused = RLWE(
            params,
            rng=random.Random(1),
            plan=plan_for_size(128, twist=TWIST_NEGACYCLIC),
        )
        unfused = RLWE(
            params, rng=random.Random(1), plan=plan_for_size(128)
        )
        rng = random.Random(2)
        secret = fused.generate_secret()
        messages = [
            [rng.randrange(params.t) for _ in range(params.n)]
            for _ in range(3)
        ]
        plains = [
            [rng.randrange(params.t) for _ in range(params.n)]
            for _ in range(3)
        ]
        cts = fused.encrypt_many(secret, messages)
        out_f = fused.multiply_plain_many(cts, plains)
        out_u = unfused.multiply_plain_many(cts, plains)
        for cf, cu in zip(out_f, out_u):
            assert np.array_equal(cf.c0, cu.c0)
            assert np.array_equal(cf.c1, cu.c1)
        want = [
            _schoolbook_negacyclic_mod_t(
                messages[i], plains[i], params.n, params.t
            )
            for i in range(3)
        ]
        got = [fused.decrypt(secret, ct) for ct in out_f]
        assert got == want

    def test_engine_bound_rlwe_roundtrip(self):
        import random

        from repro.fhe.rlwe import RLWEParams

        params = RLWEParams(n=64, t=16, noise_bound=2)
        scheme = Engine().fhe(params, rng=random.Random(7))
        assert scheme.plan.twist == TWIST_NEGACYCLIC
        secret = scheme.generate_secret()
        message = [i % params.t for i in range(params.n)]
        assert scheme.decrypt(secret, scheme.encrypt(secret, message)) == (
            message
        )


def _schoolbook_negacyclic_mod_t(a, b, n, t):
    """Schoolbook product in ``Z_t[x]/(x^n + 1)`` — the decrypt truth."""
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            k = i + j
            if k < n:
                out[k] += x * y
            else:
                out[k - n] -= x * y
    return [c % t for c in out]
