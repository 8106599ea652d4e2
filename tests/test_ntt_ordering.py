"""Permutation-free (decimated) plan pairs: construction invariants and
DIF forward / DIT inverse equivalence against the reference oracle
across radix mixes, shapes, fused plans and compute backends.

A decimated pair is reached only through ``decimated_companion`` of a
natural plan.  Each DIT stage is checked kernel against kernel in
``tests/test_ntt_differential.py``, whose helpers these tests share.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_ntt_differential import oracle, twisted_dft

from repro.engine import Engine, ExecutionConfig
from repro.field.solinas import P
from repro.ntt.convolution import cyclic_convolution_many
from repro.ntt.kernels import KERNEL_LOOP, available_kernels
from repro.ntt.negacyclic import (
    negacyclic_convolution_broadcast,
    negacyclic_convolution_many,
)
from repro.ntt.order import reorder_to_decimated, reorder_to_natural
from repro.ntt.plan import (
    ORDER_DECIMATED,
    ORDER_NATURAL,
    TWIST_NEGACYCLIC,
    PlanCache,
    decimated_companion,
    plan_for_size,
)
from repro.ntt.staged import execute_plan_batch, execute_plan_inverse_batch
from repro.ssa.multiplier import SSAMultiplier

#: Radix mixes covering single-stage, uneven multi-stage, the
#: deliberately odd (2, 4, 8) mix and a deep uniform (4, 4, 4, 4).
SHAPES = [
    (8, (8,)),
    (16, (4, 4)),
    (64, (2, 4, 8)),
    (128, (16, 8)),
    (256, (4, 4, 4, 4)),
    (1024, (64, 16)),
]

#: Every kernel this host runs: ``compiled`` too when it builds.
KERNELS = list(available_kernels())


def _rows(rng, batch, n):
    return rng.integers(0, P, size=(batch, n), dtype=np.uint64)


def _decimated(n, radices, **kwargs):
    return decimated_companion(plan_for_size(n, radices, **kwargs))


class TestDecimatedPlanConstruction:
    def test_cache_returns_companion_identity(self):
        """The cache holds natural plans only; every holder of one
        resolves the same memoized companion."""
        cache = PlanCache()
        natural = cache.plan_for_size(64, (8, 8))
        decimated = decimated_companion(natural)
        assert decimated is decimated_companion(cache.plan_for_size(64, (8, 8)))
        assert decimated is not natural
        assert len(cache) == 1

    def test_orderings_and_linkage(self):
        natural = plan_for_size(64, (8, 8))
        decimated = decimated_companion(natural)
        assert natural.ordering == ORDER_NATURAL
        assert decimated.ordering == ORDER_DECIMATED
        assert decimated.base_plan is natural
        assert decimated.inverse_plan.ordering == ORDER_DECIMATED
        assert decimated.inverse_plan.dit
        assert not decimated.dit

    def test_decimated_of_decimated_is_itself(self):
        decimated = _decimated(64, (8, 8))
        assert decimated_companion(decimated) is decimated

    def test_dit_inverse_reverses_radices(self):
        decimated = _decimated(1024, (64, 16))
        assert decimated.radices == (64, 16)
        assert decimated.inverse_plan.radices == (16, 64)

    def test_forward_shares_natural_stage_constants(self):
        natural = plan_for_size(256, (16, 16))
        decimated = decimated_companion(natural)
        assert decimated.stages is natural.stages


class TestForwardSpectrumPermutation:
    @pytest.mark.parametrize("n,radices", SHAPES)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_decimated_forward_is_permuted_natural(
        self, n, radices, kernel
    ):
        rng = np.random.default_rng(n)
        rows = _rows(rng, 3, n)
        natural = plan_for_size(n, radices, kernel=kernel)
        decimated = decimated_companion(natural)
        # The transposed, row-scaled DIT inverse stages factor too.
        stages = decimated.stages + decimated.inverse_plan.stages
        assert all(stage.factors is not None for stage in stages)
        dec = execute_plan_batch(rows, decimated)
        nat = execute_plan_batch(rows, natural)
        assert np.array_equal(dec[:, decimated.output_permutation], nat)
        assert np.array_equal(reorder_to_natural(dec, decimated), nat)

    @pytest.mark.parametrize("n,radices", SHAPES)
    def test_dit_inverse_roundtrip(self, n, radices):
        rng = np.random.default_rng(2 * n + 1)
        rows = _rows(rng, 4, n)
        decimated = _decimated(n, radices)
        spectra = execute_plan_batch(rows, decimated)
        assert np.array_equal(
            execute_plan_inverse_batch(spectra, decimated), rows
        )

    def test_input_rows_not_mutated(self):
        rng = np.random.default_rng(7)
        rows = _rows(rng, 2, 64)
        keep = rows.copy()
        decimated = _decimated(64, (8, 8))
        execute_plan_batch(rows, decimated)
        assert np.array_equal(rows, keep)
        spectra = execute_plan_batch(rows, decimated)
        keep_s = spectra.copy()
        execute_plan_inverse_batch(spectra, decimated)
        assert np.array_equal(spectra, keep_s)


class TestReorderHelpers:
    def test_roundtrip(self):
        rng = np.random.default_rng(11)
        decimated = _decimated(256, (16, 16))
        rows = _rows(rng, 5, 256)
        assert np.array_equal(
            reorder_to_decimated(
                reorder_to_natural(rows, decimated), decimated
            ),
            rows,
        )
        flat = rows[0]
        assert np.array_equal(
            reorder_to_natural(
                reorder_to_decimated(flat, decimated), decimated
            ),
            flat,
        )

    def test_natural_plan_rejected(self):
        natural = plan_for_size(64, (8, 8))
        rows = np.zeros((2, 64), dtype=np.uint64)
        with pytest.raises(ValueError, match="decimated"):
            reorder_to_natural(rows, natural)
        with pytest.raises(ValueError, match="decimated"):
            reorder_to_decimated(rows, natural)

    def test_wrong_length_rejected(self):
        decimated = _decimated(64, (8, 8))
        with pytest.raises(ValueError, match="last axis"):
            reorder_to_natural(np.zeros(32, dtype=np.uint64), decimated)

    def test_natural_spectra_fed_through_dit_inverse(self):
        rng = np.random.default_rng(13)
        rows = _rows(rng, 3, 128)
        natural = plan_for_size(128, (16, 8))
        decimated = decimated_companion(natural)
        nat_spectra = execute_plan_batch(rows, natural)
        assert np.array_equal(
            execute_plan_inverse_batch(
                reorder_to_decimated(nat_spectra, decimated), decimated
            ),
            rows,
        )


class TestConvolutionEquivalence:
    @pytest.mark.parametrize("n,radices", SHAPES)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_cyclic_many(self, n, radices, kernel):
        rng = np.random.default_rng(3 * n)
        a, b = _rows(rng, 3, n), _rows(rng, 3, n)
        decimated = _decimated(n, radices, kernel=kernel)
        assert np.array_equal(
            cyclic_convolution_many(a, b, decimated), oracle(a, b, False)
        )

    @pytest.mark.parametrize("n,radices", SHAPES)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_fused_negacyclic_many(self, n, radices, kernel):
        rng = np.random.default_rng(5 * n)
        a, b = _rows(rng, 3, n), _rows(rng, 3, n)
        fused = _decimated(n, radices, kernel=kernel, twist=TWIST_NEGACYCLIC)
        stages = fused.stages + fused.inverse_plan.stages
        assert all(stage.factors is not None for stage in stages)
        assert np.array_equal(
            negacyclic_convolution_many(a, b, fused), oracle(a, b, True)
        )

    def test_negacyclic_broadcast(self):
        rng = np.random.default_rng(17)
        n = 256
        rows, fixed = _rows(rng, 6, n), _rows(rng, 1, n)
        assert np.array_equal(
            negacyclic_convolution_broadcast(rows, fixed[0]),
            oracle(rows, np.broadcast_to(fixed, rows.shape), True),
        )

    def test_default_plans_are_decimated(self, monkeypatch):
        """``plan=None`` runs the decimated pair, bit-identical to the
        oracle."""
        from repro.ntt import convolution

        executed = []

        def spy(values, plan):
            executed.append(plan.ordering)
            return execute_plan_batch(values, plan)

        monkeypatch.setattr(convolution, "execute_plan_batch", spy)
        rng = np.random.default_rng(19)
        a, b = _rows(rng, 2, 64), _rows(rng, 2, 64)
        assert np.array_equal(cyclic_convolution_many(a, b), oracle(a, b, False))
        assert executed == [ORDER_DECIMATED]

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_hypothesis_equivalence(self, data):
        """Decimated convolutions on every kernel (``loop`` up to 256
        points) against the oracle, on drawn residues."""
        n, radices = data.draw(st.sampled_from(SHAPES))
        kernel = data.draw(
            st.sampled_from(
                [k for k in KERNELS if n <= 256 or k != KERNEL_LOOP]
            )
        )
        negacyclic = data.draw(st.booleans())
        batch = data.draw(st.integers(min_value=1, max_value=3))
        elems = st.integers(min_value=0, max_value=P - 1)
        a = np.array(
            data.draw(
                st.lists(
                    st.lists(elems, min_size=n, max_size=n),
                    min_size=batch,
                    max_size=batch,
                )
            ),
            dtype=np.uint64,
        )
        b = np.array(
            data.draw(
                st.lists(
                    st.lists(elems, min_size=n, max_size=n),
                    min_size=batch,
                    max_size=batch,
                )
            ),
            dtype=np.uint64,
        )
        conv = (
            negacyclic_convolution_many
            if negacyclic
            else cyclic_convolution_many
        )
        decimated = _decimated(
            n,
            radices,
            kernel=kernel,
            twist=TWIST_NEGACYCLIC if negacyclic else "",
        )
        assert np.array_equal(conv(a, b, decimated), oracle(a, b, negacyclic))


class TestSSAMultiplierOrdering:
    def test_default_is_decimated(self):
        mul = SSAMultiplier.for_bits(2048)
        assert mul.convolution_plan.ordering == ORDER_DECIMATED
        assert mul.convolution_plan.base_plan is mul.plan
        assert mul.plan.ordering == ORDER_NATURAL

    def test_orderings_agree_with_ints(self):
        """The multiplier's decimated sandwich and the same pipeline on
        its natural plan both give the integer products."""
        import random

        from repro.ntt.convolution import pointwise_mul
        from repro.ssa.carry import carry_recover_many
        from repro.ssa.encode import decompose_many, recompose_many

        rng = random.Random(23)
        pairs = [
            (rng.getrandbits(4096), rng.getrandbits(4096))
            for _ in range(3)
        ]
        truth = [a * b for a, b in pairs]
        mul = SSAMultiplier.for_bits(4096)
        bits = mul.params.coefficient_bits
        spectra = execute_plan_batch(
            decompose_many([a for a, _ in pairs] + [b for _, b in pairs], mul.params),
            mul.plan,
        )
        natural = execute_plan_inverse_batch(
            pointwise_mul(spectra[:3], spectra[3:]), mul.plan
        )
        assert recompose_many(carry_recover_many(natural, bits), bits) == truth
        assert mul.multiply_many(pairs) == truth
        a, b = pairs[0]
        assert mul.multiply(a, b) == a * b
        assert mul.square(a) == a * a

    def test_forward_transform_stays_natural(self):
        from repro.ssa.encode import decompose

        mul = SSAMultiplier.for_bits(2048)
        digits = decompose(12345, mul.params)[np.newaxis, :]
        assert np.array_equal(
            mul.forward_transform(12345), twisted_dft(digits, False)[0]
        )


class TestBackendIdentity:
    def test_engine_plan_ordering_keying(self):
        """Engine plans are natural; the decimated pair is the memoized
        companion and takes no cache entry of its own."""
        engine = Engine()
        natural = engine.plan(256)
        assert natural.ordering == ORDER_NATURAL
        decimated = decimated_companion(natural)
        assert decimated is decimated_companion(engine.plan(256))
        assert decimated is engine.ring(256).convolution_plan
        assert engine.cache_stats().size == 1

    def test_ring_convolution_plans(self):
        ring = Engine().ring(256)
        assert ring.plan.ordering == ORDER_NATURAL
        assert ring.convolution_plan.ordering == ORDER_DECIMATED
        nega = ring.negacyclic_convolution_plan
        assert nega.ordering == ORDER_DECIMATED
        assert nega.twist == TWIST_NEGACYCLIC

    @pytest.mark.parametrize("negacyclic", [False, True])
    def test_software_vs_hw_model_rings(self, negacyclic):
        rng = np.random.default_rng(29)
        n = 128
        a, b = _rows(rng, 3, n), _rows(rng, 3, n)
        want = oracle(a, b, negacyclic)
        for backend, config in (
            ("software", None),
            ("hw-model", ExecutionConfig(fidelity="fast")),
            ("hw-model", ExecutionConfig(fidelity="datapath")),
        ):
            engine = (
                Engine(config=config, backend=backend)
                if config
                else Engine(backend=backend)
            )
            got = engine.ring(n).convolve(a, b, negacyclic=negacyclic)
            assert np.array_equal(got, want), (backend, config)

    def test_software_mp_shared_memory_transfers(self):
        rng = np.random.default_rng(31)
        n, batch = 2048, 32
        a, b = _rows(rng, batch, n), _rows(rng, batch, n)
        software = Engine()
        mp_engine = Engine(
            config=ExecutionConfig(workers=2), backend="software-mp"
        )
        try:
            # convolve concatenates both operands into (64, 2048) rows
            # of uint64 = 1 MiB.  Ring transforms on software-mp run on
            # the caller's thread, so even this size moves nothing
            # between processes and builds no worker pool.
            assert np.array_equal(
                mp_engine.ring(n).convolve(a, b),
                software.ring(n).convolve(a, b),
            )
            assert np.array_equal(
                mp_engine.ring(n).convolve(a, b, negacyclic=True),
                software.ring(n).convolve(a, b, negacyclic=True),
            )
            assert mp_engine.backend.pool_generation == 0
        finally:
            mp_engine.close()

    def test_software_mp_small_batches_below_threshold(self):
        rng = np.random.default_rng(37)
        n = 128
        a, b = _rows(rng, 4, n), _rows(rng, 4, n)
        software = Engine()
        mp_engine = Engine(
            config=ExecutionConfig(workers=2), backend="software-mp"
        )
        try:
            assert np.array_equal(
                mp_engine.ring(n).convolve(a, b),
                software.ring(n).convolve(a, b),
            )
        finally:
            mp_engine.close()

    def test_hw_model_explicit_spectra_stay_natural(self):
        rng = np.random.default_rng(41)
        n = 128
        rows = _rows(rng, 2, n)
        hw = Engine(backend="hw-model").ring(n)
        sw = Engine().ring(n)
        assert np.array_equal(hw.forward(rows), sw.forward(rows))
        assert np.array_equal(hw.inverse(rows), sw.inverse(rows))
