"""Permutation-free (decimated) plan pairs: DIF forward / DIT inverse
equivalence against the natural-order ``loop`` oracle across radix
mixes, shapes, fused plans and compute backends."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _natural(n, radices):
    return plan_for_size(n, radices, kernel=KERNEL_LOOP)


class TestDecimatedPlanConstruction:
    def test_cache_returns_companion_identity(self):
        natural = plan_for_size(64, (8, 8))
        decimated = plan_for_size(64, (8, 8), ordering=ORDER_DECIMATED)
        assert decimated is decimated_companion(natural)
        assert decimated is plan_for_size(
            64, (8, 8), ordering=ORDER_DECIMATED
        )
        assert decimated is not natural

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
        decimated = plan_for_size(64, (8, 8), ordering=ORDER_DECIMATED)
        assert decimated_companion(decimated) is decimated

    def test_dit_inverse_reverses_radices(self):
        decimated = plan_for_size(
            1024, (64, 16), ordering=ORDER_DECIMATED
        )
        assert decimated.radices == (64, 16)
        assert decimated.inverse_plan.radices == (16, 64)

    def test_invalid_ordering_rejected(self):
        with pytest.raises(ValueError):
            plan_for_size(64, (8, 8), ordering="bitrev")

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
        decimated = plan_for_size(n, radices, ordering=ORDER_DECIMATED)
        spectra = execute_plan_batch(rows, decimated)
        assert np.array_equal(
            execute_plan_inverse_batch(spectra, decimated), rows
        )

    def test_input_rows_not_mutated(self):
        rng = np.random.default_rng(7)
        rows = _rows(rng, 2, 64)
        keep = rows.copy()
        decimated = plan_for_size(64, (8, 8), ordering=ORDER_DECIMATED)
        execute_plan_batch(rows, decimated)
        assert np.array_equal(rows, keep)
        spectra = execute_plan_batch(rows, decimated)
        keep_s = spectra.copy()
        execute_plan_inverse_batch(spectra, decimated)
        assert np.array_equal(spectra, keep_s)


class TestReorderHelpers:
    def test_roundtrip(self):
        rng = np.random.default_rng(11)
        decimated = plan_for_size(256, (16, 16), ordering=ORDER_DECIMATED)
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
        decimated = plan_for_size(64, (8, 8), ordering=ORDER_DECIMATED)
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
        oracle = cyclic_convolution_many(a, b, _natural(n, radices))
        decimated = plan_for_size(
            n, radices, kernel=kernel, ordering=ORDER_DECIMATED
        )
        assert np.array_equal(
            cyclic_convolution_many(a, b, decimated), oracle
        )

    @pytest.mark.parametrize("n,radices", SHAPES)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_fused_negacyclic_many(self, n, radices, kernel):
        rng = np.random.default_rng(5 * n)
        a, b = _rows(rng, 3, n), _rows(rng, 3, n)
        oracle = negacyclic_convolution_many(a, b, _natural(n, radices))
        fused = plan_for_size(
            n,
            radices,
            kernel=kernel,
            twist=TWIST_NEGACYCLIC,
            ordering=ORDER_DECIMATED,
        )
        stages = fused.stages + fused.inverse_plan.stages
        assert all(stage.factors is not None for stage in stages)
        assert np.array_equal(
            negacyclic_convolution_many(a, b, fused), oracle
        )

    def test_negacyclic_broadcast(self):
        rng = np.random.default_rng(17)
        n = 256
        rows, fixed = _rows(rng, 6, n), _rows(rng, 1, n)[0]
        oracle = negacyclic_convolution_broadcast(
            rows, fixed, _natural(n, (16, 16))
        )
        assert np.array_equal(
            negacyclic_convolution_broadcast(rows, fixed), oracle
        )

    def test_default_plans_are_decimated(self):
        rng = np.random.default_rng(19)
        n = 64
        a, b = _rows(rng, 2, n), _rows(rng, 2, n)
        # plan=None resolves to the decimated pair; the result still
        # matches the explicit natural oracle bit for bit.
        assert np.array_equal(
            cyclic_convolution_many(a, b),
            cyclic_convolution_many(a, b, _natural(n, (8, 8))),
        )

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_hypothesis_equivalence(self, data):
        n, radices = data.draw(st.sampled_from(SHAPES))
        kernel = data.draw(st.sampled_from(KERNELS))
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
        decimated = plan_for_size(
            n,
            radices,
            kernel=kernel,
            twist=TWIST_NEGACYCLIC if negacyclic else "",
            ordering=ORDER_DECIMATED,
        )
        assert np.array_equal(
            conv(a, b, decimated), conv(a, b, _natural(n, radices))
        )


class TestSSAMultiplierOrdering:
    def test_default_is_decimated(self):
        mul = SSAMultiplier.for_bits(2048)
        assert mul.convolution_plan.ordering == ORDER_DECIMATED
        assert mul.convolution_plan.base_plan is mul.plan
        assert mul.plan.ordering == ORDER_NATURAL

    def test_orderings_agree_with_ints(self):
        import random

        rng = random.Random(23)
        pairs = [
            (rng.getrandbits(4096), rng.getrandbits(4096))
            for _ in range(3)
        ]
        truth = [a * b for a, b in pairs]
        decimated = SSAMultiplier.for_bits(4096)
        natural = SSAMultiplier.for_bits(4096, ordering=ORDER_NATURAL)
        assert natural.convolution_plan.ordering == ORDER_NATURAL
        assert decimated.multiply_many(pairs) == truth
        assert natural.multiply_many(pairs) == truth
        a, b = pairs[0]
        assert decimated.multiply(a, b) == natural.multiply(a, b) == a * b

    def test_forward_transform_stays_natural(self):
        mul = SSAMultiplier.for_bits(2048)
        nat = SSAMultiplier.for_bits(2048, ordering=ORDER_NATURAL)
        assert np.array_equal(
            mul.forward_transform(12345), nat.forward_transform(12345)
        )


class TestBackendIdentity:
    def test_engine_plan_ordering_keying(self):
        engine = Engine()
        natural = engine.plan(256)
        decimated = engine.plan(256, ordering=ORDER_DECIMATED)
        assert decimated is decimated_companion(natural)
        assert engine.plan(256, ordering=ORDER_DECIMATED) is decimated

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
        conv = (
            negacyclic_convolution_many
            if negacyclic
            else cyclic_convolution_many
        )
        oracle = conv(a, b, _natural(n, (16, 8)))
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
            assert np.array_equal(got, oracle), (backend, config)

    def test_software_mp_shared_memory_transfers(self):
        rng = np.random.default_rng(31)
        n, batch = 2048, 32
        a, b = _rows(rng, batch, n), _rows(rng, batch, n)
        software = Engine()
        mp_engine = Engine(
            config=ExecutionConfig(workers=2), backend="software-mp"
        )
        try:
            # convolve concatenates both operands: (64, 2048) rows of
            # uint64 = 1 MiB, exactly the shared-memory threshold.
            assert (
                2 * batch * n * 8 >= mp_engine.backend.min_shm_bytes
            )
            assert np.array_equal(
                mp_engine.ring(n).convolve(a, b),
                software.ring(n).convolve(a, b),
            )
            assert np.array_equal(
                mp_engine.ring(n).convolve(a, b, negacyclic=True),
                software.ring(n).convolve(a, b, negacyclic=True),
            )
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
