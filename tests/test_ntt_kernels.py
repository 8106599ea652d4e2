"""Stage kernels (repro.ntt.kernels): the limb-matmul and compiled
kernels against ``loop`` on raw stage shapes, whole plans per kernel
against the reference oracle, and the host's kernel choice.

Every plan flavour's stages are checked kernel against kernel in
``tests/test_ntt_differential.py``, whose helpers these tests share.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_ntt_differential import FAST_KERNELS, check_spectra, edge_salted, oracle

from repro import native
from repro.field.roots import root_of_unity
from repro.field.solinas import P, pow_mod
from repro.field.vector import vmul
from repro.ntt.kernels import (
    KERNEL_COMPILED,
    KERNEL_LIMB_MATMUL,
    KERNEL_LOOP,
    available_kernels,
    default_kernel,
    factor_stage,
    limb_decompose_matrix,
    resolve_kernel,
    stage_dft_limb_matmul,
    stage_dft_loop,
    stage_executor,
)
from repro.ntt.negacyclic import (
    negacyclic_convolution_many,
    negacyclic_inverse_many,
    negacyclic_transform_many,
)
from repro.ntt.plan import PlanCache, StageSpec, _dft_matrix, plan_for_size
from repro.ntt.staged import execute_plan_batch, execute_plan_inverse_batch

needs_compiled = pytest.mark.skipif(
    not native.available(), reason="no C compiler"
)


class TestStageKernelEquivalence:
    """stage_dft_limb_matmul == stage_dft_loop on raw stage shapes."""

    @settings(max_examples=40, deadline=None)
    @given(
        radix=st.sampled_from([2, 4, 8, 16, 32, 64]),
        b=st.integers(min_value=1, max_value=4),
        tail=st.sampled_from([1, 2, 7, 16]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_random_matrices(self, radix, b, tail, seed):
        """Arbitrary canonical matrices — not just DFT matrices — so the
        partial-product bounds are exercised at full operand range."""
        rng = np.random.default_rng(seed)
        matrix = edge_salted(rng, (radix, radix))
        data = edge_salted(rng, (b, radix, tail))
        want = stage_dft_loop(data, matrix)
        got = stage_dft_limb_matmul(data, limb_decompose_matrix(matrix))
        assert np.array_equal(want, got)

    def test_all_max_residues(self):
        """Worst case for the accumulation bounds: every operand p−1."""
        radix = 64
        matrix = np.full((radix, radix), np.uint64(P - 1))
        data = np.full((2, radix, 3), np.uint64(P - 1))
        want = stage_dft_loop(data, matrix)
        got = stage_dft_limb_matmul(data, limb_decompose_matrix(matrix))
        assert np.array_equal(want, got)

    def test_out_parameter_returned_and_filled(self):
        rng = np.random.default_rng(3)
        matrix = edge_salted(rng, (8, 8))
        data = edge_salted(rng, (2, 8, 5))
        want = stage_dft_loop(data, matrix)
        for kernel in (
            lambda d, o: stage_dft_loop(d, matrix, out=o),
            lambda d, o: stage_dft_limb_matmul(
                d, limb_decompose_matrix(matrix), out=o
            ),
        ):
            out = np.empty_like(data)
            assert kernel(data, out) is out
            assert np.array_equal(out, want)

    def test_chunking_boundary(self):
        """Blocks larger than the cache chunk split without seams."""
        from repro.ntt import kernels

        rng = np.random.default_rng(5)
        radix, tail = 16, 64
        rows_per_chunk = max(1, kernels._CHUNK_ELEMS // (radix * tail))
        b = 2 * rows_per_chunk + 1
        matrix = edge_salted(rng, (radix, radix))
        data = edge_salted(rng, (b, radix, tail))
        want = stage_dft_loop(data, matrix)
        got = stage_dft_limb_matmul(data, limb_decompose_matrix(matrix))
        assert np.array_equal(want, got)

    def test_oversized_radix_rejected(self):
        from repro.ntt.kernels import MAX_LIMB_MATMUL_RADIX

        bad_radix = MAX_LIMB_MATMUL_RADIX + 1
        data = np.zeros((1, bad_radix, 1), dtype=np.uint64)
        limbs = np.zeros((4, 1, 1))
        with pytest.raises(ValueError):
            stage_dft_limb_matmul(data, limbs)


def _dft_matrix_of(radix):
    return _dft_matrix(radix, root_of_unity(radix))


def _scaled_dft(rng, radix, root, scale_cols, scale_rows):
    """``diag(r)·F_R(root)·diag(c)`` with random nonzero scales — the
    shape of every plan stage matrix, fused or not."""
    matrix = _dft_matrix(radix, root)
    if scale_cols:
        cols = rng.integers(1, P, size=radix, dtype=np.uint64)
        matrix = vmul(matrix, np.broadcast_to(cols, matrix.shape))
    if scale_rows:
        rows = rng.integers(1, P, size=(radix, 1), dtype=np.uint64)
        matrix = vmul(matrix, np.broadcast_to(rows, matrix.shape))
    return matrix


@needs_compiled
class TestCompiledStage:
    """The compiled stage kernel against ``loop`` on raw stage shapes."""

    def _run(self, data, matrix):
        stage = StageSpec(
            radix=matrix.shape[0],
            sub_transforms=1,
            dft_matrix=matrix,
            twiddles=None,
        )
        out = np.empty_like(data)
        assert stage_executor(KERNEL_COMPILED)(data, stage, out) is out
        return stage, out

    @settings(max_examples=12, deadline=None)
    @given(
        radix=st.sampled_from([2, 4, 8, 16, 32, 64, 128]),
        b=st.integers(min_value=1, max_value=2),
        tail=st.sampled_from([1, 2, 7, 33]),
        scale_cols=st.booleans(),
        scale_rows=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    # Always run radix 128, whose roots are not powers of two.
    @example(radix=128, b=1, tail=2, scale_cols=True, scale_rows=True, seed=0)
    def test_scaled_dft_matrices(
        self, radix, b, tail, scale_cols, scale_rows, seed
    ):
        rng = np.random.default_rng(seed)
        # Any primitive root: an odd power of the canonical one.
        root = pow_mod(root_of_unity(radix), 2 * int(rng.integers(radix)) + 1)
        matrix = _scaled_dft(rng, radix, root, scale_cols, scale_rows)
        data = edge_salted(rng, (b, radix, tail))
        stage, got = self._run(data, matrix)
        assert stage.factors is not None
        assert np.array_equal(got, stage_dft_loop(data, matrix))

    def test_edge_residues(self):
        """Inputs of only 0, 1 and p−1 (and non-canonical words, which
        every kernel reduces) through scaled and unscaled stages."""
        rng = np.random.default_rng(11)
        for radix in (8, 64):
            matrix = _scaled_dft(rng, radix, root_of_unity(radix), True, True)
            for value in (0, 1, P - 1):
                data = np.full((2, radix, 3), np.uint64(value))
                _, got = self._run(data, matrix)
                assert np.array_equal(got, stage_dft_loop(data, matrix))
            data = rng.choice(
                np.array([0, 1, P - 1, P, 2**64 - 1], dtype=np.uint64),
                size=(2, radix, 5),
            )
            _, got = self._run(data, _dft_matrix_of(radix))
            want = stage_dft_limb_matmul(
                data, limb_decompose_matrix(_dft_matrix_of(radix))
            )
            assert np.array_equal(got, want)

    def test_unstructured_matrix_runs_limb_matmul(self):
        """A hand-built spec whose matrix is no scaled DFT does not
        factor, and the compiled executor runs it on limb-matmul; its
        factors are always derived, never passed in."""
        rng = np.random.default_rng(12)
        matrix = rng.integers(0, P, size=(8, 8), dtype=np.uint64)
        assert factor_stage(matrix) is None
        data = edge_salted(rng, (3, 8, 5))
        stage, got = self._run(data, matrix)
        assert stage.factors is None
        assert np.array_equal(got, stage_dft_loop(data, matrix))
        with pytest.raises(TypeError):
            StageSpec(
                radix=8,
                sub_transforms=1,
                dft_matrix=matrix,
                twiddles=None,
                factors=factor_stage(_dft_matrix_of(8)),
            )

    def test_factor_tables_checked_before_any_call_into_c(self):
        ones = np.ones(4, dtype=np.uint64)
        bad = [
            dict(powers=np.ones(3, np.uint64)),  # radix 6
            dict(powers=ones[:0]),  # radix 0
            dict(powers=ones.astype(np.int64)),  # dtype
            dict(powers=ones, col_scale=ones),  # scale of radix 4
            dict(powers=ones, row_scale=np.ones(16, np.uint64)),  # radix 16
            dict(powers=np.ones(8, np.uint64)[::2]),  # stride
        ]
        for tables in bad:
            with pytest.raises(ValueError):
                native.StageFactors(**tables)

    def test_layout_it_does_not_take_runs_limb_matmul(self):
        rng = np.random.default_rng(13)
        matrix = _dft_matrix_of(16)
        data = edge_salted(rng, (2, 16, 8))[:, :, ::2]  # not contiguous
        _, got = self._run(data, matrix)
        assert np.array_equal(got, stage_dft_loop(data, matrix))


#: (size, radices) spanning radix shapes and stage counts (2–64).
CONFIGS = [
    (16, (4, 4)),
    (64, (8, 8)),
    (64, (64,)),
    (64, (2, 32)),
    (256, (16, 16)),
    (512, (2, 4, 8, 8)),
    (1024, (64, 16)),
    (1024, (16, 64)),
]


class TestPlanEquivalence:
    """Whole plans on each fast kernel against the reference oracle."""

    @settings(max_examples=30, deadline=None)
    @given(
        config=st.sampled_from(CONFIGS),
        kernel=st.sampled_from(FAST_KERNELS),
        batch=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_forward_and_inverse(self, config, kernel, batch, seed):
        n, radices = config
        plan = plan_for_size(n, radices, kernel=kernel)
        # Every stage of a real plan factors for the compiled kernel.
        stages = plan.stages + plan.inverse_plan.stages
        assert all(stage.factors is not None for stage in stages)
        rng = np.random.default_rng(seed)
        check_spectra(
            lambda rows: execute_plan_batch(rows, plan),
            lambda rows: execute_plan_inverse_batch(rows, plan),
            edge_salted(rng, (batch, n)),
            edge_salted(rng, (batch, n)),
            negacyclic=False,
        )

    @pytest.mark.parametrize("kernel", FAST_KERNELS)
    @pytest.mark.parametrize("batch", [0, 1])
    def test_empty_and_single_batches(self, kernel, batch):
        plan = plan_for_size(1024, (64, 16), kernel=kernel)
        rng = np.random.default_rng(batch)
        a = rng.integers(0, P, size=(batch, 1024), dtype=np.uint64)
        b = rng.integers(0, P, size=(batch, 1024), dtype=np.uint64)
        assert execute_plan_batch(a, plan).shape == (batch, 1024)
        check_spectra(
            lambda rows: execute_plan_batch(rows, plan),
            lambda rows: execute_plan_inverse_batch(rows, plan),
            a,
            b,
            negacyclic=False,
        )

    @pytest.mark.parametrize("kernel", FAST_KERNELS)
    @pytest.mark.parametrize("value", [0, 1, P - 1])
    def test_constant_residues(self, kernel, value):
        """The transforms of a constant row ``c``: ``n·c`` at frequency
        0 forward, ``c`` at index 0 inverse, zeros elsewhere."""
        plan = plan_for_size(256, (16, 16), kernel=kernel)
        matrix = np.full((2, 256), np.uint64(value))
        impulse = np.zeros_like(matrix)
        impulse[:, 0] = value * 256 % P
        assert np.array_equal(execute_plan_batch(matrix, plan), impulse)
        impulse[:, 0] = value
        assert np.array_equal(execute_plan_inverse_batch(matrix, plan), impulse)

    @settings(max_examples=15, deadline=None)
    @given(
        config=st.sampled_from(CONFIGS[:6]),
        kernel=st.sampled_from(FAST_KERNELS),
        batch=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_negacyclic_wrappers(self, config, kernel, batch, seed):
        """The explicit-twist route on a cyclic plan of each kernel."""
        n, radices = config
        plan = plan_for_size(n, radices, kernel=kernel)
        rng = np.random.default_rng(seed)
        a = edge_salted(rng, (batch, n))
        b = edge_salted(rng, (batch, n))
        assert np.array_equal(
            negacyclic_convolution_many(a, b, plan), oracle(a, b, True)
        )
        check_spectra(
            lambda rows: negacyclic_transform_many(rows, plan),
            lambda rows: negacyclic_inverse_many(rows, plan),
            a,
            b,
            negacyclic=True,
        )


class TestBackendSelection:
    def test_available(self):
        compiled = {KERNEL_COMPILED} if native.available() else set()
        assert set(available_kernels()) == {
            KERNEL_LOOP,
            KERNEL_LIMB_MATMUL,
        } | compiled

    def test_default_is_compiled_when_library_loads(self):
        assert default_kernel() == resolve_kernel(None) == (
            KERNEL_COMPILED if native.available() else KERNEL_LIMB_MATMUL
        )
        assert plan_for_size(16, (4, 4)).kernel == default_kernel()

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            resolve_kernel("vliw")
        with pytest.raises(ValueError):
            plan_for_size(16, (4, 4), kernel="vliw")

    def test_plans_cached_per_kernel(self):
        loop_plan = plan_for_size(64, (8, 8), kernel=KERNEL_LOOP)
        fast_plan = plan_for_size(64, (8, 8), kernel=KERNEL_LIMB_MATMUL)
        assert loop_plan is not fast_plan
        assert loop_plan is plan_for_size(64, (8, 8), kernel=KERNEL_LOOP)
        assert loop_plan.inverse_plan.kernel == KERNEL_LOOP
        assert fast_plan.inverse_plan.kernel == KERNEL_LIMB_MATMUL

    def test_plan_precomputes_limb_matrices(self):
        """A plan builds only the tables its kernel reads, on first
        use: limb planes for limb-matmul, none for compiled."""
        ones = np.ones((1, 64), dtype=np.uint64)
        for kernel in FAST_KERNELS:
            plan = PlanCache().plan_for_size(64, (8, 8), kernel=kernel)
            assert not any("dft_limbs" in vars(s) for s in plan.stages)
            execute_plan_batch(ones, plan)
            built = ["dft_limbs" in vars(s) for s in plan.stages]
            assert built == [kernel == KERNEL_LIMB_MATMUL] * len(built)
        for stage in plan.stages:
            assert stage.dft_limbs is stage.dft_limbs  # cached
            assert stage.dft_limbs.shape == (4, stage.radix, stage.radix)
            assert np.array_equal(
                stage.dft_limbs, limb_decompose_matrix(stage.dft_matrix)
            )

    def test_hand_built_stage_decomposed_at_construction(self):
        """A hand-built StageSpec derives its limb planes from its
        matrix and executes on the limb-matmul kernel."""
        rng = np.random.default_rng(9)
        matrix = rng.integers(0, P, size=(4, 4), dtype=np.uint64)
        stage = StageSpec(
            radix=4, sub_transforms=1, dft_matrix=matrix, twiddles=None
        )
        assert np.array_equal(
            stage.dft_limbs, limb_decompose_matrix(matrix)
        )
        data = rng.integers(0, P, size=(2, 4, 3), dtype=np.uint64)
        out = np.empty_like(data)
        stage_executor(KERNEL_LIMB_MATMUL)(data, stage, out)
        assert np.array_equal(out, stage_dft_loop(data, matrix))
