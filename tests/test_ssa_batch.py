"""Property tests for the batched SSA pipeline: decompose_many /
carry_recover_many / recompose_many / SSAMultiplier.multiply_many."""

import random
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.engine import Engine, ExecutionConfig
from repro.ssa.carry import carry_recover, carry_recover_many
from repro.ssa.encode import (
    SSAParameters,
    decompose,
    decompose_many,
    recompose,
    recompose_many,
)
from repro.ssa.multiplier import SSAMultiplier


@pytest.fixture(
    params=[
        pytest.param(
            "compiled",
            marks=pytest.mark.skipif(
                not native.available(), reason="no C compiler"
            ),
        ),
        "numpy",
    ]
)
def carry_path(request):
    """Run ``carry_recover_many`` on one path: the compiled row pass, or
    the numpy passes and lookahead a host without a compiler runs."""
    if request.param == "numpy":
        with mock.patch.object(native, "carry_rows", return_value=None):
            yield request.param
    else:
        yield request.param


def _edge_rows(m, n, seed):
    """Random 64-bit, all-ones-plus-one (a full-length ripple),
    single-digit-carry, zero and all-maximum coefficient rows."""
    rng = np.random.default_rng(seed)
    mask = (1 << m) - 1
    rows = np.zeros((5, n), dtype=np.uint64)
    rows[0] = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
    rows[1] = mask
    rows[1, 0] = mask + 1
    rows[2, n // 2] = 1 << m
    rows[4] = (1 << 64) - 1
    return rows


class TestDecomposeMany:
    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=(1 << 2048) - 1),
            min_size=0,
            max_size=5,
        )
    )
    def test_matches_per_value(self, values):
        params = SSAParameters(coefficient_bits=24, operand_coefficients=128)
        matrix = decompose_many(values, params)
        assert matrix.shape == (len(values), params.transform_size)
        for value, row in zip(values, matrix):
            assert np.array_equal(row, decompose(value, params))

    def test_non_byte_aligned_width(self):
        params = SSAParameters(coefficient_bits=10, operand_coefficients=16)
        values = [0, 1, (1 << params.operand_bits) - 1, 12345]
        matrix = decompose_many(values, params)
        for value, row in zip(values, matrix):
            assert np.array_equal(row, decompose(value, params))

    def test_oversize_operand_rejected(self):
        params = SSAParameters(coefficient_bits=24, operand_coefficients=128)
        with pytest.raises(ValueError):
            decompose_many([1 << params.operand_bits], params)


class TestCarryRecoverMany:
    @settings(max_examples=30, deadline=None)
    @given(
        m=st.sampled_from([8, 10, 24, 32]),
        batch=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_per_row(self, m, batch, seed):
        rng = np.random.default_rng(seed)
        # Raw convolution magnitudes: anything below 2**63.
        coeffs = rng.integers(0, 1 << 63, size=(batch, 32), dtype=np.uint64)
        digit_rows = carry_recover_many(coeffs, m)
        for row_in, row_out in zip(coeffs, digit_rows):
            want = carry_recover([int(c) for c in row_in], m)
            got = [int(d) for d in row_out]
            assert got[: len(want)] == want
            assert all(d == 0 for d in got[len(want) :])

    def test_saturated_ripple(self):
        """A full row of maximal digits plus one carry ripples end-to-end."""
        m = 24
        mask = (1 << m) - 1
        row = np.full((1, 64), mask, dtype=np.uint64)
        row[0, 0] = mask + 1
        digit_rows = carry_recover_many(row, m)
        want = carry_recover([int(c) for c in row[0]], m)
        assert [int(d) for d in digit_rows[0][: len(want)]] == want

    @pytest.mark.parametrize("m", [1, 7, 8, 23, 24, 32, 63])
    def test_edge_rows_match_scalar(self, carry_path, m):
        coeffs = _edge_rows(m, 40, seed=m)
        digit_rows = carry_recover_many(coeffs, m)
        assert digit_rows.shape == (5, 40 + -(-64 // m) + 1)
        for row_in, row_out in zip(coeffs, digit_rows):
            want = carry_recover([int(c) for c in row_in], m)
            got = [int(d) for d in row_out]
            assert got[: len(want)] == want
            assert all(d == 0 for d in got[len(want) :])

    @pytest.mark.parametrize("shape", [(0, 16), (3, 0), (0, 0)])
    def test_empty_shapes(self, carry_path, shape):
        digit_rows = carry_recover_many(np.zeros(shape, np.uint64), 24)
        assert digit_rows.shape == (shape[0], shape[1] + 4)
        assert not digit_rows.any()

    def test_compiled_carry_checks_before_any_call_into_c(self):
        """Inputs the C pass does not take answer ``None``, not a call."""
        good = np.zeros((2, 8), dtype=np.uint64)
        for coefficients, m, width in [
            (good.astype(np.int64), 24, 12),  # dtype
            (good[:, ::2], 24, 12),  # stride
            (good[0], 24, 12),  # 1-D
            (good[None], 24, 12),  # 3-D
            (good, 0, 12),
            (good, 64, 12),
            (good, 24, 7),  # fewer digits than coefficients
        ]:
            assert native.carry_rows(coefficients, m, width) is None

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            carry_recover_many(np.zeros(8, dtype=np.uint64), 24)
        with pytest.raises(ValueError):
            carry_recover_many(np.zeros((2, 8), dtype=np.uint64), 64)


class TestRecomposeMany:
    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=(1 << 1024) - 1),
            min_size=1,
            max_size=4,
        )
    )
    def test_roundtrip(self, values):
        params = SSAParameters(coefficient_bits=24, operand_coefficients=64)
        matrix = decompose_many(values, params)
        assert recompose_many(matrix, params.coefficient_bits) == values

    def test_unnormalized_falls_back(self):
        rows = np.array([[1 << 40, 5], [7, 0]], dtype=np.uint64)
        want = [recompose([int(c) for c in row], 24) for row in rows]
        assert recompose_many(rows, 24) == want


class TestMultiplyMany:
    @settings(max_examples=15, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=(1 << 2048) - 1),
                st.integers(min_value=0, max_value=(1 << 2048) - 1),
            ),
            min_size=0,
            max_size=4,
        )
    )
    def test_matches_bigint_and_looped(self, pairs):
        multiplier = SSAMultiplier.for_bits(2048)
        got = multiplier.multiply_many(pairs)
        assert got == [a * b for a, b in pairs]
        assert got == [multiplier.multiply(a, b) for a, b in pairs]

    def test_edge_operands(self):
        multiplier = SSAMultiplier.for_bits(4096)
        pairs = [
            (0, 0),
            (1, 1),
            (2**4096 - 1, 1),
            (2**4000 - 1, 2**4000 - 1),
            (2**24, 2**24 - 1),
        ]
        assert multiplier.multiply_many(pairs) == [a * b for a, b in pairs]

    def test_empty_batch(self):
        assert SSAMultiplier.for_bits(1024).multiply_many([]) == []

    def test_all_ones_square_costs_about_a_random_one(self, carry_path):
        """(2^65536 − 1)² carries through one saturated digit run as
        long as the product; the carry stays linear, so eight such
        squares take at most 3× eight random squares (best of 3)."""
        bits = 65536
        multiplier = SSAMultiplier.for_bits(bits)
        rng = np.random.default_rng(7)
        ones = (1 << bits) - 1
        randoms = [
            int.from_bytes(rng.bytes(bits // 8), "little") for _ in range(8)
        ]

        def best_of_3(values):
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                got = multiplier.multiply_many([(v, v) for v in values])
                best = min(best, time.perf_counter() - start)
            assert got == [v * v for v in values]
            return best

        random_s = best_of_3(randoms)
        ones_s = best_of_3([ones] * 8)
        assert ones_s <= 3 * random_s, (ones_s, random_s)


@pytest.fixture(scope="module")
def engines():
    """A two-thread and a one-thread engine on the shared plan cache."""
    threaded = Engine(config=ExecutionConfig(workers=2, cache="shared"))
    single = Engine(config=ExecutionConfig(workers=1, cache="shared"))
    yield threaded, single
    threaded.close()


class TestThreadedMultiplyMany:
    """The ``software`` backend's batch-axis threads change no bit."""

    @pytest.mark.parametrize("bits", [4096, 786_432])
    @pytest.mark.parametrize("count", [1, 2, 3, 7, 8, 9])
    def test_matches_one_thread(self, engines, bits, count):
        threaded, single = engines
        rng = random.Random(bits + count)
        a = [rng.getrandbits(bits) for _ in range(count)]
        b = [rng.getrandbits(bits) for _ in range(count)]
        got = threaded.multiply(a, b)
        assert got == single.multiply(a, b)
        if bits == 4096:  # paper-size big-int products cost ~0.1 s each
            assert got == [x * y for x, y in zip(a, b)]

    def test_paper_batches_split_over_the_pool(self, engines):
        threaded, _ = engines
        top = (1 << 786_432) - 1
        assert threaded.multiply([top, 3], [5, top]) == [5 * top, 3 * top]
        assert (threaded.backend._threads is not None) == native.available()

    @pytest.mark.parametrize("bits", [4096, 786_432])
    def test_saturated_operands(self, engines, bits):
        threaded, single = engines
        top = (1 << bits) - 1
        a = [top, top, top - 1, 1 << (bits - 1), top]
        b = [top, 1, top, top, 0]
        got = threaded.multiply(a, b)
        assert got == single.multiply(a, b)
        assert got == [x * y for x, y in zip(a, b)]

    def test_batch_chunk_bounds_the_pairs_in_flight(self):
        rng = random.Random(79)
        a = [rng.getrandbits(262_144) for _ in range(5)]
        b = [rng.getrandbits(262_144) for _ in range(5)]
        engine = Engine(
            config=ExecutionConfig(workers=2, batch_chunk=2, cache="shared")
        )
        seen = []
        multiplier = engine.multiplier(bits=262_144)
        run = multiplier.multiply_many

        def record(pairs):
            seen.append(len(pairs))
            return run(pairs)

        with mock.patch.object(multiplier, "multiply_many", record):
            assert engine.multiply(a, b) == [x * y for x, y in zip(a, b)]
        engine.close()
        assert sum(seen) == 5
        # One 262,144-bit pair (two 32,768-point rows) fills a shard,
        # so two-pair chunks split one pair a thread; the last runs
        # alone.
        assert seen == ([1, 1, 1, 1, 1] if native.available() else [2, 2, 1])

    def test_oversized_operand_in_second_shard(self, engines):
        threaded, _ = engines
        multiplier = threaded.multiplier(bits=786_432)
        top = (1 << 786_432) - 1
        pairs = [(top, top)] * 3 + [(top, top + 1)]
        with pytest.raises(ValueError, match="exceeds"):
            threaded.backend.multiply_many(threaded, multiplier, pairs)
