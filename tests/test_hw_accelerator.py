"""Tests for the full accelerator model (distributed FFT + SSA)."""

import numpy as np
import pytest

from repro.field.solinas import P
from repro.field.vector import to_field_array
from repro.hw.accelerator import HEAccelerator
from repro.hw.fft64_unit import FFT64Config
from repro.hw.timing import PAPER_TIMING
from repro.ntt.plan import paper_64k_plan, plan_for_size
from repro.ntt.staged import execute_plan, execute_plan_inverse
from repro.ssa.encode import SSAParameters


SMALL_PARAMS = SSAParameters(coefficient_bits=24, operand_coefficients=512)


@pytest.fixture
def small_acc():
    plan = plan_for_size(1024, (64, 16))
    return HEAccelerator(pes=4, plan=plan, params=SMALL_PARAMS)


class TestDistributedNTTSmall:
    @pytest.mark.parametrize("pes", [1, 2, 4, 8])
    def test_fast_matches_executor(self, pes, rng):
        plan = plan_for_size(1024, (64, 16))
        acc = HEAccelerator(pes=pes, plan=plan, params=SMALL_PARAMS)
        x = to_field_array([rng.randrange(P) for _ in range(1024)])
        got, _ = acc.distributed_ntt(x)
        assert np.array_equal(got, execute_plan(x, plan))

    def test_datapath_matches_executor(self, small_acc, rng):
        """Every sub-transform through the shift-only unit, every
        twiddle through the DSP multiplier, every beat bank-checked."""
        x = to_field_array([rng.randrange(P) for _ in range(1024)])
        got, _ = small_acc.distributed_ntt(x, fidelity="datapath")
        assert np.array_equal(got, execute_plan(x, small_acc.plan))

    def test_datapath_inverse(self, small_acc, rng):
        x = to_field_array([rng.randrange(P) for _ in range(1024)])
        spectrum = execute_plan(x, small_acc.plan)
        back, _ = small_acc.distributed_ntt(
            spectrum, inverse=True, fidelity="datapath"
        )
        assert np.array_equal(back, x)

    def test_roundtrip(self, small_acc, rng):
        x = to_field_array([rng.randrange(P) for _ in range(1024)])
        spectrum, _ = small_acc.distributed_ntt(x)
        back, _ = small_acc.distributed_ntt(spectrum, inverse=True)
        assert np.array_equal(back, x)

    def test_wrong_length_rejected(self, small_acc):
        with pytest.raises(ValueError):
            small_acc.distributed_ntt(to_field_array([1, 2, 3]))

    def test_unknown_fidelity_rejected(self, small_acc):
        x = to_field_array([0] * 1024)
        with pytest.raises(ValueError):
            small_acc.distributed_ntt(x, fidelity="rtl")

    def test_datapath_cycles_match_analytic(self, small_acc, rng):
        """The component-activity ledger equals the closed form."""
        x = to_field_array([rng.randrange(P) for _ in range(1024)])
        _, report = small_acc.distributed_ntt(x, fidelity="datapath")
        per_pe = [
            (16 // 4) * 8,  # stage 0: 16 radix-64 over 4 PEs
            (64 // 4) * 2,  # stage 1: 64 radix-16 over 4 PEs
        ]
        got = [s.compute_cycles_per_pe for s in report.stages]
        assert got == per_pe
        unit_busy = small_acc.pes[0].fft_unit.busy_cycles
        assert unit_busy == sum(per_pe)


class TestExchangeAccounting:
    def test_single_pe_no_exchange(self, rng):
        plan = plan_for_size(1024, (64, 16))
        acc = HEAccelerator(pes=1, plan=plan, params=SMALL_PARAMS)
        x = to_field_array([rng.randrange(P) for _ in range(1024)])
        _, report = acc.distributed_ntt(x)
        assert all(s.exchange_cycles == 0 for s in report.stages)

    def test_exchange_hidden_at_paper_point(self, rng):
        plan = plan_for_size(1024, (64, 16))
        acc = HEAccelerator(pes=4, plan=plan, params=SMALL_PARAMS)
        x = to_field_array([rng.randrange(P) for _ in range(1024)])
        _, report = acc.distributed_ntt(x)
        for stage in report.stages:
            if stage.exchange_cycles:
                assert stage.overlapped

    def test_uneven_partition_rejected(self):
        plan = plan_for_size(1024, (64, 16))
        with pytest.raises(ValueError):
            HEAccelerator(pes=32, plan=plan, params=SMALL_PARAMS)


class TestMultiplySmall:
    def test_exact_product(self, small_acc, rng):
        a, b = rng.getrandbits(12000), rng.getrandbits(12000)
        product, report = small_acc.multiply(a, b)
        assert product == a * b
        assert len(report.phases) == 5

    def test_datapath_product(self, small_acc, rng):
        a, b = rng.getrandbits(12000), rng.getrandbits(12000)
        product, _ = small_acc.multiply(a, b, fidelity="datapath")
        assert product == a * b

    def test_zero_operands(self, small_acc):
        assert small_acc.multiply(0, 0)[0] == 0
        assert small_acc.multiply(0, 12345)[0] == 0

    def test_phase_names(self, small_acc, rng):
        _, report = small_acc.multiply(1, 1)
        names = [p.name for p in report.phases]
        assert names == [
            "fft_a",
            "fft_b",
            "dot_product",
            "inverse_fft",
            "carry_recovery",
        ]

    def test_ablation_config_still_exact(self, rng):
        """Baseline-config units compute the same products."""
        plan = plan_for_size(1024, (64, 16))
        acc = HEAccelerator(
            pes=2,
            plan=plan,
            params=SMALL_PARAMS,
            config=FFT64Config.baseline(),
        )
        a, b = rng.getrandbits(10000), rng.getrandbits(10000)
        assert acc.multiply(a, b, fidelity="datapath")[0] == a * b


class TestPELedgers:
    @pytest.mark.parametrize(
        "pes,one_row,four_rows",
        [
            (4, (6144, 12288, 12288), (24576, 49152, 49152)),
            (16, (1536, 3840, 3840), (6144, 15360, 15360)),
        ],
    )
    def test_paper_transform_ledgers(self, pes, one_row, four_rows):
        """Per-PE (fft_cycles, words_sent, words_received) after one
        paper 64K transform, then after a further 3-row batch; every
        PE ends on buffer 0 (two swaps per transform call)."""
        acc = HEAccelerator(pes=pes)

        def ledgers():
            return {
                (
                    pe.counters.fft_cycles,
                    pe.counters.words_sent,
                    pe.counters.words_received,
                )
                for pe in acc.pes
            }

        acc.distributed_ntt(np.zeros(acc.plan.n, dtype=np.uint64))
        assert ledgers() == {one_row}
        acc.distributed_ntt_batch(np.zeros((3, acc.plan.n), dtype=np.uint64))
        assert ledgers() == {four_rows}
        assert [pe.active_buffer for pe in acc.pes] == [0] * pes

    def test_datapath_books_fft_cycles_once(self, rng):
        """After one datapath transform every PE's ``fft_cycles`` equals
        the fast-fidelity ledger and its FFT unit's own busy count."""
        plan = plan_for_size(1024, (64, 16))
        x = to_field_array([rng.randrange(P) for _ in range(1024)])
        fast = HEAccelerator(pes=4, plan=plan, params=SMALL_PARAMS)
        datapath = HEAccelerator(pes=4, plan=plan, params=SMALL_PARAMS)
        fast.distributed_ntt(x)
        datapath.distributed_ntt(x, fidelity="datapath")
        for want, pe in zip(fast.pes, datapath.pes):
            assert pe.counters.fft_cycles == want.counters.fft_cycles
            assert pe.counters.fft_cycles == pe.fft_unit.busy_cycles


class TestPaperScale:
    def test_full_64k_fast_ntt(self, rng):
        acc = HEAccelerator()
        x = to_field_array([rng.randrange(P) for _ in range(65536)])
        got, report = acc.distributed_ntt(x)
        assert np.array_equal(got, execute_plan(x, paper_64k_plan()))
        assert report.time_us == pytest.approx(30.72)

    def test_full_multiply_matches_paper_timing(self, rng):
        acc = HEAccelerator()
        a, b = rng.getrandbits(786_432), rng.getrandbits(786_432)
        product, report = acc.multiply(a, b)
        assert product == a * b
        assert report.time_us == pytest.approx(
            PAPER_TIMING.multiplication_time_us(), rel=0.01
        )

    def test_exchange_volume_at_64k(self, rng):
        """Redistribution moves 3/4 of each PE's 16K points; the
        two e-cube hops drain in 2048 cycles — exactly one compute
        stage, hence hidden (l > d holds with l=3, d=2)."""
        acc = HEAccelerator()
        x = to_field_array([rng.randrange(P) for _ in range(65536)])
        _, report = acc.distributed_ntt(x)
        moving = [s for s in report.stages if s.exchange_cycles]
        assert len(moving) == 1
        assert moving[0].exchange_cycles == 2048
        assert moving[0].overlapped
