"""Tests for the analytic timing model against the paper's Section V."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.hw.timing import (
    BASELINE_TIMING,
    PAPER_TIMING,
    AcceleratorTiming,
)
from repro.ntt.plan import plan_for_size


class TestPaperNumbers:
    def test_fft_time(self):
        """T_FFT = 2·(5ns·8·1024)/4 + (5ns·2)·4096/4 = 30.72 µs."""
        assert PAPER_TIMING.fft_time_us() == pytest.approx(30.72)

    def test_fft_terms(self):
        stages = PAPER_TIMING.fft_stage_cycles()
        assert stages == [(64, 2048), (64, 2048), (16, 2048)]

    def test_dot_product_time(self):
        """T_DOTPROD = 5ns·65536/32 = 10.24 µs."""
        assert PAPER_TIMING.dot_product_time_us() == pytest.approx(10.24)

    def test_carry_recovery_near_20us(self):
        assert PAPER_TIMING.carry_recovery_time_us() == pytest.approx(
            20.48
        )

    def test_multiplication_time(self):
        """3 FFTs + dot product + carry ≈ 122.9 µs (paper: ≈122)."""
        assert PAPER_TIMING.multiplication_time_us() == pytest.approx(
            122.88, abs=0.1
        )

    def test_phase_breakdown_sums(self):
        phases = PAPER_TIMING.phase_breakdown_us()
        assert sum(phases.values()) == pytest.approx(
            PAPER_TIMING.multiplication_time_us()
        )


class TestBaselineModel:
    def test_baseline_fft_near_published(self):
        """[28] published 125 µs; the P=1 model gives 122.88."""
        assert BASELINE_TIMING.fft_time_us() == pytest.approx(125.0, rel=0.05)

    def test_baseline_mult_near_published(self):
        """[28] published 405 µs."""
        assert BASELINE_TIMING.multiplication_time_us() == pytest.approx(
            405.0, rel=0.05
        )

    def test_speedup_matches_paper(self):
        """Paper: '[28] is 3.32X larger'."""
        speedup = (
            BASELINE_TIMING.multiplication_time_us()
            / PAPER_TIMING.multiplication_time_us()
        )
        assert speedup == pytest.approx(3.32, rel=0.05)


class TestScalingBehaviour:
    def test_fft_scales_inversely_with_pes(self):
        t1 = AcceleratorTiming(pes=1).fft_time_us()
        for pes in (2, 4, 8, 16):
            t = AcceleratorTiming(pes=pes).fft_time_us()
            assert t == pytest.approx(t1 / pes)

    def test_clock_scaling(self):
        fast = AcceleratorTiming(clock_ns=2.5)
        assert fast.fft_time_us() == pytest.approx(
            PAPER_TIMING.fft_time_us() / 2
        )

    def test_alternative_plan(self):
        plan = plan_for_size(65536, (16, 64, 64))
        timing = AcceleratorTiming(radices=plan.radices)
        # 4096 radix-16 (2 cyc) + 2×1024 radix-64 (8 cyc) → same total.
        assert timing.fft_time_us() == pytest.approx(30.72)

    def test_smaller_transform(self):
        plan = plan_for_size(4096, (64, 64))
        timing = AcceleratorTiming(radices=plan.radices, pes=4)
        # 2 stages × (64/4) sub-transforms/PE × 8 cycles = 256 cycles.
        assert timing.fft_cycles() == 256

    def test_size_is_the_product_of_the_radices(self):
        assert PAPER_TIMING.n == 65536
        assert AcceleratorTiming(radices=(64, 64)).n == 4096

    def test_more_dot_multipliers_cut_dot_time(self):
        wide = AcceleratorTiming(dot_product_multipliers=64)
        assert wide.dot_product_time_us() == pytest.approx(5.12)


def test_import_builds_no_plan():
    """``import repro`` builds no transform plan: the paper timing
    constants need only the 64K plan's shape."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import repro\n"
        "from repro.ntt.plan import plan_cache_stats\n"
        "print(plan_cache_stats().misses)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"
