"""Tests for the analysis helpers (sweeps, shape checks)."""

import pytest

from repro.analysis.sweep import (
    crossover_point,
    karatsuba_ops,
    operand_size_sweep,
    pe_scaling_sweep,
    radix_plan_sweep,
    schoolbook_ops,
    ssa_ops,
)
from repro.analysis.tables import shape_check


class TestShapeCheck:
    def test_within_tolerance(self):
        assert shape_check("x", 102.0, 100.0, tolerance=0.05).ok

    def test_outside_tolerance(self):
        assert not shape_check("x", 120.0, 100.0, tolerance=0.05).ok

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            shape_check("x", 1.0, 0.0)

    def test_render(self):
        text = shape_check("fft", 30.72, 30.7).render()
        assert "OK" in text and "fft" in text


class TestPeScaling:
    def test_monotone_and_efficient(self):
        points = pe_scaling_sweep()
        for prev, cur in zip(points, points[1:]):
            assert cur.fft_us < prev.fft_us
        # Compute partitions perfectly in this model.
        assert all(p.parallel_efficiency == pytest.approx(1.0) for p in points)

    def test_paper_point_present(self):
        points = {p.pes: p for p in pe_scaling_sweep()}
        assert points[4].fft_us == pytest.approx(30.72)
        assert points[1].fft_us == pytest.approx(122.88)


class TestRadixPlans:
    def test_all_plans_same_latency_at_8_points_per_cycle(self):
        """Any radix mix with the same total size and 8 points/cycle
        throughput lands at the same latency — radix choice trades
        area, not cycles, in this regime."""
        sweep = radix_plan_sweep()
        values = set(round(v, 2) for v in sweep.values())
        assert values == {30.72}

    def test_radices_must_factor_the_size(self):
        with pytest.raises(ValueError, match="do not factor"):
            radix_plan_sweep(plans=[(64, 64)])


class TestCrossover:
    def test_paper_claim_order_of_magnitude(self):
        """SSA wins from ~100,000 bits (Section III) — accept the
        bracket [30K, 300K] for the Karatsuba crossover."""
        point = crossover_point("karatsuba")
        assert 30_000 <= point <= 300_000

    def test_schoolbook_crossover_earlier(self):
        assert crossover_point("schoolbook") < crossover_point("karatsuba")

    def test_ssa_wins_at_paper_size(self):
        bits = 786_432
        assert ssa_ops(bits) < karatsuba_ops(bits) < schoolbook_ops(bits)

    def test_schoolbook_wins_small(self):
        assert schoolbook_ops(1024) < ssa_ops(1024)

    def test_sweep_is_monotone(self):
        points = operand_size_sweep()
        for prev, cur in zip(points, points[1:]):
            assert cur.ssa > prev.ssa
            assert cur.schoolbook > prev.schoolbook
