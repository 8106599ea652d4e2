"""Tests for the declarative architecture subsystem (``repro.arch``).

Covers spec validation, JSON round-trips, the golden bit-identity of
``ArchSpec.paper_default()`` against the pre-refactor hardware model,
the pipelined batch overlap schedule, routing sanity of the non-paper
topologies, Pareto pruning on a synthetic frontier, and the engine
wiring (``ExecutionConfig(arch=...)``).
"""

import json

import pytest

from repro.arch import (
    ArchSpec,
    DesignSpace,
    ExchangeSpec,
    PESpec,
    enumerate_candidates,
    evaluate_candidate,
    explore,
    pareto_frontier,
)
from repro.arch.explore import (
    CandidateMetrics,
    DesignPoint,
    paper_point,
)
from repro.hw.accelerator import (
    DistributedFFTBatchReport,
    HEAccelerator,
    plan_schedule,
)
from repro.hw.timing import AcceleratorTiming
from repro.ntt.plan import paper_64k_plan


class TestSpecValidation:
    def test_paper_default(self):
        spec = ArchSpec.paper_default()
        assert spec.pes == 4
        assert spec.clock_ns == 5.0
        assert spec.pe.fft_units == 1
        assert spec.exchange.topology == "hypercube"
        assert spec.dot_product_multipliers == 32
        assert spec.carry_words_per_cycle == 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pes": 3},  # hypercube needs a power of two
            {"pes": 0},
            {"clock_ns": 0.0},
            {"clock_ns": -5.0},
            {"dot_product_multipliers": 0},
            {"carry_words_per_cycle": 0},
            {"name": ""},
        ],
    )
    def test_bad_spec_fields(self, kwargs):
        with pytest.raises(ValueError):
            ArchSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fft_units": 0},
            {"banks": 12},
            {"bank_port_words": 3},
            {"bank_port_words": 32, "banks": 16},  # port > banks
            {"twiddle_multipliers": 0},
        ],
    )
    def test_bad_pe_fields(self, kwargs):
        with pytest.raises(ValueError):
            PESpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"topology": "torus"},
            {"link_words_per_cycle": 0},
            {"hop_latency_cycles": -1},
        ],
    )
    def test_bad_exchange_fields(self, kwargs):
        with pytest.raises(ValueError):
            ExchangeSpec(**kwargs)

    def test_ring_allows_odd_pe_counts(self):
        spec = ArchSpec.paper_default().with_overrides(topology="ring")
        # Validation is per-topology: the ring itself has no
        # power-of-two constraint.
        spec.exchange.validate_nodes(6)

    def test_spec_is_hashable(self):
        a = ArchSpec.paper_default()
        b = ArchSpec.paper_default()
        assert a == b and hash(a) == hash(b)
        assert a.with_overrides(pes=8) != a

    def test_with_overrides_routes_nested_fields(self):
        spec = ArchSpec.paper_default().with_overrides(
            fft_units=2, topology="ring", pes=8, link_words_per_cycle=16
        )
        assert spec.pe.fft_units == 2
        assert spec.exchange.topology == "ring"
        assert spec.exchange.link_words_per_cycle == 16
        assert spec.pes == 8


class TestSerialization:
    def test_json_round_trip(self):
        spec = ArchSpec.paper_default().with_overrides(
            pes=8,
            fft_units=2,
            topology="ring",
            hop_latency_cycles=2,
            dot_product_multipliers=64,
            name="round-trip",
        )
        again = ArchSpec.from_json(spec.to_json())
        assert again == spec

    def test_json_is_stable(self):
        spec = ArchSpec.paper_default()
        assert spec.to_json() == ArchSpec.from_json(spec.to_json()).to_json()

    def test_dict_shape(self):
        data = ArchSpec.paper_default().to_dict()
        assert data["pes"] == 4
        assert data["pe"]["banks"] == 16
        assert data["exchange"]["topology"] == "hypercube"
        # Plain-JSON serializable.
        json.dumps(data)

    @pytest.mark.parametrize(
        "data",
        [
            {},  # missing pes / clock
            {"pes": 4},  # missing clock
            {"pes": 4, "clock_ns": 5.0, "pe": {"bogus": 1}},
            {"pes": 4, "clock_ns": 5.0, "exchange": {"bogus": 1}},
        ],
    )
    def test_malformed_dict(self, data):
        with pytest.raises(ValueError):
            ArchSpec.from_dict(data)


class TestDerivedQuantities:
    def test_hypercube_graph(self):
        spec = ArchSpec.paper_default()
        edges = spec.edges()
        assert len(edges) == 8  # 4 nodes x log2(4) dims, directed
        assert spec.delay_table() == {edge: 0 for edge in edges}
        assert spec.aggregate_bandwidth_words_per_cycle() == 64
        assert spec.bisection_words_per_cycle() == 32

    def test_ring_and_all_to_all_graphs(self):
        ring = ArchSpec.paper_default().with_overrides(topology="ring")
        assert len(ring.edges()) == 8  # 4 nodes x 2 neighbors
        full = ArchSpec.paper_default().with_overrides(
            topology="all-to-all"
        )
        assert len(full.edges()) == 12  # 4 x 3

    def test_area_proxy_positive_and_monotone_in_pes(self):
        p4 = ArchSpec.paper_default()
        p8 = p4.with_overrides(pes=8)
        assert 0 < p4.area_proxy() < p8.area_proxy()

    def test_render_mentions_the_headline_quantities(self):
        text = ArchSpec.paper_default().render()
        assert "200 MHz" in text
        assert "hypercube" in text
        assert "area proxy" in text


class TestGoldenBitIdentity:
    """paper_default() must reproduce the pre-refactor cycle reports."""

    def test_paper_fft_schedule(self):
        acc = HEAccelerator()
        report = acc._timing_report(acc.plan)
        assert report.total_cycles == 6144
        assert report.time_us == pytest.approx(30.72)
        assert report.stall_cycles == 0
        per_stage = [
            (s.radix, s.compute_cycles_per_pe, s.exchange_words_per_link,
             s.exchange_cycles, s.overlapped)
            for s in report.stages
        ]
        assert per_stage == [
            (64, 2048, 16384, 2048, True),
            (64, 2048, 0, 0, True),
            (16, 2048, 0, 0, True),
        ]

    def test_paper_multiply_phases(self):
        acc = HEAccelerator()
        product, report = acc.multiply(123456789, 987654321)
        assert product == 123456789 * 987654321
        assert report.total_cycles == 24580
        assert report.time_us == pytest.approx(122.9)
        phases = {p.name: p.cycles for p in report.phases}
        assert phases == {
            "fft_a": 6144,
            "fft_b": 6144,
            "dot_product": 2052,
            "inverse_fft": 6144,
            "carry_recovery": 4096,
        }

    @pytest.mark.parametrize(
        "pes,total", [(8, 3584), (16, 2048), (64, 640)]
    )
    def test_stressed_pe_counts(self, pes, total):
        acc = HEAccelerator(pes=pes)
        assert acc._timing_report(acc.plan).total_cycles == total

    def test_plan_schedule_matches_accelerator(self):
        spec = ArchSpec.paper_default().with_overrides(
            pes=16, name="p16"
        )
        acc = HEAccelerator(pes=16)
        via_spec = plan_schedule(spec, paper_64k_plan())
        via_acc = acc._timing_report(acc.plan)
        assert via_spec.total_cycles == via_acc.total_cycles
        assert [s.exchange_cycles for s in via_spec.stages] == [
            s.exchange_cycles for s in via_acc.stages
        ]

    def test_for_arch_matches_scalar_timing(self):
        spec = ArchSpec.paper_default()
        assert (
            AcceleratorTiming(spec).multiplication_cycles()
            == AcceleratorTiming().multiplication_cycles()
        )
        p8 = spec.with_overrides(pes=8, name="p8")
        assert (
            AcceleratorTiming(p8).fft_cycles()
            == AcceleratorTiming(pes=8).fft_cycles()
        )


class TestBatchOverlap:
    def test_paper_point_unchanged(self):
        # Every exchange is hidden at P=4, so the pipelined schedule is
        # bit-identical to the serial one.
        acc = HEAccelerator()
        batch = acc.batch_schedule(8)
        assert batch.total_cycles == batch.serial_total_cycles == 8 * 6144
        assert batch.hidden_stall_cycles == 0

    def test_single_row_is_serial(self):
        acc = HEAccelerator(pes=16)
        batch = acc.batch_schedule(1)
        assert batch.total_cycles == batch.per_row.total_cycles

    def test_stressed_point_overlaps_cross_row(self):
        # At P=16 the stage-0 exchange is exposed; rows 2..N hide it
        # behind the next row's compute.
        acc = HEAccelerator(pes=16)
        batch = acc.batch_schedule(16)
        assert batch.serial_total_cycles == 16 * 2048
        assert batch.total_cycles == 25088
        assert batch.hidden_stall_cycles == 32768 - 25088
        assert batch.steady_interval_cycles == max(
            batch.per_row.compute_cycles,
            batch.per_row.exchange_total_cycles,
        )

    def test_batch_report_from_transform_call(self):
        import numpy as np

        acc = HEAccelerator(pes=16)
        data = np.zeros((4, 65536), dtype=np.uint64)
        _, report = acc.distributed_ntt_batch(data)
        assert isinstance(report, DistributedFFTBatchReport)
        assert report.total_cycles == acc.batch_schedule(4).total_cycles

    def test_render_mentions_pipeline(self):
        text = HEAccelerator(pes=16).batch_schedule(4).render()
        assert "steady state" in text
        assert "hidden cross-row" in text


class TestRoutingModels:
    def test_ring_exchange_is_costed(self):
        import numpy as np

        spec = ExchangeSpec(topology="ring")
        src = np.array([0, 0, 1, 2], dtype=np.int64)
        dst = np.array([1, 2, 0, 0], dtype=np.int64)
        words, cycles = spec.route_cycles(src, dst, 4)
        assert words >= 1 and cycles >= 1

    def test_hop_latency_adds_cycles(self):
        import numpy as np

        fast = ExchangeSpec(topology="hypercube", hop_latency_cycles=0)
        slow = ExchangeSpec(topology="hypercube", hop_latency_cycles=4)
        src = np.arange(8, dtype=np.int64) % 4
        dst = (np.arange(8, dtype=np.int64) + 1) % 4
        _, fast_cycles = fast.route_cycles(src, dst, 4)
        _, slow_cycles = slow.route_cycles(src, dst, 4)
        assert slow_cycles > fast_cycles

    def test_all_to_all_single_phase(self):
        import numpy as np

        spec = ExchangeSpec(topology="all-to-all", link_words_per_cycle=8)
        src = np.zeros(64, dtype=np.int64)
        dst = np.ones(64, dtype=np.int64)
        words, cycles = spec.route_cycles(src, dst, 4)
        assert (words, cycles) == (64, 8)


def _metric(cycles, area, tag="x"):
    spec = ArchSpec.paper_default().with_overrides(name=tag)
    return CandidateMetrics(
        point=DesignPoint(spec, (64, 64, 16)),
        workload_cycles=(("synthetic", cycles),),
        area_proxy=float(area),
    )


class TestParetoPruning:
    def test_synthetic_frontier(self):
        a = _metric(100, 50.0, "a")   # frontier
        b = _metric(80, 80.0, "b")    # frontier
        c = _metric(120, 60.0, "c")   # dominated by a
        d = _metric(100, 70.0, "d")   # dominated by a
        e = _metric(60, 120.0, "e")   # frontier
        frontier = pareto_frontier([a, b, c, d, e])
        assert [m.spec.name for m in frontier] == ["e", "b", "a"]

    def test_duplicate_objectives_kept_once(self):
        a = _metric(100, 50.0, "a")
        b = _metric(100, 50.0, "b")
        assert len(pareto_frontier([a, b])) == 1

    def test_dominance_relations(self):
        better = _metric(90, 50.0)
        paper = _metric(100, 50.0)
        assert better.dominates(paper)
        assert better.strictly_faster_not_larger(paper)
        assert not paper.dominates(paper)


class TestExploration:
    def test_enumeration_is_deterministic(self):
        space = DesignSpace()
        first = enumerate_candidates(space)
        second = enumerate_candidates(space)
        assert first == second
        assert len(first) == space.size()  # nothing invalid by default

    def test_max_candidates_stride_samples(self):
        space = DesignSpace(max_candidates=10)
        points = enumerate_candidates(space)
        assert len(points) <= 10

    def test_evaluate_paper_point(self):
        metrics = evaluate_candidate(paper_point())
        assert metrics is not None
        cycles = dict(metrics.workload_cycles)
        # 24 rows x 6144 cycles (fully hidden exchanges) plus 8 dot +
        # carry passes: 8 x (2052 + 4096).
        assert cycles["ssa-64k-x8"] == 24 * 6144 + 8 * (2052 + 4096)
        assert metrics.area_proxy == pytest.approx(
            ArchSpec.paper_default().area_proxy()
        )

    def test_infeasible_candidate_returns_none(self):
        spec = ArchSpec.paper_default().with_overrides(
            pes=128, name="p128"
        )
        # 64K plan stage 2 has 1024 radix-64 sub-transforms at radices
        # (16, 64, 64)? Use a point whose stage count does not divide.
        point = DesignPoint(spec, (64, 64, 16))
        metrics = evaluate_candidate(point)
        # 65536/64 = 1024 sub-transforms divide by 128, so this one is
        # feasible; shrink the workload instead via the RLWE plan
        # (4096/64 = 64 < 128).
        assert metrics is None

    def test_small_exploration_inline(self):
        space = DesignSpace(
            pes=(2, 4),
            fft_units=(1, 2),
            dot_product_multipliers=(32, 64),
            carry_words_per_cycle=(16, 64),
            topologies=("hypercube",),
            radix_plans_64k=((64, 64, 16),),
        )
        result = explore(space=space, use_jobs=False)
        assert result.evaluated
        assert result.frontier
        # The paper point is evaluated even when outside the space.
        assert result.paper.total_cycles > 0
        # Acceptance criterion: something strictly dominates the paper
        # point (P=2 with two FFT units has the identical schedule at
        # lower area, and wider dot/carry strictly cuts cycles).
        assert result.dominating_paper()

    def test_exploration_is_deterministic(self):
        space = DesignSpace(
            pes=(2, 4),
            fft_units=(1,),
            dot_product_multipliers=(32,),
            carry_words_per_cycle=(16,),
            topologies=("hypercube", "ring"),
            radix_plans_64k=((64, 64, 16),),
        )
        first = explore(space=space, use_jobs=False)
        second = explore(space=space, use_jobs=True)
        assert first.to_json() == second.to_json()


class TestEngineWiring:
    def test_engine_uses_the_spec(self):
        from repro.engine import Engine, ExecutionConfig

        spec = ArchSpec.paper_default().with_overrides(
            pes=2, fft_units=2, name="p2-u2"
        )
        engine = Engine(
            config=ExecutionConfig(arch=spec), backend="hw-model"
        )
        try:
            accelerator = engine.hardware()
            assert accelerator.arch.pe.fft_units == 2
            assert accelerator.pe_count == 2
            # P=2 with two FFT units keeps the paper's 6144-cycle
            # transform schedule.
            report = accelerator._timing_report(accelerator.plan)
            assert report.total_cycles == 6144
        finally:
            engine.close()

    def test_accelerator_pool_keyed_by_arch(self):
        from repro.engine import Engine, ExecutionConfig

        engine = Engine(config=ExecutionConfig(), backend="hw-model")
        try:
            first = engine.hardware()
            second = engine.hardware()
            assert first is second
        finally:
            engine.close()
