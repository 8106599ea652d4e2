"""Cross-view consistency of the hardware model.

The machine is priced in several views — the closed form behind
Table II, the accelerator's stage schedule and product report, the
deployment model, the clocked controller and the resource census of
the design-space explorer.  Each view reads the one
:class:`~repro.arch.spec.ArchSpec`; these tests pin that the views
agree wherever they describe the same quantity.
"""

import dataclasses

import pytest

from repro.arch import ArchSpec
from repro.hw.accelerator import HEAccelerator, plan_schedule
from repro.hw.controller import AcceleratorController, multiply_program
from repro.hw.deployment import (
    STRATIX_ON_CHIP,
    DeploymentSpec,
    evaluate_deployment,
)
from repro.hw.device import STRATIX_V_GSMD8
from repro.hw.reports import proposed_fft_census
from repro.hw.timing import PAPER_TIMING, AcceleratorTiming
from repro.ntt.plan import paper_64k_plan, plan_for_size
from repro.sim.kernel import Simulator


@pytest.mark.parametrize("pes", [1, 2, 4, 8, 16])
def test_paper_spec_census_matches_table1(pes):
    """The spec's PE census and Table I's census count the same
    hardware, M20K blocks included; a lone PE books no link."""
    spec = ArchSpec.paper_variant(pes=pes)
    ours = dataclasses.asdict(spec.resource_census()["pes"])
    table1 = dataclasses.asdict(proposed_fft_census(spec.pes).total)
    assert ours == pytest.approx(table1)


class TestPaperPoint:
    def test_every_fft_view_is_6144_cycles(self):
        sim = Simulator()
        controller = sim.add(AcceleratorController(multiply_program()))
        sim.run_until(lambda: controller.done, max_cycles=200_000)
        spans = {label: end - start for label, start, end in controller.executed}
        assert {
            "closed form": PAPER_TIMING.fft_cycles(),
            "plan_schedule": plan_schedule(
                ArchSpec.paper_default(), paper_64k_plan()
            ).total_cycles,
            "deployment": evaluate_deployment(STRATIX_ON_CHIP).fft_cycles,
            "controller FFT_A": spans["FFT_A"],
        } == dict.fromkeys(
            ("closed form", "plan_schedule", "deployment", "controller FFT_A"),
            6144,
        )

    def test_multiplication_totals(self):
        """Table II's T_MULT omits the dot-product fill; the hw-model
        report adds it; the deployment model reads the closed form."""
        spec = ArchSpec.paper_default()
        _, report = HEAccelerator().multiply(12345, 67890)
        assert PAPER_TIMING.multiplication_cycles() == 24576
        assert spec.dot_product_fill_cycles == 4
        assert report.total_cycles == 24576 + spec.dot_product_fill_cycles
        assert evaluate_deployment(STRATIX_ON_CHIP).multiplication_time_us(
            65536
        ) == PAPER_TIMING.multiplication_time_us()


def test_closed_form_and_schedule_differ_by_exposed_exchange():
    """At P = 16 the stage-0 exchange outlasts the next compute stage;
    the closed form leaves it out, the schedule exposes it."""
    spec = ArchSpec.paper_variant(pes=16)
    schedule = plan_schedule(spec, paper_64k_plan())
    closed = AcceleratorTiming(spec).fft_cycles()
    exposed = sum(stage.exposed_cycles for stage in schedule.stages)
    assert (closed, schedule.total_cycles, exposed) == (1536, 2048, 512)
    assert schedule.total_cycles - closed == exposed


@pytest.mark.parametrize(
    "radices,pes,link",
    [
        ((64, 64, 16), 4, 8),
        ((64, 64, 16), 4, 1),
        ((16, 64, 64), 8, 1),
        ((64, 32, 32), 16, 8),
        ((64, 32, 32), 2, 1),
    ],
)
def test_deployment_matches_plan_schedule(radices, pes, link):
    """The deployment model's latency is the accelerator's schedule,
    whose one exchange is the Section IV e-cube walk: ``d`` hops of
    ``n / (2P)`` words after the first stage."""
    plan = plan_for_size(65536, radices)
    deployment = DeploymentSpec(
        name="parity",
        device=STRATIX_V_GSMD8,
        pes=pes,
        pes_per_device=pes,
        clock_ns=5.0,
        link_words_per_cycle=link,
        dot_product_multipliers=32,
    )
    report = evaluate_deployment(deployment, plan)
    schedule = plan_schedule(
        ArchSpec.paper_default().with_overrides(
            pes=pes, link_words_per_cycle=link, name="parity"
        ),
        plan,
    )
    hops = pes.bit_length() - 1
    hop_cycles = -(-(plan.n // (2 * pes)) // link)
    assert [s.exchange_cycles for s in report.stages] == [
        s.exchange_cycles for s in schedule.stages
    ] == [hops * hop_cycles, 0, 0]
    assert sum(s.exposed_cycles for s in report.stages) == (
        schedule.stall_cycles
    )
    assert report.fft_cycles == schedule.total_cycles
