"""Deployment models: on-chip Stratix V vs the multi-board prototype.

Section IV: "The solution was initially prototyped on a multi-board
platform based on low-end devices (Altera Cyclone V) then extended to a
hybrid on-/off-chip solution relying on a larger device".  This module
captures what changes between those deployments:

- device capacity (does a PE fit? how many modular multipliers?),
- link bandwidth (on-chip channels move 8 words/cycle; off-chip
  board-to-board links far less),
- clock rate.

The FFT latency is the accelerator's own stage schedule
(:func:`~repro.hw.accelerator.plan_schedule`) under the deployment's
:class:`~repro.arch.spec.ArchSpec`, which adds communication
*exposure* to the Section V formula: each of the ``d`` e-cube hops
moves ``n/(2P)`` words per node, and whatever does not fit under the
next compute stage stalls the pipeline.  On-chip at the paper's operating point the exchange hides
exactly (the l > d argument); on a multi-board prototype it does not —
which is the quantitative story behind the paper's move to a single
large device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.arch.spec import ArchSpec
from repro.hw.accelerator import (
    DistributedFFTReport,
    StageTiming,
    plan_schedule,
)
from repro.hw.device import CYCLONE_V_PROTOTYPE, STRATIX_V_GSMD8, FpgaDevice
from repro.hw.pe import ProcessingElement
from repro.hw.timing import multiplication_cycles
from repro.ntt.plan import TransformPlan, paper_64k_plan


@dataclass(frozen=True)
class DeploymentSpec:
    """One way of physically realizing the accelerator."""

    name: str
    device: FpgaDevice
    pes: int
    pes_per_device: int
    clock_ns: float
    #: 64-bit words per cycle across one inter-PE link.
    link_words_per_cycle: int
    dot_product_multipliers: int

    @property
    def devices_needed(self) -> int:
        return -(-self.pes // self.pes_per_device)

    @property
    def arch(self) -> ArchSpec:
        """The machine this deployment realizes: the paper spec with the
        deployment's PE count, clock, link width and dot-product bank."""
        return ArchSpec.paper_variant(
            name=self.name,
            pes=self.pes,
            clock_ns=self.clock_ns,
            link_words_per_cycle=self.link_words_per_cycle,
            dot_product_multipliers=self.dot_product_multipliers,
        )


#: The paper's final implementation: everything in one Stratix V.
STRATIX_ON_CHIP = DeploymentSpec(
    name="Stratix V on-chip (paper)",
    device=STRATIX_V_GSMD8,
    pes=4,
    pes_per_device=4,
    clock_ns=5.0,
    link_words_per_cycle=8,
    dot_product_multipliers=32,
)

#: The initial prototype: one PE per Cyclone V board; links cross board
#: boundaries on serial transceivers (~1 word/cycle at the lower clock).
CYCLONE_MULTI_BOARD = DeploymentSpec(
    name="Cyclone V multi-board prototype",
    device=CYCLONE_V_PROTOTYPE,
    pes=4,
    pes_per_device=1,
    clock_ns=10.0,
    link_words_per_cycle=1,
    dot_product_multipliers=8,
)


@dataclass(frozen=True)
class DeploymentReport:
    spec: DeploymentSpec
    #: The transform's stage schedule under :attr:`DeploymentSpec.arch`.
    schedule: DistributedFFTReport
    fits: bool
    fit_notes: Tuple[str, ...]

    @property
    def stages(self) -> List[StageTiming]:
        return self.schedule.stages

    @property
    def fft_cycles(self) -> int:
        return self.schedule.total_cycles

    @property
    def fft_time_us(self) -> float:
        return self.schedule.time_us

    def multiplication_time_us(self, n: int) -> float:
        cycles = multiplication_cycles(self.spec.arch, self.fft_cycles, n)
        return cycles * self.spec.clock_ns / 1000.0

    def render(self) -> str:
        lines = [
            f"{self.spec.name}: {self.spec.pes} PEs on "
            f"{self.spec.devices_needed} x {self.spec.device.name}",
            f"  fits: {self.fits}"
            + (f" ({'; '.join(self.fit_notes)})" if self.fit_notes else ""),
            f"  T_FFT = {self.fft_time_us:.2f} us "
            f"({self.fft_cycles} cycles at {1000 / self.spec.clock_ns:.0f} MHz)",
        ]
        for s in self.stages:
            exposure = (
                f", {s.exposed_cycles} EXPOSED"
                if s.exposed_cycles
                else " (hidden)"
            )
            comm = (
                f"; exchange {s.exchange_cycles} cycles{exposure}"
                if s.exchange_cycles
                else ""
            )
            lines.append(
                f"    stage {s.index}: radix-{s.radix}, "
                f"{s.compute_cycles_per_pe} compute{comm}"
            )
        return "\n".join(lines)


def evaluate_deployment(
    spec: DeploymentSpec, plan: TransformPlan = None
) -> DeploymentReport:
    """Latency and fit analysis of a deployment.

    The latency is the accelerator's own stage schedule
    (:func:`~repro.hw.accelerator.plan_schedule`) under the
    deployment's machine; the fit check packs ``pes_per_device`` full
    PEs into one device.
    """
    if plan is None:
        plan = paper_64k_plan()
    schedule = plan_schedule(spec.arch, plan)

    notes = []
    dimension = max(0, spec.pes.bit_length() - 1)
    pe = ProcessingElement(0, plan.n // spec.pes)
    per_device = pe.resources(dimension).scale(spec.pes_per_device)
    fits = True
    for resource, capacity in (
        ("alms", spec.device.alms),
        ("registers", spec.device.registers),
        ("dsp_blocks", spec.device.dsp_blocks),
        ("m20k_blocks", spec.device.m20k_blocks),
    ):
        used = getattr(per_device, resource)
        if used > capacity:
            fits = False
            notes.append(
                f"{resource}: need {used:.0f} > {capacity} available"
            )
    return DeploymentReport(
        spec=spec, schedule=schedule, fits=fits, fit_notes=tuple(notes)
    )
