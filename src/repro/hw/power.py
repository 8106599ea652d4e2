"""Power and energy model — the efficiency argument behind the paper.

The paper's related-work discussion leans on [28]'s conclusion that
"the FPGA version is at least twice as fast as the GPU one, with lower
power consumption".  This module makes that argument quantitative for
our reproduced design: a resource-based dynamic-power estimate in the
style of vendor early-power-estimator spreadsheets, plus an
energy-per-multiplication comparison against the published GPU/ASIC
baselines of Table II.

Coefficients are typical Stratix V 28-nm figures (per-resource dynamic
power at 200 MHz and the stated toggle activity) — documented
calibration constants, like the unit costs of the resource census.
The *comparative* claim (orders of magnitude in energy per product vs
a 238 W GPU) is insensitive to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.hw.reports import proposed_fft_census
from repro.hw.resources import ResourceEstimate
from repro.hw.timing import PAPER_TIMING, PUBLISHED_RESULTS, AcceleratorTiming

#: Dynamic power per resource at 200 MHz, 12.5% toggle rate (µW each).
UW_PER_ALM = 6.0
UW_PER_REGISTER = 1.2
UW_PER_DSP = 550.0
UW_PER_M20K_BLOCK = 220.0
#: Static power of the 5SGSMD8 fabric (W).
STATIC_WATTS = 2.9
#: I/O, PLLs, memory controllers (W).
BOARD_OVERHEAD_WATTS = 3.5

#: Published board powers the comparison uses (Watts).
PUBLISHED_POWER_W = {
    "wang_gpu[26]": 238.0,  # NVIDIA Tesla C2050 TDP
    "wang_gpu[27]": 238.0,
    "wang_vlsi_asic[30]": 0.6,  # 90 nm ASIC core, per [30]
}


@dataclass(frozen=True)
class PowerEstimate:
    """Design power broken into the usual Quartus report buckets."""

    logic_w: float
    registers_w: float
    dsp_w: float
    memory_w: float
    static_w: float
    board_w: float

    @property
    def dynamic_w(self) -> float:
        return self.logic_w + self.registers_w + self.dsp_w + self.memory_w

    @property
    def total_w(self) -> float:
        return self.dynamic_w + self.static_w + self.board_w

    def render(self) -> str:
        return (
            f"logic {self.logic_w:.2f} W + registers "
            f"{self.registers_w:.2f} W + DSP {self.dsp_w:.2f} W + "
            f"memory {self.memory_w:.2f} W + static {self.static_w:.2f} W "
            f"+ board {self.board_w:.2f} W = {self.total_w:.2f} W"
        )


def estimate_power(
    resources: Optional[ResourceEstimate] = None,
    activity: float = 1.0,
) -> PowerEstimate:
    """Dynamic + static power of a resource census.

    ``activity`` scales the dynamic component (1.0 = the design's
    nominal toggle assumption; the FFT datapath runs essentially every
    cycle during a transform).
    """
    if resources is None:
        resources = proposed_fft_census().total
    if not 0.0 <= activity <= 2.0:
        raise ValueError("activity factor out of range")
    return PowerEstimate(
        logic_w=resources.alms * UW_PER_ALM * activity / 1e6,
        registers_w=resources.registers * UW_PER_REGISTER * activity / 1e6,
        dsp_w=resources.dsp_blocks * UW_PER_DSP * activity / 1e6,
        memory_w=resources.m20k_blocks * UW_PER_M20K_BLOCK * activity / 1e6,
        static_w=STATIC_WATTS,
        board_w=BOARD_OVERHEAD_WATTS,
    )


@dataclass(frozen=True)
class EnergyRow:
    design: str
    mult_us: float
    power_w: float

    @property
    def energy_mj(self) -> float:
        """Energy per 786,432-bit multiplication, millijoules."""
        return self.mult_us * self.power_w / 1e3


def energy_comparison(
    timing: AcceleratorTiming = PAPER_TIMING,
) -> List[EnergyRow]:
    """Energy-per-multiplication of our design vs published baselines."""
    ours = estimate_power()
    rows = [
        EnergyRow(
            design="proposed",
            mult_us=timing.multiplication_time_us(),
            power_w=ours.total_w,
        )
    ]
    for name, power_w in PUBLISHED_POWER_W.items():
        rows.append(
            EnergyRow(
                design=name,
                mult_us=PUBLISHED_RESULTS[name]["mult_us"],
                power_w=power_w,
            )
        )
    return rows


def render_energy_table(rows: List[EnergyRow]) -> str:
    lines = [
        f"{'design':<22}{'mult (us)':>10}{'power (W)':>11}"
        f"{'energy/mult (mJ)':>18}"
    ]
    base = rows[0].energy_mj
    for row in rows:
        ratio = row.energy_mj / base
        lines.append(
            f"{row.design:<22}{row.mult_us:>10.1f}{row.power_w:>11.1f}"
            f"{row.energy_mj:>18.3f}  ({ratio:.1f}x)"
        )
    return "\n".join(lines)
