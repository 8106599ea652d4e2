"""Processing Element (paper Fig. 1).

One node of the distributed accelerator: the Radix-64/16 FFT unit,
double-buffered banked memory, a group of eight twiddle-factor modular
multipliers, the data route (address generator), and the hypercube link
interface.  "While a buffer is feeding current input values, the other
one is filled with new values coming partly from the same node and
partly from one of its neighbors."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.hw import resources as rc
from repro.hw.banked_memory import ARRAY_POINTS, BankedMemory
from repro.hw.data_route import DataRoute
from repro.hw.fft64_unit import FFT64Config, FFT64Unit
from repro.hw.hypercube import HypercubeTopology
from repro.hw.modmul import ModularMultiplier

#: Twiddle multipliers per PE: one per output lane of the FFT unit.
TWIDDLE_MULTIPLIERS = 8

#: Per-node stage sequencer: drives the compute/exchange/swap schedule
#: of Fig. 2 (stage counters, buffer-select state, handshake with the
#: exchange engines).
STAGE_SEQUENCER = rc.ResourceEstimate(alms=1_500, registers=256)


@dataclass
class PECounters:
    """Activity counters accumulated across a run."""

    fft_cycles: int = 0
    twiddle_products: int = 0
    words_sent: int = 0
    words_received: int = 0


class ProcessingElement:
    """Functional + cost model of one PE."""

    def __init__(
        self,
        index: int,
        partition_points: int,
        config: Optional[FFT64Config] = None,
    ):
        self.index = index
        self.partition_points = partition_points
        self.name = f"pe{index}"
        self.fft_unit = FFT64Unit(
            name=f"{self.name}.fft64",
            config=config or FFT64Config.proposed(),
        )
        self.twiddle_multipliers = [
            ModularMultiplier(name=f"{self.name}.modmul{i}")
            for i in range(TWIDDLE_MULTIPLIERS)
        ]
        self.data_route = DataRoute(name=f"{self.name}.route")
        arrays = self._arrays_per_buffer(partition_points)
        self.buffers = [
            [
                BankedMemory(name=f"{self.name}.buf{b}.arr{a}")
                for a in range(arrays)
            ]
            for b in range(2)
        ]
        #: Which buffer currently feeds the FFT unit (double buffering).
        self.active_buffer = 0
        self.counters = PECounters()

    @staticmethod
    def _arrays_per_buffer(points: int) -> int:
        """4096-point arrays needed to hold this PE's partition."""
        return max(1, -(-points // ARRAY_POINTS))

    # -- datapath operations ---------------------------------------------

    def run_sub_transform(
        self, values: Sequence[int], radix: int = 64
    ) -> List[int]:
        """One sub-transform through the FFT unit (cycle-counted)."""
        out = self.fft_unit.transform(values, radix)
        self.counters.fft_cycles += self.fft_unit.initiation_interval(radix)
        return out

    def apply_twiddles(
        self, values: Sequence[int], twiddles: Sequence[int]
    ) -> List[int]:
        """Inter-stage twiddle products on the eight-lane multiplier bank."""
        out = []
        for lane, (value, twiddle) in enumerate(zip(values, twiddles)):
            multiplier = self.twiddle_multipliers[lane % TWIDDLE_MULTIPLIERS]
            if twiddle == 1:
                out.append(int(value))
            else:
                out.append(multiplier.multiply(int(value), int(twiddle)))
                self.counters.twiddle_products += 1
        return out

    def swap_buffers(self) -> None:
        """End-of-stage double-buffer swap."""
        self.active_buffer ^= 1

    # -- cost --------------------------------------------------------------

    def resources(self, hypercube_dimension: int = 2) -> rc.ResourceEstimate:
        """Census of the full PE (Fig. 1 inventory)."""
        total = rc.ZERO
        for estimate in self.resource_breakdown(hypercube_dimension).values():
            total = total + estimate
        return total

    def resource_breakdown(
        self, hypercube_dimension: int = 2
    ) -> Dict[str, rc.ResourceEstimate]:
        """Per-subsystem view used by the Table I report."""
        memory = rc.ZERO
        for buffer in self.buffers:
            for array in buffer:
                memory = memory + array.resources()
            # Shared 8-lane read and write networks across the buffer's
            # banks (one mux leg per lane and port).
            banks = 16 * len(buffer)
            network = rc.mux(64, banks).scale(8 * 2)
            memory = memory + rc.with_overhead(network)
        return {
            "fft64_unit": self.fft_unit.resources(),
            "twiddle_multipliers": ModularMultiplier.resources().scale(
                TWIDDLE_MULTIPLIERS
            ),
            "banked_memory": memory,
            "data_route": self.data_route.resources(),
            "stage_sequencer": STAGE_SEQUENCER,
            "hypercube_links": HypercubeTopology.link_resources().scale(
                max(1, hypercube_dimension)
            ),
        }
